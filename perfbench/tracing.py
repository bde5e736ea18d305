"""Tracing from outside the package: wrap polyiter's public functions at run time.

Nothing in the package is edited.  Each traced function is replaced by a
wrapper in the module that defines it and in every polyiter module that
imported it by name (``from .dynamics import moment_w``), so calls through
either name are seen.  Per-element helpers (``eval_map``, ``pow_mod``, the
``IterGraph`` methods) stay unwrapped: their call counts would swamp the
timing.  Spans are kept in memory and reduced to per-function totals when
the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# counters computed from argument and array sizes (never measured bandwidth)
# ---------------------------------------------------------------------------

def _vertices(tracer, args, kwargs, result):
    tracer.counters["dynamics.functional_graph_stats.vertices"] += args[0].p


def _step_table(tracer, args, kwargs, result):
    f = args[0]
    tracer.tables.add((f.p, f.d))


def _bytes_computed(tracer, args, kwargs, result):
    # the arange plus one gathered int64 array of length p per pass
    f, depth = args[0], _arg(args, kwargs, 1, "N")
    tracer.counters["dynamics.apply_map_to_domain.bytes_computed"] += 8 * f.p * (depth + 1)


def _entries(tracer, args, kwargs, result):
    tracer.counters["recur.e_coeffs.entries"] += len(result.v)


def _label_space(tracer, args, kwargs, result):
    r, k, d = (_arg(args, kwargs, i, n) for i, n in enumerate(("r", "k", "d")))
    labels = 1 + (r + 1) * (d - 1)  # "no collision" plus (xi, eta) for xi <= r
    tracer.counters["graphs.enumerate_complete_proper.emitted"] += len(result)
    tracer.counters["graphs.enumerate_complete_proper.label_space"] += (
        labels ** (k * (k - 1) // 2) if k >= 2 else 1
    )


def _curve_cells(tracer, args, kwargs, result):
    tracer.counters["curves.grid_cells"] += args[0].p ** args[1].k


def _cr_cells(tracer, args, kwargs, result):
    tracer.counters["curves.grid_cells"] += args[0].p ** _arg(args, kwargs, 2, "k")


def _sweep_records(tracer, args, kwargs, result):
    records, summary = result
    tracer.counters["lab.records"] += len(records)


def _theorem_sweep(tracer, args, kwargs, result):
    _sweep_records(tracer, args, kwargs, result)
    records, summary = result
    share = summary["precondition_failure_fraction"]
    if records and share < 1:
        # the summary holds rejected / drawn; accepted = drawn - rejected
        drawn = len(records) / (1 - share)
        tracer.counters["lab.drawn"] += drawn
        tracer.counters["lab.rejected"] += drawn * share


def _rendered_bytes(tracer, args, kwargs, result):
    tracer.counters["report.render_records.bytes"] += len(result.encode("utf-8"))


# (module, public function, counter hook or None)
TARGETS = [
    ("field", "is_prime", None),
    ("field", "validate_params", None),
    ("field", "primitive_dth_root", None),
    ("field", "field_params", None),
    ("dynamics", "poly_map", None),
    ("dynamics", "step_table", _step_table),
    ("dynamics", "apply_map_to_domain", _bytes_computed),
    ("dynamics", "image_size", None),
    ("dynamics", "preimage_distribution", None),
    ("dynamics", "moment_w", None),
    ("dynamics", "orbit_of_zero", None),
    ("dynamics", "check_precondition", None),
    ("dynamics", "q_coeffs", None),
    ("dynamics", "zero_count_identity", None),
    ("dynamics", "functional_graph_stats", _vertices),
    ("recur", "mu_sequence", None),
    ("recur", "e_coeffs", _entries),
    ("recur", "u_value", None),
    ("recur", "partition_recursion_check", None),
    ("graphs", "maximal_extension", None),
    ("graphs", "enumerate_complete_proper", _label_space),
    ("graphs", "enumerate_trees", None),
    ("curves", "count_curve_points", _curve_cells),
    ("curves", "count_cr_points", _cr_cells),
    ("curves", "decomposition_check", None),
    ("lab", "primes_with_degree", None),
    ("lab", "sweep_theorem", _theorem_sweep),
    ("lab", "collision_stats", _sweep_records),
    ("lab", "graph_sweep", _sweep_records),
    ("report", "render_records", _rendered_bytes),
    ("report", "write_output", None),
    ("cli", "main", None),
]

LAYERS = tuple(dict.fromkeys(module for module, _, _ in TARGETS))

COUNTERS = (
    "dynamics.functional_graph_stats.vertices",
    "dynamics.apply_map_to_domain.bytes_computed",
    "recur.e_coeffs.entries",
    "graphs.enumerate_complete_proper.emitted",
    "graphs.enumerate_complete_proper.label_space",
    "curves.grid_cells",
    "lab.records",
    "lab.drawn",  # folded into lab.rejected_share by report()
    "lab.rejected",
    "report.render_records.bytes",
)


class Tracer:
    """Records one span (name, start, end, parent) per wrapped call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.tables: set = set()
        self.patched: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self.enabled = False

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever polyiter holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polyiter" or n.startswith("polyiter."))]
        for module_name, func_name, hook in TARGETS:
            original = getattr(importlib.import_module(f"polyiter.{module_name}"), func_name)
            name = f"{module_name}.{func_name}"
            wrapper = self._wrap(name, original, hook)
            holders = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        holders.append(f"{module.__name__.removeprefix('polyiter.')}.{attr}")
            self.patched[name] = holders

    def report(self) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for module_name, func_name, _ in TARGETS:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(layer + "."))
        out.update(self.counters)
        out["dynamics.step_table.reuse"] = (
            calls["dynamics.step_table"] / len(self.tables) if self.tables else 0.0
        )
        drawn, rejected = out.pop("lab.drawn"), out.pop("lab.rejected")
        out["lab.rejected_share"] = rejected / drawn if drawn else 0.0
        return out
