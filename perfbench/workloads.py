"""The three fixed workloads: inputs made from a seed, timed calls, checks.

A workload is a list of operations.  Each operation has a ``run`` step that
is timed and a ``verify`` step that is not: ``verify`` turns the result into
the bytes whose sha256 is pinned for the default seed, and lists every
seed-free identity the result breaks.  The seed picks sweep seeds and
coefficient pairs only; prime ranges, degrees and depths are fixed, so the
amount of work barely depends on the seed.

Why these three:

* ``desk-sweeps``: many small instances through ``cli.main``.  It exercises
  the CLI, rendering, sweep orchestration, per-instance field set-up, power
  table reuse (20 instances per prime) and the Python functional-graph loop;
  ``recur`` (except ``mu_sequence``), ``graphs`` and ``curves`` stay idle.
* ``large-p``: the same ``dynamics`` layer used differently: few instances,
  each over int64 arrays of length p ~ 10**6.  Power tables miss their cache
  and the cache of p-length tables sets the peak RSS, so a change that helps
  one of ``desk-sweeps`` and ``large-p`` while costing the other shows up.
* ``algebra``: exact big-rational and combinatorial work plus chart scans at
  p <= 211, with ``dynamics`` nearly idle.  It covers ``recur`` coefficient
  tables, graph enumeration and extension, and curve point counts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from polyiter import cli, curves, dynamics, graphs, recur
from polyiter.dynamics import poly_map

# Digests in pins.json were produced from this seed.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # (result, all results so far) -> (pinned payload bytes, problems found)
    verify: Callable[[object, dict], tuple[bytes, list[str]]]


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _primes(lo: int, hi: int, d: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if (p - 1) % d == 0 and _is_prime(p)]


# ---------------------------------------------------------------------------
# sweeps through the command line
# ---------------------------------------------------------------------------

def _sweep_op(name: str, workdir: str, mode: str, fmt: str, d: int, N: int,
              p_min: int, p_max: int, per_prime: int, seed: int,
              require_precondition: bool = False) -> Op:
    out = os.path.join(workdir, f"{name}.{fmt}")
    argv = ["sweep", "--mode", mode, "--d", str(d), "--N", str(N),
            "--p-min", str(p_min), "--p-max", str(p_max),
            "--per-prime", str(per_prime), "--seed", str(seed),
            "--format", fmt, "--out", out]
    if require_precondition:
        argv.append("--require-precondition")
    primes = _primes(p_min, p_max, d)

    def verify(code, _results):
        with open(out, "rb") as handle:
            payload = handle.read()
        if code != 0:
            return payload, [f"exit code {code}"]
        if fmt == "csv":
            records = list(csv.DictReader(io.StringIO(payload.decode())))
        else:
            records = json.loads(payload)["records"]
        problems = []
        if len(records) != per_prime * len(primes):
            problems.append(f"{len(records)} records, expected {per_prime * len(primes)}")
        if sorted({int(rec["p"]) for rec in records}) != primes:
            problems.append("record primes differ from the primes in range")
        for rec in records:
            problems += _check_record(mode, d, N, require_precondition, rec)
        return payload, problems

    return Op(name, lambda: cli.main(argv), verify)


def _check_record(mode: str, d: int, N: int, require_precondition: bool,
                  rec: dict) -> list[str]:
    p = int(rec["p"])
    where = f"p={p} A={rec['A']} C={rec['C']}"
    if mode == "theorem":
        image = int(rec["image_size"])
        if not 1 <= image <= p:
            return [f"image size {image} out of range at {where}"]
        if N == 1 and image != (p - 1) // d + 1:
            return [f"depth-1 image {image} != (p-1)/d + 1 at {where}"]
        if require_precondition and rec["precondition"] not in ("true", True):
            return [f"precondition not held at {where}"]
        return []
    if mode == "collision":
        tail, cycle, index = (int(rec[k]) for k in ("tail_len", "cycle_len", "collision_index"))
        if cycle < 1 or index != tail + cycle or index > p:
            return [f"orbit of 0 inconsistent at {where}"]
        return []
    cycles, cyclic = rec["num_cycles"], rec["sum_cycle_lengths"]
    if not 1 <= cycles <= cyclic <= p:
        return [f"cycle counts {cycles}, {cyclic} out of range at {where}"]
    if not 0 <= rec["max_tail"] <= rec["sum_precyclic_path_lengths"]:
        return [f"tail lengths inconsistent at {where}"]
    if not 1 <= rec["image_n0"] <= p:
        return [f"image size out of range at {where}"]
    return []


def desk_sweeps(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"desk-sweeps:{seed}")
    seeds = [rng.randrange(2**31) for _ in range(4)]
    return [
        _sweep_op("theorem-d2-N2", workdir, "theorem", "csv", 2, 2, 1000, 5000, 20,
                  seeds[0], require_precondition=True),
        _sweep_op("theorem-d4-N1", workdir, "theorem", "csv", 4, 1, 1000, 5000, 20,
                  seeds[1], require_precondition=True),
        _sweep_op("collision-d2-N1", workdir, "collision", "json", 2, 1, 1000, 10000, 2,
                  seeds[2]),
        _sweep_op("graph-d2-N1", workdir, "graph", "json", 2, 1, 1000, 5000, 2, seeds[3]),
    ]


# ---------------------------------------------------------------------------
# large primes
# ---------------------------------------------------------------------------

LARGE_P = 1_000_003


def large_p(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"large-p:{seed}")
    seeds = [rng.randrange(2**31) for _ in range(2)]
    A, C = rng.randrange(1, LARGE_P), rng.randrange(LARGE_P)
    depth = 3
    ops = [
        # 34 primes: more than the 32 power tables the package caches
        _sweep_op("theorem-d2-N3", workdir, "theorem", "csv", 2, depth,
                  10**6, 10**6 + 410, 1, seeds[0]),
        _sweep_op("graph-d2-N1", workdir, "graph", "json", 2, 1,
                  10**6, 10**6 + 10, 1, seeds[1]),
    ]
    where = f"p={LARGE_P} d=2 A={A} C={C} N={depth}"

    def moment_op(k: int) -> Op:
        def verify(w, results):
            problems = []
            if k <= 1 and w != LARGE_P:
                problems.append(f"W({depth},{k}) = {w} != p at {where}")
            if k >= 2 and w < results[f"moment-w{k - 1}"]:
                problems.append(f"W({depth},{k}) below W({depth},{k - 1}) at {where}")
            return _json_bytes(str(w)), problems
        return Op(f"moment-w{k}",
                  lambda: dynamics.moment_w(poly_map(LARGE_P, 2, A, C), depth, k), verify)

    ops += [moment_op(k) for k in range(5)]

    def verify_zero_count(result, _results):
        direct, via_q = result
        problems = [] if via_q == direct else [f"zero count {direct} != {via_q} at {where}"]
        return _json_bytes([direct, str(via_q)]), problems

    def verify_image(image, results):
        direct = results["zero-count-identity"][0]
        problems = [] if image == LARGE_P - direct else [
            f"image size {image} != p - zero count {direct} at {where}"]
        return _json_bytes(image), problems

    ops += [
        Op("zero-count-identity",
           lambda: dynamics.zero_count_identity(poly_map(LARGE_P, 2, A, C), depth),
           verify_zero_count),
        Op("image-size", lambda: dynamics.image_size(poly_map(LARGE_P, 2, A, C), depth),
           verify_image),
    ]
    return ops


# ---------------------------------------------------------------------------
# exact algebra: coefficient tables, graph enumeration, chart scans
# ---------------------------------------------------------------------------

# (p, d, N, k) for decomposition_check; the seed draws A and C
DECOMPOSITION_MATRIX = [
    (101, 5, 1, 3), (97, 4, 2, 2), (61, 3, 1, 3), (101, 2, 1, 3), (97, 3, 1, 3),
    (89, 4, 1, 3), (211, 3, 2, 2), (211, 5, 1, 2), (41, 4, 1, 3), (73, 3, 2, 2),
]


def _coeff_op(d: int, r: int) -> Op:
    def verify(table, _results):
        problems = []
        if table.total() != 1:
            problems.append(f"e_coeffs({d},{r}) sums to {table.total()}")
        if len(table.v) != d ** (r + 1) + 1 or any(c < 0 for c in table.v):
            problems.append(f"e_coeffs({d},{r}) has a bad length or a negative entry")
        return _json_bytes([str(c) for c in table.v]), problems
    return Op(f"e-coeffs-{d}-{r}", lambda: recur.e_coeffs(d, r), verify)


def _partition_op(d: int) -> Op:
    cases = [(r, k) for r in (0, 1, 2) for k in range(1, 6)]

    def verify(held, _results):
        failed = [case for case, ok in zip(cases, held) if ok is not True]
        problems = [f"partition recursion fails at d={d}, (r, k) in {failed}"] if failed else []
        return _json_bytes(held), problems
    return Op(f"partition-recursion-{d}",
              lambda: [recur.partition_recursion_check(d, r, k) for r, k in cases], verify)


def _enumeration_op(d: int, r: int, k: int) -> Op:
    def verify(result, _results):
        found, expected = result
        problems = [] if len(found) == expected else [
            f"{len(found)} complete proper graphs != U={expected} at (d={d}, r={r}, k={k})"]
        return _json_bytes([g.canonical() for g in found]), problems
    return Op(f"enumerate-{d}-{r}-{k}",
              lambda: (graphs.enumerate_complete_proper(r, k, d), recur.u_value(d, r, k)),
              verify)


def _tree_op(d: int, r: int, k: int) -> Op:
    def run():
        return [graphs.maximal_extension(t) for t in graphs.enumerate_trees(r, k, d)]

    def verify(extended, _results):
        covered = {g for g in extended if g.is_complete()}
        missing = set(graphs.enumerate_complete_proper(r, k, d)) - covered
        problems = [f"{len(missing)} complete proper graphs not reached from trees "
                    f"at (d={d}, r={r}, k={k})"] if missing else []
        return _json_bytes(sorted(g.canonical() for g in covered)), problems
    return Op(f"trees-{d}-{r}-{k}", run, verify)


def _decomposition_op(p: int, d: int, N: int, k: int, A: int, C: int) -> Op:
    def verify(report, _results):
        problems = []
        if not (report.union_equals_cr and report.affine_equals_w):
            problems.append(f"decomposition fails at p={p} d={d} N={N} k={k} A={A} C={C}")
        fields = [report.union_total, report.cr_total, report.cr_affine, report.w_value,
                  report.formula_infinity_term, report.direct_infinity_count]
        return _json_bytes(fields), problems
    return Op(f"decomposition-{p}-{d}-{N}-{k}",
              lambda: curves.decomposition_check(poly_map(p, d, A, C), N, k), verify)


def algebra(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"algebra:{seed}")
    ops = [_partition_op(d) for d in (2, 3)]
    ops += [_coeff_op(d, r) for d, r in ((2, 9), (3, 5), (4, 4))]
    ops += [_enumeration_op(d, r, k) for d in (2, 3) for r in (-1, 0, 1, 2) for k in (1, 2, 3, 4)]
    ops += [_tree_op(d, r, k) for d in (2, 3) for r in (-1, 0, 1) for k in (1, 2, 3, 4)]
    for p, d, N, k in DECOMPOSITION_MATRIX:
        ops.append(_decomposition_op(p, d, N, k, rng.randrange(1, p), rng.randrange(p)))
    return ops


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "desk-sweeps": desk_sweeps,
    "large-p": large_p,
    "algebra": algebra,
}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()

