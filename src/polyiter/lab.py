"""Sweep experiments and the cross-module verification suite.

Sweeps fan the verified primitives out over prime ranges and emit flat,
deterministic records: the same seed always produces byte-identical CSV or
JSON.  verify_all() is the one-shot oracle suite: every structural identity
the package promises, run on a fixed desk-scale instance matrix.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from . import __version__, curves, dynamics, graphs, recur
from .dynamics import poly_map
from .errors import BudgetError
from .field import MAX_MODULUS, FieldParams, is_prime
from .report import render_records

GENERATOR_NAME = "mt19937-per-prime"

# One row type per sweep mode: a record is a tuple of its fields in column
# order, which holds a record in about 40% less memory than a dict.
TheoremRecord = namedtuple(
    "TheoremRecord", ["p", "d", "A", "C", "N", "image_size", "mu_p", "norm_err", "precondition"])
CollisionRecord = namedtuple(
    "CollisionRecord", ["p", "d", "A", "C", "tail_len", "cycle_len", "collision_index", "ratio"])
GraphRecord = namedtuple("GraphRecord", [
    "p", "d", "A", "C",
    "num_cycles", "sum_cycle_lengths", "sum_precyclic_path_lengths", "max_tail",
    "cycle_bound", "precyclic_bound", "n0", "image_n0", "v2_limit",
    "cycle_bound_ok", "precyclic_bound_ok", "v2_ok",
])
THEOREM_FIELDS = TheoremRecord._fields
COLLISION_FIELDS = CollisionRecord._fields
GRAPH_FIELDS = GraphRecord._fields


# Cap on the prime search's trial-division work, bounded by (p_max - p_min + 1)
# * isqrt(p_max).  The widest range it admits below 2**31, the 21,579 numbers
# up to 2**31 - 1, took 2.5 s to search at d = 2 (Python 3.11, 2-vCPU Xeon),
# and [3, 10**6] took 2.2 s; the widest range a test, verify or benchmark
# workload sweeps, 1000-10000, costs 9.0e5.
PRIME_SEARCH_CAP = 10**9

# Cap on the records a sweep can hold, checked before any map runs: sum of
# p * (p - 1) over the primes under policy "all", per_prime times their number
# under "random".  The widest "all" sweep a test pins is 2,266 pairs, and
# p = 401 alone is 160,400; d = 4 over 1000-1400 would be 40,838,260.  The
# widest random sweep verify or a benchmark workload runs is 20 * 501 primes.
SWEEP_RECORD_CAP = 10**6


@dataclass(frozen=True)
class SweepConfig:
    d: int
    N: int = 1
    p_min: int = 3
    p_max: int = 101
    per_prime: int = 1
    policy: str = "random"  # "all" or "random"
    seed: int = 0
    require_precondition: bool = False

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("degree must be at least 2")
        if self.N < 0:
            raise ValueError("depth must be nonnegative")
        if self.p_min > self.p_max:
            raise ValueError("empty prime range")
        if self.p_max >= MAX_MODULUS:
            # refused before the prime search, which would trial-divide up to p_max
            raise ValueError(f"p_max must be below {MAX_MODULUS}")
        if self.policy not in ("all", "random"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == "random" and self.per_prime < 1:
            raise ValueError("per_prime must be positive")
        work = (self.p_max - self.p_min + 1) * math.isqrt(max(self.p_max, 0))
        if work > PRIME_SEARCH_CAP:
            raise BudgetError(
                f"prime search over [{self.p_min}, {self.p_max}] bounded by {work} "
                f"trial divisions, cap {PRIME_SEARCH_CAP}")


def primes_with_degree(lo: int, hi: int, d: int) -> list[int]:
    """Primes p in [lo, hi] with d | p - 1 (others are skipped, not fatal)."""
    return [p for p in range(max(lo, 2), hi + 1) if (p - 1) % d == 0 and is_prime(p)]


def _sweep(
    cfg: SweepConfig, per_prime: Callable[[int], Callable[[FieldParams], tuple]]
) -> tuple[list[tuple], float]:
    """The loop every sweep mode shares: records sorted on (p, A, C), and
    the rejected share of the drawn pairs.

    per_prime(p) returns the mode's per-map function, which gives a map's
    whole record.  Each prime's records are sorted on (A, C) and appended;
    primes ascend and the sort is stable, so the records end sorted on
    (p, A, C), repeated draws in draw order.  Policy "all" walks every
    pair; "random" draws from the seeded per-prime stream until per_prime
    pairs are admitted or 100 * per_prime pairs are drawn.  With
    require_precondition, failing pairs are rejected (and counted) rather
    than recorded.  A sweep that could hold more than SWEEP_RECORD_CAP
    records is refused up front.
    """
    primes = primes_with_degree(cfg.p_min, cfg.p_max, cfg.d)
    if cfg.policy == "all":
        most = sum(p * (p - 1) for p in primes)
    else:
        most = cfg.per_prime * len(primes)
    if most > SWEEP_RECORD_CAP:
        raise BudgetError(f"policy {cfg.policy} over {len(primes)} primes holds up to "
                          f"{most} records, cap {SWEEP_RECORD_CAP}")
    records = []
    drawn = rejected = 0
    for p in primes:
        per_map = per_prime(p)
        if cfg.policy == "all":
            pairs = ((A, C) for A in range(1, p) for C in range(p))
        else:
            # per-prime stream so record sets are independent of the prime ordering
            rng = random.Random((cfg.seed << 32) ^ p)
            pairs = ((rng.randrange(1, p), rng.randrange(p)) for _ in range(100 * cfg.per_prime))
        batch = []
        for A, C in pairs:
            drawn += 1
            f = FieldParams(p, cfg.d, A, C)
            if cfg.require_precondition and not dynamics.check_precondition(f, cfg.N):
                rejected += 1
                continue
            batch.append(per_map(f))
            if cfg.policy == "random" and len(batch) == cfg.per_prime:
                break
        batch.sort(key=attrgetter("A", "C"))
        records += batch
    return records, rejected / drawn if drawn else 0.0


def sweep_theorem(cfg: SweepConfig) -> tuple[list[TheoremRecord], dict]:
    """One record per (p, A, C): image size at depth N against mu_N * p."""
    mu_n = recur.mu_sequence(cfg.d, cfg.N)[cfg.N]

    def per_prime(p: int):
        mu_p = float(mu_n * p)

        def per_map(f: FieldParams) -> TheoremRecord:
            # maps were already filtered on the precondition when it is required
            held = cfg.require_precondition or dynamics.check_precondition(f, cfg.N)
            img = dynamics.image_size(f, cfg.N)
            return TheoremRecord(f.p, f.d, f.A, f.C, cfg.N, img, mu_p,
                                 (img - mu_p) / math.sqrt(p), held)
        return per_map

    records, rejected_share = _sweep(cfg, per_prime)
    errs = [abs(rec.norm_err) for rec in records]
    summary = {
        "count": len(records),
        "mean_abs_norm_err": sum(errs) / len(errs) if errs else 0.0,
        "max_abs_norm_err": max(errs) if errs else 0.0,
        "precondition_failure_fraction": rejected_share,
        # the literal error bound is astronomically loose at desk scale; it is
        # recorded for honesty, never asserted
        "literal_bound_form": "M * d**(d**(6*N)) * sqrt(p), M an absolute constant",
        "literal_bound_log10_scale": cfg.d ** (6 * cfg.N) * math.log10(cfg.d),
    }
    return records, summary


def collision_stats(cfg: SweepConfig) -> tuple[list[CollisionRecord], dict]:
    """Orbit-of-zero collision index per instance, scaled by log log p / p."""
    def per_prime(p: int):
        loglog = math.log(math.log(p))

        def per_map(f: FieldParams) -> CollisionRecord:
            orbit = dynamics.orbit_of_zero(f)
            return CollisionRecord(f.p, f.d, f.A, f.C, orbit.tail_len, orbit.cycle_len,
                                   orbit.collision_index, orbit.collision_index * loglog / p)
        return per_map

    records, _ = _sweep(cfg, per_prime)
    ratios = sorted(rec.ratio for rec in records)
    summary = {"count": len(records)}
    if ratios:
        summary.update({
            "ratio_min": ratios[0],
            "ratio_q25": ratios[len(ratios) // 4],
            "ratio_median": ratios[len(ratios) // 2],
            "ratio_q75": ratios[(3 * len(ratios)) // 4],
            "ratio_max": ratios[-1],
        })
    return records, summary


def graph_sweep(cfg: SweepConfig) -> tuple[list[GraphRecord], dict]:
    """Functional-graph statistics per instance with the corollary bounds.

    The two bounds and the proof-internal image limit are evaluated and
    flagged on every record and never asserted: small primes routinely fail
    the asymptotic bounds.
    """
    def per_prime(p: int):
        loglog = math.log(math.log(p))
        n0 = int(loglog / (7 * math.log(cfg.d))) + 1
        cycle_bound = 21 * p * math.log(cfg.d) / loglog
        precyclic_bound = 28 * p * math.log(cfg.d) / loglog
        v2_limit = (2 / (cfg.d - 1) + 1) * p / n0

        def per_map(f: FieldParams) -> GraphRecord:
            stats = dynamics.functional_graph_stats(f)
            image_n0 = dynamics.image_size(f, n0)
            return GraphRecord(
                f.p, f.d, f.A, f.C,
                stats.num_cycles, stats.sum_cycle_lengths, stats.sum_precyclic_path_lengths,
                stats.max_tail, cycle_bound, precyclic_bound, n0, image_n0, v2_limit,
                stats.sum_cycle_lengths <= cycle_bound,
                stats.sum_precyclic_path_lengths <= precyclic_bound,
                image_n0 < v2_limit)
        return per_map

    records, _ = _sweep(cfg, per_prime)
    summary = {"count": len(records)}
    for flag in ("cycle_bound_ok", "precyclic_bound_ok", "v2_ok"):
        if records:
            summary[flag + "_fraction"] = sum(map(attrgetter(flag), records)) / len(records)
    return records, summary


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """A verify check's first failing instance; the message is its detail."""


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(detail)


def check_mu_v_consistency(d: int, r_max: int) -> str:
    """Coefficient tables against the scalar recurrences."""
    mus = recur.mu_sequence(d, r_max + 1)
    v0_prev = Fraction(0)
    for table in (recur.e_coeffs(d, r) for r in range(-1, r_max + 1)):
        _require(table.total() == 1, f"d={d} r={table.r}: coefficients sum to {table.total()}")
        _require(not any(c < 0 for c in table.v), f"d={d} r={table.r}: negative coefficient")
        if table.r >= 0:
            expected = (d - 1 + v0_prev**d) / d
            _require(table.v[0] == expected,
                     f"d={d} r={table.r}: v[0]={table.v[0]} != {expected}")
        _require(mus[table.r + 1] == 1 - table.v[0], f"d={d} r={table.r}: mu mismatch")
        v0_prev = table.v[0]
    return f"d={d} up to r={r_max}"


def _tuple_count_oracle(arr: np.ndarray, k: int) -> int:
    """Literal enumeration of k-tuples with equal entries of arr."""
    eq = np.equal.outer(arr, arr)
    if k == 1:
        return len(arr)
    if k == 2:
        return int(eq.sum())
    if k == 3:
        p = len(arr)
        return int((eq.reshape(p, p, 1) & eq.reshape(p, 1, p)).sum())
    raise ValueError("oracle supports k <= 3")


def _moment_matrix(desk: bool) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(p, d, coefficient pairs) instances for the moment identity check:
    exhaustive coefficients for p <= 13, a fixed sample above."""
    out = []
    sampled = [(1, 0), (1, 1), (2, 1), (2, 3), (3, 5), (5, 2)]
    for p in (5, 13, 17, 29):
        for d in (2, 3, 4):
            if (p - 1) % d != 0:
                continue
            if p <= 13:
                pairs = [(A, C) for A in range(1, p) for C in range(p)]
            else:
                pairs = sampled
            if not desk:
                pairs = pairs[:6]
            out.append((p, d, pairs))
    return out


def check_moment_identities(desk: bool = True) -> str:
    """Mass conservation, the image-set preimage profile against the
    full-domain histogram, moment/tuple-count agreement, the image size
    against the full-domain unhit count, and the factorial-polynomial
    zero-count identity."""
    for p, d, pairs in _moment_matrix(desk):
        for A, C in pairs:
            f = poly_map(p, d, A, C)
            for N in (0, 1, 2, 3):
                at = f"p={p} d={d} A={A} C={C} N={N}"
                dist = dynamics.preimage_distribution(f, N)
                _require(int(dist.sum()) == p, f"mass leak {at}")
                _require(int(dist.max()) <= d**N, f"preimage count above d**N at {at}")
                # the moments read the image-set profile; dist is the full domain
                _require(np.array_equal(dynamics._profile(f, N), np.bincount(dist)),
                         f"profile != full-domain histogram {at}")
                _require(dynamics.moment_w(f, N, 1) == p, f"W(N,1) != p at {at}")
                _require(dynamics.moment_w(f, N, 0) == p, f"W(N,0) != p at {at}")
                arr = dynamics.apply_map_to_domain(f, N)
                for k in (2, 3):
                    _require(dynamics.moment_w(f, N, k) == _tuple_count_oracle(arr, k),
                             f"moment/tuple mismatch {at} k={k}")
                direct, via_q = dynamics.zero_count_identity(f, N)
                _require(via_q.denominator == 1 and int(via_q) == direct,
                         f"zero-count identity broke {at}")
                # _profile shares g with image_size; dist is the full-domain count
                image = dynamics.image_size(f, N)
                _require(image == p - direct and image == p - np.count_nonzero(dist == 0),
                         f"image != p - unhit count at {at}")
    return "matrix complete"


def check_enumeration_matches_u(desk: bool = True) -> str:
    r_values = (-1, 0, 1, 2) if desk else (-1, 0, 1)
    k_values = (1, 2, 3, 4) if desk else (1, 2, 3)
    for d in (2, 3):
        for r in r_values:
            for k in k_values:
                enumerated = len(graphs.enumerate_complete_proper(r, k, d))
                expected = recur.u_value(d, r, k)
                _require(enumerated == expected,
                         f"enumeration {enumerated} != U={expected} at (d={d}, r={r}, k={k})")
    return f"r in {r_values}, k in {k_values}, d in (2, 3)"


def check_tree_generation(desk: bool = True) -> str:
    """Maximal extensions of the trees cover every complete proper graph,
    and extension never depends on the scan order."""
    for d in (2, 3):
        for r in (-1, 0, 1):
            for k in (1, 2, 3):
                at = f"(d={d}, r={r}, k={k})"
                complete = set(graphs.enumerate_complete_proper(r, k, d))
                covered = set()
                for tree in graphs.enumerate_trees(r, k, d):
                    lex = graphs.maximal_extension(tree, order="lex")
                    rev = graphs.maximal_extension(tree, order="reverse")
                    _require(lex == rev,
                             f"order-dependent extension of {tree.canonical()} at {at}")
                    if lex.is_complete():
                        covered.add(lex)
                if not complete <= covered:
                    missing = next(iter(complete - covered))
                    raise CheckFailed(
                        f"graph not generated by any tree: {missing.canonical()} at {at}")
                if desk:
                    for g in complete:
                        edge_items = sorted(g.edges.items())
                        for drop in range(len(edge_items)):
                            sub = graphs.IterGraph(
                                k=k, r=r, d=d,
                                edges=dict(edge_items[:drop] + edge_items[drop + 1:]))
                            lex = graphs.maximal_extension(sub, order="lex")
                            rev = graphs.maximal_extension(sub, order="reverse")
                            _require(lex == rev, f"subgraph extension order-dependent in "
                                                 f"{g.canonical()} at {at}")
    return "trees cover all complete proper graphs"


def check_partition_recursion(desk: bool = True) -> str:
    k_max = 5 if desk else 3
    for d in (2, 3):
        for r in (0, 1, 2):
            for k in range(1, k_max + 1):
                _require(recur.partition_recursion_check(d, r, k),
                         f"failed at (d={d}, r={r}, k={k})")
    return f"d in (2,3), r <= 2, k <= {k_max}"


def check_recursion_values() -> str:
    expect2 = (Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(39, 128))
    expect3 = (Fraction(1), Fraction(1, 3), Fraction(19, 81))
    _require(recur.mu_sequence(2, 3) == expect2, "d=2 sequence mismatch")
    _require(recur.mu_sequence(3, 2) == expect3, "d=3 sequence mismatch")
    for d in (2, 3, 4):
        mus = recur.mu_sequence(d, 10)
        for r in range(1, 11):
            _require(d * mus[r] == 1 - (1 - mus[r - 1]) ** d,
                     f"recurrence broken at d={d}, r={r}")
            _require(0 < mus[r] < mus[r - 1], f"monotonicity broken at d={d}, r={r}")
    return "pinned values and recurrence hold"


def check_q_bounds() -> str:
    """1/mu_r >= (d-1)*r/2 + 1, and 1/mu_r - 1/mu_(r-1) >= (d-1)/2 for r >= 1,
    compared exactly."""
    for d, R in ((2, 12), (3, 8), (4, 6)):
        half = Fraction(d - 1, 2)
        q = [1 / mu for mu in recur.mu_sequence(d, R)]
        for r in range(R + 1):
            _require(q[r] >= half * r + 1, f"linear lower bound fails at (d={d}, r={r})")
            _require(r == 0 or q[r] - q[r - 1] >= half, f"increment bound fails at (d={d}, r={r})")
    return "reciprocal density bounds hold"


def check_u_bounds() -> str:
    """U(r, k) <= C(k(k-1)/2, k-1) * (r+2)**(k-1) * d**(k-1), exactly."""
    for d in (2, 3):
        for r in (-1, 0, 1, 2):
            for k in (1, 2, 3, 4):
                u = recur.u_value(d, r, k)
                bound = math.comb(k * (k - 1) // 2, k - 1) * (r + 2) ** (k - 1) * d ** (k - 1)
                _require(u <= bound, f"U={u} above {bound} at (d={d}, r={r}, k={k})")
    return "binomial bound holds on the grid"


def check_decomposition_geometry() -> str:
    """Union identity, moment match, Weil and intersection bounds, and the
    infinity-term discrepancy data on the fixed desk instances."""
    instances = [(5, 2), (13, 2)]
    for p, k in instances + [(5, 3)]:
        f = poly_map(p, 2, 1, 1)
        N = 1
        report = curves.decomposition_check(f, N, k)
        _require(report.union_equals_cr, f"union != C_N at p={p}, k={k}")
        _require(report.affine_equals_w, f"affine != W at p={p}, k={k}")
        expected_inf = math.gcd(p - 1, 2**N) ** (k - 1)
        _require(report.direct_infinity_count == expected_inf,
                 f"direct infinity {report.direct_infinity_count} != gcd^(k-1)={expected_inf} "
                 f"at p={p}, k={k}")
        graph_list = graphs.enumerate_complete_proper(N - 1, k, 2)
        for g in graph_list:
            weil = curves.weil_check(f, g, k, N)
            _require(weil.ok, f"Weil deviation {weil.deviation} at p={p}, k={k}, N={N}, "
                              f"graph {g.canonical()}")
        for i, g1 in enumerate(graph_list):
            for g2 in graph_list[i + 1:]:
                inter = curves.intersection_check(f, g1, g2, k, N)
                _require(inter.ok and inter.sets_differ,
                         f"intersection bound {inter.common} > {inter.bound} at p={p}, k={k}, "
                         f"N={N}, graphs {g1.canonical()} and {g2.canonical()}")
    return "union, moments, Weil and Bezout bounds hold"


def check_asymptotic_trend() -> str:
    """Certified enclosures of mu_r * (d-1) * r / 2 at d = 2 lie in [0.5, 1.5]
    from r = 10 and in [0.9, 1.1] from r = 200, up to r = 1000."""
    d, bits = 2, 128
    for r, (lo, hi) in enumerate(recur.mu_interval_sequence(d, 1000, bits)):
        factor = Fraction((d - 1) * r, 2 << bits)
        lo, hi = lo * factor, hi * factor
        _require(r < 10 or Fraction(1, 2) <= lo and hi <= Fraction(3, 2),
                 f"ratio escapes [0.5, 1.5] at (d={d}, r={r})")
        _require(r < 200 or Fraction(9, 10) <= lo and hi <= Fraction(11, 10),
                 f"ratio escapes [0.9, 1.1] at (d={d}, r={r})")
    return "certified ratios stay in band"


def check_theorem_statistics(desk: bool = True) -> str:
    """Distributional error of the depth-2 image size over a seeded sweep."""
    p_max = 5000 if desk else 2000
    per = 20 if desk else 5
    cfg = SweepConfig(d=2, N=2, p_min=1000, p_max=p_max, per_prime=per,
                      policy="random", seed=20260808, require_precondition=True)
    _, summary = sweep_theorem(cfg)
    mean, worst = summary["mean_abs_norm_err"], summary["max_abs_norm_err"]
    _require(summary["count"] != 0, "empty sweep")
    _require(mean <= 3.0, f"mean error {mean:.3f} > 3.0")
    _require(worst <= 12.0, f"max error {worst:.3f} > 12.0")
    cfg4 = SweepConfig(d=4, N=1, p_min=1000, p_max=p_max, per_prime=per,
                       policy="random", seed=20260808, require_precondition=True)
    records, _ = sweep_theorem(cfg4)
    for rec in records:
        dist = dynamics.preimage_distribution(poly_map(rec.p, 4, rec.A, rec.C), 1)
        _require(rec.image_size == rec.p - np.count_nonzero(dist == 0),
                 f"closed-form image broke at p={rec.p}")
    return f"mean={mean:.3f}, max={worst:.3f}"


def check_corollary_sweeps(desk: bool = True) -> str:
    """Determinism, pigeonhole sanity, and the identities each row's fields obey."""
    p_max = 10000 if desk else 3000
    cfg = SweepConfig(d=2, N=1, p_min=1000, p_max=p_max, per_prime=2,
                      policy="random", seed=7)
    col1, _ = collision_stats(cfg)
    col2, _ = collision_stats(cfg)
    _require(render_records(col1, COLLISION_FIELDS, "csv")
             == render_records(col2, COLLISION_FIELDS, "csv"),
             "collision sweep not deterministic")
    gr1, _ = graph_sweep(cfg)
    gr2, _ = graph_sweep(cfg)
    _require(render_records(gr1, GRAPH_FIELDS, "json")
             == render_records(gr2, GRAPH_FIELDS, "json"),
             "graph sweep not deterministic")
    for rec in col1:
        _require(1 <= rec.collision_index <= rec.p and math.isfinite(rec.ratio)
                 and rec.collision_index == rec.tail_len + rec.cycle_len and rec.cycle_len >= 1,
                 f"collision row identities fail at (p, A, C) = ({rec.p}, {rec.A}, {rec.C})")
    for rec in gr1:
        _require(1 <= rec.num_cycles <= rec.sum_cycle_lengths <= rec.p
                 and rec.max_tail <= rec.sum_precyclic_path_lengths
                 and (rec.cycle_bound_ok, rec.precyclic_bound_ok, rec.v2_ok) == (
                     rec.sum_cycle_lengths <= rec.cycle_bound,
                     rec.sum_precyclic_path_lengths <= rec.precyclic_bound,
                     rec.image_n0 < rec.v2_limit)
                 and math.isfinite(rec.cycle_bound) and math.isfinite(rec.v2_limit),
                 f"graph row identities fail at (p, A, C) = ({rec.p}, {rec.A}, {rec.C})")
    return f"{len(col1)} collision and {len(gr1)} graph records"


def verify_all(desk: bool = True) -> dict:
    """Run every cross-module check; returns a machine-readable manifest.

    A check returns its pass detail or raises CheckFailed at its first
    failing instance.  A BudgetError inside any check becomes a failure named
    "budget" instead of a crash, so misconfigured budgets are reported like
    any other defect.
    """
    steps = [
        ("mu-recursion", check_recursion_values),
        ("mu-v-consistency",
         lambda: check_mu_v_consistency(2, 6) + ", " + check_mu_v_consistency(3, 4)),
        ("q-bound", check_q_bounds),
        ("u-bound", check_u_bounds),
        ("partition-recursion", lambda: check_partition_recursion(desk)),
        ("enumeration-u-match", lambda: check_enumeration_matches_u(desk)),
        ("tree-generation", lambda: check_tree_generation(desk)),
        ("moment-identities", lambda: check_moment_identities(desk)),
        ("decomposition-geometric", check_decomposition_geometry),
        ("asymptotic-trend", check_asymptotic_trend),
        ("theorem-statistics", lambda: check_theorem_statistics(desk)),
        ("corollary-sweeps", lambda: check_corollary_sweeps(desk)),
    ]
    checks = []
    for name, step in steps:
        try:
            checks.append({"name": name, "ok": True, "detail": step()})
        except CheckFailed as exc:
            checks.append({"name": name, "ok": False, "detail": str(exc)})
        except BudgetError as exc:
            checks.append({"name": "budget", "ok": False, "detail": str(exc)})
    return {
        "version": __version__,
        "desk": desk,
        "ok": all(check["ok"] for check in checks),
        "checks": checks,
    }
