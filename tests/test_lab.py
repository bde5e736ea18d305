import dataclasses
import hashlib
import json
import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyiter
from polyiter import cli, curves, dynamics, graphs, lab, recur, report
from polyiter.dynamics import poly_map
from polyiter.errors import BudgetError
from polyiter.field import MAX_MODULUS
from polyiter.report import render_records

from oracles import render_csv, render_json


def theorem_cfg(**overrides):
    base = dict(d=2, N=1, p_min=5, p_max=60, per_prime=3, policy="random", seed=11)
    base.update(overrides)
    return lab.SweepConfig(**base)


def test_primes_with_degree():
    assert lab.primes_with_degree(5, 30, 2) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert lab.primes_with_degree(5, 30, 4) == [5, 13, 17, 29]
    assert lab.primes_with_degree(20, 10, 2) == []


def test_sweep_theorem_depth_one_closed_form():
    # at depth 1 the image size is exact, so the error is 1/(2*sqrt(p))
    records, summary = lab.sweep_theorem(theorem_cfg())
    assert records
    for rec in records:
        assert rec.image_size == (rec.p + 1) // 2
        assert rec.norm_err == 0.5 / math.sqrt(rec.p)
    primes = sorted({rec.p for rec in records})
    per_prime_err = {p: 0.5 / math.sqrt(p) for p in primes}
    expected_mean = sum(
        per_prime_err[rec.p] for rec in records
    ) / len(records)
    assert abs(summary["mean_abs_norm_err"] - expected_mean) < 1e-12
    # the unusable literal bound is carried in the summary, never asserted
    assert summary["literal_bound_log10_scale"] == 2**6 * math.log10(2)


def test_depth_one_theorem_sweep_builds_no_power_table():
    # image_size(f, 1) is the closed form and the precondition walks the
    # orbit of 0, so a depth-1 theorem sweep computes no power of any residue
    dynamics._power_table.cache_clear()
    records, _ = lab.sweep_theorem(lab.SweepConfig(
        d=4, N=1, p_min=1000, p_max=1100, per_prime=20, seed=20260808,
        require_precondition=True))
    assert records
    assert all(rec.image_size == (rec.p - 1) // 4 + 1 for rec in records)
    info = dynamics._power_table.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_depth_two_theorem_sweep_at_degree_two_builds_no_power_table():
    # at d = 2 image_size(f, 2) is the closed form in one Legendre symbol, so
    # the sweep computes no power of any residue, and every image lies within
    # 9/8 of mu_2 * p = 3p/8
    dynamics._power_table.cache_clear()
    records, _ = lab.sweep_theorem(lab.SweepConfig(
        d=2, N=2, p_min=1000, p_max=1100, per_prime=20, seed=20260808,
        require_precondition=True))
    assert records
    assert all(-1 <= 8 * rec.image_size - 3 * rec.p <= 9 for rec in records)
    info = dynamics._power_table.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_sweep_theorem_depth_two_example():
    records, _ = lab.sweep_theorem(lab.SweepConfig(
        d=2, N=2, p_min=5, p_max=5, policy="all"))
    by_coeff = {(rec.A, rec.C): rec for rec in records}
    rec = by_coeff[(1, 1)]
    assert rec.image_size == 3
    assert rec.mu_p == 15 / 8
    assert rec.norm_err == (3 - 15 / 8) / math.sqrt(5)


def test_sweep_records_sorted_and_deterministic():
    records1, _ = lab.sweep_theorem(theorem_cfg())
    records2, _ = lab.sweep_theorem(theorem_cfg())
    assert records1 == records2
    keys = [(rec.p, rec.A, rec.C) for rec in records1]
    assert keys == sorted(keys)
    other_seed, _ = lab.sweep_theorem(theorem_cfg(seed=12))
    assert other_seed != records1


def test_sweep_empty_range():
    records, summary = lab.sweep_theorem(theorem_cfg(p_min=24, p_max=28))
    assert records == [] and summary["count"] == 0


def test_require_precondition_holds_on_every_record():
    cfg = theorem_cfg(N=3, p_min=5, p_max=40, per_prime=5, require_precondition=True)
    records, summary = lab.sweep_theorem(cfg)
    assert records and all(rec.precondition for rec in records)
    assert 0 <= summary["precondition_failure_fraction"] < 1


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(p_min=100, p_max=10))
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(policy="bogus"))
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(d=1))
    # refused at construction, before the prime search walks up to p_max
    with pytest.raises(ValueError, match="p_max"):
        theorem_cfg(p_min=3, p_max=MAX_MODULUS)
    assert theorem_cfg(p_min=MAX_MODULUS - 2, p_max=MAX_MODULUS - 1).p_max == MAX_MODULUS - 1
    # the prime search's trial-division bound at its cap is admitted, one more
    # number is refused as a budget
    top = MAX_MODULUS - 1
    widest = lab.PRIME_SEARCH_CAP // math.isqrt(top)
    assert theorem_cfg(p_min=top - widest + 1, p_max=top).p_min == top - widest + 1
    with pytest.raises(BudgetError, match="prime search"):
        theorem_cfg(p_min=top - widest, p_max=top)


def redraw(cfg):
    """The random policy, redrawn by its own loop: the admitted (p, A, C)
    keys in order and the rejected share of all draws."""
    keys, drawn, rejected = [], 0, 0
    for p in range(cfg.p_min, cfg.p_max + 1):
        if (p - 1) % cfg.d or any(p % q == 0 for q in range(2, p)):
            continue
        rng = random.Random((cfg.seed << 32) ^ p)
        admitted = attempts = 0
        while admitted < cfg.per_prime and attempts < 100 * cfg.per_prime:
            A = rng.randrange(1, p)
            C = rng.randrange(p)
            attempts += 1
            if cfg.require_precondition and not dynamics.check_precondition(
                    poly_map(p, cfg.d, A, C), cfg.N):
                rejected += 1
            else:
                keys.append((p, A, C))
                admitted += 1
        drawn += attempts
    return keys, rejected / drawn if drawn else 0.0


DRAW_CASES = [
    dict(d=2, N=4, p_min=5, p_max=29, per_prime=3, seed=1, require_precondition=True),
    dict(d=3, N=2, p_min=7, p_max=200, per_prime=4, seed=9, require_precondition=True),
    dict(d=4, N=3, p_min=5, p_max=300, per_prime=2, seed=3, require_precondition=False),
    dict(d=2, N=3, p_min=1000, p_max=1300, per_prime=3, seed=5, require_precondition=True),
]


@pytest.mark.parametrize("case", DRAW_CASES, ids=lambda case: "d{d}-N{N}-seed{seed}".format(**case))
def test_random_policy_matches_independent_draw(case):
    cfg = lab.SweepConfig(policy="random", **case)
    keys, share = redraw(cfg)
    _, summary = lab.sweep_theorem(cfg)
    assert summary["precondition_failure_fraction"] == share
    for sweep in (lab.sweep_theorem, lab.collision_stats, lab.graph_sweep):
        records, _ = sweep(cfg)
        assert [(rec.p, rec.A, rec.C) for rec in records] == sorted(keys)


def test_random_policy_draw_cap():
    # p = 5 draws all 100 * per_prime pairs and admits none; every other
    # prime in range fills its three
    cfg = lab.SweepConfig(d=2, N=4, p_min=5, p_max=29, per_prime=3, seed=1,
                          require_precondition=True)
    records, summary = lab.sweep_theorem(cfg)
    per_prime = {p: sum(rec.p == p for rec in records) for p in (5, 7, 11, 13, 17, 19, 23, 29)}
    assert per_prime == {5: 0, 7: 3, 11: 3, 13: 3, 17: 3, 19: 3, 23: 3, 29: 3}
    assert round(summary["precondition_failure_fraction"], 4) == 0.9382


def test_collision_stats():
    cfg = lab.SweepConfig(d=2, p_min=5, p_max=7, policy="all")
    records, summary = lab.collision_stats(cfg)
    by_coeff = {(rec.p, rec.A, rec.C): rec for rec in records}
    assert by_coeff[(5, 1, 1)].collision_index == 3
    assert by_coeff[(7, 1, 1)].collision_index == 4
    for rec in records:
        assert 1 <= rec.collision_index <= rec.p
        assert math.isfinite(rec.ratio)
    assert summary["count"] == len(records)
    assert summary["ratio_min"] <= summary["ratio_median"] <= summary["ratio_max"]


def test_graph_sweep():
    cfg = lab.SweepConfig(d=2, p_min=5, p_max=13, policy="all")
    records, _ = lab.graph_sweep(cfg)
    by_coeff = {(rec.p, rec.A, rec.C): rec for rec in records}
    assert by_coeff[(5, 1, 1)].sum_cycle_lengths == 3
    for rec in records:
        assert rec.sum_cycle_lengths <= rec.p
        assert rec.n0 >= 1
        assert rec._fields == lab.GRAPH_FIELDS


# The desk-scale sweeps of each mode, with the traced bytes a sweep may peak
# at per record.  A record held as a dict took 452, 391 and 652.  A row of
# 16 fields is 176 bytes before its drawn A and C (64) and the counts only it
# holds, so the graph row's bound is set above that floor.
ROW_BYTES = [
    (lab.sweep_theorem, dict(d=2, N=2, p_min=1000, p_max=5000, per_prime=20, seed=20260808,
                             require_precondition=True), 300),
    (lab.collision_stats, dict(d=2, N=1, p_min=1000, p_max=10000, per_prime=2, seed=7), 300),
    (lab.graph_sweep, dict(d=2, N=1, p_min=1000, p_max=5000, per_prime=2, seed=7), 400),
]


@pytest.mark.parametrize("sweep, config, bound", ROW_BYTES,
                         ids=[sweep.__name__ for sweep, _, _ in ROW_BYTES])
def test_sweep_peak_traced_bytes_per_record(sweep, config, bound):
    cfg = lab.SweepConfig(**config)
    sweep(cfg)  # warm: the power tables and work arrays it keeps are not traced
    tracemalloc.start()
    try:
        records, _ = sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) > 1000 and peak <= bound * len(records), peak / len(records)


def test_render_csv_golden():
    records = [(5, True, 1.5), (7, False, 0.25)]
    text = render_records(records, ["p", "ok", "x"], "csv")
    assert text == "p,ok,x\n5,true,1.5\n7,false,0.25\n"


def test_render_json_shape():
    records = [(5, 1.5)]
    payload = json.loads(render_records(records, ["p", "x"], "json",
                                        metadata={"seed": 3}))
    assert payload["metadata"] == {"seed": 3}
    assert payload["records"] == [{"p": 5, "x": 1.5}]
    with pytest.raises(ValueError):
        render_records(records, ["p"], "xml")


# Every kind of cell render_records is given: the raw int, float and str that
# the csv module writes unaided, and bool, Fraction, None and numpy scalars
# that go through report._cell.  Text holds the characters CSV quotes.
CELLS = {
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    "fraction": st.fractions(),
    "str": st.text(alphabet=st.characters() | st.sampled_from(',"\n\r '), max_size=8),
    "none": st.none(),
    "numpy": (st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
              | st.builds(np.float64, st.floats()) | st.builds(np.bool_, st.booleans())),
}
MIXED = st.one_of(*CELLS.values())


@st.composite
def record_sets(draw):
    """(records, fieldnames): rows whose each column is of one kind of cell
    or of any mix."""
    names = draw(st.lists(st.text(max_size=4), unique=True, max_size=5))
    kinds = [draw(st.sampled_from([*CELLS.values(), MIXED])) for _ in names]
    n = draw(st.integers(min_value=0, max_value=6))
    records = [tuple(draw(kind) for kind in kinds) for _ in range(n)]
    return records, names


def rendered(render, *args):
    """render(*args), or which refusal it raised: an int too long for CPython
    to write is a ValueError in the oracles and a BudgetError in
    render_records, and a value JSON cannot write a TypeError in both."""
    try:
        return render(*args)
    except (ValueError, BudgetError):
        return "too long"
    except TypeError:
        return "not writable"


METADATA = st.none() | st.dictionaries(
    st.text(max_size=4),
    st.recursive(st.integers() | st.floats() | st.text(max_size=4) | st.booleans() | st.none(),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(case=record_sets(), metadata=METADATA)
@example(case=([(2.5, "a,b"), (-0.0, '"q"\n')], ["v", "s"]), metadata=None)
@example(case=([(), ()], []), metadata={})
@example(case=([(10**4400,)], ["v"]), metadata={"seed": 1})
@example(case=([(np.float64(0.1),), (np.int64(3),)], ["v"]), metadata={"m": [1, {}]})
def test_render_records_matches_the_per_cell_oracles(case, metadata):
    # the column-wise CSV and the C-encoded JSON records against the per-cell
    # writer and json.dumps(indent=2) of the whole payload, byte for byte or
    # the same refusal
    records, names = case
    csv_text = rendered(render_records, records, names, "csv")
    json_text = rendered(render_records, records, names, "json", metadata)
    expected_csv = rendered(render_csv, records, names)
    expected_json = rendered(render_json, records, names, metadata)
    assert csv_text == expected_csv
    assert json_text == expected_json


def scalar(value) -> bool:
    return type(value) in (bool, int, float, str, Fraction, type(None))


def test_every_sweep_and_cli_record_field_is_a_scalar(monkeypatch, capsys, tmp_path):
    # the JSON records are written by the C encoder with one item separator
    # for every level, which is the indented layout only for scalar values
    seen = []

    def capture(records, fieldnames, fmt, metadata=None):
        seen.append((fieldnames, records))
        return render_records(records, fieldnames, fmt, metadata)

    monkeypatch.setattr(cli, "render_records", capture)
    map_args = ["--p", "13", "--d", "2", "--A", "3", "--C", "5"]
    commands = [
        ["orbit", *map_args],
        ["image", *map_args, "--N", "2"],
        ["moments", *map_args, "--N", "2", "--k", "3"],
        ["mu", "--d", "2", "--r", "3"],
        ["ucount", "--d", "2", "--r", "1", "--k", "3"],
        ["curves", *map_args, "--N", "1", "--k", "2"],
        ["decomp", *map_args, "--N", "1", "--k", "2"],
        *(["sweep", "--mode", mode, "--d", "2", "--N", "2", "--p-min", "5", "--p-max", "30",
           "--per-prime", "2", "--format", "json", "--out", str(tmp_path / f"{mode}.json")]
          for mode in ("theorem", "collision", "graph")),
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(seen) == len(commands)
    for fieldnames, records in seen:
        assert records
        for rec in records:
            assert len(rec) == len(fieldnames) and all(map(scalar, rec)), rec


def test_mu_v_consistency_fault_injection(monkeypatch):
    assert lab.check_mu_v_consistency(2, 4) == "d=2 up to r=4"
    e_coeffs = recur.e_coeffs

    def corrupted(d, r):
        table = e_coeffs(d, r)
        if r != 3:
            return table
        v = (table.v[0] + Fraction(1, 7),) + table.v[1:]
        return recur.CoeffTable(d=d, r=r, v=v)

    monkeypatch.setattr(recur, "e_coeffs", corrupted)
    with pytest.raises(lab.CheckFailed, match="d=2 r=3"):
        lab.check_mu_v_consistency(2, 4)


def test_recur_bound_checks_name_their_failing_instance(monkeypatch):
    # one corrupted mu level, U value or interval end at a time: each check
    # fails there and names the full instance
    mu_sequence, u_value = recur.mu_sequence, recur.u_value
    mu_interval_sequence = recur.mu_interval_sequence

    def reciprocal_at(d0, r0, q):
        def patched(d, R):
            mus = list(mu_sequence(d, R))
            if d == d0:
                mus[r0] = 1 / Fraction(q)
            return tuple(mus)
        return patched

    def interval_end_at(r0, num, den):
        def patched(d, R, bits=128):
            out = mu_interval_sequence(d, R, bits)
            out[r0] = (out[r0][0], out[r0][1] * num // den)
            return out
        return patched

    # 1/mu_5 = 5 at d = 3 is below 2 * 5/2 + 1 = 6
    monkeypatch.setattr(recur, "mu_sequence", reciprocal_at(3, 5, 5))
    with pytest.raises(lab.CheckFailed, match=r"^linear lower bound fails at \(d=3, r=5\)$"):
        lab.check_q_bounds()
    # 1/mu_4 = 7 at d = 4 meets 3 * 4/2 + 1 but falls below 1/mu_3 = 7.58...
    monkeypatch.setattr(recur, "mu_sequence", reciprocal_at(4, 4, 7))
    with pytest.raises(lab.CheckFailed, match=r"^increment bound fails at \(d=4, r=4\)$"):
        lab.check_q_bounds()
    # U(1, 4) at d = 3 is 10**6 past C(6, 3) * 3**3 * 3**3 = 14580
    monkeypatch.setattr(recur, "u_value",
                        lambda d, r, k: u_value(d, r, k) + 10**6 * ((d, r, k) == (3, 1, 4)))
    with pytest.raises(lab.CheckFailed, match=r"above 14580 at \(d=3, r=1, k=4\)$"):
        lab.check_u_bounds()
    # the ratio is 0.80 at r = 20 and 0.98 at r = 500: upper ends doubled and
    # raised by a fifth leave the wide and the narrow band
    monkeypatch.setattr(recur, "mu_interval_sequence", interval_end_at(20, 2, 1))
    with pytest.raises(lab.CheckFailed, match=r"^ratio escapes \[0.5, 1.5\] at \(d=2, r=20\)$"):
        lab.check_asymptotic_trend()
    monkeypatch.setattr(recur, "mu_interval_sequence", interval_end_at(500, 6, 5))
    with pytest.raises(lab.CheckFailed, match=r"^ratio escapes \[0.9, 1.1\] at \(d=2, r=500\)$"):
        lab.check_asymptotic_trend()


def test_moment_tree_and_geometry_checks_name_their_failing_instance(monkeypatch):
    # one corrupted value at a time, away from each check's first instance:
    # every failure names the map, level or graph it broke at
    moment_w, distribution = dynamics.moment_w, dynamics.preimage_distribution
    at = (13, 3, 1, 5, 2)  # p, d, A, C, N of the quick moment matrix

    def one_high(k0):
        return lambda f, N, k: moment_w(f, N, k) + ((f.p, f.d, f.A, f.C, N, k) == (*at, k0))

    def piled(f, N):
        # all p preimages on one value: mass kept, d**N exceeded
        dist = distribution(f, N)
        if (f.p, f.d, f.A, f.C, N) == at:
            dist = np.zeros_like(dist)
            dist[0] = f.p
        return dist

    instance = re.escape("at p=13 d=3 A=1 C=5 N=2") + "$"
    monkeypatch.setattr(dynamics, "preimage_distribution", piled)
    with pytest.raises(lab.CheckFailed, match="^preimage count above d\\*\\*N " + instance):
        lab.check_moment_identities(desk=False)
    monkeypatch.setattr(dynamics, "preimage_distribution", distribution)
    for k in (1, 0):
        monkeypatch.setattr(dynamics, "moment_w", one_high(k))
        with pytest.raises(lab.CheckFailed, match=re.escape(f"W(N,{k}) != p ") + instance):
            lab.check_moment_identities(desk=False)
    monkeypatch.setattr(dynamics, "moment_w", moment_w)

    # tree generation at (d, r, k) = (3, 1, 3): an order-dependent tree,
    # an order-dependent subgraph of a complete graph, an uncovered graph
    extension, trees = graphs.maximal_extension, graphs.enumerate_trees
    first_tree = next(iter(trees(1, 3, 3)))
    tree_set = set(trees(1, 3, 3))

    def order_dependent_at(broken):
        def patched(g, order="lex"):
            return None if order == "reverse" and broken(g) else extension(g, order)
        return patched

    monkeypatch.setattr(graphs, "maximal_extension", order_dependent_at(lambda g: g == first_tree))
    with pytest.raises(lab.CheckFailed, match=re.escape(
            f"order-dependent extension of {first_tree.canonical()} at (d=3, r=1, k=3)") + "$"):
        lab.check_tree_generation(desk=False)
    monkeypatch.setattr(graphs, "maximal_extension", order_dependent_at(
        lambda g: (g.d, g.r, g.k) == (3, 1, 3) and g not in tree_set))
    with pytest.raises(lab.CheckFailed, match=r"^subgraph extension order-dependent in 3 1 3; "
                                              r".* at \(d=3, r=1, k=3\)$"):
        lab.check_tree_generation(desk=True)
    monkeypatch.setattr(graphs, "maximal_extension", extension)
    monkeypatch.setattr(graphs, "enumerate_trees",
                        lambda r, k, d: [] if (d, r, k) == (3, 1, 3) else trees(r, k, d))
    with pytest.raises(lab.CheckFailed, match=r"^graph not generated by any tree: 3 1 3; "
                                              r".* at \(d=3, r=1, k=3\)$"):
        lab.check_tree_generation(desk=False)
    monkeypatch.setattr(graphs, "enumerate_trees", trees)

    # decomposition at p = 13, k = 2, N = 1 over the graphs of level 0
    g1, g2 = graphs.enumerate_complete_proper(0, 2, 2)
    graph_counts, decomposition_check = curves.graph_counts, curves.decomposition_check

    def at_13(change):
        def patched(f, graph_list):
            counts, common = graph_counts(f, graph_list)
            return change(counts, common.copy()) if f.p == 13 else (counts, common)
        return patched

    def far_second(counts, common):
        return [counts[0], (10**6, 0)], common

    def crowded_pair(counts, common):
        common[0, 1] = common[1, 0] = 10**6
        return counts, common

    monkeypatch.setattr(curves, "graph_counts", at_13(far_second))
    with pytest.raises(lab.CheckFailed, match=re.escape(
            f"Weil deviation {curves.weil_deviation(13, 10**6)} at p=13, k=2, N=1, "
            f"graph {g2.canonical()}") + "$"):
        lab.check_decomposition_geometry()
    monkeypatch.setattr(curves, "graph_counts", at_13(crowded_pair))
    with pytest.raises(lab.CheckFailed, match=re.escape(
            f"intersection bound 1000000 > 16 at p=13, k=2, N=1, graphs {g1.canonical()} "
            f"and {g2.canonical()}") + "$"):
        lab.check_decomposition_geometry()
    monkeypatch.setattr(curves, "graph_counts", graph_counts)
    monkeypatch.setattr(curves, "decomposition_check", lambda f, N, k: dataclasses.replace(
        decomposition_check(f, N, k), direct_infinity_count=0) if (f.p, k) == (5, 3)
        else decomposition_check(f, N, k))
    with pytest.raises(lab.CheckFailed,
                       match=re.escape("direct infinity 0 != gcd^(k-1)=4 at p=5, k=3") + "$"):
        lab.check_decomposition_geometry()


CHECK_NAMES = [
    "mu-recursion", "mu-v-consistency", "q-bound", "u-bound", "partition-recursion",
    "enumeration-u-match", "tree-generation", "moment-identities",
    "decomposition-geometric", "asymptotic-trend", "theorem-statistics", "corollary-sweeps",
]


def test_verify_all_quick_is_green():
    manifest = lab.verify_all(desk=False)
    assert manifest["ok"], [c for c in manifest["checks"] if not c["ok"]]
    assert manifest["version"] == polyiter.__version__
    assert [c["name"] for c in manifest["checks"]] == CHECK_NAMES


def test_verify_all_reports_budget_failure_by_name(monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetError("label space exceeds enumeration cap")

    monkeypatch.setattr(curves, "decomposition_check", over_budget)
    manifest = lab.verify_all(desk=False)
    assert not manifest["ok"]
    failures = [c for c in manifest["checks"] if not c["ok"]]
    assert any(c["name"] == "budget" for c in failures)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_orbit(capsys):
    assert cli.main(["orbit", "--p", "5", "--d", "2", "--A", "1", "--C", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "p,d,A,C,tail_len,cycle_len,collision_index",
        "5,2,1,1,0,3,3",
    ]


def test_cli_image_json(capsys):
    code = cli.main(["image", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"][0]["image_size"] == 3


def test_cli_image_counts_without_the_full_domain_histogram(capsys):
    # zero_preimages is p - image_size: at d = 2, N = 2 the command runs the
    # closed form and a 3-term walk, with no array of length p
    argv = ["image", "--p", "1000003", "--d", "2", "--A", "12345", "--C", "678", "--N", "2"]
    tracemalloc.start()
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0 and peak < 2**20
    assert capsys.readouterr().out.splitlines()[1] == "1000003,2,12345,678,2,375002,625001,true"
    # against the full-domain count
    for d, N in ((2, 1), (2, 3), (4, 2), (5, 4)):
        f = poly_map(101, d, 3, 7)
        assert cli.main(["image", "--p", "101", "--d", str(d), "--A", "3", "--C", "7",
                         "--N", str(N), "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)["records"][0]
        zeros = int(np.count_nonzero(dynamics.preimage_distribution(f, N) == 0))
        assert (record["zero_preimages"], record["image_size"]) == (zeros, 101 - zeros)


def test_cli_mu(capsys):
    assert cli.main(["mu", "--d", "2", "--r", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("2,3,39/128,")


# (format, sha256 of stdout) for mu --d 2 --r 13, whose longest exact value
# (the level-13 denominator, 2466 digits) is still under the 4300-digit cap
MU_13_PINS = [
    ("csv", "6dc92a7d910d7c06c48abe626e6b3c0f45d16e5daa5d43ffd41686d6777fdf5e"),
    ("json", "62591b9367eefff029fc00756d3d11decce2c7253864a40f6b449c89d731bb0f"),
]


@pytest.mark.parametrize("fmt, digest", MU_13_PINS, ids=[pin[0] for pin in MU_13_PINS])
def test_cli_refuses_exact_values_past_the_digit_cap(capsys, fmt, digest):
    assert cli.main(["mu", "--d", "2", "--r", "13", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest and err == ""
    # the level-14 numerator has 4931 digits: budget exceeded, with no output
    assert cli.main(["mu", "--d", "2", "--r", "14", "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exact value of 4931 digits" in err


def test_render_records_counts_the_digits_of_a_refused_value():
    # exactly at the cap, one past it, and on both sides of a power of 10,
    # where a float log10 of the value could round either way
    assert render_records([(10**4300 - 1,)], ["v"], "json").count("9") == 4300
    for value, digits in ((10**4300, 4301), (-(10**4300), 4301), (10**5000 - 1, 5000),
                          (10**5000, 5001), (Fraction(1, 3**9100), 4342)):
        for fmt in ("csv", "json"):
            with pytest.raises(BudgetError, match=f" {digits} digits"):
                render_records([(1, value)], ["x", "v"], fmt)


def test_render_records_writes_fractions_and_nothing_else_unknown():
    rec = (Fraction(1), Fraction(-3, 8))
    assert render_records([rec], ["q", "r"], "csv") == "q,r\n1/1,-3/8\n"
    assert json.loads(render_records([rec], ["q", "r"], "json"))["records"] == [
        {"q": "1/1", "r": "-3/8"}]
    # not a Fraction, though it has a numerator and a denominator
    with pytest.raises(TypeError):
        render_records([(np.int64(5),)], ["v"], "json")


def test_cli_ucount(capsys):
    assert cli.main(["ucount", "--d", "2", "--r", "1", "--k", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2,1,3,10"


def test_cli_enum_graphs(capsys):
    assert cli.main(["enum-graphs", "--d", "2", "--r", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 1 2; 1-2:-1,0",
        "2 1 2; 1-2:0,1",
        "2 1 2; 1-2:1,1",
    ]


def test_cli_curves_single_graph(capsys):
    code = cli.main(["curves", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "2", "--graph", "2 1 2; 1-2:1,1", "--format", "json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert (rec["affine"], rec["infinity"], rec["total"]) == (4, 2, 6)


def test_cli_decomp(capsys):
    code = cli.main(["decomp", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "1", "--k", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "5,2,1,2,11,11,9,9,4,2,true,true"


def test_cli_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--mode", "theorem", "--d", "2", "--N", "1",
            "--p-min", "5", "--p-max", "30", "--per-prime", "2",
            "--seed", "9", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"p,d,A,C,N,image_size,mu_p,norm_err,precondition\n")
    assert cli.main(argv) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    capsys.readouterr()


def test_cli_sweep_json_metadata(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--mode", "collision", "--d", "2",
            "--p-min", "5", "--p-max", "20", "--seed", "3",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["seed"] == 3
    assert payload["metadata"]["generator"] == lab.GENERATOR_NAME
    assert payload["metadata"]["log_base"] == "e"
    assert payload["metadata"]["version"] == polyiter.__version__
    assert payload["records"]


# The pinned sweep bytes: stdout and stderr of every mode under both draw
# policies, with and without the precondition filter, at d in {2, 3, 4}.
# The "repeats" sweeps draw 15 pairs from each of p = 5, 7, 11, 13, so 8
# (p, A, C) keys are drawn more than once.
SWEEP_ARGS = {
    "theorem-all-N3": ["theorem", "--p-min", "3", "--p-max", "30", "--policy", "all", "--N", "3"],
    "theorem-all-N4-pre": ["theorem", "--p-min", "3", "--p-max", "30", "--policy", "all",
                           "--N", "4", "--require-precondition"],
    "collision-all": ["collision", "--p-min", "3", "--p-max", "30", "--policy", "all"],
    "graph-all": ["graph", "--p-min", "3", "--p-max", "30", "--policy", "all"],
    **{f"{mode}-random-pre": [mode, "--p-min", "1000", "--p-max", "1300", "--per-prime", "3",
                              "--seed", "5", "--N", "3", "--require-precondition"]
       for mode in ("theorem", "collision", "graph")},
    **{f"{mode}-random-repeats": [mode, "--N", "2", "--p-min", "5", "--p-max", "13",
                                  "--per-prime", "15", "--seed", "1"]
       for mode in ("theorem", "collision", "graph")},
}

SWEEP_PINS = [
    ("theorem-all-N3", 2, "csv",
     "3730ae6bd68276d0a69653cdc7665a4c28bd866aa56e909378a64dc5e36f9767"),
    ("theorem-all-N3", 2, "json",
     "757b8241e42c51699a0e024a12f17506099d63de2967674987007842320f3a44"),
    ("theorem-all-N3", 3, "csv",
     "afca9c61bcd7477b0bc810065c6888e78e0870829d7c7c553873d9b3fb70a2ef"),
    ("theorem-all-N3", 3, "json",
     "3925331e0a040d50e3ba8fe28efc6d93282bfc245458db6a69d734c8818cdd76"),
    ("theorem-all-N3", 4, "csv",
     "0fa52e268679e57b4b05a40005c5850d107e400ce8c50ab8dad39b56fd47168e"),
    ("theorem-all-N3", 4, "json",
     "c99399163af640f92d02086d152d69b92d476dbf2766eee4e25e6d691a5a892a"),
    ("theorem-all-N4-pre", 2, "csv",
     "f237607ee255bfff8db21d05cfe35f7ad17227bc0b111f872050272f435e7bc6"),
    ("theorem-all-N4-pre", 2, "json",
     "9b7ad5cfca13839a7c3f92b45308d22b21f784055fca5b7546cfb8052375ab97"),
    ("theorem-all-N4-pre", 3, "csv",
     "77ca09649ccfce1b3a731b59afede22d85c5a48a9689eeaa90ea9a53aeee57a6"),
    ("theorem-all-N4-pre", 3, "json",
     "073e54889de6c8c35dc07f08e8cd1ca21262f165daebcf58d4cdd6f2cf7a1b4c"),
    ("theorem-all-N4-pre", 4, "csv",
     "7d5cbc395202f6e49e0c9d4d69b3fb500702093113efbcfd162c4285c98d457d"),
    ("theorem-all-N4-pre", 4, "json",
     "5cd0b17e63ee5d2b38176f4ccb9deb8cdc5b320382f87e9b99dd7efe315b7cb2"),
    ("collision-all", 2, "csv",
     "5fe664571de21831d294a23ff2f88f8c0e760714346f4f013adc9d9167b680d5"),
    ("collision-all", 2, "json",
     "30753d2ba9c7c43949304c318d41a00586b95fb32920c82c5275fbd8797c56f5"),
    ("collision-all", 3, "csv",
     "c2e14de309323beb464b5502e0ceea96a2f17c2101e2974cc8e52ddb55dbf37e"),
    ("collision-all", 3, "json",
     "9e434756383ef82fa5605aab1a047b9bd4f1195115c8f5750435df9233c15aca"),
    ("collision-all", 4, "csv",
     "70fe8255f385cdc0ee191ded15ee868a9de6f8ce8028c1c275c8fd12a1629736"),
    ("collision-all", 4, "json",
     "1157b59443f1a90b4f332b886ed4eb387090ce0d820ac24dcc30d45cb0dfedcd"),
    ("graph-all", 2, "csv",
     "e50ef01b10a90a77443b64b36fc0945e0a87281f70f53b33cda2f529c000819f"),
    ("graph-all", 2, "json",
     "ee290b68a5492a33e9644c5355a4a8b487c9ced435614468920ebab7f76d72c8"),
    ("graph-all", 3, "csv",
     "47b1eedfa79d835d522b7a2e53fddf1166fad98484480834d2aa44d6a631bfbb"),
    ("graph-all", 3, "json",
     "a0705445e75246bfef19321ef13b3c9a4cf9c2e7c0d491eda6bb7b0ef73eba64"),
    ("graph-all", 4, "csv",
     "a4ac8f16f7a4f745e8edd32717341c50442cd0a3ca03628fccbfa35d50b952fc"),
    ("graph-all", 4, "json",
     "d2933042887245db250279979819ce3040bdde7d84c0fe67f93958775d49c937"),
    ("theorem-random-pre", 2, "csv",
     "4c44acb47b73fdc9b8569e17c89e55862f37730556450498eb80f94bad19a468"),
    ("theorem-random-pre", 2, "json",
     "2caea25c20851a4427775ea440f29253fb0a467d9c5c6ac294e172b364debbc5"),
    ("theorem-random-pre", 3, "csv",
     "4ad9c82f489ba73bcaaf5f24e8dc9a6ea506b0ed627a0f48b4f0ec33dc8b18b2"),
    ("theorem-random-pre", 3, "json",
     "7e222b09116a474ab38fab17f834822bbdac3d3681f12cb757823fbac4eb2cb0"),
    ("theorem-random-pre", 4, "csv",
     "5297311a0a1d8f48bf0a2b7442830e8bccf425ebb75e535e91c0bcaffa87c03a"),
    ("theorem-random-pre", 4, "json",
     "49fc51d7590e89126daa03da972e2be79c3fd3e202b5c3b23f7480eb7a568225"),
    ("collision-random-pre", 2, "csv",
     "5fd184ce76aa355b36d3a1c981ffdbe90aabae837b31c7521de9419b814dc85c"),
    ("collision-random-pre", 2, "json",
     "8b1fb8903ab6e1a6b14d596430b9319879a40fc45d9bb67710d389e278131cb4"),
    ("collision-random-pre", 3, "csv",
     "9bb2daeae13a42b828efa2ac760713b50ac3cf13d49ead3dbddbd7bb38b689a2"),
    ("collision-random-pre", 3, "json",
     "dc96f1a0fe894c3b5ca9616d8ae8575b467e439ce79f79c71be6b8970bfcf432"),
    ("collision-random-pre", 4, "csv",
     "3ecd8cd1e159a88c695bf12febc5e0e1b791da1d0f14e34089290e5889af40d1"),
    ("collision-random-pre", 4, "json",
     "e78700497dcaf506659d918f87f710b923f02e649c675ec77fb72b7b3ae72307"),
    ("graph-random-pre", 2, "csv",
     "0b4a3875a2d5e7d3c6ddd9e05b88acb5f44e729b3b62cad9e4ad5e4432758ecd"),
    ("graph-random-pre", 2, "json",
     "b0f8d13eb57abec897da6db9fd10832733b287f6777d174e009a7d5d888211a5"),
    ("graph-random-pre", 3, "csv",
     "53202cca8e73bfb663714bd62e42beb9d5d313079558e4e9b953905457791e05"),
    ("graph-random-pre", 3, "json",
     "1c6f20619b39734708c5d5438ab7259358887c46515fde9c4e764398c8023ca5"),
    ("graph-random-pre", 4, "csv",
     "ce0632420f769fe86035850be670418402e369f29caaefe392f7dbd02dafa12f"),
    ("graph-random-pre", 4, "json",
     "69d7f2141bfcb39b06294d0437cd2be3c26094601a99c7b6d09bf11e85cb9f27"),
    ("theorem-random-repeats", 2, "csv",
     "7d4450f75fc5c32dffde9cf5c8dfc20a9f70b4e393814997c26a326f7a369c33"),
    ("theorem-random-repeats", 2, "json",
     "6aeeeb96fe4def4a0d2d8f0b72afe8839d2d5a15d2238914c2681649c70c1a31"),
    ("collision-random-repeats", 2, "csv",
     "d5983164d7ff1561e1cb7699374cc891d622450373ae2691b8f9d17ae57771a9"),
    ("collision-random-repeats", 2, "json",
     "79b017f9dffc1739ea3eb717eb526038f4f13271a0d3c1d7a54774c8f2f15d52"),
    ("graph-random-repeats", 2, "csv",
     "01d82938c009cbc845f76b5d8946c7d7e4fd846de22d15fd15f4755651c2ea02"),
    ("graph-random-repeats", 2, "json",
     "26fb541c3945ca21e059f0c72396dd0d79dba9b90d5b434cb0fa9e89df536a0f"),
]


@pytest.mark.parametrize("name, d, fmt, digest", SWEEP_PINS,
                         ids=[f"{pin[0]}-d{pin[1]}-{pin[2]}" for pin in SWEEP_PINS])
def test_cli_sweep_bytes_pinned(capsys, name, d, fmt, digest):
    mode, *rest = SWEEP_ARGS[name]
    argv = ["sweep", "--mode", mode, "--d", str(d), "--format", fmt, *rest]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


def test_cli_exit_codes(capsys, monkeypatch):
    # invalid configuration: p not prime
    assert cli.main(["image", "--p", "6", "--d", "2", "--A", "1", "--C", "1"]) == 2
    # budget exceeded: chart walks past CHART_BYTE_CAP = 2.68e8 bytes, refused
    # before any chart is built and with nothing written.  The 2,500 graphs at
    # d = 50 charge 2.7e9 bytes of cells; the 5,001 one-edge graphs at N = 5000
    # charge 4.0e8 bytes in their two int64 pair matrices alone
    def walk(*args):
        raise AssertionError("a chart walk past the budget was started")
    monkeypatch.setattr(curves, "_scan", walk)
    capsys.readouterr()
    for cmd, p, d, N, k in (("curves", 101, 50, 1, 3), ("decomp", 101, 50, 1, 3),
                            ("curves", 5, 2, 5000, 2)):
        start = time.perf_counter()
        assert cli.main([cmd, "--p", str(p), "--d", str(d), "--A", "1", "--C", "1",
                         "--N", str(N), "--k", str(k)]) == 3
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out == ""
    # budget exceeded: graph enumerations past ENUMERATION_CAP at k = 100000,
    # refused from k alone before any pair is built; at N = 0 the one level -1
    # graph on 50 vertices is built, and its chart walk is past the budget
    map_args = ["--p", "5", "--d", "2", "--A", "1", "--C", "1"]
    for argv in (["curves", *map_args, "--N", "1", "--k", "100000"],
                 ["enum-graphs", "--d", "3", "--r", "2", "--k", "100000"],
                 ["curves", *map_args, "--N", "0", "--k", "50"]):
        start = time.perf_counter()
        assert cli.main(argv) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == ""
    assert cli.main(["enum-graphs", "--d", "2", "--r", "-1", "--k", "50"]) == 0
    edges = "; ".join(f"{a}-{b}:-1,0" for a in range(1, 51) for b in range(a + 1, 51))
    assert capsys.readouterr().out == f"50 -1 2; {edges}\n"
    # invalid configuration: malformed graphs and a negative moment order
    curves_args = ["curves", "--p", "5", "--d", "2", "--A", "1", "--C", "1"]
    assert cli.main([*curves_args, "--graph", "2 0 2; 1-3:0,1"]) == 2  # vertex out of range
    assert cli.main([*curves_args, "--graph", "2 0 2; 1-2:7,1"]) == 2  # level out of range
    assert cli.main(["curves", "--p", "13", "--d", "2", "--A", "3", "--C", "7", "--N", "1",
                     "--k", "2", "--graph", "2 0 3; 1-2:0,2"]) == 2  # graph degree != --d
    assert cli.main(["moments", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--k", "-1"]) == 2
    # invalid configuration: no coordinates to count points on
    assert cli.main([*curves_args, "--N", "1", "--k", "0"]) == 2
    assert cli.main(["decomp", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "1", "--k", "0"]) == 2
    # invalid configuration: degree below 2 or level below -1
    assert cli.main(["ucount", "--d", "1", "--r", "-1", "--k", "3"]) == 2
    assert cli.main(["enum-graphs", "--d", "1", "--r", "0", "--k", "2"]) == 2
    assert cli.main(["enum-graphs", "--d", "2", "--r", "-3", "--k", "2"]) == 2
    assert cli.main(["enum-graphs", "--d", "2", "--r", "-3", "--k", "2", "--trees"]) == 2
    # invalid configuration: a prime range past the modulus cap, refused before any search
    assert cli.main(["sweep", "--mode", "theorem", "--d", "2", "--p-min", "3",
                     "--p-max", "100000000000"]) == 2
    # budget exceeded: a prime range that would trial-divide for hours, refused at once
    start = time.perf_counter()
    assert cli.main(["sweep", "--d", "2", "--p-min", "3", "--p-max", "2147483647"]) == 3
    assert time.perf_counter() - start < 1
    # budget exceeded: --policy all over the 29 primes of 1000-1400 with d | p - 1
    # is 40,838,260 pairs, refused before any map runs and with nothing written
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(["sweep", "--mode", "graph", "--d", "4", "--N", "1", "--p-min", "1000",
                     "--p-max", "1400", "--policy", "all"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == ""
    # budget exceeded, refused before the values past the cap are computed or
    # any is converted to text: W(1, k) = 1 + 2**(k + 1) of x**2 at p = 5 has
    # 4301 digits from k = 14284 on, past CPython's cap on writing an int as
    # text, and mu_14 at d = 2 has a numerator of 4931 digits, its
    # denominator 2**16383
    capsys.readouterr()
    for argv, digits in [
        (["moments", "--p", "5", "--d", "2", "--A", "1", "--C", "0", "--N", "1",
          "--k", "15000"], 4301),
        (["mu", "--d", "2", "--r", "27"], 4931),
    ]:
        start = time.perf_counter()
        assert cli.main(argv) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"budget exceeded: exact value of {digits} digits "
                                       "exceeds the 4300-digit cap on written integers\n")
    # invalid configuration: an output path that cannot be written
    assert cli.main(["orbit", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--out", "/nonexistent/x"]) == 2
    assert cli.main(["sweep", "--d", "2", "--p-min", "5", "--p-max", "7",
                     "--out", "/nonexistent/dir/x.csv"]) == 2


def test_sweep_record_cap_bounds_the_random_policy(monkeypatch, capsys):
    # 3 records for each of the 5 primes of 3-13: admitted at a cap of 15,
    # refused at 10 before any map runs and with nothing written
    argv = ["sweep", "--d", "2", "--p-min", "3", "--p-max", "13", "--per-prime", "3"]
    monkeypatch.setattr(lab, "SWEEP_RECORD_CAP", 15)
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 15
    monkeypatch.setattr(lab, "SWEEP_RECORD_CAP", 10)
    monkeypatch.setattr(dynamics, "image_size", None)
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", "budget exceeded: policy random over 5 primes holds up to 15 records, cap 10\n")


def test_cli_verify_quick_writes_manifest(tmp_path, capsys):
    out = tmp_path / "manifest.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert capsys.readouterr().err.splitlines() == [
        f"PASS {name}: {c['detail']}" for name, c in zip(CHECK_NAMES, checks, strict=True)]
    assert out.read_text() == json.dumps(lab.verify_all(desk=False), indent=2) + "\n"


def test_cli_verify_reports_first_failing_instance(tmp_path, monkeypatch, capsys):
    image_size = dynamics.image_size
    monkeypatch.setattr(dynamics, "image_size", lambda f, N: image_size(f, N) + 1)
    out = tmp_path / "manifest.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 1
    manifest = json.loads(out.read_text())
    assert not manifest["ok"]
    assert [c["name"] for c in manifest["checks"]] == CHECK_NAMES
    moments = manifest["checks"][CHECK_NAMES.index("moment-identities")]
    assert not moments["ok"] and "p=5 d=2 A=1 C=0 N=0" in moments["detail"]
    assert f"FAIL moment-identities: {moments['detail']}" in capsys.readouterr().err


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    failing = {
        "version": "0.1.0", "desk": False, "ok": False,
        "checks": [{"name": "mu-recursion", "ok": False, "detail": "injected"}],
    }
    monkeypatch.setattr(lab, "verify_all", lambda desk: failing)
    assert cli.main(["verify", "--quick"]) == 1
    assert "FAIL mu-recursion" in capsys.readouterr().err


def test_digit_count_on_either_side_of_powers_of_ten_and_two():
    # the float log10 is trusted only away from an integer; at 10**k - 1,
    # 10**k and 10**k + 1 it must fall back to comparing with 10**k
    for k in (*range(1, 40), 307, 308, 309, 4300, 5000, 20000):
        for n, digits in ((10**k - 1, k), (10**k, k + 1), (10**k + 1, k + 1)):
            assert report._digits(n) == digits, n
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for b in (*range(1, 200), 1023, 1024, 1025, 14284, 66439, 66440):
            for n in (2**b - 1, 2**b, 2**b + 1, 3**b):
                assert report._digits(n) == len(str(n)), n
    finally:
        sys.set_int_max_str_digits(limit)
