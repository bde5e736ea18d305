"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here and are
not meant to be tuned.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from polyiter import curves, dynamics, graphs, lab, recur
from polyiter.dynamics import poly_map


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.3f}s, budget {budget_seconds}s): {label}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def independent_mu(d: int, R: int) -> list[Fraction]:
    """Oracle: direct exact-rational transcription of the recurrence."""
    values = [Fraction(1)]
    for _ in range(R):
        prev = values[-1]
        values.append(Fraction(1 - (1 - prev) ** d, d))
    return values


def test_criterion_1_exact_recursion_values():
    recur.mu_sequence(2, 3)  # warm-up outside the timed window
    with criterion(1, 0.001, "exact density recursion values"):
        got2 = recur.mu_sequence(2, 3)
        assert got2 == (Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(39, 128))
        assert list(got2) == independent_mu(2, 3)
        got3 = recur.mu_sequence(3, 2)
        assert got3 == (Fraction(1), Fraction(1, 3), Fraction(19, 81))
        assert list(got3) == independent_mu(3, 2)


def test_criterion_2_generating_function_consistency():
    with criterion(2, 1.0, "coefficient tables vs scalar recurrences"):
        for d, r_max in ((2, 6), (3, 4)):
            mus = recur.mu_sequence(d, r_max + 1)
            v0_prev = Fraction(0)
            for r in range(0, r_max + 1):
                table = recur.e_coeffs(d, r)
                assert table.total() == 1
                assert table.v[0] == (d - 1 + v0_prev**d) / d
                assert mus[r + 1] == 1 - table.v[0]
                v0_prev = table.v[0]


def test_criterion_3_enumeration_oracle():
    with criterion(3, 120.0, "complete proper enumeration matches U(r, k)"):
        for d in (2, 3):
            for r in (-1, 0, 1, 2):
                for k in (1, 2, 3, 4):
                    found = graphs.enumerate_complete_proper(r, k, d)
                    assert len(found) == recur.u_value(d, r, k), (d, r, k)
        assert recur.u_value(2, 1, 2) == 3
        assert recur.u_value(2, 0, 3) == 4
        assert recur.u_value(2, 1, 3) == 10


def test_criterion_4_tree_generation():
    with criterion(4, 60.0, "trees generate every complete proper graph"):
        for d in (2, 3):
            for r in (-1, 0, 1):
                for k in (1, 2, 3):
                    complete = set(graphs.enumerate_complete_proper(r, k, d))
                    covered = set()
                    for tree in graphs.enumerate_trees(r, k, d):
                        lex = graphs.maximal_extension(tree, order="lex")
                        rev = graphs.maximal_extension(tree, order="reverse")
                        assert lex == rev, "extension must be order-independent"
                        if lex.is_complete():
                            covered.add(lex)
                    assert complete <= covered, (d, r, k)


def test_criterion_5_moment_identities():
    with criterion(5, 60.0, "moment identities over the fixed instance matrix"):
        # a failing instance raises lab.CheckFailed with its detail
        assert lab.check_moment_identities(desk=True) == "matrix complete"


def test_criterion_6_geometric_decomposition():
    with criterion(6, 120.0, "geometric decomposition and curve bounds"):
        print()
        header = ("p", "d", "N", "k", "formula_term", "direct_inf", "gcd^(k-1)")
        rows = []
        for p, k in ((5, 2), (13, 2), (5, 3)):
            f = poly_map(p, 2, 1, 1)
            report = curves.decomposition_check(f, 1, k)
            assert report.union_equals_cr
            assert report.affine_equals_w
            expected = math.gcd(p - 1, 2) ** (k - 1)
            assert report.direct_infinity_count == expected
            rows.append((p, 2, 1, k, report.formula_infinity_term,
                         report.direct_infinity_count, expected))
            graph_list = graphs.enumerate_complete_proper(0, k, 2)
            for g in graph_list:
                assert curves.weil_check(f, g, k, 1).ok
            for i, g1 in enumerate(graph_list):
                for g2 in graph_list[i + 1:]:
                    assert curves.intersection_check(f, g1, g2, k, 1).ok
        print("infinity-term discrepancy table:")
        print(" ".join(header))
        for row in rows:
            print(" ".join(str(x) for x in row))


def test_criterion_7_asymptotic_trend():
    with criterion(7, 10.0, "certified asymptotic ratio stays in [0.9, 1.1]"):
        assert lab.check_asymptotic_trend() == "certified ratios stay in band"


def test_criterion_8_statistical_theorem_check():
    with criterion(8, 120.0, "statistical image-size check at depth 2"):
        cfg = lab.SweepConfig(d=2, N=2, p_min=1000, p_max=5000, per_prime=20,
                              policy="random", seed=20260808,
                              require_precondition=True)
        records, summary = lab.sweep_theorem(cfg)
        assert summary["count"] > 0
        assert all(rec["precondition"] for rec in records)
        assert summary["mean_abs_norm_err"] <= 3.0, summary
        assert summary["max_abs_norm_err"] <= 12.0, summary
        cfg4 = lab.SweepConfig(d=4, N=1, p_min=1000, p_max=5000, per_prime=20,
                               policy="random", seed=20260808,
                               require_precondition=True)
        records4, _ = lab.sweep_theorem(cfg4)
        assert records4
        for rec in records4:
            assert rec["image_size"] == (rec["p"] - 1) // 4 + 1
            assert rec["mu_p"] == rec["p"] / 4


def test_criterion_9_corollary_sweeps():
    with criterion(9, 120.0, "deterministic corollary sweeps with valid schema"):
        # a failing instance raises lab.CheckFailed with its detail
        assert lab.check_corollary_sweeps(desk=True).endswith(" graph records")
