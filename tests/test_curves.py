import hashlib
import json
import math
import time
import tracemalloc
from dataclasses import dataclass
from itertools import combinations
from itertools import product as iproduct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyiter import cli, curves, dynamics, graphs, lab
from polyiter.dynamics import poly_map
from polyiter.errors import BudgetError
from polyiter.field import FieldParams, primitive_dth_root
from polyiter.graphs import IterGraph

from oracles import cr_masks, eval_map, graph_masks

F5 = poly_map(5, 2, 1, 1)
F13 = poly_map(13, 2, 1, 1)

LINE = IterGraph(k=2, r=0, d=2, edges={(1, 2): (-1, 0)})
TWISTED_LINE = IterGraph(k=2, r=0, d=2, edges={(1, 2): (0, 1)})
CONIC = IterGraph(k=2, r=1, d=2, edges={(1, 2): (1, 1)})


# ---------------------------------------------------------------------------
# Per-point reference evaluators and the tuple view of the chart masks: the
# oracles that the grid kernel is checked against.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSpec:
    """Which factor of the iterate difference: level >= 0 with a twist in
    [1, d-1], or level -1 (the plain difference) with twist 0."""

    level: int
    twist: int

    def check(self, d: int) -> None:
        if self.level == -1:
            if self.twist != 0:
                raise ValueError("level -1 requires twist 0")
        elif self.level >= 0:
            if not (1 <= self.twist <= d - 1):
                raise ValueError(f"twist must be in [1, {d - 1}] for level >= 0")
        else:
            raise ValueError("level must be >= -1")


def homogeneous_iterate(f: FieldParams, x: int, z: int, level: int) -> int:
    """F applied level times to (x, z): the degree-d**level homogenization
    of the affine iterate, via F_{i+1} = A*F_i**d + C*z**(d**(i+1))."""
    p = f.p
    value = x % p
    zpow = z % p
    for _ in range(level):
        zpow = pow(zpow, f.d, p)
        value = (f.A * pow(value, f.d, p) + f.C * zpow) % p
    return value


def phi_eval(f: FieldParams, spec: PhiSpec, x: int, y: int, z: int) -> int:
    """Value of the homogenized twisted difference at (x, y, z)."""
    spec.check(f.d)
    p = f.p
    if spec.level == -1:
        return (x - y) % p
    fx = homogeneous_iterate(f, x, z, spec.level)
    fy = homogeneous_iterate(f, y, z, spec.level)
    return (fx - pow(primitive_dth_root(p, f.d), spec.twist, p) * fy) % p


def point_tuples(masks):
    """The tuple sets that the oracle's chart masks stand for: (1, *x) per
    affine cell, and (0, *head, *x) per cell of the lead-th infinity slice,
    head = (0, ..., 0, 1) with lead entries."""
    affine_mask, infinity_mask = masks
    p, k = affine_mask.shape[0], affine_mask.ndim
    affine = frozenset((1, *map(int, x)) for x in np.argwhere(affine_mask))
    infinity, start = set(), 0
    for lead in range(1, k + 1):
        head = (0,) * (lead - 1) + (1,)
        size = p ** (k - lead)
        block = infinity_mask[start:start + size].reshape((p,) * (k - lead))
        infinity |= {(0, *head, *map(int, x)) for x in np.argwhere(block)}
        start += size
    assert start == infinity_mask.size
    return affine, frozenset(infinity)


def all_points(pts):
    affine, infinity = point_tuples(pts)
    return affine | infinity


def test_phi_eval_examples():
    assert phi_eval(F5, PhiSpec(-1, 0), 3, 3, 1) == 0
    # level 0 with z = 1 is x - gamma**h * y
    for x in range(5):
        for y in range(5):
            expected = (x - 4 * y) % 5
            assert phi_eval(F5, PhiSpec(0, 1), x, y, 1) == expected
    assert phi_eval(F5, PhiSpec(1, 1), 1, 2, 1) == 2


def test_phi_spec_validation():
    with pytest.raises(ValueError):
        phi_eval(F5, PhiSpec(-1, 1), 1, 2, 1)
    with pytest.raises(ValueError):
        phi_eval(F5, PhiSpec(0, 0), 1, 2, 1)
    with pytest.raises(ValueError):
        phi_eval(F5, PhiSpec(-2, 0), 1, 2, 1)


def test_homogeneous_iterate_matches_affine():
    for f in (F5, poly_map(7, 3, 2, 3)):
        for level in range(3):
            for x in range(f.p):
                affine = x
                for _ in range(level):
                    affine = eval_map(f, affine)
                assert homogeneous_iterate(f, x, 1, level) == affine


def test_homogeneous_iterate_degree_scaling():
    # F(t*x, t*z) = t**(d**level) * F(x, z): degree-d**level homogeneity
    f = poly_map(13, 3, 2, 5)
    for level in (0, 1, 2):
        weight = f.d**level
        for t in (2, 5, 7):
            for (x, z) in ((1, 1), (3, 4), (6, 0), (0, 2)):
                lhs = homogeneous_iterate(f, t * x % 13, t * z % 13, level)
                rhs = pow(t, weight, 13) * homogeneous_iterate(f, x, z, level) % 13
                assert lhs == rhs


def test_orientation_swap_identity():
    # swapping the edge orientation rescales the equation by -gamma**eta
    f = poly_map(13, 4, 3, 2)
    for level in (0, 1):
        for eta in (1, 2, 3):
            partner = (4 - eta) % 4
            scale = (-pow(primitive_dth_root(13, 4), eta, 13)) % 13
            for x in range(13):
                for y in range(13):
                    fwd = phi_eval(f, PhiSpec(level, eta), x, y, 1)
                    back = phi_eval(f, PhiSpec(level, partner), y, x, 1)
                    assert fwd == scale * back % 13


def test_count_curve_points_line():
    assert sum(curves.count_curve_points(F5, LINE)) == 6  # a line has p + 1 points
    assert sum(curves.count_curve_points(F13, LINE)) == 14


def test_count_curve_points_refuses_other_degree():
    # a d = 3 twist read against the order-2 root of unity names no such curve
    with pytest.raises(ValueError, match="graph has d=3, map has d=2"):
        curves.count_curve_points(F13, IterGraph(k=2, r=0, d=3, edges={(1, 2): (0, 2)}))


def test_count_curve_points_conic():
    assert curves.count_curve_points(F5, CONIC) == (4, 2)


def test_tree_and_completion_share_points():
    # a generating tree cuts out the same variety as its completion
    tree = IterGraph(k=3, r=0, d=2, edges={(1, 2): (0, 1), (1, 3): (-1, 0)})
    complete = graphs.maximal_extension(tree)
    assert complete.is_complete()
    for f in (F5, F13):
        assert all_points(graph_masks(f, tree)) == all_points(graph_masks(f, complete))


def test_count_cr_points():
    assert curves.count_cr_points(F5, 1, 2) == (9, 2)
    assert sum(curves.count_cr_points(F5, 0, 2)) == 6
    assert curves.count_cr_points(F5, 1, 2)[1] == math.gcd(4, 2) ** 1


def test_cr_affine_equals_moment():
    for f in (F5, F13, poly_map(7, 3, 1, 1)):
        for n in (0, 1, 2):
            for k in (1, 2, 3):
                affine, infinity = curves.count_cr_points(f, n, k)
                assert affine == dynamics.moment_w(f, n, k)
                assert infinity == math.gcd(f.p - 1, f.d**n) ** (k - 1)


def test_graph_points_inside_cr():
    for k in (2, 3):
        cr_points = all_points(cr_masks(F5, 1, k))
        for g in graphs.enumerate_complete_proper(0, k, 2):
            assert all_points(graph_masks(F5, g)) <= cr_points


def test_decomposition_check():
    report = curves.decomposition_check(F5, 1, 2)
    assert report.union_total == 11 and report.cr_total == 11
    assert report.w_value == 9 and report.cr_affine == 9
    assert report.formula_infinity_term == 4
    assert report.direct_infinity_count == 2
    assert report.union_equals_cr and report.affine_equals_w

    report13 = curves.decomposition_check(F13, 1, 2)
    assert report13.union_equals_cr and report13.affine_equals_w
    assert report13.direct_infinity_count == 2

    report3 = curves.decomposition_check(F5, 1, 3)
    assert report3.union_equals_cr and report3.affine_equals_w
    assert report3.direct_infinity_count == 4


def test_decomposition_depth_two():
    # level-1 graphs bring genuine conic/cubic factors into the union
    for p, d in ((13, 2), (7, 3), (29, 2)):
        f = poly_map(p, d, 1, 1)
        report = curves.decomposition_check(f, 2, 2)
        assert report.union_equals_cr and report.affine_equals_w
        assert report.direct_infinity_count == math.gcd(p - 1, d**2)


def naive_points(p, k, satisfied):
    """Reference projective scan: every (1, *x) and every (0, *x) whose first
    nonzero coordinate is 1, kept when satisfied(x, z) holds at z = x0."""
    affine, infinity = set(), set()
    for coords in iproduct(range(p), repeat=k):
        if satisfied(coords, 1):
            affine.add((1, *coords))
    for lead in range(1, k + 1):
        prefix = (0,) * (lead - 1) + (1,)
        for rest in iproduct(range(p), repeat=k - lead):
            if satisfied(prefix + rest, 0):
                infinity.add((0, *prefix, *rest))
    return affine, infinity


def test_count_matches_naive_phi_scan():
    # chart grids against a literal per-point evaluation of every edge form
    for f, k, r in ((poly_map(13, 2, 3, 7), 2, 1), (poly_map(7, 3, 2, 4), 2, 1),
                    (poly_map(13, 4, 5, 2), 2, 0), (poly_map(7, 3, 1, 1), 3, 0)):
        for g in graphs.enumerate_complete_proper(r, k, f.d)[:5]:

            def satisfied(coords, z):
                for a, b in g.edge_pairs():
                    xi, eta = g.xi(a, b), g.eta(a, b)
                    spec = PhiSpec(xi, eta) if xi >= 0 else PhiSpec(-1, 0)
                    if phi_eval(f, spec, coords[a - 1], coords[b - 1], z) != 0:
                        return False
                return True

            pts = point_tuples(graph_masks(f, g))
            affine, infinity = naive_points(f.p, k, satisfied)
            assert pts[0] == affine
            assert pts[1] == infinity
            assert curves.count_curve_points(f, g) == (len(affine), len(infinity))


def test_cr_points_match_naive_scan():
    # full point sets, including the lone (0, 0, ..., 1) point at infinity
    for f in (F5, poly_map(7, 3, 2, 4), poly_map(13, 4, 5, 2)):
        for N in (0, 1, 2):
            for k in (1, 2, 3):

                def satisfied(coords, z):
                    return len({homogeneous_iterate(f, x, z, N) for x in coords}) == 1

                pts = point_tuples(cr_masks(f, N, k))
                affine, infinity = naive_points(f.p, k, satisfied)
                assert pts[0] == affine, (f.p, N, k)
                assert pts[1] == infinity, (f.p, N, k)
                assert curves.count_cr_points(f, N, k) == (len(affine), len(infinity))


def test_irreducibility_probe_matches_naive_scan():
    # the twisted-difference plane curve at level r and twist i, whose point
    # count probes irreducibility, is the variety of the one-edge graph
    # {1,2} labeled (r, i)
    for f in (F5, F13, poly_map(13, 4, 5, 2), poly_map(7, 3, 2, 4)):
        for r in (0, 1, 2):
            for i in range(1, f.d):
                spec = PhiSpec(r, i)
                affine, infinity = naive_points(
                    f.p, 2, lambda xy, z: phi_eval(f, spec, *xy, z) == 0
                )
                g = IterGraph(k=2, r=r, d=f.d, edges={(1, 2): (r, i)})
                count = sum(curves.count_curve_points(f, g))
                assert count == len(affine) + len(infinity), (f.p, f.d, r, i)


@pytest.mark.parametrize("p, d, N, k, A, C", [
    (13, 2, 2, 3, 3, 7), (37, 3, 1, 3, 2, 5), (29, 4, 1, 3, 5, 2), (13, 4, 2, 2, 3, 1),
    (61, 3, 2, 2, 7, 11), (101, 5, 1, 3, 4, 9), (41, 4, 2, 2, 2, 3), (17, 2, 2, 3, 1, 1),
    (97, 3, 1, 2, 5, 6), (31, 3, 2, 2, 1, 4), (211, 3, 1, 3, 3, 7), (13, 3, 2, 4, 3, 7),
])
def test_decomposition_matrix(p, d, N, k, A, C):
    report = curves.decomposition_check(poly_map(p, d, A, C), N, k)
    assert report.union_equals_cr and report.affine_equals_w
    # at x0 = 0 the first coordinate is 1 and the rest solve x**(d**N) = 1
    assert report.direct_infinity_count == math.gcd(p - 1, d**N) ** (k - 1)


SMALL_PRIMES = [p for p in range(3, 102) if all(p % q for q in range(2, p))]


@st.composite
def slab_cases(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    d = draw(st.sampled_from([d for d in range(2, 7) if (p - 1) % d == 0]))
    N, k = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    A, C = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
    # one row of every chart, two and seven rows of the affine grid (neither
    # divides p > 7), or the default
    slab = draw(st.sampled_from([1, 2 * p ** (k - 1), 7 * p ** (k - 1), curves.SLAB_CELLS]))
    return p, d, N, k, A, C, slab


@example(case=(13, 2, 1, 2, 3, 7, 1))
@example(case=(13, 3, 1, 3, 3, 7, 1))
@example(case=(13, 3, 2, 3, 3, 7, 2 * 13**2))
@example(case=(101, 5, 1, 3, 3, 5, curves.SLAB_CELLS))
@settings(max_examples=50, deadline=None)
@given(case=slab_cases())
def test_decomposition_slabs_match_the_full_grid_masks(case):
    # every report field, each graph's counts and each pair's common count
    # against the oracle's whole chart masks of the graphs and of C_N: their
    # OR, their pairwise ANDs and their count_nonzero
    p, d, N, k, A, C, slab = case
    f = poly_map(p, d, A, C)
    graph_list = graphs.enumerate_complete_proper(N - 1, k, d)
    masks = [graph_masks(f, g) for g in graph_list]
    union = [np.logical_or.reduce([m[chart] for m in masks]) for chart in (0, 1)]
    cr = cr_masks(f, N, k)
    cr_affine, cr_infinity = map(np.count_nonzero, cr)
    w = dynamics.moment_w(f, N, k)
    gcd_val = math.gcd(p - 1, d**N)
    expected = curves.DecompositionReport(
        p=p, d=d, N=N, k=k, union_total=sum(map(np.count_nonzero, union)),
        cr_total=cr_affine + cr_infinity, cr_affine=cr_affine, w_value=w,
        formula_infinity_term=(p - 1) * gcd_val ** (k - 2) if k >= 2 else 0,
        direct_infinity_count=cr_infinity,
        union_equals_cr=all(np.array_equal(u, c) for u, c in zip(union, cr)),
        affine_equals_w=cr_affine == w)
    flat = np.array([np.concatenate([m[0].ravel(), m[1]]) for m in masks], dtype=np.int64)
    with mock.patch.object(curves, "SLAB_CELLS", slab):
        assert curves.decomposition_check(f, N, k) == expected
        assert curves.count_cr_points(f, N, k) == (cr_affine, cr_infinity)
        counts, common = curves.graph_counts(f, graph_list)
    assert counts == [tuple(map(np.count_nonzero, m)) for m in masks]
    assert np.array_equal(common, flat @ flat.T)


def test_decomposition_traced_peak_is_a_slab_not_a_grid():
    # 2.98 and 27.0 MiB when the check held whole (p,)*k chart grids
    for p, d, mib in ((101, 5, 1.5), (211, 3, 4)):
        f = poly_map(p, d, 3, 5)
        tracemalloc.start()
        try:
            report = curves.decomposition_check(f, 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.union_equals_cr and report.affine_equals_w
        assert peak <= mib * 2**20, (p, d, peak)


def test_count_walk_traced_peak_is_a_slab_of_every_graph():
    # 1.18 and 0.37 MiB for one graph's whole chart masks; the slab shares
    # SLAB_CELLS among the graphs, so the walk of all of them holds less
    for p, d, N, k, mib in ((101, 5, 1, 3, 1.18), (61, 3, 2, 3, 0.37)):
        f = poly_map(p, d, 3, 5)
        graph_list = graphs.enumerate_complete_proper(N - 1, k, d)
        tracemalloc.start()
        try:
            counts, _ = curves.graph_counts(f, graph_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == len(graph_list) > 20
        assert peak <= mib * 2**20, (p, d, peak)


def test_one_root_search_per_check_and_per_cli_graph(monkeypatch, capsys):
    calls, walks = [], []
    scan = curves._scan

    def counted(p, d):
        calls.append((p, d))
        return primitive_dth_root(p, d)

    def walked(f, k, systems, cells):
        walks.append((f.p, k))
        return scan(f, k, systems, cells)

    monkeypatch.setattr(curves, "primitive_dth_root", counted)
    monkeypatch.setattr(curves, "_scan", walked)
    curves.decomposition_check(poly_map(101, 5, 3, 5), 1, 3)
    assert calls == [(101, 5)]
    calls.clear()
    # one walk for every graph of the call, not one per graph
    assert cli.main(["curves", "--p", "13", "--d", "2", "--A", "3", "--C", "7",
                     "--N", "1", "--k", "2", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == 2 and calls == [(13, 2)]
    calls.clear()
    walks.clear()
    # the decomposition walk and the count walk per instance, 27 of each when
    # every graph and every pair of graphs walked its own point sets
    lab.check_decomposition_geometry()
    assert walks == [(5, 2), (5, 2), (13, 2), (13, 2), (5, 3), (5, 3)]
    assert calls == [(5, 2), (5, 2), (13, 2), (13, 2), (5, 2), (5, 2)]


def test_decomposition_depth_zero():
    # single level -1 graph; the union is the diagonal with p + 1 points
    report = curves.decomposition_check(F5, 0, 2)
    assert report.union_total == 6 == report.cr_total
    assert report.union_equals_cr


def test_weil_check():
    counts, _ = curves.graph_counts(F5, [LINE, CONIC])
    assert [curves.weil_deviation(5, sum(c)) for c in counts] == [0, 0]
    # plane cubics stay within the genus-1 window
    for p in (7, 13):
        f = poly_map(p, 3, 1, 1)
        cubic = IterGraph(k=2, r=1, d=3, edges={(1, 2): (1, 1)})
        (count,), _ = curves.graph_counts(f, [cubic])
        assert curves.weil_deviation(p, sum(count)) <= 2 <= 3 ** (2 * 2 * 1)


def sets_equal(common, i, j):
    """Point sets i and j are equal, by the rule check_decomposition_geometry reads."""
    return 0 < common[i, j] == common[i, i] == common[j, j]


def test_intersection_check():
    _, common = curves.graph_counts(F5, [LINE, TWISTED_LINE])
    assert common[0, 1] == common[1, 0] == 1
    assert not sets_equal(common, 0, 1) and common[0, 1] <= 2 ** (2 * 2 * 1)
    pts1 = all_points(graph_masks(F5, LINE))
    pts2 = all_points(graph_masks(F5, TWISTED_LINE))
    assert pts1 & pts2 == {(1, 0, 0)}
    # a graph listed twice meets itself in every point
    _, common = curves.graph_counts(F5, [LINE, LINE])
    assert sets_equal(common, 0, 1) and common[0, 1] == 6


def test_pairwise_intersections_within_bound():
    for f, n in ((F5, 1), (F13, 1), (F5, 2)):
        graph_list = graphs.enumerate_complete_proper(n - 1, 2, 2)
        _, common = curves.graph_counts(f, graph_list)
        for i, j in combinations(range(len(graph_list)), 2):
            assert common[i, j] <= 2 ** (2 * 2 * n) and not sets_equal(common, i, j)


def test_checks_refuse_mismatched_k():
    # masks of different k would broadcast into a wrong count instead of failing
    with pytest.raises(ValueError, match="graph has k=2, expected k=1"):
        curves.graph_counts(F5, [IterGraph(k=1, r=0, d=2), LINE])
    with pytest.raises(ValueError, match="graph has k=3, expected k=2"):
        curves.graph_counts(F5, [LINE, IterGraph(k=3, r=0, d=2)])
    # and a twist read against another d's root of unity names no such curve
    with pytest.raises(ValueError, match="graph has d=3, map has d=2"):
        curves.graph_counts(F13, [LINE, IterGraph(k=2, r=0, d=3, edges={(1, 2): (0, 2)})])


@pytest.mark.parametrize("p, d", [(5, 2), (13, 2), (7, 3), (13, 4)])
def test_mask_algebra_matches_tuple_sets(p, d):
    # the count walk's counts and pair commons, and the decomposition's union,
    # against len of the tuple sets the oracle's masks stand for and of their
    # intersections and union, over every pair of graphs
    f = poly_map(p, d, 3, 2)
    for N in (0, 1, 2):
        for k in (2, 3):
            graph_list = graphs.enumerate_complete_proper(N - 1, k, d)
            point_sets = [point_tuples(graph_masks(f, g)) for g in graph_list]
            counts, common = curves.graph_counts(f, graph_list)
            assert counts == [(len(a), len(b)) for a, b in point_sets], (p, d, N, k)
            point_sets = [a | b for a, b in point_sets]
            for (i, pts1), (j, pts2) in combinations(enumerate(point_sets), 2):
                assert common[i, j] == common[j, i] == len(pts1 & pts2), (p, d, N, k)
                assert sets_equal(common, i, j) == (pts1 == pts2 and bool(pts1))
            union = frozenset().union(*point_sets)
            report = curves.decomposition_check(f, N, k)
            assert report.union_total == len(union), (p, d, N, k)
            assert report.union_equals_cr == (union == all_points(cr_masks(f, N, k)))


# exit code and sha256 of stdout + stderr of `polyiter curves|decomp --A 3
# --C 7`, recorded from the tuple-set implementation that the masks replaced.
# The four (211, 3, N, 3) rows were recorded again when CHART_BYTE_CAP came
# to admit N = 1 (each graph's counts checked against graph_masks first) and
# to refuse N = 2 with its own message
CLI_PINS = [
    ("curves", 13, 2, 1, 2, 0,
     "15c1607495a2c918f1432c13b6b1fff9d8d95a59d3bb9960a9be3fa11db01fb4"),
    ("decomp", 13, 2, 1, 2, 0,
     "bfb17ddf539f4ae268a6efaa2bc7b1ac67300130f1d395f7e0e32d0d315d89ab"),
    ("curves", 13, 2, 1, 3, 0,
     "7d4f04f739956222d1fa6e9ce50033510b7148c5f16d3e069e7e60c42f47904a"),
    ("decomp", 13, 2, 1, 3, 0,
     "c1ee740ed36cece45ade99095b76b2673d0793b1c15cc17c9126d8102e2e3789"),
    ("curves", 13, 2, 2, 2, 0,
     "f54fcba1434220495910f72a3090ce75c0ee1b22d06ee2b61a686f8ee34a6971"),
    ("decomp", 13, 2, 2, 2, 0,
     "072bc601ace301bfeb259f033784cf01b8d2879828ef30224a57ddfd1545cd57"),
    ("curves", 13, 2, 2, 3, 0,
     "fe4802af11d4bd45e595033c07d706debc84a893373d468e954d93a0bba5de1d"),
    ("decomp", 13, 2, 2, 3, 0,
     "7bbab9b21d4948eaf02709bb229107e329e22162d5f0ce799623d9d9b48ccfaa"),
    ("curves", 101, 5, 1, 2, 0,
     "10058b4c72837fdccc3efc41ab553cbca171ecfdd7f45eb99d3fd3fc06d5bc96"),
    ("decomp", 101, 5, 1, 2, 0,
     "8e0f7d212ae03d7549ea5ded5a605f0ccee5fd8f81250527053c40b74fe4341f"),
    ("curves", 101, 5, 1, 3, 0,
     "be73e415ddb1a7a3fd3d9bdb151e982c465d0e3d98cc4b476ee8c5aa3fa30a1d"),
    ("decomp", 101, 5, 1, 3, 0,
     "206ef48a3f6eef34a2fbbe6ffe215cebc58e6f7300be85dbb6bee216cc0396a8"),
    ("curves", 101, 5, 2, 2, 0,
     "d94fa3f36547a35fb1b72eecd3e32a9788aadb09efc94e98fe6f4c6792ac6c31"),
    ("decomp", 101, 5, 2, 2, 0,
     "40171d1ec85d8360782fa98aa4010fd4413671922b6f5c3069d31778851a3761"),
    ("curves", 101, 5, 2, 3, 0,
     "c6765eb86b5a4bbe58bdecb28da156aa5c00bcba433cdcbe5c77fb60527a68b3"),
    ("decomp", 101, 5, 2, 3, 0,
     "a178179e01149a54fdfe3af90cc3cf27bff660a33b2353d89ac3c157780686f4"),
    ("curves", 211, 3, 1, 2, 0,
     "a2ab4545ffdf7b3dfce82835ef611a37a256c194c04061a8d719084743c356dd"),
    ("decomp", 211, 3, 1, 2, 0,
     "23b2e55534d02824b22971b825413afa721f5d398b8302fd079c762e68b4a2bd"),
    ("curves", 211, 3, 1, 3, 0,
     "9a1202af0a643485e47d89f24414b2c67ffd0f365f07a5bbbb3d40100f7ba98e"),
    ("decomp", 211, 3, 1, 3, 0,
     "87ff68545f7fdd86748fab175074e82484fcb42ff7abec161d4491f3f49b43ef"),
    ("curves", 211, 3, 2, 2, 0,
     "96b12639ec0ea82f0fbd36a892ab82770920ab454d9c9c3680af05bb0d022616"),
    ("decomp", 211, 3, 2, 2, 0,
     "0a172dfe9113885f626437c051ef9484a1063eac8e07339848f805f0b40b9c5d"),
    ("curves", 211, 3, 2, 3, 3,
     "1e85dbfd3075de6bbe4e5dd08cbecf543b1657bdc2fac9fd82b19513dbafde29"),
    ("decomp", 211, 3, 2, 3, 3,
     "282a356b2b429c28d0f27639caac5453dec4bba6ea7513de211ea056acdff2f6"),
    ("curves", 7, 3, 1, 2, 0,
     "722511a985875d05e11f270abfa3c5afc2b73a34c56cbdaafd563462ca8cec9b"),
    ("decomp", 7, 3, 1, 2, 0,
     "98e46d83d7ddbda1733ffbaf33a5cd9d3d724a5804c9dbab8002078782b5657b"),
    ("curves", 7, 3, 1, 3, 0,
     "06f509fb34a8f6308a6eced3f742f90c568b1029e3d2a4b4dc73a1529bd691dd"),
    ("decomp", 7, 3, 1, 3, 0,
     "9b252278644af43da710a51bdd69a3c221c7145e24399d568400e0df2db509b7"),
    ("curves", 7, 3, 2, 2, 0,
     "264618c435e1e760cd1a881ae48dca4d781fa929f7681037258714cf67ce4258"),
    ("decomp", 7, 3, 2, 2, 0,
     "af2c4541760584be733bcf25eeb1b3f27a1794d57fae2e7a98e659dede0343d8"),
    ("curves", 7, 3, 2, 3, 0,
     "a92a2b0608bdafc160c49d16e8f92149799917ea16d9be8cf7af5fbd0339ea79"),
    ("decomp", 7, 3, 2, 3, 0,
     "83994a7bbe656eb85ec140559c1f0ae298f7604767ceb08c6e83be93897fae7e"),
]


@pytest.mark.parametrize("cmd, p, d, N, k, code, digest", CLI_PINS,
                         ids=["-".join(map(str, pin[:5])) for pin in CLI_PINS])
def test_cli_curves_and_decomp_bytes_pinned(capsys, cmd, p, d, N, k, code, digest):
    argv = [cmd, "--p", str(p), "--d", str(d), "--A", "3", "--C", "7",
            "--N", str(N), "--k", str(k)]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


def test_irreducibility_probe():
    # the level-0 and level-1 twisted differences over F5 have p + 1 points
    assert sum(curves.count_curve_points(F5, TWISTED_LINE)) == 6
    assert sum(curves.count_curve_points(F5, CONIC)) == 6


def iterate(f, x, times):
    for _ in range(times):
        x = eval_map(f, x)
    return x


def solution_graph(f, xs, N):
    """Label a tuple with equal N-th iterates: level -1 for equal entries,
    otherwise the first level where the iterates differ by a root power."""
    k = len(xs)
    g = IterGraph(k=k, r=N - 1, d=f.d)
    gamma = primitive_dth_root(f.p, f.d)
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            xa, xb = xs[a - 1], xs[b - 1]
            if xa == xb:
                g = g.with_edge(a, b, -1, 0)
                continue
            label = None
            for level in range(N):
                fa, fb = iterate(f, xa, level), iterate(f, xb, level)
                for h in range(1, f.d):
                    if fa == pow(gamma, h, f.p) * fb % f.p:
                        label = (level, h)
                        break
                if label:
                    break
            assert label is not None, "an unequal pair must split at some level"
            g = g.with_edge(a, b, label[0], label[1])
    return g


def test_iterate_difference_factors_into_twists():
    # f^r(x) - f^r(y) equals A**r * (x - y) * prod of all twisted factors
    for p, d in ((13, 2), (13, 3), (13, 4), (7, 3)):
        f = poly_map(p, d, 2, 3)
        for r in (1, 2):
            for x in range(p):
                for y in range(p):
                    lhs = (iterate(f, x, r) - iterate(f, y, r)) % p
                    rhs = pow(f.A, r, p) * (x - y) % p
                    for level in range(r):
                        for h in range(1, d):
                            rhs = rhs * phi_eval(f, PhiSpec(level, h), x, y, 1) % p
                    assert lhs == rhs, (p, d, r, x, y)


def test_solution_graphs_are_proper_and_enumerated():
    # the labels carried by any real solution tuple form a complete proper
    # graph, that graph is in the enumeration, and the tuple lies on its variety
    cases = [(poly_map(13, 2, 1, 1), 2, 2), (poly_map(13, 2, 1, 1), 2, 3),
             (poly_map(7, 3, 1, 1), 2, 2)]
    for f, N, k in cases:
        assert dynamics.check_precondition(f, N)
        arr = dynamics.apply_map_to_domain(f, N).tolist()
        enumerated = {g.canonical(): g for g in
                      graphs.enumerate_complete_proper(N - 1, k, f.d)}
        seen = set()
        tuples = (
            [(x, y) for x in range(f.p) for y in range(f.p) if arr[x] == arr[y]]
            if k == 2 else
            [(x, y, z) for x in range(f.p) for y in range(f.p) for z in range(f.p)
             if arr[x] == arr[y] == arr[z]]
        )
        for xs in tuples:
            g = solution_graph(f, xs, N)
            assert graphs.graph_violation(g) is None
            assert g.is_complete()
            assert graphs.is_proper(g)
            assert g.canonical() in enumerated
            seen.add(g.canonical())
            assert (1, *xs) in point_tuples(graph_masks(f, g))[0]
        assert seen  # the level/twist labeling really fires


def walk_refused(*args):
    raise AssertionError("a chart walk past the budget was started")


def test_budget_guards(monkeypatch):
    # one-system walks past CHART_BYTE_CAP = 2.68e8 bytes, refused before any
    # chart is built: 2.69e8 at (p, k) = (16411, 2), 1.03e9 at (1009, 3) and
    # 2.97e8 at (131, 4)
    monkeypatch.setattr(curves, "_scan", walk_refused)
    f_large = poly_map(16411, 2, 1, 1)
    with pytest.raises(BudgetError):
        curves.count_curve_points(f_large, LINE)
    with pytest.raises(BudgetError):
        curves.count_cr_points(f_large, 1, 2)
    with pytest.raises(BudgetError):
        curves.count_cr_points(poly_map(1009, 2, 1, 1), 1, 3)
    with pytest.raises(BudgetError):
        curves.count_cr_points(poly_map(131, 2, 1, 1), 1, 4)
    # a walk charges at least 2**k bytes, so k = 10**7 is refused before the
    # 5**k cells of one system are worked out (5 s)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        curves._check_budget(5, 10**7, 1)
    assert time.perf_counter() - start < 1


@st.composite
def infinity_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 13, 17, 29, 101]))
    d = draw(st.sampled_from([d for d in (2, 3, 4, 6) if (p - 1) % d == 0]))
    A = draw(st.integers(min_value=1, max_value=p - 1))
    C = draw(st.integers(min_value=0, max_value=p - 1))
    return poly_map(p, d, A, C), draw(st.integers(min_value=0, max_value=4))


# d**L divisible by p - 1: a plain d**L mod (p - 1) exponent would send 0 to 1
@example(case=(poly_map(5, 4, 3, 1), 1))
@example(case=(poly_map(5, 2, 2, 4), 2))
@example(case=(poly_map(3, 2, 2, 1), 1))
@settings(max_examples=80, deadline=None)
@given(case=infinity_cases())
def test_infinity_table_matches_homogeneous_iterate(case):
    f, level = case
    table = curves._iterate_table(f, level, at_infinity=True)
    assert table.tolist() == [
        homogeneous_iterate(f, x, 0, level) for x in range(f.p)
    ]
