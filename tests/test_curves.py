import math
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyiter import curves, dynamics, graphs
from polyiter.curves import PhiSpec
from polyiter.dynamics import poly_map
from polyiter.errors import BudgetError
from polyiter.graphs import IterGraph

F5 = poly_map(5, 2, 1, 1)
F13 = poly_map(13, 2, 1, 1)

LINE = IterGraph(k=2, r=0, d=2, edges={(1, 2): (-1, 0)})
TWISTED_LINE = IterGraph(k=2, r=0, d=2, edges={(1, 2): (0, 1)})
CONIC = IterGraph(k=2, r=1, d=2, edges={(1, 2): (1, 1)})


def test_phi_eval_examples():
    assert curves.phi_eval(F5, PhiSpec(-1, 0), 3, 3, 1) == 0
    # level 0 with z = 1 is x - gamma**h * y
    for x in range(5):
        for y in range(5):
            expected = (x - 4 * y) % 5
            assert curves.phi_eval(F5, PhiSpec(0, 1), x, y, 1) == expected
    assert curves.phi_eval(F5, PhiSpec(1, 1), 1, 2, 1) == 2


def test_phi_spec_validation():
    with pytest.raises(ValueError):
        curves.phi_eval(F5, PhiSpec(-1, 1), 1, 2, 1)
    with pytest.raises(ValueError):
        curves.phi_eval(F5, PhiSpec(0, 0), 1, 2, 1)
    with pytest.raises(ValueError):
        curves.phi_eval(F5, PhiSpec(-2, 0), 1, 2, 1)


def test_homogeneous_iterate_matches_affine():
    for f in (F5, poly_map(7, 3, 2, 3)):
        for level in range(3):
            for x in range(f.p):
                affine = x
                for _ in range(level):
                    affine = dynamics.eval_map(f, affine)
                assert curves.homogeneous_iterate(f, x, 1, level) == affine


def test_homogeneous_iterate_degree_scaling():
    # F(t*x, t*z) = t**(d**level) * F(x, z): degree-d**level homogeneity
    f = poly_map(13, 3, 2, 5)
    for level in (0, 1, 2):
        weight = f.d**level
        for t in (2, 5, 7):
            for (x, z) in ((1, 1), (3, 4), (6, 0), (0, 2)):
                lhs = curves.homogeneous_iterate(f, t * x % 13, t * z % 13, level)
                rhs = pow(t, weight, 13) * curves.homogeneous_iterate(f, x, z, level) % 13
                assert lhs == rhs


def test_orientation_swap_identity():
    # swapping the edge orientation rescales the equation by -gamma**eta
    f = poly_map(13, 4, 3, 2)
    for level in (0, 1):
        for eta in (1, 2, 3):
            partner = (4 - eta) % 4
            scale = (-pow(f.gamma, eta, 13)) % 13
            for x in range(13):
                for y in range(13):
                    fwd = curves.phi_eval(f, PhiSpec(level, eta), x, y, 1)
                    back = curves.phi_eval(f, PhiSpec(level, partner), y, x, 1)
                    assert fwd == scale * back % 13


def test_count_curve_points_line():
    pts = curves.count_curve_points(F5, LINE)
    assert pts.total == 6  # a line has p + 1 points
    pts13 = curves.count_curve_points(F13, LINE)
    assert pts13.total == 14


def test_count_curve_points_conic():
    pts = curves.count_curve_points(F5, CONIC)
    assert (pts.affine_count, pts.infinity_count, pts.total) == (4, 2, 6)


def test_tree_and_completion_share_points():
    # a generating tree cuts out the same variety as its completion
    tree = IterGraph(k=3, r=0, d=2, edges={(1, 2): (0, 1), (1, 3): (-1, 0)})
    complete = graphs.maximal_extension(tree)
    assert complete.is_complete()
    for f in (F5, F13):
        assert (curves.count_curve_points(f, tree).all_points()
                == curves.count_curve_points(f, complete).all_points())


def test_count_cr_points():
    pts = curves.count_cr_points(F5, 1, 2)
    assert (pts.affine_count, pts.infinity_count, pts.total) == (9, 2, 11)
    diag = curves.count_cr_points(F5, 0, 2)
    assert diag.total == 6
    assert pts.infinity_count == math.gcd(4, 2) ** 1


def test_cr_affine_equals_moment():
    for f in (F5, F13, poly_map(7, 3, 1, 1)):
        for n in (0, 1, 2):
            for k in (1, 2, 3):
                pts = curves.count_cr_points(f, n, k)
                assert pts.affine_count == dynamics.moment_w(f, n, k)
                assert pts.infinity_count == math.gcd(f.p - 1, f.d**n) ** (k - 1)


def test_graph_points_inside_cr():
    for k in (2, 3):
        cr_points = curves.count_cr_points(F5, 1, k).all_points()
        for g in graphs.enumerate_complete_proper(0, k, 2):
            assert curves.count_curve_points(F5, g).all_points() <= cr_points


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
                    if curves.phi_eval(f, spec, coords[a - 1], coords[b - 1], z) != 0:
                        return False
                return True

            pts = curves.count_curve_points(f, g)
            affine, infinity = naive_points(f.p, k, satisfied)
            assert set(pts.affine) == affine
            assert set(pts.infinity) == infinity


def test_cr_points_match_naive_scan():
    # full point sets, including the lone (0, 0, ..., 1) point at infinity
    for f in (F5, poly_map(7, 3, 2, 4), poly_map(13, 4, 5, 2)):
        for N in (0, 1, 2):
            for k in (1, 2, 3):

                def satisfied(coords, z):
                    return len({curves.homogeneous_iterate(f, x, z, N) for x in coords}) == 1

                pts = curves.count_cr_points(f, N, k)
                affine, infinity = naive_points(f.p, k, satisfied)
                assert set(pts.affine) == affine, (f.p, N, k)
                assert set(pts.infinity) == infinity, (f.p, N, k)


def test_irreducibility_probe_matches_naive_scan():
    for f in (F5, F13, poly_map(13, 4, 5, 2), poly_map(7, 3, 2, 4)):
        for r in (0, 1, 2):
            for i in range(1, f.d):
                spec = PhiSpec(r, i)
                affine, infinity = naive_points(
                    f.p, 2, lambda xy, z: curves.phi_eval(f, spec, *xy, z) == 0
                )
                probe = curves.irreducibility_probe(f, r, i)
                assert probe.count == len(affine) + len(infinity), (f.p, f.d, r, i)


@pytest.mark.parametrize("p, d, N, k, A, C", [
    (13, 2, 2, 3, 3, 7), (37, 3, 1, 3, 2, 5), (29, 4, 1, 3, 5, 2), (13, 4, 2, 2, 3, 1),
    (61, 3, 2, 2, 7, 11), (101, 5, 1, 3, 4, 9), (41, 4, 2, 2, 2, 3), (17, 2, 2, 3, 1, 1),
    (97, 3, 1, 2, 5, 6), (31, 3, 2, 2, 1, 4),
])
def test_decomposition_matrix(p, d, N, k, A, C):
    report = curves.decomposition_check(poly_map(p, d, A, C), N, k)
    assert report.union_equals_cr and report.affine_equals_w
    # at x0 = 0 the first coordinate is 1 and the rest solve x**(d**N) = 1
    assert report.direct_infinity_count == math.gcd(p - 1, d**N) ** (k - 1)


def test_decomposition_depth_zero():
    # single level -1 graph; the union is the diagonal with p + 1 points
    report = curves.decomposition_check(F5, 0, 2)
    assert report.union_total == 6 == report.cr_total
    assert report.union_equals_cr


def test_weil_check():
    assert curves.weil_check(F5, LINE, 2, 1).deviation == 0
    assert curves.weil_check(F5, CONIC, 2, 1).deviation == 0
    # plane cubics stay within the genus-1 window
    for p in (7, 13):
        f = poly_map(p, 3, 1, 1)
        cubic = IterGraph(k=2, r=1, d=3, edges={(1, 2): (1, 1)})
        report = curves.weil_check(f, cubic, 2, 1)
        assert report.deviation <= 2
        assert report.ok


def test_intersection_check():
    report = curves.intersection_check(F5, LINE, TWISTED_LINE, 2, 1)
    assert report.common == 1
    assert report.sets_differ and report.ok
    pts1 = curves.count_curve_points(F5, LINE).all_points()
    pts2 = curves.count_curve_points(F5, TWISTED_LINE).all_points()
    assert pts1 & pts2 == {(1, 0, 0)}
    with pytest.raises(ValueError):
        curves.intersection_check(F5, LINE, LINE, 2, 1)


def test_pairwise_intersections_within_bound():
    for f, n in ((F5, 1), (F13, 1), (F5, 2)):
        graph_list = graphs.enumerate_complete_proper(n - 1, 2, 2)
        for i, g1 in enumerate(graph_list):
            for g2 in graph_list[i + 1:]:
                report = curves.intersection_check(f, g1, g2, 2, n)
                assert report.ok and report.sets_differ


def test_irreducibility_probe():
    line_probe = curves.irreducibility_probe(F5, 0, 1)
    assert line_probe.count == 6 and line_probe.verdict == "CONSISTENT"
    conic_probe = curves.irreducibility_probe(F5, 1, 1)
    assert conic_probe.count == 6 and conic_probe.verdict == "CONSISTENT"
    # precondition fails at depth 3 for x^2+1 mod 5 but the probe still runs
    late = curves.irreducibility_probe(F5, 3, 1)
    assert late.verdict in ("CONSISTENT", "SUSPICIOUS")


def iterate(f, x, times):
    for _ in range(times):
        x = dynamics.eval_map(f, x)
    return x


def solution_graph(f, xs, N):
    """Label a tuple with equal N-th iterates: level -1 for equal entries,
    otherwise the first level where the iterates differ by a root power."""
    k = len(xs)
    g = IterGraph(k=k, r=N - 1, d=f.d)
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
                    if fa == pow(f.gamma, h, f.p) * fb % f.p:
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
                            rhs = rhs * curves.phi_eval(f, PhiSpec(level, h), x, y, 1) % p
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
            assert graphs.validate_graph(g)
            assert g.is_complete()
            assert graphs.is_proper(g)
            assert g.canonical() in enumerated
            seen.add(g.canonical())
            assert (1, *xs) in curves.count_curve_points(f, g).affine
        assert seen  # the level/twist labeling really fires


def test_budget_guards():
    f_large = poly_map(223, 2, 1, 1)
    with pytest.raises(BudgetError):
        curves.count_curve_points(f_large, LINE)
    with pytest.raises(BudgetError):
        curves.count_cr_points(f_large, 1, 2)
    f3 = poly_map(103, 2, 1, 1)
    with pytest.raises(BudgetError):
        curves.count_cr_points(f3, 1, 3)
    with pytest.raises(BudgetError):
        curves.count_cr_points(F5, 1, 4)


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
        curves.homogeneous_iterate(f, x, 0, level) for x in range(f.p)
    ]
