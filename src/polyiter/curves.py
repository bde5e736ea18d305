"""Brute-force point counts on the projective varieties cut out by iterate
equations.  One kernel serves every count: a chart grid is the AND of the
equations broadcast over whole-domain iterate tables, taken at per-axis
index arrays.  The x0 = 1 chart is the full (p,)*k grid; on x0 = 0 only the
slices whose first nonzero coordinate is 1 are built.  A point set is its
chart masks, so union is OR, intersection is AND and counts are
count_nonzero.  Exactness over cleverness; budget guards keep the grids at
desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _map_table, apply_map_to_domain, moment_w
from .errors import BudgetError
from .field import FieldParams, primitive_dth_root
from .graphs import IterGraph, enumerate_complete_proper

# Largest prime per tuple size; beyond this the chart scans stop being desk scale.
MAX_P_BY_K = {1: 211, 2: 211, 3: 101}


@dataclass(frozen=True, eq=False)
class ProjectivePointSet:
    """A projective point set held as its two chart masks.

    affine: the x0 = 1 grid, shape (p,)*k; cell x is the point (1, *x).
    infinity: the x0 = 0 points whose first nonzero coordinate is 1, as one
    flat mask: the slices grid[0, ..., 0, 1] with lead = 1..k indices
    (p**(k-lead) cells each), raveled and concatenated in lead order.

    Union is an in-place OR (|=), intersection is AND (&), equality is
    array_equal and counts are count_nonzero.
    """

    affine: np.ndarray
    infinity: np.ndarray

    @property
    def affine_count(self) -> int:
        return int(np.count_nonzero(self.affine))

    @property
    def infinity_count(self) -> int:
        return int(np.count_nonzero(self.infinity))

    @property
    def total(self) -> int:
        return self.affine_count + self.infinity_count

    def __and__(self, other: ProjectivePointSet) -> ProjectivePointSet:
        return ProjectivePointSet(self.affine & other.affine, self.infinity & other.infinity)

    def __ior__(self, other: ProjectivePointSet) -> ProjectivePointSet:
        np.logical_or(self.affine, other.affine, out=self.affine)
        np.logical_or(self.infinity, other.infinity, out=self.infinity)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectivePointSet):
            return NotImplemented
        return bool(
            np.array_equal(self.affine, other.affine)
            and np.array_equal(self.infinity, other.infinity)
        )


@dataclass(frozen=True)
class WeilReport:
    total: int
    deviation: float
    bound: int

    @property
    def ok(self) -> bool:
        return self.deviation <= self.bound


@dataclass(frozen=True)
class IntersectionReport:
    common: int
    bound: int
    sets_differ: bool

    @property
    def ok(self) -> bool:
        return self.common <= self.bound


@dataclass(frozen=True)
class DecompositionReport:
    p: int
    d: int
    N: int
    k: int
    union_total: int
    cr_total: int
    cr_affine: int
    w_value: int
    formula_infinity_term: int
    direct_infinity_count: int
    union_equals_cr: bool
    affine_equals_w: bool


def _iterate_table(f: FieldParams, level: int, at_infinity: bool) -> np.ndarray:
    """x -> F^level(x, 1) (affine) or F^level(x, 0) (infinity) for all x.

    At infinity the constant term drops out: F^L(x, 0) = A**((d**L - 1)/(d - 1))
    * x**(d**L).  The exponent is reduced to (d**L - 1) mod (p - 1) + 1, which
    is congruent to d**L mod p - 1 and at least 1, so 0 still maps to 0 and
    level 0 is the identity.
    """
    if not at_infinity:
        return apply_map_to_domain(f, level)
    p, d = f.p, f.d
    scale = pow(f.A, (d**level - 1) // (d - 1), p)
    return _map_table(p, (d**level - 1) % (p - 1) + 1, scale, 0)


def _check_budget(p: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"point counting needs k >= 1, got k={k}")
    if k not in MAX_P_BY_K:
        raise BudgetError(f"point counting supports k <= 3, got k={k}")
    if p > MAX_P_BY_K[k]:
        raise BudgetError(f"p={p} exceeds point-counting budget {MAX_P_BY_K[k]} for k={k}")


def _chart(
    p: int, gamma: int, equations: list[tuple[int, int, int, int]],
    tables: dict[int, np.ndarray], axes: list[np.ndarray],
) -> np.ndarray:
    """Boolean grid over the coordinates axes[0] x ... x axes[k-1] (index
    arrays): the AND of every equation's level table, taken at the indices
    of its two axes and broadcast onto them, the b side scaled by
    gamma**twist mod p."""
    k = len(axes)
    grid = np.ones([len(axis) for axis in axes], dtype=bool)
    for a, b, level, twist in equations:
        tab = tables[level]
        cond = np.equal.outer(tab[axes[a - 1]], pow(gamma, twist, p) * tab[axes[b - 1]] % p)
        # a C-order reshape inserts the singleton axes around a-1 < b-1
        shape = [1] * k
        shape[a - 1], shape[b - 1] = cond.shape
        grid &= cond.reshape(shape)
    return grid


def _variety(
    f: FieldParams, k: int, equations: list[tuple[int, int, int, int]]
) -> ProjectivePointSet:
    """Exact projective point set of the system F^level(x_a) = gamma**twist *
    F^level(x_b), one (a, b, level, twist) tuple with a < b per equation,
    gamma the fixed primitive d-th root of unity, primitive_dth_root(p, d).

    The affine mask is the x0 = 1 chart over every coordinate.  On x0 = 0
    only the points whose first nonzero coordinate is the 1 at position lead
    are built: coordinates 0 before lead, 1 at lead and any after it, a
    grid of p**(k-lead) cells per lead.
    """
    p = f.p
    _check_budget(p, k)
    gamma = primitive_dth_root(p, f.d)
    levels = {level for _, _, level, _ in equations}
    affine = {level: _iterate_table(f, level, False) for level in levels}
    infinity = {level: _iterate_table(f, level, True) for level in levels}
    every, zero, one = np.arange(p), np.array([0]), np.array([1])
    return ProjectivePointSet(
        affine=_chart(p, gamma, equations, affine, [every] * k),
        infinity=np.concatenate([
            _chart(p, gamma, equations, infinity,
                   [zero] * (lead - 1) + [one] + [every] * (k - lead)).ravel()
            for lead in range(1, k + 1)
        ]),
    )


def count_curve_points(f: FieldParams, g: IterGraph) -> ProjectivePointSet:
    """Exact projective point set of the variety attached to a labeled graph.
    A level -1 edge (x_a = x_b) is the level-0 equation with twist 0."""
    if g.d != f.d:
        raise ValueError(f"graph has d={g.d}, map has d={f.d}")
    equations = []
    for a, b in g.edge_pairs():
        xi = g.xi(a, b)
        equations.append((a, b, 0, 0) if xi == -1 else (a, b, xi, g.eta(a, b)))
    return _variety(f, g.k, equations)


def count_cr_points(f: FieldParams, N: int, k: int) -> ProjectivePointSet:
    """Exact projective point set of the equal-N-th-iterates system."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    return _variety(f, k, [(1, b, N, 0) for b in range(2, k + 1)])


def decomposition_check(f: FieldParams, N: int, k: int) -> DecompositionReport:
    """Union of the graph varieties vs the equal-iterates variety.

    Asserted: the union is exactly the big variety, and its affine part is
    the k-th moment.  The closed-form infinity term (p-1)*gcd(p-1, d**N)**(k-2)
    is reported next to the directly counted one without being asserted.
    The direct count is gcd(p-1, d**N)**(k-1): at x0 = 0 the system reads
    x_1**(d**N) = ... = x_k**(d**N), which forces x_1 = 1 after normalizing,
    and each other x_i is a root of x**(d**N) = 1.
    """
    if N < 0:
        raise ValueError("decomposition needs N >= 0 (graphs live at level N-1)")
    first, *rest = enumerate_complete_proper(N - 1, k, f.d)
    # a running in-place OR: one pair of masks, never one per graph
    union = count_curve_points(f, first)
    for g in rest:
        union |= count_curve_points(f, g)
    cr = count_cr_points(f, N, k)
    w = moment_w(f, N, k)
    gcd_val = math.gcd(f.p - 1, f.d**N)
    formula_term = (f.p - 1) * gcd_val ** (k - 2) if k >= 2 else 0
    return DecompositionReport(
        p=f.p,
        d=f.d,
        N=N,
        k=k,
        union_total=union.total,
        cr_total=cr.total,
        cr_affine=cr.affine_count,
        w_value=w,
        formula_infinity_term=formula_term,
        direct_infinity_count=cr.infinity_count,
        union_equals_cr=union == cr,
        affine_equals_w=cr.affine_count == w,
    )


def weil_check(f: FieldParams, g: IterGraph, k: int, N: int) -> WeilReport:
    """Deviation of the point count from p + 1, in units of sqrt(p)."""
    if g.k != k:
        raise ValueError(f"graph has k={g.k}, expected k={k}")
    pts = count_curve_points(f, g)
    deviation = abs(pts.total - (f.p + 1)) / math.sqrt(f.p)
    return WeilReport(total=pts.total, deviation=deviation, bound=f.d ** (2 * k * N))


def intersection_check(
    f: FieldParams, g1: IterGraph, g2: IterGraph, k: int, N: int
) -> IntersectionReport:
    """Common points of two distinct graph varieties, with the Bezout-style
    bound, plus a distinctness witness for the full point sets."""
    if not g1.k == g2.k == k:
        raise ValueError(f"graphs have k={g1.k} and k={g2.k}, expected k={k}")
    if g1 == g2:
        raise ValueError("intersection check needs two distinct graphs")
    pts1 = count_curve_points(f, g1)
    pts2 = count_curve_points(f, g2)
    sets_differ = pts1 != pts2 if (pts1.total and pts2.total) else True
    return IntersectionReport(
        common=(pts1 & pts2).total,
        bound=f.d ** (2 * k * N),
        sets_differ=sets_differ,
    )
