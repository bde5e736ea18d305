"""Brute-force point counts on the projective varieties cut out by iterate
equations.  One kernel serves every count: each chart (x0 = 1 and x0 = 0) is
a single (p,)*k boolean grid, the AND of the equations broadcast over
whole-domain iterate tables, and the points at infinity are read off slices
whose first nonzero coordinate is 1.  Exactness over cleverness; budget
guards keep the grids at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _power_table, apply_map_to_domain, moment_w
from .errors import BudgetError
from .field import FieldParams
from .graphs import IterGraph, enumerate_complete_proper

# Largest prime per tuple size; beyond this the chart scans stop being desk scale.
MAX_P_BY_K = {1: 211, 2: 211, 3: 101}


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


@dataclass(frozen=True)
class ProjectivePointSet:
    affine: frozenset[tuple[int, ...]]
    infinity: frozenset[tuple[int, ...]]

    @property
    def affine_count(self) -> int:
        return len(self.affine)

    @property
    def infinity_count(self) -> int:
        return len(self.infinity)

    @property
    def total(self) -> int:
        return self.affine_count + self.infinity_count

    def all_points(self) -> frozenset[tuple[int, ...]]:
        return self.affine | self.infinity


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


@dataclass(frozen=True)
class ProbeReport:
    count: int
    deviation: float
    bound: float
    verdict: str  # CONSISTENT or SUSPICIOUS


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
    return (fx - pow(f.gamma, spec.twist, p) * fy) % p


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
    return scale * _power_table(p, (d**level - 1) % (p - 1) + 1) % p


def _check_budget(p: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"point counting needs k >= 1, got k={k}")
    if k not in MAX_P_BY_K:
        raise BudgetError(f"point counting supports k <= 3, got k={k}")
    if p > MAX_P_BY_K[k]:
        raise BudgetError(f"p={p} exceeds point-counting budget {MAX_P_BY_K[k]} for k={k}")


def _variety(
    f: FieldParams, k: int, equations: list[tuple[int, int, int, int]]
) -> ProjectivePointSet:
    """Exact projective point set of the system F^level(x_a) = gamma**twist *
    F^level(x_b), one (a, b, level, twist) tuple with a < b per equation.

    Each chart is one (p,)*k boolean grid: the AND of every equation's table,
    broadcast onto its two axes.  The affine points are the x0 = 1 grid.  On
    x0 = 0 the points whose first nonzero coordinate is the 1 at position
    lead are the slice grid[0, ..., 0, 1] (lead indices; 0-d when lead == k).
    """
    p = f.p
    _check_budget(p, k)
    grids = []
    for at_infinity in (False, True):
        tables = {
            level: _iterate_table(f, level, at_infinity)
            for level in {level for _, _, level, _ in equations}
        }
        grid = np.ones((p,) * k, dtype=bool)
        for a, b, level, twist in equations:
            tab = tables[level]
            cond = np.equal.outer(tab, pow(f.gamma, twist, p) * tab % p)
            # a C-order reshape inserts the singleton axes around a-1 < b-1
            shape = [1] * k
            shape[a - 1] = shape[b - 1] = p
            grid &= cond.reshape(shape)
        grids.append(grid)
    affine, infinity = grids
    leads = [(0,) * (lead - 1) + (1,) for lead in range(1, k + 1)]
    return ProjectivePointSet(
        affine=frozenset((1, *map(int, x)) for x in np.argwhere(affine)),
        infinity=frozenset(
            (0, *head, *map(int, x)) for head in leads for x in np.argwhere(infinity[head])
        ),
    )


def count_curve_points(f: FieldParams, g: IterGraph) -> ProjectivePointSet:
    """Exact projective point set of the variety attached to a labeled graph.
    A level -1 edge (x_a = x_b) is the level-0 equation with twist 0."""
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


def decomposition_check(
    f: FieldParams, N: int, k: int, enum_cap: int | None = None
) -> DecompositionReport:
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
    kwargs = {} if enum_cap is None else {"cap": enum_cap}
    graph_list = enumerate_complete_proper(N - 1, k, f.d, **kwargs)
    union: set[tuple[int, ...]] = set()
    for g in graph_list:
        union |= count_curve_points(f, g).all_points()
    cr = count_cr_points(f, N, k)
    w = moment_w(f, N, k)
    gcd_val = math.gcd(f.p - 1, f.d**N)
    formula_term = (f.p - 1) * gcd_val ** (k - 2) if k >= 2 else 0
    return DecompositionReport(
        p=f.p,
        d=f.d,
        N=N,
        k=k,
        union_total=len(union),
        cr_total=cr.total,
        cr_affine=cr.affine_count,
        w_value=w,
        formula_infinity_term=formula_term,
        direct_infinity_count=cr.infinity_count,
        union_equals_cr=union == set(cr.all_points()),
        affine_equals_w=cr.affine_count == w,
    )


def weil_check(f: FieldParams, g: IterGraph, k: int, N: int) -> WeilReport:
    """Deviation of the point count from p + 1, in units of sqrt(p)."""
    pts = count_curve_points(f, g)
    deviation = abs(pts.total - (f.p + 1)) / math.sqrt(f.p)
    return WeilReport(total=pts.total, deviation=deviation, bound=f.d ** (2 * k * N))


def intersection_check(
    f: FieldParams, g1: IterGraph, g2: IterGraph, k: int, N: int
) -> IntersectionReport:
    """Common points of two distinct graph varieties, with the Bezout-style
    bound, plus a distinctness witness for the full point sets."""
    if g1 == g2:
        raise ValueError("intersection check needs two distinct graphs")
    pts1 = count_curve_points(f, g1).all_points()
    pts2 = count_curve_points(f, g2).all_points()
    sets_differ = pts1 != pts2 if (pts1 and pts2) else True
    return IntersectionReport(
        common=len(pts1 & pts2),
        bound=f.d ** (2 * k * N),
        sets_differ=sets_differ,
    )


def irreducibility_probe(f: FieldParams, r: int, i: int) -> ProbeReport:
    """Point count of one twisted-difference plane curve against the genus
    bound for an irreducible curve of its degree.  Evidence, not proof."""
    if r < 0:
        raise ValueError("probe level must be nonnegative")
    p = f.p
    _check_budget(p, 2)  # refuse an over-budget p before judging the twist
    PhiSpec(level=r, twist=i).check(f.d)
    count = _variety(f, 2, [(1, 2, r, i)]).total
    degree = f.d**r
    bound = (degree - 1) * (degree - 2) * math.sqrt(p)
    deviation = abs(count - (p + 1))
    verdict = "CONSISTENT" if deviation <= bound else "SUSPICIOUS"
    return ProbeReport(count=count, deviation=deviation, bound=bound, verdict=verdict)
