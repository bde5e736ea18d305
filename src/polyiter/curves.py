"""Brute-force point counts on the projective varieties cut out by iterate
equations.  One kernel serves every count: a chart grid is the AND of the
equations' masks, each an outer comparison of whole-domain iterate tables
taken at the chart's index arrays on its two axes.  The x0 = 1 chart is the
full (p,)*k grid; on x0 = 0 only the slices whose first nonzero coordinate is
1 are built.  One driver walks the charts a slab of rows at a time for any
number of systems at once, so no count holds a grid, only a slab: the
decomposition check ORs a slab's graph grids and compares them with C_N's,
and the count walk sums each system's cells and each pair's common cells.
Exactness over cleverness; one byte budget keeps the walks at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dynamics import _map_table, apply_map_to_domain, moment_w
from .errors import BudgetError
from .field import FieldParams, primitive_dth_root
from .graphs import IterGraph, enumerate_complete_proper

# Bytes a walk over n systems may charge: one per grid cell it builds, n * (p**k
# + (p**k - 1)/(p - 1)), plus 16 * n**2 for the count walk's two int64 n x n pair
# matrices.  The largest walk the tests, verify and perfbench run charges 1.36e8.
CHART_BYTE_CAP = 1 << 28

# Cells of all systems' grids in one slab of a chart walk, rounded down to
# whole rows and at least one row.
SLAB_CELLS = 1 << 16


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


def _check_budget(p: int, k: int, n: int) -> None:
    """Refuse a walk over n systems past CHART_BYTE_CAP before it builds
    anything; it charges at least p**k >= 2**k, so a large k never forms p**k."""
    if k < 1:
        raise ValueError(f"point counting needs k >= 1, got k={k}")
    if k >= CHART_BYTE_CAP.bit_length():
        raise BudgetError(f"chart walk at k={k} charges at least 2**k bytes, cap {CHART_BYTE_CAP}")
    charged = n * (p**k + (p**k - 1) // (p - 1)) + 16 * n * n
    if charged > CHART_BYTE_CAP:
        raise BudgetError(f"chart walk of {n} systems at p={p}, k={k} charges {charged} bytes, "
                          f"cap {CHART_BYTE_CAP}")


def _chart(
    masks: list[np.ndarray], equations: list[tuple[int, int, int, int]],
    shape: list[int], s: int, cut: slice,
) -> np.ndarray:
    """Boolean grid over one slab of a chart, `shape` with axis s cut to the
    rows `cut`: the AND of every equation's chart mask (masks[i], over the
    chart's indices on the equation's two axes), its axis-s rows cut, broadcast
    onto the slab."""
    k = len(shape)
    grid = np.ones(shape, dtype=bool)
    for (a, b, _, _), cond in zip(equations, masks):
        if a - 1 == s:
            cond = cond[cut]
        elif b - 1 == s:
            cond = cond[:, cut]
        # a C-order reshape inserts the singleton axes around a-1 < b-1
        view = [1] * k
        view[a - 1], view[b - 1] = cond.shape
        grid &= cond.reshape(view)
    return grid


def _scan(f: FieldParams, k: int, systems: list[list[tuple[int, int, int, int]]], cells: int):
    """Walk the charts of several systems' point sets together, a slab at a
    time; the caller checks the budget first.

    A system lists equations F^level(x_a) = gamma**twist * F^level(x_b) as
    (a, b, level, twist) tuples, a < b, gamma = primitive_dth_root(p, d).
    gamma and the iterate tables are found once per call.  The charts are
    the x0 = 1 grid and, per lead, the x0 = 0 points whose first nonzero
    coordinate is the 1 at position lead (0 before it, any value after it).
    A slab is whole rows of a chart's first axis of more than one index, at
    most `cells` cells or one row.

    Yields (at_infinity, grids) per slab, the affine grid's slabs first and
    then the infinity slices' in lead order, grids each system's grid over
    the slab, built on demand and read before the next slab.  An equation's
    mask is built once per chart and dropped in the chart's last slab once
    the last system that reads it has read it.
    """
    p = f.p
    gamma = primitive_dth_root(p, f.d)
    levels = {level for system in systems for _, _, level, _ in system}
    tables = {at_infinity: {level: _iterate_table(f, level, at_infinity) for level in levels}
              for at_infinity in (False, True)}
    last_reader = {eq: i for i, system in enumerate(systems) for eq in system}
    every, zero, one = np.arange(p), np.array([0]), np.array([1])

    def grids(tab, axes, masks, shape, s, cut, final):
        for i, system in enumerate(systems):
            conds = []
            for eq in system:
                cond = masks.get(eq)
                if cond is None:
                    a, b, level, twist = eq
                    cond = masks[eq] = np.equal.outer(
                        tab[level][axes[a - 1]],
                        pow(gamma, twist, p) * tab[level][axes[b - 1]] % p)
                if final and last_reader[eq] == i:
                    del masks[eq]
                conds.append(cond)
            yield _chart(conds, system, shape, s, cut)

    for lead in range(k + 1):
        axes = [every] * k if lead == 0 else [zero] * (lead - 1) + [one] + [every] * (k - lead)
        s = min(lead, k - 1)
        rows, masks = max(1, cells // p ** (k - 1 - s)), {}
        n = len(axes[s])
        for lo in range(0, n, rows):
            cut = slice(lo, min(lo + rows, n))
            shape = [len(axis) for axis in axes]
            shape[s] = cut.stop - lo
            yield lead > 0, grids(tables[lead > 0], axes, masks, shape, s, cut, cut.stop == n)


def _graph_equations(g: IterGraph) -> list[tuple[int, int, int, int]]:
    """A level -1 edge (x_a = x_b) is the level-0 equation with twist 0,
    since level 0 is the identity on both charts."""
    equations = []
    for a, b in g.edge_pairs():
        xi = g.xi(a, b)
        equations.append((a, b, 0, 0) if xi == -1 else (a, b, xi, g.eta(a, b)))
    return equations


def _cr_equations(N: int, k: int) -> list[tuple[int, int, int, int]]:
    return [(1, b, N, 0) for b in range(2, k + 1)]


def _count(
    f: FieldParams, k: int, systems: list[list[tuple[int, int, int, int]]]
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Each system's (affine, infinity) count and each pair's common count,
    in one walk whose slab holds every system's grid in SLAB_CELLS cells.

    A cell on two varieties is covered by two grids, so each pair's common
    cells are among the few that more than one grid covers; common is the
    product of the systems' membership at those cells, its diagonal each
    system's total.
    """
    n = len(systems)
    _check_budget(f.p, k, n)
    counts = np.zeros((n, 2), dtype=np.int64)
    common = np.zeros((n, n), dtype=np.int64)
    for at_infinity, grids in _scan(f, k, systems, SLAB_CELLS // n):
        held = [grid.ravel() for grid in grids]
        cover = np.zeros(held[0].size, dtype=np.min_scalar_type(n))
        for grid in held:
            cover += grid
        shared = np.flatnonzero(cover > 1)
        member = np.array([grid[shared] for grid in held], dtype=np.int64)
        counts[:, int(at_infinity)] += [np.count_nonzero(grid) for grid in held]
        common += member @ member.T
    np.fill_diagonal(common, counts.sum(axis=1))
    return [(int(affine), int(infinity)) for affine, infinity in counts], common


def graph_counts(
    f: FieldParams, graph_list: list[IterGraph]
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """(counts, common) over the varieties of graphs of one k: counts[i] is
    graph i's (affine, infinity) point count and common[i, j] the number of
    points on both graph i's and graph j's variety.  Two point sets are equal
    exactly when 0 < common[i, j] == common[i, i] == common[j, j]."""
    for g in graph_list:
        if g.d != f.d:
            raise ValueError(f"graph has d={g.d}, map has d={f.d}")
        if g.k != graph_list[0].k:
            raise ValueError(f"graph has k={g.k}, expected k={graph_list[0].k}")
    return _count(f, graph_list[0].k, [_graph_equations(g) for g in graph_list])


def count_curve_points(f: FieldParams, g: IterGraph) -> tuple[int, int]:
    """(affine, infinity) point count of the variety attached to a labeled graph."""
    return graph_counts(f, [g])[0][0]


def count_cr_points(f: FieldParams, N: int, k: int) -> tuple[int, int]:
    """(affine, infinity) point count of the equal-N-th-iterates system."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    _check_budget(f.p, k, 1)  # before the k - 1 equations are built
    return _count(f, k, [_cr_equations(N, k)])[0][0]


def decomposition_check(f: FieldParams, N: int, k: int) -> DecompositionReport:
    """Union of the graph varieties vs the equal-iterates variety.

    Asserted: the union is exactly the big variety, and its affine part is
    the k-th moment.  The closed-form infinity term (p-1)*gcd(p-1, d**N)**(k-2)
    is reported next to the directly counted one without being asserted.
    The direct count is gcd(p-1, d**N)**(k-1): at x0 = 0 the system reads
    x_1**(d**N) = ... = x_k**(d**N), which forces x_1 = 1 after normalizing,
    and each other x_i is a root of x**(d**N) = 1.

    One walk over the charts serves every variety: per slab the graph grids
    are OR'd into the union, which is compared with C_N's grid and counted,
    so nothing outlives its slab.
    """
    if N < 0:
        raise ValueError("decomposition needs N >= 0 (graphs live at level N-1)")
    _check_budget(f.p, k, 1)  # C_N's walk alone, before any graph is enumerated
    systems = [_graph_equations(g) for g in enumerate_complete_proper(N - 1, k, f.d)]
    _check_budget(f.p, k, len(systems) + 1)
    union_total, cr_counts, union_equals_cr = 0, [0, 0], True
    # C_N's grid is built last, after the union's, so a slab holds three grids
    for at_infinity, grids in _scan(f, k, [*systems, _cr_equations(N, k)], SLAB_CELLS):
        union = next(grids)
        for grid in islice(grids, len(systems) - 1):
            union |= grid
        cr = next(grids)
        union_total += int(np.count_nonzero(union))
        cr_counts[at_infinity] += int(np.count_nonzero(cr))
        union_equals_cr = union_equals_cr and bool(np.array_equal(union, cr))
    cr_affine, cr_infinity = cr_counts
    w = moment_w(f, N, k)
    gcd_val = math.gcd(f.p - 1, f.d**N)
    formula_term = (f.p - 1) * gcd_val ** (k - 2) if k >= 2 else 0
    return DecompositionReport(
        p=f.p,
        d=f.d,
        N=N,
        k=k,
        union_total=union_total,
        cr_total=cr_affine + cr_infinity,
        cr_affine=cr_affine,
        w_value=w,
        formula_infinity_term=formula_term,
        direct_infinity_count=cr_infinity,
        union_equals_cr=union_equals_cr,
        affine_equals_w=cr_affine == w,
    )


def weil_deviation(p: int, total: int) -> float:
    """Deviation of a point count from p + 1, in units of sqrt(p)."""
    return abs(total - (p + 1)) / math.sqrt(p)
