"""Reference paths shared by the test modules and the CI steps."""

import csv
import io
import json

import numpy as np

from polyiter import curves, dynamics
from polyiter.field import FieldParams
from polyiter.graphs import IterGraph
from polyiter.report import _cell, _ratio


def eval_map(f: FieldParams, x: int) -> int:
    """f(x) = A*x^d + C at one point, by the builtin pow."""
    return (f.A * pow(x % f.p, f.d, f.p) + f.C) % f.p


def brent_orbit(f: FieldParams) -> tuple[int, int]:
    """(tail, cycle length) of the orbit of 0 by Brent's cycle finder (BIT 20,
    1980), stepping f itself in constant memory: power-of-two teleports of
    the tortoise find the period, then a synchronized scan finds the tail."""
    power = lam = 1
    tortoise, hare = 0, eval_map(f, 0)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = eval_map(f, hare)
        lam += 1
    tortoise = hare = 0
    for _ in range(lam):
        hare = eval_map(f, hare)
    mu = 0
    while tortoise != hare:
        tortoise, hare = eval_map(f, tortoise), eval_map(f, hare)
        mu += 1
    return mu, lam


def image_graph(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image, g) for any successor table: its image in ascending order,
    read off a hit mask, and the graph g the table induces on it, labelled
    0..m-1 by position in image through a rank array."""
    hit = np.zeros(len(table), dtype=bool)
    hit[table] = True
    image = np.flatnonzero(hit)
    rank = np.empty(len(table), dtype=np.int64)
    rank[image] = np.arange(len(image))
    return image, rank[table[image]]


def stats_from_table(table: np.ndarray) -> dynamics.GraphStats:
    """Decompose a functional graph given its successor table, assuming
    nothing of it, by the doubling of dynamics._graph_stats on the graph
    image_graph induces on its image.  The in-degree-0 vertices are those off
    the image, each one step farther out than its successor: with outside[l]
    the predecessors of label l off the image, its in-degree in the table
    less its in-degree in g, their tails sum to outside @ dist + n - m1.  A
    label farthest out is cyclic or has all of its predecessors off the
    image, so the longest tail is dist.max() + 1 when any vertex is off it."""
    image, g = image_graph(table)
    n, m1 = len(table), len(g)
    outside = np.bincount(table, minlength=n)[image] - np.bincount(g, minlength=m1)
    num_cycles, m, dist = dynamics._graph_stats(g)
    return dynamics.GraphStats(
        num_cycles=num_cycles,
        sum_cycle_lengths=m,
        sum_precyclic_path_lengths=int(outside @ dist) + n - m1,
        max_tail=int(dist.max()) + 1 if n > m1 else 0,
    )


def render_csv(records: list[tuple], fieldnames: list[str]) -> str:
    """The CSV text of rows, a row at a time with every cell through
    report._cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for rec in records:
        writer.writerow([_cell(value) for value in rec])
    return buf.getvalue()


def render_json(records: list[tuple], fieldnames: list[str], metadata: dict | None) -> str:
    """The JSON text of rows, the whole payload by json.dumps with indent=2,
    CPython's pure-Python encoder."""
    payload = {
        "metadata": metadata or {},
        "records": [dict(zip(fieldnames, rec, strict=True)) for rec in records],
    }
    return json.dumps(payload, indent=2, default=_ratio) + "\n"


def chart_masks(f: FieldParams, k: int, equations: list) -> tuple[np.ndarray, np.ndarray]:
    """The full-grid oracle: (affine, infinity), the whole chart masks of one
    system's point set, each chart walked by curves._scan as one slab.

    affine is the x0 = 1 grid, shape (p,)*k, cell x the point (1, *x).
    infinity holds the x0 = 0 points whose first nonzero coordinate is 1 as
    one flat mask: the slices grid[0, ..., 0, 1] with lead = 1..k indices
    (p**(k-lead) cells each), raveled and concatenated in lead order.
    """
    p = f.p
    curves._check_budget(p, k, 1)
    slabs = {False: [], True: []}
    for at_infinity, grids in curves._scan(f, k, [equations], p**k):
        slabs[at_infinity].append(next(grids).ravel())
    return np.concatenate(slabs[False]).reshape((p,) * k), np.concatenate(slabs[True])


def graph_masks(f: FieldParams, g: IterGraph) -> tuple[np.ndarray, np.ndarray]:
    return chart_masks(f, g.k, curves._graph_equations(g))


def cr_masks(f: FieldParams, N: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    return chart_masks(f, k, curves._cr_equations(N, k))
