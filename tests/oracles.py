"""Reference paths shared by the test modules and the CI steps."""

import numpy as np

from polyiter import dynamics
from polyiter.field import FieldParams


def eval_map(f: FieldParams, x: int) -> int:
    """f(x) = A*x^d + C at one point, by the builtin pow."""
    return (f.A * pow(x % f.p, f.d, f.p) + f.C) % f.p


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
    nothing of it, on the graph image_graph induces on its image: a label's
    predecessors off the image are its in-degree in the table less its
    in-degree in g."""
    image, g = image_graph(table)
    outside = np.bincount(table, minlength=len(table))[image] - np.bincount(g, minlength=len(g))
    return dynamics._graph_stats(g, outside, len(table))
