"""Labeled graphs recording how tuple coordinates collide under iteration.

Vertices are 1..k.  An edge {a,b} carries a shared level xi in [-1, r] and a
directed twist eta: xi = -1 means the coordinates are equal (eta 0 both
ways); xi >= 0 means the xi-th iterates differ by a power of the fixed
d-th root of unity, with eta(a,b) + eta(b,a) divisible by d.  Only the
a < b twist is stored; the partner value is derived, which makes the
antisymmetry rule unviolable by construction.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .errors import BudgetError
from .recur import check_degree_level

# Hard cap on raw label assignments per enumeration call.
ENUMERATION_CAP = 10**7

# (a, b) with a < b  ->  (xi, eta(a, b))
Labels = dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class IterGraph:
    k: int
    r: int
    d: int
    edges: Labels = field(default_factory=dict)

    def xi(self, a: int, b: int) -> int:
        return _xi(self.edges, a, b)

    def eta(self, a: int, b: int) -> int:
        """Directed twist on the ordered pair (a, b)."""
        return _eta(self.edges, self.d, a, b)

    def with_edge(self, a: int, b: int, xi: int, eta_ab: int) -> "IterGraph":
        """New graph with edge {a,b} added, eta_ab read in the a->b direction."""
        key = (min(a, b), max(a, b))
        if key in self.edges:
            raise ValueError(f"edge {key} already present")
        if xi == -1:
            stored = 0
        elif a < b:
            stored = eta_ab % self.d
        else:
            stored = (self.d - eta_ab) % self.d
        new_edges = dict(self.edges)
        new_edges[key] = (xi, stored)
        return IterGraph(k=self.k, r=self.r, d=self.d, edges=new_edges)

    def edge_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == self.k * (self.k - 1) // 2

    def canonical(self) -> str:
        parts = [f"{self.k} {self.r} {self.d}"]
        for (a, b), (xi, eta) in sorted(self.edges.items()):
            parts.append(f"{a}-{b}:{xi},{eta}")
        return "; ".join(parts)

    def __hash__(self) -> int:
        return hash(self.canonical())


def parse_canonical(text: str) -> IterGraph:
    """Inverse of IterGraph.canonical()."""
    head, *edge_parts = [part.strip() for part in text.split(";")]
    k, r, d = (int(tok) for tok in head.split())
    g = IterGraph(k=k, r=r, d=d)
    for part in edge_parts:
        if not part:
            continue
        pair, labels = part.split(":")
        a, b = (int(tok) for tok in pair.split("-"))
        xi, eta = (int(tok) for tok in labels.split(","))
        g = g.with_edge(a, b, xi, eta)
    return g


def graph_violation(g: IterGraph) -> str | None:
    """First violated structural invariant, or None when valid."""
    for (a, b), (xi, eta) in sorted(g.edges.items()):
        if not (1 <= a < b <= g.k):
            return f"edge ({a},{b}) outside vertex range 1..{g.k}"
        if not (-1 <= xi <= g.r):
            return f"edge ({a},{b}) has level {xi} outside [-1, {g.r}]"
        if xi == -1 and eta != 0:
            return f"edge ({a},{b}) has level -1 but twist {eta}"
        if xi >= 0 and not (1 <= eta <= g.d - 1):
            return f"edge ({a},{b}) has level {xi} but twist {eta} outside [1, {g.d - 1}]"
    return None


def _xi(edges: Labels, a: int, b: int) -> int:
    return edges[(min(a, b), max(a, b))][0]


def _eta(edges: Labels, d: int, a: int, b: int) -> int:
    """Directed twist on (a, b), derived from the stored a < b twist."""
    xi, eta_fwd = edges[(min(a, b), max(a, b))]
    if xi == -1:
        return 0
    return eta_fwd if a < b else (d - eta_fwd) % d


def _triangle_ok(d: int, xy: tuple[int, int], yz: tuple[int, int], xz: tuple[int, int]) -> bool:
    """Triangle rules for x < y < z from the stored labels of its three edges,
    all six orderings at once: each vertex is the elbow of two of them."""
    (p, e), (q, f), (s, g) = xy, yz, xz
    ex, fx, gx = (d - e) % d, (d - f) % d, (d - g) % d  # twists read high to low
    return (_elbow(d, p, ex, e, s, g, gx, q, f, fx)
            and _elbow(d, p, e, ex, q, f, fx, s, g, gx)
            and _elbow(d, s, g, gx, q, fx, f, p, e, ex))


def _elbow(d: int, u: int, ab: int, ba: int, v: int, bc: int, cb: int,
           w: int, ac: int, ca: int) -> bool:
    """Orderings (a, b, c) and (c, b, a): levels u on {a,b}, v on {b,c} and
    w on {a,c}, with the directed twists named by their ordered pairs."""
    if u < v:
        return w == v and ac == bc
    if v < u:
        return w == u and ca == ba
    if u == -1:
        return w == -1
    return _join(d, u, ab + bc, w, ac) and _join(d, u, cb + ba, w, ca)


def _join(d: int, u: int, s: int, w: int, t: int) -> bool:
    """Two level-u steps with twist sum s, closed at level w with twist t."""
    return w == u and t == s % d if s != d else w < u


def is_proper(g: IterGraph) -> bool:
    """Closure under the triangle rules, over every fully labeled triangle."""
    return _triangles_ok(g.edges, g.d, combinations(range(1, g.k + 1), 3))


def _triangles_ok(edges: Labels, d: int, triangles: Iterable[Sequence[int]]) -> bool:
    """_triangle_ok on each listed triangle x < y < z whose edges are all labeled."""
    for x, y, z in triangles:
        xy, yz, xz = edges.get((x, y)), edges.get((y, z)), edges.get((x, z))
        if xy and yz and xz and not _triangle_ok(d, xy, yz, xz):
            return False
    return True


def _step_label(edges: Labels, d: int, a: int, b: int, c: int) -> tuple[int, int] | None:
    """Stored label that the path a-b-c gives the new edge {a,c}, or None when
    no label rule applies: -1 then -1 stays -1, two equal levels compose
    non-cancelling twists, and a lower step takes the higher step's label."""
    ab, bc = edges.get((a, b) if a < b else (b, a)), edges.get((b, c) if b < c else (c, b))
    if ab is None or bc is None:
        return None
    if ab[0] == bc[0] == -1:
        return (-1, 0)
    if ab[0] == bc[0] >= 0:
        eta = (_eta(edges, d, a, b) + _eta(edges, d, b, c)) % d
        if eta == 0:
            return None
    elif ab[0] < bc[0]:
        eta = _eta(edges, d, b, c)
    else:
        return None
    return (bc[0], eta % d if a < c else (d - eta) % d)


def maximal_extension(g: IterGraph, order: str = "lex") -> IterGraph:
    """Add the edge {a,c} that _step_label gives a path a-b-c, whenever the
    graph stays proper, until no step applies.  Terminates because each step
    adds an edge.

    A triangle that breaks the rules stays in every extension, so an improper
    g is its own fixpoint.  From a proper graph a step stays proper exactly
    when the triangles through its new edge pass, so only those are checked.
    For subgraphs of a complete proper graph the fixpoint is independent of
    the scan order; "lex" and "reverse" exist so tests can assert that.
    """
    vertices = range(1, g.k + 1)
    triples = list(permutations(vertices, 3))
    if order == "reverse":
        triples.reverse()
    elif order != "lex":
        raise ValueError(f"unknown scan order {order!r}")
    if not is_proper(g):
        return g
    d, edges = g.d, dict(g.edges)
    progressed = True
    while progressed:
        progressed = False
        for a, b, c in triples:
            key = (a, c) if a < c else (c, a)
            label = None if key in edges else _step_label(edges, d, a, b, c)
            if label is None:
                continue
            edges[key] = label
            if _triangles_ok(edges, d, (sorted((*key, w)) for w in vertices if w not in key)):
                progressed = True
                break
            del edges[key]
    return g if len(edges) == len(g.edges) else IterGraph(k=g.k, r=g.r, d=d, edges=edges)


def _chain_ok(edges: Labels, d: int, path: list[int]) -> bool:
    """Potential completeness of a path whose steps are all edges, on stored
    labels: unimodal levels along the path, no two adjacent equalities, and no
    cancelling twists across an equal-level elbow."""
    steps = []
    for a, b in zip(path, path[1:]):
        xi, eta = edges[(a, b)] if a < b else edges[(b, a)]
        steps.append((xi, eta if a < b else (d - eta) % d))
    seen_descent = was_equal = False
    for (left, eta_in), (right, eta_out) in zip(steps, steps[1:]):
        if left > right:
            seen_descent = True
        elif left < right:
            if seen_descent:
                return False
        elif was_equal or (left >= 0 and (eta_in + eta_out) % d == 0):
            return False
        was_equal = left == right
    return True


def _adjacency(g: IterGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.k + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def tree_path(g: IterGraph, a: int, b: int) -> list[int]:
    """Unique chain between a and b in an acyclic connected graph."""
    adj = _adjacency(g)
    parent = {a: 0}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _label_options(r: int, d: int) -> list[tuple[int, int]]:
    """All (xi, eta_forward) labels in deterministic order."""
    options = [(-1, 0)]
    for xi in range(r + 1):
        for eta in range(1, d):
            options.append((xi, eta))
    return options


def enumerate_complete_proper(r: int, k: int, d: int) -> list[IterGraph]:
    """All complete proper labelings on k vertices at level r.

    Backtracks over edges in lexicographic pair order, pruning as soon as a
    fully-labeled triangle breaks the triangle rules, so the cap guards the
    raw label space rather than visited nodes.
    """
    check_degree_level(d, r)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= 1:
        return [IterGraph(k=k, r=r, d=d)]
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    options = _label_options(r, d)
    if len(options) ** len(pairs) > ENUMERATION_CAP:
        raise BudgetError(
            f"label space {len(options)}**{len(pairs)} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    out: list[IterGraph] = []
    labels: Labels = {}

    def assign(i: int):
        if i == len(pairs):
            out.append(IterGraph(k=k, r=r, d=d, edges=dict(labels)))
            return
        y, z = pairs[i]
        # each triangle x < y < z is checked when its last pair, (y, z), is labeled
        for label in options:
            labels[(y, z)] = label
            if all(_triangle_ok(d, labels[(x, y)], label, labels[(x, z)]) for x in range(1, y)):
                assign(i + 1)
        del labels[(y, z)]

    assign(0)
    return out


def _tree_shapes(k: int) -> list[list[tuple[int, int]]]:
    """Edge lists of all labeled trees on {1..k}, one per Pruefer sequence."""
    if k == 1:
        return [[]]
    if k == 2:
        return [[(1, 2)]]
    shapes = []
    for seq in product(range(1, k + 1), repeat=k - 2):
        degree = {v: 1 for v in range(1, k + 1)}
        for v in seq:
            degree[v] += 1
        edges = []
        avail = sorted(v for v in range(1, k + 1) if degree[v] == 1)
        for v in seq:
            leaf = avail.pop(0)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(avail, v)
        a, b = avail
        edges.append((min(a, b), max(a, b)))
        shapes.append(sorted(edges))
    return shapes


def enumerate_trees(r: int, k: int, d: int) -> list[IterGraph]:
    """All labeled spanning trees passing the chain condition.  Pruefer shapes
    are spanning trees and every label option is valid, so only the chain
    condition is checked."""
    check_degree_level(d, r)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= 1:
        return [IterGraph(k=k, r=r, d=d)]
    options = _label_options(r, d)
    # k**(k - 2) labelled trees (Cayley), checked before any shape is built
    if k ** (k - 2) * len(options) ** (k - 1) > ENUMERATION_CAP:
        raise BudgetError(f"tree label space exceeds enumeration cap {ENUMERATION_CAP}")
    shapes = _tree_shapes(k)
    out = []
    for shape in shapes:
        # the chains depend on the shape only; one-step chains always pass
        skeleton = IterGraph(k=k, r=r, d=d, edges=dict.fromkeys(shape))
        chains = [path for a, b in combinations(range(1, k + 1), 2)
                  if len(path := tree_path(skeleton, a, b)) > 2]
        for combo in product(options, repeat=len(shape)):
            edges = dict(zip(shape, combo))  # options are stored labels already
            if all(_chain_ok(edges, d, path) for path in chains):
                out.append(IterGraph(k=k, r=r, d=d, edges=edges))
    return out
