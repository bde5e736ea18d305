import hashlib
import math
import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyiter import cli, graphs, recur
from polyiter.errors import BudgetError
from polyiter.graphs import IterGraph, _eta, _xi


# ---------------------------------------------------------------------------
# Reference loops that the label-level kernels replaced, kept as oracles: the
# triangle rule per ordered triple, the restart loop that re-checks the whole
# graph after every candidate edge, and the chain condition per built graph;
# and the block partition of a strict graph, which no kernel computes.
# ---------------------------------------------------------------------------

def _triple_ok(edges, d, a, b, c):
    """Triangle rules for the ordered triple (a, b, c), all three edges labeled."""
    xi_ab, xi_bc, xi_ac = _xi(edges, a, b), _xi(edges, b, c), _xi(edges, a, c)
    if xi_ab == xi_bc == -1:
        return xi_ac == -1
    if xi_ab < xi_bc:
        return xi_ac == xi_bc and _eta(edges, d, a, c) == _eta(edges, d, b, c)
    if xi_ab == xi_bc and xi_ab >= 0:
        s = _eta(edges, d, a, b) + _eta(edges, d, b, c)
        if s != d:
            return xi_ac == xi_ab and _eta(edges, d, a, c) == s % d
        return xi_ac < xi_ab
    return True


def oracle_is_proper(g):
    pairs = g.edges.keys() | {(b, a) for a, b in g.edges}
    for a, b, c in permutations(range(1, g.k + 1), 3):
        if {(a, b), (b, c), (a, c)} <= pairs and not _triple_ok(g.edges, g.d, a, b, c):
            return False
    return True


def oracle_generate_step(g, a, b, c):
    pairs = g.edges.keys() | {(b, a) for a, b in g.edges}
    if not {(a, b), (b, c)} <= pairs or (a, c) in pairs:
        return None
    xi_ab, xi_bc = g.xi(a, b), g.xi(b, c)
    if xi_ab == xi_bc == -1:
        new = g.with_edge(a, c, -1, 0)
    elif xi_ab == xi_bc and xi_ab >= 0 and (g.eta(a, b) + g.eta(b, c)) % g.d != 0:
        new = g.with_edge(a, c, xi_ab, (g.eta(a, b) + g.eta(b, c)) % g.d)
    elif xi_ab < xi_bc:
        new = g.with_edge(a, c, xi_bc, g.eta(b, c))
    else:
        return None
    return new if oracle_is_proper(new) else None


def oracle_maximal_extension(g, order="lex"):
    triples = list(permutations(range(1, g.k + 1), 3))
    if order == "reverse":
        triples.reverse()
    current = g
    progressed = True
    while progressed:
        progressed = False
        for a, b, c in triples:
            new = oracle_generate_step(current, a, b, c)
            if new is not None:
                current = new
                progressed = True
                break
    return current


def oracle_potentially_complete(g, path):
    xis = [g.xi(path[i], path[i + 1]) for i in range(len(path) - 1)]
    rels = []
    for left, right in zip(xis, xis[1:]):
        rels.append(0 if left == right else (-1 if left < right else 1))
    seen_descent = False
    for i, rel in enumerate(rels):
        if rel == 1:
            seen_descent = True
        elif rel == -1 and seen_descent:
            return False
        if rel == 0 and i + 1 < len(rels) and rels[i + 1] == 0:
            return False
    for i in range(1, len(path) - 1):
        if g.xi(path[i - 1], path[i]) == g.xi(path[i], path[i + 1]) >= 0:
            if (g.eta(path[i - 1], path[i]) + g.eta(path[i], path[i + 1])) % g.d == 0:
                return False
    return True


def oracle_enumerate_trees(r, k, d):
    out = []
    for shape in graphs._tree_shapes(k):
        for combo in product(graphs._label_options(r, d), repeat=len(shape)):
            g = IterGraph(k=k, r=r, d=d)
            for (a, b), (xi, eta) in zip(shape, combo):
                g = g.with_edge(a, b, xi, eta)
            if all(oracle_potentially_complete(g, graphs.tree_path(g, a, b))
                   for a in range(1, k + 1) for b in range(a + 1, k + 1)):
                out.append(g)
    return out


def extract_partition(g):
    """Block structure of a complete proper strict graph, as a sorted tuple of
    sorted blocks: top-level edges cross blocks, lower-level edges stay
    inside.  Verified from every seed."""
    if not g.is_complete():
        raise ValueError("partition extraction needs a complete graph")
    if not any(xi == g.r for xi, _ in g.edges.values()):
        raise ValueError("partition extraction needs a strict graph (some edge at top level)")
    result = None
    for seed in range(1, g.k + 1):
        buckets = {0: [seed]}
        for b in range(1, g.k + 1):
            if b == seed:
                continue
            if g.xi(seed, b) < g.r:
                buckets[0].append(b)
            else:
                buckets.setdefault(g.eta(seed, b), []).append(b)
        part = tuple(sorted(tuple(sorted(v)) for v in buckets.values()))
        if result is None:
            result = part
        elif part != result:
            raise ValueError("partition extraction disagrees between seed vertices")
    if not (2 <= len(result) <= g.d):
        raise ValueError(f"partition has {len(result)} blocks, outside [2, {g.d}]")
    for i, block in enumerate(result):
        for a, b in combinations(block, 2):
            if g.xi(a, b) >= g.r:
                raise ValueError("within-block edge at top level")
        for other in result[i + 1:]:
            for a, b in product(block, other):
                if g.xi(a, b) != g.r:
                    raise ValueError("cross-block edge below top level")
    return result


def strict_graphs(r, k, d):
    """The enumerated complete proper graphs with some edge at level r."""
    return [g for g in graphs.enumerate_complete_proper(r, k, d)
            if any(xi == r for xi, _ in g.edges.values())]


def edge_graph(k, r, d, items):
    g = IterGraph(k=k, r=r, d=d)
    for (a, b), (xi, eta) in items.items():
        g = g.with_edge(a, b, xi, eta)
    return g


PROPER_TRIANGLE = edge_graph(3, 0, 2, {(1, 2): (0, 1), (2, 3): (0, 1), (1, 3): (-1, 0)})


def test_eta_antisymmetry_is_structural():
    g = edge_graph(2, 1, 3, {(1, 2): (1, 1)})
    assert g.eta(1, 2) == 1
    assert g.eta(2, 1) == 2
    assert (g.eta(1, 2) + g.eta(2, 1)) % 3 == 0
    level_minus = edge_graph(2, 1, 3, {(1, 2): (-1, 0)})
    assert level_minus.eta(1, 2) == 0 == level_minus.eta(2, 1)


def test_validate_graph():
    assert graphs.graph_violation(edge_graph(2, 1, 2, {(1, 2): (-1, 0)})) is None
    bad = IterGraph(k=2, r=1, d=2, edges={(1, 2): (0, 0)})
    assert "twist" in graphs.graph_violation(bad)
    out_of_range = IterGraph(k=2, r=1, d=2, edges={(1, 2): (2, 1)})
    assert graphs.graph_violation(out_of_range) is not None
    assert graphs.graph_violation(edge_graph(2, 1, 3, {(1, 2): (1, 1)})) is None


def test_is_proper_examples():
    assert graphs.is_proper(PROPER_TRIANGLE)
    all_zero = edge_graph(3, 0, 2, {(1, 2): (0, 1), (2, 3): (0, 1), (1, 3): (0, 1)})
    assert not graphs.is_proper(all_zero)
    assert graphs.is_proper(edge_graph(2, 1, 2, {(1, 2): (0, 1)}))
    assert graphs.is_proper(IterGraph(k=2, r=1, d=2))


def test_extract_partition():
    assert extract_partition(PROPER_TRIANGLE) == ((1, 3), (2,))
    single = edge_graph(2, 1, 2, {(1, 2): (1, 1)})
    assert extract_partition(single) == ((1,), (2,))
    non_strict = edge_graph(2, 1, 2, {(1, 2): (0, 1)})
    with pytest.raises(ValueError):
        extract_partition(non_strict)


def test_generate_step_cases():
    # on a 3-vertex path the extension is one step: it adds {1,3} or nothing
    base = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (-1, 0)})
    stepped = graphs.maximal_extension(base)
    assert stepped.is_complete() and stepped.xi(1, 3) == -1

    d3 = edge_graph(3, 1, 3, {(1, 2): (0, 1), (2, 3): (0, 1)})
    stepped = graphs.maximal_extension(d3)
    assert stepped.is_complete()
    assert stepped.xi(1, 3) == 0 and stepped.eta(1, 3) == 2

    mixed = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (1, 1)})
    stepped = graphs.maximal_extension(mixed)
    assert stepped.is_complete()
    assert stepped.xi(1, 3) == 1 and stepped.eta(1, 3) == stepped.eta(2, 3)

    # cancelling twists: no rule applies
    stuck = edge_graph(3, 1, 2, {(1, 2): (0, 1), (2, 3): (0, 1)})
    assert graphs.maximal_extension(stuck) == stuck


def test_maximal_extension():
    path = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (-1, 0)})
    ext = graphs.maximal_extension(path)
    assert ext.is_complete() and ext.xi(1, 3) == -1

    stuck = edge_graph(3, 0, 2, {(1, 2): (0, 1), (2, 3): (0, 1)})
    assert graphs.maximal_extension(stuck) == stuck

    assert graphs.maximal_extension(PROPER_TRIANGLE) == PROPER_TRIANGLE


def test_potentially_complete():
    g = edge_graph(4, 1, 2, {(1, 2): (0, 1), (2, 3): (1, 1), (3, 4): (0, 1)})
    assert oracle_potentially_complete(g, [1, 2, 3, 4])
    valley = edge_graph(4, 1, 2, {(1, 2): (1, 1), (2, 3): (0, 1), (3, 4): (1, 1)})
    assert not oracle_potentially_complete(valley, [1, 2, 3, 4])
    single = edge_graph(2, 1, 2, {(1, 2): (1, 1)})
    assert oracle_potentially_complete(single, [1, 2])
    # two adjacent equalities in the level chain are rejected
    plateau = edge_graph(4, 2, 3, {(1, 2): (1, 1), (2, 3): (1, 1), (3, 4): (1, 1)})
    assert not oracle_potentially_complete(plateau, [1, 2, 3, 4])
    # a single equal-level elbow survives if the twists do not cancel
    elbow = edge_graph(3, 1, 3, {(1, 2): (1, 1), (2, 3): (1, 1)})
    assert oracle_potentially_complete(elbow, [1, 2, 3])
    cancelling = edge_graph(3, 1, 2, {(1, 2): (1, 1), (2, 3): (1, 1)})
    assert not oracle_potentially_complete(cancelling, [1, 2, 3])


def test_is_tree():
    assert edge_graph(2, 1, 2, {(1, 2): (0, 1)}) in graphs.enumerate_trees(1, 2, 2)
    star = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (1, 3): (-1, 0)})
    assert star in graphs.enumerate_trees(1, 3, 2)
    assert PROPER_TRIANGLE not in graphs.enumerate_trees(0, 3, 2)  # has a loop
    disconnected = edge_graph(3, 1, 2, {(1, 2): (0, 1)})
    assert disconnected not in graphs.enumerate_trees(1, 3, 2)
    assert IterGraph(k=1, r=0, d=2) in graphs.enumerate_trees(0, 1, 2)


def test_enumerate_complete_proper_examples():
    only = graphs.enumerate_complete_proper(-1, 3, 2)
    assert len(only) == 1
    assert all(xi == -1 for xi, _ in only[0].edges.values())

    two_vertex = graphs.enumerate_complete_proper(1, 2, 2)
    assert [g.canonical() for g in two_vertex] == [
        "2 1 2; 1-2:-1,0",
        "2 1 2; 1-2:0,1",
        "2 1 2; 1-2:1,1",
    ]
    assert len(graphs.enumerate_complete_proper(0, 3, 2)) == 4


def test_enumeration_matches_u_counts():
    for d in (2, 3):
        for r in (-1, 0, 1, 2):
            for k in (1, 2, 3, 4):
                found = graphs.enumerate_complete_proper(r, k, d)
                assert len(found) == recur.u_value(d, r, k)
                assert len({g.canonical() for g in found}) == len(found)


def test_enumeration_cap():
    with pytest.raises(BudgetError):
        graphs.enumerate_complete_proper(3, 5, 3)


def test_enumeration_cap_refuses_from_k_alone(monkeypatch):
    # at k = 100000 there are 4,999,950,000 pairs: 2**4999950000 labelings at
    # r = 0, 7**4999950000 at d = 3, r = 2, and at r = -1 one graph of that
    # many edges, each refused before any pair is built
    def no_pairs(*args):
        raise AssertionError("pairs built")

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "combinations", no_pairs)
        for r, d in ((0, 2), (2, 3), (-1, 2)):
            start = time.perf_counter()
            with pytest.raises(BudgetError):
                graphs.enumerate_complete_proper(r, 100_000, d)
            assert time.perf_counter() - start < 1
    # at r = -1 the cap reads the edge count: 10 pairs at k = 5, 15 at k = 6
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "ENUMERATION_CAP", 10)
        assert len(graphs.enumerate_complete_proper(-1, 5, 2)[0].edges) == 10
        with pytest.raises(BudgetError):
            graphs.enumerate_complete_proper(-1, 6, 2)
    # level -1's one graph is built without recursion, so 1225 edges pass
    (only,) = graphs.enumerate_complete_proper(-1, 50, 2)
    assert only.is_complete() and set(only.edges.values()) == {(-1, 0)}
    assert graphs.is_proper(only)


def test_tree_cap_refuses_before_any_shape_is_built(monkeypatch, capsys):
    # the cap reads Cayley's count k**(k - 2) of labelled trees, the number of
    # Pruefer shapes, so it refuses the same inputs without building them: at
    # k = 9 there would be 9**7 shapes
    for k in range(2, 8):
        assert len(graphs._tree_shapes(k)) == k ** (k - 2)

    def no_shapes(k):
        raise AssertionError(f"tree shapes built at k={k}")

    monkeypatch.setattr(graphs, "_tree_shapes", no_shapes)
    capsys.readouterr()
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        graphs.enumerate_trees(0, 9, 2)
    assert cli.main(["enum-graphs", "--trees", "--d", "2", "--r", "0", "--k", "9"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == ""


def test_enumerate_trees():
    assert len(graphs.enumerate_trees(1, 1, 2)) == 1
    two = graphs.enumerate_trees(1, 2, 2)
    assert {g.canonical() for g in two} == {
        g.canonical() for g in graphs.enumerate_complete_proper(1, 2, 2)
    }
    trees = graphs.enumerate_trees(1, 3, 2)
    complete = set(graphs.enumerate_complete_proper(1, 3, 2))
    covered = {
        graphs.maximal_extension(t) for t in trees
        if graphs.maximal_extension(t).is_complete()
    }
    assert complete <= covered


def test_extension_order_independence():
    for d in (2, 3):
        for g in graphs.enumerate_complete_proper(1, 3, d):
            items = sorted(g.edges.items())
            for drop in range(len(items)):
                sub = IterGraph(k=3, r=1, d=d,
                                edges=dict(items[:drop] + items[drop + 1:]))
                lex = graphs.maximal_extension(sub, order="lex")
                rev = graphs.maximal_extension(sub, order="reverse")
                assert lex == rev


def partition_graph_count(d, r, sizes):
    """Strict graphs with a given t-block partition: (d-1)!/(d-t)! twists
    across the blocks times U(r-1, |B|) inside each block B."""
    ways = math.factorial(d - 1) // math.factorial(d - len(sizes))
    return ways * math.prod(recur.u_value(d, r - 1, n) for n in sizes)


def test_partition_counts_against_enumeration():
    # summing the class formula over block-size classes reproduces the
    # number of strict graphs, i.e. the difference between two levels
    for d in (2, 3):
        for r in (0, 1):
            for k in (2, 3, 4):
                total = sum(count * partition_graph_count(d, r, sizes)
                            for t in range(2, min(d, k) + 1)
                            for sizes, count in recur.block_size_classes(k, t))
                assert total == len(strict_graphs(r, k, d))
                assert total == recur.u_value(d, r, k) - recur.u_value(d, r - 1, k)


def test_partition_lemma_per_partition():
    # the lemma partition by partition, on every enumerated strict graph:
    # every set partition of {1..k} into 2 <= t <= d blocks is the block
    # structure of exactly the counted number of strict graphs.
    # extract_partition only returns such partitions and raises on a strict
    # graph without one, so matching their number (the Stirling numbers, as
    # class sizes) shows that each of them occurs.
    for d in (2, 3):
        for r in (0, 1):
            for k in range(1, 5):
                found = Counter(extract_partition(g) for g in strict_graphs(r, k, d))
                assert all(2 <= len(part) <= d for part in found)
                assert len(found) == sum(count for t in range(2, min(d, k) + 1)
                                         for _, count in recur.block_size_classes(k, t))
                for part, n in found.items():
                    assert n == partition_graph_count(d, r, [len(b) for b in part]), part


def test_canonical_round_trip():
    for g in graphs.enumerate_complete_proper(1, 3, 3):
        assert graphs.parse_canonical(g.canonical()) == g


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_labelings_round_trip_and_validate(data):
    k = data.draw(st.integers(min_value=2, max_value=4))
    r = data.draw(st.integers(min_value=0, max_value=2))
    d = data.draw(st.integers(min_value=2, max_value=4))
    g = IterGraph(k=k, r=r, d=d)
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            if data.draw(st.booleans()):
                xi = data.draw(st.integers(min_value=-1, max_value=r))
                eta = 0 if xi == -1 else data.draw(st.integers(min_value=1, max_value=d - 1))
                g = g.with_edge(a, b, xi, eta)
    assert graphs.graph_violation(g) is None
    assert graphs.parse_canonical(g.canonical()) == g
    if graphs.is_proper(g):
        ext = graphs.maximal_extension(g)
        assert graphs.is_proper(ext)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [-1, 0, 1])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_equals_filtered_label_space(d, r, k):
    # pruned backtracking against the full label space filtered by is_proper
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    proper = set()
    for combo in product(graphs._label_options(r, d), repeat=len(pairs)):
        g = IterGraph(k=k, r=r, d=d, edges=dict(zip(pairs, combo)))
        if graphs.is_proper(g):
            proper.add(g)
    found = graphs.enumerate_complete_proper(r, k, d)
    assert len(found) == len(set(found))
    assert set(found) == proper


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_triangle_ok_matches_ordered_triple_oracle(d):
    # every label triple at levels -1..2, with stored twists from -1 to d: this
    # covers twists on level -1 edges, twist 0 above it, and twists outside 0..d-1
    labels = list(product(range(-1, 3), range(-1, d + 1)))
    for xy, yz, xz in product(labels, repeat=3):
        edges = {(1, 2): xy, (2, 3): yz, (1, 3): xz}
        want = all(_triple_ok(edges, d, a, b, c) for a, b, c in permutations((1, 2, 3)))
        assert graphs._triangle_ok(d, xy, yz, xz) == want, (xy, yz, xz)


def random_labeling(data):
    k = data.draw(st.integers(min_value=2, max_value=5))
    r = data.draw(st.integers(min_value=-1, max_value=2))
    d = data.draw(st.integers(min_value=2, max_value=4))
    options = graphs._label_options(r, d)
    edges = {}
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            if data.draw(st.booleans()):
                edges[(a, b)] = data.draw(st.sampled_from(options))
    return IterGraph(k=k, r=r, d=d, edges=edges)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extension_matches_restart_oracle(data):
    # proper and improper labelings alike, in both scan orders
    g = random_labeling(data)
    assert graphs.is_proper(g) == oracle_is_proper(g)
    for order in ("lex", "reverse"):
        assert graphs.maximal_extension(g, order) == oracle_maximal_extension(g, order)


@pytest.mark.parametrize("text", [
    # improper (triangle 1-2-4 closes two -1 steps at level 1), yet path
    # 1-2-3 proposes 1-3 and the only triangle through 1-3 passes
    "4 1 2; 1-2:-1,0; 1-4:1,1; 2-3:-1,0; 2-4:-1,0",
    # a proper 4-cycle: path 1-2-3 proposes 1-3, which triangle 1-3-4 refuses
    "4 1 2; 1-2:1,1; 1-4:-1,0; 2-3:-1,0; 3-4:0,1",
])
def test_unextendable_graphs_are_their_own_extension(text):
    g = graphs.parse_canonical(text)
    for order in ("lex", "reverse"):
        assert oracle_maximal_extension(g, order) == g
        assert graphs.maximal_extension(g, order) == g


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [-1, 0, 1])
def test_tree_extension_matches_restart_oracle(d, r):
    for k in (3, 4):
        for tree in graphs.enumerate_trees(r, k, d):
            for order in ("lex", "reverse"):
                assert (graphs.maximal_extension(tree, order)
                        == oracle_maximal_extension(tree, order)), (tree.canonical(), order)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [-1, 0, 1, 2])
def test_enumerate_trees_matches_oracle(d, r):
    for k in range(1, 5):
        found = [g.canonical() for g in graphs.enumerate_trees(r, k, d)]
        assert found == [g.canonical() for g in oracle_enumerate_trees(r, k, d)]


# exit codes and sha256 of stdout of `polyiter enum-graphs --d D --r R --k K
# [--trees]` over K = 0..4, recorded from the ordered-triple implementation
ENUM_PINS = {
    (2, -1, False): "664bba83773f7c48163afbf38222e8773fa2b4bac45c98c13035f8b011dd8567",
    (2, -1, True): "009aaf3f52d0e0194653e6240b981f51d047a9a43ab10d0345e4584c775d5415",
    (2, 0, False): "5ae4b0ea97f59920f45abacf6c9cf9f52aa9e48769f57377e519d0ff1d8f1abe",
    (2, 0, True): "2ce9931b8044a5ab6fe13b45af976e41fad4d9dbbe067ac0cb097403852e50ba",
    (2, 1, False): "7cca498374ba16d5470a9ddbcc4cbe3fc33c1e9e134e1dd0ce79d5d6038a9b4c",
    (2, 1, True): "10b9cbe63d1b72d3f0e095f3e7baa7a119e95f52cfd25025e06b413a043f6658",
    (2, 2, False): "790b5da8774bb7bffae59d7df45cf986a70f62d6301f5a5da732defdfcdbb130",
    (2, 2, True): "0d969b194eaf7c0dbbaff17bd11c2a001d09d1ef118656175ee280b6c5892247",
    (3, -1, False): "ed40999a710e6cce392abb8734ab44be74c35ac01ae214d6e8c3bc5cadf6fc1c",
    (3, -1, True): "caab99e7f3f4e78f8a7186d687403527b54e3f2c5d0adb6f29c208a82b682e12",
    (3, 0, False): "bd319574f0ea517cc556acc5291259fe7aa3fea1472d88479e06fd4d950f9da1",
    (3, 0, True): "9981a1cec79ad11b1d55e3924e728f62c7064073a30e174c71e36ed50984c14d",
    (3, 1, False): "95a345f85da08318835216b46688f8ab910aa210f7dbe871e65b8ad7283670b7",
    (3, 1, True): "88335f05cb4ffbcac0d85cb3fcf24a0c20940ac4ea34c6d1bdee008824e83018",
    (3, 2, False): "a3f53bd385c1b19482dc4e3046ad3fd7f9156a30a2e76570664ac6761f4e9442",
    (3, 2, True): "f6f793801d75a8a6a5a20c964f4d37d4928091f781d2dc77ac858656f19dc0f0",
}


@pytest.mark.parametrize("d, r, trees", list(ENUM_PINS), ids=str)
def test_cli_enum_graphs_bytes_pinned(capsys, d, r, trees):
    codes, out = [], ""
    for k in range(5):
        argv = ["enum-graphs", "--d", str(d), "--r", str(r), "--k", str(k)]
        codes.append(cli.main(argv + ["--trees"] if trees else argv))
        out += capsys.readouterr().out
    assert codes == [0] * 5
    assert hashlib.sha256(out.encode()).hexdigest() == ENUM_PINS[(d, r, trees)]
