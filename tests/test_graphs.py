from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyiter import graphs, recur
from polyiter.errors import BudgetError
from polyiter.graphs import IterGraph


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
    assert graphs.validate_graph(edge_graph(2, 1, 2, {(1, 2): (-1, 0)}))
    bad = IterGraph(k=2, r=1, d=2, edges={(1, 2): (0, 0)})
    assert not graphs.validate_graph(bad)
    assert "twist" in graphs.graph_violation(bad)
    out_of_range = IterGraph(k=2, r=1, d=2, edges={(1, 2): (2, 1)})
    assert not graphs.validate_graph(out_of_range)
    assert graphs.validate_graph(edge_graph(2, 1, 3, {(1, 2): (1, 1)}))


def test_is_proper_examples():
    assert graphs.is_proper(PROPER_TRIANGLE)
    all_zero = edge_graph(3, 0, 2, {(1, 2): (0, 1), (2, 3): (0, 1), (1, 3): (0, 1)})
    assert not graphs.is_proper(all_zero)
    assert graphs.is_proper(edge_graph(2, 1, 2, {(1, 2): (0, 1)}))
    assert graphs.is_proper(IterGraph(k=2, r=1, d=2))


def test_extract_partition():
    part = graphs.extract_partition(PROPER_TRIANGLE)
    assert part.blocks == ((1, 3), (2,))
    single = edge_graph(2, 1, 2, {(1, 2): (1, 1)})
    assert graphs.extract_partition(single).blocks == ((1,), (2,))
    non_strict = edge_graph(2, 1, 2, {(1, 2): (0, 1)})
    with pytest.raises(ValueError):
        graphs.extract_partition(non_strict)


def test_extract_partition_on_every_enumerated_strict_graph():
    for d in (2, 3):
        for r in (0, 1):
            for k in (2, 3, 4):
                for g in graphs.enumerate_complete_proper(r, k, d):
                    if not g.is_strict():
                        continue
                    part = graphs.extract_partition(g)
                    assert 2 <= part.t <= d


def test_generate_step_cases():
    base = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (-1, 0)})
    stepped = graphs.generate_step(base, 1, 2, 3)
    assert stepped is not None and stepped.xi(1, 3) == -1

    d3 = edge_graph(3, 1, 3, {(1, 2): (0, 1), (2, 3): (0, 1)})
    stepped = graphs.generate_step(d3, 1, 2, 3)
    assert stepped is not None
    assert stepped.xi(1, 3) == 0 and stepped.eta(1, 3) == 2

    mixed = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (1, 1)})
    stepped = graphs.generate_step(mixed, 1, 2, 3)
    assert stepped is not None
    assert stepped.xi(1, 3) == 1 and stepped.eta(1, 3) == stepped.eta(2, 3)

    # cancelling twists: no rule applies
    stuck = edge_graph(3, 1, 2, {(1, 2): (0, 1), (2, 3): (0, 1)})
    assert graphs.generate_step(stuck, 1, 2, 3) is None


def test_maximal_extension():
    path = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (2, 3): (-1, 0)})
    ext = graphs.maximal_extension(path)
    assert ext.is_complete() and ext.xi(1, 3) == -1

    stuck = edge_graph(3, 0, 2, {(1, 2): (0, 1), (2, 3): (0, 1)})
    assert graphs.maximal_extension(stuck) == stuck

    assert graphs.maximal_extension(PROPER_TRIANGLE) == PROPER_TRIANGLE


def test_potentially_complete():
    g = edge_graph(4, 1, 2, {(1, 2): (0, 1), (2, 3): (1, 1), (3, 4): (0, 1)})
    assert graphs.is_potentially_complete(g, [1, 2, 3, 4])
    valley = edge_graph(4, 1, 2, {(1, 2): (1, 1), (2, 3): (0, 1), (3, 4): (1, 1)})
    assert not graphs.is_potentially_complete(valley, [1, 2, 3, 4])
    single = edge_graph(2, 1, 2, {(1, 2): (1, 1)})
    assert graphs.is_potentially_complete(single, [1, 2])
    # two adjacent equalities in the level chain are rejected
    plateau = edge_graph(4, 2, 3, {(1, 2): (1, 1), (2, 3): (1, 1), (3, 4): (1, 1)})
    assert not graphs.is_potentially_complete(plateau, [1, 2, 3, 4])
    # a single equal-level elbow survives if the twists do not cancel
    elbow = edge_graph(3, 1, 3, {(1, 2): (1, 1), (2, 3): (1, 1)})
    assert graphs.is_potentially_complete(elbow, [1, 2, 3])
    cancelling = edge_graph(3, 1, 2, {(1, 2): (1, 1), (2, 3): (1, 1)})
    assert not graphs.is_potentially_complete(cancelling, [1, 2, 3])


def test_is_tree():
    assert graphs.is_tree(edge_graph(2, 1, 2, {(1, 2): (0, 1)}))
    star = edge_graph(3, 1, 2, {(1, 2): (-1, 0), (1, 3): (-1, 0)})
    assert graphs.is_tree(star)
    assert not graphs.is_tree(PROPER_TRIANGLE)  # has a loop
    disconnected = edge_graph(3, 1, 2, {(1, 2): (0, 1)})
    assert not graphs.is_tree(disconnected)
    assert graphs.is_tree(IterGraph(k=1, r=0, d=2))


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


def test_count_partition_graphs():
    assert graphs.count_partition_graphs(recur.Partition(((1,), (2,))), 1, 2) == 1
    assert graphs.count_partition_graphs(recur.Partition(((1,), (2,), (3,))), 0, 3) == 2
    with pytest.raises(ValueError):
        graphs.count_partition_graphs(recur.Partition(((1,), (2,), (3,))), 1, 2)


def test_partition_counts_against_enumeration():
    # summing the class formula over block-size classes reproduces the
    # number of strict graphs, i.e. the difference between two levels
    for d in (2, 3):
        for r in (0, 1):
            for k in (2, 3, 4):
                total = 0
                for t in range(2, min(d, k) + 1):
                    for sizes, count in recur.block_size_classes(k, t):
                        part = _partition_with_sizes(sizes)
                        total += count * graphs.count_partition_graphs(part, r, d)
                strict = [g for g in graphs.enumerate_complete_proper(r, k, d)
                          if g.is_strict()]
                assert total == len(strict)
                assert total == recur.u_value(d, r, k) - recur.u_value(d, r - 1, k)


def _partition_with_sizes(sizes):
    blocks, start = [], 1
    for n in sizes:
        blocks.append(tuple(range(start, start + n)))
        start += n
    return recur.Partition(tuple(blocks))


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
    assert graphs.validate_graph(g)
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
