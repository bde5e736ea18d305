import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyiter import curves, dynamics
from polyiter.dynamics import poly_map
from polyiter.errors import BudgetError
from polyiter.field import FieldParams, is_prime

from oracles import eval_map, stats_from_table

F5 = poly_map(5, 2, 1, 1)


def brute_orbit(f):
    """Hash-set oracle: store every iterate until the first repeat."""
    seen = {}
    x, i = 0, 0
    while x not in seen:
        seen[x] = i
        x = eval_map(f, x)
        i += 1
    tail = seen[x]
    return tail, i - tail


def test_eval_map_examples():
    assert eval_map(F5, 2) == 0
    assert eval_map(F5, 0) == F5.C
    assert eval_map(poly_map(7, 3, 2, 3), 1) == 5


def test_apply_map_to_domain():
    assert dynamics.apply_map_to_domain(F5, 0).tolist() == [0, 1, 2, 3, 4]
    assert dynamics.apply_map_to_domain(F5, 1).tolist() == [1, 2, 0, 0, 2]
    assert dynamics.apply_map_to_domain(F5, 2).tolist() == [2, 0, 1, 1, 0]


def apply_map_oracle(f, N):
    """The reference loop: N successive full-domain passes of the step table."""
    arr = np.arange(f.p, dtype=np.int64)
    table = dynamics.step_table(f)
    for _ in range(N):
        arr = table[arr]
    return arr


PRIMES_TO_300 = [q for q in range(3, 301) if all(q % i for i in range(2, q))]


@st.composite
def maps_to_300(draw):
    """Primes p <= 300 with any degree d >= 2 dividing p - 1."""
    p = draw(st.sampled_from(PRIMES_TO_300))
    d = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    A = draw(st.integers(min_value=1, max_value=p - 1))
    C = draw(st.integers(min_value=0, max_value=p - 1))
    return poly_map(p, d, A, C)


@settings(max_examples=150, deadline=None)
@given(f=maps_to_300(), N=st.integers(min_value=0, max_value=3000))
@example(f=F5, N=0)
@example(f=F5, N=1)
@example(f=poly_map(199, 2, 1, 1), N=2048)
@example(f=poly_map(199, 2, 1, 1), N=2047)
@example(f=poly_map(197, 4, 3, 5), N=3000)
def test_apply_map_matches_pass_loop(f, N):
    assert dynamics.apply_map_to_domain(f, N).tolist() == apply_map_oracle(f, N).tolist()


@settings(max_examples=60, deadline=None)
@given(f=maps_to_300())
@example(f=F5)
@example(f=poly_map(7, 3, 2, 3))
@example(f=poly_map(211, 5, 4, 210))
def test_step_table_matches_eval_map(f):
    # the step table is built on x <= p//2 and mirrored, f(p - x) = f(x) for
    # even d and 2C - f(x) for odd d
    assert dynamics.step_table(f).tolist() == [eval_map(f, x) for x in range(f.p)]


def image_size_oracle(f, N):
    return int(np.count_nonzero(np.bincount(apply_map_oracle(f, N), minlength=f.p)))


# the shallow depths, and 2**j, 2**j + 1, 2**j + 2: the image kernel composes
# g with itself n = N - 2 times, so n runs over 2**j - 2, 2**j - 1 and 2**j
EXPLICIT_DEPTHS = (0, 1, 2, 3, *(2**j + i for j in range(2, 12) for i in range(3)))


@settings(max_examples=150, deadline=None)
@given(f=maps_to_300(), N=st.integers(min_value=0, max_value=3000))
@example(f=F5, N=0)
@example(f=poly_map(257, 256, 3, 5), N=2)
@example(f=poly_map(293, 2, 1, 0), N=3000)
@example(f=poly_map(271, 3, 5, 7), N=1024)  # odd d: S_1 labelled through rank
@example(f=poly_map(293, 4, 3, 1), N=2049)
def test_image_size_matches_pass_loop(f, N):
    for depth in (N, *EXPLICIT_DEPTHS):
        assert dynamics.image_size(f, depth) == image_size_oracle(f, depth)


def test_image_size_refuses_negative_depth():
    with pytest.raises(ValueError):
        dynamics.image_size(F5, -1)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=1, max_value=150))
@example(p=1)
@example(p=2)
@example(p=101)
# composite moduli where an odd power of some x != 0 is 0, so the mirrored
# half needs (-v) % p, not p - v: 2**3 mod 8, 3**3 mod 9, 6**3 mod 18, 3**3 mod 27
@example(p=8)
@example(p=9)
@example(p=18)
@example(p=27)
def test_power_table_matches_builtin_pow(p):
    # the power table holds x <= p//2; the map table mirrors it over F_p
    for e in range(1, 2 * p + 1):
        assert dynamics._power_table(p, e).tolist() == [pow(x, e, p) for x in range(p // 2 + 1)]
        assert dynamics._map_table(p, e, 1, 0).tolist() == [pow(x, e, p) for x in range(p)]


@pytest.mark.parametrize("e", [2, 3, 5])
def test_power_table_at_the_mirror_seam_for_large_p(e):
    p = 1000003
    half = dynamics._power_table(p, e)
    assert len(half) == p // 2 + 1
    for x in (0, 1, 2**16 + 1, p // 2):
        assert int(half[x]) == pow(x, e, p), x
    table = dynamics._map_table(p, e, 1, 0)
    for x in (p // 2, p // 2 + 1, p - 1):
        assert int(table[x]) == pow(x, e, p)


@pytest.mark.parametrize("A, C", [(12345, 678), (140008, 3), (7, 0)])
def test_degree_two_kernels_against_full_domain_at_larger_p(A, C):
    # the d = 2 graph against plain numpy, and the kernels on it against the
    # full-domain paths, at a p where every work array is 70,005 entries long
    p = 140009
    f = poly_map(p, 2, A, C)
    x = np.arange(p // 2 + 1, dtype=np.int64)
    values = (x * x + A * C) % p
    assert dynamics._induced_graph(f)[0].tolist() == np.minimum(values, p - values).tolist()
    assert dynamics.functional_graph_stats(f) == stats_from_table(dynamics.step_table(f))
    for N in (2, 3, 5):
        counts = np.bincount(dynamics.apply_map_to_domain(f, N), minlength=p)
        assert dynamics.image_size(f, N) == np.count_nonzero(counts)
        assert dynamics.moment_w(f, N, 2) == int(counts @ counts)


# the half length p//2 + 1 of each modulus against the 2**15-entry blocks:
# 32761 (one block), 32769 (one entry over), 65536 (exactly two), and 88574
# for 3**11, a composite modulus on which x**e is 0 at multiples of 3**4
@pytest.mark.parametrize("p", [65521, 65537, 131071, 3**11])
def test_power_and_map_tables_at_the_block_seams(p):
    seams = range(0, p // 2 + 1, 2**15)
    points = sorted({x for s in seams for x in range(s - 2, s + 3) if 0 <= x <= p // 2}
                    | {p // 2 - 1, p // 2})
    A, C = 12345 % p, 678
    for e in (2, 3, 5):
        half = dynamics._power_table(p, e)
        assert len(half) == p // 2 + 1
        assert [int(half[x]) for x in points] == [pow(x, e, p) for x in points], e
        table = dynamics._map_table(p, e, A, C)
        for x in points + [p - x for x in points if x]:
            assert int(table[x]) == (A * pow(x, e, p) + C) % p, (e, x)


def block_seam_checks(p, d=2):
    f = poly_map(p, d, 12345, 678)
    table = dynamics.step_table(f)
    if d == 2:
        x = np.arange(p // 2 + 1, dtype=np.int64)
        values = (x * x + f.A * f.C) % p
        expected = np.minimum(values, p - values)
    else:
        image = np.unique(table)
        expected = np.searchsorted(image, table[image])
    assert dynamics._induced_graph(f)[0].tolist() == expected.tolist()
    for N in (2, 3, 5):
        counts = np.bincount(dynamics.apply_map_to_domain(f, N), minlength=p)
        assert dynamics.image_size(f, N) == np.count_nonzero(counts), N
    assert dynamics.functional_graph_stats(f) == stats_from_table(table)


@pytest.mark.parametrize("p, d", [
    pytest.param(65537, 2, id="65537"),
    pytest.param(131071, 2, id="131071"),
    pytest.param(65537, 4, id="65537-d4"),
    pytest.param(131071, 3, id="131071-d3"),
])
def test_degree_two_kernels_at_the_block_seams(p, d):
    # the blocked add and fold of the normal-form graph against plain numpy,
    # and the kernels on it against the full-domain paths; at d = 3 and 4 the
    # ranked graph against np.unique, and the in-degree rule of the graph
    # stats against the generic table path, above the p <= 300 of the
    # hypothesis tests
    block_seam_checks(p, d)


def test_block_scratch_sized_by_a_small_prime_then_grown():
    # from empty work arrays the block scratch is first sized by p = 1009,
    # then grown to a full block, then read at a small and a seam prime
    dynamics._WORK.clear()
    dynamics._power_table.cache_clear()
    for p in (1009, 131071, 1009, 65537):
        block_seam_checks(p)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=2**31 - 1), data=st.data())
@example(n=2**31 - 1, data=None)
def test_reduce_matches_python_mod(n, data):
    # primes up to 2**31 - 1 and inputs from [-p, p**2): the negative range
    # of the odd mirror and products near 2**62 at p near 2**31
    p = n
    while not is_prime(p):
        p -= 1
    ends = [-p, -p + 1, -1, 0, 1, p - 1, p, p * p - p, p * p - 1]
    drawn = [] if data is None else data.draw(
        st.lists(st.integers(min_value=-p, max_value=p * p - 1), max_size=32))
    y = np.array(ends + drawn, dtype=np.int64)
    q = np.empty(len(y), dtype=np.int64)
    assert dynamics._reduce(y, p, q).tolist() == [v % p for v in ends + drawn]


def iterate_oracle(table, n):
    arr = table
    for _ in range(n):
        arr = table[arr]
    return arr


@settings(max_examples=30, deadline=None)
@given(f=maps_to_300())
@example(f=poly_map(257, 2, 3, 5))
@example(f=poly_map(193, 2, 1, 0))
@example(f=poly_map(211, 5, 4, 210))
def test_iterate_matches_successive_gathers(f):
    # the step table and the graph the kernels run on its image set (the
    # normal form's at d = 2), at every n up to 40, on both sides of the
    # switch between direct gathers and powering
    table = dynamics.step_table(f)
    g, _ = dynamics._induced_graph(f)
    assert len(g) == (f.p - 1) // f.d + 1
    for t in (table, g):
        for n in range(41):
            assert dynamics._iterate(t, n).tolist() == iterate_oracle(t, n).tolist(), n


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_apply_map_returns_a_fresh_writable_array(N):
    f = poly_map(101, 2, 3, 7)
    arr = dynamics.apply_map_to_domain(f, N)
    assert arr.flags.writeable
    assert not np.shares_memory(arr, dynamics.step_table(f))
    assert not np.shares_memory(arr, dynamics._power_table(f.p, f.d))
    expected = apply_map_oracle(f, N).tolist()
    arr[:] = 0
    assert dynamics.apply_map_to_domain(f, N).tolist() == expected


def result_arrays(value):
    """Every array in a public result: the result itself or its fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [a for field in dataclasses.fields(value)
                for a in result_arrays(getattr(value, field.name))]
    if isinstance(value, tuple):
        return [a for item in value for a in result_arrays(item)]
    return []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_no_view_of_a_work_array_escapes(d):
    # every array a public dynamics or curves function hands out is its own,
    # checked against the work arrays and the power table as they stand right
    # after the call, since a later call may grow (replace) a work array
    f = poly_map(97, d, 5, 11)
    calls = [
        lambda: dynamics.step_table(f),
        *(lambda N=N: dynamics.apply_map_to_domain(f, N) for N in range(5)),
        *(lambda N=N: dynamics.preimage_distribution(f, N) for N in range(4)),
        *(lambda N=N: dynamics.image_size(f, N) for N in (1, 2, 3, 8)),
        *(lambda N=N: dynamics.moment_w(f, N, 2) for N in (1, 2, 5)),
        lambda: dynamics.zero_count_identity(f, 2),
        lambda: dynamics.functional_graph_stats(f),
        lambda: dynamics.orbit_of_zero(f),
        lambda: curves.count_cr_points(f, 2, 2),
        lambda: curves.decomposition_check(f, 1, 2),
    ]
    for call in calls:
        arrays = result_arrays(call())
        work = [*dynamics._WORK.values(), dynamics._power_table(f.p, f.d)]
        assert len(work) > 1
        for arr in arrays:
            for buf in work:
                assert not np.shares_memory(arr, buf)


def test_image_size():
    assert dynamics.image_size(F5, 1) == 3
    assert dynamics.image_size(F5, 0) == 5
    # depth-1 image is exactly (p-1)/d + 1 for any valid map
    for p, d in ((13, 2), (13, 3), (13, 4), (29, 4), (31, 5)):
        f = poly_map(p, d, 2, 7)
        assert dynamics.image_size(f, 1) == (p - 1) // d + 1


def test_depth_one_image_for_every_map_of_each_prime_and_degree():
    # #f(F_p) is counted once per (p, d): every d of a prime in turn, then
    # the next prime, so a count kept for another d or another p shows
    for p in (13, 17, 29, 37):
        for d in (d for d in range(2, p) if (p - 1) % d == 0):
            for A in range(1, p):
                for C in range(p):
                    f = poly_map(p, d, A, C)
                    assert dynamics.image_size(f, 1) == image_size_oracle(f, 1), (p, d, A, C)


@pytest.mark.parametrize("p, d", [(1000003, 2), (1000033, 4)])
def test_depth_one_image_builds_no_table_and_no_work_array(p, d):
    # #f(F_p) = (p-1)/d + 1 is the closed form: from empty work arrays and an
    # empty power-table slot, nothing is built
    dynamics._WORK.clear()
    dynamics._power_table.cache_clear()
    assert dynamics.image_size(poly_map(p, d, 12345, 678), 1) == (p - 1) // d + 1
    assert dynamics._power_table.cache_info().currsize == 0
    assert not dynamics._WORK


# p = 1000003 is 3 mod 8 and 1000033 is 1 mod 8, so both branches of the d = 2
# depth-2 closed form show, and C = 0 its monomial case with gcd(4, p - 1) = 2, 4
@pytest.mark.parametrize("p, C", [(1000003, 678), (1000033, 678), (1000003, 0), (1000033, 0)])
def test_depth_two_image_at_degree_two_builds_no_table_and_no_work_array(p, C):
    dynamics._WORK.clear()
    dynamics._power_table.cache_clear()
    f = poly_map(p, 2, 12345, C)
    image = dynamics.image_size(f, 2)
    assert dynamics._power_table.cache_info().currsize == 0
    assert not dynamics._WORK
    assert image == image_size_oracle(f, 2)


def depth_two_images(p: int, A: int) -> np.ndarray:
    """#f^2(F_p) of A*x**2 + C for every C at once, on the full domain: row C
    of the (C, x) grid holds f^2(x), and the values a row takes are marked."""
    C = np.arange(p)[:, None]
    squares = np.arange(p) ** 2 % p
    once = (A * squares + C) % p
    twice = (A * squares[once] + C) % p
    hit = np.zeros((p, p), dtype=bool)
    hit[C, twice] = True
    return np.count_nonzero(hit, axis=1)


def test_depth_two_image_at_degree_two_for_every_map_of_each_odd_prime_below_200():
    for p in (q for q in range(3, 200) if is_prime(q)):
        for A in range(1, p):
            expected = depth_two_images(p, A).tolist()
            assert [dynamics.image_size(FieldParams(p, 2, A, C), 2) for C in range(p)] == expected, (p, A)


# 2**31 - 1 is 7 mod 8; 2147483629 is 5 mod 8, where the sign of chi(-A*C) counts
@pytest.mark.parametrize("p", [2147483647, 2147483629])
def test_depth_two_image_at_degree_two_near_the_modulus_cap_allocates_nothing(p, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("array allocated")

    monkeypatch.setattr(dynamics, "_work", refused)
    monkeypatch.setattr(np, "empty", refused)
    for A, C in ((1, 1), (12345, 678), (p - 1, 3), (5, 0), (7, p - 2)):
        image = dynamics.image_size(poly_map(p, 2, A, C), 2)
        # 3p/8 - 1/8 <= image <= 3p/8 + 9/8 off C = 0, the density mu_2 = 3/8 of the paper
        assert -1 <= 8 * image - 3 * p <= 9 or C == 0, (A, C)
        assert C or image == (p - 1) // math.gcd(4, p - 1) + 1


def test_image_size_non_increasing():
    f = poly_map(101, 2, 3, 11)
    sizes = [dynamics.image_size(f, n) for n in range(6)]
    assert sizes == sorted(sizes, reverse=True)


def test_orbit_examples():
    orbit = dynamics.orbit_of_zero(F5)
    assert (orbit.tail_len, orbit.cycle_len, orbit.collision_index) == (0, 3, 3)
    fixed = dynamics.orbit_of_zero(poly_map(5, 2, 1, 0))
    assert (fixed.tail_len, fixed.cycle_len) == (0, 1)
    orbit7 = dynamics.orbit_of_zero(poly_map(7, 2, 1, 1))
    assert (orbit7.tail_len, orbit7.cycle_len) == (3, 1)


def test_orbit_confirms_collision():
    # re-iterating must confirm the claimed collision and no earlier one
    for p, d, A, C in ((101, 2, 3, 7), (97, 4, 5, 12), (61, 3, 2, 2)):
        f = poly_map(p, d, A, C)
        orbit = dynamics.orbit_of_zero(f)
        iterates = [0]
        for _ in range(orbit.collision_index):
            iterates.append(eval_map(f, iterates[-1]))
        assert iterates[-1] == iterates[orbit.tail_len]
        assert len(set(iterates[:-1])) == orbit.collision_index


def test_check_precondition():
    assert dynamics.check_precondition(F5, 0)
    assert dynamics.check_precondition(F5, 2)
    assert not dynamics.check_precondition(F5, 3)


def test_preimage_distribution():
    dist = dynamics.preimage_distribution(F5, 1)
    assert dist.tolist() == [2, 1, 2, 0, 0]
    assert dynamics.preimage_distribution(F5, 0).tolist() == [1] * 5
    dist2 = dynamics.preimage_distribution(F5, 2)
    assert dist2.tolist() == [2, 2, 1, 0, 0]
    assert np.count_nonzero(dist2 == 0) == 2


def test_distribution_mass_and_bounds():
    for p, d in ((29, 2), (29, 4), (31, 3)):
        f = poly_map(p, d, 3, 4)
        for n in range(4):
            dist = dynamics.preimage_distribution(f, n)
            assert int(dist.sum()) == p
            assert int(dist.max()) <= d**n


def test_moments():
    assert dynamics.moment_w(F5, 1, 2) == 9
    assert dynamics.moment_w(F5, 1, 1) == 5
    assert dynamics.moment_w(F5, 1, 0) == 5
    assert dynamics.moment_w(F5, 2, 3) == 17


def test_moment_equals_tuple_enumeration():
    # W(N, k) is the number of k-tuples with equal N-th iterates
    for p, d in ((13, 2), (29, 4)):
        f = poly_map(p, d, 2, 5)
        for n in (1, 2):
            arr = dynamics.apply_map_to_domain(f, n).tolist()
            pairs = sum(1 for x in arr for y in arr if x == y)
            triples = sum(
                1 for x in arr for y in arr if x == y for z in arr if z == x
            )
            assert dynamics.moment_w(f, n, 2) == pairs
            assert dynamics.moment_w(f, n, 3) == triples


def test_q_coeffs():
    assert dynamics.q_coeffs(2, 1) == (Fraction(1), Fraction(-3, 2), Fraction(1, 2))
    for d, n in ((2, 2), (3, 1), (2, 3)):
        coeffs = dynamics.q_coeffs(d, n)
        D = d**n
        assert coeffs[0] == 1
        assert coeffs[-1] == Fraction((-1) ** D, math.factorial(D))
        for j in range(1, D + 1):
            assert sum(c * j**k for k, c in enumerate(coeffs)) == 0
        assert sum(c * 0**k for k, c in enumerate(coeffs)) == 1


def test_q_coeffs_cap():
    with pytest.raises(BudgetError):
        dynamics.q_coeffs(2, 7)  # degree 128, above the cap of 64
    assert len(dynamics.q_coeffs(2, 6)) == 65


def test_zero_count_identity():
    assert dynamics.zero_count_identity(F5, 1) == (2, Fraction(2))
    assert dynamics.zero_count_identity(F5, 0) == (0, Fraction(0))
    assert dynamics.zero_count_identity(F5, 2) == (2, Fraction(2))
    for p, d in ((13, 3), (17, 4)):
        f = poly_map(p, d, 2, 3)
        for n in (1, 2):
            direct, via_q = dynamics.zero_count_identity(f, n)
            assert via_q.denominator == 1
            assert int(via_q) == direct
            assert dynamics.image_size(f, n) == p - direct


def test_functional_graph_stats():
    stats = dynamics.functional_graph_stats(F5)
    assert stats.num_cycles == 1
    assert stats.sum_cycle_lengths == 3
    squares = dynamics.functional_graph_stats(poly_map(5, 2, 1, 0))
    assert squares.num_cycles == 2
    assert squares.sum_cycle_lengths == 2
    assert squares.sum_precyclic_path_lengths == 4
    assert squares.max_tail == 2


def test_graph_stats_on_permutation_table():
    # a bijective table has every vertex on a cycle and no sources
    identity = np.arange(11, dtype=np.int64)
    stats = stats_from_table(identity)
    assert stats.num_cycles == 11
    assert stats.sum_cycle_lengths == 11
    assert (stats.sum_precyclic_path_lengths, stats.max_tail) == (0, 0)
    shift = (np.arange(11, dtype=np.int64) + 1) % 11
    stats = stats_from_table(shift)
    assert (stats.num_cycles, stats.sum_cycle_lengths, stats.max_tail) == (1, 11, 0)


def test_graph_stats_every_vertex_reaches_cycle():
    f = poly_map(211, 2, 5, 17)
    stats = dynamics.functional_graph_stats(f)
    table = dynamics.step_table(f)
    cyclic_bound = stats.sum_cycle_lengths
    assert cyclic_bound <= 211
    for start in range(211):
        x = int(start)
        for _ in range(212):
            x = int(table[x])
        # after p steps every walk must sit inside a cycle
        probe = x
        for _ in range(cyclic_bound):
            probe = int(table[probe])
            if probe == x:
                break
        else:
            pytest.fail(f"vertex {start} never settled into a cycle")


def test_source_paths_cover_every_noncyclic_vertex():
    # walking from each in-degree-zero vertex to its cycle must visit the
    # whole non-cyclic part of the graph
    for p, d, A, C in ((97, 2, 3, 11), (101, 4, 7, 2), (61, 3, 5, 9)):
        f = poly_map(p, d, A, C)
        table = dynamics.step_table(f).tolist()
        cyclic = set()
        for start in range(p):
            x = start
            for _ in range(p):
                x = table[x]
            cycle = {x}
            y = table[x]
            while y != x:
                cycle.add(y)
                y = table[y]
            cyclic |= cycle
        indeg = [0] * p
        for v in table:
            indeg[v] += 1
        visited = set()
        for source in (v for v in range(p) if indeg[v] == 0):
            x = source
            while x not in cyclic:
                visited.add(x)
                x = table[x]
        assert visited == set(range(p)) - cyclic


@settings(max_examples=150, deadline=None)
@given(f=maps_to_300())
@example(f=poly_map(293, 2, 17, 0))  # C = 0: 0 is a fixed point
@example(f=poly_map(293, 2, 292, 5))  # A = p - 1
@example(f=poly_map(293, 2, 292, 0))
@example(f=poly_map(3, 2, 1, 1))
@example(f=poly_map(3, 2, 2, 2))
@example(f=poly_map(3, 2, 2, 0))
def test_orbit_matches_hash_oracle(f):
    # at d = 2 the orbit and the precondition walk the normal form
    # y**2 + A*C, the conjugate of f by x -> A*x; the oracles walk f itself
    orbit = dynamics.orbit_of_zero(f)
    assert (orbit.tail_len, orbit.cycle_len) == brute_orbit(f)
    iterates = [0]
    for N in range(orbit.collision_index + 3):
        held = dynamics.check_precondition(f, N)
        assert held == (N < orbit.collision_index) == (len(set(iterates)) == N + 1), N
        iterates.append(eval_map(f, iterates[-1]))


def moment_oracle(f, N, k):
    """The p-term reference loop: W(N, k) straight from the preimage counts."""
    return sum(int(c) ** k for c in dynamics.preimage_distribution(f, N))


@st.composite
def small_maps(draw):
    p = draw(st.sampled_from([5, 7, 13, 17, 29, 97, 101]))
    d = draw(st.sampled_from([d for d in (2, 3, 4) if (p - 1) % d == 0]))
    A = draw(st.integers(min_value=1, max_value=p - 1))
    C = draw(st.integers(min_value=0, max_value=p - 1))
    return poly_map(p, d, A, C)


@settings(max_examples=60, deadline=None)
@given(f=small_maps(), N=st.integers(min_value=0, max_value=3),
       k=st.integers(min_value=0, max_value=6))
def test_moment_matches_pointwise_oracle(f, N, k):
    assert dynamics.moment_w(f, N, k) == moment_oracle(f, N, k)


@settings(max_examples=40, deadline=None)
@given(f=small_maps(), N=st.integers(min_value=0, max_value=3))
def test_zero_count_identity_matches_pointwise_oracle(f, N):
    coeffs = dynamics.q_coeffs(f.d, N)
    counts = dynamics.preimage_distribution(f, N)
    direct = int(np.count_nonzero(counts == 0))
    via_q = sum(c * moment_oracle(f, N, k) for k, c in enumerate(coeffs))
    assert dynamics.zero_count_identity(f, N) == (direct, via_q)


# depth 1, which builds no table, and N - 1 with few and with many binary
# digits set, on either side of each power of two
PROFILE_DEPTHS = sorted(
    {0, 1, 2, 3, *(n for j in range(1, 12) for n in (2**j - 1, 2**j, 2**j + 1))}
)


@settings(max_examples=80, deadline=None)
@given(f=maps_to_300())
@example(f=F5)
@example(f=poly_map(7, 3, 2, 0))
@example(f=poly_map(257, 256, 3, 5))
@example(f=poly_map(293, 2, 1, 0))
@example(f=poly_map(281, 5, 4, 280))
def test_profile_matches_full_domain_histogram(f):
    # apply_map_oracle's pass loop, walked once through the sorted depths
    table = dynamics.step_table(f)
    arr = np.arange(f.p, dtype=np.int64)
    depth = 0
    for N in PROFILE_DEPTHS:
        for _ in range(N - depth):
            arr = table[arr]
        depth = N
        expected = np.bincount(np.bincount(arr, minlength=f.p))
        assert np.array_equal(dynamics._profile(f, N), expected), N


def test_profile_cache_keys_on_map_and_depth():
    dynamics._profile.cache_clear()
    f, g = poly_map(101, 4, 3, 7), poly_map(101, 4, 3, 7)
    assert f == g and f is not g
    assert dynamics.moment_w(f, 3, 2) == moment_oracle(f, 3, 2)
    assert dynamics.moment_w(g, 3, 3) == moment_oracle(f, 3, 3)
    assert dynamics._profile.cache_info().hits == 1
    for other in (poly_map(101, 4, 5, 7), poly_map(101, 4, 3, 8)):
        assert dynamics.moment_w(other, 3, 2) == moment_oracle(other, 3, 2)
        assert dynamics._profile.cache_info().hits == 1


def test_profile_is_read_only():
    # N = 0 is the closed form [0, p]: rho_0 is 1 everywhere
    f = poly_map(13, 3, 2, 5)
    assert dynamics._profile(f, 0).tolist() == [0, 13]
    for N in (0, 2):
        profile = dynamics._profile(f, N)
        assert not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 1


@pytest.mark.parametrize("N", [2, 3, 4])
def test_profile_between_kernels_on_the_shared_work_arrays(N):
    # _profile counts into the spare work array _iterate left free, and
    # image_size and the graph stats run on the same arrays; interleaved over
    # two maps at each of two primes, the larger one past a block seam of the
    # power table, each result must be that of its own map
    maps = [poly_map(p, d, A, C) for p, d in ((65539, 3), (1009, 2))
            for A, C in ((12345 % p, 678), (5, 0))]
    expected = {f: np.bincount(dynamics.preimage_distribution(f, N)) for f in maps}
    dynamics._profile.cache_clear()
    for i, f in enumerate(maps + maps[::-1] + maps[::2] + maps[1::2]):
        calls = [
            lambda: np.array_equal(dynamics._profile(f, N), expected[f]),
            lambda: dynamics.image_size(f, N) == f.p - expected[f][0],
            lambda: dynamics.functional_graph_stats(f) == stats_from_table(dynamics.step_table(f)),
        ]
        for call in calls[i % 3:] + calls[: i % 3]:
            assert call(), (f, N)


def test_warm_kernels_allocate_no_array_of_the_domain():
    # once the work arrays hold one map of a prime, the image, graph and
    # moment kernels on another map of it allocate nothing of order p: their
    # peak of fresh allocations stays under 1 byte per residue
    p = 100003

    def kernels(f):
        return dynamics.functional_graph_stats(f), dynamics.moment_w(f, 3, 2), dynamics.image_size(f, 3)

    kernels(poly_map(p, 2, 12345, 678))
    tracemalloc.start()
    try:
        kernels(poly_map(p, 2, 54321, 876))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p, peak


def test_moments_refuse_negative_depth_and_recover():
    f = poly_map(29, 4, 3, 5)
    with pytest.raises(ValueError):
        dynamics.moment_w(f, -1, 2)
    assert dynamics.moment_w(f, 2, 2) == moment_oracle(f, 2, 2)
    with pytest.raises(ValueError):
        dynamics.zero_count_identity(f, -1)
    direct, via_q = dynamics.zero_count_identity(f, 1)
    assert direct == f.p - dynamics.image_size(f, 1) and via_q == direct


def graph_stats_oracle(table):
    """The path-stack reference loop for stats_from_table.

    Single pass with an explicit path stack: every vertex is classified as
    cyclic (distance 0) or assigned its distance to the first cyclic vertex.
    """
    p = len(table)
    UNSEEN, ON_PATH = -1, -2
    # dist[x] >= 0 once classified; cyclic vertices have dist 0
    dist = [UNSEEN] * p
    cyclic = bytearray(p)
    num_cycles = 0
    sum_cycle = 0
    for start in range(p):
        if dist[start] != UNSEEN:
            continue
        path = []
        x = start
        while dist[x] == UNSEEN:
            dist[x] = ON_PATH
            path.append(x)
            x = int(table[x])
        if dist[x] == ON_PATH:
            # new cycle: from the first occurrence of x on the path to its end
            cut = path.index(x)
            cycle_len = len(path) - cut
            num_cycles += 1
            sum_cycle += cycle_len
            for v in path[cut:]:
                dist[v] = 0
                cyclic[v] = 1
            path = path[:cut]
            base = 0
        else:
            base = dist[x]
        for i, v in enumerate(reversed(path)):
            dist[v] = base + i + 1
    indegree = np.bincount(table, minlength=p)
    sources = np.flatnonzero(indegree == 0)
    dist_arr = np.asarray(dist, dtype=np.int64)
    if sources.size:
        source_dists = dist_arr[sources]
        sum_pre = int(source_dists.sum())
        max_tail = int(source_dists.max())
    else:
        sum_pre = 0
        max_tail = 0
    return dynamics.GraphStats(
        num_cycles=num_cycles,
        sum_cycle_lengths=sum_cycle,
        sum_precyclic_path_lengths=sum_pre,
        max_tail=max_tail,
    )


@st.composite
def successor_tables(draw):
    """Random maps, random permutations, the constant map, the identity and
    polynomial step tables."""
    kind = draw(st.sampled_from(["map", "permutation", "constant", "identity", "poly"]))
    if kind == "poly":
        return dynamics.step_table(draw(small_maps()))
    p = draw(st.integers(min_value=1, max_value=300))
    if kind == "map":
        values = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    elif kind == "permutation":
        values = draw(st.permutations(range(p)))
    elif kind == "constant":
        values = [draw(st.integers(0, p - 1))] * p
    else:
        values = range(p)
    return np.array(values, dtype=np.int64)


def _cycle(p):
    return (np.arange(p, dtype=np.int64) + 1) % p


def _tail_into_fixed_point(p):
    # p-1 -> p-2 -> ... -> 0 -> 0: one tail of length p - 1
    return np.maximum(np.arange(p, dtype=np.int64) - 1, 0)


@settings(max_examples=300, deadline=None)
@given(table=successor_tables())
@example(table=_cycle(5))
@example(table=_cycle(17))
@example(table=_cycle(33))
@example(table=_tail_into_fixed_point(5))
@example(table=_tail_into_fixed_point(64))
@example(table=_tail_into_fixed_point(300))
def test_graph_stats_match_path_stack_oracle(table):
    assert stats_from_table(table) == graph_stats_oracle(table)


@settings(max_examples=150, deadline=None)
@given(f=maps_to_300())
@example(f=poly_map(293, 2, 5, 17))  # d = 2: S_1 labelled by x <= p//2
@example(f=poly_map(197, 2, 3, 0))  # C = 0: 0 is a fixed point
@example(f=poly_map(211, 5, 4, 210))  # odd d: S_1 labelled through rank
@example(f=poly_map(257, 256, 3, 5))  # d = p - 1: S_1 = {C, A + C}
def test_functional_graph_stats_match_path_stack_oracle(f):
    table = np.array([eval_map(f, x) for x in range(f.p)], dtype=np.int64)
    assert dynamics.functional_graph_stats(f) == graph_stats_oracle(table)


@st.composite
def quadratic_maps(draw):
    """d = 2 over primes p <= 300, with A = p - 1 and C = 0 (so A*C = 0)
    drawn as often as any other value."""
    p = draw(st.sampled_from(PRIMES_TO_300))
    A = draw(st.one_of(st.just(p - 1), st.integers(min_value=1, max_value=p - 1)))
    C = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1)))
    return poly_map(p, 2, A, C)


@settings(max_examples=60, deadline=None)
@given(f=quadratic_maps())
@example(f=poly_map(3, 2, 2, 0))
@example(f=poly_map(293, 2, 292, 0))
@example(f=poly_map(293, 2, 292, 5))
@example(f=poly_map(281, 2, 17, 0))
@example(f=poly_map(281, 2, 17, 280))  # x**2 + A*C runs past p for most x
def test_degree_two_kernels_match_normal_form_and_original_coordinates(f):
    # the d = 2 kernels run on the normal form x**2 + A*C, the conjugate of f
    # by x -> A*x; the oracles walk f itself in its own coordinates
    p = f.p
    normal = poly_map(p, 2, 1, f.A * f.C % p)
    table = np.array([eval_map(f, x) for x in range(p)], dtype=np.int64)
    stats = graph_stats_oracle(table)
    assert dynamics.functional_graph_stats(f) == stats
    assert dynamics.functional_graph_stats(normal) == stats
    arr, depth = np.arange(p, dtype=np.int64), 0
    for N in EXPLICIT_DEPTHS:
        for _ in range(N - depth):
            arr = table[arr]
        depth = N
        counts = np.bincount(arr, minlength=p)
        image = image_size_oracle(f, N)
        assert image == int(np.count_nonzero(counts))
        assert dynamics.image_size(f, N) == image == dynamics.image_size(normal, N), N
        profile = np.bincount(counts)
        assert np.array_equal(dynamics._profile(f, N), profile), N
        assert np.array_equal(dynamics._profile(normal, N), profile), N


def _cycle_with_tail(cycle, tail):
    """A path 0 -> 1 -> ... -> tail - 1 into the cycle tail -> tail + 1 ->
    ... -> tail + cycle - 1 -> tail: vertex 0 is at distance `tail`, and the
    cyclic vertices do not carry the labels 0..cycle-1 unless tail == 0."""
    succ = np.arange(1, tail + cycle + 1, dtype=np.int64)
    succ[-1] = tail
    return succ


@pytest.mark.parametrize("i", range(8))
def test_graph_stats_at_doubling_boundaries(i):
    # the distance rounds stop once 2**rounds reaches the longest tail, and
    # the cycle rounds once 2**rounds exceeds the cyclic count
    near = (2**i - 1, 2**i, 2**i + 1)
    for tail in near:
        for cycle in {1, *near} - {0}:
            table = _cycle_with_tail(cycle, tail)
            expected = dynamics.GraphStats(
                num_cycles=1, sum_cycle_lengths=cycle,
                sum_precyclic_path_lengths=tail, max_tail=tail)
            assert stats_from_table(table) == expected, (cycle, tail)
            assert graph_stats_oracle(table) == expected


def test_graph_stats_on_all_cyclic_permutation():
    lengths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]
    labels = np.random.default_rng(0).permutation(sum(lengths))
    table = np.empty(len(labels), dtype=np.int64)
    start = 0
    for length in lengths:
        block = labels[start:start + length]
        table[block] = np.roll(block, -1)
        start += length
    expected = dynamics.GraphStats(
        num_cycles=len(lengths), sum_cycle_lengths=len(labels),
        sum_precyclic_path_lengths=0, max_tail=0)
    assert stats_from_table(table) == expected
    assert graph_stats_oracle(table) == expected


@pytest.mark.parametrize("p", [2, 3, 64, 65, 128, 129, 300])
def test_graph_stats_single_fixed_point_with_longest_tail(p):
    # 0 -> 1 -> ... -> p-1 -> p-1: the fixed point carries the last label
    table = np.minimum(np.arange(p, dtype=np.int64) + 1, p - 1)
    expected = dynamics.GraphStats(
        num_cycles=1, sum_cycle_lengths=1,
        sum_precyclic_path_lengths=p - 1, max_tail=p - 1)
    assert stats_from_table(table) == expected


def eval_table(f):
    """x -> f(x) from eval_map alone: no array of the kernels behind it."""
    return np.array([eval_map(f, x) for x in range(f.p)], dtype=np.int64)


def check_against_eval_map(f, kind, N, k):
    table = eval_table(f)
    if kind == "step":
        assert dynamics.step_table(f).tolist() == table.tolist()
    elif kind == "graph":
        assert dynamics.functional_graph_stats(f) == graph_stats_oracle(table)
    else:
        values = np.arange(f.p)
        for _ in range(N):
            values = table[values]
        counts = np.bincount(values, minlength=f.p)
        if kind == "image":
            assert dynamics.image_size(f, N) == np.count_nonzero(counts)
        else:
            assert dynamics.moment_w(f, N, k) == sum(int(c) ** k for c in counts)


@st.composite
def kernel_calls(draw):
    return (draw(maps_to_300()), draw(st.sampled_from(["image", "moment", "graph", "step"])),
            draw(st.sampled_from([0, 1, 2, 3, 5, 8])), draw(st.integers(min_value=0, max_value=3)))


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(kernel_calls(), min_size=2, max_size=8), fresh=st.booleans())
# from empty work arrays, a small prime and then larger ones: every work
# array and the power table grow
@example(calls=[(poly_map(13, 2, 3, 5), "graph", 0, 0), (poly_map(13, 4, 2, 1), "image", 2, 0),
                (poly_map(293, 2, 7, 11), "image", 3, 0), (poly_map(293, 2, 7, 11), "graph", 0, 0),
                (poly_map(293, 2, 5, 0), "moment", 8, 2)], fresh=True)
# a smaller prime after a larger one, and degrees of one prime interleaved
# on the one-entry power table
@example(calls=[(poly_map(293, 4, 3, 1), "moment", 5, 3), (poly_map(293, 2, 3, 1), "graph", 0, 0),
                (poly_map(13, 2, 6, 7), "image", 8, 0), (poly_map(13, 3, 6, 7), "step", 0, 0),
                (poly_map(13, 2, 6, 7), "graph", 0, 0), (poly_map(13, 4, 6, 7), "image", 1, 0),
                (poly_map(13, 2, 1, 1), "moment", 3, 2)], fresh=False)
def test_kernels_match_eval_map_after_any_sequence_of_calls(calls, fresh):
    # the work arrays and the power table carry over from call to call: each
    # result must be that of its own map, whatever map came before
    if fresh:
        dynamics._WORK.clear()
        dynamics._power_table.cache_clear()
    for f, kind, N, k in calls:
        check_against_eval_map(f, kind, N, k)
