import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from polyiter import recur
from polyiter.errors import BudgetError

from oracles import dense_e_coeffs


def test_mu_sequence_pinned_values():
    assert recur.mu_sequence(2, 3) == (
        Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(39, 128),
    )
    assert recur.mu_sequence(3, 2) == (
        Fraction(1), Fraction(1, 3), Fraction(19, 81),
    )


def test_mu_sequence_invariants():
    # exact denominators grow like d**(d**r); keep ranges inside the cap
    for d, r_max in ((2, 12), (3, 12), (4, 10), (5, 6)):
        mus = recur.mu_sequence(d, r_max)
        assert mus[0] == 1
        assert mus[1] == Fraction(1, d)
        for r in range(1, r_max + 1):
            assert d * mus[r] == 1 - (1 - mus[r - 1]) ** d
            assert 0 < mus[r] < mus[r - 1]


def test_mu_sequence_refuses_huge_levels():
    with pytest.raises(BudgetError):
        recur.mu_sequence(2, 10_000)


def test_mu_interval_encloses_exact():
    for d in (2, 3):
        exact = recur.mu_sequence(d, 14)
        scale = 1 << 128
        for r, (lo, hi) in enumerate(recur.mu_interval_sequence(d, 14)):
            assert Fraction(lo, scale) <= exact[r] <= Fraction(hi, scale)
            assert hi - lo <= 4 * (r + 1)  # a few ulps per level at most


def reciprocals(d: int, R: int) -> list[Fraction]:
    """1/mu_r for r = 0..R, exact."""
    return [1 / mu for mu in recur.mu_sequence(d, R)]


def test_q_bound_examples():
    # 1/mu_r >= (d-1)*r/2 + 1 at every level
    for d, R in ((2, 0), (2, 3), (3, 2)):
        q = reciprocals(d, R)
        assert all(q[r] >= Fraction((d - 1) * r, 2) + 1 for r in range(R + 1))
    mus = recur.mu_sequence(2, 3)
    assert 1 / mus[3] == Fraction(128, 39)
    mus3 = recur.mu_sequence(3, 2)
    assert 1 / mus3[2] == Fraction(81, 19)


def test_q_increment():
    # each step of 1/mu_r gains at least (d-1)/2
    for d, R in ((2, 12), (3, 8), (5, 6)):
        q = reciprocals(d, R)
        assert all(q[r + 1] - q[r] >= Fraction(d - 1, 2) for r in range(R))


def asymptotic_table(d: int, R: int) -> list[Fraction]:
    """Exact ratios mu_r * (d-1) * r / 2 for r = 0..R (small R only)."""
    mus = recur.mu_sequence(d, R)
    return [mus[r] * (d - 1) * r / 2 for r in range(R + 1)]


def ratio_bounds(d: int, R: int) -> list[tuple[Fraction, Fraction]]:
    """The certified enclosures of mu_r scaled to mu_r * (d-1) * r / 2."""
    scale = 1 << 128
    return [(Fraction(lo * (d - 1) * r, 2 * scale), Fraction(hi * (d - 1) * r, 2 * scale))
            for r, (lo, hi) in enumerate(recur.mu_interval_sequence(d, R))]


def test_asymptotic_table_exact_values():
    table = asymptotic_table(2, 3)
    assert table[1] == Fraction(1, 4)
    assert table[3] == Fraction(117, 256)
    bounds = ratio_bounds(2, 3)
    for r, exact in ((1, Fraction(1, 4)), (3, Fraction(117, 256))):
        lo, hi = bounds[r]
        assert lo <= exact <= hi


def test_asymptotic_bounds_certified():
    bounds = ratio_bounds(2, 300)
    exact = asymptotic_table(2, 20)
    for r in range(21):
        lo, hi = bounds[r]
        assert lo <= exact[r] <= hi
    lo200, hi200 = bounds[200]
    assert Fraction(9, 10) <= lo200 and hi200 <= Fraction(11, 10)


def test_e_coeffs_base_and_small_levels():
    base = recur.e_coeffs(2, -1)
    assert base.v == (Fraction(0), Fraction(1))
    level0 = recur.e_coeffs(2, 0)
    assert level0.v == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    level1 = recur.e_coeffs(2, 1)
    assert level1.v[0] == Fraction(5, 8)
    assert level1.v[2] == Fraction(1, 4)
    assert level1.v[4] == Fraction(1, 8)


def test_e_coeffs_invariants():
    for d, r_max in ((2, 6), (3, 4)):
        v0_prev = Fraction(0)
        mus = recur.mu_sequence(d, r_max + 1)
        for r in range(0, r_max + 1):
            table = recur.e_coeffs(d, r)
            assert len(table.v) == d ** (r + 1) + 1
            assert table.total() == 1
            assert all(c >= 0 for c in table.v)
            assert table.v[0] == (d - 1 + v0_prev**d) / d
            assert mus[r + 1] == 1 - table.v[0]
            v0_prev = table.v[0]


def _convolve(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return tuple(out)


@lru_cache(maxsize=None)
def e_coeffs_oracle(d: int, r: int) -> tuple[Fraction, ...]:
    """The reference recursion: level r is the d-fold Fraction convolution of
    level r-1, divided by d, with (d-1)/d added at index 0."""
    if r == -1:
        return (Fraction(0), Fraction(1))
    prev = e_coeffs_oracle(d, r - 1)
    power = prev
    for _ in range(d - 1):
        power = _convolve(power, prev)
    v = [c / d for c in power]
    v[0] += Fraction(d - 1, d)
    return tuple(v)


# every (d, r) with d**(r+1) <= 512 (d = 2 reaches r = 8), plus two tables at
# the cap with large d
ORACLE_MATRIX = [(d, r) for d in range(2, 513) for r in range(-1, 9) if d ** (r + 1) <= 512]
ORACLE_MATRIX += [(64, 1), (4096, 0)]


def test_e_coeffs_match_convolution_oracle():
    for d, r in ORACLE_MATRIX:
        table = recur.e_coeffs(d, r)
        assert (table.d, table.r) == (d, r)
        assert table.v == e_coeffs_oracle(d, r), (d, r)


def test_e_coeffs_match_the_dense_kronecker_oracle():
    # past the Fraction matrix: the algebra workload's three tables, and two
    # more of 2049 and 4097 entries, against the power over every index
    for d, r in ((2, 9), (3, 5), (4, 4), (2, 10), (16, 2)):
        assert recur.e_coeffs(d, r).v == dense_e_coeffs(d, r), (d, r)
    # from level 0 on, each level is a polynomial in e^(d*X)
    for d, r in ORACLE_MATRIX:
        if r >= 0:
            v = recur.e_coeffs(d, r).v
            assert not any(v[m] for m in range(len(v)) if m % d), (d, r)


def test_e_coeffs_cap():
    with pytest.raises(BudgetError):
        recur.e_coeffs(2, 15)


def test_u_values():
    assert recur.u_value(2, 1, 2) == 3
    assert recur.u_value(2, 1, 3) == 10
    assert recur.u_value(2, 0, 3) == 4
    for d in (2, 3):
        for r in (-1, 0, 1, 2):
            assert recur.u_value(d, r, 0) == 1
            assert recur.u_value(d, r, 1) == 1
        for k in range(5):
            assert recur.u_value(d, -1, k) == 1


def u_bound(d: int, r: int, k: int) -> int:
    """C(k(k-1)/2, k-1) * (r+2)**(k-1) * d**(k-1)."""
    return math.comb(k * (k - 1) // 2, k - 1) * (r + 2) ** (k - 1) * d ** (k - 1)


def test_u_bound_examples():
    assert recur.u_value(2, 1, 1) <= u_bound(2, 1, 1) == 1
    assert recur.u_value(2, 1, 2) <= u_bound(2, 1, 2) == 6  # 3 <= 6
    assert recur.u_value(2, 0, 3) <= u_bound(2, 0, 3) == 48  # 4 <= 48
    for d in (2, 3):
        for r in (-1, 0, 1, 2):
            for k in (1, 2, 3, 4):
                assert recur.u_value(d, r, k) <= u_bound(d, r, k)


def partitions_into_blocks(k: int, t: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..k} into exactly t blocks, each a sorted
    tuple of sorted blocks."""
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(elem: int, blocks: list[list[int]]):
        if elem > k:
            if len(blocks) == t:
                out.append(tuple(sorted(tuple(b) for b in blocks)))
            return
        # prune: remaining elements cannot fill the missing blocks
        if len(blocks) + (k - elem + 1) < t:
            return
        for b in blocks:
            b.append(elem)
            extend(elem + 1, blocks)
            b.pop()
        if len(blocks) < t:
            blocks.append([elem])
            extend(elem + 1, blocks)
            blocks.pop()

    extend(1, [])
    return out


def test_partitions_into_blocks():
    parts = partitions_into_blocks(3, 2)
    assert len(parts) == 3
    assert all(len(p) == 2 for p in parts)
    assert len(partitions_into_blocks(4, 2)) == 7  # Stirling S(4,2)
    assert len(partitions_into_blocks(4, 3)) == 6


def test_block_size_classes():
    classes = dict(recur.block_size_classes(3, 2))
    assert classes == {(2, 1): 3}
    classes4 = dict(recur.block_size_classes(4, 2))
    assert classes4 == {(3, 1): 4, (2, 2): 3}
    # class sizes must add up to the Stirling number
    assert sum(classes4.values()) == 7
    # every class count against the enumerated set partitions
    for k in range(1, 7):
        for t in range(1, k + 1):
            enumerated = Counter(tuple(sorted(map(len, part), reverse=True))
                                 for part in partitions_into_blocks(k, t))
            assert dict(recur.block_size_classes(k, t)) == enumerated, (k, t)


def test_partition_weight_helper():
    assert recur._multiset_weight((2, 1, 1)) == 2  # two singleton blocks
    assert recur._multiset_weight((2, 2, 2, 1)) == 6


def test_partition_recursion():
    assert recur.partition_recursion_check(2, 1, 1)  # both sides zero
    assert recur.partition_recursion_check(2, 1, 2)  # 3 - 2 = 1
    assert recur.partition_recursion_check(2, 1, 3)  # 10 - 4 = 6
    for d in (2, 3):
        for r in (0, 1, 2):
            for k in range(1, 6):
                assert recur.partition_recursion_check(d, r, k)
