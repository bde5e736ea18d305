"""Exact-rational recursions: the density sequence mu_r and its certified
enclosures, the exponential-series coefficient tables v(r, m), the
labeled-graph counts U(r, k) they encode, and the set-partition recursion
tying levels together.  The bounds the paper proves on these values are
compared in lab's verify checks.

Everything here is exact integer or Fraction arithmetic; denominators grow
roughly like d**(d**r), so exact levels are capped and large-r questions go
through a certified fixed-point interval recursion instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetError

# Exact mu levels are refused once the denominator would pass ~8 MB.
MU_EXACT_BIT_CAP = 2**26
# Largest v-table (d**(r+1) + 1 entries) built exactly.
COEFF_TABLE_CAP = 4096


@dataclass(frozen=True)
class CoeffTable:
    """v[m] = coefficient of e^(m*X) in the level-r exponential series."""

    d: int
    r: int
    v: tuple[Fraction, ...]

    def total(self) -> Fraction:
        return sum(self.v, Fraction(0))


def _multiset_weight(sizes: tuple[int, ...]) -> int:
    """S = product of s_n! where s_n counts blocks of size n."""
    return math.prod(math.factorial(c) for c in Counter(sizes).values())


def _mu_exact_cap(d: int) -> int:
    # denominator bits at level r are ~ d**r * log2(d)
    r = 0
    bits = 1.0
    while bits * math.log2(d) <= MU_EXACT_BIT_CAP:
        r += 1
        bits *= d
    return r


def mu_sequence(d: int, R: int) -> tuple[Fraction, ...]:
    """(mu_0, ..., mu_R): mu_0 = 1 and d*mu_r = 1 - (1 - mu_{r-1})**d, exact
    rationals."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if R < 0:
        raise ValueError("level must be nonnegative")
    if R > _mu_exact_cap(d):
        raise BudgetError(
            f"exact mu denominators blow past the bit cap at R={R} (d={d}); "
            "use mu_interval_sequence for large levels"
        )
    values = [Fraction(1)]
    for _ in range(R):
        values.append((1 - (1 - values[-1]) ** d) / d)
    return tuple(values)


def mu_interval_sequence(d: int, R: int, bits: int = 128) -> list[tuple[int, int]]:
    """Certified enclosures of mu_0..mu_R in fixed point at the given scale.

    Entry r is (lo, hi) with lo/2**bits <= mu_r <= hi/2**bits.  Each step
    rounds outward, and the recursion map is a contraction on [0, 1], so the
    enclosure stays a few ulps wide even after thousands of levels.
    """
    if d < 2 or R < 0:
        raise ValueError("need d >= 2 and R >= 0")
    scale = 1 << bits
    lo = hi = scale
    out = [(lo, hi)]
    denom = scale ** (d - 1)
    for _ in range(R):
        t_lo, t_hi = scale - hi, scale - lo
        pow_lo = t_lo**d // denom
        pow_hi = -((-(t_hi**d)) // denom)
        y_lo, y_hi = scale - pow_hi, scale - pow_lo
        lo, hi = y_lo // d, -((-y_hi) // d)
        out.append((lo, hi))
    return out


def check_degree_level(d: int, r: int) -> None:
    """Refuse a degree below 2 or a graph level below -1 with ValueError."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if r < -1:
        raise ValueError("level must be at least -1")


@lru_cache(maxsize=None)
def e_coeffs(d: int, r: int) -> CoeffTable:
    """Coefficient vector of the level-r exponential series.

    Level -1 is the bare exponential (v[1] = 1).  Each later level L' is
    ((d-1) + L**d)/d of the level L before it, so level 0 is
    ((d-1) + s)/d in s = e^(d*X), and every level r >= 0 is a polynomial of
    degree d**r in s: v[m] = 0 unless d divides m.

    From level 0 on, the coefficients in s are integer numerators num over
    one common denominator den, which grows as den -> d * den**d.  The d-th
    power is one big-int power by Kronecker substitution: num is packed into
    an int with a slot of width bytes per coefficient, raised to the d, and
    unpacked.  The slots never carry: the numerators are nonnegative and sum
    to den, so every coefficient of the power is at most den**d, which fits
    in width bytes.  The numerators are spread to v[0], v[d], v[2d], ...
    """
    check_degree_level(d, r)
    if d ** (r + 1) > COEFF_TABLE_CAP:
        raise BudgetError(f"coefficient table size d**{r + 1} exceeds cap {COEFF_TABLE_CAP}")
    if r == -1:
        return CoeffTable(d=d, r=r, v=(Fraction(0), Fraction(1)))
    num, den = [d - 1, 1], d
    for _ in range(r):
        den_d = den**d
        width = (den_d.bit_length() + 7) // 8
        packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in num), "little")
        raw = (packed**d).to_bytes(width * (d * (len(num) - 1) + 1), "little")
        num = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
        num[0] += (d - 1) * den_d
        den = d * den_d
    v = [Fraction(0)] * (d * (len(num) - 1) + 1)
    v[::d] = [Fraction(c, den) for c in num]
    return CoeffTable(d=d, r=r, v=tuple(v))


@lru_cache(maxsize=None)
def u_value(d: int, r: int, k: int) -> int:
    """Number of complete proper labeled graphs at level r on k vertices,
    recovered as the k-th power moment of the coefficient table."""
    check_degree_level(d, r)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r == -1:
        return 1
    table = e_coeffs(d, r)
    total = sum(vm * m**k for m, vm in enumerate(table.v))
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(
            f"graph count U({r},{k}) for d={d} came out non-integral: {total}"
        )
    return int(total)


def block_size_classes(k: int, t: int) -> list[tuple[tuple[int, ...], int]]:
    """Size multisets (descending) of t-block partitions of {1..k}, with the
    number of set partitions in each class: k! / (S * prod of sizes!)."""
    classes: list[tuple[tuple[int, ...], int]] = []

    def descend(remaining: int, max_part: int, parts: list[int]):
        if len(parts) == t:
            if remaining == 0:
                sizes = tuple(parts)
                prod_fact = math.prod(math.factorial(n) for n in sizes)
                count = math.factorial(k) // (_multiset_weight(sizes) * prod_fact)
                classes.append((sizes, count))
            return
        slots_left = t - len(parts)
        for part in range(min(max_part, remaining - (slots_left - 1)), 0, -1):
            descend(remaining - part, part, parts + [part])

    descend(k, k, [])
    return classes


def partition_recursion_check(d: int, r: int, k: int) -> bool:
    """Level difference of graph counts vs the partition sum.

    U(r,k) - U(r-1,k) must equal, over 2 <= t <= d and one representative
    per block-size class, class_count * (d-1)!/(d-t)! * prod U(r-1, size).
    """
    if r < 0 or k < 1:
        raise ValueError("need r >= 0 and k >= 1")
    lhs = u_value(d, r, k) - u_value(d, r - 1, k)
    rhs = 0
    for t in range(2, min(d, k) + 1):
        eta_ways = math.factorial(d - 1) // math.factorial(d - t)
        for sizes, count in block_size_classes(k, t):
            prod = math.prod(u_value(d, r - 1, n) for n in sizes)
            rhs += count * eta_ways * prod
    return lhs == rhs
