"""Direct iteration of f(x) = A*x^d + C over the whole of F_p.

Images, orbits, preimage histograms, moments, the factorial-polynomial
zero-count identity, and functional-graph statistics.  Whole-domain passes
are numpy arrays of int64; with p < 2**31 every intermediate product fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .field import FieldParams, field_params

# Default cap on d**N for the factorial polynomial expansion.
DEFAULT_Q_DEGREE_CAP = 16


@dataclass(frozen=True)
class OrbitSummary:
    """Tail and cycle of the forward orbit of 0."""

    tail_len: int
    cycle_len: int

    @property
    def collision_index(self) -> int:
        # smallest j with f^j(0) equal to an earlier iterate
        return self.tail_len + self.cycle_len


@dataclass(frozen=True)
class PreimageDistribution:
    """counts[m] = number of x in F_p with f^N(x) = m."""

    counts: np.ndarray
    depth: int

    @property
    def p(self) -> int:
        return len(self.counts)

    def zero_count(self) -> int:
        return int(np.count_nonzero(self.counts == 0))


@dataclass(frozen=True)
class GraphStats:
    """Cycle/tree decomposition summary of the functional graph of f.

    num_cycles: number of distinct cycles.
    sum_cycle_lengths: number of cyclic vertices (the cycle lengths summed).
    sum_precyclic_path_lengths: over the in-degree-0 vertices, the sum of
        each one's distance to its cycle (0 when every vertex is cyclic).
    max_tail: the largest of those distances, over the same vertices.
    """

    num_cycles: int
    sum_cycle_lengths: int
    sum_precyclic_path_lengths: int
    max_tail: int


def poly_map(p: int, d: int, A: int, C: int) -> FieldParams:
    """The map f(x) = A*x^d + C, as its validated parameter bundle."""
    return field_params(p, d, A, C)


def eval_map(f: FieldParams, x: int) -> int:
    return (f.A * pow(x % f.p, f.d, f.p) + f.C) % f.p


# One entry: sweeps visit every instance of a prime in a row, and a p-length
# table per slot must not pile up across primes.
@lru_cache(maxsize=1)
def _power_table(p: int, e: int) -> np.ndarray:
    """x -> x**e mod p for all residues, for e >= 1: left-to-right
    square-and-multiply on arrays."""
    base = np.arange(p, dtype=np.int64)
    result = base
    for bit in bin(e)[3:]:
        result = result * result % p
        if bit == "1":
            result = result * base % p
    result.setflags(write=False)
    return result


def step_table(f: FieldParams) -> np.ndarray:
    """x -> f(x) for every residue, as one vectorized pass."""
    table = (f.A * _power_table(f.p, f.d) + f.C) % f.p
    table.setflags(write=False)
    return table


def _iterate(table: np.ndarray, arr: np.ndarray, N: int) -> np.ndarray:
    """arr mapped N >= 1 times through table, by binary powering of the
    table: floor(log2 N) + popcount(N) gathers, no square after the top bit."""
    while True:
        if N & 1:
            arr = table[arr]
        N >>= 1
        if not N:
            return arr
        table = table[table]


def apply_map_to_domain(f: FieldParams, N: int) -> np.ndarray:
    """Array of f^N(x) for all x, by binary powering of the step table."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    arr = np.arange(f.p, dtype=np.int64)
    return _iterate(step_table(f), arr, N) if N else arr


def _image_from_table(table: np.ndarray, N: int) -> int:
    """#f^N(F_p) for N >= 1, as #f^(N-1)(S_1): S_1 = f(F_p) is read off a
    hit mask, so the first gather over its (p-1)/d + 1 points walks the table
    in ascending order, and the values are counted on the cleared mask."""
    hit = np.zeros(len(table), dtype=bool)
    hit[table] = True
    if N > 1:
        image = np.flatnonzero(hit)
        hit[:] = False
        hit[_iterate(table, image, N - 1)] = True
    return int(np.count_nonzero(hit))


def image_size(f: FieldParams, N: int) -> int:
    if N < 0:
        raise ValueError("depth must be nonnegative")
    return _image_from_table(step_table(f), N) if N else f.p


def preimage_distribution(f: FieldParams, N: int) -> PreimageDistribution:
    arr = apply_map_to_domain(f, N)
    counts = np.bincount(arr, minlength=f.p)
    counts.setflags(write=False)
    return PreimageDistribution(counts=counts, depth=N)


def moment_w(f: FieldParams, N: int, k: int) -> int:
    """W(N, k) = sum over m of rho_N(m)**k, with 0**0 = 1 (so W(N,0) = p)."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return _power_sum(np.bincount(preimage_distribution(f, N).counts), k)


def _power_sum(profile: np.ndarray, k: int) -> int:
    """sum over m of rho_N(m)**k from the preimage profile n_j = #{m :
    rho_N(m) = j}, as sum_j n_j * j**k: d**N + 1 terms instead of p.
    Python ints, since j**k overflows int64 quickly; 0**0 = 1."""
    return sum(int(n) * j**k for j, n in enumerate(profile))


def orbit_of_zero(f: FieldParams) -> OrbitSummary:
    """Brent's scheme: power-of-two teleports find the period, then a
    synchronized scan finds the tail.  Constant memory; the step is
    eval_map inlined on locals, since a call per step costs more than it."""
    p, d, A, C = f.p, f.d, f.A, f.C
    power = lam = 1
    tortoise, hare = 0, C % p  # f(0)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = (A * pow(hare, d, p) + C) % p
        lam += 1
    tortoise = hare = 0
    for _ in range(lam):
        hare = (A * pow(hare, d, p) + C) % p
    mu = 0
    while tortoise != hare:
        tortoise = (A * pow(tortoise, d, p) + C) % p
        hare = (A * pow(hare, d, p) + C) % p
        mu += 1
    return OrbitSummary(tail_len=mu, cycle_len=lam)


def check_precondition(f: FieldParams, N: int) -> bool:
    """True iff 0, f(0), ..., f^N(0) are pairwise distinct."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    p, d, A, C = f.p, f.d, f.A, f.C
    seen = set()
    x = 0
    for _ in range(N + 1):
        if x in seen:
            return False
        seen.add(x)
        x = (A * pow(x, d, p) + C) % p
    return True


@lru_cache(maxsize=None)
def q_coeffs(d: int, N: int, degree_cap: int = DEFAULT_Q_DEGREE_CAP) -> tuple[Fraction, ...]:
    """Exact coefficients of (1/D!) * prod_{j=1..D} (j - T) with D = d**N.

    The polynomial is 1 at T=0 and 0 at T=1..D, which turns moment sums
    into exact zero-preimage counts.
    """
    D = d**N
    if D > degree_cap:
        raise BudgetError(f"factorial polynomial degree {D} exceeds cap {degree_cap}")
    # integer expansion of prod (j - T), then divide by D!
    coeffs = [1]
    for j in range(1, D + 1):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += j * c
            nxt[i + 1] -= c
        coeffs = nxt
    fact = math.factorial(D)
    return tuple(Fraction(c, fact) for c in coeffs)


def zero_count_identity(
    f: FieldParams, N: int, degree_cap: int = DEFAULT_Q_DEGREE_CAP
) -> tuple[int, Fraction]:
    """(direct, via_q): unhit residues counted directly, and the same count
    recovered as sum_k C_k * W(N, k).  The contract is via_q == direct."""
    coeffs = q_coeffs(f.d, N, degree_cap)
    profile = np.bincount(preimage_distribution(f, N).counts)
    direct = int(profile[0])
    moments = [_power_sum(profile, k) for k in range(len(coeffs))]
    via_q = sum(ck * wk for ck, wk in zip(coeffs, moments))
    return direct, via_q


def _stats_from_table(table: np.ndarray) -> GraphStats:
    """Decompose a functional graph given its successor table, by pointer
    doubling over whole arrays (Wyllie's list ranking).

    With L = p.bit_length(), 2**L > p exceeds every tail.  L self-gathers give
    hop = f^(2**L), whose image is the cyclic set.  Rounds then sum the
    non-cyclic indicator (the distance to the cycle) over the window x, f(x),
    ..., f^(2**i - 1)(x) until the next window is cyclic everywhere, once 2**i
    reaches the longest tail.  On the cyclic set relabelled 0..m-1, f is a
    permutation, and the least label over 2**m.bit_length() > m steps ahead is
    its own label at exactly one vertex per cycle.
    """
    p = len(table)
    hop = table
    for _ in range(p.bit_length()):
        hop = hop[hop]
    cyclic = np.zeros(p, dtype=bool)
    cyclic[hop] = True
    dist = (~cyclic).astype(np.int64)
    hop = table
    while (ahead := dist[hop]).any():
        dist += ahead
        hop = hop[hop]
    cyc = np.flatnonzero(cyclic)
    m = len(cyc)
    rank = np.empty(p, dtype=np.int64)
    rank[cyc] = np.arange(m)
    hop = rank[table[cyc]]
    low = np.arange(m)
    for _ in range(m.bit_length()):
        low = np.minimum(low, low[hop])
        hop = hop[hop]
    hit = np.zeros(p, dtype=bool)
    hit[table] = True
    tails = dist[~hit]
    return GraphStats(
        num_cycles=int(np.count_nonzero(low == np.arange(m))),
        sum_cycle_lengths=m,
        sum_precyclic_path_lengths=int(tails.sum()),
        max_tail=int(tails.max(initial=0)),
    )


def functional_graph_stats(f: FieldParams) -> GraphStats:
    return _stats_from_table(step_table(f))
