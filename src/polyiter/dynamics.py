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

# Cap on d**N for the factorial polynomial expansion.
Q_DEGREE_CAP = 64


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


def _mirror(table: np.ndarray, p: int, odd: bool, shift: int) -> None:
    """Fill table[x] for x > p//2 in place from table[p - x]: the same value
    when the map is even in x, (shift - value) % p when it is odd (shift is
    then twice the value at 0).  The % p matters on a composite modulus,
    where an odd power of some x != 0 is 0."""
    half = p // 2 + 1
    high = table[half:]
    mirror = table[p - half:0:-1]  # table[p - x] for x = half..p-1
    if odd:
        np.subtract(shift, mirror, out=high)
        _reduce(high, p, _block(len(high)))
    else:
        high[:] = mirror


# Work arrays of the whole-domain kernels and the power table, kept across
# calls and primes: a fresh (p-1)/2-length array faults in new pages at every
# prime.  Each grows with 1/64 slack, since a sweep's primes ascend and an
# exact fit would reallocate at every prime.  A public function reads them
# before it returns and hands out counts and fresh arrays, never a view of one.
_WORK: dict[str, np.ndarray] = {}


def _work(name: str, n: int, dtype: type = np.int64) -> np.ndarray:
    """The first n entries of the work array name; their values are stale."""
    buf = _WORK.get(name)
    if buf is None or len(buf) < n:
        buf = _WORK[name] = np.empty(n + n // 64, dtype=dtype)
    return buf[:n]


# Entries per pass of the blocked elementwise loops: 256 KB of int64, so a
# block and the arrays it is read from stay in a core's L2 between passes,
# where a whole-array pass at p ~ 10**6 streams 4 MB through the cache.
_BLOCK = 2**15


def _block(n: int) -> np.ndarray:
    """The block-sized int64 scratch, min(n, _BLOCK) entries: the quotients
    of _reduce, the base of an odd step of _power_table and the fold's spare
    in _square_graph.  It is the head of the
    spare work array spare1, which holds nothing while a table or the d = 2
    graph is built, and which the whole-domain kernels touch in full anyway:
    its own buffer would add 256 KB to the peak RSS at p ~ 10**6."""
    return _work("spare1", min(n, _BLOCK))


def _reduce(y: np.ndarray, p: int, q: np.ndarray) -> np.ndarray:
    """y mod p in place, as y - p * (y // p), a block at a time with the
    quotients in q, of at least min(len(y), _BLOCK) entries.  Exact for every
    int64 y, negative ones too: floor division rounds toward -inf, so the
    result lies in [0, p)."""
    for start in range(0, len(y), _BLOCK):
        block = y[start : start + _BLOCK]
        quot = np.floor_divide(block, p, out=q[: len(block)])
        quot *= p
        block -= quot
    return y


# One entry, held in a work array: sweeps visit every map of a prime in a row,
# so the powers are computed once per (p, e), and no p-length table is kept.
@lru_cache(maxsize=1)
def _power_table(p: int, e: int) -> np.ndarray:
    """x -> x**e mod p for x <= p//2, for e >= 1, read-only and valid until
    the next call with another (p, e): left-to-right square-and-multiply in
    place, every product below p**2 < 2**62, one block at a time through all
    the steps from the base x = start + arange, recomputed into the quotient
    scratch for each odd step.  The arange is the block of spare1 after the
    quotient scratch, filled in place by a cumulative sum: a buffer of its
    own would fault in 256 KB of fresh pages at p ~ 10**6, or none, as the
    heap left by the import decides.  The rest follows from (p - x)**e =
    (-1)**e * x**e; callers that need it mirror."""
    n = p // 2 + 1
    m = min(n, _BLOCK)
    arange, power, q = _work("spare1", 2 * m)[m:], _work("power", n), _block(n)
    arange.fill(1)
    arange[0] = 0
    np.cumsum(arange, out=arange)
    for start in range(0, n, _BLOCK):
        low = power[start : start + _BLOCK]
        np.add(arange[: len(low)], start, out=low)
        for bit in bin(e)[3:]:
            _reduce(np.multiply(low, low, out=low), p, q)
            if bit == "1":
                base = np.add(arange[: len(low)], start, out=q[: len(low)])
                _reduce(np.multiply(low, base, out=low), p, q)
    power.setflags(write=False)
    return power


def _map_table(p: int, e: int, A: int, C: int) -> np.ndarray:
    """x -> (A*x**e + C) mod p for every residue, read-only: computed on
    x <= p//2 from the power table and mirrored from the value at p - x, the
    same for even e and 2C minus it for odd e."""
    table = np.empty(p, dtype=np.int64)
    low = table[: p // 2 + 1]
    np.multiply(_power_table(p, e), A, out=low)
    low += C
    _reduce(low, p, _block(len(low)))
    _mirror(table, p, e % 2 == 1, 2 * C)
    table.setflags(write=False)
    return table


def step_table(f: FieldParams) -> np.ndarray:
    """x -> f(x) for every residue."""
    return _map_table(f.p, f.d, f.A, f.C)


def _iterate(
    table: np.ndarray, n: int, work: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """table composed with itself n >= 0 more times, f**k for k = n + 1, by
    left-to-right binary powering of k: k.bit_length() - 1 squarings plus
    popcount(k) - 1 gathers of table.  Every pass writes into two arrays of
    table's length and apart from it, work or else the spare work arrays: a
    squaring into the one not read, a gather of table in place (take's
    output may be its index array).  table is only read; the result is table
    (n = 0) or one of the two."""
    if n == 0:
        return table
    a, b = work or (_work("spare0", len(table)), _work("spare1", len(table)))
    arr = table
    for bit in bin(n + 1)[3:]:
        arr = arr.take(arr, out=b if arr is a else a, mode="clip")
        if bit == "1":
            table.take(arr, out=arr, mode="clip")
    return arr


def apply_map_to_domain(f: FieldParams, N: int) -> np.ndarray:
    """Array of f^N(x) for all x, a fresh writable array: the step table
    composed with itself N - 1 times by _iterate, into two new arrays."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    if N == 0:
        return np.arange(f.p, dtype=np.int64)
    table = step_table(f)
    if N == 1:
        return table.copy()
    return _iterate(table, N - 1, (np.empty_like(table), np.empty_like(table)))


def _square_graph(f: FieldParams) -> np.ndarray:
    """g(x) = fold(x**2 + c) for x <= p//2, c = A*C mod p, in the work array
    "graph": x**2 + c - p, one addition to the squares, lies in [-p, p - 1)
    and is congruent to x**2 + c, the value at x of the normal form x**2 + c
    of a degree-2 map, and fold takes it in place to that value's label (see
    _induced_graph), min(r, p - r) for its residue r.  The addition and the
    fold run one block at a time."""
    p = f.p
    squares = _power_table(p, 2)
    n = len(squares)
    g, tmp, shift = _work("graph", n), _block(n), f.A * f.C % p - p
    for start in range(0, n, _BLOCK):
        block = np.add(squares[start : start + _BLOCK], shift, out=g[start : start + _BLOCK])
        np.abs(block, out=block)
        np.minimum(block, np.subtract(p, block, out=tmp[: len(block)]), out=block)
    return g


def _induced_graph(f: FieldParams) -> tuple[np.ndarray, int]:
    """(g, c): the graph f induces on S_1 = f(F_p), labelled 0..m1-1 with
    m1 = (p-1)/d + 1, and c, the label of f(0).

    At d = 2 it is read off the normal form x**2 + A*C, to which x -> A*x
    conjugates f.  That bijection fixes 0 and carries every f^N(F_p), the
    preimage counts and the cycles and tails of f onto the normal form's, so
    every quantity read from g is the same.  The normal form is even and
    one-to-one on x <= p//2, so label x stands for x**2 + A*C, f(0) has
    label 0 and g(x) = fold(x**2 + A*C): one addition to the squares and a
    fold, with no step table (_square_graph).  Any other d labels S_1 in
    ascending order through a rank array over the step table's hit mask,
    into a fresh g.  An even map (table[p - x] == table[x]) takes every value
    on x <= p//2, so only that half is marked."""
    if f.d == 2:
        return _square_graph(f), 0
    table = step_table(f)
    hit = np.zeros(f.p, dtype=bool)
    hit[table[: f.p // 2 + 1] if f.d % 2 == 0 else table] = True
    image = np.flatnonzero(hit)
    rank = np.empty(f.p, dtype=np.int64)
    rank[image] = np.arange(len(image))
    return rank[table[image]], int(rank[f.C])


def image_size(f: FieldParams, N: int) -> int:
    """#f^N(F_p).  As d | p - 1, x -> x**d is d-to-1 on F_p^*, and y -> A*y
    + C is a bijection of F_p, so #f(F_p) = (p-1)/d + 1 for every A and C.

    At d = 2, N = 2 it is a closed form too.  For C = 0, f^2 = A**3 * x**4
    takes (p-1)/gcd(4, p-1) + 1 values.  Otherwise, in the normal form
    x**2 + c, c = A*C != 0 (see _induced_graph), it counts the classes +-z
    of Z = c + squares: (p+1)/2 less half the z != 0 with z and -z in Z.
    With chi the Legendre symbol, that count is a sum of chi(z-c)*chi(-z-c),
    the Jacobi sum -chi(-1), plus the ends z = +-c and z = 0, so #f^2(F_p)
    = (3p + 4 + chi(-1) + 2*chi(-c) - 2*chi(-2c))/8.  The last two cancel
    when chi(2) = 1, p = +-1 mod 8, and add to 4*chi(-c) when p = +-3 mod 8.

    Deeper, and at any other d, #f^N(F_p) = #f^(N-1)(S_1) is the number of
    values g^(N-1) takes on the graph g induced on S_1 = f(F_p), counted on a
    mask over its (p-1)/d + 1 labels."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    if N == 0:
        return f.p
    if N == 1:
        return (f.p - 1) // f.d + 1
    if f.d == 2 and N == 2:
        p = f.p
        if f.C == 0:
            return (p - 1) // math.gcd(4, p - 1) + 1
        terms = 4 + (1 if p % 4 == 1 else -1)
        if p % 8 in (3, 5):
            terms += 4 if pow(-f.A * f.C % p, (p - 1) // 2, p) == 1 else -4
        return (3 * p + terms) // 8
    g, _ = _induced_graph(f)
    values = _iterate(g, N - 2)
    hit = _work("mask", len(g), bool)
    hit.fill(False)
    hit[values] = True
    return int(np.count_nonzero(hit))


def preimage_distribution(f: FieldParams, N: int) -> np.ndarray:
    """counts[m] = #{x in F_p : f^N(x) = m}, read-only, over the full domain."""
    counts = np.bincount(apply_map_to_domain(f, N), minlength=f.p)
    counts.setflags(write=False)
    return counts


# One entry, read by every moment of one (map, depth) in a row; it holds
# max rho_N + 1 <= min(d**N, p) + 1 integers whatever p is.
@lru_cache(maxsize=1)
def _profile(f: FieldParams, N: int) -> np.ndarray:
    """n_j = #{m : rho_N(m) = j}, read-only.  As d | p - 1, each y != C in
    S_1 = f(F_p) has d preimages and C has one, so for N >= 1 rho_N is 0 off
    S_1 and on it d times the histogram of g^(N-1), less d - 1 at
    g^(N-1)(C), with g the graph f induces on S_1 of m1 labels: at N = 1,
    m1 - 1 values hit d times and C once.  rho_0 is 1 everywhere."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    if N == 0:
        profile = np.array([0, f.p])
    elif N == 1:
        m1 = (f.p - 1) // f.d + 1
        profile = np.array([f.p - m1, 1] + [0] * (f.d - 2) + [m1 - 1])
    else:
        g, c = _induced_graph(f)
        spare = _work("spare0", len(g)), _work("spare1", len(g))
        values = _iterate(g, N - 2, spare)
        counts = spare[1] if values is spare[0] else spare[0]
        counts.fill(0)
        np.add.at(counts, values, f.d)
        counts[values[c]] -= f.d - 1
        profile = np.bincount(counts)
        profile[0] += f.p - len(values)
    profile.setflags(write=False)
    return profile


def moment_w(f: FieldParams, N: int, k: int) -> int:
    """W(N, k) = sum over m of rho_N(m)**k, with 0**0 = 1 (so W(N,0) = p)."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return _power_sum(_profile(f, N), k)


def _power_sum(profile: np.ndarray, k: int) -> int:
    """sum over m of rho_N(m)**k from the preimage profile n_j = #{m :
    rho_N(m) = j}, as sum_j n_j * j**k: d**N + 1 terms instead of p.
    Python ints, since j**k overflows int64 quickly; 0**0 = 1."""
    return sum(int(n) * j**k for j, n in enumerate(profile))


def _first_repeat(f: FieldParams, limit: int) -> tuple[int, int] | None:
    """(tail, collision index) of the orbit 0, f(0), f**2(0), ...: its first
    repeat f**index(0) equals f**tail(0).  None once limit + 1 terms are
    pairwise distinct.  Each term is kept with its index, so memory is
    O(min(collision index, limit + 1)).  At d = 2 it steps the normal form
    y**2 + A*C (see _induced_graph): x -> A*x fixes 0, so the orbit's tail
    and collision index are the same.  The step is inlined on locals, since
    a call per step costs more than it."""
    p, d, A, C = f.p, f.d, f.A, f.C
    sq = d == 2
    if sq:
        A, C = 1, A * C % p
    seen: dict[int, int] = {}
    y = 0
    while y not in seen:
        seen[y] = len(seen)
        if len(seen) > limit:
            return None
        y = (A * (y * y if sq else pow(y, d, p)) + C) % p
    return seen[y], len(seen)


def orbit_of_zero(f: FieldParams) -> OrbitSummary:
    """The first repeat walk, which ends within (p - 1)/d + 2 steps."""
    tail, index = _first_repeat(f, f.p)
    return OrbitSummary(tail_len=tail, cycle_len=index - tail)


def check_precondition(f: FieldParams, N: int) -> bool:
    """True iff 0, f(0), ..., f^N(0) are pairwise distinct: collision index > N."""
    if N < 0:
        raise ValueError("depth must be nonnegative")
    return _first_repeat(f, N) is None


@lru_cache(maxsize=None)
def q_coeffs(d: int, N: int) -> tuple[Fraction, ...]:
    """Exact coefficients of (1/D!) * prod_{j=1..D} (j - T) with D = d**N.

    The polynomial is 1 at T=0 and 0 at T=1..D, which turns moment sums
    into exact zero-preimage counts.
    """
    D = d**N
    if D > Q_DEGREE_CAP:
        raise BudgetError(f"factorial polynomial degree {D} exceeds cap {Q_DEGREE_CAP}")
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


def zero_count_identity(f: FieldParams, N: int) -> tuple[int, Fraction]:
    """(direct, via_q): unhit residues counted directly, and the same count
    recovered as sum_k C_k * W(N, k).  The contract is via_q == direct."""
    profile = _profile(f, N)
    coeffs = q_coeffs(f.d, N)
    direct = int(profile[0])
    moments = [_power_sum(profile, k) for k in range(len(coeffs))]
    via_q = sum(ck * wk for ck, wk in zip(coeffs, moments))
    return direct, via_q


def _graph_stats(g: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(number of cycles, number m of cyclic vertices, dist) of the
    functional graph g, with dist[x] the distance of x to its cycle: a view
    of a work array, valid until the next kernel call.

    dist comes from pointer doubling over whole arrays (Wyllie's list
    ranking).  With L = m1.bit_length(), 2**L > m1 = len(g) exceeds every
    tail.  L self-gathers give hop = g^(2**L), whose image is the cyclic set,
    marked on a prefix of the mask work array.  Rounds then sum the
    non-cyclic indicator (the distance to the cycle) over the window x, g(x),
    ..., g^(2**i - 1)(x) until the next window is cyclic everywhere, once
    2**i reaches the longest tail.  On the cyclic set relabelled 0..m-1, g is
    a permutation, and the least label over 2**m.bit_length() > m steps ahead
    is its own label at exactly one vertex per cycle.

    The doubling rounds alternate between the two spare work arrays and,
    once it is no longer read, g's own storage, which is overwritten.
    """
    m1 = len(g)
    spare0, spare1 = _work("spare0", m1), _work("spare1", m1)
    hop = g
    for _ in range(m1.bit_length()):
        hop = hop.take(hop, out=spare1 if hop is spare0 else spare0, mode="clip")
    cyclic = _work("mask", m1, bool)
    cyclic.fill(False)
    cyclic[hop] = True
    cyc = np.flatnonzero(cyclic)
    succ = g[cyc]
    dist = np.logical_not(cyclic, out=spare0)
    hop, ahead = g, spare1
    while dist.take(hop, out=ahead, mode="clip").any():
        dist += ahead
        hop.take(hop, out=ahead, mode="clip")
        hop, ahead = ahead, hop
    m = len(cyc)
    rank = ahead  # only its entries on cyc are written and read
    rank[cyc] = np.arange(m)
    hop = rank[succ]
    low = np.arange(m)
    for _ in range(m.bit_length()):
        low = np.minimum(low, low[hop])
        hop = hop[hop]
    return int(np.count_nonzero(low == np.arange(m))), m, dist


def functional_graph_stats(f: FieldParams) -> GraphStats:
    """On the graph g f induces on S_1 (see _induced_graph), of m1 labels.
    The in-degree-0 vertices are the p - m1 off S_1, each with tail dist[l] + 1
    at the label l of its successor.  As d | p - 1, each label has d
    predecessors in F_p, the label c of f(0) one, and a step along g off the
    cycles lowers dist by one, so the tails sum to (d - 1) * (sum(dist) -
    dist[c]) + p - m.  The longest is dist.max() + 1: a label farthest out is
    cyclic or has all of its predecessors off S_1."""
    g, c = _induced_graph(f)
    cycles, m, dist = _graph_stats(g)
    tails = (f.d - 1) * (int(dist.sum()) - int(dist[c])) + f.p - m
    return GraphStats(cycles, m, tails, int(dist.max()) + 1)
