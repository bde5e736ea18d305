"""Prime-field arithmetic, parameter validation, and root-of-unity discovery.

Everything downstream (iteration, point counting, sweeps) builds on the
parameter bundle constructed here, the map itself: an odd-ish prime p, a
degree d >= 2 dividing p - 1, a nonzero leading coefficient A and a constant
term C.  The fixed primitive d-th root of unity gamma is found on demand by
the point counts, its only reader.  All moduli are capped below 2**31 so
products of two residues stay inside a 64-bit intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Residues must fit a machine word with a double-width product.
MAX_MODULUS = 2**31

NOT_PRIME = "not_prime"
DEGREE_TOO_SMALL = "degree_too_small"
DEGREE_NOT_DIVIDING = "degree_not_dividing"
ZERO_LEADING_COEFFICIENT = "zero_leading_coefficient"
MODULUS_TOO_LARGE = "modulus_too_large"


@dataclass(frozen=True)
class FieldParams:
    """Validated parameter bundle (p, d, A, C) of the map A*x^d + C."""

    p: int
    d: int
    A: int
    C: int


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for p < 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def validate_params(p: int, d: int, A: int) -> str | None:
    """Gate for (p, d, A): p prime, d >= 2, d | p-1, A nonzero mod p.  Returns
    the reason constant of the first condition that fails, or None."""
    if p >= MAX_MODULUS:
        return MODULUS_TOO_LARGE
    if not is_prime(p):
        return NOT_PRIME
    if d < 2:
        return DEGREE_TOO_SMALL
    if (p - 1) % d != 0:
        return DEGREE_NOT_DIVIDING
    if A % p == 0:
        return ZERO_LEADING_COEFFICIENT
    return None


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def primitive_dth_root(p: int, d: int) -> int:
    """Smallest residue in [2, p-1] of multiplicative order exactly d.

    Any primitive d-th root would do mathematically; the smallest one is
    fixed so every downstream count is reproducible bit for bit.  Every
    element of order d is a primitive power of any single one, so one root
    found via x**((p-1)/d) pins down the whole candidate set.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if (p - 1) % d != 0:
        raise ValueError(f"{d} does not divide {p} - 1")
    cofactor = (p - 1) // d
    factors = _prime_factors(d)
    zeta = None
    for x in range(2, p):
        z = pow(x, cofactor, p)
        if z != 1 and all(pow(z, d // q, p) != 1 for q in factors):
            zeta = z
            break
    if zeta is None:
        raise ValueError(f"no primitive {d}-th root of unity mod {p}")
    best = zeta
    power = zeta
    for j in range(2, d):
        power = power * zeta % p
        if math.gcd(j, d) == 1 and power < best:
            best = power
    return best


def field_params(p: int, d: int, A: int, C: int) -> FieldParams:
    """Validate (p, d, A) and reduce A and C mod p."""
    reason = validate_params(p, d, A)
    if reason is not None:
        raise ValueError(f"invalid parameters (p={p}, d={d}, A={A}): {reason}")
    return FieldParams(p=p, d=d, A=A % p, C=C % p)
