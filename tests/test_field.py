import dataclasses

import pytest

from polyiter import field


def test_validate_params_accepts_basic_case():
    assert field.validate_params(5, 2, 1).ok


def test_validate_params_failure_reasons():
    assert field.validate_params(5, 3, 1).reason == field.DEGREE_NOT_DIVIDING
    assert field.validate_params(5, 2, 0).reason == field.ZERO_LEADING_COEFFICIENT
    assert field.validate_params(9, 2, 1).reason == field.NOT_PRIME
    assert field.validate_params(5, 1, 1).reason == field.DEGREE_TOO_SMALL
    assert field.validate_params(2**31 + 11, 2, 1).reason == field.MODULUS_TOO_LARGE


def test_primitive_root_examples():
    assert field.primitive_dth_root(5, 2) == 4
    assert field.primitive_dth_root(7, 3) == 2
    assert field.primitive_dth_root(13, 4) == 5


def test_primitive_root_rejects_non_divisor():
    with pytest.raises(ValueError):
        field.primitive_dth_root(5, 3)


def test_primitive_root_order_is_exact():
    # gamma**d == 1 and gamma**e != 1 for every 1 <= e < d, exhaustively
    for p in (5, 7, 13, 17, 29, 31, 61):
        for d in range(2, p):
            if (p - 1) % d:
                continue
            gamma = field.primitive_dth_root(p, d)
            assert pow(gamma, d, p) == 1
            for e in range(1, d):
                assert pow(gamma, e, p) != 1


def multiplicative_order(x: int, p: int) -> int:
    """Order of x in F_p^*, by direct powering (x must be nonzero mod p)."""
    x %= p
    if x == 0:
        raise ValueError("0 has no multiplicative order")
    acc, order = x, 1
    while acc != 1:
        acc = acc * x % p
        order += 1
    return order


def test_primitive_root_is_smallest():
    for p in (13, 29, 61):
        for d in (2, 3, 4):
            if (p - 1) % d:
                continue
            gamma = field.primitive_dth_root(p, d)
            for smaller in range(2, gamma):
                assert multiplicative_order(smaller, p) != d


def test_validation_implies_root_exists():
    for p in range(3, 200):
        for d in range(2, 8):
            if field.validate_params(p, d, 1).ok:
                field.primitive_dth_root(p, d)


def test_field_params_is_the_map():
    # the parameter bundle holds the map's four numbers and nothing derived
    assert [f.name for f in dataclasses.fields(field.FieldParams)] == ["p", "d", "A", "C"]
    assert field.field_params(13, 3, 15, -1) == field.FieldParams(13, 3, 2, 12)


def test_field_params_builds_and_rejects():
    params = field.field_params(13, 3, 2, 5)
    assert (params.p, params.d, params.A, params.C) == (13, 3, 2, 5)
    assert pow(field.primitive_dth_root(params.p, params.d), 3, 13) == 1
    with pytest.raises(ValueError):
        field.field_params(5, 3, 1, 0)
