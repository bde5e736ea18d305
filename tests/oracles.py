"""Per-point reference evaluators shared by the test modules."""

from polyiter.field import FieldParams


def eval_map(f: FieldParams, x: int) -> int:
    """f(x) = A*x^d + C at one point, by the builtin pow."""
    return (f.A * pow(x % f.p, f.d, f.p) + f.C) % f.p
