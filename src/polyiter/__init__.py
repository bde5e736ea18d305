"""Computational laboratory for iterated maps f(x) = A*x^d + C over F_p.

Modules:
  field     prime-field arithmetic and parameter validation
  dynamics  whole-domain iteration: images, orbits, moments, graph stats
  recur     exact-rational recursions: mu, coefficient tables, U(r, k)
  graphs    labeled collision graphs: properness, trees, enumeration
  curves    brute-force projective point counts and bound checks
  lab       sweeps, reporting, and the cross-module verification suite
"""

from .dynamics import poly_map
from .errors import BudgetError
from .field import FieldParams, field_params, validate_params

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "FieldParams",
    "field_params",
    "poly_map",
    "validate_params",
    "__version__",
]
