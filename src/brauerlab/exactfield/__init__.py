"""Exact symbolic arithmetic: cyclotomic scalars, sparse polynomials and
rational functions.  The three classes share subtraction, division and
integer powers through one base class, cyclotomic.DerivedOps."""

from .cyclotomic import (
    Cyc,
    ExactFieldError,
    common_conductor,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
)
from .poly import (
    FieldElement,
    MultiPoly,
    PolyRing,
    exact_divide,
    is_power,
    is_square,
)

__all__ = [
    "Cyc",
    "ExactFieldError",
    "common_conductor",
    "cyclotomic_polynomial",
    "euler_phi",
    "factorize",
    "FieldElement",
    "MultiPoly",
    "PolyRing",
    "exact_divide",
    "is_power",
    "is_square",
]
