"""Exact symbolic arithmetic: cyclotomic scalars, sparse polynomials and
rational functions.  An element of a ring with no variables is a Cyc; a
FieldElement is an element of a ring with variables.  The three classes
share subtraction, division and integer powers through one base class,
cyclotomic.DerivedOps; its powers, and the crossed algebras', are products
of ``power_factors``' pair, the one square-and-multiply chain."""

from .cyclotomic import (
    Cyc,
    ExactFieldError,
    common_conductor,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    power_factors,
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
    "power_factors",
    "FieldElement",
    "MultiPoly",
    "PolyRing",
    "exact_divide",
    "is_power",
    "is_square",
]
