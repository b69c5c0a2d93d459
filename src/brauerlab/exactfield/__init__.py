"""Exact symbolic arithmetic: cyclotomic scalars, sparse polynomials,
rational functions and linear algebra."""

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
    is_square,
)
from .linalg import (
    kernel,
    mat_rank,
    solve,
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
    "is_square",
    "kernel",
    "mat_rank",
    "solve",
]
