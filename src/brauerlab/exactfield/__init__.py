"""Exact symbolic arithmetic: cyclotomic scalars, sparse polynomials,
rational functions and linear algebra."""

from .cyclotomic import (
    Cyc,
    ExactFieldError,
    PoleError,
    common_conductor,
    cyclotomic_polynomial,
    euler_phi,
)
from .poly import (
    FieldElement,
    MultiPoly,
    PolyRing,
    exact_divide,
    is_square,
    parse_element,
    poly_sqrt,
)
from .linalg import (
    identity_matrix,
    kernel,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_vec,
    solve,
)

__all__ = [
    "Cyc",
    "ExactFieldError",
    "PoleError",
    "common_conductor",
    "cyclotomic_polynomial",
    "euler_phi",
    "FieldElement",
    "MultiPoly",
    "PolyRing",
    "exact_divide",
    "is_square",
    "parse_element",
    "poly_sqrt",
    "identity_matrix",
    "kernel",
    "mat_det",
    "mat_inverse",
    "mat_mul",
    "mat_rank",
    "mat_vec",
    "solve",
]
