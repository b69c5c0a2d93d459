"""Exact dense linear algebra over the elements of one PolyRing's fraction
field: the oracle that tests compare the closed forms of
``brauerlab.crossed`` against.

Division in the coefficient field is exact, so plain Gaussian elimination is
sound; the only numerical concern is expression swell, which pivot selection
by term count keeps in check at the sizes these computations produce.
Matrices are lists of lists of ``PolyRing.element`` values: FieldElements,
or Cycs when the ring has no variables.
"""

from __future__ import annotations

from typing import Optional, Union

from brauerlab.exactfield import Cyc, FieldElement, PolyRing

Matrix = list[list[Union[FieldElement, Cyc]]]
Vector = list[Union[FieldElement, Cyc]]


def _ring_of(matrix: Matrix, ring: Optional[PolyRing]) -> PolyRing:
    if ring is not None:
        return ring
    if not matrix or not matrix[0]:
        raise ValueError("cannot infer ring from an empty matrix")
    return matrix[0][0].ring


def _complexity(value: Union[FieldElement, Cyc]) -> int:
    # the term count of num and den; a constant of Q(zeta_N) is one term
    if isinstance(value, Cyc):
        return 1
    return len(value.num.coeffs) + len(value.den.coeffs)


def _rref(matrix: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the first ncols columns.

    Columns past ncols ride along (augmented part).  Returns the new rows and
    the pivot column list.
    """
    rows = [list(r) for r in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                if best is None or _complexity(rows[i][c]) < _complexity(rows[best][c]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [entry * inv for entry in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [
                    entry - factor * pivot_entry
                    for entry, pivot_entry in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def mat_rank(matrix: Matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    _, pivots = _rref(matrix, len(matrix[0]))
    return len(pivots)


def solve(matrix: Matrix, rhs: Vector, ring: Optional[PolyRing] = None) -> Optional[Vector]:
    """One solution of A x = b with free variables set to zero, or None."""
    ring = _ring_of(matrix, ring)
    n = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = _rref(aug, n)
    for i in range(len(pivots), len(rows)):
        if not rows[i][n].is_zero():
            return None
    zero = ring.element(0)
    x = [zero] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return x


def kernel(matrix: Matrix, ring: Optional[PolyRing] = None) -> list[Vector]:
    """Basis of the right kernel of A."""
    ring = _ring_of(matrix, ring)
    n = len(matrix[0]) if matrix else 0
    rows, pivots = _rref(matrix, n)
    pivot_set = set(pivots)
    zero, one = ring.element(0), ring.element(1)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        vec = [zero] * n
        vec[j] = one
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][j]
        basis.append(vec)
    return basis
