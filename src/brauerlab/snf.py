"""Exact integer linear algebra: determinants, Smith normal form, solving.

Matrices are plain lists of row lists holding Python ints, so every
operation is arbitrary precision. Pivoting always grabs a smallest
nonzero entry by absolute value, which is the standard way to keep
intermediate entries from exploding during elimination.

No certificate of the package calls this module; the tests use it as an
oracle, and the benchmark harness reads ``det``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a) -> list[list[int]]:
    return [row[:] for row in a]


def det(a) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(a)
    assert all(len(row) == n for row in a), "square matrix required"
    if n == 0:
        return 1
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """U * A * V = D with U, V unimodular and D in Smith normal form."""

    U: Optional[list[list[int]]]
    D: list[list[int]]
    V: Optional[list[list[int]]]

    @property
    def divisors(self) -> list[int]:
        out = []
        ncols = len(self.D[0]) if self.D else 0
        for t in range(min(len(self.D), ncols)):
            d = self.D[t][t]
            if d:
                out.append(d)
        return out

    @property
    def rank(self) -> int:
        return len(self.divisors)


class _Worker:
    """Row/column elimination state shared by the SNF passes."""

    def __init__(self, a, want_u, want_v):
        self.A = mat_copy(a)
        self.m = len(a)
        self.n = len(a[0]) if self.m else 0
        self.U = identity(self.m) if want_u else None
        self.V = identity(self.n) if want_v else None

    def find_pivot(self, t):
        # Smallest |entry| in the trailing submatrix; bail at the first 1.
        best = None
        where = None
        for i in range(t, self.m):
            row = self.A[i]
            for j in range(t, self.n):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, where = av, (i, j)
                        if av == 1:
                            return where
        return where

    def swap_into(self, t, where):
        i0, j0 = where
        A, U, V = self.A, self.U, self.V
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            if U is not None:
                U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            if V is not None:
                for row in V:
                    row[t], row[j0] = row[j0], row[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            if U is not None:
                U[t] = [-x for x in U[t]]

    def reduce_slot(self, t, where):
        """Clear row t and column t using the pivot at `where`.

        Nonzero remainders strictly shrink the pivot, so looping back to a
        fresh (smaller) pivot terminates.
        """
        A, U, V = self.A, self.U, self.V
        while True:
            self.swap_into(t, where)
            d = A[t][t]
            dirty = False
            for i in range(t + 1, self.m):
                v = A[i][t]
                if v:
                    q = v // d
                    if q:
                        rt = A[t]
                        A[i] = [x - q * y for x, y in zip(A[i], rt)]
                        if U is not None:
                            ut = U[t]
                            U[i] = [x - q * y for x, y in zip(U[i], ut)]
                    if A[i][t]:
                        dirty = True
            rt = A[t]
            for j in range(t + 1, self.n):
                v = rt[j]
                if v:
                    q = v // d
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        if V is not None:
                            for row in V:
                                row[j] -= q * row[t]
                    if rt[j]:
                        dirty = True
            if not dirty:
                return
            where = self.find_pivot(t)

    def offender(self, t):
        # First trailing entry not divisible by the pivot, or None.
        d = self.A[t][t]
        for i in range(t + 1, self.m):
            row = self.A[i]
            for j in range(t + 1, self.n):
                if row[j] % d:
                    return i
        return None


def smith_normal_form(a, *, want_u: bool = True, want_v: bool = True) -> SNFResult:
    w = _Worker(a, want_u, want_v)
    for t in range(min(w.m, w.n)):
        where = w.find_pivot(t)
        if where is None:
            break
        w.reduce_slot(t, where)
        # Divisibility pass: d_t must divide every later entry. A unit
        # pivot divides everything, which is the overwhelmingly common
        # case, so the quadratic scan below rarely runs.
        while w.A[t][t] not in (1, -1):
            i = w.offender(t)
            if i is None:
                break
            w.A[t] = [x + y for x, y in zip(w.A[t], w.A[i])]
            if w.U is not None:
                w.U[t] = [x + y for x, y in zip(w.U[t], w.U[i])]
            w.reduce_slot(t, (t, t))
    return SNFResult(U=w.U, D=w.A, V=w.V)


class IntSolver:
    """Reusable exact solver for A x = b over the integers.

    Factors A once as U A V = D and keeps only the nonzero (row, value)
    pairs of each column of U, the nonzero (col, value) pairs of each row
    of V within the first rank columns, and the divisors of D. A solve
    forms c = U b by scattering the columns of U at the nonzeros of b,
    checks that d_t divides c_t on each pivot row and that c_t = 0 on each
    row past the rank, and returns x = V y with y_t = c_t / d_t.
    """

    def __init__(self, a):
        self.m = len(a)
        res = smith_normal_form(a)
        self.divisors = res.divisors
        r = len(self.divisors)
        self._u_cols = [[(t, v) for t, v in enumerate(col) if v]
                        for col in zip(*res.U)]
        self._v_rows = [[(j, v) for j, v in enumerate(row[:r]) if v]
                        for row in res.V]

    def solve(self, b: list[int]) -> Optional[list[int]]:
        assert len(b) == self.m, "length mismatch"
        divisors = self.divisors
        r = len(divisors)
        c = [0] * self.m
        for j in compress(range(self.m), b):
            bj = b[j]
            for t, v in self._u_cols[j]:
                c[t] += v * bj
        if any(c[r:]):
            return None
        y = []
        for ct, d in zip(c, divisors):
            if ct % d:
                return None
            y.append(ct // d)
        out = []
        for row in self._v_rows:
            s = 0
            for j, v in row:
                s += v * y[j]
            out.append(s)
        return out
