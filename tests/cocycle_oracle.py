"""The 2-cocycle identity walked over every triple of grades: the oracle that
tests compare ``CrossedAlgebra``'s norm-condition check against.

It reads only a twisted group algebra's ``grades``, ``entry`` and
``coeffs``, so it applies to every ``brauerlab.crossed.GradedAlgebra``.
"""

from __future__ import annotations

from typing import Optional, Sequence


def cocycle_holds(A, group: Optional[Sequence] = None) -> bool:
    """c(g, h) c(gh, k) = g(c(h, k)) c(g, hk) on every triple of the closed
    subset ``group`` of A's grades (all of them by default); exactly
    associativity on its monomials."""
    if group is None:
        group = A.grades
    C = A.coeffs
    one = C.one()

    def times(c, d):
        """c d, with None standing for 1."""
        if c is None:
            return d
        if d is None:
            return c
        return C.mul(c, d)

    for g in group:
        for h in group:
            gh, c_gh = A.entry(g, h)
            for k in group:
                hk, c_hk = A.entry(h, k)
                lhs = times(c_gh, A.entry(gh, k)[1])
                rhs = times(None if c_hk is None else C.act(g, c_hk), A.entry(g, hk)[1])
                if not C.equal(one if lhs is None else lhs, one if rhs is None else rhs):
                    return False
    return True
