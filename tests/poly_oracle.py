"""Schoolbook polynomial kernels: the oracle that tests compare
``MultiPoly.__mul__`` and ``exact_divide`` against.

``schoolbook_product`` multiplies term by term, one normalized ``Cyc``
product and one normalized sum per pair of terms, and
``schoolbook_divide`` subtracts one monomial multiple of the divisor at a
time, building a new remainder polynomial at each step.  Both are the way
``exactfield.poly`` computed before its kernels reduced integer
convolutions once per output term and divided in place.
"""

from __future__ import annotations

from typing import Optional

from brauerlab.exactfield import ExactFieldError, MultiPoly


def grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_exponents(p: MultiPoly) -> tuple[int, ...]:
    """The leading exponent by a rescan of every term, never the cached one."""
    return max(p.terms, key=grevlex_key)


def schoolbook_product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    acc: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            if e in acc:
                s = acc[e] + prod
                if s.is_zero():
                    del acc[e]
                else:
                    acc[e] = s
            else:
                acc[e] = prod
    return MultiPoly(p.ring, acc)


def schoolbook_divide(num: MultiPoly, den: MultiPoly) -> Optional[MultiPoly]:
    """num / den when the division is exact, else None; leads are rescanned
    at every step, so a wrong cached lead on either side has no effect."""
    if den.is_zero():
        raise ExactFieldError("division by zero")
    ring = num.ring
    den_lead = leading_exponents(den)
    den_lc = den.terms[den_lead]
    quot: dict = {}
    rem = num
    while not rem.is_zero():
        lead = leading_exponents(rem)
        diff = tuple(a - b for a, b in zip(lead, den_lead))
        if any(d < 0 for d in diff):
            return None
        c = rem.terms[lead] / den_lc
        quot[diff] = c
        rem = rem - schoolbook_product(MultiPoly(ring, {diff: c}), den)
    return MultiPoly(ring, quot)
