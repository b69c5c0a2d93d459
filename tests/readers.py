"""Readers that turn envelope JSON back into objects, and a polynomial's
terms as a dict and back.  Only tests read envelopes or terms back, so the
readers live here.

``poly_from_terms`` is the validating constructor: every coefficient must be
a Cyc of the ring's conductor, and zero terms are dropped.  ``poly_terms``
is its inverse view.
"""

from __future__ import annotations

from math import lcm
from typing import Union

from brauerlab.exactfield import Cyc, FieldElement, MultiPoly, PolyRing
from brauerlab.exactfield.cyclotomic import cyc_over
from brauerlab.quadforms import WittMove


def poly_terms(p: MultiPoly) -> dict:
    """{exponent tuple: Cyc} of p's nonzero terms, in p's key order."""
    ring, d = p.ring, p.denom
    return {ring._unpack(k): cyc_over(ring.conductor, v, d) for k, v in p.coeffs.items()}


def poly_from_terms(ring: PolyRing, terms: dict) -> MultiPoly:
    """The polynomial sum c * x^e over terms {exponent tuple: Cyc}."""
    for c in terms.values():
        if not isinstance(c, Cyc) or c.conductor != ring.conductor:
            raise ValueError(f"coefficient {c!r} is not in Q(zeta_{ring.conductor})")
    live = {e: c for e, c in terms.items() if not c.is_zero()}
    # over the lcm of lowest-terms denominators the gcd is already 1
    denom = lcm(*(c.den for c in live.values()))
    coeffs = {ring._pack(e): tuple(a * (denom // c.den) for a in c.nums)
              for e, c in live.items()}
    return MultiPoly._make(ring, coeffs, denom)


def cyc_from_json(data: dict) -> Cyc:
    return Cyc(data["conductor"], data["nums"], data["den"])


def poly_from_json(ring: PolyRing, data: dict) -> MultiPoly:
    if tuple(data["vars"]) != ring.variables or data["conductor"] != ring.conductor:
        raise ValueError("serialized polynomial belongs to a different ring")
    terms = {}
    for key, cj in data["terms"].items():
        exps = tuple(int(x) for x in key.split(",")) if key else ()
        terms[exps] = cyc_from_json(cj)
    return poly_from_terms(ring, terms)


def element_from_json(ring: PolyRing, data: dict) -> Union[FieldElement, Cyc]:
    return ring.element(poly_from_json(ring, data["num"])) / ring.element(
        poly_from_json(ring, data["den"]))


def witt_move_from_json(ring: PolyRing, data: dict) -> WittMove:
    witness = data.get("witness")
    factor = data.get("factor")
    expected = data.get("expected")
    return WittMove(
        data["kind"],
        data["indices"],
        witness=element_from_json(ring, witness) if witness else None,
        factor=element_from_json(ring, factor) if factor else None,
        expected=[element_from_json(ring, e) for e in expected] if expected else None,
        note=data.get("note", ""),
    )
