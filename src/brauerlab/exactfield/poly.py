"""Sparse multivariate polynomials and rational functions over Q(zeta_N).

A ``PolyRing`` fixes the variable names and the cyclotomic conductor once;
every element carries a reference to its ring, and mixing rings is an error
rather than a silent coercion.  Monomials are exponent tuples ordered by
graded reverse lexicographic order globally (leading terms, normalization,
and printing all use the same order).

``FieldElement`` is a quotient num/den of polynomials with no gcd machinery:
the denominator is normalized to leading coefficient 1, a quotient that
divides exactly collapses to a polynomial, and equality is decided by cross
multiplication.  A sum stays over a shared denominator; when one denominator
divides the other it goes over the larger one, a/b + c/(q*b) = (a*q + c)/(q*b),
and only otherwise over their product.  The denominators the crossed-product
certificates produce are products of a few shared factors, so this keeps them
small without a gcd.

``is_square`` decides constants with a rational value exactly (see
cyclotomic.Cyc.sqrt); every other element is left undecided.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .cyclotomic import Cyc, ExactFieldError

ScalarLike = Union[int, Fraction, Cyc]


def _grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """Variable names plus a cyclotomic conductor for the coefficients."""

    __slots__ = ("variables", "conductor", "_index")

    def __init__(self, variables: Iterable[str], conductor: int = 1):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not name.isidentifier():
                raise ValueError(f"bad variable name: {name!r}")
        self.variables = variables
        self.conductor = conductor
        self._index = {name: k for k, name in enumerate(variables)}

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable: {name!r}")
        return self._index[name]

    def scalar_cyc(self, value: ScalarLike) -> Cyc:
        if isinstance(value, Cyc):
            if value.conductor == self.conductor:
                return value
            if self.conductor % value.conductor == 0:
                return value.lift(self.conductor)
            raise ValueError("scalar conductor does not divide ring conductor")
        return Cyc.rational(Fraction(value), self.conductor)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.scalar(1)

    def scalar(self, value: ScalarLike) -> "MultiPoly":
        c = self.scalar_cyc(value)
        if c.is_zero():
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * len(self.variables): c})

    def zeta(self, power: int = 1) -> "MultiPoly":
        return self.scalar(Cyc.zeta(self.conductor, power))

    def var(self, name: str) -> "MultiPoly":
        exps = [0] * len(self.variables)
        exps[self.var_index(name)] = 1
        return MultiPoly(self, {tuple(exps): Cyc.one(self.conductor)})

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.ring is not self:
                raise ValueError("ring mismatch")
            return value
        if isinstance(value, MultiPoly):
            return FieldElement(value, self.one())
        return FieldElement(self.scalar(value), self.one())

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.conductor == other.conductor
        )

    def __hash__(self):
        return hash((self.variables, self.conductor))

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; conductor={self.conductor})"


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- views -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        return self.is_scalar() and self.as_scalar().is_one()

    def as_scalar(self) -> Cyc:
        if self.is_zero():
            return Cyc.zero(self.ring.conductor)
        if not self.is_scalar():
            raise ExactFieldError("polynomial is not a scalar")
        return self.terms[(0,) * len(self.ring.variables)]

    def leading_exponents(self) -> tuple[int, ...]:
        if self.is_zero():
            raise ExactFieldError("zero polynomial has no leading term")
        return max(self.terms, key=_grevlex_key)

    def leading_coefficient(self) -> Cyc:
        return self.terms[self.leading_exponents()]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction, Cyc)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            if e in terms:
                s = terms[e] + c
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
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
        return MultiPoly(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ExactFieldError("negative power of a polynomial; use FieldElement")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: ScalarLike) -> "MultiPoly":
        cc = self.ring.scalar_cyc(c)
        return MultiPoly(self.ring, {e: v * cc for e, v in self.terms.items()})

    # -- comparisons, display, serialization ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            other = self.ring.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if self.is_zero():
            return "0"
        names = self.ring.variables
        parts = []
        for e in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(names, e)
                if p
            )
            if not mon:
                parts.append(str(c) if c.is_rational() else f"({c})")
                continue
            if c.is_rational():
                q = c.as_fraction()
                if q == 1:
                    parts.append(mon)
                elif q == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{q}*{mon}")
            else:
                parts.append(f"({c})*{mon}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> dict:
        return {
            "vars": list(self.ring.variables),
            "conductor": self.ring.conductor,
            "terms": {
                ",".join(map(str, e)): c.to_json() for e, c in self.terms.items()
            },
        }

    @classmethod
    def from_json(cls, ring: PolyRing, data: dict) -> "MultiPoly":
        if tuple(data["vars"]) != ring.variables or data["conductor"] != ring.conductor:
            raise ValueError("serialized polynomial belongs to a different ring")
        terms = {}
        for key, cj in data["terms"].items():
            exps = tuple(int(x) for x in key.split(",")) if key else ()
            terms[exps] = Cyc.from_json(cj)
        return cls(ring, terms)


def exact_divide(num: MultiPoly, den: MultiPoly) -> Optional[MultiPoly]:
    """num / den when the division is exact in the polynomial ring, else None."""
    if den.is_zero():
        raise ExactFieldError("division by zero")
    if num.is_zero():
        return num
    ring = num.ring
    den_lead = den.leading_exponents()
    den_lc = den.leading_coefficient()
    quot: dict = {}
    rem = num
    while not rem.is_zero():
        lead = rem.leading_exponents()
        diff = tuple(a - b for a, b in zip(lead, den_lead))
        if any(d < 0 for d in diff):
            return None
        c = rem.terms[lead] / den_lc
        quot[diff] = c
        rem = rem - MultiPoly(ring, {diff: c}) * den
    return MultiPoly(ring, quot)


class FieldElement:
    """Quotient of polynomials, denominator normalized to leading coefficient 1.

    Sums go over the larger denominator when one divides the other (checked
    with ``exact_divide``), else over the product of the two.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.ring != den.ring:
            raise ValueError("ring mismatch")
        if den.is_zero():
            raise ExactFieldError("division by zero")
        ring = num.ring
        if num.is_zero():
            den = ring.one()
        else:
            lc = den.leading_coefficient()
            if not lc.is_one():
                inv = lc.inverse()
                den = den.scale(inv)
                num = num.scale(inv)
            if not den.is_one():
                q = exact_divide(num, den)
                if q is not None:
                    num, den = q, ring.one()
        self.ring = ring
        self.num = num
        self.den = den

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return FieldElement(other, self.ring.one())
        if isinstance(other, (int, Fraction, Cyc)):
            return FieldElement(self.ring.scalar(other), self.ring.one())
        return None

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_scalar(self) -> bool:
        return self.num.is_scalar() and self.den.is_scalar()

    def as_scalar(self) -> Cyc:
        return self.num.as_scalar() / self.den.as_scalar()

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return FieldElement(self.num + o.num, self.den)
        q = exact_divide(o.den, self.den)
        if q is not None:
            return FieldElement(self.num * q + o.num, o.den)
        q = exact_divide(self.den, o.den)
        if q is not None:
            return FieldElement(self.num + o.num * q, self.den)
        return FieldElement(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ExactFieldError("division by zero")
        return FieldElement(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ring.element(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparisons, display, serialization ------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # quotients are not canonical, so only trivially-reduced elements hash
        if not self.den.is_one():
            raise TypeError("unreduced FieldElement is unhashable")
        return hash(self.num)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"FieldElement({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, ring: PolyRing, data: dict) -> "FieldElement":
        return cls(
            MultiPoly.from_json(ring, data["num"]),
            MultiPoly.from_json(ring, data["den"]),
        )


def is_square(f: FieldElement) -> Optional[FieldElement]:
    """A verified square root of f, or None.

    None is exact for a constant with a rational value; for any other f it
    means "not decided".
    """
    if not f.is_scalar():
        return None
    root = f.as_scalar().sqrt()
    return None if root is None else f.ring.element(root)
