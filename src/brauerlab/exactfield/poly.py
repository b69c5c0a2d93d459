"""Sparse multivariate polynomials and rational functions over Q(zeta_N).

A ``PolyRing`` fixes the variable names and the cyclotomic conductor once;
every element carries a reference to its ring, and mixing rings is an error
rather than a silent coercion.  Monomials are exponent tuples ordered by
graded reverse lexicographic order globally (leading terms, normalization,
and printing all use the same order).

A polynomial's ``terms`` are never changed after construction, so
polynomials are shared rather than copied.  Each ring holds one unit
polynomial, which ``PolyRing.one()`` returns; a product with it returns the
other factor, and ``is_one`` recognizes it by identity first.  A polynomial
keeps its leading exponent once it is known.  A product, a scaling and a
negation carry it: under a monomial order over a domain,
lead(p*q) = lead(p) + lead(q) (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, ch. 2 sec. 2), so normalization and ``exact_divide`` read it
rather than rescan every term.  Every identity test is a shortcut: an equal
ring held by a different object takes the general path to the same result.

``FieldElement`` is a quotient num/den of polynomials with no gcd machinery.
Normal form: the denominator has leading coefficient 1, and it is the unit,
or it does not divide the numerator (a quotient that divides exactly
collapses to a polynomial).  A product of two quotients in normal form needs
no rescaling, since monic times monic is monic; over unit denominators it is
in normal form as it stands, and otherwise only the exact division is tried
again.  A negation stays in normal form, since a sign cannot make a division
exact.  Equality compares numerators over equal denominators and cross
multiplies otherwise; both are exact, F[x] being a domain.  A sum stays over
a shared denominator; when one denominator divides the other it goes over
the larger one, a/b + c/(q*b) = (a*q + c)/(q*b), and only otherwise over
their product.  The denominators the crossed-product certificates produce
are products of a few shared factors, so this keeps them small without a
gcd.

Subtraction, division and integer powers come from cyclotomic.DerivedOps.
A polynomial is invertible only when it is a nonzero constant.

``is_square`` decides constants with a rational value exactly (see
cyclotomic.Cyc.sqrt); every other element is left undecided.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .cyclotomic import Cyc, DerivedOps, ExactFieldError

ScalarLike = Union[int, Fraction, Cyc]


def _grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """Variable names plus a cyclotomic conductor for the coefficients."""

    __slots__ = ("variables", "conductor", "_index", "_one")

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
        origin = (0,) * len(variables)
        self._one = MultiPoly._clean(self, {origin: Cyc.one(conductor)}, origin)

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
        """The ring's unit polynomial, one shared object."""
        return self._one

    def scalar(self, value: ScalarLike) -> "MultiPoly":
        c = self.scalar_cyc(value)
        if c.is_zero():
            return MultiPoly(self, {})
        if c.is_one():
            return self._one
        origin = (0,) * len(self.variables)
        return MultiPoly._clean(self, {origin: c}, origin)

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
            return FieldElement(value, self._one)
        return FieldElement._normalized(self, self.scalar(value), self._one)

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


class MultiPoly(DerivedOps):
    """Sparse polynomial {exponents: nonzero Cyc}; ``terms`` is never mutated."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._lead = None

    @classmethod
    def _clean(cls, ring: PolyRing, terms: dict, lead=None) -> "MultiPoly":
        # terms already free of zero coefficients; lead is their leading
        # exponent, or None when not known yet
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._lead = lead
        return p

    # -- views -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        if self is self.ring._one:
            return True
        return self.is_scalar() and self.as_scalar().is_one()

    def as_scalar(self) -> Cyc:
        if self.is_zero():
            return Cyc.zero(self.ring.conductor)
        if not self.is_scalar():
            raise ExactFieldError("polynomial is not a scalar")
        return self.terms[(0,) * len(self.ring.variables)]

    def leading_exponents(self) -> tuple[int, ...]:
        lead = self._lead
        if lead is None:
            if self.is_zero():
                raise ExactFieldError("zero polynomial has no leading term")
            lead = self._lead = max(self.terms, key=_grevlex_key)
        return lead

    def leading_coefficient(self) -> Cyc:
        return self.terms[self.leading_exponents()]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
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
        return MultiPoly._clean(self.ring, {e: -c for e, c in self.terms.items()}, self._lead)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o is self.ring._one:
            return self
        if self is o.ring._one:
            return o
        if not self.terms or not o.terms:
            return MultiPoly._clean(self.ring, {})
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
        lead = tuple(a + b for a, b in zip(self.leading_exponents(), o.leading_exponents()))
        return MultiPoly._clean(self.ring, acc, lead)

    __rmul__ = __mul__

    def inverse(self) -> "MultiPoly":
        if self.is_zero() or not self.is_scalar():
            raise ExactFieldError("only a nonzero constant polynomial is invertible")
        return self.ring.scalar(self.as_scalar().inverse())

    def scale(self, c: ScalarLike) -> "MultiPoly":
        cc = self.ring.scalar_cyc(c)
        if cc.is_zero():
            return MultiPoly(self.ring, {})
        if cc.is_one():
            return self
        return MultiPoly._clean(self.ring, {e: v * cc for e, v in self.terms.items()}, self._lead)

    # -- comparisons, display, serialization ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            other = self.ring.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

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
    """num / den when the division is exact in the polynomial ring, else None.

    Raises ExactFieldError when the remainder's leading exponent fails to
    fall in grevlex order, which only a wrong cached leading exponent causes.
    """
    if den.is_zero():
        raise ExactFieldError("division by zero")
    if num.is_zero():
        return num
    ring = num.ring
    den_lead = den.leading_exponents()
    den_lc = den.terms[den_lead]
    monic = den_lc.is_one()
    quot: dict = {}
    rem = num
    last = None
    while not rem.is_zero():
        lead = rem.leading_exponents()
        if last is not None and _grevlex_key(lead) >= _grevlex_key(last):
            raise ExactFieldError("exact_divide: the remainder's leading term did not fall")
        last = lead
        diff = tuple(a - b for a, b in zip(lead, den_lead))
        if any(d < 0 for d in diff):
            return None
        c = rem.terms[lead] if monic else rem.terms[lead] / den_lc
        quot[diff] = c
        rem = rem - MultiPoly._clean(ring, {diff: c}, diff) * den
    # the first quotient term is the leading one: each step lowers the lead
    return MultiPoly._clean(ring, quot, next(iter(quot)))


class FieldElement(DerivedOps):
    """Quotient of polynomials in the normal form of the module docstring.

    Sums go over the larger denominator when one divides the other (checked
    with ``exact_divide``), else over the product of the two.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.ring is not den.ring and num.ring != den.ring:
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
            if den.is_one():
                den = ring.one()
            else:
                q = exact_divide(num, den)
                if q is not None:
                    num, den = q, ring.one()
        self.ring = ring
        self.num = num
        self.den = den

    @classmethod
    def _normalized(cls, ring: PolyRing, num: MultiPoly, den: MultiPoly) -> "FieldElement":
        # num/den already in normal form, with den the ring's unit when it is 1
        f = object.__new__(cls)
        f.ring = ring
        f.num = num
        f.den = den
        return f

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("ring mismatch")
            return FieldElement(other, self.ring.one())
        if isinstance(other, (int, Fraction, Cyc)):
            ring = self.ring
            return FieldElement._normalized(ring, ring.scalar(other), ring.one())
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
        den = self.den
        if den is o.den or den == o.den:
            if den is self.ring.one():
                return FieldElement._normalized(self.ring, self.num + o.num, den)
            return FieldElement(self.num + o.num, den)
        q = exact_divide(o.den, self.den)
        if q is not None:
            return FieldElement(self.num * q + o.num, o.den)
        q = exact_divide(self.den, o.den)
        if q is not None:
            return FieldElement(self.num + o.num * q, self.den)
        return FieldElement(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._normalized(self.ring, -self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        one = ring.one()
        if o.num is one and o.den is one:
            return self
        if self.num is one and self.den is one and o.ring is ring:
            return o
        num = self.num * o.num
        den = self.den * o.den
        # den is 1 only over two unit denominators; otherwise it is monic and
        # __init__ just retries the exact division
        if den is one or num.is_zero():
            return FieldElement._normalized(ring, num, one)
        return FieldElement(num, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ExactFieldError("division by zero")
        return FieldElement(self.den, self.num)

    # -- comparisons, display, serialization ------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ring is not self.ring and other.ring != self.ring:
            return False
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
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
