"""Sparse multivariate polynomials and rational functions over Q(zeta_N).

A ``PolyRing`` fixes the variable names and the cyclotomic conductor once;
there is one ring per (variables, conductor), so ring equality is identity.
Mixing rings is an error rather than a silent coercion.  Monomials are
exponent tuples in graded reverse lexicographic order everywhere.  A
polynomial's ``terms`` are never changed after construction, so polynomials
are shared rather than copied.  Each ring holds one unit polynomial,
``PolyRing.one()``; a product with it returns the other factor.  A
polynomial keeps its leading exponent once known, and a product, a scaling
and a negation carry it (a product with a one-term factor only when the
other factor's is known): lead(p*q) = lead(p) + lead(q) under a monomial
order over a domain (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 sec. 2).  The unit shortcuts test identity with ``PolyRing.one()``;
an equal unit held by another object takes the general path to the same
result.

A product with a one-term factor (every scaling, and every product in a
ring without variables) multiplies term by term, and a coefficient-one
factor only shifts exponents: no Cyc product.  A product of two longer
polynomials writes each factor once as integer coordinate vectors over the
lcm of its denominators, adds unreduced integer convolutions per output
exponent, and reduces each sum mod Phi_N once, into one ``Cyc`` with one
gcd (the design of FLINT's fmpq_poly).  ``exact_divide`` refuses before
copying anything when lead(den) does not divide lead(num), and otherwise
subtracts c*x^d*den from one remainder dict in place (Monagan and Pearce,
J. Symbolic Comput. 46 (2011), without their heap).

``FieldElement`` is a quotient num/den of polynomials with no gcd machinery.
Normal form: den has leading coefficient 1, and it is the unit or does not
divide num (a quotient that divides exactly collapses to a polynomial).  A
product of normal forms needs no rescaling, since monic times monic is
monic: over unit denominators it is in normal form as it stands, and
otherwise only the exact division is retried.  A negation stays in normal
form, since a sign cannot make a division exact.
Equality compares numerators over equal denominators and cross multiplies
otherwise; both are exact, F[x] being a domain.  A sum stays over a shared
denominator; when one denominator divides the other it goes over the larger
one, a/b + c/(q*b) = (a*q + c)/(q*b), and only otherwise over their product.
The certificates' denominators are products of a few shared factors, so
this keeps them small without a gcd.

Subtraction, division and integer powers come from cyclotomic.DerivedOps.
A polynomial is invertible only when it is a nonzero constant.  ``is_square``
decides constants with a rational value exactly (see cyclotomic.Cyc.sqrt);
every other element is left undecided.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Iterable, Optional, Union

from .cyclotomic import Cyc, DerivedOps, ExactFieldError, cyc_over, euler_phi, reduce_powers

ScalarLike = Union[int, Fraction, Cyc]


def _grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _integer_form(p: "MultiPoly"):
    # (D, [(exponents, [(k, a_k) for nonzero a_k])]): p's coefficients as
    # integer coordinate vectors over D, the lcm of their denominators
    den = lcm(*(c.den for c in p.terms.values()))
    return den, [(e, [(k, a * (den // c.den)) for k, a in enumerate(c.nums) if a])
                 for e, c in p.terms.items()]


def _add_into(terms: dict, items) -> dict:
    # terms[e] += c for each nonzero (e, c), deleting the sums that vanish
    for e, c in items:
        old = terms.get(e)
        if old is None:
            terms[e] = c
        elif (c := old + c).is_zero():
            del terms[e]
        else:
            terms[e] = c
    return terms


class PolyRing:
    """Variable names plus a cyclotomic conductor; one shared object per key."""

    __slots__ = ("variables", "conductor", "_index", "_one")
    _rings: dict = {}  # (variables, conductor) -> the one PolyRing with that key

    def __new__(cls, variables: Iterable[str], conductor: int = 1):
        variables = tuple(variables)
        ring = cls._rings.get((variables, conductor))
        if ring is not None:
            return ring
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not name.isidentifier():
                raise ValueError(f"bad variable name: {name!r}")
        ring = object.__new__(cls)
        ring.variables = variables
        ring.conductor = conductor
        ring._index = {name: k for k, name in enumerate(variables)}
        origin = (0,) * len(variables)
        ring._one = MultiPoly._clean(ring, {origin: Cyc.one(conductor)}, origin)
        cls._rings[(variables, conductor)] = ring
        return ring

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable: {name!r}")
        return self._index[name]

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        """The ring's unit polynomial, one shared object."""
        return self._one

    def scalar(self, value: ScalarLike) -> "MultiPoly":
        if not isinstance(value, Cyc):
            c = Cyc.rational(Fraction(value), self.conductor)
        elif self.conductor % value.conductor == 0:
            c = value.lift(self.conductor)
        else:
            raise ValueError("scalar conductor does not divide ring conductor")
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
            if other.ring is not self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction, Cyc)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._clean(self.ring, _add_into(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean(self.ring, {e: -c for e, c in self.terms.items()}, self._lead)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        if o is ring._one:
            return self
        if self is ring._one:
            return o
        if not self.terms or not o.terms:
            return MultiPoly._clean(ring, {})
        p, q = (self, o) if len(o.terms) == 1 else (o, self)
        if len(q.terms) == 1:
            ((eq, cq),) = q.terms.items()
            one = cq.is_one()  # a coefficient-one monomial only shifts exponents
            terms = {tuple(map(add, e, eq)): c if one else c * cq for e, c in p.terms.items()}
            lead = None if p._lead is None else tuple(map(add, p._lead, eq))
            return MultiPoly._clean(ring, terms, lead)
        lead = tuple(map(add, self.leading_exponents(), o.leading_exponents()))
        n = ring.conductor
        size = 2 * euler_phi(n) - 1
        (dp, xs), (dq, ys) = _integer_form(p), _integer_form(q)
        acc: dict = {}
        for e1, v1 in xs:
            for e2, v2 in ys:
                e = tuple(map(add, e1, e2))
                conv = acc.get(e) or acc.setdefault(e, [0] * size)
                for i, a in v1:
                    for j, b in v2:
                        conv[i + j] += a * b
        terms = {}
        for e, conv in acc.items():
            nums = reduce_powers(conv, n)
            if any(nums):
                terms[e] = cyc_over(n, nums, dp * dq)
        return MultiPoly._clean(ring, terms, lead)

    __rmul__ = __mul__

    def inverse(self) -> "MultiPoly":
        if self.is_zero() or not self.is_scalar():
            raise ExactFieldError("only a nonzero constant polynomial is invertible")
        return self.ring.scalar(self.as_scalar().inverse())

    def scale(self, c: ScalarLike) -> "MultiPoly":
        return self * self.ring.scalar(c)

    # -- comparisons, display, serialization ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            other = self.ring.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

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
    den_lead, lead = den.leading_exponents(), num.leading_exponents()
    diff = tuple(map(sub, lead, den_lead))
    if min(diff, default=0) < 0:
        return None
    den_lc = den.terms[den_lead]
    tail = [(e, -c) for e, c in den.terms.items() if e != den_lead]
    rem, quot = dict(num.terms), {}
    while min(diff, default=0) >= 0:
        c = rem.pop(lead)
        c = quot[diff] = c if den_lc.is_one() else c / den_lc
        _add_into(rem, ((tuple(map(add, diff, e)), c * t) for e, t in tail))
        if not rem:
            # the first quotient term is the leading one: each step lowers the lead
            return MultiPoly._clean(num.ring, quot, next(iter(quot)))
        last, lead = lead, max(rem, key=_grevlex_key)
        if _grevlex_key(lead) >= _grevlex_key(last):
            raise ExactFieldError("exact_divide: the remainder's leading term did not fall")
        diff = tuple(map(sub, lead, den_lead))
    return None


class FieldElement(DerivedOps):
    """Quotient of polynomials in the normal form of the module docstring.

    Sums go over the larger denominator when one divides the other (checked
    with ``exact_divide``), else over the product of the two.  The other
    operand is an element of the same ring or a scalar; a polynomial enters
    through ``PolyRing.element``.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.ring is not den.ring:
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
            if other.ring is not self.ring:
                raise ValueError("ring mismatch")
            return other
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
        if self.num is one and self.den is one:
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
        if isinstance(other, (int, Fraction, Cyc)):
            other = self._coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ring is not self.ring:
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


def is_power(f: FieldElement, p: int) -> Optional[bool]:
    """Whether f is a p-th power in its field, for a prime p; None when not decided.

    False when some variable's lowest or highest degree (numerator minus
    denominator), both valuations, is not divisible by p.  Exact for rational
    constants: at p = 2 by Cyc.sqrt, at odd p by integer roots, as a rational
    p-th power in an abelian field is one in Q (Lang, Algebra, VI sec. 9)."""
    if f.is_scalar():
        q = f.as_scalar()
        if not q.is_rational():
            return None
        if p == 2:
            return q.sqrt() is not None
        q = q.as_fraction()
        return all(_integer_root(abs(n), p) ** p == abs(n) for n in (q.numerator, q.denominator))
    for k in range(len(f.ring.variables)):
        for pick in (min, max):
            if (pick(e[k] for e in f.num.terms) - pick(e[k] for e in f.den.terms)) % p:
                return False
    return None


def _integer_root(n: int, p: int) -> int:
    r = 1 << -(-n.bit_length() // p)  # floor(n^(1/p)) by Newton from above
    while r ** p > n:
        r = ((p - 1) * r + n // r ** (p - 1)) // p
    return r
