"""Sparse multivariate polynomials and rational functions over Q(zeta_N).

A ``PolyRing`` fixes the variable names and the cyclotomic conductor once;
there is one ring per (variables, conductor), so ring equality is identity.
Mixing rings is an error rather than a silent coercion, and so is a
coefficient of another conductor.

A ``MultiPoly`` is {packed monomial: tuple of phi(N) ints} over one positive
denominator d with gcd(d, every coordinate) = 1, the layout of FLINT's
fmpq_poly.  Exponents e of n variables pack into deg(e)*W^n - sum e_i*W^i,
W = 2^32: integer order is grevlex order and integer addition is the
monomial product (Monagan and Pearce, CASC 2007).  A total degree of 2^31 or
more raises ExactFieldError, so the top bit of every field stays clear.
Nothing is changed after construction, so polynomials are shared rather
than copied.
A product with the ring's one unit polynomial, ``PolyRing.one()`` (tested by
identity), returns the other factor.

A polynomial caches its leading monomial once known; a product always knows
it, lead(p*q) = lead(p) + lead(q) under a monomial order over a domain
(Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 2).  A
product with a one-term factor of rational coefficient scales coordinates,
or with coefficient 1 only shifts keys.  Any other product adds unreduced
integer convolutions per output monomial and reduces each mod Phi_N once.
A product or a sum (over aligned denominators) ends with one gcd pass.

``exact_divide`` refuses before copying anything when lead(den) does not
divide lead(num): then lead(den) - lead(num) has the top bit of some field
set.  Otherwise it makes den monic and subtracts c*x^d*den from one
remainder in place, through rows zeta^i * (a term of den) built once
(Monagan and Pearce, J. Symbolic Comput. 46 (2011), without their heap).

``PolyRing.element`` gives the ring's fraction field one element type per
ring.  On a ring with no variables it is ``Cyc``: a constant of Q(zeta_N)
has one arithmetic, cyclotomic.Cyc's, and no polynomial is built for it.  On
a ring with variables it is ``FieldElement``, a quotient num/den of
polynomials with no gcd machinery; constants there are FieldElements too.
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
A polynomial has no inverse, so only a ``FieldElement`` divides or takes a
negative power; a quotient of polynomials is one.  ``is_square`` and
``is_power`` read a constant through ``constant()``, which Cyc, MultiPoly
and FieldElement share (None for a non-constant); they decide constants with
a rational value exactly (see cyclotomic.Cyc.sqrt) and leave every other
square undecided.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, neg
from struct import Struct
from typing import Iterable, Optional, Union

from .cyclotomic import (Cyc, DerivedOps, ExactFieldError, cyc_over, cyclotomic_polynomial,
                         euler_phi, reduce_powers)

ScalarLike = Union[int, Fraction, Cyc]

_BITS = 32  # width of one exponent field in a packed monomial
_MAX_DEGREE = (1 << (_BITS - 1)) - 1  # keeps each field's top (guard) bit clear


def _lowest_terms(ring: "PolyRing", coeffs: dict, den: int, lead=None) -> "MultiPoly":
    # coeffs {key: nonzero tuple} over den > 0: one gcd pass over all of them
    if den != 1 and (g := gcd(den, *chain.from_iterable(coeffs.values()))) > 1:
        den //= g
        coeffs = {k: tuple(a // g for a in v) for k, v in coeffs.items()}
    return MultiPoly._make(ring, coeffs, den, lead)


class PolyRing:
    """Variable names plus a cyclotomic conductor; one shared object per key."""

    __slots__ = ("variables", "conductor", "_index", "_one", "_phi", "_fields", "_shift", "_guard")
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
        ring._phi = euler_phi(conductor)
        ring._fields = Struct(f"<{len(variables)}I")  # one exponent per 32-bit field
        ring._shift = _BITS * len(variables)
        ring._guard = sum(1 << (_BITS * i + _BITS - 1) for i in range(len(variables)))
        ring._one = MultiPoly._make(ring, {0: (1,) + (0,) * (ring._phi - 1)}, 1, 0)
        cls._rings[(variables, conductor)] = ring
        return ring

    def _pack(self, exps) -> int:
        if len(exps) != len(self.variables) or min(exps, default=0) < 0:
            raise ValueError(f"bad exponents for {self}: {exps!r}")
        if sum(exps) > _MAX_DEGREE:
            raise ExactFieldError("total degree past the packed exponent width")
        return (sum(exps) << self._shift) - int.from_bytes(self._fields.pack(*exps), "little")

    def _unpack(self, key: int) -> tuple[int, ...]:
        rest = (-(-key >> self._shift) << self._shift) - key  # deg(e)*W^n - key
        return self._fields.unpack(rest.to_bytes(self._fields.size, "little"))

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable: {name!r}")
        return self._index[name]

    def zero(self) -> "MultiPoly":
        return MultiPoly._make(self, {}, 1)

    def one(self) -> "MultiPoly":
        """The ring's unit polynomial, one shared object."""
        return self._one

    def scalar(self, value: ScalarLike) -> "MultiPoly":
        if not isinstance(value, Cyc):
            q = value if isinstance(value, int) else Fraction(value)
            nums, den = (q.numerator,) + (0,) * (self._phi - 1), q.denominator
        elif self.conductor % value.conductor == 0:
            c = value.lift(self.conductor)
            nums, den = c.nums, c.den
        else:
            raise ValueError("scalar conductor does not divide ring conductor")
        if not any(nums):
            return self.zero()
        if den == 1 and nums == self._one.coeffs[0]:
            return self._one
        return MultiPoly._make(self, {0: nums}, den, 0)

    def var(self, name: str) -> "MultiPoly":
        exps = [0] * len(self.variables)
        exps[self.var_index(name)] = 1
        key = self._pack(exps)
        return MultiPoly._make(self, {key: self._one.coeffs[0]}, 1, key)

    def element(self, value) -> Union["FieldElement", Cyc]:
        """value in the ring's fraction field: a FieldElement, or a Cyc of
        the ring's conductor when the ring has no variables."""
        if isinstance(value, (FieldElement, MultiPoly)):
            if value.ring is not self:
                raise ValueError("ring mismatch")
            if isinstance(value, FieldElement):
                return value
            return FieldElement(value, self._one) if self.variables else value.constant()
        if self.variables:
            return FieldElement._normalized(self, self.scalar(value), self._one)
        if isinstance(value, Cyc):
            return value.lift(self.conductor)
        return Cyc.rational(value, self.conductor)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; conductor={self.conductor})"


class MultiPoly(DerivedOps):
    """Sparse polynomial {packed monomial: coordinates} over one denominator;
    ``coeffs`` is never mutated.  Polynomials come from the ring (``var``,
    ``scalar``) and from arithmetic."""

    __slots__ = ("ring", "coeffs", "denom", "_lead")

    @classmethod
    def _make(cls, ring: PolyRing, coeffs: dict, denom: int, lead=None) -> "MultiPoly":
        # coeffs {key: nonzero tuple} over denom, in lowest terms; lead is their
        # largest key, or None when not known yet
        p = object.__new__(cls)
        p.ring = ring
        p.coeffs = coeffs
        p.denom = denom
        p._lead = lead
        return p

    # -- views -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        if self is self.ring._one:
            return True
        return self.denom == 1 and self.coeffs == self.ring._one.coeffs

    def constant(self) -> Optional[Cyc]:
        """The value as a Cyc when it is constant, else None."""
        if any(self.coeffs):  # only the constant monomial packs to 0
            return None
        ring = self.ring
        return cyc_over(ring.conductor, self.coeffs.get(0, (0,) * ring._phi), self.denom)

    def _leading_key(self) -> int:
        lead = self._lead
        if lead is None:
            if not self.coeffs:
                raise ExactFieldError("zero polynomial has no leading term")
            lead = self._lead = max(self.coeffs)
        return lead

    def leading_coefficient(self) -> Cyc:
        return cyc_over(self.ring.conductor, self.coeffs[self._leading_key()], self.denom)

    def _is_monic(self) -> bool:
        v = self.coeffs[self._leading_key()]
        return v[0] == self.denom and not any(v[1:])

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
        d1, d2 = self.denom, o.denom
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        coeffs = dict(self.coeffs) if s1 == 1 else {
            k: tuple(a * s1 for a in v) for k, v in self.coeffs.items()}
        for k, w in o.coeffs.items():
            if s2 != 1:
                w = tuple(b * s2 for b in w)
            v = coeffs.get(k)
            if v is None:
                coeffs[k] = w
            elif any(w := tuple(map(add, v, w))):
                coeffs[k] = w
            else:
                del coeffs[k]
        return _lowest_terms(self.ring, coeffs, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.ring, {k: tuple(map(neg, v)) for k, v in self.coeffs.items()},
                               self.denom, self._lead)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        if o is ring._one:
            return self
        if self is ring._one:
            return o
        if not self.coeffs or not o.coeffs:
            return ring.zero()
        lead = self._leading_key() + o._leading_key()
        if lead > _MAX_DEGREE << ring._shift:  # the largest key of that degree
            raise ExactFieldError("total degree past the packed exponent width")
        for p, q in ((self, o), (o, self)):
            if len(q.coeffs) == 1:
                ((shift, w),) = q.coeffs.items()
                if any(w[1:]):
                    continue
                # a monomial with a rational coefficient c scales coordinates,
                # and with c = 1 only shifts keys
                if (c := w[0]) == 1 and q.denom == 1:
                    return MultiPoly._make(ring, {k + shift: v for k, v in p.coeffs.items()},
                                           p.denom, lead)
                return _lowest_terms(ring, {k + shift: tuple(a * c for a in v)
                                            for k, v in p.coeffs.items()}, p.denom * q.denom, lead)
        size = 2 * ring._phi - 1
        xs = [(k, [(i, a) for i, a in enumerate(v) if a]) for k, v in self.coeffs.items()]
        ys = [(k, [(j, b) for j, b in enumerate(v) if b]) for k, v in o.coeffs.items()]
        acc: dict = {}
        for k1, v1 in xs:
            for k2, v2 in ys:
                conv = acc.get(k := k1 + k2) or acc.setdefault(k, [0] * size)
                for i, a in v1:
                    for j, b in v2:
                        conv[i + j] += a * b
        coeffs = {}
        for k, conv in acc.items():
            nums = reduce_powers(conv, ring.conductor)
            if any(nums):
                coeffs[k] = tuple(nums)
        return _lowest_terms(ring, coeffs, self.denom * o.denom, lead)

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "MultiPoly":
        return self * self.ring.scalar(c)

    # -- comparisons, display, serialization ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            other = self.ring.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring is other.ring and self.denom == other.denom
                and self.coeffs == other.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        ring = self.ring
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = cyc_over(ring.conductor, self.coeffs[k], self.denom)
            mon = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(ring.variables, ring._unpack(k))
                if p
            )
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> dict:
        ring, n, d = self.ring, self.ring.conductor, self.denom
        terms = {}
        for k, v in self.coeffs.items():
            g = gcd(d, *v)  # each coefficient in lowest terms
            terms[",".join(map(str, ring._unpack(k)))] = {
                "conductor": n, "den": d // g, "nums": [a // g for a in v] if g > 1 else list(v)}
        return {"vars": list(ring.variables), "conductor": n, "terms": terms}


def exact_divide(num: MultiPoly, den: MultiPoly) -> Optional[MultiPoly]:
    """num / den when the division is exact in the polynomial ring, else None.

    Raises ExactFieldError when the remainder's leading monomial fails to
    fall in grevlex order, which only a wrong cached leading monomial causes.
    """
    if num.ring is not den.ring:
        raise ValueError("ring mismatch")
    if den.is_zero():
        raise ExactFieldError("division by zero")
    if num.is_zero():
        return num
    ring = num.ring
    guard = ring._guard
    den_lead, lead = den._leading_key(), num._leading_key()
    if (den_lead - lead) & guard:
        return None
    if not den._is_monic():
        inv = den.leading_coefficient().inverse()
        num, den = num.scale(inv), den.scale(inv)
    # rows[i] holds zeta^i * c for a term c*x^e of den, e != lead(den), at the
    # key offset e - lead(den); a quotient term at the remainder's lead m then
    # subtracts its multiples at m + offset
    phi, cyc = ring._phi, cyclotomic_polynomial(ring.conductor)
    tail = []
    for k, v in den.coeffs.items():
        if k != den_lead:
            rows = []
            for _ in range(phi):  # zeta * v = (0, v_0, ..) - v_{phi-1} * Phi_N
                rows.append([(j, b) for j, b in enumerate(v) if b])
                v = [-v[-1] * cyc[0]] + [a - v[-1] * f for a, f in zip(v, cyc[1:-1])]
            tail.append((k - den_lead, rows))
    # the remainder is over rem_den; den's denominator du multiplies it at every
    # step, 1 for an integral monic den
    du, rem_den = den.denom, num.denom
    rem = {k: list(v) for k, v in num.coeffs.items()}
    quot = []
    while True:
        v = rem.pop(lead)
        quot.append((lead - den_lead, v, rem_den))
        if du != 1:
            for w in rem.values():
                w[:] = [a * du for a in w]
            rem_den *= du
        nz = [(i, a) for i, a in enumerate(v) if a]
        for offset, rows in tail:
            w = rem.get(k := lead + offset) or rem.setdefault(k, [0] * phi)
            for i, a in nz:
                for j, b in rows[i]:
                    w[j] -= a * b
            if not any(w):
                del rem[k]
        if not rem:
            break
        last, lead = lead, max(rem)
        if lead >= last:
            raise ExactFieldError("exact_divide: the remainder's leading term did not fall")
        if (den_lead - lead) & guard:
            return None
    # the first quotient term is the leading one: each step lowers the lead
    coeffs = {k: tuple(a * (rem_den // d) for a in v) if d != rem_den else tuple(v)
              for k, v, d in quot}
    return _lowest_terms(ring, coeffs, rem_den, quot[0][0])


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
            if not den._is_monic():
                inv = den.leading_coefficient().inverse()
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

    def constant(self) -> Optional[Cyc]:
        """The value as a Cyc when it is constant, else None."""
        c = self.num.constant()
        return c if self.den.is_one() else None

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

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"FieldElement({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def is_square(f: Union[FieldElement, Cyc]) -> Union[FieldElement, Cyc, None]:
    """A verified square root of f, in f's own type, or None.

    None is exact for a constant with a rational value; for any other f it
    means "not decided".
    """
    c = f.constant()
    root = None if c is None else c.sqrt()
    return None if root is None else f._coerce(root)


def is_power(f: Union[FieldElement, Cyc], p: int) -> Optional[bool]:
    """Whether f is a p-th power in its field, for a prime p; None when not decided.

    False when some variable's lowest or highest degree (numerator minus
    denominator), both valuations, is not divisible by p.  Exact for rational
    constants: at p = 2 by Cyc.sqrt, at odd p by integer roots, as a rational
    p-th power in an abelian field is one in Q (Lang, Algebra, VI sec. 9)."""
    q = f.constant()
    if q is not None:
        if not q.is_rational():
            return None
        if p == 2:
            return q.sqrt() is not None
        q = q.as_fraction()
        return all(_integer_root(abs(n), p) ** p == abs(n) for n in (q.numerator, q.denominator))
    num, den = ([f.ring._unpack(k) for k in g.coeffs] for g in (f.num, f.den))
    for k in range(len(f.ring.variables)):
        for pick in (min, max):
            if (pick(e[k] for e in num) - pick(e[k] for e in den)) % p:
                return False
    return None


def _integer_root(n: int, p: int) -> int:
    r = 1 << -(-n.bit_length() // p)  # floor(n^(1/p)) by Newton from above
    while r ** p > n:
        r = ((p - 1) * r + n // r ** (p - 1)) // p
    return r
