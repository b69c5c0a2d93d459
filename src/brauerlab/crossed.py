"""Crossed products for Z/m x Z/2 over exact function fields.

Every algebra here is a twisted group algebra: a direct sum of C e_g over a
finite abelian group G, for a coefficient ring C on which G acts, with

    (a e_g)(b e_h) = a g(b) c(g, h) e_(gh)

for a factor set c.  ``GradedAlgebra`` holds that product once; each
algebra supplies only its rule (g, h) -> (gh, c(g, h)), whose values are
looked up once and kept in a table.

Each algebra lists its grading group G as ``grades``, the unit first; the
unit and the scalars are read from that list.

    KummerField     F[Z/m x Z/2], trivial action, carries a1, a2, a1 a2:
                    K = F(al1, al2) with al1^m = a1, al2^2 = a2.
    SymbolAlgebra   F[Z/m x Z/m], trivial action, x^m = a, y^m = b,
                    xy = zeta_m yx.
    GradedTensor    A (x) B for two algebras over F with trivial action,
                    graded by pairs: c((g, g'), (h, h')) = c_A(g, h) c_B(g', h').
    CrossedAlgebra  K[Z/m x Z/2], acting by s1 (al1 -> zeta_m al1) and
                    s2 (al2 -> -al2), with basis z^(k, l) = z1^k z2^l and

    z1 x z1^-1 = s1(x),  z2 x z2^-1 = s2(x)   for x in K,
    z1^m = b1 in F(al2),  z2^2 = b2 in F(al1),  z1 z2 = u z2 z1.

The crossed algebra is associative exactly when its factor set is a
2-cocycle, c(g, h) c(gh, k) = s_g(c(h, k)) c(g, hk) on all (2m)^3 group
triples.  For two cyclic generators that identity reduces to two norm
conditions (Amitsur-Saltman, "Generic abelian crossed products and
p-algebras", J. Algebra 51 (1978)), which are what construction checks:

    (a)  N_s1(u) s2(b1) = b1,  N_s1(u) = u s1(u) ... s1^(m-1)(u),
    (b)  u s2(u) b2 = s1(b2).

(a) is z1^m = b1 conjugated by z2, since z2 z1 z2^-1 = u^-1 z1; (b) is
z2^2 = b2 conjugated by z1, since z1 z2 z1^-1 = u z2.  So both are
necessary.  They are sufficient: K[z1; s1]/(z1^m - b1) is associative
because b1 is s1-fixed, so z1^m - b1 is central; (a) makes x -> s2(x) on K,
z1 -> u^-1 z1 an endomorphism t of it; and (b), with s2(b2) = b2, makes
z2^2 - b2 normal in the skew polynomial ring over t, whose quotient is the
crossed algebra.  The invariances s1(b1) = b1 and s2(b2) = b2 follow from
b1 in F(al2) and b2 in F(al1).  One consequence: u = 1 with b1 having a
genuine al2 component is always rejected.  Norm-compatible instances with
both components of b1 nonzero come from ``instance_from_symbol``, which
realizes the crossed product inside a degree-2m symbol algebra.

Associativity is also what ``invertible_delta_power`` rests on: an algebra
that passes (a) and (b) is power-associative, so delta^2m may be taken by
squaring and a scalar delta^2m = d' makes d'^-1 delta^(2m-1) a two-sided
inverse.  That function checks (a) and (b) itself, whatever the check level.

The check level "cyclic" covers only Z/m x 0, that is the subalgebra
generated by K and z1, where the identity says s1(b1) = b1: membership
b1 in F(al2) already gives it, so "cyclic" adds no check, and puts no
condition on u or b2.  It exists because the power-cancellation identity
and the gamma-power computations live entirely in that subalgebra and are
meaningful for fully independent parameters where no compatible u exists
over the rational function field.  The level "none" skips (a) and (b).
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Optional, Sequence

from .exactfield import Cyc, FieldElement, PolyRing, common_conductor


class CrossedError(ValueError):
    """Invalid crossed-product data or a failed certificate computation."""


KElem = dict  # {(i, j): FieldElement}, i < m, j < 2

UNIT = (0, 0)  # the identity of Z/m x Z/n, the grades of the cyclic algebras here


def _root_of_unity(ring: PolyRing, order: int) -> Cyc:
    if ring.conductor % order:
        raise CrossedError(f"conductor {ring.conductor} lacks a primitive root of order {order}")
    return Cyc.zeta(ring.conductor, ring.conductor // order)


def standard_ring(m: int, names: Sequence[str] = ("a1", "a2", "f1", "f2")) -> PolyRing:
    """Function field for degree-2m crossed products: conductor holds both
    a primitive 2m-th and a 4th root of unity."""
    return PolyRing(tuple(names), common_conductor(m))


# --------------------------------------------------------------- twisted group algebras


class FieldScalars:
    """F as a coefficient ring: FieldElements, on which the grading acts trivially."""

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    scale = staticmethod(operator.mul)
    equal = staticmethod(operator.eq)

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def zero(self) -> FieldElement:
        return self.ring.element(0)

    def one(self) -> FieldElement:
        return self.ring.element(1)

    @staticmethod
    def is_zero(c: FieldElement) -> bool:
        return c.is_zero()

    @staticmethod
    def scalar_of(c: FieldElement) -> FieldElement:
        return c

    @staticmethod
    def act(g, c: FieldElement) -> FieldElement:
        return c


class GradedAlgebra:
    """Twisted group algebra over a coefficient ring; see module docstring.

    An element is {g: coefficient}, with zero coefficients dropped.  The
    coefficient ring supplies zero / one / add / neg / mul / scale / is_zero /
    equal / scalar_of / act(g, c); a subclass passes its grading group
    ``grades`` (unit first) and supplies ``_rule(g, h)`` returning
    (gh, c(g, h)), with None standing for c = 1.
    """

    def __init__(self, coeffs, grades: Sequence):
        self.coeffs = coeffs
        self.grades = list(grades)
        self._table: dict = {}

    def entry(self, g, h) -> tuple:
        """(gh, c(g, h)), computed by the rule on first use."""
        found = self._table.get((g, h))
        if found is None:
            found = self._table[(g, h)] = self._rule(g, h)
        return found

    def _times(self, c, d):
        """c d, with None standing for 1."""
        if c is None:
            return d
        if d is None:
            return c
        return self.coeffs.mul(c, d)

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {self.grades[0]: self.coeffs.one()}

    def add(self, x: dict, y: dict) -> dict:
        C = self.coeffs
        out = dict(x)
        for g, c in y.items():
            if g in out:
                s = C.add(out[g], c)
                if C.is_zero(s):
                    del out[g]
                else:
                    out[g] = s
            else:
                out[g] = c
        return out

    def neg(self, x: dict) -> dict:
        return {g: self.coeffs.neg(c) for g, c in x.items()}

    def scale(self, x: dict, value) -> dict:
        """x times the F-scalar value."""
        C = self.coeffs
        out = {}
        for g, c in x.items():
            s = C.scale(c, value)
            if not C.is_zero(s):
                out[g] = s
        return out

    def mul(self, x: dict, y: dict) -> dict:
        C = self.coeffs
        out: dict = {}
        for g, a in x.items():
            for h, b in y.items():
                gh, c = self.entry(g, h)
                coeff = C.mul(a, C.act(g, b))
                if c is not None:
                    coeff = C.mul(coeff, c)
                if gh in out:
                    coeff = C.add(out[gh], coeff)
                    if C.is_zero(coeff):
                        del out[gh]
                        continue
                elif C.is_zero(coeff):
                    continue
                out[gh] = coeff
        return out

    def power(self, x: dict, n: int) -> dict:
        if n < 1:
            return self.one()
        out = x
        for _ in range(n - 1):
            out = self.mul(out, x)
        return out

    def equal(self, x: dict, y: dict) -> bool:
        C = self.coeffs
        zero = C.zero()
        return all(C.equal(x.get(g, zero), y.get(g, zero)) for g in set(x) | set(y))

    def is_zero(self, x: dict) -> bool:
        return all(self.coeffs.is_zero(c) for c in x.values())

    def scalar_of(self, x: dict) -> Optional[FieldElement]:
        """The F-component when x is a pure F-scalar, else None."""
        C = self.coeffs
        unit = self.grades[0]
        if any(g != unit and not C.is_zero(c) for g, c in x.items()):
            return None
        return C.scalar_of(x.get(unit, C.zero()))


class KummerField(GradedAlgebra):
    """K = F[al1, al2]/(al1^m - a1, al2^2 - a2) with its two automorphisms.

    As a coefficient ring of a crossed algebra, (k, l) acts as s1^k s2^l.
    """

    def __init__(self, ring: PolyRing, m: int, a1, a2):
        if m < 2:
            raise CrossedError("degree m must be at least 2")
        super().__init__(FieldScalars(ring), [(i, j) for i in range(m) for j in range(2)])
        self.ring = ring
        self.m = m
        self.a1 = ring.element(a1)
        self.a2 = ring.element(a2)
        if self.a1.is_zero() or self.a2.is_zero():
            raise CrossedError("zero parameter")
        self.zeta_m = _root_of_unity(ring, m)
        self.zeta_2m = _root_of_unity(ring, 2 * m)
        self.dim = 2 * m
        # zeta_m^k and -zeta_m^k for k < m, the factors sigma applies
        powers = [Cyc.zeta(ring.conductor, k * (ring.conductor // m)) for k in range(m)]
        self._twists = (powers, [-z for z in powers])

    def _rule(self, g, h) -> tuple:
        i, j = g[0] + h[0], g[1] + h[1]
        c = None
        if i >= self.m:
            i -= self.m
            c = self.a1
        if j >= 2:
            j -= 2
            c = self._times(c, self.a2)
        return (i, j), c

    # -- element builders ------------------------------------------------

    def scalar(self, value) -> KElem:
        fe = self.ring.element(value)
        return {} if fe.is_zero() else {UNIT: fe}

    def alpha1(self, power: int = 1) -> KElem:
        return {(power % self.m, 0): self.ring.element(1)}

    def alpha2(self) -> KElem:
        return {(0, 1): self.ring.element(1)}

    def from_pair(self, f1, f2) -> KElem:
        """f1 + f2*al2, the general element of F(al2)."""
        out: KElem = {}
        fe1, fe2 = self.ring.element(f1), self.ring.element(f2)
        if not fe1.is_zero():
            out[(0, 0)] = fe1
        if not fe2.is_zero():
            out[(0, 1)] = fe2
        return out

    def from_alpha1_coeffs(self, coeffs: Sequence) -> KElem:
        out: KElem = {}
        for i, c in enumerate(coeffs):
            fe = self.ring.element(c)
            if not fe.is_zero():
                out[(i, 0)] = fe
        return out

    def coerce(self, value) -> KElem:
        if isinstance(value, dict):
            return {k: self.ring.element(v) for k, v in value.items() if not self.ring.element(v).is_zero()}
        if isinstance(value, (tuple, list)):
            raise CrossedError("ambiguous K element; use from_pair or from_alpha1_coeffs")
        return self.scalar(value)

    # -- automorphisms and inverses -----------------------------------------

    def sigma(self, x: KElem, s1: int, s2: int) -> KElem:
        """Apply s1^s1 s2^s2: coefficient at al1^i al2^j gains zeta_m^(s1*i) * (-1)^(s2*j)."""
        if (s1 % self.m) == 0 and (s2 % 2) == 0:
            return x
        out: KElem = {}
        for (i, j), c in x.items():
            factor = self._twists[(s2 * j) % 2][(s1 * i) % self.m]
            if not factor.is_rational():
                c = c * factor
            elif not factor.is_one():
                c = -c  # the only rational roots of unity are 1 and -1
            out[(i, j)] = c
        return out

    def act(self, g, x: KElem) -> KElem:
        return self.sigma(x, *g)

    def inverse(self, x: KElem) -> KElem:
        """Invert by the norm-cofactor formula: the product of all nontrivial
        Galois twists over the scalar norm.  Keeps fractions small, and the
        norm is zero exactly when x is a zero divisor."""
        if self.is_zero(x):
            raise CrossedError("division by zero in K")
        scalar = self.scalar_of(x)
        if scalar is not None:
            return self.scalar(scalar.inverse())
        support = [key for key, c in x.items() if not c.is_zero()]
        cofactor = self.one()
        if all(i == 0 for i, _ in support):
            # x in F(al2): conjugate over the quadratic subfield
            cofactor = self.sigma(x, 0, 1)
        elif all(j == 0 for _, j in support):
            # x in F(al1): sigma1-orbit product
            for s1 in range(1, self.m):
                cofactor = self.mul(cofactor, self.sigma(x, s1, 0))
        else:
            for s1 in range(self.m):
                for s2 in range(2):
                    if s1 == 0 and s2 == 0:
                        continue
                    cofactor = self.mul(cofactor, self.sigma(x, s1, s2))
        norm = self.scalar_of(self.mul(x, cofactor))
        if norm is None or norm.is_zero():
            raise CrossedError("element of K is not invertible")
        inv = self.scale(cofactor, norm.inverse())
        if not self.equal(self.mul(x, inv), self.one()):
            raise CrossedError("element of K is not invertible")
        return inv

    # -- serialization -------------------------------------------------------

    def to_json(self, x: KElem) -> dict:
        return {f"{i},{j}": c.to_json() for (i, j), c in x.items()}

    def render(self, x: KElem) -> str:
        if self.is_zero(x):
            return "0"
        parts = []
        for (i, j) in sorted(x):
            c = x[(i, j)]
            mono = "*".join(
                ([f"al1^{i}" if i > 1 else "al1"] if i else [])
                + ([f"al2"] if j else [])
            )
            cs = str(c)
            if len(c.num.terms) > 1 and c.den.is_one():
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


# --------------------------------------------------------------- symbol algebras


class SymbolAlgebra(GradedAlgebra):
    """Degree-m symbol algebra: x^m = a, y^m = b, xy = zeta_m yx.

    Elements are {(i, j): FieldElement} on the basis x^i y^j.
    """

    def __init__(self, ring: PolyRing, a, b, m: int):
        super().__init__(FieldScalars(ring), [(i, j) for i in range(m) for j in range(m)])
        self.ring = ring
        self.m = m
        self.a = ring.element(a)
        self.b = ring.element(b)
        if self.a.is_zero() or self.b.is_zero():
            raise CrossedError("zero parameter")
        self.zeta = _root_of_unity(ring, m)
        self.dim = m * m
        self._verify_relations()

    def _rule(self, g, h) -> tuple:
        m = self.m
        (i1, j1), (i2, j2) = g, h
        # y^j1 x^i2 = zeta^(-j1*i2) x^i2 y^j1
        twist = (-j1 * i2) % m
        c = self.ring.element(self.zeta ** twist) if twist else None
        i, j = i1 + i2, j1 + j2
        if i >= m:
            i -= m
            c = self._times(c, self.a)
        if j >= m:
            j -= m
            c = self._times(c, self.b)
        return (i, j), c

    def x(self, power: int = 1) -> dict:
        return self.element_mono(power, 0)

    def y(self, power: int = 1) -> dict:
        return self.element_mono(0, power)

    def element_mono(self, i: int, j: int, coeff=1) -> dict:
        return {(i % self.m, j % self.m): self.ring.element(coeff)}

    def _verify_relations(self):
        checks = [
            self.equal(self.power(self.x(), self.m), {UNIT: self.a}),
            self.equal(self.power(self.y(), self.m), {UNIT: self.b}),
            self.equal(
                self.mul(self.x(), self.y()),
                self.scale(self.mul(self.y(), self.x()), self.zeta),
            ),
        ]
        if not all(checks):
            raise CrossedError("symbol algebra relations failed to verify")


# --------------------------------------------------------------- tensor products


class GradedTensor(GradedAlgebra):
    """A (x) B for two algebras over the same F with trivial action.

    Graded by pairs (g, g'), with e_(g, g') = e_g (x) e_g' and
    c((g, g'), (h, h')) = c_A(g, h) c_B(g', h').
    """

    def __init__(self, left: GradedAlgebra, right: GradedAlgebra):
        if not (isinstance(left.coeffs, FieldScalars) and isinstance(right.coeffs, FieldScalars)):
            raise CrossedError("tensor factors must be algebras over F")
        if left.coeffs.ring is not right.coeffs.ring:
            raise CrossedError("mismatched scalar fields")
        super().__init__(left.coeffs, [(g, h) for g in left.grades for h in right.grades])
        self.left = left
        self.right = right

    def _rule(self, g, h) -> tuple:
        gh, c = self.left.entry(g[0], h[0])
        gh2, c2 = self.right.entry(g[1], h[1])
        return (gh, gh2), self._times(c, c2)


# --------------------------------------------------------------- crossed algebras


CHECK_LEVELS = ("full", "cyclic", "none")


class CrossedAlgebra(GradedAlgebra):
    """Structure-constant crossed product for Z/m x Z/2; see module docstring.

    Elements are {(k, l): KElem} representing sums of K-coefficients times
    z1^k z2^l, with k < m and l < 2.  ``check`` is one of CHECK_LEVELS: the
    norm conditions (a) and (b), equivalent to the 2-cocycle identity over
    all of Z/m x Z/2 ("full"); the identity over Z/m x 0 only, which the
    membership of b1 in F(al2) already gives ("cyclic"); or nothing
    ("none").  The conjugation relations
    z x = s(x) z hold for every (u, b1, b2) and need no check: ``mul`` applies
    the action, c(g, h) = 1 when g or h is the unit, and K is commutative.
    """

    def __init__(self, K: KummerField, u, b1, b2, check: str = "full"):
        if check not in CHECK_LEVELS:
            raise CrossedError(f"unknown check level {check!r}")
        super().__init__(K, [(k, l) for k in range(K.m) for l in range(2)])
        self.K = K
        self.m = K.m
        self.ring = K.ring
        self.u = K.coerce(u)
        self.b1 = K.coerce(b1) if isinstance(b1, dict) else (
            K.from_pair(*b1) if isinstance(b1, (tuple, list)) else K.scalar(b1)
        )
        self.b2 = K.coerce(b2) if isinstance(b2, dict) else (
            K.from_alpha1_coeffs(b2) if isinstance(b2, (tuple, list)) else K.scalar(b2)
        )
        if K.is_zero(self.b1) or K.is_zero(self.b2) or K.is_zero(self.u):
            raise CrossedError("zero parameter")
        if any(key not in ((0, 0), (0, 1)) for key in self.b1):
            raise CrossedError("b1 must lie in F(al2)")
        if any(j != 0 for (_, j) in self.b2):
            raise CrossedError("b2 must lie in F(al1)")
        self.dim = 4 * self.m * self.m
        self.check_level = check
        self._norm_ok: Optional[bool] = None
        # checked before u is inverted, so refused data costs no inverse;
        # "cyclic" needs s1(b1) = b1 only, which b1 in F(al2) already gives
        if check == "full" and not self.norm_conditions_hold():
            raise CrossedError("associativity violated: incompatible (u, b1, b2)")
        self._u_inv = K.inverse(self.u)

    def _rule(self, g, h) -> tuple:
        K = self.K
        (k, l), (k2, l2) = g, h
        c = None
        if l and k2:
            # z2 z1^k2 = C z1^k2 z2 with C = u^-1 s1(u^-1) ... s1^(k2-1)(u^-1),
            # which is c((0, 1), (k2, 0)); build it from the entry for k2 - 1
            c = self._u_inv if k2 == 1 else K.mul(
                self.entry((0, 1), (k2 - 1, 0))[1], K.sigma(self._u_inv, k2 - 1, 0))
            c = K.sigma(c, k, 0)
        kk, ll = k + k2, l + l2
        if kk >= self.m:
            kk -= self.m
            c = self._times(c, K.sigma(self.b1, kk, 0))
        if ll >= 2:
            ll -= 2
            c = self._times(c, K.sigma(self.b2, kk, 0))
        return (kk, ll), c

    # -- elements -----------------------------------------------------------

    def scalar(self, value) -> dict:
        k = value if isinstance(value, dict) else self.K.scalar(value)
        return {} if self.K.is_zero(k) else {UNIT: k}

    def alpha1(self, power: int = 1) -> dict:
        return {UNIT: self.K.alpha1(power)}

    def alpha2(self) -> dict:
        return {UNIT: self.K.alpha2()}

    def z1(self) -> dict:
        return {(1, 0): self.K.one()}

    def z2(self) -> dict:
        return {(0, 1): self.K.one()}

    # -- flat coordinates -----------------------------------------------------

    def index_of(self, i: int, j: int, k: int, l: int) -> int:
        return ((k * 2 + l) * self.m + i) * 2 + j

    def coords(self, x: dict) -> list:
        zero = self.ring.element(0)
        out = [zero] * self.dim
        for (k, l), coeff in x.items():
            for (i, j), c in coeff.items():
                out[self.index_of(i, j, k, l)] = c
        return out

    # -- construction-time verification ---------------------------------------

    def norm_conditions_hold(self) -> bool:
        """Norm conditions (a) and (b) of the module docstring, which hold
        exactly when this algebra is associative: m + 2 products in K on the
        first call, whose answer is kept for the fixed (u, b1, b2)."""
        if self._norm_ok is None:
            K, u = self.K, self.u
            norm = u
            for i in range(1, self.m):
                norm = K.mul(norm, K.sigma(u, i, 0))
            self._norm_ok = (
                K.equal(K.mul(norm, K.sigma(self.b1, 0, 1)), self.b1)
                and K.equal(K.mul(K.mul(u, K.sigma(u, 0, 1)), self.b2), K.sigma(self.b2, 1, 0)))
        return self._norm_ok

    # -- descriptions ------------------------------------------------------------

    def params_json(self) -> dict:
        return {
            "m": self.m,
            "a1": self.K.a1.to_json(),
            "a2": self.K.a2.to_json(),
            "u": self.K.to_json(self.u),
            "b1": self.K.to_json(self.b1),
            "b2": self.K.to_json(self.b2),
        }

    def b1_pair(self) -> tuple:
        zero = self.ring.element(0)
        return (self.b1.get((0, 0), zero), self.b1.get((0, 1), zero))


def crossed_from_data(
    m: int,
    a1,
    a2,
    u,
    b1,
    b2,
    ring: Optional[PolyRing] = None,
    check: str = "full",
) -> CrossedAlgebra:
    """Crossed algebra from raw data, verified at the given check level.

    At "full" the data is accepted exactly when (u, b1, b2) gives an
    associative algebra, decided by the norm conditions (a) and (b) of the
    module docstring; see CrossedAlgebra for "cyclic" and "none".  b1 may
    be a scalar or a pair (f1, f2) meaning f1 + f2*al2; b2 a scalar or a
    coefficient list over powers of al1; u a scalar or a K coefficient dict.
    """
    if ring is None:
        for candidate in (a1, a2, u, b1, b2):
            if isinstance(candidate, FieldElement):
                ring = candidate.ring
                break
        else:
            ring = standard_ring(m)
    K = KummerField(ring, m, a1, a2)
    return CrossedAlgebra(K, u, b1, b2, check=check)


def tensor_brauer(A: CrossedAlgebra, B: CrossedAlgebra, check: str = "full") -> CrossedAlgebra:
    """Brauer product at the parameter level: (u u', b1 b1', b2 b2')."""
    if A.m != B.m or A.K.a1 != B.K.a1 or A.K.a2 != B.K.a2 or A.ring != B.ring:
        raise CrossedError("mismatched K-data")
    K = A.K
    return CrossedAlgebra(
        K,
        K.mul(A.u, B.u),
        K.mul(A.b1, B.b1),
        K.mul(A.b2, B.b2),
        check=check,
    )


# --------------------------------------------------------------- power cancellation


class PowerCancellationCertificate:
    """Record of the exact expansion (z1 + al1)^m = b1 + a1."""

    def __init__(self, m: int, ok: bool, computed: str, expected: str, check_level: str):
        self.m = m
        self.ok = ok
        self.computed = computed
        self.expected = expected
        self.check_level = check_level

    def to_json(self) -> dict:
        return {
            "identity": "(z1 + al1)^m = b1 + a1",
            "m": self.m,
            "ok": self.ok,
            "computed": self.computed,
            "expected": self.expected,
            "check_level": self.check_level,
        }


def bergman_power(A: CrossedAlgebra) -> PowerCancellationCertificate:
    """Expand (z1 + al1)^m exactly and compare with b1 + a1.

    Every term of the expansion lives in the subalgebra generated by K and
    z1, so the identity is insensitive to (u, b2).  A failure here would be
    an implementation bug, so it raises rather than returning a red result.
    """
    gamma = A.add(A.z1(), A.alpha1())
    computed = A.power(gamma, A.m)
    expected = A.scalar(A.K.add(A.b1, A.K.scalar(A.K.a1)))
    ok = A.equal(computed, expected)
    if not ok:
        raise CrossedError("power cancellation identity failed: implementation bug")

    def render(x: dict) -> str:
        if A.is_zero(x):
            return "0"
        return " + ".join(
            f"({A.K.render(c)})*z1^{k}*z2^{l}" if (k or l) else A.K.render(c)
            for (k, l), c in sorted(x.items())
        )

    return PowerCancellationCertificate(A.m, ok, render(computed), render(expected), A.check_level)


def generic_cyclic_algebra(m: int) -> CrossedAlgebra:
    """Fully symbolic (a1, a2, f1, f2) algebra checked at the cyclic level.

    No u over the rational function field is compatible with independent
    f1, f2 (the norm condition N_s1(u) = b1/s2(b1) has no rational solution),
    so the z2-side is left unverified: everything computed from this algebra
    must stay inside the K-z1 subalgebra, which is associative for any b1.
    """
    ring = standard_ring(m)
    K = KummerField(ring, m, ring.element(ring.var("a1")), ring.element(ring.var("a2")))
    b1 = K.from_pair(ring.element(ring.var("f1")), ring.element(ring.var("f2")))
    return CrossedAlgebra(K, K.one(), b1, K.one(), check="cyclic")


def instance_from_symbol(
    m: int,
    e,
    g,
    t,
    lam,
    ring: Optional[PolyRing] = None,
    check: str = "full",
    mu=0,
    nu=0,
) -> CrossedAlgebra:
    """Norm-compatible crossed product realized inside the symbol (e, g)_2m.

    With x^2m = e, y^2m = g, xy = zeta_2m yx, the elements al1 = x^2,
    al2 = y^m, z1 = (al2 + t) y^-1, z2 = tau x generate a crossed product
    with a1 = e, a2 = g, where tau = lam + mu al1 + nu al2.  Conjugation by
    tau x is still the al2-negating involution because tau lies in K, and

        u  = zeta_2m (t + al2)/(t - al2) * sigma1(tau)/tau,
        b1 = (al2 + t)^m al2 / g,
        b2 = tau sigma2(tau) al1.

    For t != 0 both components of b1 are nonzero, giving associative
    instances on the generic branch; t = 0 gives the f1 = 0 cyclic branch.
    The default mu = nu = 0 keeps b2 = lam^2 al1 on the al1 axis.  A nonzero
    mu gives b2 a nonzero scalar part, and nonzero mu and nu together give
    (z1 z2)^2 a nonzero scalar part as well; the degree-4 trace data needs
    both.
    """
    if ring is None:
        ring = standard_ring(m, ())
    e = ring.element(e)
    g = ring.element(g)
    t = ring.element(t)
    lam = ring.element(lam)
    mu = ring.element(mu)
    nu = ring.element(nu)
    K = KummerField(ring, m, e, g)
    w = K.from_pair(t, 1)  # al2 + t
    s2w = K.from_pair(t, -1)
    u = K.scale(K.mul(w, K.inverse(s2w)), K.zeta_2m)
    tau = K.add(K.scalar(lam), K.add(K.scale(K.alpha1(), mu), K.scale(K.alpha2(), nu)))
    if not (mu.is_zero() and nu.is_zero()):
        u = K.mul(u, K.mul(K.sigma(tau, 1, 0), K.inverse(tau)))
    b1 = K.mul(K.mul(K.power(w, m), K.alpha2()), K.scalar(g.inverse()))
    b2 = K.mul(K.alpha1(), K.mul(tau, K.sigma(tau, 0, 1)))
    return CrossedAlgebra(K, u, b1, b2, check=check)


# --------------------------------------------------------------- decomposition


class DecompositionCertificate:
    """Record of a decomposition run: branch, witnesses, identities."""

    def __init__(self, m, branch, check_level, params, identities, witnesses,
                 twisted=None):
        self.m = m
        self.branch = branch
        self.check_level = check_level
        self.params = params            # params_json of the input algebra
        self.identities = identities    # [{"name", "ok", "detail"}]
        self.witnesses = witnesses      # {"f": json, "c": json, "gamma": coords json, ...}
        self.twisted = twisted          # A_f on the generic branch, else None; not serialized

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.identities)

    def to_json(self) -> dict:
        return {
            "certificate": "crossed-decomposition",
            "m": self.m,
            "branch": self.branch,
            "check_level": self.check_level,
            "ok": self.ok,
            "params": self.params,
            "identities": self.identities,
            "witnesses": self.witnesses,
        }


def _norm_one_splitter(A: CrossedAlgebra) -> tuple:
    """Invertible k in K with u sigma1(k) = k, or (1, False) when none is found.

    z1 (k z2) = sigma1(k) u z2 z1, so exactly such k make k z2 commute with
    z1.  When N_sigma1(u) = 1, Hilbert 90 gives them in closed form,

        k = sum_(i<m) u sigma1(u) ... sigma1^(i-1)(u) sigma1^i(theta),

    and by the independence of characters some Kummer monomial theta gives
    k != 0.  Each k is checked exactly, and the first invertible one is
    scaled to coefficient 1 at its smallest key.
    """
    K = A.K
    if K.equal(A.u, K.one()):
        return K.one(), True
    one = A.ring.element(1)
    for key in K.grades:
        k, prefix = K.zero(), K.one()
        for i in range(A.m):
            k = K.add(k, K.mul(prefix, K.sigma({key: one}, i, 0)))
            prefix = K.mul(prefix, K.sigma(A.u, i, 0))
        if K.is_zero(k) or not K.equal(K.mul(A.u, K.sigma(k, 1, 0)), k):
            continue
        try:
            K.inverse(k)
        except CrossedError:
            continue
        return K.scale(k, k[min(k)].inverse()), True
    return K.one(), False


def _powers(A: GradedAlgebra, x: dict, top: int) -> list:
    """[x^0, x^1, ..., x^top], each the one before times x."""
    out = [A.one()]
    for _ in range(top):
        out.append(A.mul(out[-1], x))
    return out


def _min_poly_rank(elements: Sequence) -> int:
    """A lower bound on the F-rank of ``elements`` from a triangular pivot
    certificate: the number of rows removed by repeatedly removing every
    row that is the only nonzero row in some coordinate.

    Such a row has coefficient 0 in every linear relation among the rows,
    so each removal lowers the rank by exactly the number of rows removed.
    """
    rows = [{(g, key) for g, coeff in x.items() for key, c in coeff.items() if not c.is_zero()}
            for x in elements]
    while True:
        counts = Counter(col for row in rows for col in row)
        rest = [row for row in rows if all(counts[col] > 1 for col in row)]
        if len(rest) == len(rows):
            return len(elements) - len(rows)
        rows = rest


def decompose(A: CrossedAlgebra) -> DecompositionCertificate:
    """Branch on (f1, f2) and certify the matching decomposition identities.

    Generic branch: twist by f = -a1/f1 so the shifted-generator power
    collapses, then certify gamma^m = c al2 with c = -a1 f2/f1, the scalar
    gamma^2m = c^2 a2, and linear independence of the first 2m powers by a
    triangular pivot certificate.
    """
    K = A.K
    ring = A.ring
    f1, f2 = A.b1_pair()
    identities = []
    witnesses: dict = {}
    A_f = None

    def record(name, ok, detail=""):
        identities.append({"name": name, "ok": bool(ok), "detail": detail})

    if f1.is_zero() and f2.is_zero():
        raise CrossedError("f1 = f2 = 0 rejected: impossible for division input")

    if f1.is_zero():
        branch = "f1-zero-cyclic"
        powers = _powers(A, A.z1(), 2 * A.m)
        target = f2 * f2 * K.a2
        scalar = A.scalar_of(powers[-1])
        record(
            "z1-power-2m-value",
            scalar is not None and scalar == target,
            "z1^2m = f2^2*a2",
        )
        record("z1-power-2m-nonzero", scalar is not None and not scalar.is_zero())
        rank = _min_poly_rank(powers[:-1])
        record("z1-min-poly-degree", rank == 2 * A.m, f"rank {rank} of first 2m powers")
        witnesses["z1_power_2m"] = target.to_json()
    elif f2.is_zero():
        branch = "f2-zero-split-quaternion"
        # when u != 1 its sigma1-norm is 1 here (b1 is fixed by s2), so the
        # Hilbert-90 sum gives k with u sigma1(k) = k and k*z2 commuting
        # with z1; u = 1 keeps k = 1
        k_adj, adj_ok = _norm_one_splitter(A)
        record("hilbert90-adjustment", adj_ok, "found invertible k with u*s1(k) = k")
        z2_adj = A.mul(A.scalar(k_adj), A.z2())
        pairs = [
            ("al1-vs-al2", A.alpha1(), A.alpha2()),
            ("al1-vs-z2", A.alpha1(), z2_adj),
            ("z1-vs-al2", A.z1(), A.alpha2()),
            ("z1-vs-z2", A.z1(), z2_adj),
        ]
        for name, left, right in pairs:
            record(
                f"factors-commute-{name}",
                A.equal(A.mul(left, right), A.mul(right, left)),
            )
        record("dimension-product", A.m * A.m * 4 == A.dim, "m^2 * 4 = (2m)^2")
        z2sq = A.scalar_of(A.power(z2_adj, 2))
        record(
            "quaternion-relations",
            z2sq is not None
            and not z2sq.is_zero()
            and A.equal(
                A.mul(z2_adj, A.alpha2()),
                A.neg(A.mul(A.alpha2(), z2_adj)),
            ),
            "adjusted z2 squares into F* and anticommutes with al2",
        )
        zm = A.scalar_of(A.power(A.z1(), A.m))
        record("degree-m-symbol-relations", zm is not None and zm == f1, "z1^m = f1 in F")
        witnesses["symbol_factor"] = {"a": f1.to_json(), "b": K.a1.to_json(), "m": A.m}
        witnesses["quaternion_factor"] = {
            "a": K.a2.to_json(),
            "b": (z2sq if z2sq is not None else ring.element(0)).to_json(),
            "m": 2,
        }
        witnesses["z2_adjuster"] = K.to_json(k_adj)
    else:
        branch = "generic"
        f = -K.a1 / f1
        if A.check_level == "full":
            twist = CrossedAlgebra(K, K.one(), K.scalar(f), K.one(), check="none")
            A_f = tensor_brauer(A, twist)
        else:
            # twisting preserves the K-z1 subalgebra, so keep the weak check
            A_f = CrossedAlgebra(
                K, A.u, K.mul(A.b1, K.scalar(f)), A.b2, check="cyclic"
            )
        record(
            "tensor-cocycle-witness",
            K.equal(A_f.u, A.u)
            and K.equal(A_f.b1, K.mul(A.b1, K.scalar(f)))
            and K.equal(A_f.b2, A.b2),
            "A_f parameters are (u, f*b1, b2)",
        )
        c = -(K.a1 * f2) / f1
        gamma = A_f.add(A_f.z1(), A_f.alpha1())
        powers = _powers(A_f, gamma, 2 * A.m - 1)
        gm = powers[A.m]
        expected_m = A_f.scalar(K.scale(K.alpha2(), c))
        record("gamma-power-m", A_f.equal(gm, expected_m), "gamma^m = c*al2")
        g2m = A_f.mul(gm, gm)
        c2a2 = c * c * K.a2
        scalar = A_f.scalar_of(g2m)
        record("gamma-power-2m", scalar is not None and scalar == c2a2, "gamma^2m = c^2*a2")
        record(
            "gamma-power-2m-nonzero",
            scalar is not None and not scalar.is_zero(),
            "c^2*a2 in F*",
        )
        rank = _min_poly_rank(powers)
        record("gamma-min-poly-degree", rank == 2 * A.m, f"rank {rank} of first 2m powers")
        record(
            "power-identities-consistent",
            A_f.equal(A_f.mul(expected_m, expected_m), A_f.scalar(c2a2)),
            "(c*al2)^2 = c^2*a2 inside the algebra",
        )
        witnesses["f"] = f.to_json()
        witnesses["c"] = c.to_json()
        witnesses["gamma"] = [x.to_json() for x in A_f.coords(gamma)]
        # A_f = A (x) T with T = (1, f, 1) = (f, a1)_m, so A ~ T^-1 (x) A_f
        witnesses["brauer_relation"] = (
            "A ~ (a1, f)_m tensor A_f, where (a, b)_m: x^m = a, y^m = b, xy = zeta_m yx")
        witnesses["twist_symbol"] = {"a": K.a1.to_json(), "b": f.to_json(), "m": A.m}

    return DecompositionCertificate(
        A.m, branch, A.check_level, A.params_json(), identities, witnesses,
        twisted=A_f,
    )


# --------------------------------------------------------------- symbol extraction


class SymbolPresentation:
    """gamma and delta with delta gamma = zeta_2m gamma delta, as (c', d') = (gamma^2m, delta^2m)."""

    def __init__(self, m, c_prime, d_prime, delta_coords, checks):
        self.m = m
        self.c_prime = c_prime
        self.d_prime = d_prime
        self.delta_coords = delta_coords
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.checks)

    def to_json(self) -> dict:
        return {
            "certificate": "symbol-presentation",
            "degree": 2 * self.m,
            "c_prime": self.c_prime.to_json(),
            "d_prime": self.d_prime.to_json(),
            "delta": [x.to_json() for x in self.delta_coords],
            "ok": self.ok,
            "checks": self.checks,
        }


def invertible_delta_power(A: CrossedAlgebra, delta: dict) -> Optional[FieldElement]:
    """d' = delta^2m when it certifies delta invertible, else None.

    A must pass the norm conditions (a) and (b), whatever its check level,
    so A is associative and delta^2m is taken by square-and-multiply: 2
    products at m = 2, 3 at m = 3 and at m = 4.  delta is accepted when
    delta^2m is a nonzero F-scalar d'; by associativity d'^-1 delta^(2m-1)
    is then a two-sided inverse of delta.  In a central simple algebra
    nothing invertible is lost: a solution of delta gamma = zeta_2m gamma
    delta has delta^2m in the centralizer F(gamma) of the degree-2m
    subfield, fixed by conjugation by delta, which generates
    Gal(F(gamma)/F); so delta^2m lies in F*.
    """
    if not A.norm_conditions_hold():
        return None
    top, square, n = None, delta, 2 * A.m
    while n:
        if n & 1:
            top = square if top is None else A.mul(top, square)
        n >>= 1
        if n:
            square = A.mul(square, square)
    d_prime = A.scalar_of(top)
    if d_prime is None or d_prime.is_zero():
        return None
    return d_prime


def cyclic_to_symbol(A: CrossedAlgebra, gamma: dict) -> SymbolPresentation:
    """Find delta with delta gamma = zeta_2m gamma delta and return (c', d') = (gamma^2m, delta^2m).

    With c' = gamma^2m in F*, conjugation by gamma has order dividing 2m, and

        delta_theta = sum_(i<2m) zeta_2m^i gamma^i theta gamma^(2m-i)

    is 2m c' times the projection of theta onto the zeta_2m-eigenspace E of
    that conjugation, that is onto the solutions of the equation (gamma^(2m-i)
    in place of gamma^-i keeps the coefficients polynomial).  E lies in the
    z2-odd slice: gamma^m = c al2 with c in F*, so delta gamma^m = -gamma^m
    delta forces delta al2 = -al2 delta.  So the projections of the z2-odd
    monomials span E.  theta = z1 z2 is tried first, then the other z2-odd
    monomials in order, and the first delta_theta that
    ``invertible_delta_power`` certifies wins: delta^2m is a nonzero
    F-scalar d', so d'^-1 delta^(2m-1) is its inverse.  In a division
    algebra E != 0 and every nonzero element is invertible, so the search
    misses nothing there; no certified delta raises CrossedError.  A that
    fails the norm conditions is not associative and is refused before the
    search.  c' is checked against gamma^m gamma^m.
    """
    if not A.norm_conditions_hold():
        raise CrossedError("norm conditions (a) and (b) fail: the algebra is not associative")
    n = 2 * A.m
    powers = _powers(A, gamma, n)
    c_prime = A.scalar_of(powers[n])
    if c_prime is None or c_prime.is_zero():
        raise CrossedError("gamma^2m is not a nonzero scalar of F")
    if _min_poly_rank(powers[:n]) != n:
        raise CrossedError("gamma does not generate a degree-2m subfield")
    zeta = A.K.zeta_2m
    one = A.ring.element(1)
    z1z2 = ((1, 1), UNIT)
    odd = [((k, 1), key) for k in range(A.m) for key in A.K.grades]
    for g, key in [z1z2] + [mono for mono in odd if mono != z1z2]:
        theta = {g: {key: one}}
        delta = A.zero()
        for i in range(n):
            term = A.mul(A.mul(powers[i], theta), powers[n - i])
            delta = A.add(delta, A.scale(term, zeta ** i))
        d_prime = invertible_delta_power(A, delta)
        if d_prime is not None:
            break
    else:
        raise CrossedError("no invertible solution found in the z2-odd slice")
    checks = []
    conj = A.mul(delta, gamma)
    twisted = A.scale(A.mul(gamma, delta), zeta)
    checks.append(
        {"name": "delta-conjugation", "ok": A.equal(conj, twisted), "detail": "delta gamma = zeta_2m gamma delta"}
    )
    # true by the acceptance rule above; the entry records d' on the certificate
    checks.append(
        {"name": "delta-power-in-F", "ok": not d_prime.is_zero(), "detail": "delta^2m in F*"}
    )
    half = powers[A.m]
    checks.append(
        {"name": "c-prime-value", "ok": A.equal(A.mul(half, half), A.scalar(c_prime)),
         "detail": "c' = gamma^2m"}
    )
    return SymbolPresentation(A.m, c_prime, d_prime, A.coords(delta), checks)
