"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(N)-1) with
integer coordinates over a single positive denominator.  All products are
reduced through precomputed integer rows for zeta^k, so the only rational
bookkeeping is one gcd per normalization.  Elements of different conductors
never mix implicitly: ``lift`` is the one embedding.

``inverse`` uses the norm cofactor: x^-1 = prod sigma_a(x) / N(x) over
a in (Z/N)*, a != 1, where sigma_a maps zeta to zeta^a and the norm
N(x) = x prod sigma_a(x) is a nonzero rational (Cohen, A Course in
Computational Algebraic Number Theory, ch. 4).

``sqrt`` decides exactly whether a rational is a square in Q(zeta_N), by the
conductor-discriminant theorem, and builds the root from quadratic Gauss
sums (Washington, Introduction to Cyclotomic Fields, ch. 4).

A product by a rational scales coordinates (by 1 it returns the other
factor): no convolution, no reduction mod Phi_N.  Normalization is one
C-level gcd over the denominator and every coordinate.

``DerivedOps`` holds subtraction, division and integer powers once for
``Cyc``, poly.MultiPoly and poly.FieldElement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional, Union


class ExactFieldError(ArithmeticError):
    """Arithmetic failure in the exact field layer."""


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of a positive integer, p increasing."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # num, den integer coefficient lists (low to high), den monic up to sign,
    # division known to be exact.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        if c % lead:
            raise ArithmeticError("inexact cyclotomic division")
        q = c // lead
        quot[k - dd] = q
        for i, dc in enumerate(den):
            num[k - dd + i] -= q * dc
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, monic, length phi(n)+1."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    divisors = [1]
    for p, e in factorize(n).items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    for d in sorted(divisors):
        if d < n:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # Row k expresses zeta_n^k on the power basis; integer entries because
    # Phi_n is monic over Z.  Rows cover every exponent a product of two
    # reduced elements or a Galois image can produce.
    phi = euler_phi(n)
    top = max(2 * phi - 1, n)
    cyc = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(tuple(row))
    for k in range(phi, top + 1):
        prev = rows[k - 1]
        carry = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if carry:
            for i in range(phi):
                row[i] -= carry * cyc[i]
        rows.append(tuple(row))
    return tuple(rows)


def reduce_powers(conv: list[int], n: int) -> list[int]:
    """The power-basis coordinates of sum conv[k] zeta_n^k, len(conv) = 2 phi(n) - 1."""
    phi = (len(conv) + 1) // 2
    rows = _power_rows(n)
    nums = conv[:phi]
    for k in range(phi, len(conv)):
        c = conv[k]
        if c:
            for j, r in enumerate(rows[k]):
                nums[j] += c * r
    return nums


Scalarish = Union["Cyc", int, Fraction]


class DerivedOps:
    """Subtraction, division and integer powers, shared by the exact scalars.

    A subclass supplies ``_coerce`` (the other operand in its own type, or
    None), ``+``, unary ``-``, ``*`` and ``inverse``; ``_coerce(1)`` is the
    unit.  A power squares from the lowest bit up, with no product by the
    unit first and no squaring after the last bit.
    """

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

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
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return self._coerce(1) if result is None else result


class Cyc(DerivedOps):
    """Element of Q(zeta_N) with integer coordinates over a common denominator."""

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums, den: int = 1, _normalized: bool = False):
        if _normalized:
            # internal callers: a tuple of phi(conductor) integers over a
            # positive denominator, already in lowest terms
            self.conductor = conductor
            self.nums = nums
            self.den = den
            return
        if conductor < 1:
            raise ValueError("conductor must be positive")
        nums = list(nums)
        if len(nums) != euler_phi(conductor):
            raise ValueError("coordinate vector has wrong length")
        if den == 0:
            raise ExactFieldError("division by zero")
        if den < 0:
            den = -den
            nums = [-a for a in nums]
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [a // g for a in nums]
        self.conductor = conductor
        self.nums = tuple(nums)
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value: Union[int, Fraction], conductor: int = 1) -> "Cyc":
        q = Fraction(value)
        # a Fraction is in lowest terms over a positive denominator
        nums = (q.numerator,) + (0,) * (euler_phi(conductor) - 1)
        return cls(conductor, nums, q.denominator, _normalized=True)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "Cyc":
        rows = _power_rows(conductor)
        return cls(conductor, list(rows[power % conductor]), 1)

    @classmethod
    def zero(cls, conductor: int) -> "Cyc":
        return cls.rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> "Cyc":
        return cls.rational(1, conductor)

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactFieldError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def lift(self, conductor: int) -> "Cyc":
        """Embed into Q(zeta_M) for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("target conductor must be a multiple")
        return self._substitute(conductor, conductor // self.conductor)

    def _substitute(self, conductor: int, step: int) -> "Cyc":
        # zeta_N^i -> zeta_M^(i*step): the embedding into Q(zeta_M) when
        # M = N*step, the Galois map sigma_step when M = N
        rows = _power_rows(conductor)
        phi = euler_phi(conductor)
        acc = [0] * phi
        for i, a in enumerate(self.nums):
            if a:
                row = rows[(i * step) % conductor]
                for j in range(phi):
                    acc[j] += a * row[j]
        return Cyc(conductor, acc, self.den)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: Scalarish) -> Optional["Cyc"]:
        if isinstance(other, Cyc):
            if other.conductor != self.conductor:
                raise ValueError("conductor mismatch; lift explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.rational(other, self.conductor)
        return None

    def __add__(self, other: Scalarish) -> "Cyc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        nums = [a * db + b * da for a, b in zip(self.nums, o.nums)]
        return cyc_over(self.conductor, nums, da * db)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.conductor, tuple(-a for a in self.nums), self.den, _normalized=True)

    def __mul__(self, other: Scalarish) -> "Cyc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = (self, o) if o.is_rational() else (o, self)
        if q.is_rational():
            if q.den == 1 and q.nums[0] == 1:
                return p
            return cyc_over(self.conductor, [a * q.nums[0] for a in p.nums], p.den * q.den)
        phi = len(self.nums)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            for j, b in enumerate(o.nums):
                if b:
                    conv[i + j] += a * b
        return cyc_over(self.conductor, reduce_powers(conv, self.conductor), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ExactFieldError("division by zero")
        if self.is_rational():
            q = self.as_fraction()
            return Cyc.rational(Fraction(q.denominator, q.numerator), self.conductor)
        # x^-1 = prod_{a != 1} sigma_a(x) / N(x) over a in (Z/N)*
        n = self.conductor
        cofactor = Cyc.one(n)
        for a in range(2, n):
            if gcd(a, n) == 1:
                cofactor = cofactor * self._substitute(n, a)
        norm = self * cofactor
        if norm.is_zero() or not norm.is_rational():
            raise ExactFieldError("norm is not a nonzero rational")
        return Cyc(n, [a * norm.den for a in cofactor.nums], cofactor.den * norm.nums[0])

    # -- square roots -----------------------------------------------------

    def sqrt(self) -> Optional["Cyc"]:
        """A square root, squared back before it is returned, or None.

        Exact for rationals.  Write q = s^2 D with D squarefree: q is a square
        in Q(zeta_N) exactly when the discriminant of Q(sqrt D) divides the
        conductor of the field, which is N, or N/2 when N = 2 mod 4.  The
        root is s times the Gauss sum g_p = sum_a (a|p) zeta_p^a, whose square
        is (-1)^((p-1)/2) p, for each odd p | D, times zeta_8 + zeta_8^-1 =
        sqrt 2 when 2 | D, times zeta_4 when the sign calls for it.  For an
        element that is not rational, None means "not decided".
        """
        if not self.is_rational():
            return None
        if self.is_zero():
            return self
        n = self.conductor
        field = n // 2 if n % 4 == 2 else n
        q = self.as_fraction()
        # q = k / den^2.  A prime of D that does not divide the conductor
        # already rules q out, so only those primes are divided out of k and
        # the rest must be a square.
        k = q.numerator * q.denominator
        rest, s, primes = abs(k), Fraction(1, q.denominator), []
        for p in factorize(field):
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                primes.append(p)
        r = isqrt(rest)
        if r * r != rest:
            return None
        d = -1 if k < 0 else 1
        for p in primes:
            d *= p
        disc = abs(d) if d % 4 == 1 else 4 * abs(d)
        if field % disc:
            return None
        root = Cyc.rational(s * r, n)
        square = 1
        for p in primes:
            if p == 2:
                root = root * (Cyc.zeta(n, n // 8) + Cyc.zeta(n, 7 * n // 8))
                square *= 2
            else:
                gauss = Cyc.zero(n)
                for a in range(1, p):
                    term = Cyc.zeta(n, a * n // p)
                    gauss = gauss + term if pow(a, (p - 1) // 2, p) == 1 else gauss - term
                root = root * gauss
                square *= p if p % 4 == 1 else -p
        if square != d:
            root = root * Cyc.zeta(n, n // 4)
        if root * root != self:
            raise ExactFieldError(f"square root of {q} in Q(zeta_{n}) fails to square back")
        return root

    # -- comparisons, hashing, display ----------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.conductor)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self.conductor == other.conductor and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.conductor, self.nums, self.den))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            coeff = Fraction(a, self.den)
            if i == 0:
                parts.append(_frac_str(coeff))
                continue
            mon = "zeta" if i == 1 else f"zeta^{i}"
            if coeff == 1:
                term = mon
            elif coeff == -1:
                term = f"-{mon}"
            else:
                term = f"{_frac_str(coeff)}*{mon}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Cyc({self.conductor}: {self})"

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "den": self.den, "nums": list(self.nums)}

    @classmethod
    def from_json(cls, data: dict) -> "Cyc":
        return cls(data["conductor"], data["nums"], data["den"])


def cyc_over(conductor: int, nums, den: int) -> Cyc:
    """The Cyc sum nums[k] zeta^k / den in lowest terms, for phi(conductor)
    integers nums over den > 0."""
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [a // g for a in nums], den // g
    return Cyc(conductor, tuple(nums), den, _normalized=True)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def common_conductor(m: int) -> int:
    """Smallest conductor containing both a primitive 2m-th and 4th root."""
    two_m = 2 * m
    return two_m * 4 // gcd(two_m, 4)
