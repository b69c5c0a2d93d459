"""Exact field layer: cyclotomics, polynomials and quotients, plus the
linear-algebra oracle the crossed-product tests use."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brauerlab.exactfield import (
    Cyc,
    ExactFieldError,
    FieldElement,
    MultiPoly,
    PolyRing,
    common_conductor,
    cyclotomic_polynomial,
    euler_phi,
    exact_divide,
    factorize,
    is_power,
    is_square,
)
from linalg_oracle import kernel, mat_rank, solve
from poly_oracle import grevlex_key, leading_exponents, schoolbook_divide, schoolbook_product


# ---------------------------------------------------------------- cyclotomics


def test_cyclotomic_polynomials_pinned():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)
    for n in (1, 2, 3, 4, 5, 6, 8, 12, 20):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyc_arithmetic():
    i = Cyc.zeta(4)
    assert i * i == Cyc.rational(-1, 4)
    assert (i ** 4).is_one()
    z = Cyc.zeta(12)
    assert (z ** 12).is_one() and not (z ** 6).is_one()
    w = z ** 4  # primitive cube root
    assert (w * w + w + 1).is_zero()
    e = 3 * z ** 7 - Fraction(2, 5) * z + 1
    assert (e * e.inverse()).is_one()
    assert (e + (-e)).is_zero()


def test_cyc_galois_and_lift():
    # zeta -> zeta^k is a Galois map exactly when zeta^k is again a root of
    # Phi_12 = x^4 - x^2 + 1, that is when k is prime to 12
    z = Cyc.zeta(12)
    for k in range(1, 12):
        w = z ** k
        assert (w ** 4 - w ** 2 + 1).is_zero() == (k in (1, 5, 7, 11))
    w3 = Cyc.zeta(3)
    assert w3.lift(12) == Cyc.zeta(12, 4)
    # conductors never mix implicitly; lift is the one embedding
    assert Cyc.zeta(12) * w3.lift(12) == Cyc.zeta(12, 5)
    quarter, eighth = Cyc.rational(1, 4), Cyc.rational(1, 8)
    for x, y in ((quarter, eighth), (eighth, quarter)):
        with pytest.raises(ValueError, match="conductor mismatch"):
            x + y
    assert Cyc.zeta(4) != Cyc.zeta(8, 2) and Cyc.zeta(8, 2) != Cyc.zeta(4)
    assert Cyc.zeta(4).lift(8) == Cyc.zeta(8, 2)


@pytest.mark.parametrize("conductor", [4, 8, 12, 20])
def test_cyc_products_and_inverses_match_sympy(conductor):
    # oracle: sympy's arithmetic in Q[x] / (Phi_N), inverse by its own
    # extended Euclid
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    modulus = sympy.Poly(sympy.cyclotomic_poly(conductor, x), x, domain="QQ")

    def as_poly(c):
        return sympy.Poly([sympy.Rational(a, c.den) for a in reversed(c.nums)], x, domain="QQ")

    rng = random.Random(conductor)
    phi = euler_phi(conductor)
    for _ in range(20):
        a, b = (Cyc(conductor, [rng.randint(-9, 9) for _ in range(phi)], rng.randint(1, 6))
                for _ in range(2))
        assert as_poly(a * b) == (as_poly(a) * as_poly(b)).rem(modulus)
        if not a.is_zero():
            assert as_poly(a.inverse()) == as_poly(a).invert(modulus)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97 * 97 * 101) == {97: 2, 101: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_cyc_sqrt_recognized_shapes():
    assert Cyc.rational(Fraction(9, 4), 4).sqrt() == Cyc.rational(Fraction(3, 2), 4)
    assert Cyc.rational(-1, 4).sqrt() == Cyc.zeta(4)
    assert Cyc.rational(-4, 4).sqrt() == 2 * Cyc.zeta(4)
    assert Cyc.rational(2, 8).sqrt() == Cyc.zeta(8) - Cyc.zeta(8, 3)
    assert Cyc.rational(0, 8).sqrt().is_zero()
    # Q(zeta_6) = Q(zeta_3) has conductor 3, so -1 is not a square there
    assert Cyc.rational(-1, 6).sqrt() is None
    # only rationals are decided: squares such as 2i = (1 + i)^2, 9 zeta_20^6
    # and zeta_5 = (zeta_5^3)^2 are left undecided
    assert (2 * Cyc.zeta(4)).sqrt() is None
    assert (9 * Cyc.zeta(20, 6)).sqrt() is None
    assert Cyc.zeta(5).sqrt() is None


@pytest.mark.parametrize("conductor, squares, non_square", [
    (4, (-1,), 2),
    (8, (2,), 3),
    (12, (3, -3), 2),
    (20, (5,), 3),
], ids=["4", "8", "12", "20"])
def test_cyc_sqrt_known_square_and_non_square(conductor, squares, non_square):
    for q in squares:
        value = Cyc.rational(q, conductor)
        root = value.sqrt()
        assert root is not None and root * root == value
    assert Cyc.rational(non_square, conductor).sqrt() is None


SQUAREFREE_UP_TO_30 = [d for d in range(-30, 31)
                       if d and all(d % (p * p) for p in (2, 3, 5))]


@pytest.mark.parametrize("conductor", [3, 4, 5, 8, 12, 20, 24])
def test_cyc_sqrt_matches_sympy_factorization(conductor):
    # x^2 - d splits over Q(zeta_N) exactly when d is a square there
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    field = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / conductor))
    for d in SQUAREFREE_UP_TO_30:
        factors = sympy.Poly(x ** 2 - d, x, domain=field).factor_list()[1]
        splits = sum(k for _, k in factors) == 2
        value = Cyc.rational(d, conductor)
        root = value.sqrt()
        assert (root is not None) == splits, d
        assert root is None or root * root == value


def test_common_conductor():
    assert common_conductor(2) == 4
    assert common_conductor(3) == 12
    assert common_conductor(4) == 8
    assert common_conductor(5) == 20


# ---------------------------------------------------------------- polynomials


@pytest.fixture
def ring():
    return PolyRing(("x", "y"), conductor=4)


def _kernel_lead(p):
    """The leading exponents the kernel uses for p, cached or found."""
    return p.ring._unpack(p._leading_key())


def _with_cached_lead(p, exps):
    """A copy of p whose cached leading monomial is exps, right or wrong."""
    return MultiPoly._make(p.ring, dict(p.coeffs), p.denom, p.ring._pack(exps))


def test_poly_algebra_and_order(ring):
    x, y = ring.var("x"), ring.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert max(sum(exps) for exps in p.terms) == 2
    # grevlex: x^2 beats y^2 beats x
    q = x * x + y * y + x
    assert _kernel_lead(q) == (2, 0)
    assert _kernel_lead(y * y + x) == (0, 2)
    assert str(x * x - y * y + 1) == "x^2 - y^2 + 1"


def test_field_element_collapse_and_equality(ring):
    x, y = ring.var("x"), ring.var("y")
    f = ring.element(x * x - y * y) / ring.element(x - y)
    assert f.den.is_one() and f.num == x + y
    a = ring.element(x * x - y * y) / ring.element(x + y)
    assert a == ring.element(x - y)
    g = ring.element(1) / ring.element(x - y)
    assert not g.den.is_one()
    assert g * ring.element(x - y) == ring.element(1)
    assert (g ** -2) == ring.element((x - y) * (x - y))


def test_division_by_zero_message(ring):
    with pytest.raises(ExactFieldError, match="division by zero"):
        ring.element(1) / ring.element(0)
    with pytest.raises(ExactFieldError, match="division by zero"):
        ring.element(0).inverse()


def test_exact_divide(ring):
    x, y = ring.var("x"), ring.var("y")
    assert exact_divide(x * x - y * y, x - y) == x + y
    assert exact_divide(x * x + 1, x - y) is None
    assert exact_divide(ring.zero(), x) == ring.zero()
    with pytest.raises(ExactFieldError):
        exact_divide(x, ring.zero())


def test_exact_divide_refuses_to_mix_rings(ring):
    x = ring.var("x")
    u = PolyRing(("u", "v"), 4).var("u")
    with pytest.raises(ValueError, match="ring mismatch"):
        exact_divide(x * x, u)
    # the same variables over another conductor are another ring too
    with pytest.raises(ValueError, match="ring mismatch"):
        exact_divide(x * x, PolyRing(ring.variables, 8).var("x"))


def test_a_coefficient_of_another_conductor_is_refused(ring):
    # zeta_3 has two coordinates, as an element of Q(zeta_4) does
    with pytest.raises(ValueError, match="not in Q"):
        MultiPoly(ring, {(2, 0): Cyc.zeta(3), (1, 0): Cyc.one(4)})
    data = (ring.var("x") * ring.var("x") + ring.var("x")).to_json()
    assert MultiPoly.from_json(ring, data) == ring.var("x") * ring.var("x") + ring.var("x")
    data["terms"]["2,0"]["conductor"] = 3
    with pytest.raises(ValueError, match="not in Q"):
        MultiPoly.from_json(ring, data)


def test_exact_divide_refuses_a_wrong_cached_lead(ring):
    x = ring.var("x")
    # x + 1 leads with x; a cached lead at the constant term is wrong, and
    # each step would then raise the remainder's degree instead of lowering it
    wrong = _with_cached_lead(x + 1, (0, 0))
    with pytest.raises(ExactFieldError, match="did not fall"):
        exact_divide(x * x, wrong)


def _operands(kind):
    """(a, b) with b invertible; a is invertible too except for MultiPoly,
    whose only invertible elements are the nonzero constants."""
    if kind == "Cyc":
        return Cyc(12, [1, 2, 0, -1]), Cyc(12, [0, 3, 1, 0], 2)
    ring = PolyRing(("x", "y"), conductor=4)
    x, y = ring.var("x"), ring.var("y")
    if kind == "MultiPoly":
        return x * y - 2 * x + 1, ring.scalar(Cyc(4, [1, 2], 3))
    return ring.element(x + y) / ring.element(x - 2), ring.element(x * y + 1)


@pytest.mark.parametrize("kind", ["Cyc", "MultiPoly", "FieldElement"])
def test_shared_derived_operators(kind):
    a, b = _operands(kind)
    assert type(a - b) is type(a) and (a - b) + b == a
    assert (3 - a) + a == 3
    assert type(a / b) is type(a) and (a / b) * b == a
    assert (3 / b) * b == 3
    assert (a ** 0).is_one() and (b ** 0).is_one()
    assert a ** 1 is a
    assert a ** 5 == a * a * a * a * a
    assert b ** -2 == (b ** 2).inverse()
    if kind == "MultiPoly":
        with pytest.raises(ExactFieldError):
            a ** -1
        with pytest.raises(ExactFieldError):
            1 / a
    else:
        assert a ** -2 == (a ** 2).inverse()


def test_is_square_cases(ring):
    x, y = ring.var("x"), ring.var("y")
    assert is_square(ring.element(-1)) == ring.element(ring.zeta())
    assert is_square(ring.element(-4) / ring.element(9)) == ring.element(
        Fraction(2, 3) * ring.zeta())
    assert is_square(ring.element(0)).is_zero()
    assert is_square(ring.element(2)) is None
    # only constants with a rational value are decided
    assert is_square(ring.element(x * x + 2 * x * y + y * y)) is None
    assert is_square(ring.element(x)) is None
    assert is_square(ring.element(2 * ring.zeta())) is None


def test_is_power_known_answers():
    ring = PolyRing(("a1", "a2"), 4)
    a1, a2 = (ring.element(ring.var(v)) for v in ring.variables)
    # valuations: a2 has degree 1 in a2, so it is no square; a1^2/a2^2 is
    # left open, and a1^3/a2 has a2-degree -1, so it is no cube
    assert is_power(a2, 2) is False
    assert is_power(a1 * a1 / (a2 * a2), 2) is None
    assert is_power(a1 ** 3 / a2, 3) is False
    assert is_power(ring.element(-4), 2) is True  # -4 = (2i)^2
    assert is_power(PolyRing((), 12).element(3), 2) is True
    assert is_power(PolyRing((), 8).element(3), 2) is False
    assert is_power(PolyRing((), 20).element(5), 2) is True
    for conductor in (4, 12):
        field = PolyRing((), conductor)
        assert is_power(field.element(8), 3) is True
        assert is_power(field.element(2), 3) is False
        assert is_power(field.element(Fraction(-27, 8)), 3) is True
    # 2i = (1 + i)^2, but only rational constants are decided
    assert is_power(ring.element(2 * ring.zeta()), 2) is None
    assert is_power(ring.element(ring.zeta()), 3) is None


@pytest.mark.parametrize("conductor", [4, 12, 20])
def test_is_power_of_rationals_matches_sympy_factorization(conductor):
    # x^p - d has a root in Q(zeta_N) exactly when d is a p-th power there
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    field = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / conductor))
    ring = PolyRing((), conductor)
    for p in (2, 3, 5):
        for d in (2, -3, 5, 8, -27, 32, Fraction(27, 8), -243, 12):
            target = x ** p - sympy.Rational(d.numerator, d.denominator)
            factors = sympy.Poly(target, x, domain=field).factor_list()[1]
            has_root = any(f.degree() == 1 for f, _ in factors)
            assert is_power(ring.element(d), p) is has_root, (p, d)


def test_json_roundtrip(ring):
    x, y = ring.var("x"), ring.var("y")
    f = (ring.element(x + y) * Cyc.zeta(4) - Fraction(1, 3)) / ring.element(x - y)
    back = FieldElement.from_json(ring, f.to_json())
    assert back == f
    p = x * y ** 2 - 2
    assert MultiPoly.from_json(ring, p.to_json()) == p


# ---------------------------------------------------------------- linalg oracle


def test_linalg_over_field_elements(ring):
    x = ring.element(ring.var("x"))
    y = ring.element(ring.var("y"))
    one, zero = ring.element(1), ring.element(0)
    A = [[x, y], [y, x]]
    assert mat_rank(A) == 2
    # the columns of A^-1 = (x, -y; -y, x)/(x^2 - y^2) solve A v = e_i
    det = x * x - y * y
    assert solve(A, [one, zero]) == [x / det, -y / det]
    assert solve(A, [zero, one]) == [-y / det, x / det]
    assert mat_rank([[x, y], [x, y]]) == 1
    assert solve([[x, x], [x, x]], [one, zero]) is None
    K = kernel([[x, y, zero], [zero, zero, zero]])
    assert len(K) == 2
    for vec in K:
        out = x * vec[0] + y * vec[1]
        assert out.is_zero()
    s = solve([[x, zero], [zero, y]], [x * y, y * y])
    assert s == [y, y]
    assert solve([[x], [x]], [one, one + one]) is None


# ---------------------------------------------------------------- properties


def _cyc4(draw):
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(-4, 4))
    d = draw(st.integers(1, 3))
    return Cyc(4, [a, b], d)


@st.composite
def small_field_elements(draw):
    ring = PolyRing(("x", "y"), conductor=4)
    nterms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(nterms):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[e] = _cyc4(draw)
    num = MultiPoly(ring, terms)
    den_choice = draw(st.sampled_from(["one", "x", "x+1", "x^2", "x(x+1)"]))
    x = ring.var("x")
    den = {
        "one": ring.one(),
        "x": x,
        "x+1": x + 1,
        "x^2": x * x,
        "x(x+1)": x * (x + 1),
    }[den_choice]
    if num.is_zero():
        num = ring.one()
    return FieldElement(num, den)


@settings(max_examples=50, deadline=None)
@given(small_field_elements(), small_field_elements(), small_field_elements())
def test_field_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h
    assert (f - f).is_zero()
    if not f.is_zero():
        assert (f * f.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(st.integers(-50, 50).filter(bool), st.integers(1, 50),
       st.sampled_from([(4, -1), (8, 2), (8, -2), (12, 3), (12, -3), (20, 5), (24, -6)]))
def test_square_roundtrip(num, den, known):
    # q^2 and q^2 d are squares for a square class d of the field; q^2 d p
    # is not, for a prime p that does not divide the conductor
    conductor, d = known
    ring = PolyRing((), conductor)
    q = Fraction(num, den)
    for value in (q * q, q * q * d):
        root = is_square(ring.element(value))
        assert root is not None and root * root == ring.element(value)
    assert is_square(ring.element(q * q * d * 7)) is None


def _product_sum(f, g):
    """The sum over the product of the two denominators."""
    return FieldElement(f.num * g.den + g.num * f.den, f.den * g.den)


_XY = PolyRing(("x", "y"), conductor=4)
_X = _XY.var("x")


@settings(max_examples=60, deadline=None)
@given(small_field_elements(), small_field_elements())
@example(FieldElement(_XY.one(), _X), FieldElement(_XY.var("y"), _X * _X))
@example(FieldElement(_X + _XY.var("y"), _X * (_X + 1)), FieldElement(_XY.one(), _X + 1))
def test_sum_over_larger_denominator_when_one_divides(f, g):
    s = f + g
    assert s == _product_sum(f, g)
    for small, large in ((f.den, g.den), (g.den, f.den)):
        if exact_divide(large, small) is not None:
            assert exact_divide(large, s.den) is not None


def _to_sympy(sympy, f):
    x, y = sympy.symbols("x y")

    def poly(p):
        return sum(
            (sympy.Rational(c.nums[0], c.den) + sympy.Rational(c.nums[1], c.den) * sympy.I)
            * x ** e[0] * y ** e[1]
            for e, c in p.terms.items()
        )

    return poly(f.num) / poly(f.den)


@settings(max_examples=25, deadline=None)
@given(small_field_elements(), small_field_elements())
def test_sum_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    diff = _to_sympy(sympy, f + g) - _to_sympy(sympy, f) - _to_sympy(sympy, g)
    assert sympy.cancel(sympy.together(diff)) == 0


# ---------------------------------------------------------------- normal form


_XYZ = PolyRing(("x", "y", "z"), conductor=12)


def _random_poly(rng, ring, nterms):
    phi = euler_phi(ring.conductor)
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(3) for _ in ring.variables)
        terms[e] = Cyc(ring.conductor, [rng.randint(-3, 3) for _ in range(phi)],
                       rng.randint(1, 3))
    return MultiPoly(ring, terms)


def _random_element(rng, ring):
    # numerators and denominators share factors from one small pool, so some
    # products and sums divide exactly and some do not
    x, y, z = (ring.var(v) for v in ring.variables)
    pool = [ring.one(), x + 1, y - 2 * z, x * y + 3, z, ring.scalar(Fraction(2, 3))]
    num = _random_poly(rng, ring, rng.randint(1, 4)) * rng.choice(pool)
    if num.is_zero():
        num = ring.one()
    return FieldElement(num, rng.choice(pool) * rng.choice(pool))


def _fresh(p, ring=None):
    """A copy of p sharing nothing with it: new terms dict, no cached lead."""
    return MultiPoly(ring or p.ring, dict(p.terms))


def _renormalized(f):
    return FieldElement(_fresh(f.num), _fresh(f.den))


def _items(f):
    return list(f.num.terms.items()), list(f.den.terms.items())


def _assert_carried_leads(*polys):
    for p in polys:
        if p._lead is not None:
            assert p.ring._unpack(p._lead) == leading_exponents(p)


def test_shared_unit_is_returned_and_kept():
    ring = _XYZ
    one = ring.one()
    assert ring.one() is one and ring.scalar(1) is one and one.is_one()
    p = ring.var("x") + ring.var("y") * 2
    assert p * one is p and one * p is p and p ** 1 is p
    assert p.scale(1) is p
    # a ring built again is the same ring, so it shares the unit
    assert PolyRing(ring.variables, ring.conductor).one() is one
    # an equal unit held by another object takes the general path
    other = MultiPoly(ring, dict(one.terms))
    assert other is not one and other == one
    q = p * other
    assert q is not p and list(q.terms.items()) == list(p.terms.items())
    # a denominator that normalizes to 1 becomes the shared unit
    f = FieldElement(p, ring.scalar(3))
    assert f.den is one
    assert (ring.element(1) * f) is f and (f * 1) is f


def test_field_element_results_are_in_normal_form():
    # each result equals, term for term and in term order, its own
    # renormalization from fresh copies and the general construction that
    # takes no shortcut; every carried leading exponent equals a rescan
    rng = random.Random(20261019)
    ring = _XYZ
    twin = PolyRing(ring.variables, ring.conductor)
    hits = 0
    for _ in range(60):
        f, g = _random_element(rng, ring), _random_element(rng, ring)
        fn, fd, gn, gd = (_fresh(p) for p in (f.num, f.den, g.num, g.den))
        cases = [
            (f * g, FieldElement(fn * gn, fd * gd)),
            (-f, FieldElement(-fn, fd)),
            (f.inverse(), FieldElement(fd, fn)),
            (f + g, f + g),
            # the same product with g rebuilt over the ring built again
            (f * g, f * FieldElement(_fresh(g.num, twin), _fresh(g.den, twin))),
        ]
        for result, general in cases:
            assert _items(result) == _items(general)
            assert _items(result) == _items(_renormalized(result))
            assert result.den.leading_coefficient().is_one()
            _assert_carried_leads(result.num, result.den)
        assert f * g == g * f and f + g == g + f
        hits += (f * g).den.is_one() and not (f.den.is_one() and g.den.is_one())
        _assert_carried_leads(f.num * g.num, f.den * g.den, -f.num, f.num.scale(Cyc.zeta(12)))
    assert hits > 0  # some products collapse by exact division


def test_exact_divide_quotient_carries_its_lead():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_poly(rng, _XYZ, 4)
        b = _random_poly(rng, _XYZ, 3)
        q = exact_divide(a * b, b)
        assert q == a
        _assert_carried_leads(q)
        assert _kernel_lead(q) == leading_exponents(a)


@pytest.mark.parametrize("conductor", [4, 12])
def test_poly_products_match_sympy(conductor):
    # oracle: sympy's product in Q[zeta, x, y, z] reduced modulo Phi_N(zeta)
    sympy = pytest.importorskip("sympy")
    zeta, *xs = sympy.symbols("zeta x y z")
    gens = (zeta, *xs)
    modulus = sympy.Poly(sympy.cyclotomic_poly(conductor, zeta), *gens, domain="QQ")
    ring = PolyRing(("x", "y", "z"), conductor)

    def to_sympy(p):
        expr = 0
        for e, c in p.terms.items():
            coeff = sum(sympy.Rational(a, c.den) * zeta ** k for k, a in enumerate(c.nums))
            expr += coeff * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
        return sympy.Poly(expr, *gens, domain="QQ")

    rng = random.Random(conductor)
    for _ in range(15):
        p = _random_poly(rng, ring, rng.randint(1, 6))
        q = _random_poly(rng, ring, rng.randint(1, 6))
        product = p * q
        assert to_sympy(product) == (to_sympy(p) * to_sympy(q)).rem(modulus)
        _assert_carried_leads(product)


def test_equal_denominators_compare_numerators_directly(monkeypatch):
    # about 700 numerator terms over one shared denominator: the comparison
    # reads the numerators and makes no polynomial product
    rng = random.Random(700)
    ring = PolyRing(("a", "b", "c", "d"), conductor=4)
    terms = {}
    while len(terms) < 700:
        e = tuple(rng.randrange(7) for _ in ring.variables)
        terms[e] = Cyc(4, [rng.randint(1, 9), rng.randint(-9, 9)], rng.randint(1, 5))
    den_terms = {tuple(rng.randrange(4) for _ in ring.variables): Cyc.rational(rng.randint(1, 9), 4)
                 for _ in range(60)}
    den = MultiPoly(ring, den_terms)
    f = FieldElement(MultiPoly(ring, terms), den)
    same = FieldElement(MultiPoly(ring, dict(terms)), MultiPoly(ring, dict(den_terms)))
    e0 = next(iter(f.num.terms))
    changed = dict(f.num.terms)
    changed[e0] = changed[e0] + 1
    other = FieldElement(MultiPoly(ring, changed), f.den)
    assert len(f.num.terms) == 700 and not f.den.is_one()
    assert f.den == same.den and f.den is not same.den
    products = []
    mul = MultiPoly.__mul__

    def counted(self, o):
        products.append(1)
        return mul(self, o)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert f == same and same == f
    assert f != other and not (other == f)
    assert not products
    # over different denominators equality still cross-multiplies
    x = ring.element(ring.var("a"))
    assert (x / (x + 1)) == (x * x) / (x * x + x) and products


# ---------------------------------------------------------------- kernels


_KERNEL_RINGS = {n: PolyRing(("x", "y", "z"), n) for n in (1, 4, 8, 12, 20)}


@st.composite
def sparse_polys(draw, ring, max_terms=5):
    """A nonzero polynomial with few terms and mostly zero coordinates."""
    phi = euler_phi(ring.conductor)
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, 3)) for _ in ring.variables)
        nums = [0] * phi
        for k in draw(st.lists(st.integers(0, phi - 1), min_size=1, max_size=3)):
            nums[k] = draw(st.sampled_from([1, -1, 2, -3, 5, -6]))
        terms[exps] = Cyc(ring.conductor, nums, draw(st.integers(1, 6)))
    return MultiPoly(ring, terms)


@st.composite
def kernel_operands(draw, count):
    ring = _KERNEL_RINGS[draw(st.sampled_from(sorted(_KERNEL_RINGS)))]
    return [draw(sparse_polys(ring)) for _ in range(count)]


def _assert_normal_form(p):
    # no zero coefficient vector, one positive denominator in lowest terms
    # against every coordinate, keys that unpack to exponents and pack back,
    # and a carried lead equal to the rescanned maximum
    phi = euler_phi(p.ring.conductor)
    for k, v in p.coeffs.items():
        assert type(v) is tuple and len(v) == phi and any(v)
        assert p.ring._pack(p.ring._unpack(k)) == k
    assert p.denom > 0 and math.gcd(p.denom, *(a for v in p.coeffs.values() for a in v)) == 1
    assert p.ring._unpack(p._lead) == leading_exponents(p)


@settings(max_examples=80, deadline=None)
@given(kernel_operands(2))
def test_products_match_the_schoolbook_oracle(operands):
    p, q = operands
    product = p * q
    assert product.terms == schoolbook_product(p, q).terms
    _assert_normal_form(product)
    # (a + b)(a - b): every cross term a*b cancels against b*a
    items = list(p.terms.items())
    a = MultiPoly(p.ring, dict(items[::2]))
    b = MultiPoly(p.ring, dict(items[1::2]))
    if not b.is_zero():
        square_difference = (a + b) * (a - b)
        assert square_difference.terms == schoolbook_product(a + b, a - b).terms
        assert square_difference == a * a - b * b
        _assert_normal_form(square_difference)


@settings(max_examples=60, deadline=None)
@given(kernel_operands(2))
def test_exact_quotients_match_the_schoolbook_oracle(operands):
    a, b = operands
    num = a * b
    q = exact_divide(num, b)
    assert q == a and q.terms == schoolbook_divide(num, b).terms
    _assert_normal_form(q)
    assert next(iter(q.terms)) == leading_exponents(q)


@settings(max_examples=60, deadline=None)
@given(kernel_operands(3))
def test_inexact_quotients_are_refused_like_the_oracle(operands):
    a, b, r = operands
    num = a * b + r
    q = exact_divide(num, b)
    oracle = schoolbook_divide(num, b)
    assert (q is None) == (oracle is None)
    if q is not None:
        assert q.terms == oracle.terms and q * b == num
    if not b.is_scalar():
        # a nonzero constant is never a multiple of a nonconstant b
        shifted = a * b + r.ring.scalar(3)
        assert exact_divide(shifted, b) is None is schoolbook_divide(shifted, b)


@settings(max_examples=60, deadline=None)
@given(kernel_operands(2), st.data())
def test_a_wrong_cached_lead_never_yields_a_quotient(operands, data):
    a, b = operands
    ring = b.ring
    lead = leading_exponents(b)
    others = sorted(e for e in b.terms if e != lead)
    if not others:
        return
    wrong = data.draw(st.sampled_from(others))
    # den cached at a lower term: x^wrong * b passes the first divisibility
    # test, and its first step lifts the remainder's lead to 2*lead(b)
    bad_den = _with_cached_lead(b, wrong)
    shifted = b * MultiPoly(ring, {wrong: Cyc.one(ring.conductor)})
    with pytest.raises(ExactFieldError, match="did not fall"):
        exact_divide(shifted, bad_den)
    # num cached at a lower term: refused or raised, never a quotient
    num = a * b
    lower = sorted(e for e in num.terms if e != leading_exponents(num))
    if lower:
        bad_num = _with_cached_lead(num, data.draw(st.sampled_from(lower)))
        try:
            assert exact_divide(bad_num, b) is None
        except ExactFieldError as exc:
            assert "did not fall" in str(exc)


_PACK_RING = PolyRing(("x", "y", "z"), 4)
# sums of two stay below the packed degree bound 2^31
_EXPONENTS = st.tuples(*(st.integers(0, (1 << 28) - 1),) * 3)


@settings(max_examples=200, deadline=None)
@given(_EXPONENTS, _EXPONENTS)
def test_packed_monomials(a, b):
    ring = _PACK_RING
    pa, pb = ring._pack(a), ring._pack(b)
    assert ring._unpack(pa) == a and ring._unpack(pb) == b
    # the monomial product is integer addition
    assert pa + pb == ring._pack(tuple(x + y for x, y in zip(a, b)))
    # integer order is grevlex order
    assert (pa < pb) == (grevlex_key(a) < grevlex_key(b))
    assert (pa == pb) == (a == b)


def test_a_degree_past_the_field_width_raises(ring):
    x = ring.var("x")
    # squaring a monomial reaches degree 2^32 in 32 products, without wrapping
    with pytest.raises(ExactFieldError, match="packed exponent width"):
        x ** (1 << 32)
    with pytest.raises(ExactFieldError, match="packed exponent width"):
        MultiPoly(ring, {(1 << 31, 0): Cyc.one(4)})
    top = x ** ((1 << 31) - 1)
    assert _kernel_lead(top) == ((1 << 31) - 1, 0)
    with pytest.raises(ExactFieldError, match="packed exponent width"):
        top * ring.var("y")


@st.composite
def power_bases(draw):
    """A nonzero element of Q(zeta_N)(x, y), or a constant of Q(zeta_N) (a
    rational one half the time), for N in {4, 8, 12, 20, 24}."""
    conductor = draw(st.sampled_from([4, 8, 12, 20, 24]))
    ring = PolyRing(("x", "y"), conductor)
    size = euler_phi(conductor)

    def cyc():
        nums = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        return Cyc(conductor, nums, draw(st.integers(1, 3)))

    kind = draw(st.sampled_from(["rational", "constant", "function"]))
    x, y = ring.var("x"), ring.var("y")
    den = ring.one()
    if kind == "rational":
        num = ring.scalar(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    elif kind == "constant":
        num = ring.scalar(cyc())
    else:
        num = MultiPoly(ring, {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): cyc()
                               for _ in range(draw(st.integers(1, 3)))})
        den = draw(st.sampled_from([ring.one(), x, x + y, x * y * y]))
    if num.is_zero():
        num = ring.one()
    return FieldElement(num, den)


@settings(max_examples=60, deadline=None)
@given(power_bases(), st.sampled_from([2, 3, 5]))
def test_is_power_never_refuses_a_power(h, p):
    verdict = is_power(h ** p, p)
    assert verdict is not False
    if h.is_scalar() and h.as_scalar().is_rational():
        assert verdict is True
