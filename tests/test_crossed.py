import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache

import kummer_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerlab import crossed
from brauerlab.acceptance import decomposition_certificate, seeded_symbol_instances
from brauerlab.crossed import (
    UNIT,
    CrossedAlgebra,
    CrossedError,
    GradedTensor,
    KummerField,
    SymbolAlgebra,
    bergman_power,
    crossed_from_data,
    cyclic_to_symbol,
    decompose,
    generic_cyclic_algebra,
    instance_from_symbol,
    invertible_delta_power,
    standard_ring,
    tensor_brauer,
)
from brauerlab.exactfield import Cyc, FieldElement, PolyRing, common_conductor, poly
from cocycle_oracle import cocycle_holds
from linalg_oracle import kernel, mat_rank, solve


def rational_ring():
    return PolyRing((), 4)


def symbolic_ring(m=2):
    return PolyRing(("a1", "a2", "t", "lam"), common_conductor(m))


def symbolic_gens(ring):
    return [ring.element(ring.var(v)) for v in ("a1", "a2", "t", "lam")]


def rebuild(ring, params):
    """The input algebra of a decomposition certificate, from its JSON."""
    def k_elem(data):
        return {tuple(int(s) for s in key.split(",")): FieldElement.from_json(ring, c)
                for key, c in data.items()}

    a1, a2 = (FieldElement.from_json(ring, params[name]) for name in ("a1", "a2"))
    return crossed_from_data(params["m"], a1, a2, k_elem(params["u"]), k_elem(params["b1"]),
                             k_elem(params["b2"]), ring=ring, check="none")


# ---------------------------------------------------------------- flat coordinates


def index_of(A, i, j, k, l):
    """The flat index of al1^i al2^j z1^k z2^l in the crossed algebra A."""
    return ((k * 2 + l) * A.m + i) * 2 + j


def coords(A, x):
    """The dense coordinate vector of x over the flat basis of A."""
    out = [A.ring.element(0)] * A.dim
    for (k, l), coeff in x.items():
        for (i, j), c in coeff.items():
            out[index_of(A, i, j, k, l)] = c
    return out


def position(A, r):
    """Grade (k, l) and K-key (i, j) of coordinate r of coords(A, x)."""
    rr, j = divmod(r, 2)
    rr, i = divmod(rr, A.m)
    return divmod(rr, 2), (i, j)


def from_coords(A, vec):
    """The element of the crossed algebra A with coordinates vec."""
    out = {}
    for r, c in enumerate(vec):
        if not c.is_zero():
            g, key = position(A, r)
            out.setdefault(g, {})[key] = c
    return out


def basis_element(A, r):
    g, key = position(A, r)
    return {g: {key: A.ring.element(1)}}


def left_mult_matrix(A, x):
    cols = [coords(A, A.mul(x, basis_element(A, s))) for s in range(A.dim)]
    return [list(row) for row in zip(*cols)]


def right_mult_matrix(A, x):
    cols = [coords(A, A.mul(basis_element(A, s), x)) for s in range(A.dim)]
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------- symbol algebras


def test_symbol_algebra_relations():
    ring = rational_ring()
    S = SymbolAlgebra(ring, ring.element(3), ring.element(5), 4)
    assert S.dim == 16
    x, y = S.x(), S.y()
    assert S.equal(S.power(x, 4), {(0, 0): ring.element(3)})
    assert S.equal(S.power(y, 4), {(0, 0): ring.element(5)})
    lhs = S.mul(x, y)
    rhs = S.mul(y, x)
    assert S.equal(lhs, {k: c * S.zeta for k, c in rhs.items()})


def test_symbol_algebra_zero_parameter():
    ring = rational_ring()
    with pytest.raises(CrossedError, match="zero parameter"):
        SymbolAlgebra(ring, ring.element(0), ring.element(5), 2)


def test_symbol_algebra_structure_protocol():
    ring = rational_ring()
    S = SymbolAlgebra(ring, ring.element(2), ring.element(3), 2)
    assert S.grades == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert S.equal(S.one(), {(0, 0): ring.element(1)})
    # x*y lands on the x*y grade with factor 1, y*x with zeta_2 = -1
    assert S.entry((1, 0), (0, 1)) == ((1, 1), None)
    yx, c = S.entry((0, 1), (1, 0))
    assert yx == (1, 1) and c == ring.element(-1)
    assert cocycle_holds(S)


def test_graded_tensor_one_is_a_two_sided_unit():
    ring = rational_ring()
    T = GradedTensor(SymbolAlgebra(ring, 1, 1, 2), SymbolAlgebra(ring, 3, 5, 2))
    assert T.grades[0] == ((0, 0), (0, 0)) and len(T.grades) == 16
    one = T.one()
    for g in T.grades:
        e = {g: ring.element(2)}
        assert T.equal(T.mul(one, e), e) and T.equal(T.mul(e, one), e)
    assert cocycle_holds(T)
    with pytest.raises(CrossedError, match="mismatched scalar fields"):
        GradedTensor(SymbolAlgebra(ring, 1, 1, 2), SymbolAlgebra(PolyRing((), 8), 1, 1, 2))


def random_element(A, rng, ring, grades=3):
    """An element of A with small integer coefficients on a few grades."""
    def coeff():
        return ring.element(rng.choice((-2, -1, 1, 3)))

    def part():
        if isinstance(A.coeffs, KummerField):
            return {key: coeff() for key in rng.sample(A.coeffs.grades, 2)}
        return coeff()

    return {g: part() for g in rng.sample(A.grades, grades)}


def test_scalar_product_is_the_unit_component_of_mul():
    # each factor's partner grade comes from the factor-set table: in
    # Z/3 x Z/3 the inverse of (k, l) is (-k, -l), and a tensor product is
    # graded by pairs
    ring = standard_ring(3, ())
    S = SymbolAlgebra(ring, 2, 3, 3)
    x, y = S.add(S.x(), S.y()), S.add(S.x(2), S.y(2))
    assert S.scalar_product(x, y) == ring.element(5) == S.mul(x, y)[UNIT]
    T = GradedTensor(S, SymbolAlgebra(ring, 3, 5, 2))
    A = instance_from_symbol(3, 3, 5, 2, 1, ring=ring, check="full")
    rng = random.Random(30)
    for B, field_part in ((S, lambda c: c), (T, lambda c: c),
                          (A, lambda c: c.get(UNIT, ring.element(0)))):
        zero = B.coeffs.zero()
        for _ in range(10):
            x, y = random_element(B, rng, ring), random_element(B, rng, ring)
            assert B.scalar_product(x, y) == field_part(B.mul(x, y).get(B.grades[0], zero))


def test_equal_rings_are_one_ring():
    # a ring built again is the same object, so its elements are accepted
    # wherever the first ring's are
    ring, again = PolyRing(("a", "b"), 4), PolyRing(["a", "b"], conductor=4)
    assert again is ring and PolyRing((), 4) is rational_ring()
    three = again.element(3)
    assert ring.element(three) is three
    K = KummerField(ring, 2, again.element(again.var("a")), 5)
    assert K.a1.ring is ring
    T = GradedTensor(SymbolAlgebra(ring, 3, 5, 2), SymbolAlgebra(again, 1, 1, 2))
    assert T.coeffs.ring is ring
    with pytest.raises(ValueError, match="ring mismatch"):
        ring.element(PolyRing(("a", "b"), 8).element(3))
    with pytest.raises(ValueError, match="duplicate variable names"):
        PolyRing(("a", "a"), 4)
    for _ in range(2):  # a ring that fails to build is not kept
        with pytest.raises(ValueError, match="positive integer"):
            PolyRing(("a", "b"), 0)


# ---------------------------------------------------------------- kummer field


def test_kummer_inverse_symbolic():
    ring = symbolic_ring()
    a1, a2, t, lam = symbolic_gens(ring)
    K = KummerField(ring, 2, a1, a2)
    w = K.from_pair(t, ring.element(1))
    inv = K.inverse(w)
    assert K.equal(K.mul(w, inv), K.one())
    mixed = K.add(K.alpha1(), K.alpha2())
    assert K.equal(K.mul(mixed, K.inverse(mixed)), K.one())


def test_kummer_zero_divisor_rejected():
    # a2 = 4 makes al2 - 2 a zero divisor: its quadratic norm vanishes
    ring = rational_ring()
    K = KummerField(ring, 2, ring.element(3), ring.element(4))
    bad = K.from_pair(ring.element(-2), ring.element(1))
    with pytest.raises(CrossedError, match="not invertible"):
        K.inverse(bad)
    assert not K.is_unit(bad) and K.is_unit(K.from_pair(ring.element(-3), ring.element(1)))


@st.composite
def kummer_cases(draw):
    """(K, x): K at m = 2, 3 or 4 over a constant ring or over Q(zeta)(x, y),
    with split parameters allowed, and x with polynomial coefficients."""
    m, symbolic = draw(st.sampled_from([2, 3, 4])), draw(st.booleans())
    ring = PolyRing(("x", "y"), common_conductor(m)) if symbolic else standard_ring(m, ())
    if symbolic:
        X, Y = ring.var("x"), ring.var("y")
        a1, a2 = draw(st.sampled_from([(X, Y), (X, 4), (4, Y), (Y + 1, X)]))
        coeffs = st.sampled_from([0, 0, 0, 1, -2, X, Y + 1, X * Y - 3])
    else:
        a1, a2 = (draw(st.sampled_from([2, 3, 4, -1, 5, 9])) for _ in range(2))
        coeffs = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
    K = KummerField(ring, m, a1, a2)
    x = {key: ring.element(draw(coeffs)) for key in K.grades}
    return K, {key: c for key, c in x.items() if not c.is_zero()}


@settings(max_examples=30, deadline=None)
@given(kummer_cases())
def test_tower_inverse_matches_all_twists(case):
    K, x = case
    try:
        expected = kummer_oracle.inverse(K, x)
    except CrossedError as exc:
        with pytest.raises(CrossedError, match=str(exc)):
            K.inverse(x)
        return
    got = K.inverse(x)
    assert K.equal(got, expected) and K.to_json(got) == K.to_json(expected)


@settings(max_examples=30, deadline=None)
@given(kummer_cases())
def test_tower_norms_match_whole_products(case):
    K, x = case
    for got, expected in ((K.norm(x, 1), kummer_oracle.s1_norm(K, x)),
                          (K.norm(x, 2), kummer_oracle.s2_norm(K, x))):
        assert K.equal(got, expected) and K.to_json(got) == K.to_json(expected)
    assert K.is_unit(x) == (not K.is_zero(kummer_oracle.field_norm(K, x)))


# ---------------------------------------------------------------- multiplication law


def test_crossed_mult_matches_symbol_embedding():
    # independent oracle: al1 = x^2, al2 = y^2, z1 = (al2 + t) y^-1,
    # z2 = lam x inside x^4 = e, y^4 = g, xy = zeta_4 yx reproduce every
    # basis-pair product of the structure-constant algebra
    ring = rational_ring()
    e, g, t, lam = 3, 5, 2, 7
    A = instance_from_symbol(2, e, g, t, lam, ring=ring, check="none")
    S = SymbolAlgebra(ring, e, g, 4)
    one = ring.element(1)
    y_inv = S.mul(S.y(3), {(0, 0): ring.element(Fraction(1, g))})
    assert S.equal(S.mul(S.y(), y_inv), S.one())
    al1 = S.power(S.x(), 2)
    al2 = S.power(S.y(), 2)
    w = S.add(al2, {(0, 0): ring.element(t)})
    z1 = S.mul(w, y_inv)
    z2 = {k: c * lam for k, c in S.x().items()}

    images = {}
    for (i, j, k, l) in itertools.product(range(2), repeat=4):
        term = S.one()
        for base, count in ((al1, i), (al2, j), (z1, k), (z2, l)):
            for _ in range(count):
                term = S.mul(term, base)
        images[(i, j, k, l)] = term

    def embed(elem):
        out = S.zero()
        for (k, l), coeff in elem.items():
            for (i, j), c in coeff.items():
                out = S.add(out, {key: cc * c for key, cc in images[(i, j, k, l)].items()})
        return out

    monos = list(itertools.product(range(2), repeat=4))
    for a, b in itertools.product(monos, monos):
        ea = {(a[2], a[3]): {(a[0], a[1]): one}}
        eb = {(b[2], b[3]): {(b[0], b[1]): one}}
        assert S.equal(embed(A.mul(ea, eb)), S.mul(embed(ea), embed(eb)))


# Reference products kept apart from the shared GradedAlgebra loop: they
# multiply coefficients directly and rebuild the crossed factor set c(g, h)
# for every pair of monomials instead of reading a table.


def kummer_mul_oracle(K, x, y):
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            i, j = i1 + i2, j1 + j2
            c = c1 * c2
            if i >= K.m:
                i -= K.m
                c = c * K.a1
            if j >= 2:
                j -= 2
                c = c * K.a2
            out[(i, j)] = out[(i, j)] + c if (i, j) in out else c
    return out


def kummer_coords(K, x):
    zero = K.ring.element(0)
    return [x.get((i, j), zero) for i in range(K.m) for j in range(2)]


def crossed_mul_oracle(A):
    """The product of A, as a function of two elements."""
    K, m = A.K, A.m
    u_inv = K.inverse(A.u)
    assert kummer_coords(K, kummer_mul_oracle(K, A.u, u_inv)) == kummer_coords(K, K.one())
    # z2 z1^r = twist[r] z1^r z2 with twist[r] the sigma1-twisted product of u^-1
    twist = [K.one()]
    for r in range(1, m):
        twist.append(kummer_mul_oracle(K, twist[r - 1], K.sigma(u_inv, r - 1, 0)))
    return lambda x, y: _crossed_product(A, twist, x, y)


def _crossed_product(A, twist, x, y):
    K, m = A.K, A.m
    out = {}
    for (k, l), lam in x.items():
        for (k2, l2), mu in y.items():
            coeff = kummer_mul_oracle(K, lam, K.sigma(mu, k, l))
            if l == 1 and k2 > 0:
                coeff = kummer_mul_oracle(K, coeff, K.sigma(twist[k2], k, 0))
            kk, ll = k + k2, l + l2
            if kk >= m:
                kk -= m
                coeff = kummer_mul_oracle(K, coeff, K.sigma(A.b1, kk, 0))
            if ll >= 2:
                ll -= 2
                coeff = kummer_mul_oracle(K, coeff, K.sigma(A.b2, kk, 0))
            if (kk, ll) in out:
                total = out[(kk, ll)]
                coeff = {key: total.get(key, 0) + coeff.get(key, 0)
                         for key in set(total) | set(coeff)}
            out[(kk, ll)] = coeff
    return out


def oracle_algebras():
    ring = rational_ring()
    base = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    algebras = [CrossedAlgebra(base.K, *data, check="none") for data in perturbed_data(base)]
    algebras.append(instance_from_symbol(3, 3, 5, 2, 1, ring=standard_ring(3, ()), check="none"))
    return algebras


def test_crossed_mul_matches_oracle_on_basis_pairs():
    for A in oracle_algebras():
        oracle = crossed_mul_oracle(A)
        basis = [basis_element(A, r) for r in range(A.dim)]
        for x, y in itertools.product(basis, basis):
            assert coords(A, A.mul(x, y)) == coords(A, oracle(x, y))


def test_kummer_mul_matches_oracle_on_monomial_pairs():
    for m in (2, 3):
        K = KummerField(standard_ring(m, ()), m, 3, 5)
        one = K.ring.element(1)
        monomials = [{(i, j): one} for i in range(K.m) for j in range(2)]
        for x, y in itertools.product(monomials, monomials):
            assert kummer_coords(K, K.mul(x, y)) == kummer_coords(K, kummer_mul_oracle(K, x, y))


def test_conjugation_relations_hold():
    # z1 x = s1(x) z1 and z2 x = s2(x) z2 hold on every K monomial for any
    # (u, b1, b2), including the four perturbations the full check rejects,
    # so construction has nothing to verify there
    base = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="none")
    K = base.K
    one = K.ring.element(1)
    for data in perturbed_data(base):
        A = CrossedAlgebra(K, *data, check="none")
        for i, j in itertools.product(range(A.m), range(2)):
            x = {(i, j): one}
            for z, (s1, s2) in ((A.z1(), (1, 0)), (A.z2(), (0, 1))):
                assert A.equal(A.mul(z, A.scalar(x)), A.mul(A.scalar(K.sigma(x, s1, s2)), z))


# ---------------------------------------------------------------- associativity gate


def test_norm_incompatible_u_rejected():
    # u = 1 with a genuine al2-component in b1 violates norm condition (a),
    # N_s1(u) s2(b1) = b1, so the full check must reject it
    ring = rational_ring()
    with pytest.raises(CrossedError, match=r"associativity violated: incompatible \(u, b1, b2\)"):
        crossed_from_data(2, 3, 5, 1, (4, 2), 7, ring=ring, check="full")


def test_symbolic_family_passes_full_check():
    ring = symbolic_ring()
    A = instance_from_symbol(2, *symbolic_gens(ring), ring=ring, check="full")
    assert A.check_level == "full"
    f1, f2 = A.b1_pair()
    t = ring.element(ring.var("t"))
    a2 = ring.element(ring.var("a2"))
    assert f1 == 2 * t
    assert f2 == (t * t + a2) / a2


def test_zero_parameter_and_membership_errors():
    ring = rational_ring()
    with pytest.raises(CrossedError, match="zero parameter"):
        crossed_from_data(2, 3, 5, 1, 0, 1, ring=ring)
    K = KummerField(ring, 2, ring.element(3), ring.element(5))
    with pytest.raises(CrossedError, match=r"b1 must lie in F\(al2\)"):
        CrossedAlgebra(K, K.one(), K.alpha1(), K.one(), check="none")
    with pytest.raises(CrossedError, match=r"b2 must lie in F\(al1\)"):
        CrossedAlgebra(K, K.one(), K.one(), K.alpha2(), check="none")


def associative_on(A, monomials) -> bool:
    """Brute-force oracle: (a b) c == a (b c) over all triples of monomials."""
    return all(
        A.equal(A.mul(A.mul(a, b), c), A.mul(a, A.mul(b, c)))
        for a, b, c in itertools.product(monomials, repeat=3)
    )


def perturbed_data(A):
    """(u, b1, b2) of A and the four perturbations u -> 1, u -> 2u,
    b1 -> b1 (1 + al2) and b2 -> b2 (1 + al1)."""
    K = A.K
    return [
        (A.u, A.b1, A.b2),
        (K.one(), A.b1, A.b2),
        (K.scale(A.u, 2), A.b1, A.b2),
        (A.u, K.mul(A.b1, K.add(K.one(), K.alpha2())), A.b2),
        (A.u, A.b1, K.mul(A.b2, K.add(K.one(), K.alpha1()))),
    ]


def accepted(K, data, check) -> bool:
    try:
        CrossedAlgebra(K, *data, check=check)
    except CrossedError as exc:
        assert "associativity violated: incompatible (u, b1, b2)" in str(exc)
        return False
    return True


def test_cocycle_check_agrees_with_brute_force_full():
    ring = rational_ring()
    base = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    verdicts = []
    for data in perturbed_data(base):
        A = CrossedAlgebra(base.K, *data, check="none")
        monomials = [basis_element(A, r) for r in range(A.dim)]
        oracle = associative_on(A, monomials)
        assert cocycle_holds(A) == oracle
        assert accepted(base.K, data, "full") == oracle
        verdicts.append(oracle)
    # the base instance is accepted and every perturbation is rejected
    assert verdicts == [True, False, False, False, False]


def test_rejected_data_is_not_inverted(monkeypatch):
    # construction tests N(u) != 0 and leaves u^-1 to its first use, so the
    # four perturbations are refused without a single inverse in K
    base = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="none")
    calls = []
    inverse = KummerField.inverse

    def counting_inverse(self, x):
        calls.append(x)
        return inverse(self, x)

    monkeypatch.setattr(KummerField, "inverse", counting_inverse)
    for data in perturbed_data(base)[1:]:
        assert not accepted(base.K, data, "full")
    # a non-unit u is still refused at construction, at every check level and
    # with the same error as when it was inverted there: at "none" by
    # N(u) = 0, at "full" by (a) first, which with b1 != 0 needs
    # N_s1(u) = b1 / s2(b1), a unit
    ring = rational_ring()
    K = KummerField(ring, 2, ring.element(3), ring.element(4))
    bad = K.from_pair(ring.element(-2), ring.element(1))
    for level, error in (("none", "element of K is not invertible"),
                         ("full", "associativity violated")):
        with pytest.raises(CrossedError, match=error):
            CrossedAlgebra(K, bad, K.one(), K.one(), check=level)
    assert calls == []


def test_u_is_inverted_once_per_decomposition_certificate(monkeypatch):
    # only a product that needs z2 z1^k (the symbol presentation of A_f)
    # inverts u; A, the twist and the A_f of decompose never do
    inverted = []
    inverse = KummerField.inverse

    def counting_inverse(self, x):
        inverted.append(x)
        return inverse(self, x)

    generic = symbolic_ring(2)
    for m, data, ring in ((2, (3, 5, 2, 1), rational_ring()), (2, symbolic_gens(generic), generic),
                          (3, (3, 5, 2, 1), standard_ring(3, ()))):
        A = instance_from_symbol(m, *data, ring=ring, check="full")
        assert "u_inv" not in vars(A)
        monkeypatch.setattr(KummerField, "inverse", counting_inverse)
        inverted.clear()
        cert = decomposition_certificate(A)
        monkeypatch.undo()
        assert cert.ok and cert.branch == "generic"
        assert len(inverted) == 1 and A.K.equal(inverted[0], A.u)
        assert "u_inv" not in vars(A) and "u_inv" in vars(cert.twisted)


def test_cocycle_check_agrees_with_brute_force_cyclic():
    ring = rational_ring()
    base = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    for data in perturbed_data(base):
        A = CrossedAlgebra(base.K, *data, check="none")
        monomials = [
            basis_element(A, index_of(A, i, j, k, 0))
            for i in range(2) for j in range(2) for k in range(2)
        ]
        # the K-z1 subalgebra is associative for every b1 in F(al2)
        assert associative_on(A, monomials)
        assert cocycle_holds(A, [g for g in A.grades if g[1] == 0])
        assert accepted(base.K, data, "none")


def cohomologous(A, k1, k2):
    """(u, b1, b2) of A in the presentation z1 -> k1 z1, z2 -> k2 z2."""
    K = A.K
    norm = K.one()
    for i in range(A.m):
        norm = K.mul(norm, K.sigma(k1, i, 0))
    u = K.mul(K.mul(A.u, K.mul(k1, K.sigma(k2, 1, 0))),
              K.inverse(K.mul(k2, K.sigma(k1, 0, 1))))
    return u, K.mul(norm, A.b1), K.mul(K.mul(k2, K.sigma(k2, 0, 1)), A.b2)


def norm_condition_cases(m):
    """K and (u, b1, b2) data at degree 2m: twisted, pure, Brauer product,
    cohomologous, then plain and its four perturbations (which fail)."""
    ring = standard_ring(m, ())
    plain = instance_from_symbol(m, 3, 5, 2, 1, ring=ring, check="none")
    K = plain.K
    twisted = instance_from_symbol(m, 3, 5, 2, 1, ring=ring, check="none", mu=1, nu=2)
    pure = CrossedAlgebra(K, K.one(), K.scalar(-1), K.scalar(3), check="none")  # P(-1, 3)
    product = tensor_brauer(plain, CrossedAlgebra(K, K.one(), K.scalar(7), K.scalar(11),
                                                  check="none"), check="none")
    k1 = K.add(K.scalar(2), K.add(K.alpha1(), K.alpha2()))
    k2 = K.add(K.scalar(1), K.mul(K.alpha1(), K.alpha2()))
    return K, [
        *((A.u, A.b1, A.b2) for A in (twisted, pure, product)),
        cohomologous(plain, k1, k2),
        *perturbed_data(plain),
    ]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_norm_conditions_agree_with_the_cocycle_oracle(m):
    K, cases = norm_condition_cases(m)
    cyclic = [(k, 0) for k in range(m)]
    verdicts = []
    for data in cases:
        A = CrossedAlgebra(K, *data, check="none")
        oracle = cocycle_holds(A)
        assert accepted(K, data, "full") == oracle
        assert accepted(K, data, "none") and cocycle_holds(A, cyclic)
        verdicts.append(oracle)
    # the perturbations b1 -> b1 (1 + al2) and b2 -> b2 (1 + al1) break only
    # norm condition (a) and only (b) respectively, so each condition is needed
    assert verdicts == [True] * 5 + [False] * 4


@pytest.mark.parametrize("m", [3, 4])
def test_cocycle_check_exact_beyond_degree_4(m):
    ring = standard_ring(m, ())
    A = instance_from_symbol(m, 2, 3, 1, 1, ring=ring, check="full")
    assert A.check_level == "full"
    assert decompose(A).ok
    assert not accepted(A.K, (A.K.scale(A.u, 2), A.b1, A.b2), "full")


def test_check_levels():
    ring = rational_ring()
    with pytest.raises(CrossedError, match="unknown check level"):
        instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="auto")
    for level in ("full", "none"):
        A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check=level)
        assert A.check_level == level


# ---------------------------------------------------------------- power cancellation


def test_power_cancellation_m2_through_m5():
    for m in (2, 3, 4, 5):
        A = generic_cyclic_algebra(m)
        cert = bergman_power(A)
        assert cert.ok
        assert cert.m == m
        assert cert.computed == cert.expected


def test_power_cancellation_on_full_instance():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="full")
    cert = bergman_power(A)
    assert cert.ok
    payload = cert.to_json()
    assert payload["identity"] == "(z1 + al1)^m = b1 + a1"
    assert payload["check_level"] == "full"


# ---------------------------------------------------------------- tensor product


def test_tensor_parameter_homomorphism():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    B = instance_from_symbol(2, 3, 5, 4, 3, ring=ring, check="none")
    C = tensor_brauer(A, B, check="full")
    K = A.K
    assert K.equal(C.u, K.mul(A.u, B.u))
    assert K.equal(C.b1, K.mul(A.b1, B.b1))
    assert K.equal(C.b2, K.mul(A.b2, B.b2))


@pytest.mark.parametrize("m", [2, 3])
def test_tensor_brauer_inherits_only_passing_verdicts(monkeypatch, m):
    K, cases = norm_condition_cases(m)
    # b1 -> b1 (1 + al2) fails (a); so does (1, 1/(1 + al2), 1), and their
    # product is the plain data again, which passes
    cases.append((K.one(), K.inverse(K.add(K.one(), K.alpha2())), K.one()))
    computed = []
    hold = CrossedAlgebra.norm_conditions_hold

    def counting_hold(self):
        if self._norm_ok is None:
            computed.append(self)
        return hold(self)

    monkeypatch.setattr(CrossedAlgebra, "norm_conditions_hold", counting_hold)
    verdicts = set()
    for x, y in itertools.product(cases, repeat=2):
        A, B = (CrossedAlgebra(K, *data, check="none") for data in (x, y))
        both_pass = A.norm_conditions_hold() and B.norm_conditions_hold()
        oracle = cocycle_holds(CrossedAlgebra(
            K, *(K.mul(p, q) for p, q in zip(x, y)), check="none"))
        computed.clear()
        try:
            C = tensor_brauer(A, B, check="full")
        except CrossedError:
            C = None
        assert (C is not None) == oracle
        assert C is None or (C.check_level == "full" and C.norm_conditions_hold())
        # the product's own conditions are checked exactly when A or B fails
        assert len(computed) == (0 if both_pass else 1)
        verdicts.add((both_pass, oracle))
    assert verdicts == {(True, True), (False, True), (False, False)}


def drawn_instance(draw, m):
    """An instance_from_symbol algebra at check level none, over the generic
    ring or a constant ring with drawn parameters; None when they degenerate."""
    if draw(st.booleans()):
        return generic_instance(m)
    params = [draw(st.sampled_from([-3, 2, 3, 5, 7])) for _ in range(4)]
    try:
        return instance_from_symbol(m, *params, ring=standard_ring(m, ()), check="none")
    except CrossedError:
        return None


@lru_cache(maxsize=None)
def generic_instance(m):
    ring = symbolic_ring(m)
    return instance_from_symbol(m, *symbolic_gens(ring), ring=ring, check="none")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_norm_conditions_match_whole_products(m, data):
    A = drawn_instance(data.draw, m)
    if A is not None:
        A = CrossedAlgebra(A.K, *data.draw(st.sampled_from(perturbed_data(A))), check="none")
        assert A.norm_conditions_hold() == kummer_oracle.norm_conditions_hold(A)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data(), st.integers(0, 10 ** 6))
def test_regrouped_projection_matches_the_2m_term_sum(m, data, pick):
    # on A_f and gamma as decompose hands them to cyclic_to_symbol; the
    # regrouping needs only associativity, so any theta does, and over a
    # constant ring any gamma (there a random term is added to it)
    A = drawn_instance(data.draw, m)
    cert = None if A is None else decompose(A)
    if cert is None or cert.twisted is None:
        return
    A, gamma = cert.twisted, cert.gamma
    rng = random.Random(pick)
    if pick % 2 and not A.ring.variables:
        gamma = A.add(gamma, random_element(A, rng, A.ring, grades=1))
    theta = random_element(A, rng, A.ring)
    got = crossed._projection(A, crossed._powers(A, gamma, A.m), theta)
    expected = kummer_oracle.projection(A, gamma, theta)
    assert A.equal(got, expected) and A.to_json(got) == A.to_json(expected)


def test_tensor_mismatched_data():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    B = instance_from_symbol(2, 3, 7, 2, 1, ring=ring, check="none")
    with pytest.raises(CrossedError, match="mismatched K-data"):
        tensor_brauer(A, B)


# ---------------------------------------------------------------- decomposition


def spy_on_acceptance(monkeypatch):
    """Every (algebra, delta, simple, d') that ``_accept_delta`` sees from here on."""
    seen = []
    accept = crossed._accept_delta

    def spy(A, delta, simple):
        seen.append((A, delta, simple, accept(A, delta, simple)))
        return seen[-1][3]

    monkeypatch.setattr(crossed, "_accept_delta", spy)
    return seen


def delta_detail(cert):
    """The detail of a certificate's delta-power-in-F record: path and evidence."""
    record, = (item for item in cert.identities if item["name"] == "delta-power-in-F")
    return record["detail"]


# sha256 of the sorted-key JSON of the generic certificate over
# Q(zeta)(a1, a2, t, lam): multi-term products and exact divisions byte for byte
GENERIC_CERTIFICATE_DIGESTS = {
    2: "ae0261eb1846084f60391a51eed0f890aa880fe1cad346f560e212a9fa4a0e07",
    3: "b7945abe55c63026b75e5da9770b260c064d41ec9612e77a62c8b358ad8dee44",
}


@pytest.mark.parametrize("m", sorted(GENERIC_CERTIFICATE_DIGESTS))
def test_generic_symbolic_certificate_bytes_are_pinned(m):
    ring = symbolic_ring(m)
    A = instance_from_symbol(m, *symbolic_gens(ring), ring=ring, check="full")
    blob = json.dumps(decomposition_certificate(A).to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GENERIC_CERTIFICATE_DIGESTS[m]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_decompose_generic_symbolic(monkeypatch, m):
    ring = symbolic_ring(m)
    a1, a2, t, lam = symbolic_gens(ring)
    A = instance_from_symbol(m, a1, a2, t, lam, ring=ring, check="full")
    # the whole verdict, the symbol presentation of A_f included
    seen = spy_on_acceptance(monkeypatch)
    cert = decomposition_certificate(A)
    assert cert.branch == "generic"
    assert cert.ok
    # a valuation of c' prime to each p | 2m makes x^2m - c' irreducible, so
    # d' is read off the F-component, and it equals the whole delta^2m
    Af, delta, simple, d_prime = seen[-1]
    assert simple and delta_detail(cert)["delta^2m in F*"] == "F-component"
    assert d_prime == invertible_delta_power(Af, delta)
    assert FieldElement.from_json(ring, cert.witnesses["d_prime"]) == d_prime
    names = {item["name"] for item in cert.identities}
    assert {"gamma-power-m", "gamma-power-2m", "gamma-min-poly-degree",
            "tensor-cocycle-witness"} <= names
    # the twist scalar matches -a1 f2 / f1 exactly
    f1, f2 = A.b1_pair()
    c = FieldElement.from_json(ring, cert.witnesses["c"])
    assert c == -(a1 * f2) / f1
    f = FieldElement.from_json(ring, cert.witnesses["f"])
    assert f == -a1 / f1


@pytest.mark.parametrize("seed", [42, 7])
def test_field_component_agrees_with_the_whole_power_on_criterion_7(monkeypatch, seed):
    seen = spy_on_acceptance(monkeypatch)
    paths = []
    for _, A, _ in seeded_symbol_instances(seed, rational_ring(), 20):
        seen.clear()
        cert = decomposition_certificate(A)
        assert cert.ok
        Af, delta, simple, d_prime = seen[-1]
        assert d_prime == invertible_delta_power(Af, delta)
        paths.append(delta_detail(cert)["delta^2m in F*"])
        assert paths[-1] == ("F-component" if simple else "whole power")
    assert "F-component" in paths


def test_square_c_prime_takes_the_whole_power():
    # sqrt(5) lies in Q(zeta_20), so at m = 5 c' = c^2 * 5 is a square and
    # x^10 - c' is reducible: the F-component would not be enough
    A = instance_from_symbol(5, 3, 5, 2, 1, ring=standard_ring(5, ()), check="full")
    cert = decomposition_certificate(A)
    assert cert.ok
    assert delta_detail(cert) == {"delta^2m in F*": "whole power",
                                  "c' is a p-th power": {"2": True, "5": False},
                                  "N(b1), N(b2) != 0": True}


def test_decompose_generic_rational_and_replay():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="full")
    cert = decompose(A)
    assert cert.branch == "generic" and cert.ok
    payload = cert.to_json()
    replayed = decompose(rebuild(ring, payload["params"]))
    assert replayed.branch == payload["branch"] and replayed.ok
    assert ([(item["name"], item["ok"]) for item in replayed.identities]
            == [(item["name"], item["ok"]) for item in payload["identities"]])
    # A_f stays on the certificate but out of its JSON
    assert isinstance(cert.twisted, CrossedAlgebra)
    assert "twisted" not in payload


def test_decomposition_certificate_builds_the_twisted_algebra_once(monkeypatch):
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="full")
    built = []
    init = CrossedAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CrossedAlgebra, "__init__", counting_init)
    cert = decomposition_certificate(A)
    assert cert.ok and cert.branch == "generic"
    # the twist (1, f, 1) and A_f = A (x) twist, at level full (inherited
    # from A and the twist); the commutation solve reuses A_f
    assert [B.check_level for B in built] == ["none", "full"]
    assert built[1] is cert.twisted


@pytest.mark.parametrize("m, budget", [(2, 17), (3, 25), (4, 32)])
def test_one_decomposition_certificate_multiplication_budget(monkeypatch, m, budget):
    # gamma^m once in decompose (m - 1 products), then cyclic_to_symbol's
    # powers, delta search, delta^2m and its checks: no power is taken twice,
    # and the last product of delta^2m is only its F-component (18 / 26 / 33
    # products when it was taken whole).  The projection takes 4m products
    # either way: the 2m-term sum 2m by theta and 2m by gamma^(2m-i), the
    # regrouped one m by theta, m by gamma^(m-j) and 2m by the K-scalar h
    A = instance_from_symbol(m, 3, 5, 2, 1, ring=standard_ring(m, ()), check="full")
    calls = []
    mul = crossed.GradedAlgebra.mul

    def counted_mul(self, x, y, keep=None):
        if isinstance(self, CrossedAlgebra):
            calls.append(self)
        return mul(self, x, y, keep=keep)

    monkeypatch.setattr(crossed.GradedAlgebra, "mul", counted_mul)
    assert decomposition_certificate(A).ok
    assert len(calls) <= budget


def test_decompose_leaves_the_symbol_presentation_to_its_caller(monkeypatch):
    def refuse(*args):
        raise AssertionError("decompose called cyclic_to_symbol")

    monkeypatch.setattr(crossed, "cyclic_to_symbol", refuse)
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="full")
    cert = decompose(A)
    assert cert.ok and cert.branch == "generic"
    assert [item["name"] for item in cert.identities] == [
        "tensor-cocycle-witness", "gamma-power-m"]


def _count_scalar_work(monkeypatch):
    """Count Cyc products and constructions, products of two multi-term
    polynomials, and exact_divide calls and hits from here on."""
    counts = dict.fromkeys(("cyc_mul", "cyc_init", "poly_mul", "divide", "hits"), 0)
    mul, init, poly_mul, divide = Cyc.__mul__, Cyc.__init__, poly.MultiPoly.__mul__, poly.exact_divide

    def counted_mul(a, b):
        counts["cyc_mul"] += 1
        return mul(a, b)

    def counted_init(self, *args, **kwargs):
        counts["cyc_init"] += 1
        init(self, *args, **kwargs)

    def counted_poly_mul(p, q):
        counts["poly_mul"] += (isinstance(q, poly.MultiPoly)
                               and len(p.coeffs) > 1 and len(q.coeffs) > 1)
        return poly_mul(p, q)

    def counted_divide(num, den):
        counts["divide"] += 1
        q = divide(num, den)
        counts["hits"] += q is not None
        return q

    monkeypatch.setattr(Cyc, "__mul__", counted_mul)
    monkeypatch.setattr(Cyc, "__rmul__", counted_mul)
    monkeypatch.setattr(Cyc, "__init__", counted_init)
    monkeypatch.setattr(poly.MultiPoly, "__mul__", counted_poly_mul)
    monkeypatch.setattr(poly.MultiPoly, "__rmul__", counted_poly_mul)
    monkeypatch.setattr(poly, "exact_divide", counted_divide)
    return counts


def test_work_budget_of_exact_scalars(monkeypatch):
    # upper bounds pinned at the counts of the packed-array kernel, whose
    # polynomial arithmetic makes no Cyc product and builds a Cyc only for a
    # view (the schoolbook kernel before it made 185 and 223 Cyc products,
    # 304 and 412 Cyc constructions); the multi-term product count bounds
    # that kernel's convolutions.  The exact_divide hits are pinned exactly:
    # a lost hit would leave a quotient uncollapsed.
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="full")
    counts = _count_scalar_work(monkeypatch)
    cert = decomposition_certificate(A)
    assert cert.ok and cert.branch == "generic"
    # 144 products and 247 constructions when every coefficient was a Cyc,
    # 183 products when the last product of delta^4 was taken whole, 159
    # before the tower norms, lazy u^-1 and unit-free scalar products (302
    # constructions)
    assert counts["cyc_mul"] <= 1
    assert counts["cyc_init"] <= 8
    # a ring without variables has one-term polynomials only
    assert counts["poly_mul"] == 0
    assert counts["divide"] == counts["hits"] == 0
    ring = symbolic_ring(2)
    gens = symbolic_gens(ring)
    counts.update(dict.fromkeys(counts, 0))
    instance_from_symbol(2, *gens, ring=ring, check="full")
    # 105, 298, 23, 56 and 8 when construction inverted u: of its two hits,
    # u s2(u) collapsing to the norm is still taken by the unit test, and
    # u u^-1 collapsing to 1 is gone with the inverse; 44 Cyc products and
    # 174 constructions when every coefficient was a Cyc
    assert counts["cyc_mul"] == 0
    assert counts["cyc_init"] <= 6
    assert counts["poly_mul"] <= 14
    assert counts["divide"] <= 44
    assert counts["hits"] == 7


def test_work_budget_of_the_symbolic_certificate(monkeypatch):
    # the generic degree-4 certificate over Q(i)(a1, a2, t, lam): 196 Cyc
    # products when every coefficient was a Cyc, 689 when the last product of
    # delta^4 was taken whole, 514 before the tower norms, lazy u^-1 and
    # unit-free scalar products
    ring = symbolic_ring(2)
    A = instance_from_symbol(2, *symbolic_gens(ring), ring=ring, check="full")
    counts = _count_scalar_work(monkeypatch)
    cert = decomposition_certificate(A)
    assert cert.ok and cert.branch == "generic"
    assert counts["cyc_mul"] == 0


def test_decompose_f1_zero_cyclic():
    # t = 0 collapses b1 to a pure al2 multiple at even m; the cyclic path
    # runs untwisted (f = 1, A_f = A) with gamma = z1
    for m in (2, 4):
        ring = standard_ring(m, ())
        A = instance_from_symbol(m, 3, 5, 0, 1, ring=ring, check="full")
        f1, f2 = A.b1_pair()
        assert f1.is_zero() and not f2.is_zero()
        cert = decomposition_certificate(A)
        assert cert.branch == "f1-zero-cyclic"
        assert cert.ok
        assert A.equal(cert.gamma, A.z1())
        for name in ("u", "b1", "b2"):
            assert A.K.equal(getattr(cert.twisted, name), getattr(A, name))
        assert FieldElement.from_json(ring, cert.witnesses["f"]).is_one()
        # c = f2, and c' = z1^2m = f2^2 a2
        assert FieldElement.from_json(ring, cert.witnesses["c"]) == f2
        c_prime = FieldElement.from_json(ring, cert.witnesses["c_prime"])
        assert c_prime == f2 * f2 * A.K.a2
        assert A.scalar_of(A.power(A.z1(), 2 * m)) == c_prime


def test_decompose_f2_zero_split():
    ring = rational_ring()
    A = crossed_from_data(2, 3, 5, 1, 7, 11, ring=ring, check="full")
    cert = decompose(A)
    assert cert.branch == "f2-zero-split-quaternion"
    assert cert.ok
    ok = {item["name"]: item["ok"] for item in cert.identities}
    assert ok["dimension-product"]
    assert ok["factors-commute-z1-vs-z2"]


def test_decompose_f2_zero_with_norm_one_u():
    # u = -1 has s1-norm 1, so a Hilbert-90 adjuster k = al1 restores the
    # commuting split; b2 must stay in F because s1(b2)/b2 = u s2(u) = 1
    ring = rational_ring()
    A = crossed_from_data(2, 3, 5, -1, 7, 11, ring=ring, check="full")
    cert = decompose(A)
    assert cert.branch == "f2-zero-split-quaternion"
    ok = {item["name"]: item["ok"] for item in cert.identities}
    assert ok["hilbert90-adjustment"]
    assert ok["factors-commute-z1-vs-z2"]
    assert cert.ok


def test_decompose_f2_zero_with_u_squared_not_one():
    # t = 0 puts b1 = a2 in F, so f2 = 0, with u = -zeta_3; the adjuster
    # solves u s1(k) = k, which differs from s1(k) = u k once u^2 != 1
    A = instance_from_symbol(3, 3, 5, 0, 1, ring=standard_ring(3, ()), check="full")
    cert = decompose(A)
    assert cert.branch == "f2-zero-split-quaternion"
    assert cert.ok
    assert cert.witnesses["z2_adjuster"] == A.K.to_json(A.K.alpha1())


def test_decompose_rejects_double_zero():
    ring = rational_ring()
    A = crossed_from_data(2, 3, 5, 1, 7, 11, ring=ring, check="none")
    A.b1 = {}
    with pytest.raises(CrossedError, match="f1 = f2 = 0 rejected"):
        decompose(A)


def test_certificate_json_roundtrip():
    ring = rational_ring()
    A = instance_from_symbol(2, 6, 13, 1, 4, ring=ring, check="full")
    cert = decompose(A)
    rebuilt = rebuild(ring, cert.params)
    assert rebuilt.K.equal(rebuilt.b1, A.b1)
    assert rebuilt.K.equal(rebuilt.u, A.u)
    assert rebuilt.K.equal(rebuilt.b2, A.b2)


def test_brauer_relation_at_m3_names_a1_f():
    # T = (1, f, 1) has z1^3 = f, al1^3 = a1 and z1 al1 = zeta_3 al1 z1, so
    # T = (f, a1)_3 with x = z1, y = al1; A_f = A (x) T, so A ~ (a1, f)_3 (x) A_f
    ring = standard_ring(3, ())
    A = instance_from_symbol(3, 3, 5, 2, 1, ring=ring, check="full")
    cert = decompose(A)
    assert cert.branch == "generic" and cert.ok
    K = A.K
    f = FieldElement.from_json(ring, cert.witnesses["f"])
    T = crossed_from_data(3, K.a1, K.a2, 1, f, 1, ring=ring, check="full")
    z1, al1 = T.z1(), T.alpha1()
    assert T.equal(T.power(z1, 3), T.scalar(f))
    assert T.equal(T.power(al1, 3), T.scalar(K.a1))
    assert T.equal(T.mul(z1, al1), T.scale(T.mul(al1, z1), K.zeta_m))
    Af = tensor_brauer(A, T)
    for name in ("u", "b1", "b2"):
        assert K.equal(getattr(Af, name), getattr(cert.twisted, name))
    assert cert.witnesses["twist_symbol"] == {"a": K.a1.to_json(), "b": f.to_json(), "m": 3}
    assert cert.witnesses["brauer_relation"] == (
        "A ~ (a1, f)_m tensor A_f, where (a, b)_m: x^m = a, y^m = b, xy = zeta_m yx")


def test_pivot_rank_is_the_oracle_rank_on_decomposition_powers():
    # the instances tier-1 decomposes, criterion 7's seed-42 draws included:
    # the certificate's gamma in A_f, z1 + al1 on the generic branch and z1
    # on the f1 = 0 branch
    rq = rational_ring()
    algebras = [instance_from_symbol(2, *p, ring=rq, check="full")
                for p in [(3, 5, 2, 1), (6, 13, 1, 4), (3, 5, 0, 1)]]
    algebras += [algebra for _, algebra, _ in seeded_symbol_instances(42, rq, 20)]
    for m in (3, 4):
        algebras += [instance_from_symbol(m, *p, ring=standard_ring(m, ()), check="full")
                     for p in [(2, 3, 1, 1), (3, 5, 2, 1)]]
    ring = symbolic_ring()
    algebras.append(instance_from_symbol(2, *symbolic_gens(ring), ring=ring, check="full"))
    branches = []
    for A in algebras:
        cert = decompose(A)
        branches.append(cert.branch)
        A = cert.twisted
        powers = crossed._powers(A, cert.gamma, 2 * A.m - 1)
        rank = crossed._min_poly_rank(powers)
        assert rank == mat_rank([coords(A, p) for p in powers]) == 2 * A.m
    assert branches.count("f1-zero-cyclic") == 1
    assert branches.count("generic") == len(algebras) - 1


def test_pivot_rank_never_exceeds_the_oracle_rank():
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="none")
    z1z2 = A.mul(A.z1(), A.z2())
    elements = [A.alpha1(), A.alpha2(), A.z2(), z1z2, A.add(A.alpha1(), A.z2()),
                A.add(A.z1(), A.alpha2()), A.add(z1z2, A.alpha2())]
    for x in elements:
        powers = crossed._powers(A, x, 3)
        assert crossed._min_poly_rank(powers) <= mat_rank([coords(A, p) for p in powers])
    # al1^2 = a1: al1^i and al1^(2+i) share their only coordinate, so no
    # pivot exists although the oracle rank is m
    powers = crossed._powers(A, A.alpha1(), 3)
    assert crossed._min_poly_rank(powers) < 4
    assert mat_rank([coords(A, p) for p in powers]) == 2


# ---------------------------------------------------------------- symbol extraction


def test_cyclic_to_symbol_rational():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    K = A.K
    f1, f2 = A.b1_pair()
    f = -K.a1 / f1
    Af = CrossedAlgebra(K, A.u, K.mul(A.b1, K.scalar(f)), A.b2, check="none")
    gamma = Af.add(Af.z1(), Af.alpha1())
    pres = cyclic_to_symbol(Af, gamma)
    assert pres.ok
    c = -(K.a1 * f2) / f1
    assert pres.c_prime == c * c * K.a2
    assert not pres.d_prime.is_zero()
    # delta really conjugates gamma by zeta_4
    delta = pres.delta
    lhs = Af.mul(delta, gamma)
    rhs = Af.scale(Af.mul(gamma, delta), K.zeta_2m)
    assert Af.equal(lhs, rhs)


@pytest.mark.parametrize("m", [2, 3])
def test_cyclic_to_symbol_symbolic(m):
    ring = symbolic_ring(m)
    A = instance_from_symbol(m, *symbolic_gens(ring), ring=ring, check="none")
    K = A.K
    f1, f2 = A.b1_pair()
    f = -K.a1 / f1
    Af = CrossedAlgebra(K, A.u, K.mul(A.b1, K.scalar(f)), A.b2, check="none")
    gamma = Af.add(Af.z1(), Af.alpha1())
    pres = cyclic_to_symbol(Af, gamma)
    assert pres.ok
    c = -(K.a1 * f2) / f1
    assert pres.c_prime == c * c * K.a2


def test_cyclic_to_symbol_input_gates():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    # z1^4 = b1^2 is not scalar for this instance
    with pytest.raises(CrossedError, match="not a nonzero scalar"):
        cyclic_to_symbol(A, A.z1())
    # al1 has scalar fourth power but generates only a quadratic subfield
    with pytest.raises(CrossedError, match="degree-2m subfield"):
        cyclic_to_symbol(A, A.alpha1())


def _twisted_rational(e, g, t, lam):
    """A_f and gamma = z1 + al1 as ``decompose`` builds them, unchecked."""
    A = instance_from_symbol(2, e, g, t, lam, ring=rational_ring(), check="none")
    K = A.K
    f1, _ = A.b1_pair()
    Af = CrossedAlgebra(K, A.u, K.mul(A.b1, K.scalar(-K.a1 / f1)), A.b2, check="none")
    return Af, Af.add(Af.z1(), Af.alpha1())


def commutation_system(A, gamma):
    """The matrix of delta -> delta gamma - zeta_2m gamma delta."""
    left = left_mult_matrix(A, gamma)
    right = right_mult_matrix(A, gamma)
    zeta = A.K.zeta_2m
    return [[right[r][s] - left[r][s] * zeta for s in range(A.dim)] for r in range(A.dim)]


def _commutation_candidates(A, gamma):
    """Every vector of a basis of {delta : delta gamma = zeta gamma delta},
    then every pairwise sum of them."""
    kern = kernel(commutation_system(A, gamma), A.ring)
    sums = [[x + y for x, y in zip(v, w)] for v, w in itertools.combinations(kern, 2)]
    return [from_coords(A, vec) for vec in kern + sums]


def _solve_invertible(A, candidate):
    """Oracle: solve candidate * x = 1, then check both products with x."""
    sol = solve(left_mult_matrix(A, candidate), coords(A, A.one()), A.ring)
    if sol is None:
        return False
    inv = from_coords(A, sol)
    return A.equal(A.mul(candidate, inv), A.one()) and A.equal(A.mul(inv, candidate), A.one())


@pytest.mark.parametrize("params", [(3, 5, 2, 1), (4, 5, 2, 1)])
def test_delta_power_agrees_with_solve_oracle(params):
    A, gamma = _twisted_rational(*params)
    candidates = _commutation_candidates(A, gamma)
    assert len(candidates) == 10
    # gamma^m = c al2 forces delta al2 = -al2 delta: only z2-odd grades
    assert all(l == 1 for delta in candidates for (_, l) in delta)
    for delta in candidates:
        d_prime = invertible_delta_power(A, delta)
        assert (d_prime is not None) == _solve_invertible(A, delta)
        if d_prime is not None:
            inv = A.scale(A.power(delta, 3), d_prime.inverse())
            assert A.equal(A.mul(delta, inv), A.one())
            assert A.equal(A.mul(inv, delta), A.one())


def test_delta_power_refuses_invertible_delta_outside_F():
    # a2 = -1 is a square in Q(i), so K is not a field; cyclic_to_symbol
    # refuses this gamma at its gamma^4 gate, so take the kernel directly
    A, gamma = _twisted_rational(2, -1, 1, 1)
    with pytest.raises(CrossedError, match="not a nonzero scalar"):
        cyclic_to_symbol(A, gamma)
    refused = []
    for delta in _commutation_candidates(A, gamma):
        accepted = invertible_delta_power(A, delta) is not None
        if accepted != _solve_invertible(A, delta):
            refused.append(delta)
            assert not accepted
    assert len(refused) == 4
    assert all(A.scalar_of(A.power(delta, 4)) is None for delta in refused)


def test_delta_power_refuses_an_algebra_failing_the_norm_conditions():
    # u -> u al2 breaks the norm conditions (the full check rejects it);
    # there (z1 z2)^3 z1 z2 is a nonzero scalar but z1 z2 (z1 z2)^3 differs,
    # so no power of z1 z2 certifies it invertible
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=rational_ring(), check="none")
    K = A.K
    x = A.mul(A.z1(), A.z2())
    assert invertible_delta_power(A, x) is not None
    u_al2 = K.mul(A.u, K.alpha2())
    with pytest.raises(CrossedError):
        CrossedAlgebra(K, u_al2, A.b1, A.b2, check="full")
    B = CrossedAlgebra(K, u_al2, A.b1, A.b2, check="none")
    assert A.norm_conditions_hold() and not B.norm_conditions_hold()
    x = B.mul(B.z1(), B.z2())
    top = B.power(x, 4)
    assert B.scalar_of(top) is not None and not B.scalar_of(top).is_zero()
    assert not B.equal(B.mul(x, B.power(x, 3)), top)
    assert invertible_delta_power(B, x) is None


def test_cyclic_to_symbol_refuses_a_non_associative_algebra_up_front(monkeypatch):
    Af, _ = _twisted_rational(3, 5, 2, 1)
    K = Af.K
    B = CrossedAlgebra(K, K.mul(Af.u, K.alpha2()), Af.b1, Af.b2, check="none")
    seen = []
    monkeypatch.setattr(crossed, "_accept_delta", lambda *args: seen.append(args))
    with pytest.raises(CrossedError, match=r"norm conditions \(a\) and \(b\) fail"):
        cyclic_to_symbol(B, B.add(B.z1(), B.alpha1()))
    assert seen == []


@pytest.mark.parametrize("m", [2, 3, 4])
def test_squared_delta_power_matches_sequential_power(m):
    # 2m = 4, 6, 8: at m = 3 the squaring chain takes delta^4 delta^2
    A = instance_from_symbol(m, 3, 5, 2, 1, ring=standard_ring(m, ()), check="full",
                             mu=1, nu=2)
    Af = decompose(A).twisted
    pres = cyclic_to_symbol(Af, Af.add(Af.z1(), Af.alpha1()))
    assert pres.ok
    delta = pres.delta
    assert pres.d_prime == Af.scalar_of(Af.power(delta, 2 * m))


def test_c_prime_value_is_checked_against_gamma_m_squared(monkeypatch):
    # c' is read off gamma^2m, the last power cyclic_to_symbol builds; delta
    # is built from the powers themselves, so a wrong reading of c' is seen
    # only by the check against gamma^m gamma^m
    A, gamma = _twisted_rational(3, 5, 2, 1)
    assert cyclic_to_symbol(A, gamma).ok
    g2m = A.power(gamma, 4)
    scalar_of = A.scalar_of

    def wrong_c_prime(x):
        out = scalar_of(x)
        return out * 2 if A.equal(x, g2m) else out

    monkeypatch.setattr(A, "scalar_of", wrong_c_prime)
    pres = cyclic_to_symbol(A, gamma)
    assert pres.c_prime == scalar_of(g2m) * 2
    assert not pres.ok
    assert [c["name"] for c in pres.checks if not c["ok"]] == ["c-prime-value"]


@pytest.mark.parametrize("m", [2, 3])
def test_norm_one_splitter_lies_in_the_oracle_kernel(m):
    # u = -1 at m = 2; at m = 3, t = 0 gives a scalar u with u^2 != 1
    if m == 2:
        A = crossed_from_data(2, 3, 5, -1, 7, 11, ring=rational_ring(), check="full")
    else:
        A = instance_from_symbol(3, 3, 5, 0, 1, ring=standard_ring(3, ()), check="full")
    K = A.K
    assert K.equal(A.u, K.scalar(-1)) == (m == 2)
    assert K.equal(K.mul(A.u, A.u), K.one()) == (m == 2)
    k, ok = crossed._norm_one_splitter(A)
    assert ok and K.equal(k, K.alpha1())
    assert K.equal(K.mul(A.u, K.sigma(k, 1, 0)), k)
    # the oracle: the kernel of x -> u s1(x) - x on the Kummer monomials
    one, zero = A.ring.element(1), A.ring.element(0)
    images = [K.add(K.mul(A.u, K.sigma({key: one}, 1, 0)), {key: -one}) for key in K.grades]
    matrix = [[image.get(row, zero) for image in images] for row in K.grades]
    kern = kernel(matrix, A.ring)
    assert kern
    assert mat_rank(kern + [[k.get(key, zero) for key in K.grades]]) == len(kern)


def projection(A, gamma, theta):
    """sum_(i<2m) zeta_2m^i gamma^i theta gamma^(2m-i), from A.power."""
    n = 2 * A.m
    out = A.zero()
    for i in range(n):
        term = A.mul(A.mul(A.power(gamma, i), theta), A.power(gamma, n - i))
        out = A.add(out, A.scale(term, A.K.zeta_2m ** i))
    return out


@pytest.mark.parametrize("params", [(3, 5, 2, 1), (4, 5, 2, 1)])
def test_closed_form_delta_lies_in_the_oracle_kernel(params):
    A, gamma = _twisted_rational(*params)
    pres = cyclic_to_symbol(A, gamma)
    assert pres.ok
    assert A.equal(pres.delta,
                   projection(A, gamma, A.mul(A.z1(), A.z2())))
    kern = kernel(commutation_system(A, gamma), A.ring)
    assert len(kern) == 4
    assert mat_rank(kern + [coords(A, pres.delta)]) == len(kern)


def test_next_seed_is_used_when_the_check_refuses_the_first(monkeypatch):
    A, gamma = _twisted_rational(3, 5, 2, 1)
    check = crossed._accept_delta
    seen = []

    def refuse_first(B, delta, simple):
        seen.append(delta)
        return None if len(seen) == 1 else check(B, delta, simple)

    monkeypatch.setattr(crossed, "_accept_delta", refuse_first)
    pres = cyclic_to_symbol(A, gamma)
    assert pres.ok and len(seen) == 2
    # z1 z2 first, then z2, the first other z2-odd monomial
    assert A.equal(seen[0], projection(A, gamma, A.mul(A.z1(), A.z2())))
    assert A.equal(seen[1], projection(A, gamma, A.z2()))
    assert A.equal(pres.delta, seen[1])
    assert not A.equal(seen[0], seen[1])
