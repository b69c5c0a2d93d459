import random

import pytest

from brauerlab import snf
from brauerlab.acceptance import udn_entry_failures
from brauerlab.factorsets import (
    FactorSet,
    FactorSetError,
    FactorSetMonomial,
    check_cocycle,
    check_equivariance,
    is_normalized,
    is_reduced,
    normalized_factor_set,
    udn_factor_set,
    wedge_membership,
)
from wedge_oracle import dense_wedge_membership, expand_wedge_coordinates, exponent_tensor


def test_udn_entries():
    c = udn_factor_set(3)
    assert c[(1, 2, 3)] == FactorSetMonomial(3, {(1, 2): 1, (2, 3): 1,
                                                 (1, 3): -1})
    assert c[(1, 1, 1)] == FactorSetMonomial(3, {(1, 1): 1})
    # c_iih and c_ijj collapse to a diagonal variable
    assert c[(2, 2, 3)] == FactorSetMonomial(3, {(2, 2): 1})
    assert c[(1, 3, 3)] == FactorSetMonomial(3, {(3, 3): 1})


def test_udn_cocycle_identity():
    for n in (2, 3, 4, 5, 6, 7):
        assert check_cocycle(udn_factor_set(n)) == {
            "name": "cocycle-identity", "ok": True, "detail": f"{n ** 4} quadruples"}


def test_normalized_entries():
    cp = normalized_factor_set(5)
    m = cp[(1, 2, 3)]
    assert m.pairs == {(1, 2): 3, (2, 1): -3, (2, 3): 3, (3, 2): -3,
                       (3, 1): 3, (1, 3): -3}
    # degenerate triples vanish
    assert cp[(1, 2, 1)].is_trivial()
    assert cp[(2, 2, 4)].is_trivial()
    assert cp[(3, 5, 5)].is_trivial()
    with pytest.raises(FactorSetError, match="odd"):
        normalized_factor_set(4)


def test_reduced_and_normalized_predicates():
    assert is_reduced(udn_factor_set(5)) is False
    cp = normalized_factor_set(5)
    assert is_reduced(cp) is True
    assert is_normalized(cp) is True
    for (i, j, h) in ((1, 2, 3), (4, 2, 5), (1, 5, 2)):
        assert (cp[(i, j, h)] * cp[(h, j, i)]).is_trivial()


def test_equivariance():
    assert check_equivariance(udn_factor_set(5))["ok"]
    assert check_equivariance(normalized_factor_set(5))["ok"]

    broken = udn_factor_set(3)
    broken.entries[(1, 2, 3)] = FactorSetMonomial(3, {(1, 2): 2})
    cert = check_equivariance(broken, "equivariance-broken")
    assert cert["name"] == "equivariance-broken" and cert["ok"] is False
    assert cert["detail"].startswith("54 entry-generator pairs, ")
    assert "failing, first" in cert["detail"]


def test_cocycle_negative_control():
    broken = udn_factor_set(3)
    broken.entries[(1, 2, 3)] = FactorSetMonomial(3, {(1, 2): 2})
    assert check_cocycle(broken)["ok"] is False


def test_wedge_membership_of_normalized_entries():
    cp = normalized_factor_set(5)
    m = cp[(1, 2, 3)]
    coords = wedge_membership(m)
    assert coords is not None
    assert expand_wedge_coordinates(5, coords) == exponent_tensor(m)
    # the single spanning wedge (u1-u2)^(u2-u3), cubed, also matches
    assert expand_wedge_coordinates(
        5, {((1, 2), (2, 3)): 3}) == exponent_tensor(m)


def test_wedge_membership_rejections():
    z12 = FactorSetMonomial(5, {(1, 2): 1})
    assert wedge_membership(z12) is None
    empty = FactorSetMonomial(5)
    assert wedge_membership(empty) == {}
    with pytest.raises(FactorSetError, match="diagonal"):
        wedge_membership(FactorSetMonomial(5, {(2, 2): 1}))


def test_wedge_membership_random_roundtrip():
    # the closed form against two oracles, the dense expansion test and an
    # integer solve over the basis (u_i - u_1) ^ (u_j - u_1), for n = 3..9
    rng = random.Random(7)
    for n in range(3, 10):
        keys = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
        cols = [expand_wedge_coordinates(n, {((i, 1), (j, 1)): 1}) for (i, j) in keys]
        oracle = snf.IntSolver([[col[r] for col in cols] for r in range(n * n)])

        def monomial(tensorv):
            return FactorSetMonomial(
                n, {(i + 1, j + 1): tensorv[i * n + j]
                    for i in range(n) for j in range(n) if i != j})

        def agrees_with_oracles(tensorv):
            got = wedge_membership(monomial(tensorv))
            if got != dense_wedge_membership(monomial(tensorv)):
                return False
            x = oracle.solve(tensorv)
            if x is None:
                return got is None
            return got == {((i, 1), (j, 1)): v for (i, j), v in zip(keys, x) if v}

        for _ in range(12):
            coords = {((i, 1), (j, 1)): rng.randint(-3, 3) for (i, j) in keys}
            tensorv = expand_wedge_coordinates(n, coords)
            got = wedge_membership(monomial(tensorv))
            assert got is not None
            assert expand_wedge_coordinates(n, got) == tensorv
            assert agrees_with_oracles(tensorv)
            a, b = rng.sample(range(n), 2)
            shift = rng.choice([-2, -1, 1, 2])
            # antisymmetric, but columns a and b no longer sum to zero
            skew = list(tensorv)
            skew[a * n + b] += shift
            skew[b * n + a] -= shift
            # a random antisymmetric tensor, whose columns almost never sum to zero
            free = [0] * (n * n)
            for i, j in rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], n):
                v = rng.randint(-3, 3)
                free[i * n + j], free[j * n + i] = v, -v
            tensors = [skew]
            if n >= 4:
                # zero row sums kept, antisymmetry broken: a symmetric +-shift
                # around the 4-cycle a b c d
                a, b, c, d = rng.sample(range(n), 4)
                sym = list(tensorv)
                for r, s, v in ((a, b, 1), (b, c, -1), (c, d, 1), (d, a, -1)):
                    sym[r * n + s] += shift * v
                    sym[s * n + r] += shift * v
                tensors.append(sym)
            for tensor in tensors:
                assert wedge_membership(monomial(tensor)) is None
                assert agrees_with_oracles(tensor)
            assert agrees_with_oracles(free)
    # perturb antisymmetry -> must be rejected
    bad = FactorSetMonomial(5, {(1, 2): 1, (2, 1): 1})
    assert wedge_membership(bad) is None


def test_membership_implies_antisymmetric_zero_rowsums():
    cp = normalized_factor_set(5)
    for triple in ((1, 2, 3), (2, 5, 4), (1, 4, 2)):
        t = exponent_tensor(cp[triple])
        n = 5
        for i in range(n):
            assert t[i * n + i] == 0
            assert sum(t[i * n + j] for j in range(n)) == 0
            for j in range(n):
                assert t[i * n + j] == -t[j * n + i]


def test_udn_entry_failures_names_each_bad_triple():
    cp = normalized_factor_set(5)
    assert udn_entry_failures(cp) == ([], [])
    entries = dict(cp.entries)
    entries[(1, 2, 3)] = entries[(1, 2, 3)] * FactorSetMonomial(5, {(1, 2): 1})
    escapes, breaks = udn_entry_failures(FactorSet(5, entries))
    assert escapes == [(1, 2, 3)]
    # the reversal product fails from both ends
    assert breaks == [(1, 2, 3), (3, 2, 1)]
