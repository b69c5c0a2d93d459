import pytest

from brauerlab.groups import (
    CosetSpace,
    GroupError,
    PermutationGroup,
    all_subgroups,
    alternating_group,
    builtin_family,
    cycles_string,
    cyclic_group,
    dihedral_group,
    direct_product,
    min_generators_rel,
    normal_core,
    parse_cycles,
    quaternion_group,
    symmetric_group,
)


def test_cycle_notation_roundtrip():
    assert parse_cycles("(1 2)(3 4 5)") == (1, 0, 3, 4, 2)
    assert parse_cycles("()", degree=3) == (0, 1, 2)
    assert cycles_string((1, 0, 3, 4, 2)) == "(1 2)(3 4 5)"
    assert cycles_string((0, 1, 2)) == "()"
    assert parse_cycles("(1,2,3)") == (1, 2, 0)
    with pytest.raises(GroupError):
        parse_cycles("(1 1)")
    with pytest.raises(GroupError):
        parse_cycles("(0 1)")
    with pytest.raises(GroupError, match=r"unclosed cycle '\(1 2'"):
        parse_cycles("(3 4)(1 2")


def test_orders_of_standard_groups():
    # Orders are classical facts, usable as immediate oracles.
    assert symmetric_group(5).order == 120
    assert alternating_group(4).order == 12
    assert alternating_group(5).order == 60
    assert alternating_group(6).order == 360
    assert dihedral_group(4).order == 8
    assert quaternion_group().order == 8
    assert cyclic_group(6).order == 6
    assert direct_product(cyclic_group(2), cyclic_group(2)).order == 4
    assert direct_product(cyclic_group(3), symmetric_group(3)).order == 18


def test_identity_and_inverses():
    G = symmetric_group(4)
    assert G.elements[0] == (0, 1, 2, 3)
    for i in range(G.order):
        assert G.mult(i, G.inverses[i]) == 0
        assert G.mult(G.inverses[i], i) == 0
        assert G.mult(0, i) == i


def test_table_matches_composition():
    G = dihedral_group(4)
    for i in range(G.order):
        for j in range(G.order):
            a, b = G.elements[i], G.elements[j]
            assert G.elements[G.mult(i, j)] == tuple(a[x] for x in b)


def test_words_reproduce_elements():
    # parents is the BFS tree the multiplication table is built along: each
    # element is an earlier one times a generator, so every walk reaches the
    # identity.
    G = symmetric_group(4)
    assert G.parents[0] is None
    for i in range(1, G.order):
        parent, pos = G.parents[i]
        assert parent < i
        assert G.mult(parent, G.generators[pos]) == i


def test_order_cap():
    # |S7| = 5 040 is enumerated, |S8| = 40 320 is past the cap
    assert symmetric_group(7).order == 5040
    with pytest.raises(GroupError, match="order cap exceeded"):
        symmetric_group(8)


def element_order(G, i):
    k, p = 1, i
    while p != G.identity:
        p = G.mult(p, i)
        k += 1
    return k


def test_quaternion_relations():
    Q = quaternion_group()
    gi, gj = Q.generators
    i2 = Q.mult(gi, gi)
    assert element_order(Q, gi) == 4
    assert i2 == Q.mult(gj, gj)
    assert element_order(Q, i2) == 2
    # j i j^-1 = i^-1
    assert Q.conjugate(gj, gi) == Q.inverses[gi]
    # Exactly one element of order 2, so Q8 rather than D4.
    assert sum(1 for x in range(Q.order) if element_order(Q, x) == 2) == 1


def test_coset_space_s5_mod_s4():
    G = symmetric_group(5)
    H = G.subgroup(["(1 2)", "(1 2 3 4)"])
    assert H.order == 24
    X = CosetSpace(G, H)
    assert X.size == 5
    assert X.coset_of[0] == 0
    # H is the stabilizer of point 4 (0-based), so the coset action is
    # isomorphic to the natural degree-5 action. Check the orbit map
    # c -> rep_c(4) is a bijection intertwining the actions.
    point = [G.elements[r][4] for r in X.reps]
    assert sorted(point) == [0, 1, 2, 3, 4]
    for g in range(0, G.order, 7):
        for c, gc in enumerate(X.images(g)):
            assert point[gc] == G.elements[g][point[c]]


def test_coset_reps_identity_first_and_lexmin():
    G = symmetric_group(4)
    H = G.subgroup(["(1 2)"])
    X = CosetSpace(G, H)
    assert X.size == 12
    assert X.reps[0] == 0
    for c, r in enumerate(X.reps):
        members = [G.mult(r, h) for h in H.members]
        assert min(G.elements[m] for m in members) == G.elements[r]


def test_normal_core():
    G = symmetric_group(4)
    v4 = G.subgroup(["(1 2)(3 4)", "(1 3)(2 4)"])
    d4 = G.subgroup(["(1 2 3 4)", "(1 3)"])
    assert normal_core(G, d4).members == v4.members
    s3 = G.subgroup(["(1 2)", "(1 2 3)"])
    assert normal_core(G, s3).is_trivial()
    assert normal_core(G, G.subgroup(G.generators)).order == 24


def test_min_generators_rel():
    G = symmetric_group(5)
    H = G.subgroup(["(1 2)", "(1 2 3 4)"])
    r, witness = min_generators_rel(G, H)
    assert r == 1
    assert G.closure(list(H.members) + list(witness)) == frozenset(range(120))

    r0, w0 = min_generators_rel(G, G.subgroup(G.generators))
    assert (r0, w0) == (0, ())

    E = builtin_family()[-1]  # C2 x C2 x C2 needs 3 generators from scratch
    assert E.order == 8
    r3, _ = min_generators_rel(E, E.trivial_subgroup())
    assert r3 == 3

    C6 = cyclic_group(6)
    r1, _ = min_generators_rel(C6, C6.trivial_subgroup())
    assert r1 == 1


def test_all_subgroups_s4():
    # S4 has 30 subgroups; the order profile is classical.
    G = symmetric_group(4)
    subs = all_subgroups(G)
    assert len(subs) == 30
    from collections import Counter
    profile = Counter(h.order for h in subs)
    assert profile == Counter({1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1})
    for h in subs:
        assert G.order % h.order == 0


def test_all_subgroups_q8():
    Q = quaternion_group()
    subs = all_subgroups(Q)
    assert len(subs) == 6
    assert all(Q.conjugate(g, h) in sub.members
               for sub in subs for g in Q.generators for h in sub.members)


def test_conjugacy_classes_s4():
    G = symmetric_group(4)
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_builtin_family_shape():
    fam = builtin_family()
    names = [g.name for g in fam]
    assert names == ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8",
                     "A4", "S4", "C2xC2xC2"]
    orders = [g.order for g in fam]
    assert orders == [2, 3, 4, 6, 4, 6, 8, 8, 12, 24, 8]


def test_subgroup_membership_errors():
    G = cyclic_group(3)
    with pytest.raises(GroupError):
        G.subgroup(["(1 2)"])
    g = PermutationGroup(["(1 2 3)"])
    assert g.order == 3
