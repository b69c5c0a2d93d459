from brauerlab.bounds import (
    d_bounds,
    tau_bound_crossed,
)
from brauerlab.groups import coset_space, cyclic_group, symmetric_group
from brauerlab.lattices import (
    PermLattice,
    TensorLattice,
    augmentation,
    formanek_sequence,
    is_faithful,
)
from lattice_oracle import CharacterLattice


def test_d4_pinned():
    rep = d_bounds(4)
    assert (rep.lower, rep.upper) == (5, 5)
    assert "Rost" in rep.upper_citation


def test_d5():
    rep = d_bounds(5)
    assert rep.upper == 6
    assert rep.lower == 2
    assert "wedge" in rep.upper_citation


def test_d15_with_roots():
    rep = d_bounds(15, ["roots-of-unity"])
    assert rep.upper == 8
    assert "coprime" in rep.upper_citation
    # d(3)+d(5) = 2+6 under the flag
    assert any("d(3) + d(5)" in f or "d(5) + d(3)" in f
               for f, _ in rep.provenance)


def test_base_cases_need_flag():
    with_flag = d_bounds(6, ["primitive-root-of-unity"])
    assert with_flag.upper == 2
    without = d_bounds(6)
    assert without.upper > 2
    assert any("root of unity" in n for n in without.notes)


def test_prime_power_lower():
    assert d_bounds(8).lower == 6
    assert d_bounds(9).lower == 4
    assert d_bounds(27).lower == 6
    assert d_bounds(12).lower == 2


def test_monotone_in_assumptions():
    for n in range(2, 40):
        plain = d_bounds(n)
        flagged = d_bounds(n, ["primitive-root-of-unity"])
        assert flagged.upper <= plain.upper
        assert plain.lower <= plain.upper
        assert flagged.lower <= flagged.upper


def test_odd_identity_wedge_vs_rowen():
    for n in range(5, 100, 2):
        wedge = (n - 1) * (n - 2) // 2
        rowen = (n - 1) * (n - 2) // 2 + n
        assert wedge == rowen - n
        rep = d_bounds(n)
        formulas = " | ".join(f for f, _ in rep.provenance)
        assert f"= {wedge}" in formulas
        assert f"= {rowen}" in formulas


def test_provenance_complete():
    rep = d_bounds(7)
    assert all(cite for _, cite in rep.provenance)
    data = rep.to_json()
    assert data["upper"] == 15
    assert data["quantity"] == "d(7)"


def test_tau_crossed_s5_s4():
    G = symmetric_group(5)
    H = G.subgroup(["(1 2)", "(1 2 3 4)"])
    rep = tau_bound_crossed(G, H)
    assert rep.upper == 116
    assert "1*120 - 5 + 1" in rep.provenance[0][0]


def test_tau_crossed_klein():
    from brauerlab.groups import direct_product
    V = direct_product(cyclic_group(2), cyclic_group(2))
    rep = tau_bound_crossed(V, V.trivial_subgroup())
    assert rep.upper == 5


def test_tau_crossed_cyclic_matches_formula():
    for n in range(2, 31):
        C = cyclic_group(n)
        rep = tau_bound_crossed(C, C.trivial_subgroup())
        assert rep.upper == n + 1


def test_tau_rank_bound():
    # tau(A) <= rank(M) needs a faithful kernel lattice M
    seq, _ = formanek_sequence(5)
    assert is_faithful(seq.inner.source)
    assert seq.inner.source.rank == 26

    G = symmetric_group(3)
    assert not is_faithful(CharacterLattice(G))

    # omega^(x2) for (S4, S3) is faithful of rank 9
    G4 = symmetric_group(4)
    H = G4.subgroup(["(1 2)", "(1 2 3)"])
    om = augmentation(PermLattice(coset_space(G4, H)))
    square = TensorLattice(om, om)
    assert is_faithful(square)
    assert square.rank == 9
