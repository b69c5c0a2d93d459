import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerlab import groups, lattices, snf
from brauerlab.acceptance import formanek_checks
from brauerlab.checks import failing
from brauerlab.groups import (
    CosetSpace,
    GroupError,
    alternating_group,
    builtin_family,
    cyclic_group,
    direct_product,
    min_generators_rel,
    subgroups_up_to_conjugacy,
    symmetric_group,
)
from brauerlab.lattices import (
    DirectSumLattice,
    LatticeError,
    LatticeMap,
    LatticeSequence,
    NaturalLattice,
    PairsLattice,
    PermLattice,
    TensorLattice,
    augmentation,
    faithful_predicate_freepres,
    faithful_predicate_seq2,
    formanek_sequence,
    freepres_sequence,
    is_exact,
    is_faithful,
    kernel_lattice,
    pair_basis_iso,
    seq2_sequence,
)
from lattice_oracle import (
    CharacterLattice,
    bfs_actions,
    columns_of,
    dense,
    dense_action,
    dense_solve,
    kernel_basis,
    mat_mult,
    solved_generator_matrices,
    sum_kernel,
)


def mat_vec(a, v):
    """Oracle: the integer matrix-vector product a v."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def character(lat, g):
    """The trace of g's action."""
    return sum(row[i] for i, row in enumerate(dense_action(lat, g)))


def omega_of(cosets):
    """omega of Z[G/H], on the basis e_i - e_0."""
    return augmentation(PermLattice(cosets))


@pytest.fixture
def snf_calls(monkeypatch):
    """Row counts of the snf.smith_normal_form calls a test makes."""
    calls = []
    real_snf = snf.smith_normal_form

    def counting_snf(a, **kwargs):
        calls.append(len(a))
        return real_snf(a, **kwargs)

    monkeypatch.setattr(snf, "smith_normal_form", counting_snf)
    return calls


def family_seq2():
    """(G, H, seq2_sequence(G, H)) over builtin_family(), index >= 2."""
    for G in builtin_family():
        for H in subgroups_up_to_conjugacy(G):
            if G.order // H.order >= 2:
                yield G, H, seq2_sequence(G, H)


def family_freepres():
    """freepres_sequence(G, H, ...) with r = 1, 2 over builtin_family()."""
    for G in builtin_family():
        for H in subgroups_up_to_conjugacy(G):
            r0, gens = min_generators_rel(G, H, max_r=3)
            for r in range(max(r0, 1), 3):
                pad = gens[0] if gens else 1
                yield freepres_sequence(G, H, list(gens) + [pad] * (r - r0))


def solves_against(basis, vectors, solve):
    """Each vector is an integer combination of the basis, by `solve`."""
    for v in vectors:
        x = solve(v)
        assert x is not None
        combo = [0] * len(v)
        for xj, b in zip(x, basis):
            if xj:
                combo = [c + xj * bi for c, bi in zip(combo, b)]
        assert combo == v


def stabilizer_cosets(n):
    """Cosets of the stabilizer of the last point in S_n."""
    G = symmetric_group(n)
    gens = ["(1 2)"] if n == 3 else ["(1 2)", "(" + " ".join(
        str(i) for i in range(1, n)) + ")"]
    H = G.subgroup(gens)
    assert H.order * n == G.order
    return G, H, CosetSpace(G, H)


def check_action_invariants(lat, pairs=200, seed=0, check_det=True):
    G = lat.group
    for a in G.generators:
        for b in G.generators:
            lhs = mat_mult(dense_action(lat, a), dense_action(lat, b))
            assert lhs == dense_action(lat, G.mult(a, b))
        if check_det:
            assert snf.det(dense_action(lat, a)) in (1, -1)
    rng = random.Random(seed)
    for _ in range(pairs):
        a = rng.randrange(G.order)
        b = rng.randrange(G.order)
        lhs = mat_mult(dense_action(lat, a), dense_action(lat, b))
        assert lhs == dense_action(lat, G.mult(a, b))


def test_perm_lattice_ranks():
    G3, H3, X3 = stabilizer_cosets(3)
    assert PermLattice(X3).rank == 3
    G5, H5, X5 = stabilizer_cosets(5)
    U5 = PermLattice(X5)
    assert U5.rank == 5
    full = CosetSpace(G5, G5.subgroup(G5.generators))
    assert PermLattice(full).rank == 1
    check_action_invariants(U5, pairs=1000)


def test_perm_lattice_matches_natural_character():
    G, H, X = stabilizer_cosets(5)
    U = PermLattice(X)
    nat = NaturalLattice(G)
    for c in G.conjugacy_classes():
        g = c[0]
        assert character(U, g) == character(nat, g)


def test_augmentation_kernel():
    G, H, X = stabilizer_cosets(5)
    omega = omega_of(X)
    emb = omega.inclusion()
    assert omega.rank == 4
    assert emb.check_equivariance()
    # the coordinate sum kills every coset difference
    assert all(sum(column) == 0 for column in zip(*emb.matrix))
    check_action_invariants(omega)

    full = CosetSpace(G, G.subgroup(G.generators))
    zero_omega = omega_of(full)
    assert zero_omega.rank == 0


def test_tensor_ranks():
    G, H, X = stabilizer_cosets(5)
    U = PermLattice(X)
    A = omega_of(X)
    assert TensorLattice(U, U).rank == 25
    check_action_invariants(TensorLattice(A, A), pairs=100)


def test_freepres_ranks_and_exactness():
    C3 = cyclic_group(3)
    seq = freepres_sequence(C3, C3.trivial_subgroup(), [C3.generators[0]])
    assert seq.inner.source.rank == 1
    rep = is_exact(seq)
    assert rep.exact, rep.checks

    G, H, X = stabilizer_cosets(3)
    seq = freepres_sequence(G, H, ["(1 2 3)"])
    assert seq.inner.source.rank == 4
    assert is_exact(seq).exact
    assert seq.inner.check_equivariance()
    assert seq.outer.check_equivariance()

    V = direct_product(cyclic_group(2), cyclic_group(2))
    seq = freepres_sequence(V, V.trivial_subgroup(), list(V.generators))
    assert seq.inner.source.rank == 5
    assert is_exact(seq).exact


def test_freepres_rejects_nongenerating():
    G = symmetric_group(3)
    with pytest.raises(LatticeError, match="does not generate"):
        freepres_sequence(G, G.trivial_subgroup(), ["(1 2 3)"])


def test_freepres_faithfulness_matches_predicate():
    # r = 1 with trivial H gives the norm sublattice: not faithful.
    C3 = cyclic_group(3)
    seq = freepres_sequence(C3, C3.trivial_subgroup(), [C3.generators[0]])
    assert is_faithful(seq.inner.source) is False
    assert faithful_predicate_freepres(C3, C3.trivial_subgroup(), 1) is False

    g = C3.generators[0]
    seq2c = freepres_sequence(C3, C3.trivial_subgroup(), [g, g])
    assert is_faithful(seq2c.inner.source) is True
    assert faithful_predicate_freepres(C3, C3.trivial_subgroup(), 2) is True

    G, H, X = stabilizer_cosets(3)
    seq = freepres_sequence(G, H, ["(1 2 3)"])
    assert is_faithful(seq.inner.source) is True
    assert faithful_predicate_freepres(G, H, 1) is True


def test_seq2_small():
    G, H, X = stabilizer_cosets(3)
    seq = seq2_sequence(G, H)
    assert (seq.inner.source.rank, seq.inner.target.rank,
            seq.outer.target.rank) == (4, 6, 2)
    rep = is_exact(seq)
    assert rep.exact, rep.checks
    assert seq.inner.check_equivariance()
    assert seq.outer.check_equivariance()

    C2 = cyclic_group(2)
    seq = seq2_sequence(C2, C2.trivial_subgroup())
    assert (seq.inner.source.rank, seq.inner.target.rank,
            seq.outer.target.rank) == (1, 2, 1)
    assert is_exact(seq).exact


def test_seq2_pair_basis_iso():
    G, H, X = stabilizer_cosets(3)
    seq = seq2_sequence(G, H)
    iso = pair_basis_iso(seq)
    assert iso.source.rank == iso.target.rank == 6
    assert iso.is_injective_saturated()
    assert snf.det(iso.matrix) in (1, -1)
    assert iso.check_equivariance()
    # (coset_0 - coset_1) (x) coset_1 -> ordered pair (0, 1):
    # source coordinates put -1 on basis slot (i=1, c=1).
    n = 3
    col = (1 - 1) * n + 1
    image = [-iso.matrix[r][col] for r in range(iso.target.rank)]
    pairs_lat = iso.target
    expected = [0] * pairs_lat.rank
    expected[pairs_lat.pair_index[(0, 1)]] = 1
    assert image == expected


def test_seq2_faithfulness_predicate():
    G4 = symmetric_group(4)
    S3 = G4.subgroup(["(1 2)", "(1 2 3)"])
    assert faithful_predicate_seq2(G4, S3) is True
    X = CosetSpace(G4, S3)
    omega = omega_of(X)
    assert is_faithful(TensorLattice(omega, omega)) is True

    C2 = cyclic_group(2)
    assert faithful_predicate_seq2(C2, C2.trivial_subgroup()) is False
    C4 = cyclic_group(4)
    sq = C4.mult(C4.generators[0], C4.generators[0])
    H = C4.subgroup([sq])
    assert faithful_predicate_seq2(C4, H) is False
    Xc = CosetSpace(C4, H)
    om = omega_of(Xc)
    assert is_faithful(TensorLattice(om, om)) is False


def test_seq2_s4_trivial_subgroup_is_exact(snf_calls):
    G = symmetric_group(4)
    seq = seq2_sequence(G, G.trivial_subgroup())
    assert (seq.inner.source.rank, seq.inner.target.rank,
            seq.outer.target.rank) == (529, 552, 23)
    rep = is_exact(seq)
    assert rep.exact, rep.checks
    # Both maps carry pivot certificates: no Smith form at all.
    assert snf_calls == []


# Rows 0-2 are unit lower triangular in columns 0-2; row 3 is 2 e_0.
PIVOT_MATRIX = [[1, 0, 0], [4, 1, 0], [5, -1, -1], [2, 0, 0]]
GOOD_PIVOTS = [(0, 0), (1, 1), (2, 2)]
BAD_PIVOTS = {
    "pivot of 2": [(3, 0), (1, 1), (2, 2)],
    "nonzero at a later pivot column": [(1, 1), (0, 0), (2, 2)],
    "repeated pivot row": [(0, 0), (2, 2), (2, 1)],
    "missing column": [(0, 0), (1, 1)],
    "negative row index": [(-4, 0), (1, 1), (2, 2)],
    "row index past the end": [(4, 0), (1, 1), (2, 2)],
}


def _pivot_map(row_pivots=None, *, col_pivots=None):
    G = cyclic_group(2)
    z = CharacterLattice(G)
    if col_pivots is not None:
        return LatticeMap(DirectSumLattice([z] * 4), DirectSumLattice([z] * 3),
                          columns_of(list(zip(*PIVOT_MATRIX))),
                          col_pivots=col_pivots)
    return LatticeMap(DirectSumLattice([z] * 3), DirectSumLattice([z] * 4),
                      columns_of(PIVOT_MATRIX), row_pivots=row_pivots)


@pytest.mark.parametrize("fault", sorted(BAD_PIVOTS))
def test_bad_row_pivots_fall_back_to_int_solver(fault, snf_calls):
    """A faulty row certificate leaves the map uncertified: it refuses."""
    x = [3, -2, 7]
    vec = dict(enumerate(mat_vec(PIVOT_MATRIX, x)))
    good = _pivot_map(GOOD_PIVOTS)
    bad = _pivot_map(BAD_PIVOTS[fault])
    assert good.is_injective_saturated()
    assert good.solve(vec) == dict(enumerate(x))
    # Zero on the good pivot rows, so substitution gives x = 0 and only
    # the check on row 3 can refuse it.
    outside = {3: 1}
    assert good.solve(outside) is None
    assert not bad.is_injective_saturated()
    for v in (vec, outside):
        with pytest.raises(LatticeError, match="no row certificate"):
            bad.solve(v)
    assert snf_calls == []


@pytest.mark.parametrize("fault", sorted(BAD_PIVOTS))
def test_bad_col_pivots_fall_back_to_smith_form(fault, snf_calls):
    """A faulty column certificate leaves the map uncertified: it refuses."""
    # The transpose turns each row certificate into a column certificate
    # with the same fault.
    def transposed(pivots):
        return [(c, r) for r, c in pivots]

    good = _pivot_map(col_pivots=transposed(GOOD_PIVOTS))
    bad = _pivot_map(col_pivots=transposed(BAD_PIVOTS[fault]))
    assert good.is_surjective()
    [k] = good.kernel_columns
    assert mat_vec(good.matrix, dense(k, 4)) == [0, 0, 0]
    assert dict(k)[3] == 1
    assert not bad.is_surjective()
    with pytest.raises(LatticeError, match="no column certificate"):
        bad.kernel_columns
    assert snf_calls == []


def test_substitution_agrees_with_int_solver_on_seq2():
    for G, H, seq in family_seq2():
        inner = seq.inner
        if inner.target.rank > 500:
            continue  # S4 over 1: its IntSolver alone takes about 4 s
        solver = snf.IntSolver(inner.matrix)
        kernel = [dense(k, inner.target.rank) for k in seq.outer.kernel_columns]
        assert len(kernel) == inner.source.rank
        for i, k in enumerate(kernel):
            x = dense_solve(inner, k)
            assert x is not None
            assert x == solver.solve(k)
            assert mat_vec(inner.matrix, x) == k
            # Every column of the outer map is nonzero, so no unit vector
            # lies in its kernel.
            outside = list(k)
            outside[i % len(k)] += 1
            assert any(mat_vec(seq.outer.matrix, outside))
            assert dense_solve(inner, outside) is None
            assert solver.solve(outside) is None


def certified_outer_maps():
    """The outer maps of seq2 and freepres over builtin_family(), and of
    Formanek's sequence for n = 3..5."""
    for _, _, seq in family_seq2():
        yield seq.outer
    for seq in family_freepres():
        yield seq.outer
    for n in (3, 4, 5):
        yield formanek_sequence(n)[0].outer


def test_certificate_kernel_spans_the_smith_kernel():
    for outer in certified_outer_maps():
        G = outer.source.group
        cert = [dense(k, outer.source.rank) for k in outer.kernel_columns]
        # A matrix with no rows gives the oracle no column count.
        smith = (kernel_basis(outer.matrix) if outer.target.rank
                 else snf.identity(outer.source.rank))
        assert len(cert) == len(smith) == outer.source.rank - outer.target.rank
        zero = [0] * outer.target.rank
        assert all(mat_vec(outer.matrix, k) == zero for k in cert)
        # Each certificate vector is 1 at its own non-pivot coordinate and
        # 0 at the others, which is a row certificate for the basis.
        pivot_cols = {c for _, c in outer.col_pivots}
        free = [j for j in range(outer.source.rank) if j not in pivot_cols]
        assert all(k[j] == 1 for k, j in zip(cert, free))
        trivials = DirectSumLattice([CharacterLattice(G)] * len(cert))
        basis_map = LatticeMap(trivials, outer.source, outer.kernel_columns,
                               row_pivots=[(j, i) for i, j in enumerate(free)])
        assert basis_map._row_certificate is not None
        solves_against(cert, smith, lambda v: dense_solve(basis_map, v))
        solves_against(smith, cert,
                       snf.IntSolver([list(row) for row in zip(*smith)]).solve)


def test_freepres_and_formanek_are_certified_without_smith_forms(snf_calls):
    S4, A4 = symmetric_group(4), alternating_group(4)
    seqs = [
        freepres_sequence(S4, S4.trivial_subgroup(), ["(1 2)", "(1 2 3 4)"]),
        freepres_sequence(A4, A4.trivial_subgroup(), ["(1 2 3)", "(2 3 4)"]),
        formanek_sequence(5)[0],
    ]
    for seq in seqs:
        rep = is_exact(seq)
        assert rep.exact, rep.checks
    # Building the kernels and certifying them takes no Smith form.
    assert snf_calls == []


def test_kernel_inside_image_solves_every_vector_onto_zero(monkeypatch):
    # H = G: the outer map goes onto the zero lattice, so its kernel is the
    # whole middle term and every unit vector must be solved.
    G = symmetric_group(3)
    seq = freepres_sequence(G, G.subgroup(G.generators), ["(1 2)"])
    assert seq.outer.target.rank == 0
    solved = []
    real_solve = LatticeMap.solve

    def counting_solve(self, vec):
        solved.append(vec)
        return real_solve(self, vec)

    monkeypatch.setattr(LatticeMap, "solve", counting_solve)
    rep = is_exact(seq)
    assert rep.exact and rep.to_json()["checks"]["kernel-inside-image"] is True
    assert len(solved) == seq.outer.source.rank == 6


def test_formanek_sequence():
    for n, krank in ((3, 10), (5, 26)):
        seq, iso = formanek_sequence(n)
        assert seq.inner.source.rank == krank == n * n + 1
        rep = is_exact(seq)
        assert rep.exact, rep.checks
        assert iso.source.rank == iso.target.rank == krank
        assert snf.det(iso.matrix) in (1, -1)
        assert iso.check_equivariance()
        assert seq.outer.check_equivariance()


def test_formanek_row_certificate_agrees_with_the_determinant():
    # the splitting is certified unimodular by its row certificate alone;
    # the Bareiss determinant of its dense view is the oracle
    for n in range(2, 7):
        _, iso = formanek_sequence(n)
        assert iso.source.rank == iso.target.rank == n * n + 1
        assert iso.is_injective_saturated()
        assert snf.det(iso.matrix) in (1, -1)


def test_is_exact_negative_controls():
    G, H, X = stabilizer_cosets(3)
    seq = seq2_sequence(G, H)
    broken = LatticeMap(seq.outer.source, seq.outer.target, [[]] * 6)
    rep = is_exact(LatticeSequence(seq.inner, broken))
    assert not rep.exact
    assert rep.to_json()["checks"]["outer-surjective"] is False
    assert rep.to_json()["checks"]["composition-zero"] is True

    # The right matrix without its certificate is not certified either; the
    # kernel-inside-image cross-check then does not run.
    passing = dict.fromkeys(["composition-zero", "inner-injective-saturated",
                             "outer-surjective", "rank-additive"], True)
    bare = LatticeMap(seq.outer.source, seq.outer.target, seq.outer.columns)
    rep = is_exact(LatticeSequence(seq.inner, bare))
    assert rep.to_json() == {"exact": False, "checks": {
        **passing, "outer-surjective": False, "kernel-inside-image": None}}
    bare = LatticeMap(seq.inner.source, seq.inner.target, seq.inner.columns)
    rep = is_exact(LatticeSequence(bare, seq.outer))
    assert rep.to_json() == {"exact": False, "checks": {
        **passing, "inner-injective-saturated": False, "kernel-inside-image": None}}

    summing = LatticeMap(seq.outer.source, seq.outer.target, [[(0, 1)]] * 6)
    rep = is_exact(LatticeSequence(seq.inner, summing))
    assert rep.to_json()["checks"]["composition-zero"] is False

    # Drop a column from inner: ranks stop adding up.
    thin = seq.inner.columns[:-1]
    small_src = CharacterLattice(G)
    with pytest.raises(LatticeError):
        LatticeMap(small_src, seq.inner.target, thin)


def test_map_columns_are_summed_and_checked():
    z = CharacterLattice(cyclic_group(2))
    # (0, 1) twice is the entry 2, which is no unit pivot
    doubled = LatticeMap(z, z, [[(0, 1), (0, 1)]], row_pivots=[(0, 0)])
    assert doubled.columns == [[(0, 2)]] and doubled.matrix == [[2]]
    assert not doubled.is_injective_saturated()
    # pairs that cancel leave no entry
    assert LatticeMap(z, z, [[(0, 1), (0, -1)]]).columns == [[]]
    for row in (1, -1):
        with pytest.raises(LatticeError, match="outside a target of rank 1"):
            LatticeMap(z, z, [[(row, 1)]])
    with pytest.raises(LatticeError, match="1 columns for a source of rank 2"):
        LatticeMap(DirectSumLattice([z] * 2), z, [[(0, 1)]])


@pytest.mark.parametrize("element", ["(1 2)", 7, -1])
def test_elements_outside_the_group_are_refused(element):
    """A transposition, an index past the end and a negative index are not
    elements of C3, for a subgroup and for a relation module alike."""
    C3 = cyclic_group(3)
    with pytest.raises(GroupError):
        C3.subgroup([element])
    with pytest.raises(GroupError):
        freepres_sequence(C3, C3.trivial_subgroup(), [element])


def _faithful_by_every_element(lat):
    return not any(lat.acts_as_identity(g) for g in range(1, lat.group.order))


def test_is_faithful_by_class_representatives_matches_every_element():
    kernels = [seq.inner.source for seq in family_freepres()]
    kernels += [seq.inner.source for _, _, seq in family_seq2()]
    C4 = cyclic_group(4)
    H = C4.subgroup([C4.mult(C4.generators[0], C4.generators[0])])
    om = omega_of(CosetSpace(C4, H))
    kernels.append(TensorLattice(om, om))
    answers = [is_faithful(lat) for lat in kernels]
    assert answers == [_faithful_by_every_element(lat) for lat in kernels]
    assert True in answers and False in answers
    assert answers[-1] is False


def test_is_faithful_basics():
    G, H, X = stabilizer_cosets(5)
    A = omega_of(X)
    assert is_faithful(TensorLattice(A, A)) is True
    assert is_faithful(CharacterLattice(G)) is False

    # The sign lattice of S3, the determinant of its rank-2 action, has
    # kernel A3.
    G3, H3, X3 = stabilizer_cosets(3)
    A2 = omega_of(X3)
    sign = CharacterLattice(G3, lambda g: snf.det(dense_action(A2, g)))
    assert is_faithful(sign) is False


def test_character_values():
    G, H, X = stabilizer_cosets(3)
    U = PermLattice(X)
    t = G.index[(1, 0, 2)]
    assert character(U, t) == 1
    assert character(U, 0) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_action_multiplicative_property(i, j):
    G = symmetric_group(4)
    H = G.subgroup(["(1 2)", "(1 2 3)"])
    omega = omega_of(CosetSpace(G, H))
    lhs = mat_mult(dense_action(omega, i), dense_action(omega, j))
    assert lhs == dense_action(omega, G.mult(i, j))


def omega_oracles():
    """(omega in closed form, the oracle's sum kernel inclusion) for every
    coset space of builtin_family() and for Formanek's A at n = 3..5."""
    for G in builtin_family():
        for H in subgroups_up_to_conjugacy(G):
            omega = omega_of(CosetSpace(G, H))
            yield omega, sum_kernel(omega.ambient)[1]
    for n in (3, 4, 5):
        A = formanek_sequence(n)[0].outer.target
        yield A, sum_kernel(A.ambient)[1]


def kernel_inclusions():
    """(lattice, inclusion of a kernel lattice that it acts like): every
    kernel lattice of family_freepres() and of Formanek's sequence for
    n = 3..5 with its own inclusion, the oracle's sum kernels with theirs,
    and every closed-form omega with its oracle's."""
    for seq in family_freepres():
        yield seq.inner.source, seq.inner
    for n in (3, 4, 5):
        inner = formanek_sequence(n)[0].inner
        yield inner.source, inner
    for omega, incl in omega_oracles():
        yield incl.source, incl
        yield omega, incl


def test_kernel_actions_match_the_dense_oracle():
    """Generator actions agree with solving each dense moved basis vector
    through the inclusion, and every element's action and the test for
    acting trivially agree with the dense product along the BFS tree."""
    for lat, incl in kernel_inclusions():
        G = lat.group
        assert ([dense_action(lat, g) for g in G.generators]
                == solved_generator_matrices(incl))
        bfs = bfs_actions(lat)
        assert [dense_action(lat, g) for g in range(G.order)] == bfs
        one = snf.identity(lat.rank)
        assert ([lat.acts_as_identity(g) for g in range(G.order)]
                == [m == one for m in bfs])


def test_closed_form_omega_matches_the_sum_kernel_oracle():
    """omega acts as the oracle's kernel of the coordinate sum does, element
    by element, and the inclusion of augmentation is the oracle's
    inclusion, row certified and equivariant."""
    for omega, incl in omega_oracles():
        kernel = incl.source
        for g in range(omega.group.order):
            assert dense_action(omega, g) == dense_action(kernel, g)
            assert omega.acts_as_identity(g) == kernel.acts_as_identity(g)
    for G in builtin_family():
        for H in subgroups_up_to_conjugacy(G):
            emb = omega_of(CosetSpace(G, H)).inclusion()
            assert emb.columns == sum_kernel(emb.target)[1].columns
            assert emb.is_injective_saturated() and emb.check_equivariance()


def permutation_views():
    """Lattices with a permutation view: on cosets, coset pairs and points,
    and direct sums and tensor products of them."""
    G = symmetric_group(4)
    cos = CosetSpace(G, G.subgroup(["(1 2)"]))
    perm, pairs, points = PermLattice(cos), PairsLattice(cos), NaturalLattice(G)
    return [perm, pairs, points, DirectSumLattice([perm, points, perm]),
            TensorLattice(points, perm),
            DirectSumLattice([points, TensorLattice(points, points)])]


VIEWS = permutation_views()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_moving_by_relabelling_matches_the_action_columns(data):
    lat = data.draw(st.sampled_from(VIEWS))
    g = data.draw(st.integers(0, lat.group.order - 1))
    vec = data.draw(st.dictionaries(st.integers(0, lat.rank - 1),
                                    st.integers(-9, 9).filter(bool), max_size=8))
    assert (lattices._move(lat.images(g), vec)
            == lattices._apply(lat.action_columns(g), vec.items()))


def test_a_kernel_lattice_needs_a_permutation_view():
    """omega and sums of character lattices have no permutation view, and a
    kernel lattice refuses them as its ambient."""
    kernel_map = _pivot_map(col_pivots=GOOD_PIVOTS)
    assert kernel_map.is_surjective()
    with pytest.raises(LatticeError, match="no permutation view"):
        kernel_lattice(kernel_map, "character-kernel")
    G, H, X = stabilizer_cosets(3)
    omega = omega_of(X)
    with pytest.raises(LatticeError, match="no permutation view"):
        TensorLattice(omega, PermLattice(X)).images(0)


@pytest.mark.parametrize("columns, pivots", [
    ([[(0, 1)]] * 3, None),
    ([[(0, 1)]] * 3, [(0, 0), (0, 1)]),
    ([[(0, 1)]] * 3, [(1, 0)]),
    ([[(0, 1)]] * 3, [(0, 5)]),
    ([[(0, 2)], [(0, 1)], [(0, 1)]], [(0, 0)]),
], ids=["none", "two-pivots", "row-outside", "column-outside", "pivot-of-2"])
def test_a_kernel_lattice_needs_a_column_certificate(columns, pivots):
    """kernel_lattice reads the kernel basis before anything else, so a map
    with no column certificate, or a faulty one, is refused by name."""
    C3 = cyclic_group(3)
    regular = PermLattice(CosetSpace(C3, C3.trivial_subgroup()))
    outer = LatticeMap(regular, CharacterLattice(C3), columns,
                       label="coordinate-sum", col_pivots=pivots)
    assert not outer.is_surjective()
    with pytest.raises(LatticeError,
                       match="'coordinate-sum' has no column certificate"):
        kernel_lattice(outer, "sum-kernel")


def test_every_family_map_is_equivariant():
    """Both maps of every freepres and seq2 sequence of builtin_family() and
    every pair-basis identification commute with the generators; is_exact
    does not check it."""
    maps = []
    for seq in family_freepres():
        maps += [seq.inner, seq.outer]
    for _, _, seq in family_seq2():
        maps += [seq.inner, seq.outer, pair_basis_iso(seq)]
    assert len(maps) == 391
    assert [m.label for m in maps if not m.check_equivariance()] == []


def test_kernel_of_a_non_equivariant_map_is_not_action_stable():
    """A column-certified map that does not commute with the group: C2
    swaps the basis of Z[C2], and projecting onto the first coordinate
    has kernel Z e_1, which the swap moves out of the kernel."""
    C2 = cyclic_group(2)
    regular = PermLattice(CosetSpace(C2, C2.trivial_subgroup()))
    first = LatticeMap(regular, CharacterLattice(C2), [[(0, 1)], []],
                       col_pivots=[(0, 0)])
    assert first.is_surjective() and not first.check_equivariance()
    assert first.kernel_columns == (((1, 1),),)
    with pytest.raises(LatticeError, match="kernel is not action-stable"):
        kernel_lattice(first, "projection-kernel")
    # The coordinate sum is equivariant, and its kernel is acted on.
    total = LatticeMap(regular, CharacterLattice(C2), [[(0, 1)], [(0, 1)]],
                       col_pivots=[(0, 0)])
    assert total.check_equivariance()
    assert dense_action(kernel_lattice(total, "sum-kernel"),
                        C2.generators[0]) == [[-1]]


def test_kernel_basis_is_worked_out_once(monkeypatch):
    G = symmetric_group(3)
    seq = freepres_sequence(G, G.trivial_subgroup(), ["(1 2)", "(1 2 3)"])
    outer = seq.outer
    substitutions = []
    real = lattices._substitute

    def counting(*args, descending):
        substitutions.append(descending)
        return real(*args, descending=descending)

    monkeypatch.setattr(lattices, "_substitute", counting)
    kernel = outer.kernel_columns
    assert is_exact(seq).exact and is_faithful(seq.inner.source)
    # the kernel lattice worked the basis out already; is_exact only solves
    assert substitutions.count(True) == 0
    assert substitutions.count(False) == len(kernel) == seq.inner.source.rank
    # handed out as it is, so it is immutable
    assert outer.kernel_columns is kernel
    assert all(isinstance(k, tuple) for k in (kernel, *kernel))


def test_work_budget_of_lattice_certificates(monkeypatch):
    """No dense view of a map on the lattice certificate path, products of
    group elements from the table, and pinned counts of sparse
    substitutions and sparse products."""
    compositions = []
    real_mult = groups._mult

    def counting_mult(a, b):
        compositions.append(1)
        return real_mult(a, b)

    monkeypatch.setattr(groups, "_mult", counting_mult)
    S4 = symmetric_group(4)
    assert len(compositions) == S4.order * len(S4.generators) == 48
    subgroups_up_to_conjugacy(S4)
    # the table is built from the products the construction made
    assert len(compositions) == 48

    reads = []
    real_matrix = LatticeMap.matrix.func

    def counting_matrix(self):
        reads.append(self.label)
        return real_matrix(self)

    monkeypatch.setattr(LatticeMap, "matrix", property(counting_matrix))
    work = {"_substitute": 0, "_apply": 0}

    def counting(name):
        real = getattr(lattices, name)

        def counted(*args, **kwargs):
            work[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(lattices, name, counted)

    def spent():
        got = (work["_substitute"], work["_apply"])
        work.update(dict.fromkeys(work, 0))
        return got

    counting("_substitute")
    counting("_apply")
    trivial = S4.trivial_subgroup()
    # omega is built in closed form: no substitution and no product
    omega_of(CosetSpace(S4, trivial)).inclusion()
    assert spent() == (0, 0)

    def formanek():
        seq, iso = formanek_sequence(5)
        return seq, [iso]

    # (substitute, apply) calls to build the sequence, then to certify it
    # with is_exact and is_faithful: a kernel basis and one solve per kernel
    # vector (Formanek's splitting solves 26 more), one stability product
    # per kernel vector and generator, one composition product per inner
    # column, and no product to move a vector.
    for build, built, certified in (
            (lambda: (seq2_sequence(S4, trivial), []), (0, 0), (1058, 529)),
            (lambda: (freepres_sequence(S4, trivial, ["(1 2)", "(1 2 3 4)"]), []),
             (25, 50), (25, 25)),
            (formanek, (52, 52), (26, 26))):
        spent()
        seq, extra = build()
        assert spent() == built
        assert is_exact(seq).exact
        assert is_faithful(seq.inner.source)
        assert spent() == certified
        assert all(m.check_equivariance() for m in [seq.inner, seq.outer, *extra])
    # criterion 4's records, unimodularity included, read no dense view
    assert not failing(formanek_checks(5))
    assert reads == []


def test_formanek_sequence_builds_no_multiplication_table():
    seq, iso = formanek_sequence(5)
    assert is_exact(seq).exact
    assert iso.check_equivariance() and seq.outer.check_equivariance()
    assert "table" not in vars(seq.outer.source.group)
