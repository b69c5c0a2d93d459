import functools
import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from brauerlab.crossed import (
    GradedTensor,
    KummerField,
    SymbolAlgebra,
    instance_from_symbol,
)
from brauerlab import acceptance, quadforms
from brauerlab.cli import main
from brauerlab.exactfield import Cyc, PolyRing, is_square
from brauerlab.quadforms import (
    GENERATOR_LEGEND,
    QuadFormError,
    QuadraticForm,
    TraceData,
    WittMove,
    direct_sum,
    equiv_form,
    hyperbolic_sufficient,
    pfister,
    reduced_polynomials,
    replay_trace_form_equivalence,
    serre_form,
    trace_data,
    trace_form,
    witt_apply,
    witt_derive_equivalence,
)
from readers import poly_from_json, poly_terms, witt_move_from_json


def rational_ring():
    return PolyRing((), 4)


def free_trace_ring():
    return PolyRing(("t1", "t2", "t3", "n1", "n2", "n3"), 4)


def free_trace_data(ring):
    vals = [ring.element(ring.var(v)) for v in ("t1", "t2", "t3", "n1", "n2", "n3")]
    return TraceData(ring, *vals)


# -------------------------------------------------------------------- builders


def test_diagonal_rejects_zero_entry():
    ring = rational_ring()
    with pytest.raises(QuadFormError, match="zero entry"):
        QuadraticForm(ring, [1, 0, 3])
    with pytest.raises(QuadFormError, match="zero entry"):
        QuadraticForm(ring, [1, 0])


def test_pfister_entry_order():
    ring = rational_ring()
    a = ring.element(3)
    b = ring.element(5)
    one = pfister([a], ring=ring)
    assert [str(e) for e in one.entries] == ["1", "3"]
    two = pfister([a, b], ring=ring)
    assert [str(e) for e in two.entries] == ["1", "3", "5", "15"]
    assert pfister([a, b, a], ring=ring).dim == 8
    with pytest.raises(QuadFormError, match="zero entry"):
        pfister([a, ring.element(0)], ring=ring)


def test_direct_sum_and_tensor():
    # the trace form of A (x) B is the tensor of the trace forms, entry
    # (g, g') = entry g times entry g' when every grade is an involution
    ring = rational_ring()
    left = QuadraticForm(ring, [1, 2])
    right = QuadraticForm(ring, [3])
    assert [str(e) for e in direct_sum(left, right).entries] == ["1", "2", "3"]
    A = SymbolAlgebra(ring, 1, 1, 2)
    E = SymbolAlgebra(ring, 3, 5, 2)
    product = [a * b for a in trace_form(A).entries for b in trace_form(E).entries]
    assert [str(e) for e in trace_form(GradedTensor(A, E)).entries] == [str(e) for e in product]


# --------------------------------------------------------------- trace forms


def dense_trace_gram(alg) -> list:
    """Oracle: Trd(e_g e_h) as the regular trace of the left-multiplication
    matrix of e_g e_h, built with alg.mul on the basis e_g, over the degree."""
    ring = alg.coeffs.ring
    grades = alg.grades
    n = isqrt(len(grades))
    zero = ring.element(0)
    basis = [{g: ring.element(1)} for g in grades]

    def left_mult(x):
        cols = [alg.mul(x, e) for e in basis]
        return [[col.get(g, zero) for col in cols] for g in grades]

    def trd(x):
        matrix = left_mult(x)
        return sum((matrix[r][r] for r in range(len(grades))), zero) / n

    return [[trd(alg.mul(eg, eh)) for eh in basis] for eg in basis]


def oracle_diagonal(gram) -> list:
    """Diagonalize a Gram matrix in which each basis vector meets exactly
    one basis vector (maybe itself): <G_rr>, or G on e_r + e_s and e_r - e_s."""
    size = len(gram)
    out = []
    for r in range(size):
        assert all(gram[r][s] == gram[s][r] for s in range(size))
        partners = [s for s in range(size) if not gram[r][s].is_zero()]
        assert len(partners) == 1
        s = partners[0]
        if s == r:
            out.append(gram[r][r])
        elif r < s:
            cross = gram[r][s] + gram[s][r]
            out.append(gram[r][r] + cross + gram[s][s])
            out.append(gram[r][r] - cross + gram[s][s])
    return out


def _symbolic_symbol(m, conductor):
    ring = PolyRing(("a", "b"), conductor)
    return SymbolAlgebra(ring, ring.element(ring.var("a")), ring.element(ring.var("b")), m)


def _split_tensor_quaternion():
    ring = rational_ring()
    return GradedTensor(SymbolAlgebra(ring, 1, 1, 2), SymbolAlgebra(ring, 3, 5, 2))


@pytest.mark.parametrize("build", [
    lambda: _symbolic_symbol(2, 4),
    _split_tensor_quaternion,
    lambda: _symbolic_symbol(3, 12),
], ids=["quaternion-symbolic", "split-tensor-quaternion", "cubic-symbol-conductor-12"])
def test_trace_form_matches_dense_oracle(build):
    alg = build()
    form = trace_form(alg)
    expected = oracle_diagonal(dense_trace_gram(alg))
    assert form.dim == len(alg.grades) == len(expected)
    assert all(got == want for got, want in zip(form.entries, expected))


def test_trace_form_rejects_non_central_simple_input():
    ring = rational_ring()
    A = instance_from_symbol(2, 3, 5, 2, 1, ring=ring, check="none")
    with pytest.raises(QuadFormError, match="trivial action"):
        trace_form(A)
    with pytest.raises(QuadFormError, match="not the square"):
        trace_form(KummerField(PolyRing((), 12), 3, 2, 5))


def test_trace_form_of_2x2_matrices():
    # (1, 1)_2 is M_2(F): x^2 = 1, so (1 + x)(1 - x) = 0 and it is split
    ring = rational_ring()
    M2 = SymbolAlgebra(ring, 1, 1, 2)
    x, one = {(1, 0): ring.element(1)}, M2.one()
    assert M2.is_zero(M2.mul(M2.add(one, x), M2.add(one, M2.neg(x))))
    tf = trace_form(M2)
    assert [str(e) for e in tf.entries] == ["2", "2", "2", "-2"]
    cert = hyperbolic_sufficient(tf)
    assert cert is not None and len(cert["pairs"]) == 2


def test_trace_form_of_quaternion_symbol():
    # squares of the basis monomials 1, y, x, xy give <2, 2b, 2a, -2ab>
    ring = PolyRing(("a", "b"), 4)
    a = ring.element(ring.var("a"))
    b = ring.element(ring.var("b"))
    tf = trace_form(SymbolAlgebra(ring, a, b, 2))
    assert str(tf.entries[0]) == "2"
    assert tf.entries[1] == 2 * b
    assert tf.entries[2] == 2 * a
    assert tf.entries[3] == -2 * a * b


def test_matrix_quaternion_trace_forms_pair_hyperbolically():
    ring = rational_ring()
    M2 = SymbolAlgebra(ring, 1, 1, 2)
    for a, b in ((3, 5), (-2, 7), (-1, -1)):
        E = SymbolAlgebra(ring, ring.element(a), ring.element(b), 2)
        tf = trace_form(GradedTensor(M2, E))
        cert = hyperbolic_sufficient(tf)
        assert cert is not None
        assert len(cert["pairs"]) == 8
        for pair in cert["pairs"]:
            i, j = pair["indices"]
            w = pair["witness"]
            assert tf.entries[i] * w * w == -tf.entries[j]


def test_criterion_9_checks_the_trace_form_values(monkeypatch):
    # n on every involution pairs hyperbolically as well as n c(g, g) does,
    # so only the comparison with the known forms catches it
    def wrong_trace_form(algebra):
        n = isqrt(len(algebra.grades))
        return QuadraticForm(algebra.coeffs.ring, [n] * len(algebra.grades))

    monkeypatch.setattr(acceptance, "trace_form", wrong_trace_form)
    verdict, details = acceptance.check_split_trace_forms(42)
    assert verdict is False
    assert "2x2 matrix trace form is not <2, 2, 2, -2>" in details

    def wrong_on_tensors(algebra):
        if len(algebra.grades) == 4:
            return trace_form(algebra)
        return wrong_trace_form(algebra)

    monkeypatch.setattr(acceptance, "trace_form", wrong_on_tensors)
    verdict, details = acceptance.check_split_trace_forms(42)
    assert verdict is False
    assert "2x2 matrix" not in details
    assert "trace form is not 4<1, 1, 1, -1> x <1, b, a, -ab>" in details


def test_hyperbolic_sufficient_inconclusive_and_odd():
    ring = rational_ring()
    assert hyperbolic_sufficient(QuadraticForm(ring, [1, 3])) is None
    assert hyperbolic_sufficient(QuadraticForm(ring, [1, 1, 1])) is None
    cert = hyperbolic_sufficient(QuadraticForm(ring, [1, 1]))
    assert cert is not None and len(cert["pairs"]) == 1


# ----------------------------------------------------------------- trace data


def quartic_instance(ring, e, g, t, lam, mu, nu, check="none"):
    return instance_from_symbol(2, e, g, t, lam, ring=ring, check=check, mu=mu, nu=nu)


def test_trace_data_values_and_identities():
    ring = rational_ring()
    A = quartic_instance(ring, 3, 5, 2, 1, 1, 1, check="full")
    td = trace_data(A)
    f1, f2 = A.b1_pair()
    assert td.t1 == f1
    assert str(td.t1) == "4"
    # half-trace of b2 = tau sigma2(tau) al1 with tau = 1 + al1 + al2
    assert str(td.t2) == "6"
    assert td.n1 - td.t1 * td.t1 == -(f2 * f2) * A.K.a2
    # trace_data records no checks; the empty list stays for perfbench
    assert td.checks == []


def rational_coefficients(p):
    return all(c.is_rational() for c in poly_terms(p).values())


@pytest.mark.parametrize("twist", [(1, 2, 1), ("lam", "mu", "nu")],
                         ids=["rational-twist", "symbolic-twist"])
def test_trace_data_symbolic_identities(twist):
    # symbolic symbol parameters; the twist (lam, mu, nu) is either rational
    # or three more free variables
    names = [v for v in twist if isinstance(v, str)]
    ring = PolyRing(("e", "g", "t", *names), 4)
    e, g, t = [ring.element(ring.var(v)) for v in ("e", "g", "t")]
    lam, mu, nu = [ring.element(ring.var(v) if isinstance(v, str) else v)
                   for v in twist]
    A = quartic_instance(ring, e, g, t, lam, mu, nu)
    td = trace_data(A)
    assert td.t1 == 2 * t
    assert td.t2 == 2 * lam * mu * e
    if not names:
        assert td.t2 == 4 * e
    # norm of b1 = f1 + f2 al2 down the quadratic subfield
    f1, f2 = A.b1_pair()
    assert td.n1 == f1 * f1 - f2 * f2 * g
    # the traceform discriminant is rational because t3 is i times a
    # function with rational coefficients and the rest have them outright
    for value in (td.t1, td.t2, td.n1, td.n2, td.n3):
        assert rational_coefficients(value.num) and rational_coefficients(value.den)
    i = Cyc.zeta(4)
    assert rational_coefficients(td.t3.num.scale(i)) and rational_coefficients(td.t3.den)


def test_trace_data_rejects_degenerate():
    ring = rational_ring()
    A = quartic_instance(ring, 3, 5, 2, 1, 0, 0)  # b2 on the al1 axis: t2 = 0
    with pytest.raises(QuadFormError, match="degenerate: some t_i = 0"):
        trace_data(A)


def test_trace_data_needs_degree_four():
    A = instance_from_symbol(3, 2, 5, 1, 1, ring=PolyRing((), 12), check="none")
    with pytest.raises(ValueError, match="degree-4"):
        trace_data(A)


# -------------------------------------------------------- serre and equiv forms


def test_serre_form_dimensions_and_slots():
    ring = free_trace_ring()
    td = free_trace_data(ring)
    q = serre_form(td)
    assert q.dim == 20
    deficit = td.n1 - td.t1 * td.t1
    assert q.entries[0] == ring.element(1)
    assert q.entries[1] == deficit
    assert q.entries[2] == td.n2
    assert q.entries[3] == deficit * td.n2
    assert q.entries[5] == td.t1 * td.t1 - td.n1


def test_serre_form_hypothesis_violated():
    ring = rational_ring()
    td = TraceData(ring, 2, 0, 1, 3, 5, 7)
    with pytest.raises(QuadFormError, match="hypothesis violated"):
        serre_form(td)
    td = TraceData(ring, 2, 1, 1, 4, 5, 7)  # n1 = t1^2
    with pytest.raises(QuadFormError, match="hypothesis violated"):
        serre_form(td)


def test_equiv_form_entries():
    ring = free_trace_ring()
    td = free_trace_data(ring)
    q = equiv_form(td)
    assert q.dim == 16
    polys = reduced_polynomials(4)
    assert polys[0].ring.variables == ("g1", "g2", "g3", "g4")
    assert [str(p) for p in polys[:2]] == ["g2", "-g2^2 + g2"]
    g1, g2, g3, g4 = (polys[0].ring.var(v) for v in ("g1", "g2", "g3", "g4"))
    assert polys[15] == (1 - g1) * (1 - g2) * g2 * g3 * g4
    t2sq = td.t2 * td.t2
    assert q.entries[0] == td.n2 / t2sq
    one = ring.element(1)
    assert q.entries[8] == (one - td.n1 / (td.t1 * td.t1)) * (td.n2 / t2sq)


def test_equiv_form_zero_denominator():
    ring = rational_ring()
    td = TraceData(ring, 0, 1, 1, 2, 3, 5)
    with pytest.raises(QuadFormError, match="zero denominator"):
        equiv_form(td)


def test_changed_reduced_entry_fails_the_replay(tmp_path, monkeypatch):
    # doubling one entry of the four-input program moves the reduced form
    # off the end of the move chain, in the replay, criterion 8 and the CLI
    real = quadforms._reduced_entries

    def doubled_first(*generators):
        entries = real(*generators)
        return [2 * entries[0], *entries[1:]]

    monkeypatch.setattr(quadforms, "_reduced_entries", doubled_first)
    td = free_trace_data(free_trace_ring())
    assert replay_trace_form_equivalence(td)["ok"] is False
    assert acceptance.check_trace_form_certificates(42)[0] is False
    out = tmp_path / "fail.json"
    assert main(["traceform", "--random", "2", "--out", str(out)]) == 1
    detail = json.loads(out.read_text())["checks"][0]["details"]
    assert detail["matches_reduced_form"] is False
    ring = PolyRing(GENERATOR_LEGEND, 4)
    assert poly_from_json(ring, detail["equiv_form"][0]) == 2 * ring.var("g2")


def evaluate(data, point, ring):
    """Oracle: a to_json polynomial in g1..g4 at ``point``, elements of
    ``ring``, term by term."""
    poly = poly_from_json(PolyRing(data["vars"], data["conductor"]), data)
    total = ring.element(0)
    for exps, coeff in poly_terms(poly).items():
        term = ring.element(coeff)
        for value, e in zip(point, exps):
            term = term * value ** e
        total = total + term
    return total


@pytest.mark.parametrize("seed", [42, 7, None], ids=["seed-42", "seed-7", "free-symbolic"])
def test_envelope_polynomials_at_the_legend_point(tmp_path, seed):
    # every reduced-form polynomial the certificate carries, evaluated at
    # g1 = n1/t1^2, g2 = n2/t2^2, g3 = t1 t2, g4 = t2 t3, is the entry of
    # equiv_form and of the form the certificate's own moves replay to
    if seed is None:
        cases = [free_trace_data(free_trace_ring())]
        details = [acceptance.trace_instance_checks(cases[0], 0)[0]["detail"]]
    else:
        out = tmp_path / "ok.json"
        assert main(["traceform", "--random", "2", "--seed", str(seed), "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        rng = acceptance.seeded_rng(seed, "traceform")
        cases = [acceptance.quartic_trace_instance(rational_ring(), rng)[0] for _ in range(2)]
        details = [c["details"] for c in checks if c["name"].endswith("move-certificate")]
    assert len(details) == len(cases)
    for td, detail in zip(cases, details):
        assert detail["trace_data"] == {n: str(v) for n, v in td.values().items()}
        assert detail["generator_legend"] == {
            "g1": "n1/t1^2", "g2": "n2/t2^2", "g3": "t1*t2", "g4": "t2*t3"}
        point = [td.n1 / (td.t1 * td.t1), td.n2 / (td.t2 * td.t2), td.t1 * td.t2, td.t2 * td.t3]
        values = [evaluate(data, point, td.ring) for data in detail["equiv_form"]]
        moves = [witt_move_from_json(td.ring, m) for m in detail["moves"]]
        replayed = witt_apply(serre_form(td), moves)
        assert len(values) == 16
        assert values == equiv_form(td).entries == replayed.entries


# ------------------------------------------------------------------ Witt moves


def test_witt_apply_moves_and_witnesses():
    ring = rational_ring()
    i4 = ring.element(Cyc.zeta(ring.conductor))
    q = QuadraticForm(ring, [3, 5, -3])
    half = ring.element(Fraction(1, 2))
    moves = [
        WittMove("scale", [1], witness=half, factor=half * half),
        WittMove("negate", [2], witness=i4),
        WittMove("permute", [2, 1, 0]),
        WittMove("split", [1, 2], expected=[ring.element(Fraction(5, 4)), ring.element(3)]),
        WittMove("cancel", [0, 2], witness=i4),
    ]
    out = witt_apply(q, moves)
    assert [str(e) for e in out.entries] == ["5/4"]


def test_witt_apply_rejects_bad_witness():
    ring = rational_ring()
    i4 = ring.element(Cyc.zeta(ring.conductor))
    q = QuadraticForm(ring, [3, 5])
    bad_scale = WittMove("scale", [0], witness=ring.element(2), factor=ring.element(5))
    with pytest.raises(QuadFormError, match="witness fails"):
        witt_apply(q, [bad_scale])
    bad_cancel = WittMove("cancel", [0, 1], witness=i4)
    with pytest.raises(QuadFormError, match="witness fails"):
        witt_apply(q, [bad_cancel])
    bad_perm = WittMove("permute", [0, 0])
    with pytest.raises(QuadFormError, match="witness fails"):
        witt_apply(q, [bad_perm])
    out_of_range = WittMove("negate", [7], witness=i4)
    with pytest.raises(QuadFormError, match="witness fails"):
        witt_apply(q, [out_of_range])


def test_witt_derivation_symbolic_generic():
    ring = free_trace_ring()
    td = free_trace_data(ring)
    start = serre_form(td)
    moves = witt_derive_equivalence(td)
    final = witt_apply(start, moves)
    target = equiv_form(td)
    assert final.dim == 16
    assert all(final.entries[i] == target.entries[i] for i in range(16))


def test_replay_report_on_algebra_instance():
    ring = rational_ring()
    A = quartic_instance(ring, 3, 5, 2, 1, 1, 1)
    td = trace_data(A)
    report = replay_trace_form_equivalence(td)
    assert report["ok"]
    assert report["start_dim"] == 20
    assert report["final_dim"] == 16
    assert report["final_matches_equiv_form"]
    assert report["audit"]["only_four_generators"]


def test_witt_moves_preserve_discriminant_class():
    # every move multiplies the discriminant by a square of the base field
    # (scale by witness^2, negate by zeta4^2, cancel drops -d^2), so the
    # start form and final + 2H agree up to squares there
    ring = rational_ring()
    rng = random.Random(23)
    done = 0
    while done < 50:
        vals = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        if any(v == 0 for v in vals):
            continue
        td = TraceData(ring, *vals)
        try:
            start = serre_form(td)
        except QuadFormError:
            continue
        final = witt_apply(start, witt_derive_equivalence(td))
        assert final.dim == start.dim - 4
        restored = direct_sum(final, QuadraticForm(ring, [1, -1, 1, -1]))
        disc_start = functools.reduce(lambda x, y: x * y, start.entries)
        disc_restored = functools.reduce(lambda x, y: x * y, restored.entries)
        # x/y is a square exactly when x*y is
        assert is_square(disc_start * disc_restored) is not None
        done += 1


def test_witt_move_json_roundtrip():
    ring = rational_ring()
    td = TraceData(ring, 2, 3, 5, 7, 11, 13)
    moves = witt_derive_equivalence(td)
    replayed = [witt_move_from_json(ring, m.to_json()) for m in moves]
    final = witt_apply(serre_form(td), replayed)
    target = equiv_form(td)
    assert all(final.entries[i] == target.entries[i] for i in range(16))

