import hashlib
import json

import pytest

from brauerlab import acceptance, cli
from brauerlab.acceptance import CRITERIA
from brauerlab.checks import aggregate, check, failing
from brauerlab.cli import main
from brauerlab.exactfield import PolyRing
from brauerlab.lattices import LatticeMap
from brauerlab.quadforms import QuadraticForm


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the serialized reference envelopes: a change that alters one
# of them has to update the digest here and say why
SELFTEST_SEED_42 = "30b45f76b154331d405b3efa3864612ae37c1a0b7b5f9de5000927b56b0ffc0d"
SELFTEST_SEED_7 = "2e8e97f578acbb8d9592ef6b1a1fabdada58316d0c9092c225edd08fd0103a43"
REFERENCE_ENVELOPES = [
    (("traceform", "--random", "2"),
     "8f7de583fe8c7ceb136a0b0c996b934e61f4e3d7af3fc550eaa6eaf2ca587975"),
    (("crossed-decompose", "--m", "2", "--random", "3"),
     "bec272ac88837d01bf2fd26b3f0f3ec85bb24c728550d8bdaf2f53140702e37c"),
    (("crossed-decompose", "--m", "2", "--symbol", "3", "5", "2", "1"),
     "5849bb2cf3ef5c933dad09e6228ffc1ef3674a6f987b5f176f90cec7e5fe8122"),
    (("crossed-decompose", "--m", "2", "--symbol", "3", "5", "0", "1"),
     "bf59c50a03ff5f27063be069044ce12c28ddf04108be5261b66eb0ddbe5ebdda"),
    (("crossed-decompose", "--m", "3", "--symbol", "3", "5", "2", "1"),
     "aa9b74d0eaaaa6b35fdecee62d3a7075ff13e291d47be06d7b6e4fa09c746fdf"),
    (("crossed-decompose", "--m", "4", "--symbol", "3", "5", "2", "1"),
     "6561d07e3f16a3b04146525571fd7da538276f2d11067db0df0de2f9c16d1763"),
    (("crossed-decompose", "--m", "3", "--symbol", "3", "5", "0", "1"),
     "22a0a5805e8e3dce33c81f010de86567fc1a7573ec45cea9a194d10772ed54c8"),
    (("lattice", "--group", "S4", "--r", "2"),
     "28a90d90b6b95c3fafc871004197538451db7ac0edcb1cffd6b7a467aa4a1f3d"),
    (("lattice", "--formanek", "5"),
     "1e96d172271955123128431bbf7effd9189805b77de609fe9471d7f2f821bce3"),
    (("udn-factorset", "--n", "7", "--check", "wedge"),
     "f529e8fdc849e766585a4cdefbf4240b6137849f998ed2b90f0e6edef8999235"),
    (("bounds", "--n", "5"),
     "b70896be4836de507ae20def67b69c8560a13eaa71350edb231509807e1d0417"),
]


def test_selftest_passes_every_criterion(tmp_path):
    code, text = run(tmp_path, "selftest.json", "selftest")
    assert code == 0
    assert sha256(text) == SELFTEST_SEED_42
    envelope = json.loads(text)
    assert envelope["status"] == "pass"
    assert [c["name"] for c in envelope["checks"]] == [name for name, _ in CRITERIA]
    assert all(c["status"] == "pass" for c in envelope["checks"])


def test_selftest_is_byte_identical_across_runs(tmp_path):
    argv = ("selftest", "--seed", "7")
    code_a, first = run(tmp_path, "a.json", *argv)
    code_b, second = run(tmp_path, "b.json", *argv)
    assert code_a == code_b == 0
    assert first == second
    assert sha256(first) == SELFTEST_SEED_7
    assert len(json.loads(first)["checks"]) == len(CRITERIA)


@pytest.mark.parametrize("argv, digest", REFERENCE_ENVELOPES,
                         ids=["_".join(a.lstrip("-") for a in argv)
                              for argv, _ in REFERENCE_ENVELOPES])
def test_reference_envelope_digests(tmp_path, argv, digest):
    code, text = run(tmp_path, "ref.json", *argv)
    assert code == 0
    assert sha256(text) == digest


def test_crossed_decompose_degree_6_is_byte_identical(tmp_path):
    argv = ("crossed-decompose", "--m", "3", "--symbol", "3", "5", "2", "1")
    code_a, first = run(tmp_path, "a.json", *argv)
    code_b, second = run(tmp_path, "b.json", *argv)
    assert code_a == code_b == 0
    assert first == second
    envelope = json.loads(first)
    assert envelope["status"] == "pass"
    assert envelope["checks"][0]["details"]["check_level"] == "full"


@pytest.mark.parametrize("argv", [
    ("lattice", "--group", "S4", "--r", "2"),
    ("lattice", "--formanek", "5"),
    ("udn-factorset", "--n", "7", "--check", "wedge"),
])
def test_integer_certificates_pass_and_are_byte_identical(tmp_path, argv):
    code_a, first = run(tmp_path, "a.json", *argv)
    code_b, second = run(tmp_path, "b.json", *argv)
    assert code_a == code_b == 0
    assert first == second
    envelope = json.loads(first)
    assert envelope["status"] == "pass"
    assert envelope["checks"]
    assert all(c["status"] == "pass" for c in envelope["checks"])


@pytest.mark.parametrize("argv", [
    ("crossed-decompose", "--m", "1"),
    ("crossed-decompose", "--random", "0"),
    ("crossed-decompose", "--random", "-1"),
    # a1, a2 or a1*a2 a square in Q(i): K = F(al1, al2) is not a field
    ("crossed-decompose", "--symbol", "4", "5", "2", "1"),
    ("crossed-decompose", "--symbol", "1", "-1", "1", "1"),
    ("crossed-decompose", "--symbol", "2", "-4", "2", "1"),
    ("selftest", "--criteria", "10"),
    ("selftest", "--criteria", "0"),
    ("selftest", "--criteria", "x"),
    ("selftest", "--criteria", ""),
    ("bounds", "--n", "5", "--assume", "bogus"),
    # the Formanek sequence is over S_N alone
    ("lattice", "--formanek", "5", "--group", "S4"),
    ("lattice", "--formanek", "5", "--subgroup", "(1 2)"),
    ("lattice", "--group", "S4", "--subgroup", "(1 2"),
    # K not a field beyond m = 2: 8 = 2^3 and -1 = i^2 in F = Q(zeta_12); 3
    # and 2 are squares in Q(zeta_12) and Q(zeta_8); sqrt(5) lies in Q(zeta_20)
    ("crossed-decompose", "--m", "3", "--symbol", "8", "5", "2", "1"),
    ("crossed-decompose", "--m", "3", "--symbol", "2", "-1", "1", "1"),
    ("crossed-decompose", "--m", "3", "--symbol", "2", "3", "1", "1"),
    ("crossed-decompose", "--m", "4", "--symbol", "2", "3", "1", "1"),
    ("crossed-decompose", "--m", "5", "--symbol", "3", "5", "2", "1"),
])
def test_bad_input_exits_2(tmp_path, argv):
    code, text = run(tmp_path, "bad.json", *argv)
    assert code == 2
    assert text is None


def test_subgroup_cycles_may_use_commas(tmp_path):
    # commas inside a cycle separate points, those between cycles separate
    # generators
    envelopes = []
    for subgroup in ("(1,2,3,4)", "(1 2 3 4)"):
        code, text = run(tmp_path, "ok.json", "lattice", "--group", "S4",
                         "--subgroup", subgroup)
        assert code == 0
        envelopes.append(json.loads(text))
    assert envelopes[0]["checks"] == envelopes[1]["checks"]
    assert [c["status"] for c in envelopes[0]["checks"]] == ["pass", "pass"]
    code, _ = run(tmp_path, "two.json", "lattice", "--group", "S4",
                  "--subgroup", "(1,2), (3,4)")
    assert code == 0


def test_bounds_verdict_is_the_consistency_of_the_bounds(tmp_path, monkeypatch):
    code, text = run(tmp_path, "ok.json", "bounds", "--n", "5")
    assert code == 0
    [record] = json.loads(text)["checks"]
    assert record["name"] == "degree-bounds"
    assert (record["details"]["lower"], record["details"]["upper"]) == (2, 6)
    real = cli.d_bounds

    def crossed(n, assume):
        report = real(n, assume)
        report.lower = report.upper + 1
        return report

    monkeypatch.setattr(cli, "d_bounds", crossed)
    code, text = run(tmp_path, "fail.json", "bounds", "--n", "5")
    assert code == 1
    assert json.loads(text)["checks"][0]["status"] == "fail"


def test_failed_check_exits_1(tmp_path, monkeypatch):
    real_checks = cli.formanek_checks

    def uncertified(n):
        return [check(c["name"], False, "no row certificate")
                if c["name"] == "splitting-unimodular" else c
                for c in real_checks(n)]

    monkeypatch.setattr(cli, "formanek_checks", uncertified)
    code, text = run(tmp_path, "fail.json", "lattice", "--formanek", "3")
    assert code == 1
    envelope = json.loads(text)
    assert envelope["status"] == "fail"
    assert [(c["name"], c["status"]) for c in envelope["checks"]] == [
        ("sequence-exact", "pass"), ("kernel-rank", "pass"),
        ("splitting-unimodular", "fail"), ("splitting-equivariant", "pass")]


def test_formanek_command_and_criterion_check_the_equivariant_splitting(
        tmp_path, monkeypatch):
    monkeypatch.setattr(LatticeMap, "check_equivariance", lambda self: False)
    code, text = run(tmp_path, "fail.json", "lattice", "--formanek", "3")
    assert code == 1
    assert [(c["name"], c["status"]) for c in json.loads(text)["checks"]] == [
        ("sequence-exact", "pass"), ("kernel-rank", "pass"),
        ("splitting-unimodular", "pass"), ("splitting-equivariant", "fail")]
    assert acceptance.check_formanek_kernel(42)[0] is False


# each producer whose records a command emits and a criterion reads:
# (producer, command, criterion number)
SHARED_PRODUCERS = [
    ("udn_checks", ("udn-factorset", "--n", "5"), 1),
    ("relation_kernel_checks", ("lattice", "--group", "C3"), 2),
    ("tensor_square_checks", ("lattice", "--group", "C3"), 3),
    ("formanek_checks", ("lattice", "--formanek", "3"), 4),
    ("trace_instance_checks", ("traceform",), 8),
    ("decomposition_certificate", ("crossed-decompose", "--symbol", "3", "5", "2", "1"), 7),
]


@pytest.mark.parametrize("producer, argv, criterion", SHARED_PRODUCERS,
                         ids=[p for p, _, _ in SHARED_PRODUCERS])
def test_command_and_criterion_fail_on_the_same_record(
        tmp_path, monkeypatch, producer, argv, criterion):
    real = getattr(acceptance, producer)
    tampered = []

    def last_fails(*args):
        result = real(*args)
        if result is None:
            return None
        # a record list, or a certificate that carries its records
        records = result if isinstance(result, list) else result.identities
        tampered.append(records[-1]["name"])
        records[-1] = check(records[-1]["name"], False, "tampered")
        return result

    monkeypatch.setattr(acceptance, producer, last_fails)
    monkeypatch.setattr(cli, producer, last_fails)
    code, text = run(tmp_path, "fail.json", *argv)
    assert code == 1
    checks = json.loads(text)["checks"]
    if producer == "decomposition_certificate":
        # the certificate is one envelope check that carries its records
        assert [c["status"] for c in checks] == ["fail"]
        failed = failing(checks[0]["details"]["identities"])
    else:
        failed = [c["name"] for c in checks if c["status"] == "fail"]
    assert failed == tampered
    assert CRITERIA[criterion - 1][1](42)[0] is False


# every fact of the claim-(iii) certificate on both cyclic branches (f1 != 0
# and f1 = 0), each named once: the twist's records, the symbol
# presentation's, and the tie between them
GENERIC_DECOMPOSITION_FACTS = [
    "tensor-cocycle-witness", "gamma-power-m", "gamma-power-2m-nonzero",
    "gamma-min-poly-degree", "delta-conjugation", "delta-power-in-F",
    "c-prime-value", "gamma-power-2m",
]
DECOMPOSE_ARGVS = [argv for argv, _ in REFERENCE_ENVELOPES if argv[0] == "crossed-decompose"]


@pytest.mark.parametrize("argv", DECOMPOSE_ARGVS,
                         ids=["_".join(a.lstrip("-") for a in argv) for argv in DECOMPOSE_ARGVS])
def test_decomposition_certificate_names_each_fact_once(tmp_path, argv):
    code, text = run(tmp_path, "ok.json", *argv)
    assert code == 0
    for entry in json.loads(text)["checks"]:
        cert = entry["details"]
        names = [item["name"] for item in cert["identities"]]
        assert len(names) == len(set(names))
        if cert["branch"] in ("generic", "f1-zero-cyclic"):
            assert names == GENERIC_DECOMPOSITION_FACTS
            assert {"c_prime", "d_prime", "delta"} <= set(cert["witnesses"])


def test_tensor_square_unimodularity_comes_from_the_row_certificate(tmp_path, monkeypatch):
    real_iso = acceptance.pair_basis_iso

    def without_row_pivots(seq):
        iso = real_iso(seq)
        iso.row_pivots = None
        return iso

    monkeypatch.setattr(acceptance, "pair_basis_iso", without_row_pivots)
    code, text = run(tmp_path, "fail.json", "lattice", "--group", "C3")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["tensor-square"]["status"] == "fail"
    assert checks["tensor-square"]["details"]["unimodular"] is False
    assert acceptance.check_tensor_square_family(42)[0] is False


def test_formanek_unimodularity_comes_from_the_row_certificate(tmp_path, monkeypatch):
    real_sequence = acceptance.formanek_sequence

    def without_row_pivots(n):
        seq, iso = real_sequence(n)
        iso.row_pivots = None
        return seq, iso

    monkeypatch.setattr(acceptance, "formanek_sequence", without_row_pivots)
    code, text = run(tmp_path, "fail.json", "lattice", "--formanek", "5")
    assert code == 1
    assert [(c["name"], c["status"]) for c in json.loads(text)["checks"]] == [
        ("sequence-exact", "pass"), ("kernel-rank", "pass"),
        ("splitting-unimodular", "fail"), ("splitting-equivariant", "pass")]
    assert acceptance.check_formanek_kernel(42)[0] is False


def test_no_checks_aggregate_to_inconclusive():
    assert aggregate([]) is None


def test_family_criteria_with_nothing_checked_are_inconclusive(monkeypatch):
    monkeypatch.setattr(acceptance, "builtin_family", lambda: ())
    assert acceptance.check_relation_kernel_family(42)[0] is None
    assert acceptance.check_tensor_square_family(42)[0] is None


def test_exact_field_error_exits_2(tmp_path, monkeypatch, capsys):
    # an ExactFieldError (an ArithmeticError) raised mid-computation gets the
    # one-line message and exit 2 of every other bad input, not a traceback
    def divide_by_zero(args):
        ring = PolyRing((), 4)
        return ring.element(1) / ring.element(0)

    monkeypatch.setattr(cli, "cmd_bounds", divide_by_zero)
    code, text = run(tmp_path, "bad.json", "bounds", "--n", "5")
    assert code == 2
    assert text is None
    err = capsys.readouterr().err
    assert err == "brauerlab bounds: division by zero\n"


def test_traceform_cross_check_catches_a_non_square_entry(tmp_path, monkeypatch):
    # 3 is not a square in Q(i), so tripling one entry of the final form
    # changes its discriminant square class while the replay still matches
    real_replay = acceptance.replay_trace_form_equivalence

    def tripled(td):
        report = real_replay(td)
        final = report["final_form"]
        entries = [final.entries[0] * 3, *final.entries[1:]]
        return {**report, "final_form": QuadraticForm(final.ring, entries)}

    monkeypatch.setattr(acceptance, "replay_trace_form_equivalence", tripled)
    code, text = run(tmp_path, "fail.json", "traceform", "--random", "1")
    assert code == 1
    status = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
    assert status["instance-0-move-certificate"] == "pass"
    assert status["instance-0-invariant-cross-checks"] == "fail"
    # criterion 8 runs the same cross-check on the same records
    assert acceptance.check_trace_form_certificates(42) == (
        False, "instance 0: ['instance-0-invariant-cross-checks'] fail")


def test_selftest_runs_the_listed_criteria_in_order(tmp_path):
    code, text = run(tmp_path, "some.json", "selftest", "--criteria", "9,1")
    assert code == 0
    envelope = json.loads(text)
    assert envelope["input"]["criteria"] == [9, 1]
    assert [c["name"] for c in envelope["checks"]] == [CRITERIA[8][0], CRITERIA[0][0]]


def test_non_square_symbol_still_passes(tmp_path):
    code, text = run(tmp_path, "ok.json", "crossed-decompose", "--symbol", "3", "5", "2", "1")
    assert code == 0
    assert json.loads(text)["status"] == "pass"


def test_f2_zero_split_with_u_squared_not_one_passes(tmp_path):
    # t = 0 gives f2 = 0 with u = -zeta_3, so the z2 adjuster must solve
    # u s1(k) = k rather than s1(k) = u k
    code, text = run(tmp_path, "ok.json", "crossed-decompose", "--m", "3",
                     "--symbol", "3", "5", "0", "1")
    assert code == 0
    assert json.loads(text)["status"] == "pass"
