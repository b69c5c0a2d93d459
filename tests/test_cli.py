import json

import pytest

from brauerlab.acceptance import CRITERIA
from brauerlab.cli import main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_selftest_passes_every_criterion(tmp_path):
    code, text = run(tmp_path, "selftest.json", "selftest")
    assert code == 0
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
    assert len(json.loads(first)["checks"]) == len(CRITERIA)


def test_crossed_decompose_degree_6_is_byte_identical(tmp_path):
    argv = ("crossed-decompose", "--m", "3", "--symbol", "2", "3", "1", "1")
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
])
def test_bad_input_exits_2(tmp_path, argv):
    code, text = run(tmp_path, "bad.json", *argv)
    assert code == 2
    assert text is None


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
