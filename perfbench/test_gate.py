"""Smoke test of the known-answer gate: a flipped expectation is a miss.

Run from the root of a checkout (a few seconds):

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if not run.use_sources():
    raise ImportError(f"no brauerlab sources under {run.SRC}")

import workloads  # noqa: E402


def _flip(cert, expected):
    return dataclasses.replace(cert, expected=expected)


def test_small_lattice_certificates_match_and_flip_trips():
    inputs = workloads.build("lattice-family", 0)
    small = [c for c in inputs.certificates
             if c.name.startswith(("freepres(C2,", "seq2(C3,", "formanek(n=3)"))]
    assert len(small) == 6
    assert run.misses(run.run_pass(small)) == []

    for target in small:
        flipped = dict(target.expected, exact=False)
        rest = [c for c in small if c is not target]
        results = run.run_pass([_flip(target, flipped)] + rest)
        assert [m["certificate"] for m in run.misses(results)] == [target.name]


def test_perturbed_sets_are_rejected_and_flip_trips():
    inputs = workloads.build("quartic-rational", 0)
    rejections = [c for c in inputs.certificates
                  if c.name.startswith("rejected(")]
    assert len(rejections) == 8
    results = run.run_pass(rejections)
    assert run.misses(results) == []
    assert all(r.verdict == "rejected" for r in results)

    flipped = [_flip(rejections[0], "accepted")] + rejections[1:]
    assert len(run.misses(run.run_pass(flipped))) == 1


def test_fingerprint_follows_payloads_not_order():
    inputs = workloads.build("lattice-family", 0)
    small = [c for c in inputs.certificates if c.name.startswith("freepres(C2,")]
    forward = run.run_pass(small)
    backward = run.run_pass(small[::-1])
    assert run.fingerprint(forward) == run.fingerprint(backward)
    changed = [dataclasses.replace(forward[0], payload={"tampered": True})]
    assert run.fingerprint(changed + forward[1:]) != run.fingerprint(forward)


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main(["-q", __file__]))
