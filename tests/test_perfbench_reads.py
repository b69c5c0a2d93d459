"""The benchmark under perfbench/ still finds every name it reads.

perfbench/ calls public names of brauerlab and wraps others by name in
tracing.py; a refactor that renames one breaks the benchmark without
breaking any other test.  The benchmark files are imported, never edited.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return run, tracing, workloads


def test_every_wrapped_name_resolves(bench):
    _, tracing, _ = bench
    missing = [f"{owner.__name__}.{attr}"
               for _, owner, attr in tracing.COUNTED + tracing.SPANNED
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("workload", ["quartic-rational", "quartic-symbolic",
                                      "lattice-family"])
def test_one_pass_matches_every_known_answer(bench, workload):
    run, _, workloads = bench
    certificates = workloads.build(workload, 3).certificates
    assert run.misses(run.run_pass(certificates)) == []
