"""Exit codes of the command line over a bounded grammar of argument lists.

Every run ends in exit 0, 1 or 2 with nothing raised out of ``cli.main``;
exit 0 holds exactly when the envelope's status is "pass", and exit 2
(invalid input) writes no envelope.  The grammar keeps every argument list
parseable by argparse, so each run reaches a command handler.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from brauerlab.cli import main
from brauerlab.groups import builtin_family

small_ints = st.integers(-5, 5).map(str)
fractions = st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 5), st.integers(2, 4))
# argparse reads a leading "-" as an option unless the token is a negative
# integer, so --symbol gets no negative fractions; options are written
# "--flag=value", which takes any value
symbol_entries = st.one_of(small_ints, fractions)
signed_fractions = st.one_of(symbol_entries, fractions.map(lambda f: f"-{f}"))


def options(*pairs):
    """Argument lists with an optional "--flag=value" for each (flag, values)."""
    chunks = [st.one_of(st.just([]), values.map(lambda v, f=flag: [f"{f}={v}"]))
              for flag, values in pairs]
    return st.tuples(*chunks).map(lambda parts: [a for part in parts for a in part])


crossed_decompose = st.builds(
    lambda symbol, rest: ["crossed-decompose", *symbol, *rest],
    st.one_of(st.just([]), st.lists(symbol_entries, min_size=4, max_size=4)
              .map(lambda entries: ["--symbol", *entries])),
    options(("--m", st.integers(0, 3)), ("--mu", signed_fractions),
            ("--nu", signed_fractions), ("--random", st.integers(0, 1))),
)

group_names = st.sampled_from([g.name for g in builtin_family()] + ["S5", "C5", "s4", "x"])
subgroups = st.sampled_from([
    "(1 2)", "(1 2 3)", "(1 2)(3 4)", "(1 2),(3 4)", "()", "(1 2", "1 2)", "(1 a)",
    "(0 1)", "(1 1)", "(1 9)", ",", "(1,2)", "(1 2)x",
])
lattice = options(
    ("--group", group_names),
    ("--subgroup", subgroups),
    ("--r", st.sampled_from(["1", "2"])),
    ("--formanek", st.integers(0, 5)),
).map(lambda rest: ["lattice", *rest])

bounds = st.builds(
    lambda n, assume: ["bounds", f"--n={n}", *assume],
    st.integers(-1, 12),
    st.lists(st.sampled_from(["primitive-root-of-unity", "roots-of-unity", "bogus"]),
             max_size=2).map(lambda flags: [f"--assume={f}" for f in flags]),
)

udn_factorset = st.builds(
    lambda n, rest: ["udn-factorset", f"--n={n}", *rest],
    st.integers(-1, 7),
    options(("--check", st.sampled_from(
        ["all", "cocycle", "equivariance", "wedge", "normalization"]))),
)

traceform = options(
    ("--m", st.integers(1, 3)),
    ("--random", st.integers(0, 1)),
).map(lambda rest: ["traceform", *rest])

selftest = st.sampled_from(["0", "10", "-1", "x", "1,x", "1,,2", "3.5", " ", "1;2"]).map(
    lambda criteria: ["selftest", f"--criteria={criteria}"])

argvs = st.one_of(crossed_decompose, lattice, bounds, udn_factorset, traceform, selftest)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(argvs)
def test_exit_codes_follow_the_envelope_status(argv):
    code, out = run_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        assert (code == 0) == (json.loads(out)["status"] == "pass")
