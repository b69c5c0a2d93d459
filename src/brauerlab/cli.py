"""Command-line entry point producing JSON certificate envelopes.

Every subcommand builds one envelope: the command name, an echo of the
inputs, the tool version, the seed, and a list of named checks with
status pass / fail / inconclusive.  A handler returns the check records
(checks.py) of the producers it calls, unchanged; make_envelope alone maps
each record to its envelope entry and the records to the overall status.
Envelopes are serialized with sorted keys and carry no wall-clock field,
so equal seeds give byte-identical output; timing goes to standard error.
Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .acceptance import (
    CRITERIA,
    decomposition_certificate,
    formanek_checks,
    quartic_trace_instance,
    relation_kernel_checks,
    run_all,
    seeded_rng,
    seeded_symbol_instances,
    tensor_square_checks,
    trace_instance_checks,
    udn_checks,
)
from .bounds import d_bounds
from .checks import aggregate, check, status
from .crossed import CrossedError, instance_from_symbol, standard_ring
from .exactfield import ExactFieldError, PolyRing, factorize, is_power
from .groups import builtin_family

SCHEMA = "brauerlab-envelope/1"


class UsageError(ValueError):
    """Invalid input surfaced as exit code 2."""


def make_envelope(command: str, inputs: dict, seed, checks: list) -> dict:
    """The envelope of one run; ``checks`` are check records (checks.py)."""
    return {
        "schema": SCHEMA,
        "tool": "brauerlab",
        "version": __version__,
        "command": command,
        "input": inputs,
        "seed": seed,
        "checks": [{"name": c["name"], "status": status(c["ok"]), "details": c["detail"]}
                   for c in checks],
        "status": status(aggregate(checks)),
        # wall-clock would break byte-identity under equal seeds; real
        # timing is reported on standard error instead
        "timing": None,
    }


def serialize_envelope(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


# ------------------------------------------------------------------- bounds


def cmd_bounds(args) -> tuple[dict, list]:
    report = d_bounds(args.n, args.assume)
    checks = [check("degree-bounds", report.lower <= report.upper, report.to_json())]
    return {"n": args.n, "assumptions": list(args.assume)}, checks


# ------------------------------------------------------------------ lattice


def _family_registry() -> dict:
    return {g.name: g for g in builtin_family()}


def cmd_lattice(args) -> tuple[dict, list]:
    if args.formanek is not None:
        if args.group or args.subgroup:
            raise UsageError("--formanek takes no --group or --subgroup")
        if args.formanek < 2:
            raise UsageError("the symmetric-group kernel needs n >= 2")
        return {"formanek": args.formanek}, formanek_checks(args.formanek)

    registry = _family_registry()
    if args.group not in registry:
        raise UsageError(
            f"unknown group {args.group!r}; choose from {sorted(registry)}")
    group = registry[args.group]
    if args.subgroup:
        # split on the commas between cycles, not those inside "(1,2,3)"
        subgroup = group.subgroup(re.split(r",(?![^()]*\))", args.subgroup))
    else:
        subgroup = group.trivial_subgroup()

    rel = relation_kernel_checks(group, subgroup, args.r)
    if rel is None:
        raise UsageError(
            f"no generating tuple of length {args.r} relative to the "
            f"subgroup; raise --r")
    tens = tensor_square_checks(group, subgroup)
    if tens is None:
        raise UsageError("the tensor-square sequence needs index at least 2")
    return {
        "group": args.group,
        "subgroup": args.subgroup or "trivial",
        "r": args.r,
    }, rel + tens


# ------------------------------------------------------------- udn-factorset


def cmd_udn_factorset(args) -> tuple[dict, list]:
    if args.n < 2:
        raise UsageError("factor sets need n >= 2")
    if args.check in ("all", "wedge", "normalization") and args.n % 2 == 0:
        raise UsageError("the normalized factor set needs odd n")
    return {"n": args.n, "check": args.check}, udn_checks(args.n, args.check)


# --------------------------------------------------------- crossed-decompose


def cmd_crossed_decompose(args) -> tuple[dict, list]:
    if args.m < 2:
        raise UsageError("crossed products here need m >= 2")
    ring = standard_ring(args.m, ())
    checks = []

    def run_one(label: str, algebra) -> None:
        cert = decomposition_certificate(algebra)
        checks.append(check(label, cert.ok, cert.to_json()))

    if args.symbol is not None:
        e, g, t, lam = [_parse_fraction(v) for v in args.symbol]
        if e == 0 or g == 0:
            raise UsageError("symbol entries must be nonzero")
        # exact for rationals: K is a field when a1 is no p-th power for p | m
        # (Capelli) and a2 no square in F(al1), which at even m holds sqrt(a1)
        squares = (g, e * g) if args.m % 2 == 0 else (g,)
        if (any(is_power(ring.element(e), p) for p in factorize(args.m))
                or any(is_power(ring.element(x), 2) for x in squares)):
            raise UsageError("K = F(al1, al2) is not a field: a1 is a p-th power for a "
                             "prime p | m, or a2 (or a1*a2 at even m) is a square in F")
        try:
            algebra = instance_from_symbol(
                args.m, ring.element(e), ring.element(g), ring.element(t),
                ring.element(lam), ring=ring, check="full",
                mu=ring.element(_parse_fraction(args.mu)),
                nu=ring.element(_parse_fraction(args.nu)))
        except CrossedError as exc:
            raise UsageError(str(exc)) from exc
        run_one("decomposition", algebra)
        inputs = {"m": args.m, "symbol": [str(v) for v in (e, g, t, lam)],
                  "mu": args.mu, "nu": args.nu}
    else:
        if args.m != 2:
            raise UsageError("--random draws the degree-4 family; use --symbol for larger m")
        if args.random < 1:
            raise UsageError("--random needs at least one instance")
        done = resampled = 0
        for _, algebra, resampled in seeded_symbol_instances(args.seed, ring, args.random):
            run_one(f"decomposition-{done}", algebra)
            done += 1
        if done < args.random:
            raise UsageError("instance generator exhausted")
        inputs = {"m": 2, "random": args.random, "resampled": resampled}
    return inputs, checks


# ----------------------------------------------------------------- traceform


def cmd_traceform(args) -> tuple[dict, list]:
    if args.m != 2:
        raise UsageError("trace data needs a degree-4 algebra (m = 2)")
    if args.random < 1:
        raise UsageError("--random needs at least one instance")
    ring = PolyRing((), 4)
    rng = seeded_rng(args.seed, "traceform")
    checks = []
    for k in range(args.random):
        td, _ = quartic_trace_instance(ring, rng)
        checks += trace_instance_checks(td, k)
    return {"m": args.m, "random": args.random}, checks


# ------------------------------------------------------------------ selftest


def cmd_selftest(args) -> tuple[dict, list]:
    if args.criteria is not None:
        try:
            indices = [int(v) - 1 for v in args.criteria.split(",")]
        except ValueError as exc:
            raise UsageError("--criteria wants comma-separated numbers") from exc
        if any(i < 0 or i >= len(CRITERIA) for i in indices):
            raise UsageError(f"criteria run 1..{len(CRITERIA)}")
    else:
        indices = None
    checks = run_all(args.seed, indices=indices)
    return {
        "seed": args.seed,
        "criteria": "all" if indices is None else [i + 1 for i in indices],
    }, checks


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauerlab",
        description="exact certificates for crossed products, lattices, "
                    "factor sets and trace forms")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="FILE",
                       help="write the envelope to FILE instead of stdout")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for all randomness (default 42)")

    p = sub.add_parser("bounds", help="parameter-count bounds for degree n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--assume", action="append", default=[],
                   metavar="FLAG", help="assumption flags, repeatable")
    common(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("lattice", help="relation-kernel and tensor-square "
                                       "certificates over the builtin family")
    p.add_argument("--group", help="family group name, e.g. S4")
    p.add_argument("--subgroup", help="comma-separated generator cycles")
    p.add_argument("--r", type=int, default=2, choices=(1, 2))
    p.add_argument("--formanek", type=int, metavar="N",
                   help="check the symmetric-group kernel splitting instead")
    common(p)
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("udn-factorset", help="universal-division factor-set checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", default="all",
                   choices=("all", "cocycle", "equivariance", "wedge",
                            "normalization"))
    common(p)
    p.set_defaults(handler=cmd_udn_factorset)

    p = sub.add_parser("crossed-decompose",
                       help="decomposition certificates for crossed products")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--symbol", nargs=4, metavar=("E", "G", "T", "LAM"),
                   help="embed one instance from symbol parameters")
    p.add_argument("--mu", default="0", help="alpha1 twist component")
    p.add_argument("--nu", default="0", help="alpha2 twist component")
    p.add_argument("--random", type=int, default=1, metavar="N",
                   help="number of seeded instances (default 1)")
    common(p)
    p.set_defaults(handler=cmd_crossed_decompose)

    p = sub.add_parser("traceform", help="trace data, the 20-entry start "
                                         "form, and the move certificate")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--random", type=int, default=1, metavar="N")
    common(p)
    p.set_defaults(handler=cmd_traceform)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--criteria", metavar="LIST",
                   help="comma-separated subset, e.g. 1,5,9")
    common(p)
    p.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs, checks = args.handler(args)
    except (ValueError, ExactFieldError) as exc:
        print(f"brauerlab {args.command}: {exc}", file=sys.stderr)
        return 2
    envelope = make_envelope(args.command, inputs, args.seed, checks)
    text = serialize_envelope(envelope)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(f"# {args.command}: {envelope['status']} in {elapsed:.2f}s",
          file=sys.stderr)
    return 0 if envelope["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
