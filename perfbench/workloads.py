"""Seeded inputs, certificates and known answers for the benchmark workloads.

A certificate is one top-level request that ends in one verdict.  Each
workload builds a fixed list of certificates from the seed (this is the
set-up that ``setup_s`` times); a pass certifies every one of them in a
closed loop, one at a time.  Every certificate carries the verdict it must
reach, so a pass also checks that the program's answers are right.

Only public names of ``brauerlab`` are used.  Layer functions are looked up
through their modules at call time (``crossed.decompose``, not a name
imported once), so the traced run can wrap them where the program itself
looks them up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

from brauerlab import crossed, groups, lattices, quadforms, snf
from brauerlab.exactfield import PolyRing

ACCEPTED_PER_PASS = 2   # rational instances: construct, decompose, solve
TRACE_PER_PASS = 1      # rational trace-form instances
MAX_DRAWS = 500         # per instance; the filters reject well under half


@dataclass
class Certificate:
    """One request: ``run()`` returns ``(verdict, payload)``.

    ``expected`` is the known answer; the payload is what goes into the
    output fingerprint.  ``name`` identifies the request whatever its
    place in the pass.
    """

    name: str
    run: Callable[[], tuple]
    expected: Any


@dataclass
class Inputs:
    certificates: list
    gen: dict = field(default_factory=dict)   # generator statistics


def build(workload: str, seed: int) -> Inputs:
    """Rings, groups and certificate list for one workload and seed."""
    builders = {"quartic-rational": _quartic_rational,
                "quartic-symbolic": _quartic_symbolic,
                "lattice-family": _lattice_family}
    return builders[workload](random.Random(f"perfbench/{workload}/{seed}"))


# ------------------------------------------------------------ quartic-rational


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def _square_in_gaussian_rationals(q: Fraction) -> bool:
    # a rational q is a square in Q(i) iff q or -q is a square in Q
    q = abs(q)
    return (isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def _draw_quartic(rng: random.Random, ring: PolyRing, gen: dict,
                  with_trace: bool) -> tuple:
    """Nonzero integers (e, g, t, lam, mu, nu) for instance_from_symbol.

    Rejected draws: the structural degeneracies g = +-t^2 (zero divisor in
    the splitter, or f2 = 0); split data, where a1 = e, a2 = g or a1 a2 is a
    square in Q(i) and K is not a field; and draws whose unchecked
    construction (or trace data) raises.  mu = nu = 0 unless the instance
    is a trace-form one.
    """
    for _ in range(MAX_DRAWS):
        e, g, t, lam, mu, nu = (_nonzero(rng) for _ in range(6))
        if not with_trace:
            mu = nu = Fraction(0)
        if g in (t * t, -t * t):
            gen["degenerate"] += 1
            continue
        if any(_square_in_gaussian_rationals(x) for x in (e, g, e * g)):
            gen["split"] += 1
            continue
        try:
            algebra = crossed.instance_from_symbol(
                2, *(ring.element(x) for x in (e, g, t, lam)), ring=ring,
                check="none", mu=ring.element(mu), nu=ring.element(nu))
            if with_trace:
                quadforms.trace_data(algebra)
        except (crossed.CrossedError, quadforms.QuadFormError):
            gen["resampled"] += 1
            continue
        return e, g, t, lam, mu, nu
    raise RuntimeError("parameter generator exhausted")


def _pipeline_certificate(name: str, make_algebra: Callable) -> Certificate:
    """Construct with full verification, decompose, then solve the
    commutation equation on the twisted algebra."""

    def run():
        algebra = make_algebra()
        cert = crossed.decompose(algebra)
        K = algebra.K
        f1, f2 = algebra.b1_pair()
        f = -K.a1 / f1
        # A_f = (f, a1)_2 (x) A twisted so gamma = z1 + al1 has a scalar power
        twisted = crossed.CrossedAlgebra(
            K, algebra.u, K.mul(algebra.b1, K.scalar(f)), algebra.b2,
            check="none")
        gamma = twisted.add(twisted.z1(), twisted.alpha1())
        pres = crossed.cyclic_to_symbol(twisted, gamma)
        c = -(K.a1 * f2) / f1
        verdict = {
            "branch": cert.branch,
            "identities": all(item["ok"] for item in cert.identities),
            "symbol": pres.ok,
            "c_prime": pres.c_prime == c * c * K.a2,
        }
        return verdict, {"decomposition": cert.to_json(),
                         "presentation": pres.to_json()}

    expected = {"branch": "generic", "identities": True, "symbol": True,
                "c_prime": True}
    return Certificate(name, run, expected)


def _accepted_certificate(ring: PolyRing, params: tuple) -> Certificate:
    e, g, t, lam, _, _ = params
    return _pipeline_certificate(
        f"accepted({e},{g},{t},{lam})",
        lambda: crossed.instance_from_symbol(
            2, *(ring.element(x) for x in (e, g, t, lam)), ring=ring,
            check="full"))


def _trace_certificate(ring: PolyRing, params: tuple) -> Certificate:
    def run():
        algebra = crossed.instance_from_symbol(
            2, *(ring.element(x) for x in params[:4]), ring=ring,
            check="full", mu=ring.element(params[4]),
            nu=ring.element(params[5]))
        td = quadforms.trace_data(algebra)
        report = quadforms.replay_trace_form_equivalence(td)
        verdict = {
            "identities": all(c["ok"] for c in td.checks),
            "replay": bool(report["ok"] and report["final_matches_equiv_form"]),
            "dims": [report["start_dim"], report["final_dim"]],
            "four_generators": report["audit"]["only_four_generators"],
        }
        payload = {
            "trace": {k: str(v) for k, v in td.values().items()},
            "replay": {k: report[k] for k in (
                "reading", "start_dim", "moves", "final_dim",
                "final_matches_equiv_form", "ok")},
        }
        return verdict, payload

    expected = {"identities": True, "replay": True, "dims": [20, 16],
                "four_generators": True}
    name = "trace(" + ",".join(str(x) for x in params) + ")"
    return Certificate(name, run, expected)


def _perturbed_certificates(ring: PolyRing, params: tuple) -> list:
    """The four known-bad parameter sets derived from one good instance."""
    e, g, t, lam, _, _ = params
    base = crossed.instance_from_symbol(
        2, *(ring.element(x) for x in (e, g, t, lam)), ring=ring,
        check="none")
    K, u, b1, b2 = base.K, base.u, base.b1, base.b2
    perturbed = {
        "u->1": (K.one(), b1, b2),
        "u->2u": (K.scale(u, 2), b1, b2),
        "b1->b1(1+al2)": (u, K.mul(b1, K.add(K.one(), K.alpha2())), b2),
        "b2->b2(1+al1)": (u, b1, K.mul(b2, K.add(K.one(), K.alpha1()))),
    }

    def make(label, data):
        def run():
            try:
                crossed.CrossedAlgebra(K, *data, check="full")
            except crossed.CrossedError as exc:
                return "rejected", {"perturbation": label, "error": str(exc)}
            return "accepted", {"perturbation": label}
        return Certificate(f"rejected({e},{g},{t},{lam}):{label}", run,
                           "rejected")

    return [make(label, data) for label, data in perturbed.items()]


def _quartic_rational(rng: random.Random) -> Inputs:
    ring = PolyRing((), 4)
    gen = {"degenerate": 0, "split": 0, "resampled": 0}
    accepted = [_draw_quartic(rng, ring, gen, with_trace=False)
                for _ in range(ACCEPTED_PER_PASS)]
    traced = [_draw_quartic(rng, ring, gen, with_trace=True)
              for _ in range(TRACE_PER_PASS)]
    certs = [_accepted_certificate(ring, p) for p in accepted]
    certs += [_trace_certificate(ring, p) for p in traced]
    # perturbing every accepted instance makes rejections 8 of the 11
    # certificates, so the median certificate lies inside that group of
    # near-equal cost rather than on its edge
    for params in accepted:
        certs += _perturbed_certificates(ring, params)
    rng.shuffle(certs)
    return Inputs(certs, gen)


# ------------------------------------------------------------ quartic-symbolic


def _generic_certificate(ring: PolyRing) -> Certificate:
    gens = [ring.element(ring.var(v)) for v in ring.variables]
    return _pipeline_certificate(
        "generic(a1,a2,t,lam)",
        lambda: crossed.instance_from_symbol(2, *gens, ring=ring,
                                             check="full"))


def _bergman_certificate(m: int) -> Certificate:
    def run():
        cert = crossed.bergman_power(crossed.generic_cyclic_algebra(m))
        verdict = {"m": cert.m, "ok": cert.ok,
                   "computed_is_expected": cert.computed == cert.expected}
        return verdict, cert.to_json()

    return Certificate(f"bergman_power(m={m})", run,
                       {"m": m, "ok": True, "computed_is_expected": True})


def _quartic_symbolic(rng: random.Random) -> Inputs:
    # the inputs are symbolic, so the seed only fixes the order of requests
    ring = PolyRing(("a1", "a2", "t", "lam"), 4)
    certs = [_generic_certificate(ring)]
    certs += [_bergman_certificate(m) for m in (2, 3, 4, 5)]
    rng.shuffle(certs)
    return Inputs(certs)


# -------------------------------------------------------------- lattice-family


def _freepres_certificate(G, H, r: int, generators: list) -> Certificate:
    def run():
        seq = lattices.freepres_sequence(G, H, generators)
        report = lattices.is_exact(seq)
        faithful = lattices.is_faithful(seq.inner.source)
        verdict = {"exact": report.exact, "faithful": faithful}
        return verdict, {"exactness": report.to_json(),
                         "kernel_rank": seq.inner.source.rank,
                         "faithful": faithful}

    expected = {"exact": True,
                "faithful": lattices.faithful_predicate_freepres(G, H, r)}
    return Certificate(f"freepres({G.name},|H|={H.order},"
                       f"{H.sorted_members()},r={r})", run, expected)


def _seq2_certificate(G, H) -> Certificate:
    def run():
        seq = lattices.seq2_sequence(G, H)
        report = lattices.is_exact(seq)
        faithful = lattices.is_faithful(seq.inner.source)
        verdict = {"exact": report.exact, "faithful": faithful}
        return verdict, {"exactness": report.to_json(),
                         "kernel_rank": seq.inner.source.rank,
                         "faithful": faithful}

    expected = {"exact": True,
                "faithful": lattices.faithful_predicate_seq2(G, H)}
    return Certificate(f"seq2({G.name},|H|={H.order},{H.sorted_members()})",
                       run, expected)


def _formanek_certificate(n: int) -> Certificate:
    def run():
        seq, iso = lattices.formanek_sequence(n)
        report = lattices.is_exact(seq)
        det = snf.det(iso.matrix)
        verdict = {
            "exact": report.exact,
            "kernel_rank": seq.inner.source.rank,
            "iso_ranks": [iso.source.rank, iso.target.rank],
            "unimodular": det in (1, -1),
            "equivariant": iso.check_equivariance()
            and seq.outer.check_equivariance(),
        }
        return verdict, {"exactness": report.to_json(), "iso_det": det}

    expected = {"exact": True, "kernel_rank": n * n + 1,
                "iso_ranks": [n * n + 1, n * n + 1], "unimodular": True,
                "equivariant": True}
    return Certificate(f"formanek(n={n})", run, expected)


def _lattice_family(rng: random.Random) -> Inputs:
    # the family is fixed, so the seed only fixes the order of requests
    certs = []
    skipped = 0
    for G in groups.builtin_family():
        for H in groups.subgroups_up_to_conjugacy(G):
            r0, gens0 = groups.min_generators_rel(G, H, max_r=3)
            for r in (1, 2):
                if r0 > r:
                    skipped += 1   # no generating tuple of length r
                    continue
                pad = gens0[0] if gens0 else 1
                certs.append(_freepres_certificate(
                    G, H, r, list(gens0) + [pad] * (r - r0)))
            if G.order // H.order >= 2:
                certs.append(_seq2_certificate(G, H))
            else:
                skipped += 1       # index 1 has no tensor-square sequence
    certs += [_formanek_certificate(n) for n in (3, 4, 5)]
    rng.shuffle(certs)
    return Inputs(certs, {"skipped": skipped})
