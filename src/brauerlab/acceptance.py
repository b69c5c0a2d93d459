"""Acceptance checks shared by the test gate and the command-line selftest.

Each criterion takes the run seed and returns (verdict, details): True for
pass, False for fail, None for inconclusive, also when nothing was checked.
Details are plain deterministic strings (counts and witnesses, never
wall-clock), so a whole run serializes byte-identically under a fixed seed.
The nine criteria are registered in CRITERIA in their documented order;
run_all turns their results into check records (see checks.py).

The per-object producers (udn_checks, relation_kernel_checks,
tensor_square_checks, formanek_checks, trace_instance_checks) return the
check records that the matching CLI command emits unchanged;
decomposition_certificate returns a DecompositionCertificate, which
crossed-decompose emits whole as one check.  Each criterion derives its
problems from the names of the failing records, so a command and its
criterion check the same conditions.  The CLI also reuses the seeded
streams (seeded_rng, seeded_symbol_instances, quartic_trace_instance).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .bounds import d_bounds, tau_bound_crossed
from .checks import check, failing
from .crossed import (
    CrossedAlgebra,
    CrossedError,
    DecompositionCertificate,
    GradedTensor,
    SymbolAlgebra,
    bergman_power,
    crossed_from_data,
    cyclic_to_symbol,
    decompose,
    generic_cyclic_algebra,
    instance_from_symbol,
)
from .exactfield import PolyRing, is_square
from .factorsets import (
    FactorSet,
    check_cocycle,
    check_equivariance,
    is_normalized,
    is_reduced,
    normalized_factor_set,
    udn_factor_set,
    wedge_membership,
)
from .groups import (
    PermutationGroup,
    Subgroup,
    builtin_family,
    min_generators_rel,
    subgroups_up_to_conjugacy,
    symmetric_group,
)
from .lattices import (
    faithful_predicate_freepres,
    faithful_predicate_seq2,
    formanek_sequence,
    freepres_sequence,
    is_exact,
    is_faithful,
    pair_basis_iso,
    seq2_sequence,
)
from .quadforms import (
    QuadFormError,
    TraceData,
    diagonal,
    direct_sum,
    hyperbolic_sufficient,
    replay_trace_form_equivalence,
    trace_data,
    trace_form,
)


def seeded_rng(seed: int, slug: str) -> random.Random:
    # string seeding hashes the bytes, stable across runs and platforms
    return random.Random(f"{seed}/{slug}")


def _nonzero(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top))


# ------------------------------------------------------------- 1: factor sets


def udn_entry_failures(cp: FactorSet) -> tuple[list, list]:
    """The (i, j, h) triples of a normalized UD(n) factor set whose entry
    escapes the wedge, and those whose product with the reversed entry
    (h, j, i) is nontrivial, each in lexicographic order."""
    n = cp.n
    escapes, breaks = [], []
    for i, j, h in itertools.product(range(1, n + 1), repeat=3):
        m = cp[(i, j, h)]
        if wedge_membership(m) is None:
            escapes.append((i, j, h))
        if not (m * cp[(h, j, i)]).is_trivial():
            breaks.append((i, j, h))
    return escapes, breaks


def udn_checks(n: int, mode: str = "all") -> list:
    """The UD(n) factor-set checks that ``mode`` selects ("all", "cocycle",
    "equivariance", "wedge" or "normalization"): the cocycle identity and
    equivariance of the raw factor set, then, for odd n, the predicates,
    reversal products, equivariance and wedge membership of the normalized
    one."""
    raw = udn_factor_set(n)
    records = []
    if mode in ("all", "cocycle"):
        records.append(check_cocycle(raw))
    if mode in ("all", "equivariance"):
        records.append(check_equivariance(raw, "equivariance-raw"))
    if mode in ("all", "wedge", "normalization"):
        cp = normalized_factor_set(n)
        escapes, breaks = udn_entry_failures(cp)
        if mode in ("all", "normalization"):
            records.append(check("reduced-normalized-predicates",
                                 is_reduced(cp) and is_normalized(cp),
                                 "degenerate entries trivial, reversal products trivial"))
            records.append(check("reversal-products", not breaks,
                                 f"{n ** 3} products, {len(breaks)} nontrivial"))
        if mode == "all":
            records.append(check_equivariance(cp, "equivariance-normalized"))
        if mode in ("all", "wedge"):
            records.append(check("wedge-membership", not escapes,
                                 f"{n ** 3} entries, {len(escapes)} escapes"))
    return records


def check_udn_factor_sets(seed: int):
    problems = []
    entries = 0
    for n in (5, 7):
        problems += [f"n={n}: {name} fails" for name in failing(udn_checks(n))]
        entries += n ** 3
    if problems:
        return False, "; ".join(problems[:6])
    return True, (
        f"n=5 and n=7: raw cocycle identity and raw equivariance, {entries} "
        f"wedge memberships, {entries} reversal products, normalized equivariance"
    )


# ------------------------------------------- 2 and 3: lattice family sweeps


def relation_kernel_checks(group: PermutationGroup, subgroup: Subgroup,
                           r: int) -> Optional[list]:
    """One (G, H, r) relation-kernel instance: exactness plus the
    faithfulness-iff-(r >= 2 or H nontrivial) comparison, as the check
    "relation-kernel"; None when no generating tuple of length r exists."""
    r0, gens0 = min_generators_rel(group, subgroup, max_r=3)
    if r0 > r:
        return None
    pad = gens0[0] if gens0 else 1
    seq = freepres_sequence(group, subgroup, list(gens0) + [pad] * (r - r0))
    exact = is_exact(seq).exact
    faithful = is_faithful(seq.inner.source)
    predicted = faithful_predicate_freepres(group, subgroup, r)
    return [check(
        "relation-kernel",
        exact and faithful == predicted,
        {"exact": exact, "kernel_rank": seq.inner.source.rank,
         "faithful": faithful, "predicted": predicted, "r": r},
    )]


def check_relation_kernel_family(seed: int):
    checked = skipped = 0
    problems = []
    for group in builtin_family():
        for subgroup in subgroups_up_to_conjugacy(group):
            for r in (1, 2):
                records = relation_kernel_checks(group, subgroup, r)
                if records is None:
                    skipped += 1
                    continue
                checked += 1
                problems += [f"{group.name}/|H|={subgroup.order}/r={r}: {name} fails"
                             for name in failing(records)]
    if problems:
        return False, "; ".join(problems[:6])
    return True if checked else None, (
        f"{checked} (G, H, r) triples match the predicate; "
        f"{skipped} skipped with no length-r generating tuple"
    )


def tensor_square_checks(group: PermutationGroup, subgroup: Subgroup) -> Optional[list]:
    """One (G, H) tensor-square instance: exactness, the pair-basis map
    verified column by column against its defining rule and unimodular by
    its row certificate, and faithfulness against the core/index rule, as
    the check "tensor-square"; None at index 1."""
    n = group.order // subgroup.order
    if n < 2:
        return None
    seq = seq2_sequence(group, subgroup)
    exact = is_exact(seq).exact
    iso = pair_basis_iso(seq)
    columns = iso.columns
    pidx = seq.inner.target.pair_index

    # defining rule: mixed slot (i, c) -> pair (i, c) - pair (0, c), with
    # the degenerate pair (x, x) dropped
    rule_ok = True
    for i in range(1, n):
        for c in range(n):
            col = (i - 1) * n + c
            expect = {}
            if i != c:
                expect[pidx[(i, c)]] = 1
            if c != 0:
                expect[pidx[(0, c)]] = expect.get(pidx[(0, c)], 0) - 1
            if dict(columns[col]) != expect:
                rule_ok = False

    # a square map with a verified unit-triangular row certificate is
    # invertible over Z
    unimodular = iso.source.rank == iso.target.rank and iso.is_injective_saturated()

    faithful = is_faithful(seq.inner.source)
    predicted = faithful_predicate_seq2(group, subgroup)
    return [check(
        "tensor-square",
        exact and rule_ok and unimodular and faithful == predicted,
        {"exact": exact, "basis_rule": rule_ok, "unimodular": unimodular,
         "faithful": faithful, "predicted": predicted},
    )]


def check_tensor_square_family(seed: int):
    checked = skipped = 0
    problems = []
    for group in builtin_family():
        for subgroup in subgroups_up_to_conjugacy(group):
            records = tensor_square_checks(group, subgroup)
            if records is None:
                skipped += 1
                continue
            checked += 1
            problems += [f"{group.name}/|H|={subgroup.order}: {name} fails"
                         for name in failing(records)]
    if problems:
        return False, "; ".join(problems[:6])
    return True if checked else None, (
        f"{checked} (G, H) pairs: exact, pair-basis map verified with its "
        f"row certificate, faithfulness matches core/index rule; "
        f"{skipped} index-1 pairs skipped"
    )


# --------------------------------------------------- 4: symmetric-group kernel


def formanek_checks(n: int) -> list:
    """The symmetric-group kernel sequence for S_n: exactness, kernel rank
    n^2 + 1, and an equivariant splitting, unimodular as a square map with
    a verified row certificate."""
    seq, iso = formanek_sequence(n)
    rank = seq.inner.source.rank
    return [
        check("sequence-exact", is_exact(seq).exact, f"kernel rank {rank}"),
        check("kernel-rank", rank == n * n + 1, f"rank {rank}, expected n^2 + 1"),
        check("splitting-unimodular",
              iso.source.rank == iso.target.rank == n * n + 1
              and iso.is_injective_saturated(),
              f"rank {iso.source.rank} to {iso.target.rank}, row certificate"),
        check("splitting-equivariant",
              iso.check_equivariance() and seq.outer.check_equivariance(),
              "splitting and outer map commute with the S_n generators"),
    ]


def check_formanek_kernel(seed: int):
    problems = [f"n={n}: {name} fails"
                for n in (3, 4, 5) for name in failing(formanek_checks(n))]
    if problems:
        return False, "; ".join(problems)
    return True, ("n in 3..5: exact, kernel rank n^2+1, unimodular "
                  "equivariant splitting")


# ------------------------------------------------------------------ 5: bounds


def check_parameter_bounds(seed: int):
    problems = []
    rep4 = d_bounds(4)
    if (rep4.lower, rep4.upper) != (5, 5):
        problems.append(f"d(4) = ({rep4.lower}, {rep4.upper}), want (5, 5)")
    rep5 = d_bounds(5)
    if rep5.upper != 6 or "wedge" not in rep5.upper_citation:
        problems.append(f"d(5) upper = {rep5.upper} ({rep5.upper_citation})")
    for n in range(5, 100, 2):
        wedge = (n - 1) * (n - 2) // 2
        rowen = wedge + n
        formulas = " | ".join(f for f, _ in d_bounds(n).provenance)
        if f"= {wedge}" not in formulas or f"= {rowen}" not in formulas:
            problems.append(f"odd n={n}: wedge/Rowen values missing")
            break
    s5 = symmetric_group(5)
    s4 = s5.subgroup(["(1 2)", "(1 2 3 4)"])
    tau = tau_bound_crossed(s5, s4)
    if tau.upper != 116:
        problems.append(f"crossed tau bound = {tau.upper}, want 116")
    if problems:
        return False, "; ".join(problems)
    return True, ("d(4) = (5, 5); d(5) <= 6 by the wedge count; odd n in "
                  "5..99 wedge = Rowen - n; S5/S4 crossed bound 116")


# --------------------------------------------------- 6: power cancellation


def check_power_cancellation(seed: int):
    problems = []
    for m in (2, 3, 4, 5):
        cert = bergman_power(generic_cyclic_algebra(m))
        if not (cert.ok and cert.m == m and cert.computed == cert.expected):
            problems.append(f"m={m}: power identity fails")
    if problems:
        return False, "; ".join(problems)
    return True, "(z1 + al1)^m = b1 + a1 on fully symbolic data, m in 2..5"


# ------------------------------------------------- 7: decomposition pipeline


def draw_symbol_params(rng: random.Random, count: int) -> tuple:
    """``count`` nonzero rationals (e, g, t, lam, ...) for
    instance_from_symbol, avoiding the structural degeneracies g = t^2
    (zero divisor in the splitter) and g = -t^2 (f2 = 0)."""
    while True:
        params = tuple(_nonzero(rng) for _ in range(count))
        g, t = params[1], params[2]
        if g not in (t * t, -t * t):
            return params


def seeded_symbol_instances(seed: int, ring: PolyRing, count: int):
    """Up to ``count`` degree-4 instances from the seeded "decomposition"
    stream, as ((e, g, t, lam), algebra, resampled so far).

    A draw the constructor rejects is redrawn; after more than 50 such
    resamples the stream is exhausted and stops short of ``count``.
    """
    rng = seeded_rng(seed, "decomposition")
    done = resampled = 0
    while done < count:
        params = draw_symbol_params(rng, 4)
        try:
            algebra = instance_from_symbol(
                2, *(ring.element(x) for x in params), ring=ring, check="full")
        except CrossedError:
            resampled += 1
            if resampled > 50:
                return
            continue
        yield params, algebra, resampled
        done += 1


def decomposition_certificate(algebra: CrossedAlgebra) -> DecompositionCertificate:
    """The certificate of ``decompose``.  On a cyclic branch that passes
    (either value of f1), it also carries the records of the symbol
    presentation of A_f that ``cyclic_to_symbol`` builds from the
    certificate's gamma, then one tie record, gamma-power-2m (c' = c^2 a2:
    the presentation's gamma^2m = c' agrees with the twist's
    gamma^m = c al2), and c', d' and delta among its witnesses."""
    cert = decompose(algebra)
    if cert.twisted is None or not cert.ok:
        return cert
    pres = cyclic_to_symbol(cert.twisted, cert.gamma)
    tie = pres.c_prime == cert.c * cert.c * algebra.K.a2
    cert.identities += pres.checks + [check("gamma-power-2m", tie, "c' = c^2*a2")]
    payload = pres.to_json()
    cert.witnesses.update((key, payload[key]) for key in ("c_prime", "d_prime", "delta"))
    return cert


def check_decomposition_pipeline(seed: int):
    ring = PolyRing(("a1", "a2", "t", "lam"), 4)
    gens = [ring.element(ring.var(v)) for v in ring.variables]
    algebra = instance_from_symbol(2, *gens, ring=ring, check="full")
    cert = decomposition_certificate(algebra)
    if not cert.ok:
        return False, f"symbolic generic run: failing {failing(cert.identities)}"

    rq = PolyRing((), 4)
    done = resampled = 0
    for (e, g, t, lam), algebra, resampled in seeded_symbol_instances(seed, rq, 20):
        cert = decomposition_certificate(algebra)
        if not cert.ok:
            return False, f"instance ({e},{g},{t},{lam}): failing {failing(cert.identities)}"
        done += 1
    if done < 20:
        return False, "instance generator exhausted"

    for branch, algebra in (
            ("f1-zero-cyclic", instance_from_symbol(2, 3, 5, 0, 1, ring=rq, check="full")),
            ("f2-zero-split-quaternion", crossed_from_data(2, 3, 5, 1, 7, 11, ring=rq,
                                                           check="full"))):
        cert = decomposition_certificate(algebra)
        if not (cert.ok and cert.branch == branch):
            return False, f"{branch} branch: {cert.branch}, failing {failing(cert.identities)}"
    return True, (
        f"symbolic generic run, 20 rational instances ({resampled} resampled), "
        "and both degenerate branches certified"
    )


# ------------------------------------------------------ 8: trace-form chain


def quartic_trace_instance(ring: PolyRing, rng: random.Random):
    """A seeded degree-4 instance with full trace data; resamples the
    measure-zero residual degeneracies, at most 50 times."""
    resampled = 0
    while True:
        e, g, t, lam, mu, nu = draw_symbol_params(rng, 6)
        try:
            algebra = instance_from_symbol(
                2, ring.element(e), ring.element(g), ring.element(t),
                ring.element(lam), ring=ring, check="full",
                mu=ring.element(mu), nu=ring.element(nu))
            return trace_data(algebra), resampled
        except (CrossedError, QuadFormError):
            resampled += 1
            if resampled > 50:
                raise


def trace_instance_checks(td: TraceData, k: int) -> list:
    """The checks of trace-form instance k: its trace identities, the
    20 -> 16 move certificate replayed onto the reduced form with its
    four-generator audit, and the invariant cross-checks of the replay."""
    report = replay_trace_form_equivalence(td)
    start, final = report["start_form"], report["final_form"]
    target = report["target_form"]
    # the moves are isometries of the trace field (which contains i),
    # so the sound cross-checks are the rank drop and the discriminant
    # square class there
    restored = direct_sum(final, diagonal([1, -1, 1, -1], ring=td.ring))
    disc = td.ring.element(1)
    for e in list(start.entries) + list(restored.entries):
        disc = disc * e
    square_class_ok = is_square(disc) is not None
    return [
        check(f"instance-{k}-trace-identities", not failing(td.checks),
              {"trace_data": {n: str(v) for n, v in td.values().items()},
               "identity_checks": td.checks}),
        check(f"instance-{k}-move-certificate",
              report["ok"] and start.dim == 20 and final.dim == 16,
              {"serre_form": [str(e) for e in start.entries],
               "equiv_form": target.audit["entries"],
               "generator_legend": target.generator_legend,
               "moves": [m.to_json() for m in report["move_list"]],
               "start_dim": start.dim, "final_dim": final.dim,
               "matches_reduced_form": report["final_matches_equiv_form"],
               "four_generator_audit": target.audit["only_four_generators"]}),
        check(f"instance-{k}-invariant-cross-checks",
              start.dim - final.dim == 4 and square_class_ok,
              {"rank_drop": start.dim - final.dim,
               "discriminant_square_class_preserved": square_class_ok}),
    ]


def check_trace_form_certificates(seed: int):
    ring = PolyRing((), 4)
    rng = seeded_rng(seed, "traceform")
    resampled_total = 0
    for k in range(10):
        try:
            td, resampled = quartic_trace_instance(ring, rng)
        except (CrossedError, QuadFormError):
            return False, f"instance {k}: generator exhausted"
        resampled_total += resampled
        bad = failing(trace_instance_checks(td, k))
        if bad:
            return False, f"instance {k}: {bad} fail"
    return True, (
        f"10 instances ({resampled_total} resampled): trace identities with "
        "the quartic-root witness, 20 -> 16 move replay onto the reduced "
        "form, four-generator entry audit, discriminant square-class cross-check"
    )


# ----------------------------------------------------- 9: split trace forms


def check_split_trace_forms(seed: int):
    rng = seeded_rng(seed, "split-trace-forms")
    problems = []
    ring = PolyRing((), 4)
    # (1, 1)_2 is M_2(F): x^2 = 1 makes (1 + x)(1 - x) = 0, so it is split
    matrices = SymbolAlgebra(ring, 1, 1, 2)
    form = trace_form(matrices)
    if form.entries != [ring.element(v) for v in (2, 2, 2, -2)]:
        problems.append("2x2 matrix trace form is not <2, 2, 2, -2>")
    if hyperbolic_sufficient(form) is None:
        problems.append("2x2 matrix trace form does not pair")
    for _ in range(5):
        a = rng.choice([-1, 1]) * rng.randint(1, 30)
        b = rng.choice([-1, 1]) * rng.randint(1, 30)
        quaternion = SymbolAlgebra(ring, ring.element(a), ring.element(b), 2)
        form = trace_form(GradedTensor(matrices, quaternion))
        # grade (g, g') carries 4 c(g, g) c'(g', g'), in grade order
        expected = [ring.element(4 * u * v) for u in (1, 1, 1, -1)
                    for v in (1, b, a, -a * b)]
        if form.entries != expected:
            problems.append(f"matrix-of-quaternion ({a},{b}) trace form is not "
                            "4<1, 1, 1, -1> x <1, b, a, -ab>")
        cert = hyperbolic_sufficient(form)
        if cert is None or len(cert["pairs"]) != 8:
            problems.append(f"matrix-of-quaternion ({a},{b}) does not pair")
    if problems:
        return False, "; ".join(problems[:6])
    return True, ("matrix and 5 matrix-of-quaternion trace forms match "
                  "their known values and fully pair")


# ----------------------------------------------------------------- registry


CRITERIA = (
    ("udn-normalized-factor-sets", check_udn_factor_sets),
    ("relation-kernel-faithfulness-family", check_relation_kernel_family),
    ("tensor-square-faithfulness-family", check_tensor_square_family),
    ("formanek-kernel-splitting", check_formanek_kernel),
    ("parameter-count-bounds", check_parameter_bounds),
    ("power-cancellation-identity", check_power_cancellation),
    ("quartic-decomposition-pipeline", check_decomposition_pipeline),
    ("quartic-trace-form-certificates", check_trace_form_certificates),
    ("split-trace-forms", check_split_trace_forms),
)


def run_all(seed: int, indices: Optional[list] = None) -> list[dict]:
    """The check records of the criteria at ``indices`` (default all), in
    that order."""
    idx = list(indices) if indices is not None else list(range(len(CRITERIA)))
    return [check(CRITERIA[i][0], *CRITERIA[i][1](seed)) for i in idx]
