"""Exact quadratic form toolkit over the symbolic scalar fields.

A form is a list of nonzero diagonal entries over a PolyRing.  Witt moves
are small rewriting steps on such forms, each carrying a witness that is
re-verified on replay, so a move list is a machine-checkable certificate of
an isometry (or, when hyperbolic pairs are cancelled, of a Witt
equivalence).

trace_form reads the reduced-trace form of a twisted group algebra
sum F e_g (a symbol algebra, or a tensor product of them) off its factor-set
table: Trd(e_g e_h) vanishes unless gh = 1, so the form is diagonal up to
hyperbolic planes and comes out diagonal.  trace_data extracts, from a
degree-4 crossed product, the quadratic-subfield traces and norms of the
three squared slot generators; serre_form and equiv_form build the
associated diagonal forms, and witt_derive_equivalence links them by an
explicit move certificate.  equiv_form builds each entry as a triple
(text, generators used, value), so its audit reads the generators each
entry uses and its texts off the same construction that gives the values.
"""

from math import isqrt
from typing import Optional, Sequence

from .checks import check, failing
from .crossed import FieldScalars
from .exactfield import FieldElement, PolyRing, is_square


class QuadFormError(ValueError):
    pass


def _zeta4(ring: PolyRing) -> FieldElement:
    if ring.conductor % 4 != 0:
        raise QuadFormError("need a square root of -1: conductor not divisible by 4")
    return ring.element(ring.zeta(ring.conductor // 4))


# ------------------------------------------------------------------------ forms


class QuadraticForm:
    """Nonzero diagonal entries over a PolyRing."""

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = [ring.element(e) for e in entries]
        if any(e.is_zero() for e in self.entries):
            raise QuadFormError("zero entry")

    @property
    def dim(self) -> int:
        return len(self.entries)


def diagonal(entries: Sequence, ring: PolyRing) -> QuadraticForm:
    return QuadraticForm(ring, entries)


def direct_sum(left: QuadraticForm, right: QuadraticForm) -> QuadraticForm:
    return QuadraticForm(left.ring, left.entries + right.entries)


def pfister(slots: Sequence, ring: PolyRing) -> QuadraticForm:
    """Tensor of the binary forms <1, a_i>; dimension 2^r.

    Entry order follows the subset bitmask: entry b is the product of the
    slots whose bit is set, so pfister([a]) is <1, a> and pfister([a, b])
    is <1, a, b, a*b>.
    """
    base = diagonal(slots, ring)
    out = [ring.element(1)]
    for a in base.entries:
        out = out + [e * a for e in out]
    return QuadraticForm(ring, out)


# ----------------------------------------------------------------- trace forms


def trace_form(algebra) -> QuadraticForm:
    """Diagonal form of (x, y) -> Trd(xy) on a twisted group algebra over F.

    Left multiplication by e_g sends e_h to c(g, h) e_(gh), so its regular
    trace is the sum of c(g, h) over the h with gh = h; it is checked to be
    n^2 at the unit and 0 elsewhere, n^2 being the number of grades.  Then
    Trd(sum a_g e_g) = n a_1, so Trd(e_g e_h) = n c(g, h) when gh = 1 and 0
    otherwise.  An involution g gives the entry n c(g, g); a pair
    g != g^-1 with b = n c(g, g^-1) gives <2b, -2b> on the basis
    e_g + e_(g^-1), e_g - e_(g^-1).  Entries follow the grades, a pair at
    its first member.
    """
    if not isinstance(algebra.coeffs, FieldScalars):
        raise QuadFormError("trace forms need an algebra over F with trivial action")
    ring = algebra.coeffs.ring
    grades = algebra.grades
    unit = grades[0]
    n = isqrt(len(grades))
    if n * n != len(grades):
        raise QuadFormError("algebra dimension is not the square of its degree")
    zero, one = ring.element(0), ring.element(1)

    def c(g, h):
        value = algebra.entry(g, h)[1]
        return one if value is None else value

    inverse = {}
    for g in grades:
        trace = zero
        for h in grades:
            gh = algebra.entry(g, h)[0]
            if gh == h:
                trace = trace + c(g, h)
            if gh == unit:
                inverse[g] = h
        if not trace == (n * n if g == unit else zero):
            raise QuadFormError("regular trace is not n^2 at the unit and 0 elsewhere")

    entries = []
    for g in grades:
        h = inverse[g]
        if h == g:
            entries.append(n * c(g, g))
        elif grades.index(g) < grades.index(h):
            b = n * c(g, h)
            entries += [2 * b, -2 * b]
    return QuadraticForm(ring, entries)


# ------------------------------------------------------------------- trace data


class TraceData:
    """Subfield traces t_i and norms n_i of the three squared slot generators.

    For a degree-4 crossed product with slots z1, z2 and z3 = (z1 z2)^-1,
    each square z_i^2 lies in the quadratic subfield fixed by the matching
    involution, so it has a trace and a norm down to the scalar field.
    t_i is half the trace; n_i is the norm.
    """

    def __init__(self, ring, t1, t2, t3, n1, n2, n3, checks=None):
        self.ring = ring
        self.t1 = ring.element(t1)
        self.t2 = ring.element(t2)
        self.t3 = ring.element(t3)
        self.n1 = ring.element(n1)
        self.n2 = ring.element(n2)
        self.n3 = ring.element(n3)
        self.checks = checks or []

    def values(self) -> dict:
        return {
            "t1": self.t1, "t2": self.t2, "t3": self.t3,
            "n1": self.n1, "n2": self.n2, "n3": self.n3,
        }


def _half_trace_and_norm(component_pairs, square):
    # element g + h*alpha with alpha^2 = square: half-trace g, norm g^2 - h^2*square
    g, h = component_pairs
    return g, g * g - h * h * square


def trace_data(algebra) -> TraceData:
    """Trace data of a degree-4 crossed product, with the input identities
    re-verified.

    The three squares are b1 = z1^2 in F(al2), b2 = z2^2 in F(al1) (both
    memberships enforced by the CrossedAlgebra constructor), and
    b3 = (z1 z2)^-2 in F(al1 al2); b3 is computed inside the algebra and its
    membership in the third quadratic subfield is checked.  With
    b1 = f1 + f2 al2 the identities t1 = f1 and n1 - t1^2 = (i f2)^2 a2 hold
    on the nose (i a fourth root of unity), and both are recorded as checks.
    """
    K = algebra.K
    if K.m != 2:
        raise ValueError("trace data needs a degree-4 algebra (m = 2)")
    ring = algebra.ring
    zero = ring.element(0)
    a1, a2 = K.a1, K.a2

    b1 = algebra.b1
    b2 = algebra.b2
    t1, n1 = _half_trace_and_norm((b1.get((0, 0), zero), b1.get((0, 1), zero)), a2)
    t2, n2 = _half_trace_and_norm((b2.get((0, 0), zero), b2.get((1, 0), zero)), a1)
    for t, n in ((t1, n1), (t2, n2)):
        if t.is_zero() or (n - t * t).is_zero():
            raise QuadFormError("degenerate: some t_i = 0 or n_i - t_i^2 = 0")

    f1, f2 = algebra.b1_pair()
    i4 = _zeta4(ring)
    witness = i4 * f2
    checks = [
        check("t1-equals-b1-scalar-part", t1 == f1),
        check("norm-deficit-is-square-times-a2", n1 - t1 * t1 == witness * witness * a2,
              str(witness)),
    ]
    if failing(checks):
        raise QuadFormError("trace data identities failed")

    w = algebra.mul(algebra.z1(), algebra.z2())
    w2 = algebra.power(w, 2)
    # (z1 z2)^2 must be a pure K coefficient at the identity word
    for word, coeff in w2.items():
        if word != (0, 0) and any(not c.is_zero() for c in coeff.values()):
            raise QuadFormError("(z1 z2)^2 left the coefficient field")
    if (0, 0) not in w2:
        raise QuadFormError("(z1 z2)^2 vanished")
    square = w2[(0, 0)]
    for key in square:
        if key not in ((0, 0), (1, 1)) and not square[key].is_zero():
            raise QuadFormError("(z1 z2)^2 outside the subfield F(al1 al2)")
    p = square.get((0, 0), zero)
    q = square.get((1, 1), zero)
    # with N the subfield norm of p + q al1 al2: t3 = p/N, n3 = 1/N, so
    # t3 = 0 iff p = 0 and n3 - t3^2 = -q^2 a1 a2 / N^2 = 0 iff q = 0;
    # gate on p, q before touching the larger products
    if p.is_zero() or q.is_zero():
        raise QuadFormError("degenerate: some t_i = 0 or n_i - t_i^2 = 0")
    # invert inside the quadratic subfield: conjugate over norm, much
    # cheaper than the full Galois cofactor
    norm = p * p - q * q * a1 * a2
    if norm.is_zero():
        raise QuadFormError("(z1 z2)^2 is not invertible")
    t3 = p / norm
    n3 = norm.inverse()
    return TraceData(ring, t1, t2, t3, n1, n2, n3, checks=checks)


def _check_hypothesis(td: TraceData) -> None:
    for t, n in ((td.t1, td.n1), (td.t2, td.n2), (td.t3, td.n3)):
        if t.is_zero() or n.is_zero() or (n - t * t).is_zero():
            raise QuadFormError("hypothesis violated")


def serre_form(td: TraceData) -> QuadraticForm:
    """Direct sum of the 2-fold and 4-fold Pfister forms built from the trace
    data; dimension 20.

    The first slot of the 4-fold factor is t1^2 - n1, the reading the move
    certificate links to the reduced form (a transposed reading t1 - n1^2
    also circulates; it leaves no common term to cancel).  The hypothesis,
    all t_i, n_i and n_i - t_i^2 nonzero, is enforced.
    """
    _check_hypothesis(td)
    q2 = pfister([td.n1 - td.t1 * td.t1, td.n2], ring=td.ring)
    q4 = pfister(
        [td.t1 * td.t1 - td.n1, (td.n2 - td.t2 * td.t2) * td.n2,
         td.t1 * td.t2, td.t2 * td.t3],
        ring=td.ring,
    )
    return direct_sum(q2, q4)


EQUIV_GENERATORS = ("g1", "g2", "g3", "g4")


def _times(a: tuple, b: tuple) -> tuple:
    """Product of two entry triples (text, generators used, value)."""
    return f"({a[0]}*{b[0]})", a[1] | b[1], a[2] * b[2]


def equiv_form(td: TraceData) -> QuadraticForm:
    """The reduced 16-dimensional form, every entry built from the four
    generators g1 = n1/t1^2, g2 = n2/t2^2, g3 = t1 t2, g4 = t2 t3.

    Each entry is a triple (text, generators used, value); products nest to
    the left, with texts such as "(1 - g1)" and "((1 - g2)*g2)".
    ``form.audit`` checks that every entry uses only EQUIV_GENERATORS, which
    bounds the transcendence degree of the field the entries generate by 4,
    and lists the texts; ``form.generator_legend`` names each generator.
    """
    ring = td.ring
    if td.t1.is_zero() or td.t2.is_zero():
        raise QuadFormError("zero denominator")
    t1sq = td.t1 * td.t1
    t2sq = td.t2 * td.t2
    g1 = ("g1", {"g1"}, td.n1 / t1sq)
    g2 = ("g2", {"g2"}, td.n2 / t2sq)
    g3 = ("g3", {"g3"}, td.t1 * td.t2)
    g4 = ("g4", {"g4"}, td.t2 * td.t3)
    one = ring.element(1)
    y = ("(1 - g1)", g1[1], one - g1[2])
    w = _times(("(1 - g2)", g2[1], one - g2[2]), g2)
    wg3 = _times(w, g3)
    second = [g2, w, g3, wg3, g4, _times(w, g4), _times(g3, g4), _times(wg3, g4)]
    entries = second + [_times(y, s) for s in second]
    form = diagonal([value for _, _, value in entries], ring=ring)
    form.generator_legend = {
        "g1": "n1/t1^2",
        "g2": "n2/t2^2",
        "g3": "t1*t2",
        "g4": "t2*t3",
    }
    form.audit = {
        "only_four_generators": all(used <= set(EQUIV_GENERATORS) for _, used, _ in entries),
        "generators": dict(form.generator_legend),
        "transcendence_degree_bound": len(EQUIV_GENERATORS),
        "entries": [text for text, _, _ in entries],
    }
    return form


# ------------------------------------------------------------------ Witt moves


class WittMove:
    """One verifiable step on a diagonal form.

    kind "scale":   entries[i] *= factor, witness^2 = factor.
    kind "negate":  entries[i] flips sign, witness^2 = -1.
    kind "permute": entries reordered, data is the permutation (new from old).
    kind "cancel":  entries i, j removed, witness has q_i*witness^2 = -q_j.
    kind "split":   no change; asserts the listed positions carry the stated
                    entries, naming a summand before it is cancelled.
    """

    KINDS = ("scale", "negate", "permute", "cancel", "split")

    def __init__(self, kind, indices, witness=None, factor=None,
                 expected=None, note=""):
        if kind not in self.KINDS:
            raise ValueError("unknown move kind: " + str(kind))
        self.kind = kind
        self.indices = list(indices)
        self.witness = witness
        self.factor = factor
        self.expected = expected
        self.note = note

    def describe(self) -> str:
        tail = " (" + self.note + ")" if self.note else ""
        return self.kind + " @ " + str(self.indices) + tail

    def to_json(self) -> dict:
        out = {"kind": self.kind, "indices": self.indices, "note": self.note}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.factor is not None:
            out["factor"] = self.factor.to_json()
        if self.expected is not None:
            out["expected"] = [e.to_json() for e in self.expected]
        return out

    @classmethod
    def from_json(cls, ring: PolyRing, data: dict) -> "WittMove":
        witness = data.get("witness")
        factor = data.get("factor")
        expected = data.get("expected")
        return cls(
            data["kind"],
            data["indices"],
            witness=FieldElement.from_json(ring, witness) if witness else None,
            factor=FieldElement.from_json(ring, factor) if factor else None,
            expected=[FieldElement.from_json(ring, e) for e in expected]
            if expected else None,
            note=data.get("note", ""),
        )


def witt_apply(form: QuadraticForm, moves: Sequence[WittMove]) -> QuadraticForm:
    """Replay a move list, re-verifying every witness; returns the final form.

    Indices refer to the current entry list, so a cancel shifts later
    positions.  Any failed witness aborts with the offending move named.
    """
    ring = form.ring
    entries = list(form.entries)

    def fail(move):
        raise QuadFormError("witness fails: " + move.describe())

    for move in moves:
        idx = move.indices
        if any(i < 0 or i >= len(entries) for i in idx):
            fail(move)
        if move.kind == "scale":
            if move.witness is None or move.factor is None:
                fail(move)
            if move.witness.is_zero() or not move.witness * move.witness == move.factor:
                fail(move)
            entries[idx[0]] = entries[idx[0]] * move.factor
        elif move.kind == "negate":
            if move.witness is None or not move.witness * move.witness == ring.element(-1):
                fail(move)
            entries[idx[0]] = -entries[idx[0]]
        elif move.kind == "permute":
            if sorted(idx) != list(range(len(entries))):
                fail(move)
            entries = [entries[i] for i in idx]
        elif move.kind == "cancel":
            i, j = idx
            if i == j or move.witness is None:
                fail(move)
            if not entries[i] * move.witness * move.witness == -entries[j]:
                fail(move)
            entries = [e for r, e in enumerate(entries) if r not in (i, j)]
        else:  # split
            if move.expected is None or len(move.expected) != len(idx):
                fail(move)
            for k, i in enumerate(idx):
                if not entries[i] == move.expected[k]:
                    fail(move)
    return QuadraticForm(ring, entries)


def witt_derive_equivalence(td: TraceData):
    """Move certificate from serre_form(td) to equiv_form(td).

    The chain is: flip signs so the 2-fold block and the 4-fold block share
    the unit slot pair, rescale by the squares t1^2, t2^2, t2^4 to reach the
    four-generator entries, exhibit the doubled summand <1, t1^2 - n1> (up
    to squares) on four positions, cancel it as two hyperbolic pairs (each
    doubled entry <a, a> is hyperbolic because -1 is a square), and permute
    into the reduced order.
    """
    _check_hypothesis(td)
    ring = td.ring
    i4 = _zeta4(ring)
    one = ring.element(1)
    t1, t2 = td.t1, td.t2
    t2sq = t2 * t2
    y = (t1 * t1 - td.n1) / (t1 * t1)

    moves = []
    for i in (1, 3, 6, 7, 10, 11, 14, 15, 18, 19):
        moves.append(WittMove("negate", [i], witness=i4))
    scale_plan = [
        (1, t1), (2, t2), (3, t1 * t2),
        (5, t1), (6, t2sq), (7, t1 * t2sq),
        (9, t1), (10, t2sq), (11, t1 * t2sq),
        (13, t1), (14, t2sq), (15, t1 * t2sq),
        (17, t1), (18, t2sq), (19, t1 * t2sq),
    ]
    for i, divisor in scale_plan:
        witness = divisor.inverse()
        moves.append(WittMove("scale", [i], witness=witness,
                              factor=witness * witness))
    moves.append(WittMove(
        "split", [0, 4, 1, 5], expected=[one, one, y, y],
        note="doubled common term <1, t1^2 - n1>, up to squares",
    ))
    moves.append(WittMove("cancel", [0, 4], witness=i4,
                          note="hyperbolic pair <1, 1>"))
    moves.append(WittMove("cancel", [0, 3], witness=i4,
                          note="hyperbolic pair <y, y>, y = 1 - n1/t1^2"))
    moves.append(WittMove(
        "permute", [0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15],
        note="interleave to the reduced order",
    ))
    return moves


def replay_trace_form_equivalence(td: TraceData) -> dict:
    """Build the certificate, replay it, and compare against the reduced form.

    Returns a report with the reading of the first slot (always
    "consistent", see serre_form), the move count, the final-form
    comparison, and the four-generator audit of the reduced form, together
    with the start form, the move list, the final form and the reduced form
    themselves.
    """
    start = serre_form(td)
    moves = witt_derive_equivalence(td)
    final = witt_apply(start, moves)
    target = equiv_form(td)
    matches = final.dim == target.dim and all(
        final.entries[i] == target.entries[i] for i in range(final.dim)
    )
    return {
        "reading": "consistent",
        "start_dim": start.dim,
        "moves": len(moves),
        "final_dim": final.dim,
        "final_matches_equiv_form": matches,
        "cancelled": "two hyperbolic pairs carrying <1, t1^2 - n1> twice, up to squares",
        "audit": target.audit,
        "ok": matches and target.audit["only_four_generators"],
        "start_form": start,
        "move_list": moves,
        "final_form": final,
        "target_form": target,
    }


# ---------------------------------------------------------- hyperbolic pairing


def hyperbolic_sufficient(q: QuadraticForm) -> Optional[dict]:
    """Greedy certificate that q is hyperbolic: pair entries whose ratio is a
    square.

    Needs a square root of -1 in the scalars, so each matched pair <a, b>
    with a/b square is isometric to <a, -a>, a hyperbolic plane.  Returns
    the pairing with cancel-ready witnesses, or None when some entry stays
    unmatched (inconclusive: pairing is only a sufficient test, and
    is_square decides only ratios with a rational value).
    """
    i4 = _zeta4(q.ring)
    if q.dim % 2 == 1:
        return None
    unpaired = list(range(q.dim))
    pairs = []
    while unpaired:
        i = unpaired[0]
        match = None
        for j in unpaired[1:]:
            root = is_square(q.entries[i] / q.entries[j])
            if root is not None:
                match = (j, root)
                break
        if match is None:
            return None
        j, root = match
        # witness w with q_i * w^2 = -q_j: w = i4 / root
        witness = i4 / root
        pairs.append({"indices": (i, j), "witness": witness})
        unpaired.remove(i)
        unpaired.remove(j)
    return {"pairs": pairs}
