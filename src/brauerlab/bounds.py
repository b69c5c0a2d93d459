"""Parameter-count bounds: d(n) aggregation and tau bounds for crossed
products, every number tagged with the formula and source it came from.

d(n) is the least number of parameters a degree-n division algebra can be
reduced to; the aggregator combines the classical inequalities (Procesi,
Lemire, Rost, Rowen) with the odd-degree wedge bound (n-1)(n-2)/2 and the
coprime splitting recursion. Bounds that need a primitive root of unity in
the base field only fire when the caller passes that assumption.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .exactfield import factorize
from .groups import PermutationGroup, Subgroup, cycles_string, min_generators_rel

ROOTS_FLAG = "primitive-root-of-unity"
_FLAG_ALIASES = {ROOTS_FLAG, "roots-of-unity", "assume-roots-of-unity"}

CITATIONS = {
    "procesi-n2": "Procesi: d(n) <= n^2",
    "lemire": "Lemire: d(n) <= n^2 - 3n + 1 for n >= 4",
    "rost-deg4": "Rost: d(4) = 5",
    "rowen-odd": "Rowen: d(n) <= (n-1)(n-2)/2 + n for odd n",
    "odd-wedge-bound": ("wedge factor-set construction: "
                        "d(n) <= (n-1)(n-2)/2 for odd n >= 5"),
    "cyclic-base-case": ("d(n) = 2 for n in {2,3,6} when the base field has "
                         "a primitive n-th root of unity (UD(n) is cyclic)"),
    "coprime-splitting": "d(ab) <= d(a) + d(b) for coprime a, b",
    "prime-power-lower": "d(p^r) >= 2r (essential dimension lower bound)",
    "tau-relation-module": ("crossed product on (G, H): "
                            "tau(A) <= r|G| - [G:H] + 1"),
}


class BoundReport:
    def __init__(self, quantity: str, assumptions: tuple[str, ...]):
        self.quantity = quantity
        self.assumptions = assumptions
        self.lower: Optional[int] = None
        self.lower_citation = ""
        self.upper: Optional[int] = None
        self.upper_citation = ""
        self.provenance: list[tuple[str, str]] = []
        self.notes: list[str] = []

    def record_upper(self, value: int, key: str, formula: str):
        self.provenance.append((formula, CITATIONS[key]))
        if self.upper is None or value < self.upper:
            self.upper = value
            self.upper_citation = CITATIONS[key]

    def record_lower(self, value: int, key: str, formula: str):
        self.provenance.append((formula, CITATIONS[key]))
        if self.lower is None or value > self.lower:
            self.lower = value
            self.lower_citation = CITATIONS[key]

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "assumptions": list(self.assumptions),
            "lower": self.lower,
            "lower_citation": self.lower_citation,
            "upper": self.upper,
            "upper_citation": self.upper_citation,
            "provenance": [list(p) for p in self.provenance],
            "notes": list(self.notes),
        }

    def __repr__(self) -> str:
        return (f"<BoundReport {self.quantity}: "
                f"{self.lower} <= . <= {self.upper}>")


def _normalize_assumptions(assumptions) -> tuple[str, ...]:
    flags = ({assumptions} if isinstance(assumptions, str)
             else set(assumptions or ()))
    unknown = sorted(flags - _FLAG_ALIASES)
    if unknown:
        raise ValueError(f"unknown assumption {unknown[0]!r}; choose from "
                         f"{sorted(_FLAG_ALIASES)}")
    return (ROOTS_FLAG,) if flags else ()


@lru_cache(maxsize=None)
def _upper(n: int, flags: tuple[str, ...]) -> int:
    # memoized, so the coprime recursion visits each divisor once
    return d_bounds(n, flags).upper


def d_bounds(n: int, assumptions: Iterable[str] = ()) -> BoundReport:
    """Best known lower/upper bounds for the parameter count d(n)."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    flags = _normalize_assumptions(assumptions)
    roots = ROOTS_FLAG in flags
    rep = BoundReport(f"d({n})", flags)

    rep.record_upper(n * n, "procesi-n2", f"d({n}) <= {n}^2 = {n * n}")
    if n == 4:
        # Recorded ahead of Lemire (which ties at 5) so the exact value
        # keeps the citation.
        rep.record_upper(5, "rost-deg4", "d(4) = 5")
    if n >= 4:
        v = n * n - 3 * n + 1
        rep.record_upper(v, "lemire", f"d({n}) <= {n}^2-3*{n}+1 = {v}")
    if n % 2:
        v = (n - 1) * (n - 2) // 2 + n
        rep.record_upper(v, "rowen-odd",
                         f"d({n}) <= ({n}-1)({n}-2)/2 + {n} = {v}")
    if n % 2 and n >= 5:
        v = (n - 1) * (n - 2) // 2
        rep.record_upper(v, "odd-wedge-bound",
                         f"d({n}) <= ({n}-1)({n}-2)/2 = {v}")
    if n in (2, 3, 6):
        if roots:
            rep.record_upper(2, "cyclic-base-case", f"d({n}) = 2")
        else:
            rep.notes.append(
                f"d({n}) = 2 needs a primitive {n}-th root of unity; "
                "without it the value is not known")
    primes = factorize(n)
    # n = a*b with gcd(a, b) = 1 exactly when a is a product of some of the
    # prime powers of n
    unitary = [1]
    for p, r in primes.items():
        unitary += [a * p ** r for a in unitary]
    splits = []
    for a in sorted(unitary)[1:-1]:
        b = n // a
        da, db = _upper(a, flags), _upper(b, flags)
        splits.append((da + db, a, b, da, db))
    if splits:
        v, a, b, da, db = min(splits)
        rep.record_upper(v, "coprime-splitting",
                         f"d({n}) <= d({a}) + d({b}) = {da} + {db} = {v}")

    if len(primes) == 1:
        (p, r), = primes.items()
        if r > 1:
            rep.record_lower(2 * r, "prime-power-lower",
                             f"d({p}^{r}) >= 2*{r} = {2 * r}")
    rep.record_lower(2, "prime-power-lower", f"d({n}) >= 2")
    if n == 4:
        rep.record_lower(5, "rost-deg4", "d(4) = 5")
    return rep


def tau_bound_crossed(group: PermutationGroup,
                      subgroup: Subgroup) -> BoundReport:
    """Upper bound on the parameter count of a crossed product with group
    G and stabilizer H, via the relative relation module of rank
    r|G| - [G:H] + 1."""
    if subgroup.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    r_min, witness = min_generators_rel(group, subgroup)
    r = max(2, r_min) if subgroup.order == 1 else max(1, r_min)
    index = group.order // subgroup.order
    value = r * group.order - index + 1
    rep = BoundReport("tau(crossed product)", ())
    rep.record_upper(value, "tau-relation-module",
                     f"tau <= {r}*{group.order} - {index} + 1 = {value}")
    rep.record_lower(0, "tau-relation-module", "tau >= 0 (trivially)")
    rep.notes.append(
        "upper bound uses the generator count d(G/H) >= d_G(omega(G/H)); "
        "the gap between the two is not computed")
    rep.notes.append(
        f"r = {r} (relative generator count {r_min}, witness "
        f"[{', '.join(cycles_string(group.elements[w]) for w in witness)}])")
    return rep
