"""Factor sets for the generic division algebra as Laurent monomials.

A monomial lives in the free abelian group on the matrix variables z_ij
(one per ordered pair, diagonal included).  Written additively this group
is the permutation lattice U_n^(x2), so factor-set identities become
integer linear algebra: equivariance and the cocycle condition are checked
entrywise, and membership of a monomial in the wedge sublattice is decided
by a closed form (see ``wedge_membership``).

Index convention is 1-based to match the classical c_ijh notation.
"""

from __future__ import annotations

from typing import Optional

from .checks import check
from .groups import cycles_string


class FactorSetError(ValueError):
    pass


class FactorSetMonomial:
    """Laurent monomial in the z_ij, as {(i, j): exponent}."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: Optional[dict] = None):
        self.n = n
        self.pairs = {k: v for k, v in (pairs or {}).items() if v}
        for (i, j) in self.pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise FactorSetError(f"pair index {(i, j)} out of range")

    def __mul__(self, other: "FactorSetMonomial") -> "FactorSetMonomial":
        pairs = dict(self.pairs)
        for k, v in other.pairs.items():
            pairs[k] = pairs.get(k, 0) + v
        return FactorSetMonomial(self.n, pairs)

    def __pow__(self, e: int) -> "FactorSetMonomial":
        return FactorSetMonomial(self.n, {k: v * e for k, v in self.pairs.items()})

    def inverse(self) -> "FactorSetMonomial":
        return self ** -1

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorSetMonomial) and self.n == other.n
                and self.pairs == other.pairs)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.pairs.items()))))

    def is_trivial(self) -> bool:
        return not self.pairs

    def apply_perm(self, perm: tuple[int, ...]) -> "FactorSetMonomial":
        """Relabel indices by a 0-based image tuple (degree n)."""
        return FactorSetMonomial(
            self.n,
            {(perm[i - 1] + 1, perm[j - 1] + 1): v
             for (i, j), v in self.pairs.items()})

    def __str__(self) -> str:
        if self.is_trivial():
            return "1"
        bits = []
        for (i, j), v in sorted(self.pairs.items()):
            bits.append(f"z{i}{j}" if v == 1 else f"z{i}{j}^{v}")
        return "*".join(bits)


class FactorSet:
    """A complete triple-indexed table of monomials."""

    def __init__(self, n: int, entries: dict):
        self.n = n
        self.entries = entries
        expected = n ** 3
        if len(entries) != expected:
            raise FactorSetError(
                f"need all {expected} triples, got {len(entries)}")

    def __getitem__(self, triple) -> FactorSetMonomial:
        return self.entries[triple]


def udn_factor_set(n: int) -> FactorSet:
    """The standard factor set c_ijh = z_ij z_jh z_ih^-1."""
    if n < 2:
        raise FactorSetError("need n >= 2")
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for h in range(1, n + 1):
                m = FactorSetMonomial(n, {})
                for key, e in (((i, j), 1), ((j, h), 1), ((i, h), -1)):
                    m = m * FactorSetMonomial(n, {key: e})
                entries[(i, j, h)] = m
    return FactorSet(n, entries)


def normalized_factor_set(n: int) -> FactorSet:
    """(c_ijh / c_hji)^((n+1)/2): kills the diagonal part and lands in the
    antisymmetric sublattice, at the price of passing to an odd power."""
    if n % 2 == 0:
        raise FactorSetError("n must be odd")
    if n < 3:
        raise FactorSetError("need n >= 3")
    c = udn_factor_set(n)
    e = (n + 1) // 2
    entries = {}
    for (i, j, h), m in c.entries.items():
        entries[(i, j, h)] = (m * c[(h, j, i)].inverse()) ** e
    return FactorSet(n, entries)


def _sn_generators(n: int) -> list[tuple[int, ...]]:
    swap = (1, 0) + tuple(range(2, n))
    cyc = tuple(range(1, n)) + (0,)
    return [swap, cyc] if n > 2 else [swap]


def _failure_record(name: str, checked: int, unit: str, failures: list) -> dict:
    detail = f"{checked} {unit}"
    if failures:
        detail += f", {len(failures)} failing, first {failures[0]}"
    return check(name, checked > 0 and not failures, detail)


def check_equivariance(fs: FactorSet, name: str = "equivariance") -> dict:
    """sigma(c_ijh) = c_{sigma(i) sigma(j) sigma(h)} for generators of S_n,
    as the check record ``name``."""
    checked, failures = 0, []
    for perm in _sn_generators(fs.n):
        label = cycles_string(perm)
        for (i, j, h), m in fs.entries.items():
            checked += 1
            lhs = m.apply_perm(perm)
            rhs = fs[(perm[i - 1] + 1, perm[j - 1] + 1, perm[h - 1] + 1)]
            if lhs != rhs:
                failures.append((label, i, j, h))
    return _failure_record(name, checked, "entry-generator pairs", failures)


def check_cocycle(fs: FactorSet) -> dict:
    """c_ijl c_jhl = c_ihl c_ijh for all quadruples (the associativity
    identity of Brauer factor sets, multiplicative form), as the check
    record "cocycle-identity"."""
    checked, failures = 0, []
    n = fs.n
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for h in rng:
                for l in rng:
                    checked += 1
                    lhs = fs[(i, j, l)] * fs[(j, h, l)]
                    rhs = fs[(i, h, l)] * fs[(i, j, h)]
                    if lhs != rhs:
                        failures.append((i, j, h, l))
    return _failure_record("cocycle-identity", checked, "quadruples", failures)


def is_reduced(fs: FactorSet) -> bool:
    """Adopted definition: c_iij = c_ijj = 1 for all i, j."""
    rng = range(1, fs.n + 1)
    return all(fs[(i, i, j)].is_trivial() and fs[(i, j, j)].is_trivial()
               for i in rng for j in rng)


def is_normalized(fs: FactorSet) -> bool:
    """Adopted definition: reduced and c_ijh * c_hji = 1."""
    if not is_reduced(fs):
        return False
    rng = range(1, fs.n + 1)
    return all((fs[(i, j, h)] * fs[(h, j, i)]).is_trivial()
               for i in rng for j in rng for h in rng)


def wedge_membership(m: FactorSetMonomial) -> Optional[dict]:
    """Integer coordinates of m over the spanning wedges
    (u_i - u_j) ^ (u_l - u_m), or None if m is not in the wedge sublattice.

    Read m as the tensor T = sum T_ij u_i (x) u_j.  It lies in the lattice W
    spanned by the wedges exactly when T is antisymmetric and its columns
    sum to 0, that is when it is antisymmetric and in the kernel of the
    contraction x (x) y -> eps(x) y with the augmentation eps(u_i) = 1.
    Every wedge x ^ y = x (x) y - y (x) x with eps(x) = eps(y) = 0 is
    antisymmetric and contracts to eps(x) y - eps(y) x = 0.  Conversely, for
    such T let S = sum_(2 <= i < j) T_ij w_ij over the wedges
    w_ij = (u_i - u_1) ^ (u_j - u_1).  Among these wedges only w_ij touches
    the (i, j) entry, where it is 1, so T - S vanishes off row and column 1;
    being antisymmetric with zero column sums, it vanishes there too.  So
    the w_ij are a basis of W, whose rank is
    n(n-1)/2 - (n-1) = (n-1)(n-2)/2, and the coordinates of T are its
    entries T_ij.  The returned dict maps ((i, 1), (j, 1)) to T_ij for
    2 <= i < j, leaving out zeros.
    """
    if any(i == j for (i, j) in m.pairs):
        raise FactorSetError("diagonal variables present")
    # the pairs hold no zero exponents, so this is antisymmetry of T
    if any(m.pairs.get((j, i)) != -v for (i, j), v in m.pairs.items()):
        return None
    columns = [0] * (m.n + 1)
    for (_, j), v in m.pairs.items():
        columns[j] += v
    if any(columns):
        return None
    return {((i, 1), (j, 1)): v for (i, j), v in sorted(m.pairs.items()) if 2 <= i < j}
