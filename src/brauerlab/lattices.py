"""Integral representations (G-lattices), equivariant maps and exact
sequences, all over Z with certificates.

The action of an element g is one list of sparse columns: column c holds
the nonzero (row, value) pairs of g applied to basis vector c. Permutation
lattices (on cosets, ordered coset pairs or points) read every element's
columns off its images, and tensor products and direct sums build theirs
from the factors; all of these have a permutation view, the basis images
of g. Every other lattice is a SubLattice of one of them: omega on the
basis e_i - e_0, or the kernel of a column-certified map on its kernel
basis. Its basis vector k is 1 at the free row j_k and 0 at the other free
rows, so g moves a basis vector by relabelling its keys and reads its
coordinates off the free rows.

Exactness of 0 -> A -> B -> C -> 0 is certified by: composition zero,
inner map injective with saturated image, outer map surjective over Z,
rank additivity, and an explicit integer solve expressing a kernel basis
of the outer map through the inner map. Saturation makes "kernel = image"
equivalent to these finitely many checks.

Maps are held only as sparse columns: the big ones hold a few nonzeros per
column, so every step of a certificate walks only the nonzero entries.
Equivariance is checked column by column against the sparse actions, and
the unit-triangular pivot certificate each constructor hands its maps gives
kernels and solves by sparse substitution (Gilbert-Peierls, SIAM J. Sci.
Stat. Comput. 9, 1988). A dense view of a map is derived on request; no
certificate reads it (the benchmark harness and the tests do).
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from .checks import check, failing
from .groups import (
    CosetSpace,
    PermutationGroup,
    Subgroup,
    normal_core,
)

__all__ = [
    "GLattice", "LatticeMap", "LatticeSequence", "LatticeError",
    "NaturalLattice", "TensorLattice", "DirectSumLattice", "SubLattice",
    "augmentation", "kernel_lattice",
    "freepres_sequence", "seq2_sequence", "pair_basis_iso",
    "formanek_sequence", "is_exact", "ExactnessReport", "is_faithful",
    "faithful_predicate_freepres", "faithful_predicate_seq2",
]

# column c of a matrix: the nonzero (row, value) pairs
Columns = Sequence[Sequence[tuple[int, int]]]


class LatticeError(ValueError):
    pass


def _apply(columns: Columns, vec: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The product of a sparse-column matrix with a sparse vector given as
    (index, value) pairs, as {row: value} without zeros."""
    acc: dict[int, int] = {}
    for r, v in vec:
        for r2, w in columns[r]:
            acc[r2] = acc.get(r2, 0) + v * w
    return {r: v for r, v in acc.items() if v}


def _move(images: Sequence[int], vec: dict[int, int]) -> dict[int, int]:
    """A sparse vector moved by a basis permutation: its keys relabelled."""
    return {images[r]: v for r, v in vec.items()}


def _is_scalar(columns: Columns, s: int) -> bool:
    """The columns are s times the identity."""
    return all(len(col) == 1 and col[0] == (c, s) for c, col in enumerate(columns))


class GLattice:
    """Free Z-module with a group action, read as sparse columns.

    Each subclass defines `_compute(g)`, any element's columns computed
    directly; the columns are cached per element.
    """

    def __init__(self, group: PermutationGroup, rank: int, label: str = ""):
        self.group = group
        self.rank = rank
        self.label = label
        self._cache: dict[int, Columns] = {}

    def action_columns(self, g: int) -> Columns:
        """g's action: column c is g applied to basis vector c."""
        got = self._cache.get(g)
        if got is None:
            got = self._cache[g] = self._compute(g)
        return got

    def images(self, g: int) -> Sequence[int]:
        """The permutation view, which only permutation lattices and their
        sums and tensor products have: g sends e_c to e_images(g)[c]."""
        raise LatticeError(f"lattice {self.label!r} has no permutation view")

    def __repr__(self) -> str:
        return f"<GLattice rank {self.rank} [{self.label}]>"


class PermutationLattice(GLattice):
    """Z[X] for a G-set X = {0, ..., rank - 1}, read off its images."""

    def _compute(self, g: int) -> Columns:
        return [[(i, 1)] for i in self.images(g)]


class NaturalLattice(PermutationLattice):
    """Z^n for a group of permutations of n points."""

    def __init__(self, group: PermutationGroup):
        super().__init__(group, group.degree,
                         label=f"natural[{group.name or 'G'}]")

    def images(self, g: int) -> Sequence[int]:
        return self.group.elements[g]


class PermLattice(PermutationLattice):
    """Z[G/H] with basis the cosets in representative order."""

    def __init__(self, cosets: CosetSpace, label: str = ""):
        super().__init__(cosets.group, cosets.size, label=label
                         or f"perm[{cosets.group.name or 'G'}:{cosets.size}]")
        self.cosets = cosets

    def images(self, g: int) -> list[int]:
        return self.cosets.images(g)


class PairsLattice(PermutationLattice):
    """Permutation lattice on ordered pairs of distinct cosets."""

    def __init__(self, cosets: CosetSpace):
        n = cosets.size
        self.cosets = cosets
        self.pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        super().__init__(cosets.group, len(self.pairs), label=f"pairs[{n}]")

    def images(self, g: int) -> list[int]:
        img = self.cosets.images(g)
        return [self.pair_index[(img[a], img[b])] for a, b in self.pairs]


class TensorLattice(GLattice):
    def __init__(self, left: GLattice, right: GLattice):
        if left.group is not right.group:
            raise LatticeError("tensor factors must share the group")
        super().__init__(left.group, left.rank * right.rank,
                         label=f"({left.label})x({right.label})")
        self.left = left
        self.right = right

    def _compute(self, g: int) -> Columns:
        b = self.right.rank
        right = self.right.action_columns(g)
        return [[(r1 * b + r2, v1 * v2) for r1, v1 in lcol for r2, v2 in rcol]
                for lcol in self.left.action_columns(g) for rcol in right]

    def images(self, g: int) -> list[int]:
        b, right = self.right.rank, self.right.images(g)
        return [i * b + j for i in self.left.images(g) for j in right]

    def acts_as_identity(self, g: int) -> bool:
        # A (x) A = 1 forces A = +-1 (compare any nonzero row scaling),
        # so the self-tensor case never builds the big action.
        if self.left is self.right:
            cols = self.left.action_columns(g)
            return _is_scalar(cols, 1) or _is_scalar(cols, -1)
        return _is_scalar(self.action_columns(g), 1)


class DirectSumLattice(GLattice):
    def __init__(self, parts: Sequence[GLattice]):
        parts = list(parts)
        if not parts:
            raise LatticeError("empty direct sum")
        group = parts[0].group
        if any(p.group is not group for p in parts):
            raise LatticeError("summands must share the group")
        super().__init__(group, sum(p.rank for p in parts),
                         label="+".join(p.label for p in parts))
        self.parts = parts

    def _compute(self, g: int) -> Columns:
        cols: list[list[tuple[int, int]]] = []
        for p in self.parts:
            off = len(cols)
            cols += [[(r + off, v) for r, v in col] for col in p.action_columns(g)]
        return cols

    def images(self, g: int) -> list[int]:
        out: list[int] = []
        for p in self.parts:
            off = len(out)
            out += [i + off for i in p.images(g)]
        return out


class SubLattice(GLattice):
    """A saturated, action-stable sublattice of a lattice with a permutation
    view (the ambient). Basis vector k is 1 at the free row j_k and 0 at the
    other free rows, so a vector's coordinates are its entries on the free
    rows; g moves a basis vector by relabelling its keys. Built by
    `augmentation` and `kernel_lattice`."""

    def __init__(self, ambient: GLattice, basis: Sequence[dict[int, int]],
                 free: Iterable[int], label: str):
        super().__init__(ambient.group, len(basis), label=label)
        self.ambient = ambient
        self.basis = basis
        self.free = {j: k for k, j in enumerate(free)}

    def _compute(self, g: int) -> Columns:
        img, free = self.ambient.images(g), self.free
        return [[(k, v) for r, v in b.items()
                 if (k := free.get(img[r])) is not None] for b in self.basis]

    def acts_as_identity(self, g: int) -> bool:
        """The ambient action fixes every basis vector."""
        img = self.ambient.images(g)
        return all(_move(img, b) == b for b in self.basis)

    def inclusion(self) -> "LatticeMap":
        """The inclusion into the ambient, row certified at (j_k, k)."""
        return LatticeMap(self, self.ambient, [b.items() for b in self.basis],
                          label=f"{self.label}-embedding",
                          row_pivots=list(self.free.items()))


def augmentation(perm: GLattice, label: str = "") -> SubLattice:
    """omega, the kernel of the coordinate sum of a permutation lattice, on
    the basis e_i - e_0 (i >= 1), free at row i. It is stable: g sends
    e_i - e_0 to e_g(i) - e_g(0) = (e_g(i) - e_0) - (e_g(0) - e_0)."""
    return SubLattice(perm, [{i: 1, 0: -1} for i in range(1, perm.rank)],
                      range(1, perm.rank), label or f"omega[{perm.rank}]")


def kernel_lattice(outer: "LatticeMap", label: str) -> SubLattice:
    """The kernel of a column-certified map on its kernel basis, inside the
    map's source, which needs a permutation view. Kernel vector k is 1 at
    its non-pivot column j_k (its first key) and 0 at the others. Each
    generator must keep the kernel (the map kills every moved basis vector);
    the basis spans the whole kernel, so coordinates are then exact."""
    basis = [dict(col) for col in outer.kernel_columns]
    kernel = SubLattice(outer.source, basis, [next(iter(b)) for b in basis],
                        label)
    for g in kernel.group.generators:
        img = kernel.ambient.images(g)
        if any(_apply(outer.columns, _move(img, b).items()) for b in basis):
            raise LatticeError("kernel is not action-stable")
    return kernel


# --- maps and sequences ---------------------------------------------------

def _substitute(columns, pivots, order, residual, *, descending):
    """Clear `residual` (row -> value) on the pivot rows it reaches.

    pivots[k] = (row, col, unit) with unit = +-1 and order maps each pivot
    row to its k. Pivots are taken in increasing k (decreasing if
    `descending`); the certificate guarantees that a pivot's column is zero
    on the pivot rows already taken, so each reached pivot is taken once.
    Returns {col: x} and leaves residual - matrix.x in `residual`; only
    rows where one of the two is nonzero are ever stored.
    """
    sign = -1 if descending else 1
    heap = [sign * order[r] for r in residual if r in order]
    heapify(heap)
    x = {}
    while heap:
        r, c, unit = pivots[sign * heappop(heap)]
        s = residual[r]
        if not s:
            continue
        xc = s * unit
        x[c] = xc
        for r2, v in columns[c]:
            if r2 in residual:
                residual[r2] -= v * xc
            else:
                residual[r2] = -v * xc
                if r2 in order:
                    heappush(heap, sign * order[r2])
    return x


class LatticeMap:
    """Equivariant map between lattices, held as sparse columns: column c is
    the image of source basis vector c as (row, value) pairs in the target.

    The constructor sums pairs that share a row and drops zeros, so each
    column lists the distinct nonzero entries; a wrong column count or a row
    outside the target raises LatticeError. `matrix`, the dense
    target.rank x source.rank view, is derived on first read; only the
    benchmark harness (Formanek determinant) and the tests read it.

    row_pivots / col_pivots are optional unit-triangular certificates passed
    by constructors that know the matrix structure. They are verified, not
    trusted, once per map on first use, from the map's sparse columns:
    - row_pivots [(r_k, c_k)] covers every source column, each pivot is
      +-1 and row r_k is zero at every later pivot column. The map is then
      injective with saturated image, and solve is a sparse forward
      substitution followed by a check on every row.
    - col_pivots [(r_k, c_k)] covers every target row, each pivot is +-1
      and column c_k is zero at every later pivot row. The map is then
      surjective, and kernel_columns is e_j - P^-1 N e_j for each
      non-pivot column j, P the pivot block, by sparse back-substitution.

    A map is certified by these alone: without a verified certificate it is
    not injective / surjective, and solve / kernel_columns raise
    LatticeError.
    """

    def __init__(self, source: GLattice, target: GLattice,
                 columns: Iterable[Iterable[tuple[int, int]]], label: str = "",
                 *, row_pivots: Optional[list[tuple[int, int]]] = None,
                 col_pivots: Optional[list[tuple[int, int]]] = None):
        self.columns: list[list[tuple[int, int]]] = []
        for col in columns:
            acc: dict[int, int] = {}
            for r, v in col:
                if not 0 <= r < target.rank:
                    raise LatticeError(f"row {r} is outside a target of rank "
                                       f"{target.rank}")
                acc[r] = acc.get(r, 0) + v
            self.columns.append([(r, v) for r, v in acc.items() if v])
        if len(self.columns) != source.rank:
            raise LatticeError(f"{len(self.columns)} columns for a source of "
                               f"rank {source.rank}")
        self.source = source
        self.target = target
        self.label = label
        self.row_pivots = row_pivots
        self.col_pivots = col_pivots

    def __repr__(self) -> str:
        return f"<LatticeMap {self.source.rank}->{self.target.rank} [{self.label}]>"

    def check_equivariance(self) -> bool:
        """map . g = g . map for every generator g, column by column over
        the sparse actions."""
        cols = self.columns
        for g in self.source.group.generators:
            moved = self.target.action_columns(g)
            if any(_apply(cols, s) != _apply(moved, m)
                   for s, m in zip(self.source.action_columns(g), cols)):
                return False
        return True

    @cached_property
    def matrix(self) -> list[list[int]]:
        """The dense target.rank x source.rank view of the columns."""
        m = [[0] * self.source.rank for _ in range(self.target.rank)]
        for c, col in enumerate(self.columns):
            for r, v in col:
                m[r][c] = v
        return m

    def _certificate(self, pivots, size):
        """(pivots as (row, col, unit), {pivot row: k}) or None.

        Accepts `size` +-1 pivots whose rows are distinct and in range and
        whose columns are too, so that no index aliases another entry.
        """
        if pivots is None or len(pivots) != size:
            return None
        nrows, ncols = self.target.rank, self.source.rank
        if (len({r for r, _ in pivots}) != size
                or len({c for _, c in pivots}) != size
                or not all(0 <= r < nrows and 0 <= c < ncols
                           for r, c in pivots)):
            return None
        units = [dict(self.columns[c]).get(r) for r, c in pivots]
        if any(u not in (1, -1) for u in units):
            return None
        return ([(r, c, u) for (r, c), u in zip(pivots, units)],
                {r: k for k, (r, _) in enumerate(pivots)})

    @cached_property
    def _row_certificate(self):
        cert = self._certificate(self.row_pivots, self.source.rank)
        if cert is None:
            return None
        # Row r_k is zero at later pivot columns: column c_k is zero on
        # the rows of earlier pivots.
        pivots, order = cert
        for k, (_, c, _) in enumerate(pivots):
            if any(order.get(r, k) < k for r, _ in self.columns[c]):
                return None
        return cert

    @cached_property
    def _col_certificate(self):
        # A map onto the zero lattice needs no pivots.
        p = self.col_pivots if self.target.rank else []
        cert = self._certificate(p, self.target.rank)
        if cert is None:
            return None
        # Column c_k is zero at later pivot rows; every row is a pivot row.
        pivots, order = cert
        for k, (_, c, _) in enumerate(pivots):
            if any(order[r] > k for r, _ in self.columns[c]):
                return None
        return cert

    def is_injective_saturated(self) -> bool:
        """Columns independent and image a direct summand, by certificate."""
        return self._row_certificate is not None

    def is_surjective(self) -> bool:
        """Onto the target over Z, by certificate."""
        return self._col_certificate is not None

    @cached_property
    def kernel_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A basis of the integer kernel {x : map.x = 0} as sparse columns,
        worked out once per map. Each vector is 1 at its own non-pivot
        column and 0 at the others."""
        cert = self._col_certificate
        if cert is None:
            raise LatticeError(f"map {self.label!r} has no column certificate")
        pivots, order = cert
        pivot_cols = {c for _, c, _ in pivots}
        basis = []
        for j in range(self.source.rank):
            if j in pivot_cols:
                continue
            x = _substitute(self.columns, pivots, order,
                            dict(self.columns[j]), descending=True)
            basis.append(((j, 1),) + tuple((c, -xc) for c, xc in x.items()))
        return tuple(basis)

    def solve(self, vec: dict[int, int]) -> Optional[dict[int, int]]:
        """Integer x with map.x = vec, both as {index: value} without zeros,
        or None."""
        cert = self._row_certificate
        if cert is None:
            raise LatticeError(f"map {self.label!r} has no row certificate")
        residual = {r: v for r, v in vec.items() if v}
        x = _substitute(self.columns, *cert, residual, descending=False)
        # The residual is vec - map.x on every row, summed over the
        # columns of the nonzero unknowns; the pivots clear only their own.
        if any(residual.values()):
            return None
        return x


class LatticeSequence:
    """A two-map complex 0 -> A -> B -> C -> 0."""

    def __init__(self, inner: LatticeMap, outer: LatticeMap):
        if inner.target is not outer.source:
            raise LatticeError("inner.target must be outer.source")
        self.inner = inner
        self.outer = outer

    def __repr__(self) -> str:
        return (f"<LatticeSequence {self.inner.source.rank} -> "
                f"{self.inner.target.rank} -> {self.outer.target.rank}>")


class ExactnessReport:
    """The exactness checks of ``is_exact``, as check records."""

    def __init__(self, checks: list):
        self.checks = checks

    @property
    def exact(self) -> bool:
        return not failing(self.checks)

    def to_json(self) -> dict:
        # ok by name: the details are fixed texts, so they add nothing here
        return {"exact": self.exact, "checks": {c["name"]: c["ok"] for c in self.checks}}


def _composes_to_zero(outer: LatticeMap, inner: LatticeMap) -> bool:
    """outer . inner == 0, over the sparse columns of both."""
    return not any(_apply(outer.columns, col) for col in inner.columns)


def is_exact(seq: LatticeSequence) -> ExactnessReport:
    """Certify exactness of 0 -> A -> B -> C -> 0.

    The five recorded checks together are equivalent to exactness: the
    composition being zero gives image inside kernel; the outer kernel is
    saturated (C is torsion-free), so once the inner image is saturated of
    the same rank and contains a kernel basis, the two submodules agree.

    The kernel-inside-image check also follows from the other checks: a
    saturated image inside the kernel (composition zero) of the same rank
    as the kernel (rank additivity, outer map surjective) is the kernel.
    It is kept as an independent cross-check of those certificates; it
    solves the column-certificate kernel basis of the outer map through the
    row certificate of the inner map, and only when the four other checks
    pass; otherwise it is recorded inconclusive. Every check walks only
    nonzeros.
    """
    inner, outer = seq.inner, seq.outer
    checks = [
        check("composition-zero", _composes_to_zero(outer, inner), "pi.iota = 0"),
        check("inner-injective-saturated", inner.is_injective_saturated(),
              "row certificate of the inner map"),
        check("outer-surjective", outer.is_surjective(),
              "column certificate of the outer map"),
        check("rank-additive",
              inner.source.rank + outer.target.rank == inner.target.rank,
              "rank A + rank C = rank B"),
    ]
    if failing(checks):
        kernel_inside = None
    else:
        kernel_inside = all(inner.solve(dict(k)) is not None
                            for k in outer.kernel_columns)
    checks.append(check("kernel-inside-image", kernel_inside,
                        "outer kernel basis solved through the inner map"))
    return ExactnessReport(checks)


def is_faithful(lat: GLattice) -> bool:
    """True iff no nonidentity element acts as the identity, for a lattice
    with ``acts_as_identity``: a SubLattice or a TensorLattice, the kernels
    and tensor squares whose faithfulness the certificates read.

    Exact with one element per conjugacy class: x g x^-1 acts as
    rho(x) rho(g) rho(x)^-1, which is the identity exactly when rho(g) is,
    so the kernel of the action is a union of classes.
    """
    return not any(lat.acts_as_identity(g)
                   for g in lat.group.class_representatives if g)


def faithful_predicate_freepres(group: PermutationGroup, subgroup: Subgroup,
                                r: int) -> bool:
    """Theory oracle for the relation-module kernel: r >= 2 or H nontrivial."""
    return r >= 2 or subgroup.order > 1


def faithful_predicate_seq2(group: PermutationGroup,
                            subgroup: Subgroup) -> bool:
    """Theory oracle for the tensor-square kernel: trivial core, index >= 3."""
    return (normal_core(group, subgroup).is_trivial()
            and group.order // subgroup.order >= 3)


# --- the three named sequences -------------------------------------------

def _difference(a: int, b: int) -> list[tuple[int, int]]:
    """The column of e_a - e_b in omega's basis e_i - e_0 (i >= 1)."""
    return [(i - 1, v) for i, v in ((a, 1), (b, -1)) if i]


def freepres_sequence(group: PermutationGroup, subgroup: Subgroup,
                      g_list: Iterable) -> LatticeSequence:
    """0 -> M -> Z[G]^r -> omega(G/H) -> 0 sending the i-th unit to the
    coset difference of the i-th chosen element. A breadth-first spanning
    tree of the coset graph gH -> g.alpha_i H certifies the outer map: each
    coset's pivot is the column reaching it, whose other nonzero lies on its
    parent's earlier row (Seress, Permutation Group Algorithms, 4.1)."""
    alphas = [group.element_index(g) for g in g_list]
    if group.closure(list(subgroup.members) + alphas) != frozenset(
            range(group.order)):
        raise LatticeError("does not generate")
    r = len(alphas)
    reg = CosetSpace(group, group.trivial_subgroup())
    regular = PermLattice(reg, label=f"Z[{group.name or 'G'}]")
    middle = DirectSumLattice([regular] * r)
    cos = CosetSpace(group, subgroup)
    omega = augmentation(PermLattice(cos))
    n = cos.size
    f = []
    edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for alpha in alphas:
        for g in reg.reps:
            c1 = cos.coset_of[group.mult(g, alpha)]
            c2 = cos.coset_of[g]
            edges[c2].append((c1, len(f)))
            f.append(_difference(c1, c2))
    # Breadth first over the cosets, in the order they are reached.
    col_pivots, order, reached = [], [0], [True] + [False] * (n - 1)
    for c in order:
        for c1, col in edges[c]:
            if not reached[c1]:
                reached[c1] = True
                order.append(c1)
                col_pivots.append((c1 - 1, col))
    outer = LatticeMap(middle, omega, f, label="coset-difference-map",
                       col_pivots=col_pivots)
    incl = kernel_lattice(outer, "relation-module").inclusion()
    return LatticeSequence(incl, outer)


def seq2_sequence(group: PermutationGroup,
                  subgroup: Subgroup) -> LatticeSequence:
    """0 -> omega^(x2) -> Z[ordered distinct coset pairs] -> omega -> 0.

    The middle term is a permutation lattice; pair_basis_iso identifies it
    with omega (x) Z[G/H].
    """
    cos = CosetSpace(group, subgroup)
    n = cos.size
    if n < 2:
        raise LatticeError("index must be at least 2")
    omega = augmentation(PermLattice(cos))
    pairs = PairsLattice(cos)
    pidx = pairs.pair_index

    iota: list[list[tuple[int, int]]] = []
    row_pivots = []
    diag_cols = []
    for i in range(1, n):
        for l in range(1, n):
            col = len(iota)
            if i == l:
                iota.append([(pidx[(0, i)], -1), (pidx[(i, 0)], -1)])
                diag_cols.append((pidx[(i, 0)], col))
            else:
                iota.append([(pidx[(i, l)], 1), (pidx[(0, l)], -1),
                             (pidx[(i, 0)], -1)])
                row_pivots.append((pidx[(i, l)], col))
    inner = LatticeMap(TensorLattice(omega, omega), pairs, iota,
                       label="tensor-square-embedding",
                       row_pivots=row_pivots + diag_cols)

    pi = [_difference(a, b) for a, b in pairs.pairs]
    outer = LatticeMap(pairs, omega, pi, label="pair-difference-map",
                       col_pivots=[(a - 1, pidx[(a, 0)]) for a in range(1, n)])

    return LatticeSequence(inner, outer)


def pair_basis_iso(seq: LatticeSequence) -> LatticeMap:
    """The unimodular equivariant identification of the middle term of a
    seq2_sequence, the pairs lattice, with omega (x) Z[G/H]: the embedding
    of omega tensored with Z[G/H], dropping the diagonal pairs, so that
    (coset_a - coset_b) (x) coset_b -> pair (a, b). Column (i - 1) n + c
    is (e_i - e_0) (x) e_c; the row certificate takes its pivots at pair
    (i, c) for c not 0 or i, then at (i, 0), then at (0, i)."""
    pairs = seq.inner.target
    pidx = pairs.pair_index
    emb = augmentation(PermLattice(pairs.cosets)).inclusion()
    n = emb.target.rank
    m = [[(pidx[(r, c)], v) for r, v in col if r != c]
         for col in emb.columns for c in range(n)]
    pivots = [(pidx[(i, c)], (i - 1) * n + c)
              for i in range(1, n) for c in range(1, n) if c != i]
    pivots += [(pidx[(i, 0)], (i - 1) * n) for i in range(1, n)]
    pivots += [(pidx[(0, i)], (i - 1) * n + i) for i in range(1, n)]
    return LatticeMap(TensorLattice(emb.source, emb.target), pairs, m,
                      label="pair-basis-identification", row_pivots=pivots)


def formanek_sequence(n: int) -> tuple[LatticeSequence, LatticeMap]:
    """0 -> K -> U (+) U^(x2) -> A -> 0 for the symmetric group on n points,
    where U is the natural lattice and A its augmentation kernel, with the
    map killing U and sending e_j (x) e_h to e_j - e_h.

    Also returns the unimodular equivariant isomorphism
    U (+) U (+) A^(x2) -> K assembled from the explicit kernel vectors
    e_i; e_i (x) e_i; (e_i - e_0) (x) (e_l - e_0), with its row certificate
    on the kernel rows (free rows of the outer map), in this order: each
    (e_i - e_0) (x) (e_l - e_0) with i != l at e_i (x) e_l, each with i = l
    at e_0 (x) e_i, each e_i (x) e_i and each e_i at itself.
    """
    if n < 2:
        raise LatticeError("need n >= 2")
    from .groups import symmetric_group
    G = symmetric_group(n)
    U = NaturalLattice(G)
    middle = DirectSumLattice([U, TensorLattice(U, U)])
    A = augmentation(U, label=f"roots[{n - 1}]")
    # U is killed; column n + j n + h sends e_j (x) e_h to e_j - e_h
    f = [[]] * n + [_difference(j, h) for j in range(n) for h in range(n)]
    outer = LatticeMap(middle, A, f, label="tensor-difference-map",
                       col_pivots=[(j - 1, n + j * n) for j in range(1, n)])
    kernel = kernel_lattice(outer, "formanek-kernel")
    seq = LatticeSequence(kernel.inclusion(), outer)

    src = DirectSumLattice([U, U, TensorLattice(A, A)])
    assembled = [{i: 1} for i in range(n)]
    assembled += [{n + i * n + i: 1} for i in range(n)]
    assembled += [{n + i * n + l: 1, n + l: -1, n + i * n: -1, n: 1}
                  for i in range(1, n) for l in range(1, n)]
    coords = [seq.inner.solve(v) for v in assembled]
    if None in coords:
        raise LatticeError("assembled vector is not in the kernel")
    # column 2n + (i - 1)(n - 1) + l - 1 is (e_i - e_0) (x) (e_l - e_0)
    free = kernel.free
    pivots = [(free[n + i * n + l], 2 * n + (i - 1) * (n - 1) + l - 1)
              for i in range(1, n) for l in range(1, n) if i != l]
    pivots += [(free[n + i], 2 * n + (i - 1) * n) for i in range(1, n)]
    pivots += [(free[n + i * n + i], n + i) for i in range(n)]
    pivots += [(free[i], i) for i in range(n)]
    iso = LatticeMap(src, kernel, [x.items() for x in coords],
                     label="kernel-decomposition", row_pivots=pivots)
    return seq, iso
