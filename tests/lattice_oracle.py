"""Dense lattice actions and dense integer kernels: the oracle that tests
compare the sparse ``GLattice.action_columns``, ``acts_as_identity`` and
``LatticeMap.kernel_columns`` against.

``bfs_actions`` multiplies dense generator matrices along the group's BFS
tree, and ``solved_generator_matrices`` solves each dense moved kernel
basis vector through the kernel's inclusion. Both are the way lattices
computed their actions before the actions became sparse. ``kernel_basis``
reads an integer kernel off a Smith normal form, the way kernels were found
before maps carried pivot certificates. ``sum_kernel`` builds omega the way
it was built before its closed form: as the kernel lattice of the
coordinate-sum map, whose basis comes by back-substitution.
``CharacterLattice`` is Z acted on by a character g -> +-1, the one lattice
the tests need that is neither a permutation lattice nor a sublattice of
one.
"""

from __future__ import annotations

from brauerlab import snf
from brauerlab.lattices import GLattice, LatticeMap, kernel_lattice


class CharacterLattice(GLattice):
    """Z with g acting as chi(g) = +-1; the trivial lattice by default."""

    def __init__(self, group, chi=lambda g: 1, label="character"):
        super().__init__(group, 1, label=label)
        self.chi = chi

    def _compute(self, g):
        return [[(0, self.chi(g))]]

    def acts_as_identity(self, g):
        return self.chi(g) == 1


def sum_kernel(perm):
    """The kernel of the coordinate sum of the permutation lattice perm, on
    the basis e_i - e_0 (column 0 is the sum map's pivot), with its
    inclusion into perm, row certified at each free row."""
    total = LatticeMap(perm, CharacterLattice(perm.group, label="trivial"),
                       [[(0, 1)]] * perm.rank, label="coordinate-sum",
                       col_pivots=[(0, 0)])
    kernel = kernel_lattice(total, "sum-kernel")
    incl = LatticeMap(kernel, perm, total.kernel_columns,
                      row_pivots=list(kernel.free.items()))
    return kernel, incl


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def mat_mult(a, b) -> list[list[int]]:
    """The integer matrix product a b, skipping zero entries of both."""
    out = zeros(len(a), len(b[0]) if b else 0)
    for orow, arow in zip(out, a):
        for k, v in enumerate(arow):
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        orow[j] += v * w
    return out


def columns_of(matrix) -> list[list[tuple[int, int]]]:
    """The sparse (row, value) columns of a dense matrix with rows."""
    return [[(r, v) for r, v in enumerate(col) if v] for col in zip(*matrix)]


def dense(pairs, n: int) -> list[int]:
    """The length-n vector with the given (index, value) entries."""
    v = [0] * n
    for i, x in pairs:
        v[i] += x
    return v


def dense_solve(lmap, vec):
    """lmap.solve on a dense vector, with a dense answer or None."""
    x = lmap.solve({i: v for i, v in enumerate(vec) if v})
    return None if x is None else dense(x.items(), lmap.source.rank)


def kernel_basis(a) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of vectors.

    The kernel of an integer matrix is automatically saturated, so this
    is also a basis of the rational kernel intersected with Z^n.  A matrix
    with no rows carries no column count and gives no vectors.
    """
    n = len(a[0]) if a else 0
    if n == 0:
        return []
    res = snf.smith_normal_form(a, want_u=False, want_v=True)
    r = res.rank
    return [[res.V[i][j] for i in range(n)] for j in range(r, n)]


def dense_action(lat, g) -> list[list[int]]:
    """g's action on lat as a dense matrix, read off its sparse columns."""
    m = zeros(lat.rank, lat.rank)
    for c, col in enumerate(lat.action_columns(g)):
        for r, v in col:
            m[r][c] += v
    return m


def bfs_actions(lat) -> list[list[list[int]]]:
    """Every element's action, as the dense product of lat's generator
    matrices along the BFS tree: element = parent * generator."""
    G = lat.group
    gens = [dense_action(lat, g) for g in G.generators]
    out = [snf.identity(lat.rank)]
    for parent, pos in G.parents[1:]:
        out.append(mat_mult(out[parent], gens[pos]))
    return out


def solved_generator_matrices(incl) -> list[list[list[int]]]:
    """The generator matrices of the kernel lattice incl.source: each
    column is a dense moved basis vector solved through the inclusion."""
    kernel, middle = incl.source, incl.target
    mats = []
    for g in kernel.group.generators:
        moved = mat_mult(dense_action(middle, g), incl.matrix)
        m = zeros(kernel.rank, kernel.rank)
        for col in range(kernel.rank):
            x = dense_solve(incl, [row[col] for row in moved])
            assert x is not None, "kernel is not action-stable"
            for i, v in enumerate(x):
                m[i][col] = v
        mats.append(m)
    return mats
