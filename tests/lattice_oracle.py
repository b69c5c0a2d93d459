"""Dense lattice actions: the oracle that tests compare the sparse
``GLattice.action_columns`` and ``acts_as_identity`` against.

``bfs_actions`` multiplies dense generator matrices along the group's BFS
tree, and ``solved_generator_matrices`` solves each dense moved kernel
basis vector through the kernel's inclusion. Both are the way lattices
computed their actions before the actions became sparse.
"""

from __future__ import annotations

from brauerlab import snf


def mat_mult(a, b) -> list[list[int]]:
    """The integer matrix product a b, skipping zero entries of both."""
    out = snf.zeros(len(a), len(b[0]) if b else 0)
    for orow, arow in zip(out, a):
        for k, v in enumerate(arow):
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        orow[j] += v * w
    return out


def dense_action(lat, g) -> list[list[int]]:
    """g's action on lat as a dense matrix, read off its sparse columns."""
    m = snf.zeros(lat.rank, lat.rank)
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
        m = snf.zeros(kernel.rank, kernel.rank)
        for col in range(kernel.rank):
            x = incl.solve([row[col] for row in moved])
            assert x is not None, "kernel is not action-stable"
            for i, v in enumerate(x):
                m[i][col] = v
        mats.append(m)
    return mats
