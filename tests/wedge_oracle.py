"""The dense wedge-membership test, kept as the oracle for the closed form
in ``brauerlab.factorsets.wedge_membership``.

A monomial is written as its n^2 exponent tensor over u_i (x) u_j; its
coordinates over the basis (u_i - u_1) ^ (u_j - u_1), 2 <= i < j, are read
off the (i, j) entries and accepted when they expand back to the tensor.
"""

from __future__ import annotations

from typing import Optional


def exponent_tensor(m) -> list[int]:
    """Pair exponents of a FactorSetMonomial as a vector over u_i (x) u_j."""
    out = [0] * (m.n * m.n)
    for (i, j), v in m.pairs.items():
        out[(i - 1) * m.n + (j - 1)] = v
    return out


def wedge_vector(n: int, a: int, b: int, c: int, d: int) -> list[int]:
    """(u_a - u_b) ^ (u_c - u_d) in u (x) u coordinates (1-based)."""
    out = [0] * (n * n)

    def tick(i, j, v):
        out[(i - 1) * n + (j - 1)] += v

    for (x, sx) in ((a, 1), (b, -1)):
        for (y, sy) in ((c, 1), (d, -1)):
            tick(x, y, sx * sy)
            tick(y, x, -sx * sy)
    return out


def expand_wedge_coordinates(n: int, coords: dict) -> list[int]:
    """Rebuild the exponent tensor from wedge_membership output."""
    out = [0] * (n * n)
    for ((a, b), (c, d)), v in coords.items():
        vec = wedge_vector(n, a, b, c, d)
        for r in range(n * n):
            out[r] += v * vec[r]
    return out


def dense_wedge_membership(m) -> Optional[dict]:
    """Coordinates read off the tensor, or None when they do not expand
    back to it (m has no diagonal variables)."""
    coords = {((i, 1), (j, 1)): v for (i, j), v in sorted(m.pairs.items()) if 2 <= i < j}
    if expand_wedge_coordinates(m.n, coords) != exponent_tensor(m):
        return None
    return coords
