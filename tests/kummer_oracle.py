"""Claim-(iii) computations by whole products: the oracles that tests compare
``KummerField.inverse`` and ``norm``, ``CrossedAlgebra.norm_conditions_hold``
and ``crossed._projection`` against.

    inverse     the product of all 2m - 1 nontrivial Galois twists over the
                scalar norm, with every product taken whole;
    norms       N_s1(x) and x s2(x) as whole products, and N_K/F(x);
    conditions  the norm conditions (a) and (b) from whole products;
    projection  the 2m-term sum sum_(i<2m) zeta_2m^i gamma^i theta gamma^(2m-i),
                with gamma's powers taken one product at a time.

Each reads only ``mul``, ``sigma``, ``scale``, ``add``, ``equal`` and the
parameters of the algebra, none of the restricted products.
"""

from __future__ import annotations

from brauerlab.crossed import CrossedError


def s1_norm(K, x):
    """x s1(x) ... s1^(m-1)(x), every product whole."""
    out = x
    for k in range(1, K.m):
        out = K.mul(out, K.sigma(x, k, 0))
    return out


def s2_norm(K, x):
    """x s2(x), whole."""
    return K.mul(x, K.sigma(x, 0, 1))


def field_norm(K, x):
    """N_K/F(x): the product of all 2m Galois images of x, as an element of K."""
    out = K.one()
    for s1 in range(K.m):
        for s2 in range(2):
            out = K.mul(out, K.sigma(x, s1, s2))
    return out


def inverse(K, x):
    """x^-1 as the product of all nontrivial twists over the scalar norm."""
    if K.is_zero(x):
        raise CrossedError("division by zero in K")
    scalar = K.scalar_of(x)
    if scalar is not None:
        return K.scalar(scalar.inverse())
    cofactor = K.one()
    if all(i == 0 for i, _ in x):
        cofactor = K.sigma(x, 0, 1)
    else:
        for s1 in range(K.m):
            for s2 in range(2):
                if s1 or s2:
                    cofactor = K.mul(cofactor, K.sigma(x, s1, s2))
    norm = K.scalar_of(K.mul(x, cofactor))
    if norm is None or norm.is_zero():
        raise CrossedError("element of K is not invertible")
    inv = K.scale(cofactor, norm.inverse())
    if not K.equal(K.mul(x, inv), K.one()):
        raise CrossedError("element of K is not invertible")
    return inv


def norm_conditions_hold(A) -> bool:
    """(a) N_s1(u) s2(b1) = b1 and (b) u s2(u) b2 = s1(b2), from whole products."""
    K = A.K
    return (K.equal(K.mul(s1_norm(K, A.u), K.sigma(A.b1, 0, 1)), A.b1)
            and K.equal(K.mul(s2_norm(K, A.u), A.b2), K.sigma(A.b2, 1, 0)))


def projection(A, gamma, theta):
    """sum_(i<2m) zeta_2m^i gamma^i theta gamma^(2m-i), term by term."""
    n = 2 * A.m
    powers = [A.one()]
    for _ in range(n):
        powers.append(A.mul(powers[-1], gamma))
    out = A.zero()
    for i in range(n):
        term = A.mul(A.mul(powers[i], theta), powers[n - i])
        out = A.add(out, A.scale(term, A.K.zeta_2m ** i))
    return out
