from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from brauerlab import snf
from lattice_oracle import kernel_basis, mat_mult


def mat_vec(a, v):
    """Oracle: the integer matrix-vector product a v."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _rand_matrix(rng, m, n, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _is_diagonal(d):
    return all(not v for i, row in enumerate(d) for j, v in enumerate(row) if i != j)


def _rational_rank(a):
    # Independent oracle: fraction-free (Bareiss) elimination over Z. Every
    # entry stays a minor of a, so each division is exact.
    m = [list(row) for row in a]
    rank = 0
    prev = 1
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][j]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        p = pr[j]
        for i in range(rank + 1, len(m)):
            f = m[i][j]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], pr)]
        prev = p
        rank += 1
    return rank


def _check_snf(a):
    res = snf.smith_normal_form(a)
    assert _is_diagonal(res.D)
    assert mat_mult(mat_mult(res.U, a), res.V) == res.D
    divs = res.divisors
    assert all(d > 0 for d in divs)
    for x, y in zip(divs, divs[1:]):
        assert y % x == 0
    assert abs(snf.det(res.U)) == 1
    assert abs(snf.det(res.V)) == 1
    assert len(divs) == _rational_rank(a)
    return res


def test_snf_known_values():
    # Divisors worked out by hand.
    def divisors(a):
        return snf.smith_normal_form(a, want_u=False, want_v=False).divisors

    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert divisors(a) == [2, 2, 156]
    assert divisors([[1, 0], [0, 1]]) == [1, 1]
    assert divisors([[0, 0], [0, 0]]) == []
    assert divisors([[2, 0], [0, 3]]) == [1, 6]


def test_snf_random_postconditions():
    rng = random.Random(20260814)
    for _ in range(500):
        m = rng.randint(1, 30)
        n = rng.randint(1, 30)
        _check_snf(_rand_matrix(rng, m, n))


def test_snf_structured_shapes():
    rng = random.Random(7)
    # Rank-deficient products and scaled rows exercise the divisibility pass.
    for _ in range(50):
        m, k, n = rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 8)
        a = mat_mult(_rand_matrix(rng, m, k, -6, 6), _rand_matrix(rng, k, n, -6, 6))
        res = _check_snf(a)
        assert res.rank <= k


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_property(rows):
    _check_snf(rows)


def test_kernel_basis():
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        a = _rand_matrix(rng, m, n, -9, 9)
        kb = kernel_basis(a)
        assert len(kb) == n - _rational_rank(a)
        for v in kb:
            assert all(s == 0 for s in mat_vec(a, v))
        if kb:
            # Saturation: the kernel basis extends to a basis of Z^n.
            cols = [list(col) for col in zip(*kb)]
            assert all(d == 1 for d in snf.smith_normal_form(cols).divisors)


def test_solver_roundtrip():
    rng = random.Random(123)
    for _ in range(100):
        m = rng.randint(1, 9)
        n = rng.randint(1, 9)
        a = _rand_matrix(rng, m, n, -9, 9)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(a, x)
        solver = snf.IntSolver(a)
        got = solver.solve(b)
        assert got is not None
        assert mat_vec(a, got) == b


def test_solver_detects_unsolvable():
    # 2x = 1 has no integer solution; x + y = 1 vs 2x + 2y = 3 inconsistent.
    assert snf.IntSolver([[2]]).solve([1]) is None
    assert snf.IntSolver([[1, 1], [2, 2]]).solve([1, 3]) is None
    got = snf.IntSolver([[1, 1], [2, 2]]).solve([1, 2])
    assert got is not None and sum(got) == 1


def _dense_solve(a, b):
    # Oracle: the dense solve against the full transforms, U b and V y.
    res = snf.smith_normal_form(a)
    m, n = len(a), len(a[0])
    c = mat_vec(res.U, b)
    y = [0] * n
    for t in range(m):
        d = res.D[t][t] if t < min(m, n) else 0
        if d:
            if c[t] % d:
                return None, "divisibility"
            y[t] = c[t] // d
        elif c[t]:
            return None, "past rank"
    return mat_vec(res.V, y), None


def _oracle_matrices(rng):
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        yield _rand_matrix(rng, m, n, -9, 9)
        # Rank-deficient products, scaled so that divisors above 1 appear.
        k = rng.randint(1, min(m, n))
        s = rng.choice((1, 2, 3, 6))
        left = _rand_matrix(rng, m, k, -3, 3)
        right = _rand_matrix(rng, k, n, -3, 3)
        yield [[s * v for v in row] for row in mat_mult(left, right)]


def test_solver_matches_dense_oracle():
    rng = random.Random(6)
    rejected = {"divisibility": 0, "past rank": 0}
    for a in _oracle_matrices(rng):
        m, n = len(a), len(a[0])
        solver = snf.IntSolver(a)
        b = mat_vec(a, [rng.randint(-5, 5) for _ in range(n)])
        off = list(b)
        off[rng.randrange(m)] += 1
        for rhs in (b, off):
            want, why = _dense_solve(a, rhs)
            assert solver.solve(rhs) == want
            if why:
                rejected[why] += 1
        assert solver.solve(b) is not None
    # Both refusals of the solve occur, so each check is exercised.
    assert min(rejected.values()) >= 20, rejected


def test_det_matches_cofactor_oracle():
    def cofactor_det(a):
        n = len(a)
        if n == 1:
            return a[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n, n, -8, 8)
        assert snf.det(a) == cofactor_det(a)
