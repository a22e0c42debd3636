import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from qflat import exact


def minor_invariant_factors(a):
    """Independent oracle: invariant factors via gcds of k-by-k minors."""
    rows, cols = exact.shape(a)
    r = min(rows, cols)
    prev = 1
    out = []
    for k in range(1, r + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = [[a[i][j] for j in cs] for i in rs]
                g = gcd(g, abs(exact.determinant(exact.freeze(sub))))
        if g == 0:
            out.extend([0] * (r - k + 1))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_snf_fixed_point():
    res = exact.smith_normal_form(exact.freeze([[2, 0], [0, 6]]))
    assert res.diagonal == (2, 6)


def test_snf_small_example():
    a = exact.freeze([[2, 1], [1, 2]])
    res = exact.smith_normal_form(a)
    assert res.diagonal == (1, 3)
    assert exact.mat_mul(exact.mat_mul(res.u, a), res.v) == res.s
    assert abs(exact.determinant(res.u)) == 1
    assert abs(exact.determinant(res.v)) == 1


def test_snf_zero_matrix():
    a = exact.freeze([[0, 0], [0, 0]])
    res = exact.smith_normal_form(a)
    assert res.s == a
    assert res.diagonal == (0, 0)


def test_snf_random_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = exact.freeze(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        res = exact.smith_normal_form(a)
        # transform identity and unimodularity
        assert exact.mat_mul(exact.mat_mul(res.u, a), res.v) == res.s
        assert abs(exact.determinant(res.u)) == 1
        assert abs(exact.determinant(res.v)) == 1
        # diagonal, nonnegative, divisibility chain
        d = res.diagonal
        for i, x in enumerate(d):
            assert x >= 0
            if i + 1 < len(d) and d[i] != 0:
                assert d[i + 1] % d[i] == 0
        assert d == minor_invariant_factors(a)


def test_snf_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        res = exact.smith_normal_form(exact.freeze(a))
        sm = sympy_snf(sympy.Matrix(a))
        theirs = sorted(abs(sm[i, i]) for i in range(n))
        assert sorted(res.diagonal) == theirs


def test_cholesky_identity():
    d, u = exact.rational_cholesky(exact.identity(3))
    assert d == (1, 1, 1)
    assert u == exact.identity(3, Fraction(1))


def test_cholesky_small_example():
    d, u = exact.rational_cholesky(exact.freeze([[2, 1], [1, 2]]))
    assert d == (Fraction(2), Fraction(3, 2))
    assert u[0][1] == Fraction(1, 2)


def test_cholesky_reconstructs():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        g = exact.mat_mul(exact.transpose(exact.freeze(b)), exact.freeze(b))
        if exact.determinant(g) == 0:
            continue
        d, u = exact.rational_cholesky(g)
        diag = tuple(
            tuple(d[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
        back = exact.mat_mul(exact.mat_mul(exact.transpose(u), diag), u)
        assert all(
            Fraction(g[i][j]) == back[i][j] for i in range(n) for j in range(n)
        )


def test_cholesky_rejects_indefinite():
    with pytest.raises(exact.NotPositiveDefinite):
        exact.rational_cholesky(exact.freeze([[1, 2], [2, 1]]))


def test_hermite_form_canonical_under_unimodular_moves():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        h1 = exact.row_hermite_form(exact.freeze(a))
        # random row operations preserve the row span
        b = [row[:] for row in a]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                b[i] = [x + q * y for x, y in zip(b[i], b[j])]
        rng.shuffle(b)
        h2 = exact.row_hermite_form(exact.freeze(b))
        assert h1 == h2


def test_kernel_basis():
    a = exact.freeze([[1, 2, 3], [2, 4, 6]])
    k = exact.kernel_basis_int(a)
    rows, cols = exact.shape(k)
    assert rows == 3 and cols == 2
    prod = exact.mat_mul(a, k)
    assert all(x == 0 for row in prod for x in row)
    # kernel of a nonsingular matrix is trivial
    k2 = exact.kernel_basis_int(exact.freeze([[2, 1], [1, 2]]))
    assert exact.shape(k2)[1] == 0


def test_inverse_and_solve():
    a = exact.freeze([[2, 1], [1, 2]])
    inv = exact.mat_inverse(a)
    assert exact.mat_mul(a, inv) == exact.identity(2, Fraction(1))
    x = exact.solve(a, (1, 0))
    assert x == (Fraction(2, 3), Fraction(-1, 3))
    with pytest.raises(exact.SingularMatrix):
        exact.mat_inverse(exact.freeze([[1, 2], [2, 4]]))
