import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat import exact
from qflat.gram import GramForm, hyperbolic_plane, identity_form, orthogonal_sum

H = hyperbolic_plane()


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
    assert exact.smith_normal_form(exact.freeze([[2, 0], [0, 6]])) == (2, 6)


def test_snf_small_example():
    a = exact.freeze([[2, 1], [1, 2]])
    assert exact.smith_normal_form(a) == (1, 3)


def test_snf_zero_matrix():
    a = exact.freeze([[0, 0], [0, 0]])
    assert exact.smith_normal_form(a) == (0, 0)


def test_snf_random_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = exact.freeze(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        d = exact.smith_normal_form(a)
        # diagonal, nonnegative, divisibility chain
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
        d = exact.smith_normal_form(exact.freeze(a))
        sm = sympy_snf(sympy.Matrix(a))
        theirs = sorted(abs(sm[i, i]) for i in range(n))
        assert sorted(d) == theirs


@st.composite
def snf_matrices(draw):
    """Dense integer matrices up to 8x8, or symmetric diagonally dominant
    ones up to 10x10: sizes where naive Smith elimination blows up."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        return exact.freeze(draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))
    n = draw(st.integers(1, 10))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(st.integers(-9, 9))
    for i in range(n):
        a[i][i] = sum(abs(x) for x in a[i]) + draw(st.integers(1, 9))
    return exact.freeze(a)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(snf_matrices())
def test_snf_and_kernel_on_large_matrices(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rows, cols = exact.shape(a)
    d = exact.smith_normal_form(a)
    assert len(d) == min(rows, cols)
    for x, y in zip(d, d[1:]):
        assert x >= 0 and (y % x == 0 if x else y == 0)
    if rows <= 4 and cols <= 4:
        assert d == minor_invariant_factors(a)
    else:
        sm = sympy_snf(sympy.Matrix(a))
        theirs = sorted(abs(sm[i, i]) for i in range(min(rows, cols)))
        assert sorted(d) == theirs
    # the integer kernel: a K = 0, one column per rank deficiency, saturated
    k = exact.kernel_basis_int(a)
    r = exact.rank(a)
    assert exact.shape(k) == (cols, cols - r)
    if cols > r:
        assert all(x == 0 for row in exact.mat_mul(a, k) for x in row)
        assert set(exact.smith_normal_form(k)) == {1}


def test_hermite_form_rejects_non_integral_entries():
    with pytest.raises(ValueError):
        exact.row_hermite_form(((Fraction(1, 2), 1),))
    assert exact.row_hermite_form(((Fraction(4, 2), 0),)) == ((2, 0),)


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
    # index-order LDL: no fold turns the zero pivot of H into 2
    with pytest.raises(exact.NotPositiveDefinite,
                       match=r"\(pivot 0 at index 0\)$"):
        exact.rational_cholesky(((0, 1), (1, 0)))


@pytest.mark.parametrize("g, signature", [
    (orthogonal_sum(H, H).matrix, (2, 2)),
    (((0, 1, 1), (1, 0, 1), (1, 1, 0)), (1, 2)),
    (orthogonal_sum(*[H] * 20, GramForm(((2,),))).matrix, (21, 20)),
    (orthogonal_sum(identity_form(93), GramForm(((-1,),))).matrix, (93, 1)),
])
def test_congruence_split_over_q_folds_a_zero_diagonal(g, signature):
    steps = list(exact.congruence_split(g))
    assert all(v == 0 and len(block) == 1 for v, _, block, _ in steps)
    for _, _, block, basis in steps:
        b = exact.transpose(basis)
        assert exact.mat_mul(exact.mat_mul(basis, g), b) == block
    bases = [vec for *_, basis in steps for vec in basis]
    assert exact.determinant(bases) != 0
    pos = sum(block[0][0] > 0 for _, _, block, _ in steps)
    assert (pos, len(g) - pos) == signature


def test_congruence_split_rejects_a_degenerate_form():
    for g in (((0, 0), (0, 0)), ((1, 1), (1, 1)),
              ((0, 1, 0), (1, 0, 0), (0, 0, 0))):
        with pytest.raises(exact.SingularMatrix, match="degenerate over Q"):
            list(exact.congruence_split(g))
    with pytest.raises(exact.SingularMatrix, match="degenerate over Z_p"):
        list(exact.congruence_split(((2, 2), (2, 2)), 2))


def test_congruence_split_over_z_p_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction on a p-adic path")

    monkeypatch.setattr(exact, "Fraction", no_fraction)
    dense = tuple(tuple(2 * (i == j) + 1 for j in range(5)) for i in range(5))
    for g in (orthogonal_sum(H, H, GramForm(((12,),))).matrix, dense):
        for p in (2, 3, 5):
            steps = list(exact.congruence_split(g, p))
            assert all(isinstance(x, int) for _, _, block, basis in steps
                       for rows in (block, basis) for row in rows for x in row)


def test_clear_denominators_takes_the_least_multiplier():
    ints = ((2, -4), (6, 0))
    assert exact.clear_denominators(ints) == (ints, 1)
    q = ((Fraction(1, 4), Fraction(5, 6)), (3, Fraction(-2, 3)))
    m, d = exact.clear_denominators(q)
    assert (m, d) == (((3, 10), (36, -8)), 12)
    assert all(type(x) is int for row in m for x in row)
    assert exact.clear_denominators(((0, 0, 0),)) == (((0, 0, 0),), 1)
    assert exact.clear_denominators(((Fraction(1, 2), 0), (0, 0))) == (
        ((1, 0), (0, 0)), 2)


def test_content_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="non-integral"):
        exact.primitive_part((Fraction(3, 2), 3))
    with pytest.raises(ValueError, match="non-integral"):
        exact.content((1, Fraction(1, 3)))
    assert exact.primitive_part((Fraction(4, 2), 6)) == (1, 3)
    assert exact.content((Fraction(-6, 3), 4)) == 2


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
    x = exact.span_coordinates(a, (1, 0))
    assert x == (Fraction(2, 3), Fraction(-1, 3))
    with pytest.raises(exact.SingularMatrix):
        exact.mat_inverse(exact.freeze([[1, 2], [2, 4]]))
