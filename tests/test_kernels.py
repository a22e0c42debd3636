"""Property tests for the shared exact kernels, with sympy as the oracle.

One fraction-free (Bareiss) elimination serves determinant, rank,
inverse, span (lattice) coordinates and the enumerator's positive
definite split; one symmetric congruence elimination serves the
signature; one Fincke-Pohst walk serves counting and the represents-m
predicate; trial division finds the square primes that saturation
needs.  Matrices are drawn integer and rational, singular,
rank-deficient, zero-led and tall sparse ones included; symmetric ones
include indefinite forms with zero diagonals, such as sums of H.
"""

import os
import subprocess
import sys
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import qflat.cli
from qflat import exact
from qflat.enumeration import representation_count, represents
from qflat.gram import GramForm, SingularFormError
from qflat.lattice import Lattice, _square_primes

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

small_int = st.integers(-4, 4)
small_rat = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _rows(draw, n, m, entry):
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@st.composite
def matrices(draw, square=True):
    """Integer or rational matrices; a third of them are a product through
    a smaller inner dimension, so singular and rank-deficient inputs are
    common."""
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    entry = draw(st.sampled_from([small_int, small_rat]))
    if draw(st.integers(0, 2)):
        return exact.freeze(_rows(draw, n, m, entry))
    r = draw(st.integers(1, min(n, m)))
    return exact.mat_mul(exact.freeze(_rows(draw, n, r, entry)),
                         exact.freeze(_rows(draw, r, m, entry)))


@st.composite
def symmetric(draw):
    """Symmetric integer matrices, often with zero diagonals and H blocks."""
    n = draw(st.integers(1, 5))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(small_int)
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    if draw(st.booleans()):
        # a sum of hyperbolic planes in a shuffled basis
        perm = draw(st.permutations(range(n)))
        a = [[0] * n for _ in range(n)]
        for k in range(0, n - 1, 2):
            i, j = perm[k], perm[k + 1]
            a[i][j] = a[j][i] = draw(st.sampled_from([1, -1, 2]))
        if n % 2:
            a[perm[-1]][perm[-1]] = draw(st.sampled_from([-1, 1, 3]))
    return exact.freeze(a)


def _sym(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          if isinstance(x, Fraction) else x for x in row]
                         for row in a])


def _frac(x):
    return Fraction(int(x.p), int(x.q))


@st.composite
def zero_leading_pivots(draw):
    """kH for k <= 4, and matrices whose first row starts with zeros: the
    first pivots need row swaps."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        return tuple(tuple(int(i ^ 1 == j) for j in range(2 * k))
                     for i in range(2 * k))
    a = [list(row) for row in draw(matrices())]
    z = draw(st.integers(1, len(a)))
    a[0][:z] = [0] * z
    return exact.freeze(a)


@SETTINGS
@given(st.one_of(matrices(), zero_leading_pivots()))
def test_determinant_matches_sympy(a):
    got = exact.determinant(a)
    assert got == _frac(_sym(a).det())
    if all(isinstance(x, int) for row in a for x in row):
        assert isinstance(got, int)


@SETTINGS
@given(st.one_of(matrices(square=False), zero_leading_pivots()))
def test_rank_matches_sympy(a):
    assert exact.rank(a) == _sym(a).rank()


@st.composite
def scaled_incidence(draw):
    """(vertices, edges, rows): the rows (e_i - e_j) s of a random graph's
    edges ij, each scaled by a random nonzero Fraction s.  Tall and
    sparse, so most multipliers in an elimination are zero."""
    v = draw(st.integers(2, 12))
    edge = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=3 * v))
    scale = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1),
                      st.integers(1, 4))
    rows = []
    for i, j in edges:
        s = draw(scale)
        rows.append(tuple(s * ((k == i) - (k == j)) for k in range(v)))
    return v, edges, tuple(rows)


@SETTINGS
@given(scaled_incidence())
def test_rank_of_scaled_incidence_rows(case):
    v, edges, a = case
    root = list(range(v))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for i, j in edges:
        root[find(i)] = find(j)
    components = len({find(k) for k in range(v)})
    assert exact.rank(a) == v - components


@SETTINGS
@given(st.one_of(matrices(), zero_leading_pivots()),
       st.lists(small_rat, min_size=8, max_size=8))
def test_inverse_and_solve_match_sympy(a, b):
    n = len(a)
    b = b[:n]
    if _sym(a).det() == 0:
        for call in (lambda: exact.mat_inverse(a),
                     lambda: exact.span_coordinates(a, b)):
            try:
                call()
            except exact.SingularMatrix:
                continue
            raise AssertionError("singular matrix not rejected")
        return
    inv = _sym(a).inv()
    assert exact.mat_inverse(a) == tuple(
        tuple(_frac(inv[i, j]) for j in range(n)) for i in range(n))
    x = inv * _sym([b]).T
    assert exact.span_coordinates(a, b) == tuple(_frac(x[i]) for i in range(n))


@SETTINGS
@given(matrices(square=False), st.lists(small_int, min_size=5, max_size=5),
       st.lists(small_rat, min_size=5, max_size=5))
def test_coordinates_in_and_out_of_span(basis, c, v):
    n, r = exact.shape(basis)
    if _sym(basis).rank() < r:
        return
    lat = Lattice(GramForm(exact.identity(n)), basis)
    inside = exact.mat_vec(basis, c[:r])
    assert lat.coordinates(inside) == tuple(Fraction(x) for x in c[:r])
    v = v[:n]
    in_span = _sym(basis).rank() == _sym(basis).row_join(_sym([v]).T).rank()
    coords = lat.coordinates(v)
    assert (coords is not None) == in_span
    if in_span:
        assert exact.mat_vec(basis, coords) == tuple(v)


def _inertia(a):
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial: its roots are real, so Descartes' rule of signs is exact."""
    x = sympy.Symbol("x")
    poly = _sym(a).charpoly(x)
    coeffs = poly.all_coeffs()

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    flipped = [c * (-1) ** k for k, c in enumerate(reversed(coeffs))][::-1]
    return changes(coeffs), changes(flipped), zero


@SETTINGS
@given(symmetric())
def test_signature_matches_sympy(a):
    pos, neg, zero = _inertia(a)
    form = GramForm(a)
    if zero:
        try:
            form.signature
        except SingularFormError:
            return
        raise AssertionError("degenerate form not rejected")
    assert form.signature == (pos, neg)


@SETTINGS
@given(symmetric())
def test_cholesky_matches_leading_minors(a):
    n = len(a)
    minors = [Fraction(1)] + [exact.determinant(tuple(row[:k] for row in a[:k]))
                              for k in range(1, n + 1)]
    bad = next((k for k in range(n) if minors[k + 1] <= 0), None)
    if bad is not None:
        try:
            exact.positive_split(a)
        except exact.NotPositiveDefinite as err:
            pivot = Fraction(minors[bad + 1], minors[bad])
            assert str(err).endswith(f"(pivot {pivot} at index {bad})")
            return
        raise AssertionError("non-positive form not rejected")
    got, rows = exact.positive_split(a)
    assert got == tuple(minors)
    L, D = _sym(a).LDLdecomposition(hermitian=False)
    assert all(Fraction(got[k + 1], got[k]) == _frac(D[k, k])
               for k in range(n))
    assert all(Fraction(rows[i][j], rows[i][i]) == _frac(L[j, i])
               for i in range(n) for j in range(n))


@st.composite
def positive_forms(draw):
    n = draw(st.integers(1, 4))
    b = exact.freeze(_rows(draw, n, n, st.integers(-2, 2)))
    g = exact.mat_mul(exact.transpose(b), b)
    if exact.determinant(g) == 0:
        g = tuple(tuple(x + (i == j) for j, x in enumerate(row))
                  for i, row in enumerate(g))
    return GramForm(g)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(positive_forms(), st.integers(1, 12))
def test_represents_agrees_with_count(form, m):
    assert represents(form, m) == (representation_count(form, m) > 0)


@SETTINGS
@given(st.integers(1, 10**6), st.sampled_from([1, 4, 9, 49, 10007**2, 999983]))
def test_square_primes_match_factorint(f, square):
    f *= square
    want = {p for p, e in sympy.factorint(f).items() if e >= 2}
    assert _square_primes(f) == want


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(qflat.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import qflat.cli, sys; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
