import itertools
import random
import time
from fractions import Fraction
from math import factorial, isqrt

import pytest

from qflat.enumeration import (
    BudgetExceeded,
    DimensionLimit,
    NotPositiveDefinite,
    automorphism_order,
    fingerprint,
    orthogonal_decompose,
    representation_count,
    represents,
    short_vectors,
)
from qflat.exact import mat_inverse
from qflat.gram import GramForm, e8_form, hyperbolic_plane, identity_form, orthogonal_sum

A2 = GramForm(((2, 1), (1, 2)))


def brute_count(G, m):
    """Independent nested-loop count of f(v) = m.

    Coordinate bound |x_i| <= sqrt(m * (G^-1)_ii) comes from Cauchy-Schwarz
    in the G-metric.
    """
    inv = mat_inverse(G.matrix)
    n = G.n
    bounds = []
    for i in range(n):
        q = Fraction(m) * inv[i][i]
        bounds.append(isqrt(q.numerator // q.denominator))
    hits = 0
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if G.value(x) == m:
            hits += 1
    return hits


def random_unimodular(n, rng, shears=6):
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):
            T[r][i] += c * T[r][j]
    return T


def transformed(G, T):
    n = G.n
    M = [[sum(T[a][i] * G.matrix[a][b] * T[b][j]
              for a in range(n) for b in range(n))
          for j in range(n)] for i in range(n)]
    return GramForm(tuple(tuple(r) for r in M))


# ---------------------------------------------------------------------------
# short vectors


def test_short_vectors_examples():
    assert len(short_vectors(e8_form(), 2, expand=True)) == 240
    assert len(short_vectors(identity_form(2), 1, expand=True)) == 4
    assert len(short_vectors(A2, 2, expand=True)) == 6


def test_short_vectors_representatives_and_order():
    sv = short_vectors(identity_form(2), 2)
    assert sv.vectors == ((0, 1), (1, -1), (1, 0), (1, 1))
    for v in sv.vectors:
        lead = next(c for c in v if c)
        assert lead > 0
    ex = short_vectors(identity_form(2), 2, expand=True)
    assert list(ex.vectors) == sorted(set(ex.vectors))
    assert len(ex) == 2 * len(sv)


def test_short_vectors_complete():
    # every vector in a box with norm below the bound is listed
    G = GramForm(((2, 1, 0), (1, 3, 1), (0, 1, 4)))
    listed = set(short_vectors(G, 6, expand=True).vectors)
    for x in itertools.product(range(-3, 4), repeat=3):
        if x != (0, 0, 0) and G.value(x) <= 6:
            assert x in listed
    for v in listed:
        assert 0 < G.value(v) <= 6


def test_short_vectors_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        short_vectors(hyperbolic_plane(), 2)
    with pytest.raises(ValueError):
        short_vectors(identity_form(2), 0)


# ---------------------------------------------------------------------------
# representation counts


def test_representation_count_examples():
    assert representation_count(e8_form(), 2) == 240
    assert representation_count(identity_form(2), 1) == 4
    assert representation_count(identity_form(4), 2) == 24


def test_count_matches_bruteforce_oracle():
    rng = random.Random(5)
    forms = [identity_form(2), A2, GramForm(((1, 0), (0, 3)))]
    for _ in range(4):
        n = rng.randint(2, 4)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = rng.randint(1, 4)
        for i in range(n):
            for j in range(i + 1, n):
                M[i][j] = M[j][i] = rng.randint(0, 1)
        try:
            forms.append(GramForm(tuple(tuple(r) for r in M)))
        except Exception:
            continue
    for G in forms:
        try:
            short_vectors(G, 1)
        except NotPositiveDefinite:
            continue
        for m in range(1, 11):
            assert representation_count(G, m) == brute_count(G, m), (G.matrix, m)


def test_count_is_isometry_invariant():
    rng = random.Random(9)
    for G in (identity_form(3), A2, orthogonal_sum(A2, identity_form(2))):
        H = transformed(G, random_unimodular(G.n, rng))
        for m in (1, 2, 3, 4):
            assert representation_count(G, m) == representation_count(H, m)


def test_counts_consistent_with_short_vectors():
    G = GramForm(((2, 1), (1, 4)))
    B = 9
    points = len(short_vectors(G, B, expand=True).vectors) + 1
    assert sum(representation_count(G, m) for m in range(1, B + 1)) + 1 == points


def test_fingerprint_examples():
    assert fingerprint(identity_form(2), 2) == (4, 4)
    assert fingerprint(e8_form(), 2) == (0, 240)
    fp = fingerprint(orthogonal_sum(A2, A2), 6)
    assert fp[0] == fp[2] == fp[4] == 0  # even form: no odd values


def test_represents():
    assert represents(e8_form(), 2)
    assert not represents(GramForm(((3,),)), 2)
    assert not represents(A2, 1)
    assert represents(identity_form(4), 7)
    with pytest.raises(NotPositiveDefinite):
        represents(hyperbolic_plane(), 2)


# ---------------------------------------------------------------------------
# automorphism groups


def test_automorphism_small():
    assert automorphism_order(GramForm(((1,),))) == 2
    assert automorphism_order(identity_form(2)) == 8
    assert automorphism_order(A2) == 12


def test_automorphism_hyperoctahedral():
    for n in range(1, 5):
        assert automorphism_order(identity_form(n)) == 2 ** n * factorial(n)


def test_automorphism_i2_matches_exhaustive_oracle():
    G = identity_form(2)
    hits = 0
    for entries in itertools.product((-1, 0, 1), repeat=4):
        T = ((entries[0], entries[1]), (entries[2], entries[3]))
        ok = all(
            sum(T[a][i] * G.matrix[a][b] * T[b][j] for a in range(2) for b in range(2))
            == G.matrix[i][j]
            for i in range(2) for j in range(2)
        )
        hits += ok
    assert automorphism_order(G) == hits == 8


def test_automorphism_e8():
    assert automorphism_order(e8_form()) == 696729600


def test_automorphism_isometry_invariant():
    rng = random.Random(3)
    H = transformed(A2, random_unimodular(2, rng))
    assert automorphism_order(H) == 12


def test_automorphism_dimension_limit():
    G = identity_form(9)
    with pytest.raises(DimensionLimit):
        automorphism_order(G)
    assert automorphism_order(G, dim_limit=9) == 2 ** 9 * factorial(9)


# ---------------------------------------------------------------------------
# orthogonal decomposition


def test_decompose_examples():
    blocks = orthogonal_decompose(identity_form(2))
    assert [b.matrix for b in blocks] == [((1,),), ((1,),)]
    assert len(orthogonal_decompose(A2)) == 1
    blocks = orthogonal_decompose(orthogonal_sum(e8_form(), GramForm(((2,),))))
    dims = sorted(b.n for b in blocks)
    assert dims == [1, 8]
    assert sorted(b.determinant for b in blocks) == [1, 2]


def test_decompose_interleaved_coordinates():
    # block structure is found regardless of coordinate order
    H = GramForm(((2, 0, 1), (0, 1, 0), (1, 0, 2)))
    blocks = orthogonal_decompose(H)
    assert sorted(b.n for b in blocks) == [1, 2]
    assert sorted(b.determinant for b in blocks) == [1, 3]


def test_decompose_coarse_under_skewed_basis():
    # a shear drives the diagonal up, so vectors that mix true summands
    # fall below the bound; the result must still account for the whole form
    rng = random.Random(21)
    G = orthogonal_sum(GramForm(((1,),)), A2)
    H = transformed(G, random_unimodular(3, rng))
    blocks = orthogonal_decompose(H)
    assert sum(b.n for b in blocks) == 3
    prod = 1
    for b in blocks:
        prod *= b.determinant
    assert prod == H.determinant


def _sheared(G, shears):
    """G in the basis where column i gains c times column j, per (i, j, c)."""
    T = [[1 if i == j else 0 for j in range(G.n)] for i in range(G.n)]
    for i, j, c in shears:
        for row in T:
            row[i] += c * row[j]
    return transformed(G, T)


@pytest.mark.parametrize("G,shears,parts", [
    (identity_form(5), [(1, 0, 1), (2, 1, 1), (4, 3, -1)], [(1, 1)] * 5),
    (identity_form(8), [(1, 0, 1), (2, 1, -1), (4, 3, 1), (6, 5, 1),
                        (7, 6, -1)], [(1, 1)] * 8),
    (orthogonal_sum(A2, A2), [(2, 1, 1), (3, 0, -1)], [(2, 3)] * 2),
], ids=["Z5", "Z8", "A2+A2"])
def test_decompose_finest_under_skewed_basis(G, shears, parts):
    # Eichler: the indecomposable summands are unique, so a unimodular
    # shear of the basis must not glue them together
    H = _sheared(G, shears)
    assert max(H.matrix[i][i] for i in range(H.n)) > 1
    blocks = orthogonal_decompose(H)
    assert sorted((b.n, b.determinant) for b in blocks) == parts


def test_decompose_budget():
    with pytest.raises(BudgetExceeded):
        orthogonal_decompose(identity_form(4), budget=3)


def test_decompose_budget_stops_the_listing():
    # largest diagonal entry 33: about 2.6M vectors to list in full, so the
    # budget must stop the walk itself, not a check after it
    G = transformed(identity_form(8), random_unimodular(8, random.Random(3)))
    assert max(G.matrix[i][i] for i in range(8)) == 33
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        orthogonal_decompose(G)
    assert time.perf_counter() - start < 5
