import random
from fractions import Fraction

import pytest

from qflat.enumeration import fingerprint
from qflat import hyperbolic
from qflat.exact import (
    determinant,
    identity,
    kernel_basis_int,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    transpose,
)
from qflat.gram import GramForm, e8_form, hyperbolic_plane, orthogonal_sum
from qflat.hyperbolic import (
    BadDecomposition,
    DifferentSheet,
    Empty,
    HyperplaneOf,
    IsotropicVector,
    NegativeRoot,
    NotARoot,
    NotNegativeRoot,
    NotRoot,
    PositiveRoot,
    Whole,
    ZeroVector,
    cartan_involution,
    classify_hyperplane_meet,
    classify_root,
    complement_form,
    hyperbolic_distance,
    reflect,
    reflection_matrix,
    sheet_point,
)

MINK = GramForm(((1, 0), (0, -1)))
U = hyperbolic_plane()


# ---------------------------------------------------------------------------
# roots


def test_classify_even_unimodular_norm_two():
    L = orthogonal_sum(U, e8_form())
    r = classify_root(L, (1, 1) + (0,) * 8)
    assert isinstance(r, PositiveRoot) and r.norm == 2
    s = classify_root(L, (1, -1) + (0,) * 8)
    assert isinstance(s, NegativeRoot) and s.norm == -2


def test_classify_rejects_imprimitive_and_zero():
    assert classify_root(MINK, (2, 0)) == NotRoot((2, 0), "imprimitive")
    assert isinstance(classify_root(U, (1, 0)), NotRoot)  # isotropic
    with pytest.raises(ZeroVector):
        classify_root(MINK, (0, 0))
    # a vector off the lattice is an input error, not a failed root
    with pytest.raises(ValueError, match="non-integral"):
        classify_root(GramForm(((1, 0), (0, 1))), (Fraction(3, 2), 3))
    assert (classify_root(MINK, (Fraction(4, 2), 0))
            == NotRoot((2, 0), "imprimitive"))


def test_classify_lattice_preservation():
    # norm 4 with a pairing of 1: 2*1/4 is not integral
    G = GramForm(((4, 1), (1, 4)))
    r = classify_root(G, (1, 0))
    assert isinstance(r, NotRoot) and "preserve" in r.reason


def test_reflect_examples():
    assert reflect(MINK, (1, 0), (3, 2)) == (-3, 2)
    assert reflect(MINK, (1, 0), (1, 0)) == (-1, 0)
    assert reflect(MINK, (1, 0), (0, 7)) == (0, 7)
    with pytest.raises(NotARoot):
        reflect(U, (1, 0), (1, 1))


def test_reflect_rejects_a_wrong_length_vector():
    z2 = GramForm(identity(2))
    for x in ((3, 2, 5), (3,)):
        with pytest.raises(ValueError, match="length"):
            reflect(z2, (1, 0), x)


def test_reflection_random_suite():
    # 1000 (v, x) samples: form preserved, involution, determinant -1
    rng = random.Random(17)
    lattices = [
        MINK,
        U,
        orthogonal_sum(U, GramForm(((2,),))),
        orthogonal_sum(MINK, GramForm(((3,),))),
        GramForm(((2, 1), (1, -2))),
    ]
    checked = 0
    while checked < 1000:
        G = rng.choice(lattices)
        n = G.n
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(v):
            continue
        r = classify_root(G, v)
        if isinstance(r, NotRoot):
            continue
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        y = reflect(G, v, x)
        assert G.value(y) == G.value(x)
        assert reflect(G, v, y) == tuple(x)
        R = reflection_matrix(G, v)
        assert determinant(R) == -1
        assert mat_mul(transpose(R), mat_mul(G.matrix, R)) == G.matrix
        checked += 1


# ---------------------------------------------------------------------------
# Cartan involutions


def test_cartan_example():
    c = cartan_involution(MINK, (0, 1))
    assert c.matrix == ((-1, 0), (0, 1))
    assert c((5, 3)) == (-5, 3)
    assert c((0, 1)) == (0, 1)
    assert c.preserves_sheet


def test_cartan_is_involution_and_rejects_positive():
    G = orthogonal_sum(U, GramForm(((2,),)))
    c = cartan_involution(G, (1, -1, 0))
    assert mat_mul(c.matrix, c.matrix) == identity(3)
    with pytest.raises(NotNegativeRoot):
        cartan_involution(MINK, (1, 0))
    with pytest.raises(NotNegativeRoot):
        cartan_involution(U, (1, 1))


def test_cartan_random_suite():
    # 1000 negative-root samples: c_v^2 = 1, form preserved, ray fixed,
    # and the sheet pairing sign is conserved on rational sheet points
    rng = random.Random(23)
    lattices = [
        MINK,
        orthogonal_sum(U, GramForm(((2,),))),
        orthogonal_sum(MINK, GramForm(((1,),))),
    ]
    checked = 0
    while checked < 1000:
        G = rng.choice(lattices)
        n = G.n
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(v):
            continue
        r = classify_root(G, v)
        if not isinstance(r, NegativeRoot):
            continue
        c = cartan_involution(G, v)
        assert mat_mul(c.matrix, c.matrix) == identity(n)
        assert mat_mul(transpose(c.matrix), mat_mul(G.matrix, c.matrix)) \
            == G.matrix
        assert c(v) == v
        # sheet pairing sign against the seed v is preserved
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        before = (lambda t: (t > 0) - (t < 0))(
            -sum(a * b for a, b in zip(mat_vec(G.matrix, v), x)))
        after = (lambda t: (t > 0) - (t < 0))(
            -sum(a * b for a, b in zip(mat_vec(G.matrix, v), c(x))))
        assert before == after
        checked += 1


# ---------------------------------------------------------------------------
# sheet distances


def test_distance_boost_example():
    from qflat.intervals import Interval, log_interval

    seed = (0, 1)
    x = sheet_point(MINK, (0, 1), seed)
    # (sinh t, cosh t) with rational entries: cosh t = 5/4 means t = log 2
    y = sheet_point(MINK, (Fraction(3, 4), Fraction(5, 4)), seed)
    d = hyperbolic_distance(x, y)
    ref = log_interval(Interval(2), 256)
    assert d.lo <= ref.lo and ref.hi <= d.hi
    assert hyperbolic_distance(x, x).lo == 0
    assert hyperbolic_distance(x, y).lo == hyperbolic_distance(y, x).lo


def test_distance_symmetric_and_zero_iff_equal():
    G = orthogonal_sum(U, GramForm(((2,),)))
    s = (1, -1, 0)
    p = sheet_point(G, (1, -1, 0), s)
    q = sheet_point(G, (1, -2, 1), s)
    d = hyperbolic_distance(p, q)
    assert d.lo > 0
    assert hyperbolic_distance(p, p).hi == 0


def test_distance_rejects_other_sheet():
    seed = (0, 1)
    with pytest.raises(DifferentSheet):
        sheet_point(MINK, (0, -1), seed)
    a = sheet_point(MINK, (0, 1), seed)
    b = sheet_point(MINK, (0, -1), (0, -1))
    with pytest.raises(DifferentSheet):
        hyperbolic_distance(a, b)


def test_midpoint_relation():
    # v3 = c_{v1}(v2) satisfies d(v1,v2) = d(v1,v3) = d(v2,v3)/2
    G = orthogonal_sum(U, GramForm(((2,),)))
    v1, v2 = (1, -1, 0), (1, -2, 1)
    v3 = cartan_involution(G, v1)(v2)
    s = v1
    p1, p2, p3 = (sheet_point(G, w, s, level=2) for w in (v1, v2, v3))
    # exact check through cosh: cosh d12 = cosh d13 = 3/2, cosh d23 = 7/2
    # and cosh(2u) = 2 cosh(u)^2 - 1 ties them together exactly
    g = G.matrix
    c12 = Fraction(-sum(a * b for a, b in zip(mat_vec(g, v1), v2)), 2)
    c13 = Fraction(-sum(a * b for a, b in zip(mat_vec(g, v1), v3)), 2)
    c23 = Fraction(-sum(a * b for a, b in zip(mat_vec(g, v2), v3)), 2)
    assert c12 == c13 == Fraction(3, 2)
    assert c23 == 2 * c12 * c12 - 1 == Fraction(7, 2)
    d12 = hyperbolic_distance(p1, p2)
    d23 = hyperbolic_distance(p2, p3)
    half = d23 * Fraction(1, 2)
    assert half.lo <= d12.hi and d12.lo <= half.hi  # intervals overlap


# ---------------------------------------------------------------------------
# hyperplane meets


def test_meet_examples():
    t = GramForm(((1,),))
    f = orthogonal_sum(U, t)
    got = classify_hyperplane_meet(f, U, t, (1, 1, 0))
    assert got == HyperplaneOf(PositiveRoot((1, 1), 2))
    assert classify_hyperplane_meet(f, U, t, (0, 0, 1)) == Whole()
    assert classify_hyperplane_meet(f, U, t, (1, -1, 2)) == Empty()


def test_meet_rejects_bad_decomposition():
    t = GramForm(((1,),))
    f = orthogonal_sum(U, GramForm(((2,),)))
    with pytest.raises(BadDecomposition):
        classify_hyperplane_meet(f, U, t, (1, 1, 0))
    neg_tail = GramForm(((-1,),))
    g = orthogonal_sum(U, neg_tail)
    with pytest.raises(BadDecomposition):
        classify_hyperplane_meet(g, U, neg_tail, (1, 1, 0))


def test_meet_trichotomy_random_suite():
    # 1000 positive roots of alpha*U + diag(1,1): outcomes exhaustive and
    # exclusive; in the hyperplane case w re-verifies as a root of the block
    rng = random.Random(31)
    t = GramForm(((1, 0), (0, 1)))
    cases = {"empty": 0, "whole": 0, "hyper": 0}
    for alpha in (1, 2):
        f = orthogonal_sum(GramForm(((0, alpha), (alpha, 0))), t)
        q = U
        checked = 0
        while checked < 500:
            v = tuple(rng.randint(-4, 4) for _ in range(4))
            if not any(v):
                continue
            r = classify_root(f, v)
            if not isinstance(r, PositiveRoot):
                continue
            got = classify_hyperplane_meet(
                f, q, t, v, alpha=alpha)
            if isinstance(got, Empty):
                cases["empty"] += 1
            elif isinstance(got, Whole):
                cases["whole"] += 1
            else:
                cases["hyper"] += 1
                w = got.root
                assert isinstance(classify_root(q, w.vector), PositiveRoot)
                u = v[:2]
                k = u[0] // w.vector[0] if w.vector[0] else u[1] // w.vector[1]
                assert tuple(k * c for c in w.vector) == u
            checked += 1
    assert all(cases.values())


# ---------------------------------------------------------------------------
# complement forms


def test_complement_examples():
    assert complement_form(U, (1, -1)).matrix == ((2,),)
    assert complement_form(MINK, (0, 1)).matrix == ((1,),)
    assert complement_form(MINK, (1, 0)).matrix == ((-1,),)
    assert complement_form(MINK, (1, 0)).signature == (0, 1)
    with pytest.raises(IsotropicVector):
        complement_form(U, (1, 0))


def test_complement_even_unimodular_lorentzian():
    # ambient U + e8, negative root: complement is even positive definite
    # of determinant 2
    L = orthogonal_sum(U, e8_form())
    v = (1, -1) + (0,) * 8
    Q = complement_form(L, v)
    assert Q.n == 9
    assert Q.signature == (9, 0)
    assert Q.determinant == 2
    assert Q.is_even


def test_complement_fingerprint_is_isometry_invariant():
    L = orthogonal_sum(U, GramForm(((2,), )))
    v = (1, -1, 0)
    base = fingerprint(complement_form(L, v), 4)
    c = cartan_involution(L, v)
    # apply a couple of integral isometries to v
    w = c((1, -2, 1))
    for move in (c,):
        u = move(v)
        assert fingerprint(complement_form(L, u), 4) == base
    # a reflected negative root has the same complement class
    r = reflect(L, (1, 1, 0), v)
    assert fingerprint(complement_form(L, r), 4) == base


@pytest.mark.parametrize("L, v", [
    (e8_form(), (-1, 4, -2, 1, 3, -3, -4, 3)),
    (GramForm(((0, 1, 0), (1, 0, 0), (0, 0, 2))), (1, 2, 3)),
    (GramForm(identity(5)), (2, 0, -3, 1, 4)),
    (GramForm(((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
     (3, 1, 2, 0)),
], ids=["e8", "u22", "z5", "minus1+z3"])
def test_complement_basis_is_saturated_and_orthogonal(monkeypatch, L, v):
    seen = []

    def spy(a):
        seen.append(kernel_basis_int(a))
        return seen[-1]

    monkeypatch.setattr(hyperbolic, "kernel_basis_int", spy)
    Q = complement_form(L, v)
    (basis,) = seen
    assert Q.matrix == mat_mul(transpose(basis), mat_mul(L.matrix, basis))
    # every basis column is orthogonal to v
    assert mat_mul((mat_vec(L.matrix, v),), basis) == ((0,) * (L.n - 1),)
    assert rank(basis) == L.n - 1
    # saturated: the columns extend to a basis of Z^n
    assert smith_normal_form(basis) == (1,) * (L.n - 1)


def test_complement_clears_denominators_of_v():
    G = GramForm(((0, 1, 0), (1, 0, 0), (0, 0, 2)))
    assert (complement_form(G, (Fraction(1, 2), Fraction(1, 3), 0))
            == complement_form(G, (3, 2, 0)))
