import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflat import exact
from qflat.gram import GramForm, e8_form, hyperbolic_plane, identity_form
from qflat.lattice import (
    DegenerateLattice,
    Lattice,
    NotClassicallyIntegral,
    discriminant,
    dual_lattice,
    invariant_factors,
    lattice_intersection,
    lattice_sum,
    saturate,
    scale_lattice,
)


def test_standard_lattice_basics():
    f = GramForm([[1, 0], [0, 9]])
    lat = Lattice.standard(f)
    assert lat.rank == 2
    assert lat.is_classically_integral
    assert lat.induced_gram == ((1, 0), (0, 9))
    assert lat.contains((3, -4))
    assert not lat.contains((Fraction(1, 2), 0))


def test_dual_of_diagonal():
    f = GramForm([[1, 0], [0, 9]])
    dual = dual_lattice(Lattice.standard(f))
    assert dual.contains((1, 0))
    assert dual.contains((0, Fraction(1, 9)))
    assert not dual.contains((0, Fraction(1, 18)))
    # every dual vector pairs integrally with the lattice
    assert f.inner((0, Fraction(1, 9)), (0, 1)) == 1


def test_dual_is_involutive():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = exact.mat_mul(exact.transpose(exact.freeze(b)), exact.freeze(b))
        try:
            f = GramForm([[int(x) for x in row] for row in g])
            f.determinant
        except Exception:
            continue
        lat = Lattice.standard(f)
        assert dual_lattice(dual_lattice(lat)) == lat


def test_dual_of_unimodular_is_self():
    for f in (e8_form(), hyperbolic_plane()):
        lat = Lattice.standard(f)
        assert dual_lattice(lat) == lat


def test_invariant_factors_examples():
    assert invariant_factors(Lattice.standard(GramForm([[1, 0], [0, 9]]))) == (1, 9)
    assert invariant_factors(Lattice.standard(e8_form())) == (1,) * 8
    assert invariant_factors(Lattice.standard(GramForm([[2, 1], [1, 2]]))) == (1, 3)


def test_sum_and_intersection_of_scaled():
    f = identity_form(2)
    z = Lattice.standard(f)
    a = scale_lattice(z, 2)
    b = scale_lattice(z, 3)
    assert lattice_sum(a, b) == z
    assert lattice_intersection(a, b) == scale_lattice(z, 6)
    assert lattice_sum(a, a) == a
    assert lattice_intersection(a, z) == a


def test_saturate_diag_1_9():
    f = GramForm([[1, 0], [0, 9]])
    sat = saturate(Lattice.standard(f))
    assert sat.induced_gram == ((1, 0), (0, 1))
    assert sat.contains((0, Fraction(1, 3)))


def test_saturate_unary():
    f = GramForm([[4]])
    sat = saturate(Lattice.standard(f))
    assert sat.induced_gram == ((1,),)
    assert sat.basis == ((Fraction(1, 2),),)


def test_saturate_fixed_point():
    f = GramForm([[2, 1], [1, 2]])
    lat = Lattice.standard(f)
    assert saturate(lat) == lat


def test_saturate_properties_random():
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g = exact.mat_mul(exact.transpose(exact.freeze(b)), exact.freeze(b))
        det = exact.determinant(g)
        if det == 0 or abs(det) > 500:
            continue
        f = GramForm([[int(x) for x in row] for row in g])
        lat = Lattice.standard(f)
        sat = saturate(lat)
        checked += 1
        # contains the input lattice
        for j in range(3):
            col = tuple(lat.basis[i][j] for i in range(3))
            assert sat.contains(col)
        # still classically integral
        assert sat.is_classically_integral
        # squarefree invariant factors
        for fac in invariant_factors(sat):
            assert fac != 0
            for p in range(2, 23):
                assert fac % (p * p) != 0
        # idempotent
        assert saturate(sat) == sat
        # discriminant divides the original
        d0, d1 = discriminant(lat), discriminant(sat)
        assert d0 % d1 == 0


def _columns(lat):
    return [tuple(row[j] for row in lat.basis) for j in range(lat.rank)]


@st.composite
def lattice_pairs(draw):
    """Two full-rank lattices with small rational bases in one diagonal form."""
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 5]),
                         min_size=n, max_size=n))
    f = GramForm([[diag[i] if i == j else 0 for j in range(n)]
                  for i in range(n)])
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    bases = [draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n)) for _ in range(2)]
    assume(all(exact.determinant(b) != 0 for b in bases))
    return Lattice(f, bases[0]), Lattice(f, bases[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_pairs())
def test_sum_and_meet_obey_the_second_isomorphism_theorem(pair):
    a, b = pair
    s, m = lattice_sum(a, b), lattice_intersection(a, b)
    # [A + B : B] = [A : A meet B], squared through the Gram determinants
    assert discriminant(m) * discriminant(s) == discriminant(a) * discriminant(b)
    for lat in (a, b):
        assert all(s.contains(v) for v in _columns(lat))
        assert all(lat.contains(v) for v in _columns(m))


def test_non_integral_rejected():
    f = GramForm([[1, 0], [0, 1]])
    lat = Lattice(f, [[Fraction(1, 2), 0], [0, 1]])
    assert not lat.is_classically_integral
    with pytest.raises(NotClassicallyIntegral):
        invariant_factors(lat)
    with pytest.raises(NotClassicallyIntegral):
        saturate(lat)


@pytest.mark.parametrize("ambient, basis", [
    ([[1, 0, 0], [0, -1, 0], [0, 0, 4]], [[1, 0], [1, 0], [0, 1]]),
    ([[1, 0], [0, -1]], [[1], [1]]),
], ids=["invariant-factors-4-0", "isotropic-line"])
def test_saturate_rejects_a_degenerate_lattice(ambient, basis):
    lat = Lattice(GramForm(ambient), basis)
    assert discriminant(lat) == 0
    with pytest.raises(DegenerateLattice, match="singular"):
        saturate(lat)


def test_dual_rejects_a_degenerate_lattice():
    lat = Lattice(GramForm([[1, 0, 0], [0, -1, 0], [0, 0, 4]]),
                  [[1, 0], [1, 0], [0, 1]])
    with pytest.raises(DegenerateLattice, match="singular"):
        dual_lattice(lat)


def test_equality_by_span():
    f = identity_form(2)
    a = Lattice(f, [[1, 0], [0, 1]])
    b = Lattice(f, [[1, 1], [0, 1]])
    c = Lattice(f, [[1, 0], [0, 2]])
    assert a == b
    assert a != c
