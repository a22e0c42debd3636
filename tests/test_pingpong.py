"""Axis, translation-length, and ping-pong certificate tests."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.exact import freeze, identity, mat_inverse, mat_mul, mat_vec, transpose
from qflat.gram import GramForm, hyperbolic_plane, orthogonal_sum
from qflat.hyperbolic import (cartan_involution, hyperbolic_distance,
                              reflection_matrix, sheet_point)
from qflat.intervals import Interval, acosh_interval
from qflat.pingpong import (AxisRays, NotHyperbolic, QuadraticNumber,
                            _cross, _fixed_point_arcs, _in_arc, _mat_pow,
                            _mobius_of, SchottkyCertificate, SearchExhausted,
                            SharedEndpoint, UnsupportedBoundary,
                            binary_disc_form, free_words_audit,
                            schottky_certify, symmetric_square,
                            translation_axis, translation_length)

M1 = ((2, 1), (1, 1))
M2 = ((1, 1), (1, 2))


def overlap(x, y):
    return not (x.hi < y.lo or y.hi < x.lo)


class TestQuadraticNumber:
    def test_square_part_folds_into_coefficient(self):
        x = QuadraticNumber.make(0, 1, 8)
        assert (x.a, x.b, x.d) == (0, 2, 2)

    def test_perfect_square_radicand_becomes_rational(self):
        x = QuadraticNumber.make(1, 3, 4)
        assert x.is_rational and x.a == 7

    def test_golden_ratio_satisfies_its_equation(self):
        phi = QuadraticNumber.make(Fraction(1, 2), Fraction(1, 2), 5)
        assert (phi * phi - phi - 1).sign() == 0

    def test_division_inverts_multiplication(self):
        x = QuadraticNumber.make(2, -3, 7)
        y = QuadraticNumber.make(Fraction(1, 3), Fraction(1, 5), 7)
        assert ((x / y) * y - x).sign() == 0

    def test_sign_with_mixed_coefficients(self):
        assert QuadraticNumber.make(3, -1, 5).sign() == 1
        assert QuadraticNumber.make(2, -1, 5) .sign() == -1
        assert QuadraticNumber.make(-2, 1, 5).sign() == 1
        assert QuadraticNumber.make(-3, 1, 5).sign() == -1

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadraticNumber.make(1, 1, 5) + QuadraticNumber.make(1, 1, 2)

    def test_rational_coerces_into_any_field(self):
        x = QuadraticNumber.make(1, 1, 5) + 2
        assert (x.a, x.b, x.d) == (3, 1, 5)


class TestSymmetricSquare:
    @pytest.mark.parametrize("m", [M1, M2, ((1, 1), (0, 1)), ((0, -1), (1, 0)),
                                   ((3, 1), (2, 1))])
    def test_preserves_discriminant_form(self, m):
        s = symmetric_square(m)
        g = binary_disc_form().matrix
        assert mat_mul(transpose(s), mat_mul(g, s)) == freeze(g)

    def test_rejects_nonunimodular(self):
        with pytest.raises(ValueError):
            symmetric_square(((2, 0), (0, 1)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            symmetric_square(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_disc_form_vanishes_on_squares(self):
        f = binary_disc_form()
        assert f.value((1, 2, 1)) == 0
        assert f.value((4, -4, 1)) == 0
        assert f.value((0, 1, 0)) == 1


@pytest.mark.parametrize("A", [symmetric_square(((5, 2), (2, 1))),
                               ((3, -4), (2, 7))])
def test_mat_pow_is_the_repeated_product(A):
    want = identity(len(A))
    for k in range(41):
        assert _mat_pow(A, k) == want
        want = mat_mul(want, A)


class TestTranslationLength:
    def test_binary_boost_matches_acosh(self):
        # [[3,4],[2,3]] preserves x^2 - 2y^2; eigenvalues 3 +- 2*sqrt(2)
        got = translation_length(((3, 4), (2, 3)))
        want = acosh_interval(Interval(Fraction(3)))
        assert overlap(got, want)
        assert got.hi - got.lo < Fraction(1, 10**20)

    def test_worked_pair_value(self):
        got = translation_length(symmetric_square(M1))
        # dominant eigenvalue is (7 + 3*sqrt(5))/2
        lam = (Interval(Fraction(45)).sqrt() + Interval(Fraction(7))) \
            * Interval(Fraction(1, 2))
        from qflat.intervals import log_interval
        assert overlap(got, log_interval(lam))

    def test_explicit_level(self):
        loose = translation_length(symmetric_square(M1), k=4)
        tight = translation_length(symmetric_square(M1), k=64)
        assert overlap(loose, tight)
        assert tight.hi - tight.lo < loose.hi - loose.lo

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            translation_length(symmetric_square(M1), k=0)

    def test_power_scaling(self):
        s = symmetric_square(M1)
        base = translation_length(s)
        g = s
        for n in range(2, 6):
            g = mat_mul(g, s)
            assert overlap(translation_length(g), base * Interval(n))

    def test_identity_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            translation_length(identity(3))

    def test_cartan_involution_not_hyperbolic(self):
        L = orthogonal_sum(hyperbolic_plane(), GramForm(((2,),)))
        c = cartan_involution(L, (1, -1, 0))
        with pytest.raises(NotHyperbolic):
            translation_length(c.matrix)

    def test_parabolic_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            translation_length(symmetric_square(((1, 1), (0, 1))))

    def test_cartan_product_is_twice_the_distance(self):
        L = orthogonal_sum(hyperbolic_plane(), GramForm(((2,),)))
        v1, v2 = (1, -1, 0), (1, -2, 1)
        g = mat_mul(cartan_involution(L, v1).matrix,
                    cartan_involution(L, v2).matrix)
        length = translation_length(g)
        p1 = sheet_point(L, v1, seed=v1, level=2)
        p2 = sheet_point(L, v2, seed=v1, level=2)
        assert overlap(length, hyperbolic_distance(p1, p2) * Interval(2))
        # the same number, pinned exactly: cosh of the length is 7/2
        assert overlap(length, acosh_interval(Interval(Fraction(7, 2))))


class TestTranslationAxis:
    def test_worked_generator(self):
        ax = translation_axis(symmetric_square(M1))
        assert ax.field_disc == 5
        assert (ax.eigenvalue
                - QuadraticNumber.make(Fraction(7, 2), Fraction(3, 2), 5)
                ).sign() == 0

    def test_rays_are_isotropic_and_fixed(self):
        s = symmetric_square(M2)
        ax = translation_axis(s)
        for ray, nu in [(ax.attracting, ax.eigenvalue),
                        (ax.repelling, None)]:
            b, a, c = ray[1], ray[0], ray[2]
            assert (b * b - 4 * a * c).sign() == 0
            image = []
            for row in s:
                acc = QuadraticNumber.make(0)
                for x, coord in zip(row, ray):
                    acc = acc + coord * Fraction(x)
                image.append(acc)
            nz = next(i for i in range(3) if ray[i].sign() != 0)
            scale = image[nz] / ray[nz]
            assert all((image[i] - scale * ray[i]).sign() == 0
                       for i in range(3))
            if nu is not None:
                assert (scale - nu).sign() == 0

    def test_attracting_and_repelling_are_distinct_rays(self):
        ax = translation_axis(symmetric_square(M1))
        r, s = ax.attracting, ax.repelling
        assert any((r[i] * s[j] - r[j] * s[i]).sign() != 0
                   for i in range(3) for j in range(3))

    def test_inverse_swaps_the_rays(self):
        s = symmetric_square(M1)
        si = mat_inverse(s)
        ax, axi = translation_axis(s), translation_axis(si)
        r, w = ax.attracting, axi.repelling
        assert all((r[i] * w[j] - r[j] * w[i]).sign() == 0
                   for i in range(3) for j in range(3))

    def test_rational_fixed_points(self):
        d = ((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4)))
        ax = translation_axis(d)
        assert ax.field_disc == 0
        assert [c.a for c in ax.attracting] == [1, 0, 0]
        assert [c.a for c in ax.repelling] == [0, 0, 1]

    def test_cartan_involution_rejected(self):
        c = cartan_involution(binary_disc_form(), (1, 0, 1))
        with pytest.raises(NotHyperbolic):
            translation_axis(c.matrix)

    def test_reflection_rejected(self):
        r = reflection_matrix(binary_disc_form(), (0, 1, 0))
        with pytest.raises(NotHyperbolic):
            translation_axis(r)

    def test_identity_rejected(self):
        with pytest.raises(NotHyperbolic):
            translation_axis(identity(3))

    def test_wrong_form_rejected(self):
        L = orthogonal_sum(hyperbolic_plane(), GramForm(((2,),)))
        g = mat_mul(cartan_involution(L, (1, -1, 0)).matrix,
                    cartan_involution(L, (1, -2, 1)).matrix)
        with pytest.raises(UnsupportedBoundary):
            translation_axis(g)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(UnsupportedBoundary):
            translation_axis(identity(4))


def scaled_square(M):
    """Symmetric square of a rational 2x2 matrix, divided by its determinant.

    Substitution scales b^2 - 4ac by det(M)^2, so the quotient is an
    isometry of binary_disc_form() for any invertible M.
    """
    (p, q), (r, s) = M
    det = Fraction(p * s - q * r)
    return tuple(tuple(x / det for x in row) for row in (
        (p * p, p * r, r * r),
        (2 * p * q, p * s + q * r, 2 * r * s),
        (q * q, q * s, s * s)))


# det +-1 with trace 0 is an involution and det 1 with |trace| <= 2 is not
# hyperbolic; integral triangular unimodular matrices never are, so the
# triangular cases (r = 0 for the boundary map) come from scaled squares
HYPERBOLIC_UNIMODULAR = [
    ((p, q), (r, s)) for p, q, r, s in product(range(-6, 7), repeat=4)
    if (p * s - q * r == 1 and abs(p + s) > 2)
    or (p * s - q * r == -1 and p + s != 0)]
TRIANGULAR = [
    M for p, s, x in product(range(-6, 7), repeat=3)
    if p and s and abs(p) != abs(s)
    for M in (((p, x), (0, s)), ((p, 0), (x, s)))]


def boundary_point(ray):
    """The point (x : y) with ray = (y^2, -2xy, x^2), as QuadraticNumbers."""
    one, zero = QuadraticNumber.make(1), QuadraticNumber.make(0)
    if ray[0].sign() == 0:
        return one, zero
    return -ray[1] / (ray[0] * 2), one


def strictly_inside(pt, arc):
    lo, hi = arc.endpoints()
    return (_cross(lo, pt) * _cross(pt, hi) * _cross(lo, hi)).sign() < 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.sampled_from(HYPERBOLIC_UNIMODULAR).map(symmetric_square),
    st.sampled_from(TRIANGULAR).map(scaled_square),
    st.just(((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4))))))
def test_axis_rays_lie_in_the_labelled_arcs(A):
    ax = translation_axis(A)
    att, rep = _fixed_point_arcs(_mobius_of(freeze(A)))
    assert strictly_inside(boundary_point(ax.attracting), att)
    assert strictly_inside(boundary_point(ax.repelling), rep)
    assert not strictly_inside(boundary_point(ax.attracting), rep)


def boxes_contain_arcs(cert):
    """Every sampled boundary point inside an arc charts into its box."""
    grid = [(Fraction(k, 8), 1) for k in range(-400, 401)] + [(1, 0)]
    for box, (lo, hi) in zip(cert.boxes, cert.arcs):
        inside = [pt for pt in grid if _in_arc(pt, lo, hi)]
        assert inside
        for x, y in inside:
            u, w = (Fraction(y * y, x * x + y * y),
                    Fraction(-2 * x * y, x * x + y * y))
            assert box.u_lo <= u <= box.u_hi and box.w_lo <= w <= box.w_hi


@pytest.fixture(scope="module")
def certificate():
    return schottky_certify(symmetric_square(M1), symmetric_square(M2))


class TestSchottky:

    def test_power_found(self, certificate):
        assert isinstance(certificate, SchottkyCertificate)
        assert certificate.m == 3

    def test_boxes_pairwise_disjoint(self, certificate):
        boxes = certificate.boxes
        assert len(boxes) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert boxes[i].disjoint(boxes[j])

    def test_inclusion_table_has_four_entries(self, certificate):
        assert len(certificate.inclusions) == 4
        for text in certificate.inclusions:
            assert "complement" in text

    def test_word_audit_covers_all_reduced_words(self, certificate):
        # 4 * (3^0 + ... + 3^5) reduced words of length at most 6
        assert certificate.words_checked == 1456

    def test_json_round_trip(self, certificate):
        import json
        doc = json.loads(json.dumps(certificate.to_json_dict()))
        assert doc["check"] == "schottky"
        assert doc["m"] == 3
        assert len(doc["boxes"]) == 4
        assert doc["word_audit"]["pass"] is True

    def test_mixed_arc_shapes(self):
        d = ((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4)))
        cert = schottky_certify(d, symmetric_square(M1))
        assert cert.m <= 20
        # the boundary map of d fixes 0 and infinity: one band straddles 0
        # and one arc passes through infinity
        boxes_contain_arcs(cert)

    def test_boxes_contain_their_arcs(self, certificate):
        boxes_contain_arcs(certificate)

    def test_same_generator_shares_endpoints(self):
        s = symmetric_square(M1)
        with pytest.raises(SharedEndpoint):
            schottky_certify(s, s)

    def test_inverse_shares_endpoints(self):
        s = symmetric_square(M1)
        with pytest.raises(SharedEndpoint):
            schottky_certify(s, mat_inverse(s))

    def test_proper_power_shares_endpoints(self):
        s = symmetric_square(M1)
        cube = mat_mul(mat_mul(s, s), s)
        with pytest.raises(SharedEndpoint):
            schottky_certify(s, cube)

    def test_search_exhausted(self):
        # this pair first plays ping-pong at m = 3
        with pytest.raises(SearchExhausted):
            schottky_certify(symmetric_square(M1), symmetric_square(M2),
                             m_max=2)

    def test_no_power_to_try_is_an_input_error(self):
        for m_max in (0, -1):
            with pytest.raises(ValueError):
                schottky_certify(symmetric_square(M1), symmetric_square(M2),
                                 m_max=m_max)

    def test_elliptic_generator_rejected(self):
        rot = symmetric_square(((0, -1), (1, 0)))
        with pytest.raises(NotHyperbolic):
            schottky_certify(rot, symmetric_square(M1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(UnsupportedBoundary):
            schottky_certify(identity(4), identity(4))


def reference_words_audit(a, b, max_len=6):
    """The word audit on Fraction matrices, compared one word at a time
    with the identity; the integer audit must agree on every output."""
    a, b = freeze(a), freeze(b)
    gens = [a, mat_inverse(a), b, mat_inverse(b)]
    names = ["a", "A", "b", "B"]
    ident = tuple(tuple(Fraction(x) for x in row) for row in identity(len(a)))
    frac = [tuple(tuple(Fraction(x) for x in row) for row in g) for g in gens]
    checked = 0
    stack = [(i, frac[i], names[i]) for i in range(4)]
    while stack:
        last, cur, word = stack.pop()
        checked += 1
        if cur == ident:
            return checked, False, word
        if len(word) < max_len:
            for nxt in range(4):
                if nxt == last ^ 1:
                    continue
                stack.append((nxt, mat_mul(cur, frac[nxt]), word + names[nxt]))
    return checked, True, None


UNIMODULAR_4 = [((p, q), (r, s)) for p, q, r, s in product(range(-4, 5), repeat=4)
                if p * s - q * r in (1, -1)]
SQUASH = ((2, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2)))


@st.composite
def audit_pairs(draw):
    """Symmetric squares at powers 1-3, some conjugated by diag(2, 1, 1/2)
    to give rational entries, paired freely or with b = a, a^2 or a^-1."""
    def generator():
        g = _mat_pow(symmetric_square(draw(st.sampled_from(UNIMODULAR_4))),
                     draw(st.integers(1, 3)))
        if draw(st.booleans()):
            g = mat_mul(mat_mul(SQUASH, g), mat_inverse(SQUASH))
        return g
    a = generator()
    b = draw(st.sampled_from([generator, lambda: a, lambda: mat_mul(a, a),
                              lambda: mat_inverse(a)]))()
    return a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(audit_pairs())
def test_words_audit_matches_the_fraction_reference(pair):
    assert free_words_audit(*pair) == reference_words_audit(*pair)


class TestWordsAudit:
    def test_free_pair_passes(self):
        a = symmetric_square(M1)
        b = symmetric_square(M2)
        checked, clean, word = free_words_audit(a, b)
        assert (checked, clean, word) == (1456, True, None)

    def test_rational_free_pair_passes(self):
        a, b = (mat_mul(mat_mul(SQUASH, symmetric_square(M)), mat_inverse(SQUASH))
                for M in (M1, M2))
        assert free_words_audit(a, b) == (1456, True, None)

    def test_equal_generators_fail(self):
        a = symmetric_square(M1)
        assert free_words_audit(a, a) == (36, False, "BBBabb")

    def test_commuting_pair_fails(self):
        a = symmetric_square(M1)
        b = mat_mul(a, a)
        assert free_words_audit(a, b) == (61, False, "BBAbba")

    def test_inverse_pair_fails(self):
        a = symmetric_square(M1)
        assert free_words_audit(a, mat_inverse(a)) == (23, False, "BBBAbb")
