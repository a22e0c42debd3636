"""Axis, translation-length, and ping-pong certificate tests."""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.exact import freeze, identity, mat_inverse, mat_mul, mat_vec, transpose
from qflat.gram import GramForm, hyperbolic_plane, orthogonal_sum
from qflat.hyperbolic import (cartan_involution, hyperbolic_distance,
                              reflection_matrix, sheet_point)
from qflat.intervals import Interval, acosh_interval
from qflat.pingpong import (LABELS, NotHyperbolic, QuadraticNumber,
                            _mat_pow, SchottkyCertificate, SearchExhausted,
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

    def test_irrational_middle_coordinate_names_the_field(self):
        # the rays' outer coordinates are rational, the middle one is not
        ax = translation_axis(symmetric_square(((3, 4), (2, 3))))
        assert ax.field_disc == 2
        assert (ax.eigenvalue - QuadraticNumber.make(17, 12, 2)).sign() == 0

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
# triangular cases (an axis ray on the coordinate line (1, 0, 0) or
# (0, 0, 1)) come from scaled squares
HYPERBOLIC_UNIMODULAR = [
    ((p, q), (r, s)) for p, q, r, s in product(range(-6, 7), repeat=4)
    if (p * s - q * r == 1 and abs(p + s) > 2)
    or (p * s - q * r == -1 and p + s != 0)]
TRIANGULAR = [
    M for p, s, x in product(range(-6, 7), repeat=3)
    if p and s and abs(p) != abs(s)
    for M in (((p, x), (0, s)), ((p, 0), (x, s)))]


def side(x, a):
    """(x, a) for an integral normal a and x rational or in Q(sqrt(d))."""
    ga = mat_vec(binary_disc_form().matrix, a)
    return sum((xi * gi for xi, gi in zip(x, ga)), QuadraticNumber.make(0))


def orbit_points(cert, g1, g2):
    """s*base for s = g1^m, g1^-m, g2^m, g2^-m, each taken in the sheet of
    the base (an isometry and its negative act alike on H^2)."""
    points = []
    for g in (g1, g2):
        h = _mat_pow(freeze(g), cert.m)
        for s in (h, mat_inverse(h)):
            y = mat_vec(s, cert.base)
            if side(y, cert.base).sign() > 0:
                y = tuple(-t for t in y)
            points.append(y)
    return points


def check_inequalities(cert):
    """The six pairs of normals pass (a, b) < 0 and (a, b)^2 > (a, a)(b, b)."""
    pairs = cert.inequalities()
    assert [(a, b) for a, b, _, _ in pairs] == [
        (LABELS[i], LABELS[j]) for i in range(4) for j in range(i + 1, 4)]
    for _, _, ab, aabb in pairs:
        assert ab < 0 and ab * ab > aabb


def check_normals(cert, g1, g2):
    """The base lies outside every half-space, and each normal is a
    positive multiple of s*base - base."""
    x0 = cert.base
    assert x0 == (1, 1, 1)
    for y, a in zip(orbit_points(cert, g1, g2), cert.normals):
        assert side(x0, a).sign() < 0
        d = [t - b for t, b in zip(y, x0)]
        assert all(d[i] * a[j] == d[j] * a[i]
                   for i in range(3) for j in range(3))
        assert sum(t * u for t, u in zip(d, a)) > 0


def check_axis_rays(cert, g1, g2):
    """The attracting ray of g lies in the half-space of g^m and outside
    that of g^-m; the repelling ray lies in the half-space of g^-m."""
    for g, plus, minus in ((g1, 0, 1), (g2, 2, 3)):
        ax = translation_axis(g)
        assert side(ax.attracting, cert.normals[plus]).sign() > 0
        assert side(ax.attracting, cert.normals[minus]).sign() < 0
        assert side(ax.repelling, cert.normals[minus]).sign() > 0


def check_certificate(cert, g1, g2):
    check_inequalities(cert)
    check_normals(cert, g1, g2)
    check_axis_rays(cert, g1, g2)


GENERATORS = st.one_of(
    st.sampled_from(HYPERBOLIC_UNIMODULAR).map(symmetric_square),
    st.sampled_from(TRIANGULAR).map(scaled_square),
    st.just(((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4)))))


def certified(g1, g2):
    """The certificate of the pair, or None where the search proves nothing."""
    try:
        return schottky_certify(g1, g2)
    except (SharedEndpoint, SearchExhausted):
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(GENERATORS, GENERATORS)
def test_axis_rays_lie_in_the_labelled_half_spaces(g1, g2):
    cert = certified(g1, g2)
    if cert is not None:
        check_certificate(cert, g1, g2)


def mul2(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1))
                 for i in (0, 1))


def inv2(M):
    (p, q), (r, s) = M
    d = p * s - q * r
    return ((d * s, -d * q), (-d * r, d * p))


def hyperbolic2(M):
    """The 2x2 rule: det 1 with |trace| > 2, or det -1 with trace != 0."""
    (p, q), (r, s) = M
    return abs(p + s) > 2 if p * s - q * r == 1 else p + s != 0


def fixed_point_resultant(M1, M2):
    """Resultant of the fixed-point quadratics r t^2 + (s - p) t - q; it
    vanishes exactly when the two maps share a fixed point."""
    (a1, b1, c1), (a2, b2, c2) = ((r, s - p, -q) for (p, q), (r, s) in
                                  (M1, M2))
    return ((a1 * c2 - a2 * c1) ** 2
            - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1))


def squarefree_part(n):
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
        k += 1
    return n


GL2_6 = [((p, q), (r, s)) for p, q, r, s in product(range(-6, 7), repeat=4)
         if p * s - q * r in (1, -1)]


@st.composite
def gl2_pairs(draw):
    """GL2(Z) pairs with entries -6..6; a third of the second generators
    are the square, cube or inverse of the first."""
    M1 = draw(st.sampled_from(GL2_6))
    square = mul2(M1, M1)
    M2 = draw(st.sampled_from([None] * 6 + [square, mul2(square, M1),
                                            inv2(M1)]))
    return M1, M2 or draw(st.sampled_from(GL2_6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gl2_pairs())
def test_trace_rule_and_shared_endpoints_match_the_2x2_oracle(pair):
    M1, M2 = pair
    try:
        schottky_certify(symmetric_square(M1), symmetric_square(M2), m_max=4)
        raised = None
    except (NotHyperbolic, SharedEndpoint, SearchExhausted) as err:
        raised = type(err)
    if not (hyperbolic2(M1) and hyperbolic2(M2)):
        assert raised is NotHyperbolic
    elif fixed_point_resultant(M1, M2) == 0:
        assert raised is SharedEndpoint
    else:
        assert raised in (None, SearchExhausted)
    for M in filter(hyperbolic2, pair):
        (p, q), (r, s) = M
        assert translation_axis(symmetric_square(M)).field_disc == \
            squarefree_part((p + s) ** 2 - 4 * (p * s - q * r))


@st.composite
def points_of_h2(draw):
    """A positive definite form (a, b, c) with a, c <= 10^6."""
    a, c = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    bound = isqrt(4 * a * c - 1)
    return a, draw(st.integers(-bound, bound)), c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(GENERATORS, GENERATORS, st.lists(points_of_h2(), min_size=1,
                                        max_size=20),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 10**4), st.integers(1, 10**4)),
                max_size=20))
def test_no_point_lies_in_two_half_spaces(g1, g2, points, chords):
    cert = certified(g1, g2)
    if cert is None:
        return
    orbit = orbit_points(cert, g1, g2)
    points = points + [
        tuple(k * y + l * z for y, z in zip(orbit[i], orbit[j]))
        for i, j, k, l in chords]
    # where two boundary lines meet inside H^2, the meeting point lies in
    # both closed half-spaces
    G = binary_disc_form().matrix
    for a, b in combinations(cert.normals, 2):
        (p, q, r), (u, v, w) = mat_vec(G, a), mat_vec(G, b)
        x = (q * w - r * v, r * u - p * w, p * v - q * u)
        if side(x, x).sign() < 0:
            points.append(x if x[0] > 0 else tuple(-t for t in x))
    for x in points:
        assert side(x, x).sign() < 0
        inside = [a for a in cert.normals if side(x, a).sign() >= 0]
        assert len(inside) <= 1


@pytest.fixture(scope="module")
def certificate():
    return schottky_certify(symmetric_square(M1), symmetric_square(M2))


class TestSchottky:

    def test_power_found(self, certificate):
        assert isinstance(certificate, SchottkyCertificate)
        assert certificate.m == 3

    def test_six_inequalities_hold(self, certificate):
        check_inequalities(certificate)

    def test_normals_are_the_orbit_of_the_base(self, certificate):
        assert certificate.normals == ((21, 26, 8), (3, -10, 8),
                                       (8, 26, 21), (8, -10, 3))
        check_normals(certificate, symmetric_square(M1),
                      symmetric_square(M2))

    def test_axis_rays_lie_in_their_half_spaces(self, certificate):
        check_axis_rays(certificate, symmetric_square(M1),
                        symmetric_square(M2))

    @pytest.mark.parametrize("M1, M2, m", [
        (((1, 4), (2, 7)), ((3, -4), (-1, 1)), 3),
        (((7, 3), (-5, -2)), ((3, -5), (1, -2)), 2)])
    def test_power_does_not_depend_on_a_starting_width(self, M1, M2, m):
        g1, g2 = symmetric_square(M1), symmetric_square(M2)
        cert = schottky_certify(g1, g2)
        assert cert.m == m
        check_certificate(cert, g1, g2)

    def test_sheet_swapping_generator_is_its_negative(self, certificate):
        g1, g2 = symmetric_square(M1), symmetric_square(M2)
        minus = tuple(tuple(-x for x in row) for row in g1)
        cert = schottky_certify(minus, g2)
        assert cert.normals == certificate.normals
        assert cert.words_checked == 1456

    def test_word_audit_covers_all_reduced_words(self, certificate):
        # 4 * (3^0 + ... + 3^5) reduced words of length at most 6
        assert certificate.words_checked == 1456

    def test_json_round_trip(self, certificate):
        import json
        doc = json.loads(json.dumps(certificate.to_json_dict()))
        assert doc["check"] == "schottky"
        assert doc["m"] == 3
        assert doc["base"] == ["1", "1", "1"]
        assert [n["label"] for n in doc["normals"]] == list(LABELS)
        assert doc["normals"][0]["vector"] == ["21", "26", "8"]
        assert doc["word_audit"]["pass"] is True

    def test_rational_generator_fixing_zero_and_infinity(self):
        d = ((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4)))
        cert = schottky_certify(d, symmetric_square(M1))
        assert cert.m == 2
        assert cert.normals[:2] == ((16, 0, -1), (-1, 0, 16))
        check_certificate(cert, d, symmetric_square(M1))

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
