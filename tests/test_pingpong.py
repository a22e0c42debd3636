"""Axis, translation-length, and ping-pong certificate tests."""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.exact import (determinant, freeze, identity, mat_inverse, mat_mul,
                         mat_vec, primitive_part, transpose)
from qflat.gram import GramForm, hyperbolic_plane, orthogonal_sum
from qflat.hyperbolic import (cartan_involution, hyperbolic_distance,
                              reflection_matrix, sheet_point)
from qflat.intervals import Interval, acosh_interval
from qflat.pingpong import (LABELS, NotHyperbolic, _mat_pow,
                            SchottkyCertificate, SearchExhausted,
                            SharedEndpoint, UnsupportedBoundary, axis_normal,
                            binary_disc_form, free_words_audit,
                            schottky_certify, symmetric_square,
                            translation_length)

M1 = ((2, 1), (1, 1))
M2 = ((1, 1), (1, 2))


def overlap(x, y):
    return not (x.hi < y.lo or y.hi < x.lo)


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


BASE = (1, 1, 1)


def trace_t(g):
    """t = tr A - det A, so that nu + 1/nu = t for the eigenvalues
    det A, nu, 1/nu of a binary-model isometry A."""
    A = freeze(g)
    return sum(A[i][i] for i in range(3)) - determinant(A)


def is_rational_square(q):
    q = Fraction(q)
    return q >= 0 and all(isqrt(n) ** 2 == n
                          for n in (q.numerator, q.denominator))


def qsign(a, b, d):
    """Sign of a + b*sqrt(d) for rationals a, b and d > 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    gap = a * a - b * b * d
    return sa * ((gap > 0) - (gap < 0))


def endpoint_rays(g):
    """The attracting and repelling light rays of a hyperbolic g, exactly.

    Each is (u, v, d), the vector u + v*sqrt(d) with u, v rational.  The
    eigenvalues are e = det A, nu and 1/nu with nu + 1/nu = t, and the
    dominant one is nu = (t + sgn(t)*sqrt(d))/2 with d = t^2 - 4.  With
    w = (A - e)*base, (A - e)(A - 1/nu)*base = u + v*sqrt(d) for
    u = A w - t/2 w and v = sgn(t)/2 * w: the nu-ray, and u - v*sqrt(d)
    the 1/nu-ray.  The base is timelike, so it lies on no light plane
    through an eigenray and neither projection vanishes.  Each ray is
    turned to the sheet of the base, (x, base) < 0.
    """
    f = binary_disc_form()
    A = freeze(g)
    e, t = determinant(A), trace_t(A)
    d = t * t - 4
    w = [x - e * y for x, y in zip(mat_vec(A, BASE), BASE)]
    u = [x - Fraction(t, 2) * y for x, y in zip(mat_vec(A, w), w)]
    sgn = 1 if t > 0 else -1
    rays = []
    for v in ([Fraction(sgn, 2) * y for y in w],
              [Fraction(-sgn, 2) * y for y in w]):
        flip = -1 if qsign(f.inner(u, BASE), f.inner(v, BASE), d) > 0 else 1
        rays.append((tuple(flip * x for x in u), tuple(flip * x for x in v),
                     d))
    return rays


def ray_inner(x, y):
    """(alpha, beta) with (x, y) = alpha + beta*sqrt(d), for rays x, y
    over the same d."""
    f = binary_disc_form()
    (u, v, d), (p, q, _) = x, y
    return f.inner(u, p) + d * f.inner(v, q), f.inner(u, q) + f.inner(v, p)


def same_ray(x, y):
    """Light vectors of one sheet lie on one ray exactly when (x, y) = 0."""
    return qsign(*ray_inner(x, y), x[2]) == 0


def ray_side(x, a):
    """Sign of (x, a) for a ray x and a rational normal a."""
    u, v, d = x
    f = binary_disc_form()
    return qsign(f.inner(u, a), f.inner(v, a), d)


def rational_ray(x, d):
    return (tuple(x), (0, 0, 0), d)


class TestTranslationAxis:
    def test_worked_generator(self):
        s1, s2 = symmetric_square(M1), symmetric_square(M2)
        assert axis_normal(s1) == (1, -1, -1)
        assert trace_t(s1) == 7
        assert axis_normal(s2) == (1, 1, -1)
        assert trace_t(s2) == 7

    def test_rays_are_isotropic_and_fixed(self):
        f = binary_disc_form()
        for M in (M1, M2, ((3, 4), (2, 3)), ((1, 1), (1, 0)),
                  ((-2, 1), (1, 0))):
            s = symmetric_square(M)
            c = axis_normal(s)
            assert mat_vec(s, c) == tuple(determinant(s) * x for x in c)
            t = trace_t(s)
            sgn = 1 if t > 0 else -1
            for (u, v, d), l1 in zip(endpoint_rays(s), (sgn, -sgn)):
                # isotropic, on the axis plane c^perp, and an eigenvector
                # for nu (attracting) or 1/nu (repelling), where
                # nu = t/2 + l1/2 sqrt(d)
                assert qsign(*ray_inner((u, v, d), (u, v, d)), d) == 0
                assert f.inner(u, c) == 0 and f.inner(v, c) == 0
                l0, l1 = Fraction(t, 2), Fraction(l1, 2)
                assert mat_vec(s, u) == tuple(l0 * x + l1 * d * y
                                              for x, y in zip(u, v))
                assert mat_vec(s, v) == tuple(l0 * y + l1 * x
                                              for x, y in zip(u, v))

    def test_attracting_and_repelling_are_distinct_rays(self):
        s = symmetric_square(M1)
        # (c, c) > 0: the axis plane c^perp cuts the light cone in two rays
        assert binary_disc_form().value(axis_normal(s)) > 0
        att, rep = endpoint_rays(s)
        assert qsign(*ray_inner(att, rep), att[2]) < 0

    def test_inverse_swaps_the_rays(self):
        s = symmetric_square(M1)
        si = mat_inverse(s)
        assert axis_normal(si) == axis_normal(s)
        (att, rep), (att_i, rep_i) = endpoint_rays(s), endpoint_rays(si)
        assert same_ray(att, rep_i) and same_ray(rep, att_i)

    def test_irrational_middle_coordinate_names_the_field(self):
        # the endpoints x^2 -+ 2 sqrt(2) xy + 2y^2 lie over Q(sqrt(2)), and
        # t^2 - 4 and (c, c) name that field
        s = symmetric_square(((3, 4), (2, 3)))
        c, t = axis_normal(s), trace_t(s)
        assert c == (1, 0, -2) and t == 34
        assert binary_disc_form().value(c) == 8
        assert is_rational_square(Fraction(t * t - 4, 8))

    def test_rational_fixed_points(self):
        d = ((Fraction(4), 0, 0), (0, Fraction(1), 0),
             (0, 0, Fraction(1, 4)))
        assert axis_normal(d) == (0, 1, 0)
        att, rep = endpoint_rays(d)
        # t^2 - 4 = (15/4)^2, so sqrt(d) is rational here
        assert same_ray(att, rational_ray((1, 0, 0), att[2]))
        assert same_ray(rep, rational_ray((0, 0, 1), rep[2]))

    def test_cartan_involution_rejected(self):
        c = cartan_involution(binary_disc_form(), (1, 0, 1))
        with pytest.raises(NotHyperbolic):
            axis_normal(c)

    def test_reflection_rejected(self):
        r = reflection_matrix(binary_disc_form(), (0, 1, 0))
        with pytest.raises(NotHyperbolic):
            axis_normal(r)

    def test_identity_rejected(self):
        with pytest.raises(NotHyperbolic):
            axis_normal(identity(3))

    def test_wrong_form_rejected(self):
        L = orthogonal_sum(hyperbolic_plane(), GramForm(((2,),)))
        g = mat_mul(cartan_involution(L, (1, -1, 0)).matrix,
                    cartan_involution(L, (1, -2, 1)).matrix)
        with pytest.raises(UnsupportedBoundary):
            axis_normal(g)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(UnsupportedBoundary):
            axis_normal(identity(4))


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
    """(x, a) for an integral normal a and a rational x."""
    ga = mat_vec(binary_disc_form().matrix, a)
    return sum(xi * gi for xi, gi in zip(x, ga))


def orbit_points(cert, g1, g2):
    """s*base for s = g1^m, g1^-m, g2^m, g2^-m, each taken in the sheet of
    the base (an isometry and its negative act alike on H^2)."""
    points = []
    for g in (g1, g2):
        h = _mat_pow(freeze(g), cert.m)
        for s in (h, mat_inverse(h)):
            y = mat_vec(s, cert.base)
            if side(y, cert.base) > 0:
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
        assert side(x0, a) < 0
        d = [t - b for t, b in zip(y, x0)]
        assert all(d[i] * a[j] == d[j] * a[i]
                   for i in range(3) for j in range(3))
        assert sum(t * u for t, u in zip(d, a)) > 0


def check_axis_rays(cert, g1, g2):
    """The attracting ray of g lies in the half-space of g^m and outside
    that of g^-m; the repelling ray lies in the half-space of g^-m."""
    for g, plus, minus in ((g1, 0, 1), (g2, 2, 3)):
        att, rep = endpoint_rays(g)
        assert ray_side(att, cert.normals[plus]) > 0
        assert ray_side(att, cert.normals[minus]) < 0
        assert ray_side(rep, cert.normals[minus]) > 0


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
        # the axis normal is the fixed-point quadratic of M, up to sign
        (p, q), (r, s) = M
        want = primitive_part((r, s - p, -q))
        assert axis_normal(symmetric_square(M)) in (
            want, tuple(-x for x in want))


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
        if side(x, x) < 0:
            points.append(x if x[0] > 0 else tuple(-t for t in x))
    for x in points:
        assert side(x, x) < 0
        inside = [a for a in cert.normals if side(x, a) >= 0]
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

    def test_non_isometry_outranks_the_trace_rule(self):
        # both generators are checked as isometries before either trace
        # rule, so a bad g2 is an input error even beside an elliptic g1
        rot = symmetric_square(((0, -1), (1, 0)))
        with pytest.raises(UnsupportedBoundary):
            schottky_certify(rot, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))


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
