"""Axes, translation lengths, and ping-pong certificates for hyperbolic
isometries.

Hyperbolicity and translation length are certified through exact integer
traces of matrix powers, valid for isometries of forms with one negative
eigenvalue.  Axis extraction and the Schottky search run on the boundary
circle of the binary-forms model (the 3-dimensional discriminant pairing),
which has a rational parametrization: every dynamical step reduces to
Moebius maps with integer entries acting on rational points, so all
certificate checks are exact.  Axis endpoints themselves live in a real
quadratic field and are returned exactly.  One closed-form rule names the
attracting fixed point of a boundary map ((p, q), (r, s)): its eigenvalue
(p + s +- sqrt(disc))/2 takes the sign of the trace p + s, so it is the
larger one in absolute value.  The axis certifies that eigenvalue, and the
certificate's inclusions at power m check the arcs built around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .exact import (common_denominator, content, freeze, identity,
                    mat_inverse, mat_mul, mat_vec, solve)
from .gram import GramForm
from .intervals import Interval, log_interval


class NotHyperbolic(Exception):
    """The isometry is elliptic, parabolic, or trivial on the boundary."""


class SharedEndpoint(Exception):
    """The two axes share a boundary ray, so ping-pong is impossible."""


class SearchExhausted(Exception):
    """No certificate was found for any power up to the requested cap."""


class UnsupportedBoundary(ValueError):
    """The boundary machinery runs on the binary-forms model only."""


_DISC_GRAM = ((0, 0, -2), (0, 1, 0), (-2, 0, 0))


def binary_disc_form():
    """Gram of the discriminant pairing b^2 - 4ac on binary quadratic forms.

    Signature (2,1); its light cone consists of the squares of linear
    forms, which is what makes the boundary rationally parametrizable.
    """
    return GramForm(_DISC_GRAM)


def symmetric_square(M):
    """3x3 action of a unimodular 2x2 matrix on binary form coefficients.

    Substituting (x, y) -> M(x, y) into ax^2 + bxy + cy^2 is linear in
    (a, b, c) and scales b^2 - 4ac by det(M)^2, so for det = +-1 the
    result is an isometry of binary_disc_form().
    """
    M = freeze(M)
    if len(M) != 2 or len(M[0]) != 2:
        raise ValueError("expected a 2x2 matrix")
    (p, q), (r, s) = M
    if any(x != int(x) for row in M for x in row):
        raise ValueError("entries must be integers")
    p, q, r, s = int(p), int(q), int(r), int(s)
    if p * s - q * r not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    return (
        (p * p, p * r, r * r),
        (2 * p * q, p * s + q * r, 2 * r * s),
        (q * q, q * s, s * s),
    )


# ---------------------------------------------------------------------------
# exact real quadratic numbers


def _split_square(d):
    f, rest, k = 1, d, 2
    while k * k <= rest:
        while rest % (k * k) == 0:
            rest //= k * k
            f *= k
        k += 1
    return f, rest


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact element a + b*sqrt(d) of a real quadratic field."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b=0, d=0):
        a, b = Fraction(a), Fraction(b)
        if d < 0:
            raise ValueError("d must be nonnegative")
        f, rest = _split_square(d)
        b, d = b * f, rest
        if d <= 1:
            a, b, d = a + b * d, Fraction(0), 0
        if b == 0:
            d = 0
        return QuadraticNumber(a, b, d)

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            if self.d and other.d and self.d != other.d:
                raise ValueError("mixed quadratic fields")
            return other
        return QuadraticNumber.make(Fraction(other))

    @property
    def is_rational(self):
        return self.b == 0

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticNumber.make(self.a + o.a, self.b + o.b,
                                    self.d or o.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        return QuadraticNumber.make(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        norm = o.a * o.a - o.b * o.b * (self.d or o.d)
        if norm == 0:
            raise ZeroDivisionError
        return self * QuadraticNumber.make(o.a / norm, -o.b / norm,
                                           self.d or o.d)

    def sign(self):
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        head = (self.a > 0) - (self.a < 0)
        body = self.a * self.a - self.b * self.b * self.d
        return head * ((body > 0) - (body < 0))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


# ---------------------------------------------------------------------------
# translation length via integer traces


def _matrix_of(g):
    m = getattr(g, "matrix", g)
    return freeze(m)


def translation_length(g, k=256, *, bits=None):
    """Certified interval for the translation length log(dominant eigenvalue).

    Requires an isometry of a form with at most one negative eigenvalue,
    so the spectrum is {lam, 1/lam} plus unit-circle values; then the
    exact trace of g^k pins e^(k*length) between integers, and a higher
    level k gives a narrower interval.
    Raises NotHyperbolic when the trace at that level stays in the
    unit-circle range.
    """
    A = _matrix_of(g)
    n = len(A)
    if k < 1:
        raise ValueError(f"level must be positive, got {k}")
    t = abs(sum(row[i] for i, row in enumerate(_mat_pow(A, k))))
    if t < n + 2:
        raise NotHyperbolic(
            "traces stay in the unit-circle range; no dominant eigenvalue")
    lo, hi = t - (n - 1), t + (n - 2)
    return log_interval(Interval(Fraction(lo), Fraction(hi)), bits) * \
        Interval(Fraction(1, k))


def _mat_pow(A, k):
    out = identity(len(A))
    base = A
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


# ---------------------------------------------------------------------------
# the boundary circle of the binary-forms model

# light rays are squares of linear forms: (y^2, -2xy, x^2) for (x : y),
# so the boundary is a projective line and isometries act by Moebius maps


def _proj(p, q):
    p, q = Fraction(p), Fraction(q)
    den = common_denominator((p, q))
    a, b = int(p * den), int(q * den)
    g = gcd(a, b)
    if g:
        a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return (a, b)


_INFINITY = (1, 0)


def _disc_ray(pt):
    x, y = pt
    return (y * y, -2 * x * y, x * x)


def _disc_param(v):
    a, b, c = v
    if a != 0:
        return _proj(-b, 2 * a)
    if c != 0:
        return _proj(2 * c, -b)
    raise ValueError("not a light ray")


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _in_arc(x, lo, hi):
    """Strictly inside the arc swept from lo to hi counterclockwise."""
    s = _cross(lo, x) * _cross(x, hi) * _cross(lo, hi)
    return s < 0


def _arc_included(lo, hi, big_lo, big_hi):
    return _in_arc(lo, big_lo, big_hi) and _in_arc(hi, lo, big_hi)


def _apply_mobius(mu, pt):
    (p, q), (r, s) = mu
    x, y = pt
    return _proj(p * x + q * y, r * x + s * y)


def _mat2_det(mu):
    return mu[0][0] * mu[1][1] - mu[0][1] * mu[1][0]


def _mat2_adj(mu):
    (p, q), (r, s) = mu
    return ((s, -q), (-r, p))


def _require_disc_isometry(A):
    n = len(A)
    if n != 3:
        raise UnsupportedBoundary(
            "the boundary model is the 3-dimensional binary-forms space")
    G = _DISC_GRAM
    left = mat_mul(tuple(zip(*A)), mat_mul(G, A))
    if freeze(left) != freeze(G):
        raise UnsupportedBoundary(
            "the matrix does not preserve the binary discriminant form")


def _mobius_of(A):
    """Integer Moebius map realizing A on the parametrized light cone."""
    probes = [(0, 1), (1, 1), _INFINITY]
    images = [_disc_param(mat_vec(A, _disc_ray(t))) for t in probes]
    w0, w1, winf = images
    mat = ((Fraction(winf[0]), Fraction(w0[0])),
           (Fraction(winf[1]), Fraction(w0[1])))
    alpha, beta = solve(mat, (Fraction(w1[0]), Fraction(w1[1])))
    raw = ((alpha * winf[0], beta * w0[0]), (alpha * winf[1], beta * w0[1]))
    den = common_denominator(x for row in raw for x in row)
    ints = [int(x * den) for row in raw for x in row]
    g = content(ints)
    mu = ((ints[0] // g, ints[1] // g), (ints[2] // g, ints[3] // g))
    if _mat2_det(mu) == 0:
        raise AssertionError("degenerate boundary action")
    for t in [(2, 1), (-1, 1), (5, 3)]:
        want = _disc_param(mat_vec(A, _disc_ray(t)))
        if _apply_mobius(mu, t) != want:
            raise AssertionError("boundary action mismatch")
    return mu


def _fixed_point_data(mu):
    """Fixed-point quadratic of mu, its discriminant, and the attracting sign.

    The fixed points t of mu = ((p, q), (r, s)) are the roots of
    rho t^2 + sigma t + kappa = r t^2 + (s - p) t - q.  For r != 0 the
    root (-sigma + e*sqrt(disc))/(2r) has eigenvector (t, 1) with
    eigenvalue (p + s + e*sqrt(disc))/2, so it attracts for e the sign of
    the trace p + s.  For r = 0 the fixed points are infinity (eigenvalue
    p) and -kappa/sigma (eigenvalue s), and e = 1 means infinity attracts.
    Negating mu negates r, sigma and e together, so the attracting point
    does not depend on the sign _mobius_of happens to return.
    """
    (p, q), (r, s) = mu
    rho, sigma, kappa = r, s - p, -q
    if rho == 0 and sigma == 0 and kappa == 0:
        raise NotHyperbolic("trivial boundary action")
    disc = sigma * sigma - 4 * rho * kappa
    if disc <= 0:
        raise NotHyperbolic("no pair of real fixed rays")
    if p + s == 0:
        raise NotHyperbolic("boundary action is an involution")
    if rho == 0:
        return (rho, sigma, kappa), disc, 1 if abs(p) > abs(s) else -1
    return (rho, sigma, kappa), disc, 1 if p + s > 0 else -1


# ---------------------------------------------------------------------------
# axis extraction (exact, quadratic field)


@dataclass(frozen=True)
class AxisRays:
    """Attracting and repelling light rays of a hyperbolic isometry."""

    attracting: tuple
    repelling: tuple
    eigenvalue: QuadraticNumber
    field_disc: int


def translation_axis(g):
    """Exact axis endpoints of a hyperbolic isometry of the binary model.

    The fixed points of the induced Moebius map are roots of an integer
    quadratic, so the rays come out with coordinates in Q(sqrt(disc));
    the trace sign of _fixed_point_data names the attracting one.  Both
    rays are certified isotropic and certified eigenvectors, and the
    attracting ray's eigenvalue is certified to exceed 1 in absolute value.
    """
    A = _matrix_of(g)
    _require_disc_isometry(A)
    (rho, sigma, kappa), disc, e = _fixed_point_data(_mobius_of(A))
    one = QuadraticNumber.make(1)
    if rho != 0:
        points = [(QuadraticNumber.make(Fraction(-sigma, 2 * rho),
                                        Fraction(sgn * e, 2 * rho), disc), one)
                  for sgn in (1, -1)]
    else:
        points = [(one, QuadraticNumber.make(0)),
                  (QuadraticNumber.make(Fraction(-kappa, sigma)), one)]
        if e < 0:
            points.reverse()
    rays = []
    for x, y in points:
        ray = (y * y, -2 * x * y, x * x)
        assert (ray[1] * ray[1] - 4 * ray[0] * ray[2]).sign() == 0
        image = mat_vec(A, ray)
        nz = next(i for i in range(3) if ray[i].sign() != 0)
        nu = image[nz] / ray[nz]
        assert all((image[i] - nu * ray[i]).sign() == 0 for i in range(3))
        rays.append((ray, nu))
    (att, nu), (rep, _) = rays
    if not ((nu - 1).sign() > 0 or (nu + 1).sign() < 0):
        raise AssertionError("attracting ray has no dominant eigenvalue")
    return AxisRays(att, rep, nu, att[0].d or att[2].d)


# ---------------------------------------------------------------------------
# arcs around fixed points, their chart boxes


def _chart_u(t):
    return Fraction(1) / (1 + t * t)


def _chart_w(t):
    return Fraction(-2) * t / (1 + t * t)


@dataclass(frozen=True)
class ChartBox:
    """Axis-aligned box in the sheet-seed chart (a, b)/(a + c)."""

    label: str
    u_lo: Fraction
    u_hi: Fraction
    w_lo: Fraction
    w_hi: Fraction

    def disjoint(self, other):
        return (self.u_hi < other.u_lo or other.u_hi < self.u_lo
                or self.w_hi < other.w_lo or other.w_hi < self.w_lo)

    def to_json_dict(self):
        return {
            "label": self.label,
            "u": [str(self.u_lo), str(self.u_hi)],
            "w": [str(self.w_lo), str(self.w_hi)],
        }


class _RootArc:
    """Shrinkable rational arc around one fixed point of a Moebius map.

    Shapes keep the arc inside a region where the chart box cuts the
    boundary circle exactly along the arc: a band (lo, hi) that is
    one-signed or symmetric about 0, or a symmetric neighborhood of
    infinity.  A rational band shrinks to its middle half; an irrational
    band (phi set) keeps the half holding its root of phi.
    """

    def __init__(self, shape, data, phi=None):
        self.shape = shape
        self.data = data
        self.phi = phi

    @staticmethod
    def around_rational(t, other):
        w = abs(t) / 2 if t else Fraction(1, 2)
        if other is not None:
            w = min(w, abs(t - other) / 2)
        return _RootArc("band", (t - w, t + w))

    @staticmethod
    def around_infinity(other):
        n = Fraction(2)
        if other is not None:
            n = max(n, 2 * abs(other) + 1)
        return _RootArc("inf", n)

    def refine(self):
        if self.shape == "inf":
            self.data = self.data * 2
            return
        lo, hi = self.data
        mid = (lo + hi) / 2
        if self.phi is None:
            quarter = (hi - lo) / 4
            self.data = (mid - quarter, mid + quarter)
        else:
            rho, sigma, kappa = self.phi
            flo = rho * lo * lo + sigma * lo + kappa
            fmid = rho * mid * mid + sigma * mid + kappa
            if (flo > 0) == (fmid > 0):
                self.data = (mid, hi)
            else:
                self.data = (lo, mid)

    def endpoints(self):
        if self.shape == "inf":
            return _proj(self.data, 1), _proj(-self.data, 1)
        lo, hi = self.data
        return _proj(lo, 1), _proj(hi, 1)

    def chart_box(self, label):
        if self.shape == "inf":
            n = self.data
            return ChartBox(label, Fraction(0), _chart_u(n),
                            _chart_w(n), -_chart_w(n))
        lo, hi = self.data
        us = sorted((_chart_u(lo), _chart_u(hi)))
        if lo < 0 < hi:
            us[1] = Fraction(1)
        ws = [_chart_w(lo), _chart_w(hi)]
        if lo < 1 < hi:
            ws.append(_chart_w(Fraction(1)))
        if lo < -1 < hi:
            ws.append(_chart_w(Fraction(-1)))
        return ChartBox(label, us[0], us[1], min(ws), max(ws))


def _fixed_point_arcs(mu):
    """Arcs (attracting, repelling) around the two fixed points of mu.

    _fixed_point_data's trace sign picks the attracting point.  Irrational
    roots get the two halves of a band split at the vertex of phi, each
    bisected until it excludes 0 (an irrational root is never 0).
    """
    (rho, sigma, kappa), disc, e = _fixed_point_data(mu)
    if rho == 0:
        finite = Fraction(-kappa, sigma)
        inf = _RootArc.around_infinity(finite)
        fin = _RootArc.around_rational(finite, None)
        return (inf, fin) if e > 0 else (fin, inf)
    root = isqrt(disc)
    if root * root == disc:
        t1 = Fraction(-sigma + e * root, 2 * rho)
        t2 = Fraction(-sigma - e * root, 2 * rho)
        return (_RootArc.around_rational(t1, t2),
                _RootArc.around_rational(t2, t1))
    bound = 1 + max(abs(sigma), abs(kappa)) / abs(Fraction(rho))
    vertex = Fraction(-sigma, 2 * rho)
    phi = (rho, sigma, kappa)
    above = _RootArc("band", (vertex, bound), phi)
    below = _RootArc("band", (-bound, vertex), phi)
    # (-sigma + e*sqrt(disc))/(2 rho) lies above the vertex iff e*rho > 0
    arcs = (above, below) if e * rho > 0 else (below, above)
    for arc in arcs:
        while arc.data[0] <= 0 <= arc.data[1]:
            arc.refine()
    return arcs


def _resultant(phi1, phi2):
    a1, b1, c1 = phi1
    a2, b2, c2 = phi2
    return ((a1 * c2 - a2 * c1) ** 2
            - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1))


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class SchottkyCertificate:
    """Verified ping-pong data: the powered pair generates a free group."""

    m: int
    boxes: tuple
    arcs: tuple
    inclusions: tuple
    words_checked: int

    def to_json_dict(self):
        return {
            "check": "schottky",
            "m": self.m,
            "boxes": [b.to_json_dict() for b in self.boxes],
            "arcs": [
                {"from": [str(a[0][0]), str(a[0][1])],
                 "to": [str(a[1][0]), str(a[1][1])]}
                for a in self.arcs
            ],
            "inclusions": list(self.inclusions),
            "word_audit": {"checked": self.words_checked, "pass": True},
        }


def free_words_audit(a, b, max_len=6):
    """Exact check that all reduced words in two matrices avoid identity.

    Each generator is held as M/d with M an integer matrix: a word is the
    identity exactly when its Ms multiply to the product of its ds times I.

    Returns (words_checked, all_nontrivial, offending_word).
    """
    a, b = _matrix_of(a), _matrix_of(b)
    gens = []
    for g in (a, mat_inverse(a), b, mat_inverse(b)):
        d = common_denominator(x for row in g for x in row)
        gens.append((tuple(tuple(int(x * d) for x in row) for row in g), d))
    names = ["a", "A", "b", "B"]
    checked = 0
    stack = [(i, *gens[i], names[i]) for i in range(4)]
    while stack:
        last, cur, d, word = stack.pop()
        checked += 1
        if cur == identity(len(cur), d):
            return checked, False, word
        if len(word) < max_len:
            for nxt in range(4):
                if nxt == last ^ 1:
                    continue
                g, e = gens[nxt]
                stack.append((nxt, mat_mul(cur, g), d * e, word + names[nxt]))
    return checked, True, None


def schottky_certify(g1, g2, m_max=20):
    """Search for a power m making the pair of isometries play ping-pong.

    Four disjoint boxes around the axis endpoints are certified, then m
    grows until each powered generator maps the complement of its
    repelling arc strictly inside its attracting arc.  A returned
    certificate is sound: the powered pair generates a free group of
    rank 2.  Failure to find one proves nothing.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    A1, A2 = _matrix_of(g1), _matrix_of(g2)
    _require_disc_isometry(A1)
    _require_disc_isometry(A2)
    mu1, mu2 = _mobius_of(A1), _mobius_of(A2)
    phi1, _, _ = _fixed_point_data(mu1)
    phi2, _, _ = _fixed_point_data(mu2)
    if _resultant(phi1, phi2) == 0:
        raise SharedEndpoint("the axes share a boundary ray")
    att1, rep1 = _fixed_point_arcs(mu1)
    att2, rep2 = _fixed_point_arcs(mu2)
    labeled = [("g1+", att1), ("g1-", rep1), ("g2+", att2), ("g2-", rep2)]
    for _ in range(300):
        boxes = [arc.chart_box(label) for label, arc in labeled]
        if all(boxes[i].disjoint(boxes[j])
               for i in range(4) for j in range(i + 1, 4)):
            break
        for _, arc in labeled:
            arc.refine()
    else:
        raise AssertionError("boxes failed to separate")

    def entry(mu_m, det_sign, source, target, text):
        lo, hi = source.endpoints()
        comp_lo, comp_hi = hi, lo
        il = _apply_mobius(mu_m, comp_lo)
        ih = _apply_mobius(mu_m, comp_hi)
        if det_sign < 0:
            il, ih = ih, il
        tlo, thi = target.endpoints()
        return _arc_included(il, ih, tlo, thi), text

    inv1, inv2 = _mat2_adj(mu1), _mat2_adj(mu2)
    for m in range(1, m_max + 1):
        p1, q1 = _mat_pow(mu1, m), _mat_pow(inv1, m)
        p2, q2 = _mat_pow(mu2, m), _mat_pow(inv2, m)
        sgn1 = 1 if _mat2_det(p1) > 0 else -1
        sgn2 = 1 if _mat2_det(p2) > 0 else -1
        table = [
            entry(p1, sgn1, rep1, att1, "g1^m(complement of g1-) in g1+"),
            entry(q1, sgn1, att1, rep1, "g1^-m(complement of g1+) in g1-"),
            entry(p2, sgn2, rep2, att2, "g2^m(complement of g2-) in g2+"),
            entry(q2, sgn2, att2, rep2, "g2^-m(complement of g2+) in g2-"),
        ]
        if all(ok for ok, _ in table):
            h1, h2 = _mat_pow(A1, m), _mat_pow(A2, m)
            checked, clean, word = free_words_audit(h1, h2)
            if not clean:
                raise AssertionError(
                    f"certificate contradicted by word {word}")
            return SchottkyCertificate(
                m,
                tuple(arc.chart_box(label) for label, arc in labeled),
                tuple(arc.endpoints() for _, arc in labeled),
                tuple(text for _, text in table),
                checked,
            )
    raise SearchExhausted(f"no ping-pong table for any m <= {m_max}")
