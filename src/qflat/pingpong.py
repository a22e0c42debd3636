"""Axes, translation lengths, and ping-pong certificates for hyperbolic
isometries.

Hyperbolicity and translation length are certified through exact integer
traces of matrix powers, valid for isometries of forms with one negative
eigenvalue.  Axis extraction runs on the boundary circle of the
binary-forms model (the 3-dimensional discriminant pairing), which has a
rational parametrization: isometries act there by Moebius maps with
integer entries.  Axis endpoints live in a real quadratic field and are
returned exactly.  One closed-form rule names the attracting fixed point
of a boundary map ((p, q), (r, s)): its eigenvalue (p + s +- sqrt(disc))/2
takes the sign of the trace p + s, so it is the larger one in absolute
value.  The Schottky certificate needs no boundary at all: one base point
and four integer normals, the Dirichlet half-spaces of the powered
generators, decide ping-pong by integer inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (common_denominator, freeze, identity,
                    mat_inverse, mat_mul, mat_vec, primitive_part, solve)
from .gram import GramForm
from .intervals import Interval, log_interval


class NotHyperbolic(Exception):
    """The isometry is elliptic, parabolic, or trivial on the boundary."""


class SharedEndpoint(Exception):
    """The two axes share a boundary ray, so ping-pong is impossible."""


class SearchExhausted(Exception):
    """No certificate was found for any power up to the requested cap."""


class UnsupportedBoundary(ValueError):
    """The axis and the certificate run on the binary-forms model only."""


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


def _primitive(v):
    """The primitive integer vector on the ray of a nonzero rational v."""
    den = common_denominator(v)
    return primitive_part([x * den for x in v])


def _proj(p, q):
    a, b = _primitive((p, q))
    return (-a, -b) if b < 0 or (b == 0 and a < 0) else (a, b)


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


def _apply_mobius(mu, pt):
    (p, q), (r, s) = mu
    x, y = pt
    return _proj(p * x + q * y, r * x + s * y)


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
    probes = [(0, 1), (1, 1), (1, 0)]
    images = [_disc_param(mat_vec(A, _disc_ray(t))) for t in probes]
    w0, w1, winf = images
    mat = ((Fraction(winf[0]), Fraction(w0[0])),
           (Fraction(winf[1]), Fraction(w0[1])))
    alpha, beta = solve(mat, (Fraction(w1[0]), Fraction(w1[1])))
    raw = ((alpha * winf[0], beta * w0[0]), (alpha * winf[1], beta * w0[1]))
    p, q, r, s = _primitive([x for row in raw for x in row])
    mu = ((p, q), (r, s))
    if p * s == q * r:
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


def _resultant(phi1, phi2):
    a1, b1, c1 = phi1
    a2, b2, c2 = phi2
    return ((a1 * c2 - a2 * c1) ** 2
            - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1))


# ---------------------------------------------------------------------------
# the certificate: Dirichlet half-spaces around one base point

# x^2 + xy + y^2, the reduced positive definite form of discriminant -3
_BASE = (1, 1, 1)
LABELS = ("g1+", "g1-", "g2+", "g2-")


def _pairings(normals):
    """(label a, label b, (a, b), (a, a)(b, b)) for the six pairs."""
    f = binary_disc_form()
    return [(la, lb, f.inner(a, b), f.value(a) * f.value(b))
            for (la, a), (lb, b) in combinations(zip(LABELS, normals), 2)]


@dataclass(frozen=True)
class SchottkyCertificate:
    """Verified ping-pong data: the powered pair generates a free group.

    normals[i] is the primitive integer multiple of s*base - base for the
    i-th of g1^m, g1^-m, g2^m, g2^-m, labelled as in LABELS.
    """

    m: int
    base: tuple
    normals: tuple
    words_checked: int

    def inequalities(self):
        """(label a, label b, (a, b), (a, a)(b, b)) for the six pairs of
        normals; each has (a, b) < 0 and (a, b)^2 > (a, a)(b, b)."""
        return _pairings(self.normals)

    def to_json_dict(self):
        return {
            "check": "schottky",
            "m": self.m,
            "base": [str(x) for x in self.base],
            "normals": [{"label": label, "vector": [str(x) for x in a]}
                        for label, a in zip(LABELS, self.normals)],
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

    The certificate is Dirichlet's.  H is the sheet of positive definite
    forms, and x0 = (1, 1, 1) the base point.  For s in g1^(+-m), g2^(+-m)
    let a_s = s*x0 - x0 and D_s = {x in H : (x, a_s) > 0}, the points
    nearer s*x0 than x0.  As (x, s^-1*x0 - x0) = -(s*x, a_s), s maps
    H minus D_(s^-1) onto the closure of D_s.  A hyperbolic s fixes no
    point of H, so (x0, a_s) < 0: x0 lies outside every closure.  Two
    such closed half-spaces with x0 outside both are disjoint when
    (a, b) < 0 and (a, b)^2 > (a, a)(b, b): their boundary lines are
    ultraparallel and face away from each other.  When all six pairs pass,
    a reduced word s_1...s_k in the four powers maps x0 into the closure
    of D_(s_1), by induction from the right, so it does not fix x0 and is
    not the identity: g1^m and g2^m generate a free group of rank 2.

    A generator enters as A or -A, whichever keeps the sheet of x0: both
    act alike on H, and a pair whose images are free is free.  The
    normals are scaled to primitive integer vectors, which moves no
    half-space.  free_words_audit re-checks the short words on the
    matrices themselves.  Failure to find a power proves nothing.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    A1, A2 = _matrix_of(g1), _matrix_of(g2)
    _require_disc_isometry(A1)
    _require_disc_isometry(A2)
    phi1, _, _ = _fixed_point_data(_mobius_of(A1))
    phi2, _, _ = _fixed_point_data(_mobius_of(A2))
    if _resultant(phi1, phi2) == 0:
        raise SharedEndpoint("the axes share a boundary ray")
    f = binary_disc_form()
    steps = []
    for A in (A1, A2):
        if f.inner(_BASE, mat_vec(A, _BASE)) > 0:
            A = tuple(tuple(-x for x in row) for row in A)
        steps += [A, mat_inverse(A)]
    points = [_BASE] * 4
    for m in range(1, m_max + 1):
        points = [mat_vec(s, x) for s, x in zip(steps, points)]
        normals = tuple(_primitive([y - b for y, b in zip(x, _BASE)])
                        for x in points)
        if any(f.inner(_BASE, a) >= 0 for a in normals):
            raise AssertionError("the base point lies in a half-space")
        if all(ab < 0 and ab * ab > aabb
               for _, _, ab, aabb in _pairings(normals)):
            checked, clean, word = free_words_audit(_mat_pow(A1, m),
                                                    _mat_pow(A2, m))
            if not clean:
                raise AssertionError(
                    f"certificate contradicted by word {word}")
            return SchottkyCertificate(m, _BASE, normals, checked)
    raise SearchExhausted(f"no ping-pong table for any m <= {m_max}")
