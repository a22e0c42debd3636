"""Axes, translation lengths, and ping-pong certificates for hyperbolic
isometries.

Hyperbolicity and translation length are certified through exact integer
traces of matrix powers, valid for isometries of forms with one negative
eigenvalue.  In the 3-dimensional binary-forms model the trace also
classifies: A has eigenvalues det A, nu and 1/nu with nu + 1/nu =
tr A - det A, and is hyperbolic exactly when |tr A - det A| > 2.  Its
axis is the plane orthogonal to the primitive integer kernel of
A - det A.  The Schottky certificate needs no boundary at all: one base
point and four integer normals, the Dirichlet half-spaces of the powered
generators, decide ping-pong by integer inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (clear_denominators, determinant, freeze, identity,
                    kernel_basis_int, mat_inverse, mat_mul, mat_vec,
                    primitive_part, transpose)
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
    unit-circle range.  A returned interval is certified at any size N,
    but NotHyperbolic is a proof only at N = 3, until an exact test of
    the characteristic polynomial (Kronecker's theorem) replaces the
    trace bound: for N > 3 it shows only lam^k < 2N.
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
# the trace rule and the axis in the binary-forms model


def _primitive(v):
    """The primitive integer vector on the ray of a nonzero rational v."""
    (w,), _ = clear_denominators((v,))
    return primitive_part(w)


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


def _trace_rule(A):
    """(t, det A) with t = tr A - det A; NotHyperbolic unless |t| > 2.

    A^T G A = G makes A similar to A^-T, so its three eigenvalues, with
    multiplicity, are closed under lam -> 1/lam.  So they are e, nu, 1/nu
    with e = +-1: if some eigenvalue is not +-1, its inverse is another
    and the third inverts to itself; if all are +-1, two are equal.  Then
    det A = e and nu + 1/nu = t.  Conjugation permutes them as well, so nu
    is real or |nu| = 1.  Hence |t| > 2 exactly when nu is real and
    |nu| != 1, i.e. A has a dominant eigenvalue and is hyperbolic.  The
    sheet and the orientation never enter, so the rule holds for -A and
    for det -1 glide reflections (Ratcliffe, Foundations of Hyperbolic
    Manifolds, section 4.7).
    """
    det = determinant(A)
    t = sum(A[i][i] for i in range(3)) - det
    if abs(t) <= 2:
        raise NotHyperbolic("not hyperbolic: |tr A - det A| <= 2")
    return t, det


def axis_normal(g):
    """Primitive integer c spanning ker(A - det A) for a hyperbolic A.

    g is a matrix or an Isometry, with int or Fraction entries, acting on
    the binary-forms model; anything else raises UnsupportedBoundary, and
    a g that is not hyperbolic raises NotHyperbolic by the trace rule.

    For a nu-eigenvector v, (c, v) = (A c, A v) = det A * nu * (c, v) and
    det A * nu != 1, so the axis of A is the plane orthogonal to c.  Two
    such planes meet in the line orthogonal to span(c1, c2), a light ray
    (a shared endpoint) exactly when that span is degenerate:
    (c1, c2)^2 = (c1, c1)(c2, c2).
    """
    A = _matrix_of(g)
    _require_disc_isometry(A)
    _, det = _trace_rule(A)
    m, _ = clear_denominators(tuple(
        tuple(x - (det if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(A)))
    (c,) = transpose(kernel_basis_int(m))
    return c


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
    gens = [clear_denominators(g)
            for g in (a, mat_inverse(a), b, mat_inverse(b))]
    names = ["a", "A", "b", "B"]
    checked = 0
    stack = [(i, *gens[i], names[i]) for i in range(4)]
    while stack:
        last, cur, d, word = stack.pop()
        checked += 1
        # is cur = d*I?  Almost every word already fails at the corner
        if cur[0][0] == d and all(x == (d if i == j else 0) for i, row in
                                  enumerate(cur) for j, x in enumerate(row)):
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
    # both isometry checks run before either trace rule
    _require_disc_isometry(A1)
    _require_disc_isometry(A2)
    c1, c2 = axis_normal(A1), axis_normal(A2)
    f = binary_disc_form()
    if f.inner(c1, c2) ** 2 == f.value(c1) * f.value(c2):
        raise SharedEndpoint("the axes share a boundary ray")
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
