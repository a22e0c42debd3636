"""Roots and hyperboloid geometry of indefinite integral forms.

A nonzero lattice vector v with f(v) != 0 is a root when the reflection
r_v(x) = x - (2(v,x)/f(v)) v maps the lattice into itself; roots are
positive or negative with the sign of f(v).  For signature (n,1) the set
{f(x) = -k} has two sheets; points on a chosen sheet carry an exact
hyperbolic metric through cosh d(x,y) = -(x,y)/k.  The module classifies
roots, applies reflections and Cartan involutions c_v = -r_v, measures
sheet distances as certified intervals, decides how a root hyperplane of
a block sum meets the hyperboloid of one block, and computes Gram
matrices of orthogonal complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    content,
    dot,
    freeze,
    identity,
    kernel_basis_int,
    mat_mul,
    mat_vec,
    primitive_part,
    transpose,
)
from .gram import GramForm, orthogonal_sum, scale_form
from .intervals import Interval, acosh_interval
from .lattice import Lattice


class ZeroVector(Exception):
    """The zero vector cannot be classified or reflected in."""


class NotARoot(ValueError):
    """The vector does not define a lattice-preserving reflection."""


class NotNegativeRoot(Exception):
    """Cartan involutions require a root of negative norm."""


class DifferentSheet(Exception):
    """The points do not lie on one sheet of the hyperboloid."""


class BadDecomposition(ValueError):
    """The form is not the declared orthogonal block sum."""


class IsotropicVector(ValueError):
    """Orthogonal complements need f(v) != 0."""


@dataclass(frozen=True)
class PositiveRoot:
    vector: tuple
    norm: int


@dataclass(frozen=True)
class NegativeRoot:
    vector: tuple
    norm: int


@dataclass(frozen=True)
class NotRoot:
    vector: tuple
    reason: str


def _form_of(L) -> GramForm:
    if isinstance(L, GramForm):
        return L
    if isinstance(L, Lattice):
        return L.induced_gram_form()
    return GramForm(L)


def _vector_of(v):
    if isinstance(v, (PositiveRoot, NegativeRoot)):
        return v.vector
    return tuple(v)


def classify_root(L, v):
    """Sort v into PositiveRoot / NegativeRoot / NotRoot(reason).

    A root must be primitive, have f(v) != 0, and satisfy the
    integrality 2(v,u)/f(v) in Z against every basis vector u, so that
    r_v preserves the lattice.
    """
    G = _form_of(L)
    v = _vector_of(v)
    if len(v) != G.n:
        raise ValueError("vector length does not match the form")
    if not any(v):
        raise ZeroVector("the zero vector is not a root")
    if content(v) != 1:
        return NotRoot(v, "imprimitive")
    norm = G.value(v)
    if norm == 0:
        return NotRoot(v, "isotropic")
    gv = mat_vec(G.matrix, v)
    if any((2 * c) % norm for c in gv):
        return NotRoot(v, "reflection does not preserve the lattice")
    if norm > 0:
        return PositiveRoot(v, norm)
    return NegativeRoot(v, norm)


def reflect(L, v, x):
    """Apply r_v(x) = x - (2(v,x)/f(v)) v.

    v must classify as a root; x may have rational coordinates.
    """
    G = _form_of(L)
    root = classify_root(G, v)
    if isinstance(root, NotRoot):
        raise NotARoot(root.reason)
    v = root.vector
    pairing = dot(mat_vec(G.matrix, v), x)
    coeff = Fraction(2 * pairing, root.norm)
    out = tuple(x[i] - coeff * v[i] for i in range(G.n))
    if all(Fraction(c).denominator == 1 for c in out):
        out = tuple(int(c) for c in out)
    return out


@dataclass(frozen=True)
class Isometry:
    """An exact form isometry T^t G T = G with a sheet-preservation mark."""

    matrix: tuple
    preserves_sheet: bool

    def __call__(self, x):
        return mat_vec(self.matrix, x)


def reflection_matrix(L, v):
    """The matrix of r_v; integral whenever v is a root."""
    G = _form_of(L)
    root = classify_root(G, v)
    if isinstance(root, NotRoot):
        raise NotARoot(root.reason)
    v = root.vector
    gv = mat_vec(G.matrix, v)
    n = G.n
    return freeze([
        [(1 if i == j else 0) - (2 * gv[j] // root.norm) * v[i]
         for j in range(n)]
        for i in range(n)
    ])


def cartan_involution(L, v):
    """The involution c_v = -r_v at a negative root.

    c_v fixes the ray through v, hence the sheet point on that ray, so it
    preserves the sheet containing v.  Both c_v^2 = 1 and the form
    invariance are re-verified exactly.
    """
    G = _form_of(L)
    root = classify_root(G, v)
    if not isinstance(root, NegativeRoot):
        raise NotNegativeRoot(
            "cartan involutions are attached to negative roots"
        )
    r = reflection_matrix(G, root.vector)
    n = G.n
    c = freeze([[-r[i][j] for j in range(n)] for i in range(n)])
    if mat_mul(c, c) != identity(n):
        raise AssertionError("c_v is not an involution")
    if mat_mul(transpose(c), mat_mul(G.matrix, c)) != G.matrix:
        raise AssertionError("c_v does not preserve the form")
    if mat_vec(c, root.vector) != tuple(root.vector):
        raise AssertionError("c_v does not fix its base ray")
    return Isometry(c, True)


# ---------------------------------------------------------------------------
# the hyperboloid sheet


@dataclass(frozen=True)
class SheetPoint:
    """A rational point with f(x) = -level on the sheet picked by `seed`.

    Sheet membership is the exact sign test -(x, seed) > 0.
    """

    form: GramForm
    x: tuple
    level: int
    seed: tuple


def sheet_point(L, x, seed, level=None):
    """Certify x as a point of the sheet of {f = -level} containing seed."""
    G = _form_of(L)
    x = tuple(Fraction(c) for c in x)
    seed = tuple(seed)
    val = -G.value(x)
    if level is None:
        level = val
    if val != level or level <= 0:
        raise ValueError(f"f(x) = {-val}, expected -{level}")
    if G.value(seed) >= 0:
        raise ValueError("sheet seed must have negative norm")
    if -dot(mat_vec(G.matrix, seed), x) <= 0:
        raise DifferentSheet("x pairs with the opposite sheet of the seed")
    if all(c.denominator == 1 for c in x):
        x = tuple(int(c) for c in x)
    return SheetPoint(G, x, level, seed)


def hyperbolic_distance(x: SheetPoint, y: SheetPoint, bits=None):
    """Certified interval for the sheet distance, cosh d = -(x,y)/k.

    Zero exactly when x = y; raises DifferentSheet when the pairing puts
    the points on opposite sheets.
    """
    if x.form.matrix != y.form.matrix or x.level != y.level \
            or x.seed != y.seed:
        raise DifferentSheet("points live on different sheets")
    k = x.level
    cosh = Fraction(-dot(mat_vec(x.form.matrix, x.x), y.x), k)
    if cosh < 1:
        raise DifferentSheet(
            "pairing is below the sheet minimum; points cannot share a sheet"
        )
    if cosh == 1:
        return Interval(0)
    return acosh_interval(Interval(cosh), bits)


# ---------------------------------------------------------------------------
# how a root hyperplane meets the hyperboloid of one block


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Whole:
    pass


@dataclass(frozen=True)
class HyperplaneOf:
    root: PositiveRoot


def classify_hyperplane_meet(f, q, t, v, *, alpha=1):
    """Meet of the root hyperplane of v with the hyperboloid of the q-block.

    f must equal the declared block sum alpha*q + t with t positive
    definite.  Writing u for the projection of v to the q-block: u = 0
    means the hyperplane contains the whole hyperboloid; q(u) <= 0 means
    it misses it; otherwise the meet is the hyperplane of the positive
    root u/content(u) of q.
    """
    f = _form_of(f)
    q = _form_of(q)
    t = _form_of(t)
    declared = orthogonal_sum(scale_form(q, alpha), t)
    if f.matrix != declared.matrix:
        raise BadDecomposition("form does not match the declared block sum")
    if t.signature != (t.n, 0):
        raise BadDecomposition("tail block must be positive definite")
    root = classify_root(f, v)
    if isinstance(root, NotRoot):
        raise NotARoot(root.reason)
    if not isinstance(root, PositiveRoot):
        raise NotARoot("the meet trichotomy is for positive roots")
    u = root.vector[: q.n]
    if not any(u):
        return Whole()
    if q.value(u) <= 0:
        return Empty()
    w = primitive_part(u)
    wr = classify_root(q, w)
    if not isinstance(wr, PositiveRoot):
        raise AssertionError(
            "projection is not a multiple of a positive root of the block"
        )
    return HyperplaneOf(wr)


# ---------------------------------------------------------------------------
# complement forms


def complement_form(L, v):
    """Gram matrix of f on the sublattice orthogonal to v.

    The basis comes from the integer kernel of the pairing row (v, .); it
    is saturated but not reduced.  Output may be indefinite or negative
    definite when the ambient form is indefinite; callers can inspect the
    signature.
    """
    G = _form_of(L)
    v = _vector_of(v)
    if G.value(v) == 0:
        raise IsotropicVector("complement of an isotropic vector is singular")
    basis = kernel_basis_int((mat_vec(G.matrix, v),))
    return GramForm(mat_mul(transpose(basis), mat_mul(G.matrix, basis)))
