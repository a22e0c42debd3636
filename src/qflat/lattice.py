"""Lattices in a fixed rational quadratic space.

A Lattice is the integer span of finitely many independent rational
columns, paired by an ambient Gram form. Sums, intersections, duals, and
discriminant invariants are computed exactly; sums and intersections
clear denominators once, with exact.clear_denominators, and run integer
Hermite reductions, so no step leaves exact arithmetic. Saturation
repairs square prime factors in the discriminant group by adjoining
p L* intersected with (1/p) L, one prime at a time in increasing order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt

from . import exact
from .gram import GramForm


class NotClassicallyIntegral(ValueError):
    """The pairing takes non-integer values on the lattice."""


class DegenerateLattice(ValueError):
    """The pairing is degenerate on the lattice: its Gram matrix is singular."""


class Lattice:
    """Integer span of independent rational basis columns under an ambient form."""

    def __init__(self, ambient: GramForm, basis):
        self.ambient = ambient
        b = exact.freeze(
            [[Fraction(x) for x in row] for row in basis]
        )
        rows, cols = exact.shape(b)
        if rows != ambient.n:
            raise ValueError("basis rows must match the ambient dimension")
        if cols == 0:
            raise ValueError("lattice needs at least one basis vector")
        self.basis = b
        self.rank = cols
        if exact.rank(b) != cols:
            raise ValueError("basis columns are dependent")

    @staticmethod
    def standard(ambient: GramForm) -> "Lattice":
        return Lattice(ambient, exact.identity(ambient.n))

    # -- derived data --------------------------------------------------------

    @cached_property
    def induced_gram(self) -> exact.Matrix:
        bt = exact.transpose(self.basis)
        return exact.mat_mul(bt, exact.mat_mul(self.ambient.matrix, self.basis))

    @cached_property
    def is_classically_integral(self) -> bool:
        return all(
            Fraction(x).denominator == 1
            for row in self.induced_gram
            for x in row
        )

    def induced_gram_form(self) -> GramForm:
        if not self.is_classically_integral:
            raise NotClassicallyIntegral("induced Gram matrix is not integral")
        return GramForm([[int(x) for x in row] for row in self.induced_gram])

    @cached_property
    def canonical_key(self):
        """(Hermite form of dL, least d with dL integral), unique per span."""
        m, den = exact.clear_denominators(self.basis)
        return (exact.column_hermite_form(m), den)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self):
        return hash((self.ambient, self.canonical_key))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, ambient_n={self.ambient.n})"

    # -- membership ----------------------------------------------------------

    def coordinates(self, v):
        """Rational coordinates of v in this basis, or None when outside the span."""
        return exact.span_coordinates(self.basis, v)

    def contains(self, v) -> bool:
        coords = self.coordinates(v)
        return coords is not None and all(c.denominator == 1 for c in coords)


def _canonical_lattice(ambient: GramForm, int_columns, den: int) -> Lattice:
    """Lattice spanned by integer columns divided by den, canonicalized."""
    h = exact.column_hermite_form(int_columns)
    rows, cols = exact.shape(h)
    if cols == 0:
        raise ValueError("empty lattice")
    basis = [[Fraction(h[i][j], den) for j in range(cols)] for i in range(rows)]
    return Lattice(ambient, basis)


def scale_lattice(lat: Lattice, c) -> Lattice:
    """The lattice c * L inside the same quadratic space."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return Lattice(
        lat.ambient,
        [[x * c for x in row] for row in lat.basis],
    )


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient != b.ambient:
        raise ValueError("lattices live in different quadratic spaces")
    joined, den = exact.clear_denominators(
        tuple(ra + rb for ra, rb in zip(a.basis, b.basis)))
    return _canonical_lattice(a.ambient, joined, den)


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """All vectors lying in both lattices, via an integer kernel computation."""
    if a.ambient != b.ambient:
        raise ValueError("lattices live in different quadratic spaces")
    stacked, _ = exact.clear_denominators(
        tuple(ra + tuple(-x for x in rb) for ra, rb in zip(a.basis, b.basis)))
    kern = exact.kernel_basis_int(stacked)
    if exact.shape(kern)[1] == 0:
        raise ValueError("intersection is the zero lattice")
    # the x-part of each kernel column (x, y) gives a member a.basis @ x
    members, den = exact.clear_denominators(
        exact.mat_mul(a.basis, kern[:a.rank]))
    return _canonical_lattice(a.ambient, members, den)


def dual_lattice(lat: Lattice) -> Lattice:
    """Vectors of the rational span pairing integrally with all of L.

    For a full-rank lattice this is the classical dual in the whole space;
    in general it is the dual inside span(L). The dual of the dual gives
    back L, and the index information is carried by invariant_factors.
    A degenerate lattice raises DegenerateLattice.
    """
    try:
        inv = exact.mat_inverse(lat.induced_gram)
    except exact.SingularMatrix:
        raise DegenerateLattice("no dual: singular Gram matrix") from None
    basis = exact.mat_mul(lat.basis, inv)
    return Lattice(lat.ambient, basis)


def invariant_factors(lat: Lattice) -> tuple[int, ...]:
    """Diagonal of the Smith form of the induced Gram matrix.

    These are the invariant factors of the discriminant group L*/L, one
    entry per basis vector, each dividing the next.
    """
    if not lat.is_classically_integral:
        raise NotClassicallyIntegral("invariant factors need an integral lattice")
    return exact.smith_normal_form(lat.induced_gram)


def discriminant(lat: Lattice) -> Fraction:
    return exact.determinant(lat.induced_gram)


def saturate(lat: Lattice) -> Lattice:
    """Iteratively adjoin p L* meet (1/p) L until the discriminant group is
    squarefree at every prime.

    Primes are processed in increasing order; each pass strictly divides
    the discriminant, so the loop terminates. The result still takes
    integer pairing values, contains the input, and is idempotent. A
    degenerate lattice, whose discriminant group is infinite, raises
    DegenerateLattice.
    """
    if not lat.is_classically_integral:
        raise NotClassicallyIntegral("saturation needs an integral lattice")
    current = lat
    while True:
        facs = invariant_factors(current)
        if 0 in facs:
            raise DegenerateLattice(
                "saturation needs a nondegenerate lattice; the induced Gram "
                "matrix is singular")
        bad = sorted({p for f in facs for p in _square_primes(f)})
        if not bad:
            return current
        p = bad[0]
        dual_scaled = scale_lattice(dual_lattice(current), p)
        shrunk = scale_lattice(current, Fraction(1, p))
        gained = lattice_intersection(dual_scaled, shrunk)
        bigger = lattice_sum(current, gained)
        if bigger == current:
            raise RuntimeError(
                f"saturation stalled at p={p}; invariant factors {facs}"
            )
        if not bigger.is_classically_integral:
            raise RuntimeError("saturation produced a non-integral lattice")
        current = bigger


def _square_primes(f: int) -> set:
    """Primes p with p^2 dividing f >= 1.

    Trial division stops once d^3 exceeds what is left of f. The cofactor
    then has at most two prime factors, all at least d, so it is 1, p, pq
    or p^2, and only p^2 is a perfect square.
    """
    out = set()
    d = 2
    while d * d * d <= f:
        if f % d == 0:
            f //= d
            if f % d == 0:
                out.add(d)
            while f % d == 0:
                f //= d
        d += 1 if d == 2 else 2
    r = isqrt(f)
    if r > 1 and r * r == f:
        out.add(r)
    return out
