"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples and vectors are plain tuples.
Entries are Python ints or fractions.Fraction, so nothing here ever rounds.
The module supplies the kernel every higher layer leans on: one forward
Gaussian elimination (determinants, rank, inverses and span coordinates)
and its pivot-free symmetric form (the enumerator's rational Cholesky
split), one symmetric congruence split (signatures over Q and the p-adic
pieces behind local densities and Jordan forms), and one integer
reduction, the canonical row Hermite form, from which come the Hermite
bases of lattice spans, the Smith invariant factors and saturated
integral kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Sequence


class NotPositiveDefinite(ValueError):
    """A symmetric matrix handed to the Cholesky split was not positive definite."""


class SingularMatrix(ValueError):
    """An exact solve or inverse met a singular matrix, or a symmetric
    congruence split met a degenerate form."""


Matrix = tuple


def freeze(rows) -> Matrix:
    """Validate a rectangular array-of-rows and return it as nested tuples."""
    out = tuple(tuple(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int, one=1) -> Matrix:
    return tuple(tuple(one if i == j else 0 * one for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def is_symmetric(a: Matrix) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def content(v: Sequence[int]) -> int:
    """gcd of the entries, 0 for the zero vector. Entries may be ints or
    integral Fractions; any other entry raises ValueError."""
    g = 0
    for x in v:
        if x != int(x):
            raise ValueError("content of a vector with non-integral entries")
        g = gcd(g, int(x))
    return g


def primitive_part(v: Sequence[int]) -> tuple:
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(int(x) // g for x in v)


def common_denominator(values) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return lcm(*(Fraction(x).denominator for x in values))


def clear_denominators(a: Matrix) -> tuple[Matrix, int]:
    """(d a, d) for the least positive integer d making the matrix a
    integral; d a has int entries. A vector passes as a one-row matrix."""
    d = common_denominator(x for row in a for x in row)
    return tuple(tuple(int(x * d) for x in row) for row in a), d


# ---------------------------------------------------------------------------
# Gaussian elimination over the rationals
# ---------------------------------------------------------------------------


def _forward(rows: list, ncols: int) -> tuple[list, int]:
    """Row-reduce `rows` in place to echelon form on the first ncols columns.

    Rows are lists of Fractions and may run past ncols (augmented
    columns follow along). The pivot is the first nonzero entry at or
    below the current row; zero multipliers and zero pivot-row entries are
    skipped, which keeps sparse inputs cheap. Entries below a pivot are
    left stale, as nothing reads them. Returns the pivot columns (pivot r
    sits in row r) and the sign of the row permutation.
    """
    pivots = []
    sign = 1
    nrows = len(rows)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        inv = 1 / prow[col]
        nz = [j for j in range(col + 1, len(prow)) if prow[j]]
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[col]:
                f = row[col] * inv
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(col)
    return pivots, sign


def _back_substitute(rows: list, pivots: list) -> None:
    """Turn echelon rows from _forward into reduced echelon form in place."""
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        prow = rows[r]
        nz = [j for j in range(col, len(prow)) if prow[j]]
        inv = 1 / prow[col]
        for j in nz:
            prow[j] *= inv
        for i in range(r):
            row = rows[i]
            f = row[col]
            if f:
                for j in nz:
                    row[j] -= f * prow[j]


def _fraction_rows(a: Matrix, extra=None) -> list:
    rows = [[Fraction(x) for x in row] for row in a]
    if extra is not None:
        for row, tail in zip(rows, extra):
            row.extend(Fraction(x) for x in tail)
    return rows


def determinant(a: Matrix):
    """Exact determinant; an int for integer input, else a Fraction."""
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    rows = _fraction_rows(a)
    pivots, sign = _forward(rows, n)
    det = sign * prod(rows[i][i] for i in range(n)) if len(pivots) == n else 0
    if all(isinstance(x, int) for row in a for x in row):
        return int(det)
    return Fraction(det)


def rank(a: Matrix) -> int:
    """Rank over the rationals."""
    return len(_forward(_fraction_rows(a), shape(a)[1])[0])


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse with Fraction entries; raises SingularMatrix."""
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    rows = _fraction_rows(a, identity(n))
    pivots, _ = _forward(rows, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    _back_substitute(rows, pivots)
    return freeze(row[n:] for row in rows)


def span_coordinates(a: Matrix, b: Sequence):
    """x with a x = b for a with independent columns, or None when b lies
    outside the column span; raises SingularMatrix on dependent columns."""
    cols = shape(a)[1]
    rows = _fraction_rows(a, ((x,) for x in b))
    pivots, _ = _forward(rows, cols)
    if len(pivots) < cols:
        raise SingularMatrix("columns are dependent")
    if any(row[cols] for row in rows[cols:]):
        return None
    _back_substitute(rows, pivots)
    return tuple(row[cols] for row in rows[:cols])


# ---------------------------------------------------------------------------
# Hermite forms, Smith invariants and integral kernels
# ---------------------------------------------------------------------------


def row_hermite_form(a: Matrix) -> Matrix:
    """Canonical row-style Hermite form of the row span of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows are dropped; two matrices have equal row spans over the
    integers exactly when their forms coincide. Entries may be ints or
    integral Fractions; any other entry raises ValueError.
    """
    rows = [list(map(int, r)) for r in a]
    if any(x != y for r, s in zip(a, rows) for x, y in zip(r, s)):
        raise ValueError("Hermite form of a matrix with non-integral entries")
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for j in range(ncols):
        # gcd-reduce the entries of column j below the fixed block
        while True:
            live = [i for i in range(r, nrows) if rows[i][j] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: (abs(rows[i][j]), i))
            p = live[0]
            for i in live[1:]:
                q = rows[i][j] // rows[p][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[p])]
        live = [i for i in range(r, nrows) if rows[i][j] != 0]
        if not live:
            continue
        p = live[0]
        rows[r], rows[p] = rows[p], rows[r]
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        piv = rows[r][j]
        for i in range(r):
            q = rows[i][j] // piv
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return freeze(rows[:r])


def column_hermite_form(a: Matrix) -> Matrix:
    """Canonical basis (as columns) for the integer span of the columns of a."""
    return transpose(row_hermite_form(transpose(a)))


def smith_normal_form(a: Matrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix: its Smith diagonal.

    There are min(rows, cols) entries, nonnegative, each dividing the
    next. Row Hermite forms of the matrix and of its transpose alternate
    until it is diagonal; both moves are unimodular. This ends: a round
    that does not split off the first row and column strictly lowers the
    (1,1) entry, a positive integer, to the gcd of the old first row, and
    a split-off row and column stay split. Hermite forms drop zero rows,
    so a zero row or column only shrinks the matrix. Pairwise (gcd, lcm)
    swaps then order the diagonal into a divisor chain.
    """
    m = row_hermite_form(a)
    while any(x for i, r in enumerate(m) for j, x in enumerate(r) if i != j):
        m = row_hermite_form(transpose(m))
    d = [m[i][i] for i in range(len(m))] + [0] * (min(shape(a)) - len(m))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def kernel_basis_int(a: Matrix) -> Matrix:
    """Columns spanning the integer kernel of an integer matrix.

    The columns are the rows of the Hermite form of [a^T | I] whose a^T
    part is zero. That form is a unimodular transform of [a^T | I], so
    the kernel basis is saturated: it extends to a basis of the full
    integer lattice.
    """
    rows, cols = shape(a)
    h = row_hermite_form(
        tuple(row + e for row, e in zip(transpose(a), identity(cols))))
    kernel = [row[rows:] for row in h if not any(row[:rows])]
    if not kernel:
        return tuple(() for _ in range(cols))
    return transpose(freeze(kernel))


# ---------------------------------------------------------------------------
# Symmetric congruence: the valuation split and the rational Cholesky split
# ---------------------------------------------------------------------------


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def congruence_split(gram: Matrix, p: int | None = None):
    """Split a nondegenerate symmetric matrix by congruence, one pivot at a
    time, over Z_p for a prime p or over Q for p None.

    Each step pivots on a live entry of least p-adic valuation v,
    preferring the first diagonal entry of valuation v.  When only an
    off-diagonal entry (i, j) reaches v, odd p folds e_j into e_i, which
    surfaces a diagonal pivot of valuation exactly v (2 is a unit), and
    p = 2 takes the 2x2 block on (i, j), whose determinant has valuation
    exactly 2v.  Over Q every nonzero entry has valuation 0 and 2 is a
    unit, so the same rule diagonalizes: the first nonzero diagonal
    entry, else a fold of the first nonzero off-diagonal pair.  The
    remaining basis vectors are projected off the pivot block in exact
    Fractions; every coefficient is p-integral, so the transformation is
    invertible over Z/p^k and keeps solution counts.  A live block that
    is all zero raises SingularMatrix.

    Yields (v, i, block, basis) per step: the pivot index i, the Gram
    matrix of the piece split off (1x1, or 2x2 at p = 2) and its basis
    vectors in input coordinates, p-integral Fractions, so that
    basis^t G basis = block exactly.  The bases of all steps together form
    a basis of Z_p^n (of Q^n for p None).
    """
    n = len(gram)
    work = [[Fraction(x) for x in row] for row in gram]
    cols = [[Fraction(int(s == t)) for s in range(n)] for t in range(n)]
    live = list(range(n))

    def val(q):
        if p is None:
            return 0
        return valuation(q.numerator, p) - valuation(q.denominator, p)

    while live:
        # least valuation, then diagonal before off-diagonal, then index
        best = min(((val(work[i][j]), i != j, i, j) for a, i in enumerate(live)
                    for j in live[a:] if work[i][j]), default=None)
        if best is None:
            raise SingularMatrix(
                f"form is degenerate over {'Q' if p is None else 'Z_p'}")
        v, off, i, j = best
        if off and p != 2:
            for t in live:
                work[t][i] += work[t][j]
            for t in live:
                work[i][t] += work[j][t]
            cols[i] = [a + b for a, b in zip(cols[i], cols[j])]
            assert val(work[i][i]) == v
        pivot = (i, j) if off and p == 2 else (i,)
        block = tuple(tuple(work[a][b] for b in pivot) for a in pivot)
        inv = ((1 / block[0][0],),) if len(pivot) == 1 else mat_inverse(block)
        live = [t for t in live if t not in pivot]
        coeff = {t: mat_vec(inv, [work[q][t] for q in pivot]) for t in live}
        nz = [t for t in live if any(coeff[t])]
        for a, s in enumerate(nz):
            ws = [work[q][s] for q in pivot]
            for t in nz[a:]:
                new = work[s][t]
                for c, w in zip(coeff[t], ws):
                    if c:
                        new -= c * w
                work[s][t] = work[t][s] = new
        for t in nz:
            for c, q in zip(coeff[t], pivot):
                if c:
                    cols[t] = [x - c * y for x, y in zip(cols[t], cols[q])]
        yield v, i, block, tuple(tuple(cols[q]) for q in pivot)


def rational_cholesky(g: Matrix) -> tuple[tuple, Matrix]:
    """Split a symmetric positive definite matrix as g = u^T diag(d) u.

    A plain LDL in index order: u is unit upper triangular and every
    entry is an exact Fraction. The split underlies the enumerator's
    coordinate-by-coordinate bounds. The first nonpositive pivot aborts
    with NotPositiveDefinite.
    """
    if not is_symmetric(g):
        raise ValueError("expected a symmetric square matrix")
    w = [[Fraction(x) for x in row] for row in g]
    d, u = [], []
    for i, wi in enumerate(w):
        piv = wi[i]
        if piv <= 0:
            raise NotPositiveDefinite(
                f"form is not positive definite (pivot {piv} at index {i})")
        ui = [Fraction(0)] * i + [x / piv for x in wi[i:]]
        nz = [k for k in range(i + 1, len(wi)) if wi[k]]
        for a, j in enumerate(nz):
            wj = w[j]
            for k in nz[a:]:
                wj[k] -= ui[j] * wi[k]
        d.append(piv)
        u.append(tuple(ui))
    return tuple(d), tuple(u)
