"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples and vectors are plain tuples.
Entries are Python ints or fractions.Fraction, so nothing here ever rounds.
The module supplies the kernel every higher layer leans on: one forward
Gaussian elimination (determinants, rank, inverses, solves and span
coordinates), one symmetric congruence elimination (signatures and the
LDL-style rational Cholesky split used by the vector enumerator), Smith
normal form with a deterministic pivot rule, canonical Hermite forms for
lattice spans, and integral kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence


class NotPositiveDefinite(ValueError):
    """A symmetric matrix handed to the Cholesky split was not positive definite."""


class SingularMatrix(ValueError):
    """An exact solve or inverse met a singular matrix."""


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
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def is_symmetric(a: Matrix) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def content(v: Sequence[int]) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for x in v:
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


def solve(a: Matrix, b: Sequence) -> tuple:
    """Solve a x = b exactly over the rationals (a square nonsingular)."""
    n, m = shape(a)
    if n != m:
        raise ValueError("solve with a non-square matrix")
    return span_coordinates(a, b)


def charpoly(a: Matrix) -> tuple:
    """Characteristic polynomial of a square matrix, coefficients high to low.

    Returned as Fractions (c0, c1, ..., cn) with c0 = 1, via the
    Faddeev-LeVerrier recursion, so the computation stays exact.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("charpoly of a non-square matrix")
    af = tuple(tuple(Fraction(x) for x in row) for row in a)
    coeffs = [Fraction(1)]
    mk = identity(n, Fraction(1))
    for k in range(1, n + 1):
        am = mat_mul(af, mk)
        c = -Fraction(sum(am[i][i] for i in range(n)), k)
        coeffs.append(c)
        mk = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SnfResult:
    """Diagonal form s with unimodular u, v satisfying u a v = s.

    The diagonal is nonnegative and each entry divides the next.
    """

    __slots__ = ("s", "u", "v")

    def __init__(self, s: Matrix, u: Matrix, v: Matrix):
        self.s = s
        self.u = u
        self.v = v

    @property
    def diagonal(self) -> tuple[int, ...]:
        r, c = shape(self.s)
        return tuple(self.s[i][i] for i in range(min(r, c)))


def _min_abs_pivot(m, t, rows, cols):
    """Position of the least |nonzero| entry in the trailing block, row-major ties."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = m[i][j]
            if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form with transforms.

    Pivots are chosen by least absolute value, ties broken by lowest
    (row, column), which keeps the reduction deterministic. Row operations
    accumulate in u, column operations in v, so u a v equals the returned
    diagonal matrix.
    """
    rows, cols = shape(a)
    m = [[int(x) for x in row] for row in a]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for r in m:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    t = 0
    while True:
        pos = _min_abs_pivot(m, t, rows, cols)
        if pos is None:
            break
        if pos != (t, t):
            if pos[0] != t:
                swap_rows(t, pos[0])
            if pos[1] != t:
                swap_cols(t, pos[1])
        while True:
            # clear column t then row t; a nonzero remainder becomes the new pivot
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: pivot must divide the trailing block
        piv = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if piv < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SnfResult(freeze(m), freeze(u), freeze(v))


# ---------------------------------------------------------------------------
# Hermite forms and integral kernels
# ---------------------------------------------------------------------------


def row_hermite_form(a: Matrix) -> Matrix:
    """Canonical row-style Hermite form of the row span of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows are dropped; two matrices have equal row spans over the
    integers exactly when their forms coincide.
    """
    rows = [list(map(int, r)) for r in a]
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


def kernel_basis_int(a: Matrix) -> Matrix:
    """Columns spanning the integer kernel of an integer matrix.

    The result is primitive: the kernel columns extend to a basis of the
    full integer lattice, because they arrive as unimodular-transform
    columns matched to zero diagonal entries of the Smith form.
    """
    rows, cols = shape(a)
    if rows == 0 or cols == 0:
        return identity(cols)
    res = smith_normal_form(a)
    rank = sum(1 for d in res.diagonal if d != 0)
    vt = transpose(res.v)
    # v columns past the rank are the kernel
    kernel_cols = [vt[j] for j in range(rank, cols)]
    if not kernel_cols:
        return tuple(() for _ in range(cols))
    return transpose(freeze(kernel_cols))


# ---------------------------------------------------------------------------
# Rational Cholesky (LDL-style) split
# ---------------------------------------------------------------------------


def congruence_diagonal(g: Matrix) -> tuple[tuple, Matrix, int | None]:
    """Diagonalize a symmetric matrix by congruence, pivoting in index order.

    Returns (d, u, first_repair). While no pivot has been zero,
    g = u^T diag(d) u with u unit upper triangular. A zero pivot at index
    i is repaired by exchanging i with the first later index whose
    diagonal entry is nonzero or, failing that, by e_i += e_j for the
    first later j with g_ij != 0 (which makes the pivot 2 g_ij); then d
    still carries the inertia of g but u no longer splits it, and
    first_repair is the first such i. A zero pivot with no partner is in
    the radical and stays 0 in d.
    """
    n, m = shape(g)
    if n != m or not is_symmetric(g):
        raise ValueError("expected a symmetric square matrix")
    w = [[Fraction(x) for x in row] for row in g]
    u = [list(row) for row in identity(n, Fraction(1))]
    d = []
    first_repair = None
    for i in range(n):
        if not w[i][i]:
            j = next((j for j in range(i + 1, n) if w[j][j]), None)
            if j is not None:
                w[i], w[j] = w[j], w[i]
                for row in w:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if w[i][j]), None)
                if j is not None:
                    for t in range(i, n):
                        w[i][t] += w[j][t]
                    for t in range(i, n):
                        w[t][i] += w[t][j]
            if first_repair is None:
                first_repair = i
        piv = w[i][i]
        d.append(piv)
        if not piv:
            continue
        wi = w[i]
        nz = [k for k in range(i + 1, n) if wi[k]]
        for a, j in enumerate(nz):
            c = u[i][j] = wi[j] / piv
            wj = w[j]
            for k in nz[a:]:
                wj[k] -= c * wi[k]
                w[k][j] = wj[k]
    return tuple(d), freeze(u), first_repair


def rational_cholesky(g: Matrix) -> tuple[tuple, Matrix]:
    """Split a symmetric positive definite matrix as g = u^T diag(d) u.

    u is unit upper triangular and every entry is an exact Fraction. The
    split underlies the enumerator's coordinate-by-coordinate bounds. The
    first nonpositive pivot aborts with NotPositiveDefinite.
    """
    d, u, repair = congruence_diagonal(g)
    bad = next((i for i, p in enumerate(d[:repair]) if p < 0), repair)
    if bad is not None:
        piv = 0 if bad == repair else d[bad]
        raise NotPositiveDefinite(
            f"form is not positive definite (pivot {piv} at index {bad})")
    return d, u
