"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples and vectors are plain tuples.
Entries are Python ints or fractions.Fraction, so nothing here ever rounds.
The module supplies the kernel every higher layer leans on: one
elimination, Bareiss's fraction-free one on integer rows, for
determinants, rank, inverses, span coordinates and the enumerator's
positive definite split; one symmetric congruence split (signatures
over Q in Fractions, and in integers mod p^K the p-adic pieces behind
local densities and Jordan forms), the only elimination on Fractions;
and one integer reduction, the canonical row Hermite form, from which
come the Hermite bases of lattice spans, the Smith invariant factors
and saturated integral kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence


class NotPositiveDefinite(ValueError):
    """positive_split met a symmetric matrix that is not positive definite."""


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


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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
    if all(type(x) is int for row in a for x in row):
        return tuple(map(tuple, a)), 1
    d = common_denominator(x for row in a for x in row)
    return tuple(tuple(int(x * d) for x in row) for row in a), d


# ---------------------------------------------------------------------------
# Bareiss's fraction-free elimination
# ---------------------------------------------------------------------------


def _forward(rows: list, ncols: int) -> tuple[list, list]:
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968) of int
    `rows`, in place, to echelon form on the first ncols columns.

    Rows may run past ncols (augmented columns follow along). The pivot
    is the first nonzero entry at or below the current row, and entries
    below it become 0. Each row below is set to (top row - f prow) / prev
    for the pivot top, the row's entry f under it and the previous pivot
    prev (1 at first); a row with f = 0 is skipped when top = prev. Every
    division is exact: each live entry (i, j) is then the minor of the
    input on the pivot rows and row i by the pivot columns and column j.
    Returns the pivot columns (pivot r sits in row r) and the steps at
    which rows were swapped.
    """
    pivots, swaps = [], []
    nrows, prev = len(rows), 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps.append(r)
        prow = rows[r]
        top = prow[col]
        for row in rows[r + 1:]:
            f = row[col]
            if f:
                row[col:] = [(top * x - f * y) // prev
                             for x, y in zip(row[col:], prow[col:])]
            elif top != prev:
                row[col + 1:] = [top * x // prev for x in row[col + 1:]]
        pivots.append(col)
        prev = top
    return pivots, swaps


def _back_substitute(rows: list, ncols: int):
    """(D, Y) for echelon rows from _forward with a pivot in each of the
    first ncols columns: D is the last pivot and Y[r] the int row D x_r,
    for x solving the system with the augmented columns (past ncols) as
    right-hand sides. D is, up to sign, the minor of the input on the
    pivot rows, so D x is integral (Cramer's rule) and each division is
    exact.
    """
    D = rows[ncols - 1][ncols - 1] if ncols else 1
    Y = [None] * ncols
    for r in range(ncols - 1, -1, -1):
        row = rows[r]
        acc = [D * y for y in row[ncols:]]
        for s in range(r + 1, ncols):
            if f := row[s]:
                acc = [a - f * b for a, b in zip(acc, Y[s])]
        Y[r] = [a // row[r] for a in acc]
    return D, Y


def int_determinant(a: Matrix) -> int:
    """Determinant of a square int matrix, which is not checked: the last
    pivot of _forward, signed by the swaps."""
    n = len(a)
    rows = [list(row) for row in a]
    pivots, swaps = _forward(rows, n)
    if len(pivots) < n:
        return 0
    return (-1) ** len(swaps) * (rows[-1][-1] if n else 1)


def determinant(a: Matrix):
    """Exact determinant; an int for integer input, else a Fraction: the
    int_determinant of d a over d^n for d the common denominator."""
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(x, int) for row in a for x in row):
        return int_determinant(a)
    b, d = clear_denominators(a)
    return Fraction(int_determinant(b), d ** n)


def rank(a: Matrix) -> int:
    """Rank over the rationals."""
    rows = [list(row) for row in clear_denominators(a)[0]]
    return len(_forward(rows, shape(a)[1])[0])


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse with Fraction entries; raises SingularMatrix."""
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    b, _ = clear_denominators(tuple((*r, *e) for r, e in zip(a, identity(n))))
    rows = [list(row) for row in b]
    if len(_forward(rows, n)[0]) < n:
        raise SingularMatrix("matrix is singular")
    D, Y = _back_substitute(rows, n)
    return freeze((Fraction(y, D) for y in row) for row in Y)


def span_coordinates(a: Matrix, b: Sequence):
    """x with a x = b for a with independent columns, or None when b lies
    outside the column span; raises SingularMatrix on dependent columns."""
    cols = shape(a)[1]
    ab, _ = clear_denominators(tuple((*row, x) for row, x in zip(a, b)))
    rows = [list(row) for row in ab]
    if len(_forward(rows, cols)[0]) < cols:
        raise SingularMatrix("columns are dependent")
    if any(row[cols] for row in rows[cols:]):
        return None
    D, Y = _back_substitute(rows, cols)
    return tuple(Fraction(y[0], D) for y in Y)


def positive_split(g: Matrix) -> tuple[tuple, Matrix]:
    """(minors, rows) for a symmetric positive definite int matrix g, the
    split behind the enumerator's coordinate-by-coordinate bounds.

    minors = (1, D_1, ..., D_n) are the leading principal minors and rows
    is _forward's echelon form of g: rows[k] is 0 left of k, rows[k][k] =
    D_{k+1}, and g(x) = sum_k (rows[k] x)^2 / (D_k D_{k+1}). By
    Sylvester's criterion the first step k that swaps rows, finds no
    pivot in column k, or finds a pivot <= 0 raises NotPositiveDefinite,
    naming the LDL pivot D_{k+1} / D_k (0 after a swap).
    """
    if not is_symmetric(g):
        raise ValueError("expected a symmetric square matrix")
    rows = [list(row) for row in g]
    _, swaps = _forward(rows, len(rows))
    minors = [1]
    for k, row in enumerate(rows):
        # a step k without a pivot in column k leaves row[k] = 0
        top = 0 if k in swaps else row[k]
        if top <= 0:
            raise NotPositiveDefinite(
                "form is not positive definite "
                f"(pivot {Fraction(top, minors[k])} at index {k})")
        minors.append(top)
    return tuple(minors), freeze(rows)


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
# Symmetric congruence: the valuation split
# ---------------------------------------------------------------------------


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def congruence_split(gram: Matrix, p: int | None = None,
                     mod: int | None = None):
    """Split a nondegenerate symmetric matrix by congruence, one pivot at a
    time, over Z_p for a prime p or over Q for p None.

    Each step pivots on a live entry of least p-adic valuation v,
    preferring the first diagonal entry of valuation v.  When only an
    off-diagonal entry (i, j) reaches v, odd p folds e_j into e_i, which
    surfaces a diagonal pivot of valuation exactly v (2 is a unit), and
    p = 2 takes the 2x2 block on (i, j), whose determinant has valuation
    exactly 2v.  Over Q, in Fractions, every nonzero entry has valuation
    0.  A live block that is all zero raises SingularMatrix.

    With a prime p, entries and basis are ints mod `mod` = p^K, by
    default p^(v_p(det) + 3) (a zero det raises SingularMatrix); the unit
    part U = block / p^v is inverted by pow, a 2x2 U through its odd
    determinant.  This is the exact sweep, reduced.  (1) The pivot has
    the least valuation v of the live block, so the coefficients
    (entry / p^v) U^-1 are known mod p^(K-v) and multiply entries
    divisible by p^v: the Schur update mod p^K needs only the entries
    mod p^K.  (2) The pivot and live determinants multiply to det times
    a unit, so with K > v_p(det) no live block vanishes mod p^K, and
    every valuation and pivot is the exact sweep's.  (3) U is read mod
    p^(K-v): U mod 8 at p = 2 needs K >= v + 3.  (4) By (1), with
    v <= v_p(det), the basis loses at most v_p(det) digits.

    Yields (v, i, block, basis) per step: the pivot index i, the Gram
    matrix of the piece split off (1x1, or 2x2 at p = 2) and its basis
    vectors in input coordinates, with basis^t G basis = block (mod p^K
    with a prime p).  The bases of all steps form a basis of Z_p^n (of
    Q^n for p None), so the split keeps solution counts.
    """
    n = len(gram)
    if p is None:
        work = [[Fraction(x) for x in row] for row in gram]
    else:  # a zero det gets p^3, and its sweep meets an all-zero block
        mod = mod or p ** (valuation(determinant(gram) or 1, p) + 3)
        work = [[x % mod for x in row] for row in gram]
    cols = [[int(s == t) for s in range(n)] for t in range(n)]
    live = list(range(n))
    while live:
        # least valuation v, then diagonal before off-diagonal, then index;
        # hit(x) says that x has valuation v (nothing hits if g = 0)
        g = p and gcd(*(gcd(*map(work[i].__getitem__, live)) for i in live))
        v = valuation(g, p) if g else 0
        hit = (p ** (v + 1)).__rmod__ if p else bool
        i = j = next((i for i in live if hit(work[i][i])), None)
        if i is None:
            i, j = next(((i, j) for a, i in enumerate(live)
                         for j in live[a + 1:] if hit(work[i][j])), (i, j))
        if i is None:
            raise SingularMatrix(
                f"form is degenerate over {'Q' if p is None else 'Z_p'}")
        if i != j and p != 2:
            work[i] = [a + b for a, b in zip(work[i], work[j])]
            for row in work:
                row[i] = (row[i] + row[j]) % mod if mod else row[i] + row[j]
            cols[i] = [(a + b) % mod if mod else a + b
                       for a, b in zip(cols[i], cols[j])]
            assert hit(work[i][i])
        pivot = (i, j) if i != j and p == 2 else (i,)
        block = tuple(tuple(work[a][b] for b in pivot) for a in pivot)
        live = [t for t in live if t not in pivot]
        ri, rj, pv = work[i], work[j], (p or 1) ** v
        if p is None:
            coeff = {t: (ri[t] / block[0][0],) for t in live}
        elif len(pivot) == 1:
            inv = pow(block[0][0] // pv, -1, mod)
            coeff = {t: (ri[t] // pv * inv % mod,) for t in live}
        else:  # U^-1 = adj(U) / det(U), det(U) odd
            (a, b), (_, c) = ((x // pv for x in row) for row in block)
            d = pow(a * c - b * b, -1, mod)
            coeff = {t: ((c * x - b * y) * d % mod, (a * y - b * x) * d % mod)
                     for t in live for x, y in [(ri[t] // pv, rj[t] // pv)]}
        nz = [t for t in live if any(coeff[t])]
        for a, s in enumerate(nz):
            row, ws = work[s], [work[q][s] for q in pivot]
            for t in nz[a:]:
                new = row[t] - sum(map(mul, coeff[t], ws))
                row[t] = work[t][s] = new % mod if mod else new
        for t in nz:
            new = cols[t]
            for c, q in zip(coeff[t], pivot):
                new = [x - c * y for x, y in zip(new, cols[q])]
            cols[t] = [x % mod for x in new] if mod else new
        yield v, i, block, tuple(tuple(cols[q]) for q in pivot)

