"""Integral quadratic forms given by symmetric Gram matrices.

A form is f(x) = x^T G x with G symmetric, integral, and nonsingular; the
associated bilinear pairing is (x, y) = x^T G y, so (x, x) = f(x) and
(x, y) = (f(x + y) - f(x - y)) / 4. The module also owns the shared text
format for Gram matrices: first a dimension line, then that many rows of
integers, with '#' starting a comment and blank lines skipped.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import exact


class SingularFormError(ValueError):
    """The Gram matrix has determinant zero."""


class GramFormatError(ValueError):
    """The Gram text input is malformed."""


class GramForm:
    """A nondegenerate integral symmetric bilinear form on Z^n."""

    def __init__(self, matrix):
        m = exact.freeze(matrix)
        n, c = exact.shape(m)
        if n != c:
            raise ValueError("Gram matrix must be square")
        if not all(isinstance(x, int) for row in m for x in row):
            raise ValueError("Gram matrix entries must be integers")
        if not exact.is_symmetric(m):
            raise ValueError("Gram matrix must be symmetric")
        self.matrix = m
        self.n = n

    def __eq__(self, other):
        return isinstance(other, GramForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"GramForm({[list(r) for r in self.matrix]})"

    @cached_property
    def determinant(self) -> int:
        d = exact.determinant(self.matrix)
        if d == 0:
            raise SingularFormError("form is degenerate")
        return d

    @cached_property
    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia indices, computed exactly."""
        d, _, _ = exact.congruence_diagonal(self.matrix)
        pos = sum(1 for x in d if x > 0)
        neg = sum(1 for x in d if x < 0)
        if pos + neg != self.n:
            raise SingularFormError("form is degenerate")
        return (pos, neg)

    @cached_property
    def is_even(self) -> bool:
        return all(self.matrix[i][i] % 2 == 0 for i in range(self.n))

    def value(self, x: Sequence) -> Fraction | int:
        """f(x) = x^T G x."""
        gx = exact.mat_vec(self.matrix, x)
        return exact.dot(x, gx)

    def inner(self, x: Sequence, y: Sequence):
        """(x, y) = x^T G y."""
        return exact.dot(x, exact.mat_vec(self.matrix, y))

    def text(self, comment: str | None = None) -> str:
        lines = []
        if comment:
            for part in comment.splitlines():
                lines.append(f"# {part}")
        lines.append(str(self.n))
        for row in self.matrix:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    @cached_property
    def form_hash(self) -> str:
        """Stable 16-hex-digit identifier of the Gram matrix."""
        canonical = str(self.n) + ";" + ";".join(
            ",".join(str(x) for x in row) for row in self.matrix
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_gram_text(text: str) -> GramForm:
    """Parse the shared Gram matrix format; symmetry violations are rejected."""
    tokens_by_line = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens_by_line.append(body.split())
    if not tokens_by_line:
        raise GramFormatError("empty input")
    head = tokens_by_line[0]
    if len(head) != 1:
        raise GramFormatError("first line must hold the dimension only")
    try:
        n = int(head[0])
    except ValueError as err:
        raise GramFormatError(f"bad dimension {head[0]!r}") from err
    if n <= 0:
        raise GramFormatError("dimension must be positive")
    flat = [tok for line in tokens_by_line[1:] for tok in line]
    if len(flat) != n * n:
        raise GramFormatError(f"expected {n * n} entries, found {len(flat)}")
    try:
        vals = [int(t) for t in flat]
    except ValueError as err:
        raise GramFormatError("entries must be integers") from err
    rows = [vals[i * n : (i + 1) * n] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise GramFormatError(
                    f"matrix is not symmetric at ({i}, {j}): "
                    f"{rows[i][j]} != {rows[j][i]}"
                )
    return GramForm(rows)


def identity_form(n: int) -> GramForm:
    """Sum of n squares."""
    return GramForm(exact.identity(n))


def hyperbolic_plane() -> GramForm:
    """The even rank-2 form 2*x1*x2."""
    return GramForm([[0, 1], [1, 0]])


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_form() -> GramForm:
    """The even unimodular rank-8 form with 240 minimal vectors."""
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    for a, b in _E8_EDGES:
        m[a - 1][b - 1] = -1
        m[b - 1][a - 1] = -1
    return GramForm(m)


def orthogonal_sum(*forms: GramForm) -> GramForm:
    """Block-diagonal join; the determinant multiplies across blocks."""
    if not forms:
        raise ValueError("need at least one block")
    n = sum(f.n for f in forms)
    m = [[0] * n for _ in range(n)]
    off = 0
    for f in forms:
        for i in range(f.n):
            for j in range(f.n):
                m[off + i][off + j] = f.matrix[i][j]
        off += f.n
    return GramForm(m)


def scale_form(form: GramForm, c: int) -> GramForm:
    """The form c*f; its determinant is c^n times the old one."""
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return GramForm([[c * x for x in row] for row in form.matrix])
