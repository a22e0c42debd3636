"""Short-vector enumeration for positive definite forms.

Provides complete vector lists below a norm bound, exact representation
counts r(m), a represents-m predicate, the order of the integral
automorphism group, orthogonal decomposition into indecomposable blocks,
and representation fingerprints (r(1), ..., r(M)).

All search is exact: coordinate brackets come from the fraction-free
positive definite split of the Gram matrix (exact.positive_split), in
integers throughout, so no vector is missed and none is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

from .errors import BudgetExceeded
from .exact import (
    NotPositiveDefinite,
    column_hermite_form,
    common_denominator,
    determinant,
    dot,
    identity,
    mat_mul,
    mat_vec,
    positive_split,
    transpose,
)
from .gram import GramForm


class DimensionLimit(ValueError):
    """Dimension exceeds the configured automorphism-search limit."""


DECOMPOSE_BUDGET = 4_000_000


def _walk(gram, bound, visit):
    """Visit every nonzero integer vector with f(v) <= bound, both signs.

    Calls visit(x, norm) with the coordinate list x (reused between
    calls) and stops the walk as soon as visit returns a true value;
    returns whether it stopped early.  Coordinates are fixed from the
    last to the first; at each level the admissible integers form a
    contiguous range around the real minimum of the quadratic, so
    scanning outward and stopping at the first violation is exhaustive.

    The split f(x) = sum_i (r_i x)^2 / (D_i D_{i+1}) of positive_split
    runs on integers: with row_i = r_i / g_i for g_i the content of r_i,
    and S the least integer clearing every g_i^2 / (D_i D_{i+1}),
    S f(x) = sum_i w_i (row_i x)^2 with integer weights w_i.
    """
    minors, split = positive_split(gram)
    n = len(split)
    g = [gcd(*r) for r in split]
    rows = [[x // g[i] for x in r] for i, r in enumerate(split)]
    w = [Fraction(g[i] ** 2, minors[i] * minors[i + 1]) for i in range(n)]
    scale = common_denominator(w)
    w = [int(scale * wi) for wi in w]
    x = [0] * n

    def walk(i, remaining):
        if i < 0:
            return any(x) and visit(x, bound - remaining // scale)
        row, wi, di = rows[i], w[i], rows[i][i]
        c = 0
        for j in range(i + 1, n):
            if x[j]:
                c += row[j] * x[j]
        # the quadratic in x_i is minimized at -c/di; ceil(-c/di) starts the
        # upward scan on the monotone side, ceil(-c/di) - 1 the downward one
        top = -(c // di)
        for xi, step in ((top, 1), (top - 1, -1)):
            while (q := wi * (di * xi + c) ** 2) <= remaining:
                x[i] = xi
                if walk(i - 1, remaining - q):
                    return True
                xi += step
        x[i] = 0
        return False

    return walk(n - 1, scale * bound)


def _vectors_up_to(gram, bound):
    """All (vector, norm) pairs with 0 < f(v) <= bound, both signs."""
    out = []
    _walk(gram, bound, lambda x, norm: out.append((tuple(x), norm)))
    return out


def _norm_counts(gram, bound):
    """counts[k] = #{v : f(v) = k} for 0 < k <= bound, without listing v."""
    counts = [0] * (bound + 1)

    def tally(x, norm):
        counts[norm] += 1

    _walk(gram, bound, tally)
    return counts


def _canonical(pairs):
    """Keep one vector per +-pair: first nonzero coordinate positive."""
    out = []
    for v, norm in pairs:
        lead = next(c for c in v if c)
        if lead > 0:
            out.append((v, norm))
    return out


@dataclass(frozen=True)
class ShortVectorList:
    """Vectors of norm in (0, bound], lexicographically sorted.

    When `expanded` is False the list holds one representative per
    +-pair (first nonzero coordinate positive); expanded lists carry
    both signs.
    """

    form: GramForm
    bound: int
    vectors: tuple
    expanded: bool

    def __len__(self):
        return len(self.vectors)


def short_vectors(G, bound, *, expand=False):
    """Complete duplicate-free list of vectors with 0 < f(v) <= bound."""
    G = GramForm.of(G)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    pairs = _vectors_up_to(G.matrix, bound)
    if not expand:
        pairs = _canonical(pairs)
    vecs = tuple(sorted(v for v, _ in pairs))
    return ShortVectorList(G, bound, vecs, expand)


def representation_count(G, m):
    """Exact number of integer vectors with f(v) = m."""
    G = GramForm.of(G)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _norm_counts(G.matrix, m)[m]


def fingerprint(G, M):
    """Representation counts (r(1), ..., r(M)) in one enumeration pass."""
    G = GramForm.of(G)
    if M < 1:
        raise ValueError("M must be >= 1")
    return tuple(_norm_counts(G.matrix, M)[1:])


def represents(G, m):
    """Whether f(v) = m has an integer solution; stops at the first one."""
    G = GramForm.of(G)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _walk(G.matrix, m, lambda x, norm: norm == m)


@dataclass(frozen=True)
class AutomorphismSearch:
    """|O(L)|, the image count at each level and the search nodes visited."""

    order: int
    levels: tuple
    nodes: int


def automorphism_search(G, *, dim_limit=8):
    """|O(L)| = #{T : T^t G T = G}, with its level counts and nodes.

    Counted level by level: the group order is the product over k of the
    number of images of the k-th basis vector that are compatible with
    fixing the first k-1 basis vectors and extend to a full automorphism.
    (All extendable prefixes of a given length have equally many
    completions, so the product telescopes to the group order, in any
    basis order.)  The basis is taken in order of increasing norm, by a
    stable sort, so `levels` follow that order.  Candidates are bitsets
    over the pool of vectors whose norm is a diagonal entry; a vector's
    masks are built from the +-half when it first enters a prefix that
    is extended, so vectors of a norm that is the largest diagonal entry
    exactly once never need any.
    """
    return _search(GramForm.of(G), dim_limit)


def automorphism_order(G, *, dim_limit=8):
    """|O(L)|; it runs the search itself, not through automorphism_search,
    so that a per-function profile charges the search to the caller."""
    return _search(GramForm.of(G), dim_limit).order


def _search(G, dim_limit):
    n = G.n
    if n > dim_limit:
        raise DimensionLimit(f"dimension {n} exceeds the limit {dim_limit}")
    perm = sorted(range(n), key=lambda i: G.matrix[i][i])
    gram = tuple(tuple(G.matrix[i][j] for j in perm) for i in perm)
    norms = {gram[t][t] for t in range(n)}
    try:
        pairs = _vectors_up_to(gram, gram[-1][-1])
    except NotPositiveDefinite:
        positive_split(G.matrix)  # names the pivot in the input basis
        raise
    half = [pair for pair in _canonical(pairs) if pair[1] in norms]
    H, vecs = len(half), [v for v, _ in half]
    # the negatives follow the +-half: pool[a + H] = -pool[a]
    pool = vecs + [tuple(-x for x in v) for v in vecs]
    values = {s * gram[t][u] for s in (1, -1) for t in range(n)
              for u in range(t)}
    bucket = dict.fromkeys(norms, 0)
    for w, (_, norm) in enumerate(half):
        bucket[norm] |= 1 << w | 1 << w + H
    masks, nodes = [None] * (2 * H), 0

    def build(a):
        """Masks of pool[a] from the +-half; -pool[a] swaps c and -c."""
        b = a % H
        g, half_masks = mat_vec(gram, vecs[b]), dict.fromkeys(values, 0)
        for w, v in enumerate(vecs):
            p = sum(map(mul, g, v))
            if p in half_masks:
                half_masks[p] |= 1 << w
        masks[b] = {c: m | half_masks[-c] << H for c, m in half_masks.items()}
        masks[b + H] = {c: masks[b][-c] for c in values}
        return masks[a]

    def candidates(prefix):
        """Images of e_t, t = len(prefix), that fit `prefix`, low bit up."""
        row = gram[len(prefix)]
        cand = bucket[row[len(prefix)]]
        for s, a in enumerate(prefix):
            cand &= (masks[a] or build(a))[row[s]]
        while cand:
            low = cand & -cand
            yield low.bit_length() - 1
            cand ^= low

    def complete(prefix):
        """The first extension of `prefix` to the whole basis, or None."""
        nonlocal nodes
        nodes += 1
        if len(prefix) == n:
            return prefix
        for w in candidates(prefix):
            if (res := complete(prefix + [w])) is not None:
                return res
        return None

    fixed = [pool.index(e) for e in identity(n)]
    levels, witnesses = [], []
    for k in range(n):
        found = [res for w in candidates(fixed[:k])
                 if (res := complete(fixed[:k] + [w])) is not None]
        if not found:
            raise AssertionError("identity not found in automorphism search")
        levels.append(len(found))
        witnesses += found[:32 - len(witnesses)]
    # the found extensions really are automorphisms of the form
    for found in witnesses:
        cols = tuple(pool[w] for w in found)  # rows of T^t
        if mat_mul(cols, mat_mul(gram, transpose(cols))) != gram:
            raise AssertionError("witness fails T^t G T = G")
    return AutomorphismSearch(prod(levels), tuple(levels), nodes)


def orthogonal_decompose(G, *, budget=DECOMPOSE_BUDGET):
    """Indecomposable orthogonal summands of a positive definite form.

    Eichler's theorem: the summands are unique, and each indecomposable
    vector (one that is not x + y with (x, y) = 0 and x, y != 0) lies in
    exactly one of them.  v is decomposable exactly when some x with
    f(x) < f(v) has |(x, v)| = f(x), and then v = x + (v - x) up to the
    sign of x.  The summands are the connected components of the
    non-orthogonality graph on the indecomposable vectors of norm up to the
    largest diagonal entry: every basis vector is a sum of indecomposable
    vectors of no larger norm, so the component lattices always sum to the
    whole space, whatever the basis.  Returns the component Gram forms; the
    change of basis joining them is verified unimodular.
    """
    G = GramForm.of(G)
    n = G.n
    gram = G.matrix
    bound = max(gram[i][i] for i in range(n))
    cap = 2 * isqrt(budget)  # more signed vectors: len(pairs) ** 2 > budget
    found = []

    def collect(x, norm):
        found.append((tuple(x), norm))
        return len(found) > cap

    stopped = _walk(gram, bound, collect)
    pairs = _canonical(found)
    if stopped or len(pairs) ** 2 > budget:
        raise BudgetExceeded(
            f"non-orthogonality graph on at least {len(pairs)} vectors "
            f"exceeds budget"
        )
    pairs.sort(key=lambda pair: pair[1])
    gvs = [mat_vec(gram, v) for v, _ in pairs]
    keep = [a for a, (v, norm) in enumerate(pairs)
            if not any(abs(dot(gvs[b], v)) == pairs[b][1]
                       for b in range(a) if pairs[b][1] < norm)]
    reps = [pairs[a][0] for a in keep]
    gvs = [gvs[a] for a in keep]
    parent = list(range(len(reps)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            if dot(gvs[a], reps[b]) != 0:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for a in range(len(reps)):
        groups.setdefault(find(a), []).append(reps[a])
    bases = [column_hermite_form(transpose(comp))
             for comp in sorted(groups.values(), key=min)]
    if sum(len(b[0]) for b in bases) != n:
        raise AssertionError("component lattices do not fill the space")
    joined = tuple(sum((b[i] for b in bases), ()) for i in range(n))
    if abs(determinant(joined)) != 1:
        raise AssertionError("component join is not unimodular")
    return tuple(GramForm(mat_mul(transpose(b), mat_mul(gram, b)))
                 for b in bases)
