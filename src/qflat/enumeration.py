"""Short-vector enumeration for positive definite forms.

Provides complete vector lists below a norm bound, exact representation
counts r(m), a represents-m predicate, the order of the integral
automorphism group, orthogonal decomposition into indecomposable blocks,
and representation fingerprints (r(1), ..., r(M)).

All search is exact: coordinate brackets come from the rational Cholesky
splitting of the Gram matrix, scaled so that every partial sum is an
integer, so no vector is missed and none is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import BudgetExceeded
from .exact import (
    NotPositiveDefinite,  # noqa: F401  (part of this module's surface)
    column_hermite_form,
    common_denominator,
    determinant,
    dot,
    identity,
    mat_mul,
    mat_vec,
    rational_cholesky,
    transpose,
)
from .gram import GramForm


class DimensionLimit(ValueError):
    """Dimension exceeds the configured automorphism-search limit."""


DECOMPOSE_BUDGET = 4_000_000


def _as_form(G) -> GramForm:
    return G if isinstance(G, GramForm) else GramForm(G)


def _walk(gram, bound, visit):
    """Visit every nonzero integer vector with f(v) <= bound, both signs.

    Calls visit(x, norm) with the coordinate list x (reused between
    calls) and stops the walk as soon as visit returns a true value;
    returns whether it stopped early.  Coordinates are fixed from the
    last to the first; at each level the admissible integers form a
    contiguous range around the real minimum of the quadratic, so
    scanning outward and stopping at the first violation is exhaustive.

    The split f(x) = sum_i d_i (x_i + c_i)^2 runs on integers: with den_i
    the common denominator of row i of u and S one clearing every
    d_i / den_i^2, S f(x) = sum_i w_i (den_i x_i + den_i c_i)^2.
    """
    d, u = rational_cholesky(gram)
    n = len(d)
    den = [common_denominator(u[i][i + 1:]) for i in range(n)]
    scale = common_denominator(d[i] / den[i] ** 2 for i in range(n))
    w = [int(scale * d[i] / den[i] ** 2) for i in range(n)]
    rows = [[int(den[i] * u[i][j]) for j in range(n)] for i in range(n)]
    x = [0] * n

    def walk(i, remaining):
        if i < 0:
            return any(x) and visit(x, bound - remaining // scale)
        row, di, wi = rows[i], den[i], w[i]
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
    G = _as_form(G)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    pairs = _vectors_up_to(G.matrix, bound)
    if not expand:
        pairs = _canonical(pairs)
    vecs = tuple(sorted(v for v, _ in pairs))
    return ShortVectorList(G, bound, vecs, expand)


def representation_count(G, m):
    """Exact number of integer vectors with f(v) = m."""
    G = _as_form(G)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _norm_counts(G.matrix, m)[m]


def fingerprint(G, M):
    """Representation counts (r(1), ..., r(M)) in one enumeration pass."""
    G = _as_form(G)
    if M < 1:
        raise ValueError("M must be >= 1")
    return tuple(_norm_counts(G.matrix, M)[1:])


def represents(G, m):
    """Whether f(v) = m has an integer solution; stops at the first one."""
    G = _as_form(G)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _walk(G.matrix, m, lambda x, norm: norm == m)


def automorphism_order(G, *, dim_limit=8):
    """Order of the integral automorphism group {T : T^t G T = G}.

    Counted level by level: the group order is the product over k of the
    number of images of the k-th basis vector that are compatible with
    fixing the first k-1 basis vectors and extend to a full automorphism.
    (All extendable prefixes of a given length have equally many
    completions, so the product telescopes to the group order.)
    """
    G = _as_form(G)
    n = G.n
    if n > dim_limit:
        raise DimensionLimit(f"dimension {n} exceeds the limit {dim_limit}")
    gram = G.matrix
    bound = max(gram[i][i] for i in range(n))
    diag_norms = {gram[t][t] for t in range(n)}
    pool = []
    by_norm = {}
    for v, norm in _vectors_up_to(gram, bound):
        if norm in diag_norms:
            by_norm.setdefault(norm, []).append(len(pool))
            pool.append(v)
    gv = [mat_vec(gram, v) for v in pool]
    # pairwise inner products; constraints inside the search become O(1)
    table = [[dot(gv[a], pool[b]) for b in range(len(pool))]
             for a in range(len(pool))]
    buckets = {norm: tuple(ids) for norm, ids in by_norm.items()}

    def complete(prefix, fixed):
        """Extend images of basis vectors `fixed`.. (pool indices).

        The first `fixed` basis vectors are fixed pointwise and are not
        carried in `prefix`.
        """
        t = fixed + len(prefix)
        if t == n:
            return prefix
        for w in buckets.get(gram[t][t], ()):
            ok = True
            for s in range(fixed):
                if gv[w][s] != gram[t][s]:
                    ok = False
                    break
            if ok:
                for s in range(fixed, t):
                    if table[w][prefix[s - fixed]] != gram[t][s]:
                        ok = False
                        break
            if ok:
                res = complete(prefix + [w], fixed)
                if res is not None:
                    return res
        return None

    order = 1
    witnesses = []
    for k in range(n):
        level = 0
        for w in buckets.get(gram[k][k], ()):
            if any(gv[w][s] != gram[k][s] for s in range(k)):
                continue
            found = complete([w], k)
            if found is not None:
                level += 1
                if len(witnesses) < 32:
                    witnesses.append((k, found))
        if level == 0:
            raise AssertionError("identity not found in automorphism search")
        order *= level
    # the found extensions really are automorphisms of the form
    for k, tail in witnesses:
        cols = identity(n)[:k] + tuple(pool[w] for w in tail)  # rows of T^t
        if mat_mul(cols, mat_mul(gram, transpose(cols))) != gram:
            raise AssertionError("witness fails T^t G T = G")
    return order


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
    G = _as_form(G)
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
