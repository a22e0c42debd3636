"""Local densities of quadratic forms and p-adic block decompositions.

The p-density of a form f at an integer m is the stable value of

    #{x in (Z/p^k)^n : f(x) = m mod p^k} / p^(k(n-1))

as k grows.  This module computes it exactly (`local_density`), together
with the archimedean density (`infinity_density`), the sphere-volume
constants (`omega_interval`), interval zeta values (`zeta_interval`), and
the structure results used to organize p-adic computations:
`jordan_decompose_odd` for odd primes and `two_adic_split` at p = 2.
All three p-adic results rest on one valuation sweep (`_valuation_sweep`),
which splits a form over Z_p into pieces of rank <= 2 and their bases:
densities convolve the pieces, the odd-p Jordan form sorts them, and the
2-adic split recombines them into hyperbolic-type blocks and an
anisotropic remainder.

Everything arithmetic is exact: densities are `Fraction`s, archimedean
quantities are certified `Interval`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, groupby, product
from math import factorial
from operator import itemgetter

from .errors import BudgetExceeded
from .exact import determinant, dot, identity, mat_mul, mat_vec, transpose
from .gram import GramForm, orthogonal_sum
from .intervals import (
    Interval,
    acosh_interval,  # noqa: F401  (re-exported for callers of this module)
    pi_interval,
    e_interval,
    pow_half_integer,
    precision_bits,
)


class PrecisionTooLow(ValueError):
    """The working modulus p^K cannot certify the requested decomposition."""


class NoIsotropicVector(ValueError):
    """A form of rank 2 to 4 is anisotropic over Z_2: no block splits off.

    Every unimodular Z_2-form of rank >= 5 is isotropic, so larger forms
    never raise it.
    """


DEFAULT_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# density values


@dataclass(frozen=True)
class DensityValue:
    """Result of a local density computation.

    `value` is exact; `stabilized` records whether two consecutive levels
    agreed before `k` (the last level evaluated); `history` keeps the
    per-level densities for reporting.
    """

    value: Fraction
    p: int
    m: int
    stabilized: bool
    k: int
    method: str
    history: tuple = ()

    def to_json_dict(self):
        return {
            "p": self.p,
            "m": self.m,
            "value": [str(self.value.numerator), str(self.value.denominator)],
            "stabilized_at_k": self.k if self.stabilized else None,
            "method": self.method,
        }


def _is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _legendre(a, p):
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# backend: definitional counting


def _count_enumerate(gram, p, k, m, budget):
    """#{x in (Z/p^k)^n : f(x) = m} by depth-first enumeration."""
    n = len(gram)
    mod = p ** k
    if mod ** n > budget:
        raise BudgetExceeded(
            f"counting mod {p}^{k} in dimension {n} needs {mod ** n} "
            f"evaluations (budget {budget})"
        )
    target = m % mod
    count = 0

    def rec(d, val, lin):
        nonlocal count
        if d == n - 1:
            g = gram[d][d]
            l2 = 2 * lin[d]
            for t in range(mod):
                if (val + g * t * t + l2 * t - target) % mod == 0:
                    count += 1
            return
        row = gram[d]
        for t in range(mod):
            val2 = (val + row[d] * t * t + 2 * t * lin[d]) % mod
            lin2 = tuple(
                (lin[j] + row[j] * t) % mod for j in range(n)
            )
            rec(d + 1, val2, lin2)

    rec(0, 0, (0,) * n)
    return count


# ---------------------------------------------------------------------------
# backend: closed-form counts for unit forms at odd p
#
# Over F_p (p odd) the number of solutions of a nondegenerate quadratic
# form in nu variables is classical:
#   nu even:  N1(m != 0) = p^(nu-1) - eta p^(nu/2-1)
#             N1(0)      = p^(nu-1) + (p-1) eta p^(nu/2-1)
#             with eta = chi((-1)^(nu/2) det)
#   nu odd:   N1(m != 0) = p^(nu-1) + p^((nu-1)/2) chi((-1)^((nu-1)/2) det m)
#             N1(0)      = p^(nu-1)
# For p not dividing det, solutions with x != 0 mod p lift uniquely
# (Hensel), and solutions with x = 0 mod p descend through f(px') = p^2
# f(x'), giving an exact recursion for the count at every level k.


def _unit_count_mod1(nu, det_unit, p, m):
    ch = _legendre
    if nu % 2 == 0:
        eta = ch((-1) ** (nu // 2) * det_unit, p)
        if m % p == 0:
            return p ** (nu - 1) + (p - 1) * eta * p ** (nu // 2 - 1)
        return p ** (nu - 1) - eta * p ** (nu // 2 - 1)
    if m % p == 0:
        return p ** (nu - 1)
    s = ch((-1) ** ((nu - 1) // 2) * det_unit * m, p)
    return p ** (nu - 1) + s * p ** ((nu - 1) // 2)


def _unit_count(nu, det_unit, p, k, m):
    """#{x in (Z/p^k)^nu : g(x) = m} for g a unit form at odd p."""
    if k == 0:
        return 1
    mm = m % (p ** k)
    if mm % p != 0:
        return _unit_count_mod1(nu, det_unit, p, mm) * p ** ((k - 1) * (nu - 1))
    base = (_unit_count_mod1(nu, det_unit, p, 0) - 1) * p ** ((k - 1) * (nu - 1))
    if k == 1:
        return base + 1
    if mm % (p * p) == 0:
        return base + p ** nu * _unit_count(nu, det_unit, p, k - 2, mm // (p * p))
    return base


# ---------------------------------------------------------------------------
# backend: odd p dividing det -- Jordan blocks + convolution


def _cyclic_convolution(vectors, mod):
    """Count vector of a sum mod `mod` from the count vectors of its terms."""
    total = [0] * mod
    total[0] = 1
    for vec in vectors:
        new = [0] * mod
        for a, ca in enumerate(total):
            if ca:
                for b, cb in enumerate(vec):
                    if cb:
                        new[(a + b) % mod] += ca * cb
        total = new
    return total


def _count_jordan_convolution(blocks, p, k, m, budget):
    """Count solutions mod p^k from a Jordan decomposition at odd p.

    `blocks` is a list of (exponent, units) pairs; the form is the
    orthogonal sum of p^e * <u_1, ..., u_r> over the blocks.  Counts per
    block are produced by the unit-form recursion and combined with a
    cyclic convolution over Z/p^k.
    """
    mod = p ** k
    if mod * mod > budget:
        raise BudgetExceeded(
            f"convolution table of size {mod}^2 exceeds budget {budget}"
        )
    vectors = []
    for exp, units in blocks:
        nu = len(units)
        det_unit = 1
        for u in units:
            det_unit = (det_unit * u) % p
        scale = p ** exp
        vec = [0] * mod
        if exp >= k:
            vec[0] = mod ** nu
        else:
            kk = k - exp
            lift = p ** (exp * nu)
            for r0 in range(p ** kk):
                c = _unit_count(nu, det_unit, p, kk, r0)
                if c:
                    vec[(r0 * scale) % mod] = c * lift
        vectors.append(vec)
    return _cyclic_convolution(vectors, mod)[m % mod]


# ---------------------------------------------------------------------------
# the valuation sweep, and at p = 2 the convolution of its pieces


def _frac_mod(q, p, mod):
    """Reduce a Fraction with a p-adic unit denominator modulo mod = p^K."""
    den = q.denominator
    if den % p == 0:
        raise ValueError("denominator not a p-adic unit")
    return (q.numerator * pow(den, -1, mod)) % mod


def _reduce(a, mod):
    """The integer matrix a with every entry reduced modulo mod."""
    return tuple(tuple(x % mod for x in row) for row in a)


def _valuation_sweep(gram, p):
    """Split a nondegenerate symmetric matrix over Z_p, one pivot at a time.

    Each step pivots on a live entry of least p-adic valuation v,
    preferring the first diagonal entry of valuation v.  When only an
    off-diagonal entry (i, j) reaches v, odd p folds e_j into e_i, which
    surfaces a diagonal pivot of valuation exactly v (2 is a unit), and
    p = 2 takes the 2x2 block on (i, j), whose determinant has valuation
    exactly 2v.  The remaining basis vectors are projected off the pivot
    block in exact Fractions; every coefficient is p-integral, so the
    transformation is invertible over Z/p^k and keeps solution counts.

    Yields (v, i, block, basis) per step: the pivot index i, the Gram
    matrix of the piece split off (1x1, or 2x2 at p = 2) and its basis
    vectors in input coordinates, p-integral Fractions, so that
    basis^t G basis = block exactly.  The bases of all steps together form
    a basis of Z_p^n.
    """
    n = len(gram)
    work = [[Fraction(x) for x in row] for row in gram]
    cols = [[Fraction(int(s == t)) for s in range(n)] for t in range(n)]
    live = list(range(n))

    def val(q):
        return _vp(q.numerator, p) - _vp(q.denominator, p)

    while live:
        best = None
        for a, i in enumerate(live):
            for j in live[a:]:
                if work[i][j] and (best is None or val(work[i][j]) < best[0]):
                    best = (val(work[i][j]), i, j)
        if best is None:
            raise ValueError("form is degenerate over Z_p")
        v, i, j = best
        diag = next((t for t in live
                     if work[t][t] and val(work[t][t]) == v), None)
        if diag is not None:
            i, j = diag, None
        elif p != 2:
            for t in live:
                work[t][i] += work[t][j]
            for t in live:
                work[i][t] += work[j][t]
            cols[i] = [a + b for a, b in zip(cols[i], cols[j])]
            assert val(work[i][i]) == v
        pivot = (i,) if j is None or p != 2 else (i, j)
        block = tuple(tuple(work[a][b] for b in pivot) for a in pivot)
        if len(pivot) == 1:
            inv = ((1 / block[0][0],),)
        else:
            (a, b), (_, c) = block
            det = a * c - b * b
            inv = ((c / det, -b / det), (-b / det, a / det))
        live = [t for t in live if t not in pivot]
        coeff = {t: tuple(sum(r[k] * work[q][t] for k, q in enumerate(pivot))
                          for r in inv)
                 for t in live}
        for a, s in enumerate(live):
            ws = [work[q][s] for q in pivot]
            for t in live[a:]:
                new = work[s][t]
                for c, w in zip(coeff[t], ws):
                    if c:
                        new -= c * w
                work[s][t] = work[t][s] = new
        for t in live:
            for c, q in zip(coeff[t], pivot):
                if c:
                    cols[t] = [x - c * y for x, y in zip(cols[t], cols[q])]
        yield v, i, block, tuple(tuple(cols[q]) for q in pivot)


def _piece_count_vector(piece, k):
    """Count vector of a dimension <= 2 piece modulo 2^k."""
    mod = 2 ** k
    vec = [0] * mod
    if len(piece) == 1:
        d = _frac_mod(piece[0][0], 2, mod)
        for x in range(mod):
            vec[(d * x * x) % mod] += 1
    else:
        a, b, c = (_frac_mod(x, 2, mod)
                   for x in (piece[0][0], piece[0][1], piece[1][1]))
        for x in range(mod):
            ax2 = a * x * x
            bx2 = 2 * b * x
            for y in range(mod):
                vec[(ax2 + bx2 * y + c * y * y) % mod] += 1
    return vec


def _count_two_adic(pieces, p, k, m, budget):
    mod = 2 ** k
    if mod * mod * (len(pieces) + 1) > budget:
        raise BudgetExceeded(
            f"2-adic convolution at level {k} exceeds budget {budget}"
        )
    vectors = (_piece_count_vector(piece, k) for piece in pieces)
    return _cyclic_convolution(vectors, mod)[m % mod]


# ---------------------------------------------------------------------------
# the density driver


def local_density(G, p, m, *, k_max=6, method="auto", budget=DEFAULT_BUDGET):
    """Exact p-density of G at m.

    Evaluates the normalized count at successive levels k until two
    consecutive values agree; if that does not happen by `k_max` the last
    value is returned flagged `stabilized=False`.

    `method="count"` forces definitional enumeration (budget permitting).
    `method="auto"` picks an exact structural counter: closed-form unit
    counts at odd p, Jordan-block convolution at odd p dividing det, and
    dimension <= 2 piece convolution at p = 2.  All counters compute the
    same integer counts, so the two methods cross-validate.
    """
    if not isinstance(G, GramForm):
        G = GramForm(G)
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = G.n
    det = G.determinant  # raises on singular input

    tag = method
    if method == "count":
        def counter(k):
            return _count_enumerate(G.matrix, p, k, m, budget)
    elif method == "auto":
        if p % 2 == 1 and det % p != 0:
            tag = "unit-formula"

            def counter(k):
                return _unit_count(n, det % p, p, k, m)
        elif p % 2 == 1:
            tag = "jordan-blocks"
            dec = jordan_decompose_odd(G, p, 2 * _vp(det, p) + 2)
            blocks = [(b.exponent, b.units) for b in dec.blocks]

            def counter(k):
                return _count_jordan_convolution(blocks, p, k, m, budget)
        else:
            tag = "two-adic-pieces"
            pieces = [step[2] for step in _valuation_sweep(G.matrix, 2)]

            def counter(k):
                return _count_two_adic(pieces, p, k, m, budget)
    else:
        raise ValueError(f"unknown method {method!r}")

    history = []
    prev = None
    for k in range(1, k_max + 1):
        cnt = counter(k)
        dk = Fraction(cnt, p ** (k * (n - 1)))
        history.append((k, dk))
        if prev is not None and dk == prev:
            return DensityValue(dk, p, m, True, k, tag, tuple(history))
        prev = dk
    return DensityValue(prev, p, m, False, k_max, tag, tuple(history))


# ---------------------------------------------------------------------------
# Jordan decomposition at odd p


@dataclass(frozen=True)
class JordanBlock:
    """One block p^exponent * <units> of an odd-p Jordan decomposition."""

    exponent: int
    units: tuple


@dataclass(frozen=True)
class JordanDecomposition:
    blocks: tuple
    transform: tuple  # integer matrix mod p^K
    p: int
    bits: int  # the K of the working modulus p^K

    @property
    def scales(self):
        out = []
        for b in self.blocks:
            out.extend([self.p ** b.exponent] * len(b.units))
        return tuple(out)


def jordan_decompose_odd(G, p, K):
    """Diagonalize G over Z_p (p odd) into unit blocks times p-powers.

    Returns blocks sorted by exponent together with an integer transform
    T with T^t G T congruent to the block diagonal mod p^K.  Requires
    p^K to exceed the square of the p-part of det(G); the elimination
    itself is exact, so the requirement is a certification threshold,
    not a numerical one.
    """
    if not isinstance(G, GramForm):
        G = GramForm(G)
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    det = G.determinant
    if K < 2 * _vp(det, p) + 1:
        raise PrecisionTooLow(
            f"p^K must exceed the square of the p-part of det; "
            f"need K >= {2 * _vp(det, p) + 1}, got {K}"
        )
    entries = sorted((v, i, block[0][0] / p ** v, col)
                     for v, i, block, (col,) in _valuation_sweep(G.matrix, p))
    mod = p ** K
    blocks = tuple(
        JordanBlock(v, tuple(_frac_mod(e[2], p, mod) % p ** max(K - v, 1)
                             for e in group))
        for v, group in groupby(entries, key=itemgetter(0)))
    tmat = transpose([[_frac_mod(q, p, mod) for q in e[3]] for e in entries])
    _verify_congruence(G.matrix, tmat, [((p ** b.exponent * u,),)
                                        for b in blocks for u in b.units],
                       mod, "jordan")
    return JordanDecomposition(blocks, tmat, p, K)


def _verify_congruence(gram, tmat, blocks, mod, what):
    """Raise unless T^t G T is the orthogonal sum of `blocks` mod `mod`."""
    expect = orthogonal_sum(*map(GramForm, blocks)).matrix
    got = mat_mul(mat_mul(transpose(tmat), gram), tmat)
    if _reduce(got, mod) != _reduce(expect, mod):
        raise AssertionError(f"{what} congruence failed")


# ---------------------------------------------------------------------------
# 2-adic hyperbolic-block splitting


@dataclass(frozen=True)
class Split2Result:
    blocks: tuple      # tuples ("even"|"odd", 2x2 gram)
    remainder: tuple   # gram of the unsplit part (may be empty)
    transform: tuple   # integer matrix mod 2^K
    bits: int


EVEN_BLOCK = ((0, 1), (1, 0))
ODD_BLOCK = ((0, 1), (1, 1))


def _two_adic_pieces(gram, vectors, mod):
    """The p = 2 sweep pieces of `gram` as (block, vectors) mod `mod`.

    `vectors` holds one input-coordinate vector per coordinate of `gram`;
    each piece's vectors are its sweep basis mapped through them.
    """
    def reduced(rows):
        return tuple(tuple(_frac_mod(q, 2, mod) for q in row) for row in rows)

    return [(reduced(block), _reduce(mat_mul(reduced(basis), vectors), mod))
            for _, _, block, basis in _valuation_sweep(gram, 2)]


def _isotropic_mod8(S):
    """x in {0..3}^r with x^t S x = 0 mod 8 and Sx odd somewhere, or None.

    f mod 8 depends only on x mod 4, so a primitive isotropic vector over
    Z_2 of a unimodular S reduces to one of these 4^r - 1 candidates; they
    are tried in order of support size.
    """
    r = len(S)
    for size in range(1, r + 1):
        for support in combinations(range(r), size):
            for values in product((1, 2, 3), repeat=size):
                x = [0] * r
                for t, c in zip(support, values):
                    x[t] = c
                sx = mat_vec(S, x)
                if dot(x, sx) % 8 == 0 and any(c % 2 for c in sx):
                    return x, sx
    return None


def _odd_root(a, b, c, mod):
    """y with a + b y + c y^2 = 0 mod `mod`, a power of 2, b odd, c even."""
    y = 0
    while g := (a + b * y + c * y * y) % mod:
        y = (y - g * pow(b + 2 * c * y, -1, mod)) % mod
    return y


def two_adic_split(G, K=8):
    """Split off hyperbolic-type blocks from G over Z/2^K.

    G is swept once at p = 2 into orthogonal pieces of rank <= 2, which
    are taken into windows of rank 5 or 6 (or all that is left).  A window
    isotropic over Z_2, as every one of rank >= 5 is (Cassels, Rational
    Quadratic Forms, ch. 4), has x with f(x) = 0 mod 8 and Sx odd at some s;
    x lifted along e_s and paired with e_s spans a block congruent to 2xy
    or 2xy + y^2 mod 2^K.  The window's other basis vectors, less e_s and
    one e_r with x_r odd, are projected off the pair and swept back into
    the pool.  The remainder is what is left when no window splits: the
    anisotropic part, rank <= 4 and unique up to Z_2-isometry
    (Conway-Sloane, SPLAG ch. 15 sec. 7); the block sequence is not
    canonical.  Raises NoIsotropicVector if G has rank 2 to 4 and no block
    splits off.
    """
    if not isinstance(G, GramForm):
        G = GramForm(G)
    if G.determinant % 2 == 0:
        raise ValueError("two_adic_split requires unit 2-adic determinant")
    if K < 3:
        raise PrecisionTooLow("need K >= 3")
    mod = 2 ** K
    pool = _two_adic_pieces(G.matrix, identity(G.n), mod)
    blocks = []
    done = []  # the block pairs, in input coordinates
    remainder = ()
    while pool:
        ranks = accumulate(len(block) for block, _ in pool)
        take = next((k for k, rank in enumerate(ranks, 1) if rank >= 5),
                    len(pool))
        window, pool = pool[:take], pool[take:]
        S = orthogonal_sum(*(GramForm(block) for block, _ in window)).matrix
        vectors = [vec for _, vecs in window for vec in vecs]
        found = _isotropic_mod8(S)
        if found is None:
            if len(S) >= 5:
                raise AssertionError(
                    f"unimodular Z_2-form of rank {len(S)} has no isotropic "
                    f"vector mod 8")
            if len(S) >= 2 and not blocks:
                raise NoIsotropicVector(
                    f"dimension {len(S)} < 5: splitting not guaranteed and no "
                    f"isotropic vector exists mod 8")
            remainder = S
            done += vectors
            break
        v, sv = found
        s = next(t for t, c in enumerate(sv) if c % 2)
        r = next(t for t, c in enumerate(v) if c % 2 and t != s)
        v[s] += 4 * _odd_root(dot(v, sv) // 8, sv[s], 2 * S[s][s], mod // 8)
        gv = mat_vec(S, v)
        # u = c e_s - tau v: (v, u) = 1 and f(u) = c^2 S_ss - 2 tau = eps
        c = pow(gv[s], -1, mod)
        fu = c * c * S[s][s]
        eps, tau = fu % 2, fu // 2
        u = [(c * int(t == s) - tau * x) % mod for t, x in enumerate(v)]
        gu = mat_vec(S, u)
        # e_t - (gu_t - eps gv_t) v - gv_t u is orthogonal to v and u
        rest = _reduce([[int(i == t) - (gu[t] - eps * gv[t]) * v[i]
                         - gv[t] * u[i] for i in range(len(S))]
                        for t in range(len(S)) if t not in (s, r)], mod)
        blocks.append(("odd", ODD_BLOCK) if eps else ("even", EVEN_BLOCK))
        done += mat_mul((v, u), vectors)
        sub = _reduce(mat_mul(mat_mul(rest, S), transpose(rest)), mod)
        pool = _two_adic_pieces(sub, mat_mul(rest, vectors), mod) + pool

    tmat = _reduce(transpose(done), mod)
    _verify_congruence(G.matrix, tmat, [blk for _, blk in blocks]
                       + ([remainder] if remainder else []), mod, "2-adic split")
    # the transform must be invertible over Z/2
    if determinant(_reduce(tmat, 2)) % 2 == 0:
        raise AssertionError("2-adic split transform not unimodular mod 2")
    return Split2Result(tuple(blocks), remainder, tmat, K)


# ---------------------------------------------------------------------------
# archimedean side


def omega_rational_coefficient(n):
    """(c, e) with omega_n = c * pi^e: the unit-ball volume constant."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        return Fraction(1, factorial(n // 2)), n // 2
    M = (n + 1) // 2
    return Fraction(4 ** M * factorial(M), factorial(2 * M)), (n - 1) // 2


def omega_interval(n, bits=None):
    """Certified interval for the volume of the unit n-ball."""
    bits = bits or precision_bits()
    c, e = omega_rational_coefficient(n)
    pi = pi_interval(bits)
    return pi.pow_int(e) * Interval.point(c)


def stirling_omega_upper(n, bits=None):
    """Upper bound for omega_n from Stirling: (1/sqrt(n pi)) (2 pi e / n)^(n/2)."""
    bits = bits or precision_bits()
    pi = pi_interval(bits)
    e = e_interval(bits)
    lead = Interval.point(1) / (Interval.point(n) * pi).sqrt(bits)
    body = pow_half_integer(pi * e * Interval.point(Fraction(2, n)), n, bits)
    return (lead * body).hi


def infinity_density(n, disc, y, bits=None):
    """Certified interval for the archimedean density at y > 0.

    The density of the value distribution of an n-variable positive form
    of discriminant `disc` at level y is (n / (2 sqrt(disc))) omega_n
    y^(n/2 - 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    y = Fraction(y)
    disc = Fraction(disc)
    if y <= 0 or disc <= 0:
        raise ValueError("y and disc must be positive")
    bits = bits or precision_bits()
    lead = Interval.point(Fraction(n, 2)) / Interval.point(disc).sqrt(bits)
    ypow = pow_half_integer(Interval.point(y), n - 2, bits)
    return lead * omega_interval(n, bits) * ypow


def zeta_interval(s, terms=64):
    """Certified rational interval for zeta(s), integer s >= 2.

    Partial sum plus the integral bracket for the tail:
    (N+1)^(1-s)/(s-1) <= tail <= N^(1-s)/(s-1).
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    partial = sum(Fraction(1, j ** s) for j in range(1, terms + 1))
    lo = partial + Fraction(1, (terms + 1) ** (s - 1) * (s - 1))
    hi = partial + Fraction(1, terms ** (s - 1) * (s - 1))
    return Interval(lo, hi)
