"""Local densities of quadratic forms and p-adic block decompositions.

The p-density of a form f at an integer m != 0 is the value of

    #{x in (Z/p^k)^n : f(x) = m mod p^k} / p^(k(n-1))

at any level k >= k0, where k0 = v_p(m) + 1 at odd p and v_2(m) + 3 at
p = 2; the value is constant from k0 on (see `local_density`).  This
module computes it exactly (`local_density`), together
with the archimedean density (`infinity_density`), the sphere-volume
constants (`omega_interval`), interval zeta values (`zeta_interval`), and
the structure results used to organize p-adic computations:
`jordan_decompose_odd` for odd primes and `two_adic_split` at p = 2.
All three p-adic results rest on one valuation sweep,
`exact.congruence_split(gram, p, mod)`, which splits a form over Z_p
into pieces of rank <= 2 and their bases, in integers mod p^K:
densities reduce over the pieces level by level, the odd-p Jordan form
sorts them, and the 2-adic split recombines them into hyperbolic-type
blocks and an anisotropic remainder.

Everything arithmetic is exact: densities are `Fraction`s, archimedean
quantities are certified `Interval`s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, groupby, product
from math import factorial, prod
from operator import itemgetter

from .errors import BudgetExceeded
from .exact import (congruence_split, determinant, dot, identity, mat_mul,
                    mat_vec, transpose, valuation)
from .gram import GramForm, orthogonal_sum
from .intervals import (
    Interval,
    pi_interval,
    e_interval,
    pow_half_integer,
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

    `value` is exact: the normalized count at level `k`, the k0 from which
    the count is proven constant, so `stabilized` is always True.
    """

    value: Fraction
    p: int
    m: int
    stabilized: bool
    k: int
    method: str


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


# ---------------------------------------------------------------------------
# the reduction over the valuation sweep's pieces


def _reduce(a, mod):
    """The integer matrix a with every entry reduced modulo mod."""
    return tuple(tuple(x % mod for x in row) for row in a)


def _sweep_pieces(G, p):
    """The sweep's pieces p^e U, U a unit Gram matrix, as a Counter of
    (e, rank, unit): unit is det U mod p at odd p and U mod 8 at p = 2,
    read from the sweep mod q p^(v_p(det)), q = p or 8."""
    q = 8 if p == 2 else p
    mod = q * p ** valuation(G.determinant, p)
    pieces = Counter()
    for v, _, block, _ in congruence_split(G.matrix, p, mod):
        unit = tuple(tuple(x // p ** v % q for x in row) for row in block)
        pieces[v, len(block), unit if p == 2 else unit[0][0]] += 1
    return pieces


@lru_cache(maxsize=1024)
def _counts_mod8(pieces):
    """#{x mod 8 : f(x) = r mod 8} for r = 0..7, f the sum of `pieces`,
    sorted pairs ((e, U), copies) of the piece 2^e U."""
    total = [1] + [0] * 7
    for (e, unit), copies in pieces:
        one = [0] * 8
        for x in product(range(4), repeat=len(unit)):  # f mod 8 needs x mod 4
            one[2 ** e * dot(x, mat_vec(unit, x)) % 8] += 2 ** len(unit)
        for _ in range(copies):  # convolve mod 8: one[-j] is one[8 - j]
            total = [sum(total[s] * one[r - s] for s in range(8))
                     for r in range(8)]
    return tuple(total)


def _unit_part(pieces, p, m, n, r0):
    """P_d(m): the x mod p^d with f(x) = m and x != 0 mod p on the scale-0
    part, of rank r0 > 0, for f the sum of `pieces` in n variables."""
    if p != 2:
        det = prod(pow(u, c, p) for (e, _, u), c in pieces.items() if e == 0)
        return (_unit_count_mod1(r0, det, p, m) - (m % p == 0)) * p ** (n - r0)
    # even x0 = 2y: f = 4 f0(y) + f1 moves the scale-0 pieces to scale 2,
    # and its count over y mod 8 counts each even x0 mod 8 2^r0 times, as
    # 4 f0(y) mod 8 depends on y mod 2 only
    full, even = (_counts_mod8(tuple(sorted(
        ((min(e, 3) or e0, u), c) for (e, _, u), c in pieces.items())))
        for e0 in (0, 2))
    return full[m % 8] - (even[m % 8] >> r0)


def _reduction_count(pieces, p, k, m, n):
    """#{x mod p^k : f(x) = m} for f the sum of `pieces`, k >= v_p(m) + d."""
    d = 3 if p == 2 else 1
    # scale = p^(n - r0) for each level above, times p^((k - d)(n - 1)) at
    # this level k: a level down multiplies it by p^(n - r0) and divides it
    # by p^(n - 1), exactly, as k - 1 >= d while p divides m
    count, scale = 0, p ** ((k - d) * (n - 1))
    while True:
        r0 = sum(r * c for (e, r, _), c in pieces.items() if e == 0)
        if r0:
            count += scale * _unit_part(pieces, p, m, n, r0)
        if m % p:
            return count
        scale = scale * p ** (n - r0) // p ** (n - 1)
        m, rotated = m // p, Counter()
        for (e, r, u), c in pieces.items():
            rotated[e - 1 if e else 1, r, u] += c
        pieces = rotated


# ---------------------------------------------------------------------------
# the density driver


def _level_density(G, p, m, k, method, budget):
    """(normalized count of G at m mod p^k, method tag), for k >= k0."""
    n, det = G.n, G.determinant
    if method == "count":
        count = _count_enumerate(G.matrix, p, k, m, budget)
    elif method != "auto":
        raise ValueError(f"unknown method {method!r}")
    elif p % 2 and det % p:
        method = "unit-formula"
        count = _reduction_count(Counter({(0, n, det % p): 1}), p, k, m, n)
    else:
        method = "jordan-blocks" if p % 2 else "two-adic-pieces"
        count = _reduction_count(_sweep_pieces(G, p), p, k, m, n)
    return Fraction(count, p ** (k * (n - 1))), method


def local_density(G, p, m, *, k_max=None, method="auto",
                  budget=DEFAULT_BUDGET):
    """Exact p-density of G at m != 0, evaluated at the one level k0.

    k0 = v_p(m) + 1 at odd p and v_2(m) + 3 at p = 2.  Theorem (Siegel,
    Ann. of Math. 36 (1935); T. Yang, J. Number Theory 72 (1998)): the
    normalized count N(p^k)/p^(k(n-1)) is the same at every k >= k0.

    Proof.  By orthogonality of additive characters, grouping t mod p^k
    by gcd(t, p^k) = p^(k-j),

        N(p^k)/p^(k(n-1)) = sum_{j=0..k} A_j,
        A_j = p^(-jn) sum_{t in (Z/p^j)^*} e(-tm/p^j) S_j(t),

    with S_j(t) = sum_{x mod p^j} e(t f(x)/p^j), so A_j does not depend on
    k.  Over Z_p, f is an orthogonal sum of pieces u p^e x^2 and, at
    p = 2, 2^e xy and 2^e (x^2 + xy + y^2), and S_j(t) is the product of
    their Gauss sums.  For t a unit, a 1x1 piece's sum depends on t only
    through the Legendre symbol (t/p) at odd p and through t mod 8 at
    p = 2, and a 2x2 piece's sum not at all.  So S_j(t) depends only on
    t mod p^d, with d = 1 at odd p and d = 3 at p = 2.  For j > d write
    t = t0 + p^d t1; the sum over t1 mod p^(j-d) of e(-t1 m/p^(j-d))
    vanishes unless p^(j-d) divides m.  Hence A_j = 0 for
    j > v_p(m) + d, and the normalized count is constant from
    k0 = v_p(m) + d on.  The Jordan exponents play no part.

    `method="auto"` counts level k0 by one reduction over the sweep's
    pieces p^e U ("jordan-blocks" at odd p, "two-adic-pieces" at p = 2),
    or over the one piece (0, n, det mod p) at odd p not dividing det
    ("unit-formula").  Write f = f0 + f1, f0 the scale-0 pieces in r0
    variables x0, so that f1 = 0 mod p.  For k >= d,

        N(k, m) = P_d(m) p^((k-d)(n-1)) + [p | m] p^(n-r0) N'(k-1, m/p),

    with P_d(m) the solutions of f = m mod p^d with x0 != 0 mod p, and N'
    the count of f' = p f0 + f1/p, whose pieces are rotated: e = 0 becomes
    1 and every other e becomes e - 1.  Proof.  Let x0 != 0 mod p; the
    unit Gram matrix of f0 makes some (G x)_i a unit.  At odd p, Hensel
    lifts each solution mod p^j to p^(n-1) solutions mod p^(j+1).  At
    p = 2, f mod 2^(j+1) depends on x mod 2^j only, and for j >= 3 adding
    2^(j-1) e_i, for the first i with (G x)_i odd, moves f by 2^j mod
    2^(j+1), so that half of the solutions mod 2^j hold mod 2^(j+1):
    again 2^(n-1) per level.  The remaining x are x0 = p y0 with y0 mod
    p^(k-1), and f = p^2 f0(y0) + f1(x1) = m needs p | m and then
    f'(y0, x1) = m/p mod p^(k-1), which depends on x1 mod p^(k-1) only.
    The level stays >= d, so k0 takes v_p(m) + 1 steps.

    `method="count"` enumerates (Z/p^k0)^n within `budget`, which bounds
    that method only, so the two cross-validate.  `k_max` caps k0:
    BudgetExceeded when k0 > k_max.
    """
    G = GramForm.of(G)
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m == 0:
        raise ValueError("the density at m = 0 is not defined by one level")
    k = valuation(m, p) + (3 if p == 2 else 1)
    if k_max is not None and k > k_max:
        raise BudgetExceeded(
            f"the density at p = {p}, m = {m} needs level {k} > k_max {k_max}")
    value, tag = _level_density(G, p, m, k, method, budget)
    return DensityValue(value, p, m, True, k, tag)


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
    p^K to exceed the square of the p-part of det(G), a certification
    threshold, not a numerical one: the sweep runs mod p^(K + v_p(det)),
    where its basis is exact mod p^K and its units mod p^(K - v).
    """
    G = GramForm.of(G)
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    vdet = valuation(G.determinant, p)
    if K < 2 * vdet + 1:
        raise PrecisionTooLow(
            f"p^K must exceed the square of the p-part of det; "
            f"need K >= {2 * vdet + 1}, got {K}"
        )
    mod = p ** K
    entries = sorted((v, i, block[0][0] // p ** v, col) for v, i, block, (col,)
                     in congruence_split(G.matrix, p, mod * p ** vdet))
    blocks = tuple(
        JordanBlock(v, tuple(e[2] % p ** max(K - v, 1) for e in group))
        for v, group in groupby(entries, key=itemgetter(0)))
    tmat = transpose([[q % mod for q in e[3]] for e in entries])
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
    each piece's vectors are its sweep basis mapped through them.  The
    det of `gram` is odd: every pivot has v = 0, and no digit is lost.
    """
    return [(block, _reduce(mat_mul(basis, vectors), mod))
            for _, _, block, basis in congruence_split(gram, 2, mod)]


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
    G = GramForm.of(G)
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
    c, e = omega_rational_coefficient(n)
    pi = pi_interval(bits)
    return pi.pow_int(e) * Interval.point(c)


def stirling_omega_upper(n, bits=None):
    """Upper bound for omega_n from Stirling: (1/sqrt(n pi)) (2 pi e / n)^(n/2)."""
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
