"""Independent oracle for the qflat benchmark.

Nothing here imports qflat: every expected value is recomputed from
closed forms or by the oracle's own integer arithmetic, so a defect in
the library cannot bless itself.

- representation counts: theta-series closed forms (240*sigma_3 for E8,
  Jacobi's four- and eight-square formulas, the Eisenstein-type formula
  for A2) and, for Z^n, convolution of one-variable square counts;
- automorphism orders: the published group orders;
- local densities: a direct count of solutions mod p^K at a level K past
  which Hensel lifting is uniform (see `hensel_level`);
- lattice invariants: determinantal divisors, integrality and index
  checks in integer arithmetic.

`self_check` compares the oracle against published values before any
benchmark result is judged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd

# ---------------------------------------------------------------------------
# integer helpers


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def det(rows):
    """Exact determinant of a square matrix with int or Fraction entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return out.numerator if out.denominator == 1 else out


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(rows):
    """Exact inverse (Fractions) by Gauss-Jordan elimination."""
    n = len(rows)
    w = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if w[i][k] != 0)
        w[k], w[piv] = w[piv], w[k]
        d = w[k][k]
        w[k] = [x / d for x in w[k]]
        for i in range(n):
            if i != k and w[i][k]:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return [row[n:] for row in w]


def is_integral(rows):
    return all(Fraction(x).denominator == 1 for row in rows for x in row)


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n + 1) if sieve[p]]


def prime_factors(n):
    n, out, f = abs(n), [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# theta series


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def r_e8(m):
    """Vectors of norm m in E8 (Gram diagonal 2): 240 sigma_3(m/2)."""
    if m == 0:
        return 1
    return 240 * sigma(3, m // 2) if m % 2 == 0 else 0


def r4_jacobi(m):
    """Jacobi: r_4(m) = 8 * sum of divisors of m not divisible by 4."""
    if m == 0:
        return 1
    return 8 * sum(d for d in range(1, m + 1) if m % d == 0 and d % 4)


def r8_jacobi(m):
    """Jacobi: r_8(m) = 16 * sum_{d | m} (-1)^(m+d) d^3."""
    if m == 0:
        return 1
    return 16 * sum((-1) ** (m + d) * d ** 3
                    for d in range(1, m + 1) if m % d == 0)


def _chi_minus3(d):
    return (0, 1, -1)[d % 3]


def r_a2(m):
    """Vectors of norm m in A2 (Gram [[2,-1],[-1,2]]): 6 sum_{d | m/2} chi_-3(d)."""
    if m == 0:
        return 1
    if m % 2:
        return 0
    k = m // 2
    return 6 * sum(_chi_minus3(d) for d in range(1, k + 1) if k % d == 0)


def _convolve(a, b, top):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 1)]


@lru_cache(maxsize=None)
def theta(name, top):
    """Coefficients r(0..top) of a named lattice's theta series."""
    if name == "E8":
        return tuple(r_e8(m) for m in range(top + 1))
    if name == "D4":
        return tuple(r4_jacobi(m) if m % 2 == 0 else 0
                     for m in range(top + 1))
    if name == "A2A2":
        a2 = [r_a2(m) for m in range(top + 1)]
        return tuple(_convolve(a2, a2, top))
    if name.startswith("Z"):
        one = [0] * (top + 1)
        one[0] = 1
        x = 1
        while x * x <= top:
            one[x * x] = 2
            x += 1
        out = [1] + [0] * top
        for _ in range(int(name[1:])):
            out = _convolve(out, one, top)
        return tuple(out)
    raise KeyError(name)


E8_GRAM = tuple(tuple(2 if i == j else -int((min(i, j), max(i, j)) in (
    (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))) for j in range(8))
    for i in range(8))

AUT_ORDER = {"E8": 696729600, "D4": 1152, "A2A2": 288}


def aut_order(name):
    if name.startswith("Z"):
        n = int(name[1:])
        return 2 ** n * factorial(n)
    return AUT_ORDER[name]


# ---------------------------------------------------------------------------
# local densities


class TooExpensive(Exception):
    """The direct count would exceed the oracle's budget."""


COUNT_BUDGET = 1 << 22


def hensel_level(p, m, T):
    """A level K from which the normalized count mod p^K no longer moves.

    With f(x) = x^T G x the gradient is 2Gx.  For primitive x,
    adj(G) 2Gx = 2 det(G) x gives t = v_p(2Gx) <= T = v_p(2 det G), and a
    solution with gradient valuation t lifts uniformly once k >= 2t + 1,
    so the primitive part is constant from 2T + 1 on.  Solutions x = p y
    exist for k >= 2 only when p^2 | m, and contribute
    p^(2-n) * density(m / p^2) evaluated two levels lower.
    """
    base = max(2 * T + 1, 2)
    if m % (p * p) == 0 and m != 0:
        return max(base, hensel_level(p, m // (p * p), T) + 2)
    return base


def blocks(gram):
    """Index sets of the orthogonal blocks of a Gram matrix."""
    n = len(gram)
    seen, out = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, todo = [], [s]
        seen.add(s)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and gram[i][j]:
                    seen.add(j)
                    todo.append(j)
        out.append(sorted(comp))
    return out


@lru_cache(maxsize=None)
def _block_counts(block, mod):
    """{r: #{x in (Z/mod)^d : x^T B x = r mod mod}} by direct count, d <= 2."""
    d = len(block)
    if d > 2 or mod ** d > COUNT_BUDGET:
        raise TooExpensive(f"{mod}^{d} points")
    counts = {}
    if d == 1:
        a = block[0][0]
        for x in range(mod):
            r = a * x * x % mod
            counts[r] = counts.get(r, 0) + 1
        return counts
    (a, b), (_, c) = block
    cy = [c * y * y for y in range(mod)]
    for x in range(mod):
        ax, bx = a * x * x, 2 * b * x
        for y in range(mod):
            r = (ax + bx * y + cy[y]) % mod
            counts[r] = counts.get(r, 0) + 1
    return counts
    raise TooExpensive(f"block of rank {d}")


def count_mod(gram, p, K, m):
    """#{x in (Z/p^K)^n : x^T G x = m mod p^K}."""
    return _value_counts(tuple(tuple(r) for r in gram), p ** K).get(m % p ** K, 0)


@lru_cache(maxsize=256)
def _value_counts(gram, mod):
    """{r: #{x in (Z/mod)^n : x^T G x = r}}, convolved block by block."""
    total = {0: 1}
    for idx in blocks(gram):
        block = tuple(tuple(gram[i][j] % mod for j in idx) for i in idx)
        vec = _block_counts(block, mod)
        if len(total) * len(vec) > COUNT_BUDGET:
            raise TooExpensive("convolution")
        new = {}
        for a, ca in total.items():
            for b, cb in vec.items():
                r = (a + b) % mod
                new[r] = new.get(r, 0) + ca * cb
        total = new
    return total


def hyperbolic_2adic_density(k, m):
    """Density at 2 of 2(x1 y1 + ... + xk yk) at m.

    The values are 2 m' with m' a value of B = x1 y1 + ... + xk yk, and
    counting mod 2^K gives density(2m') = 2 density_B(m'), where the
    hyperbolic space B has density (1 - p^-k) sum_{j <= v_p(m')} p^(j(1-k)).
    """
    if m % 2:
        return Fraction(0)
    v = vp(m // 2, 2)
    return 2 * (1 - Fraction(1, 2 ** k)) * sum(
        Fraction(1, 2 ** (j * (k - 1))) for j in range(v + 1))


def local_density(gram, p, m):
    """(density, level) with the density proven stable at that level.

    Two classification theorems keep the count small without touching
    the library's splitters: at odd p not dividing det, G is Z_p-equivalent
    to diag(1, ..., 1, det); at p = 2 an even unimodular G of rank 2k with
    det = (-1)^k is Z_2-equivalent to k hyperbolic planes.
    """
    n = len(gram)
    d = det(gram)
    K = hensel_level(p, m, vp(2 * d, p))
    if p == 2 and n % 2 == 0 and d == (-1) ** (n // 2) and all(
            gram[i][i] % 2 == 0 for i in range(n)):
        return hyperbolic_2adic_density(n // 2, m), K
    if p != 2 and d % p:
        gram = [[(d if i == n - 1 else 1) if i == j else 0
                 for j in range(n)] for i in range(n)]
    return Fraction(count_mod(gram, p, K, m), p ** (K * (n - 1))), K


def good_prime_density(n, d, p, m):
    """Density at p not dividing 2*m*det for a form of rank n, det d.

    Classical count over F_p lifted by Hensel: 1 - chi p^(-n/2) with
    chi = ((-1)^(n/2) d / p) for even n; 1 + chi p^((1-n)/2) with
    chi = ((-1)^((n-1)/2) d m / p) for odd n.
    """
    if n % 2 == 0:
        chi = legendre((-1) ** (n // 2) * d, p)
        return Fraction(p ** (n // 2) - chi, p ** (n // 2))
    chi = legendre((-1) ** ((n - 1) // 2) * d * m, p)
    h = p ** ((n - 1) // 2)
    return Fraction(h + chi, h)


def euler_product(gram, m, bound):
    """Exact product of the local densities over primes p <= bound.

    Returns (numerator, denominator) unreduced: the good-prime factors
    are multiplied as integers in a product tree, which avoids a gcd per
    prime.
    """
    n, d = len(gram), det(gram)
    bad = set(prime_factors(2 * m * d))
    nums, dens = [], []
    for p in primes_up_to(bound):
        f = (local_density(gram, p, m)[0] if p in bad
             else good_prime_density(n, d, p, m))
        nums.append(f.numerator)
        dens.append(f.denominator)
    return _tree_product(nums), _tree_product(dens)


def _tree_product(xs):
    xs = list(xs) or [1]
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] if i + 1 < len(xs) else xs[i]
              for i in range(0, len(xs), 2)]
    return xs[0]


# ---------------------------------------------------------------------------
# lattice invariants


def invariant_factors(gram):
    """Smith invariants of an integer matrix from determinantal divisors."""
    n = len(gram)
    out, prev = [], 1
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[gram[i][j] for j in cols] for i in rows]))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g // prev if prev else 0)
        prev = g
    return out


def squarefree(n):
    return all(n % (p * p) for p in prime_factors(n)) if n else False


# ---------------------------------------------------------------------------
# self-check against published values

# OEIS A004018 (x^2+y^2), A005875 (three squares), A004016 (x^2+xy+y^2),
# A004009 (E8 theta), A000118 (four squares), A000143 (eight squares)
PUBLISHED = {
    "r2": (1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8, 0, 0, 8, 0, 0, 4, 8, 4, 0, 8),
    "r3": (1, 6, 12, 8, 6, 24, 24, 0, 12, 30, 24, 24, 8, 24, 48, 0, 6, 48,
           36, 24, 24),
    "hex": (1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0, 0, 6, 12, 0, 0, 6, 0, 0, 12,
            0),
    "e8": (1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400, 181680,
           272160),
    "r4": (1, 8, 24, 32, 24, 48, 96, 64, 24, 104, 144),
    "r8": (1, 16, 112, 448, 1136, 2016, 3136, 5504, 9328, 12112, 14112),
}

# Siegel's formula for a one-class genus, r(m) = dens_inf * prod_p dens_p,
# ties the oracle's densities to the published theta series above:
# (name, Gram, m values, archimedean factor as a float of m, exact r(m))
_PI = 3.141592653589793
SIEGEL_CASES = (
    ("Z4", [[int(i == j) for j in range(4)] for i in range(4)],
     (1, 2, 3, 4, 6, 8, 12), lambda m: _PI ** 2 * m, r4_jacobi),
    ("Z8", [[int(i == j) for j in range(8)] for i in range(8)],
     (1, 2, 4, 8), lambda m: _PI ** 4 * m ** 3 / 6, r8_jacobi),
    ("E8", E8_GRAM, (2, 4, 6), lambda m: _PI ** 4 * m ** 3 / 6, r_e8),
)


def self_check():
    """Return a list of disagreements with published values (empty = ok)."""
    bad = []
    top = 20
    if theta("Z2", top) != PUBLISHED["r2"]:
        bad.append("r2 convolution")
    if theta("Z3", top) != PUBLISHED["r3"]:
        bad.append("r3 convolution")
    hexa = tuple(r_a2(2 * k) for k in range(top + 1))
    if hexa != PUBLISHED["hex"]:
        bad.append("A2 closed form")
    if tuple(r_e8(2 * k) for k in range(11)) != PUBLISHED["e8"]:
        bad.append("E8 theta")
    if tuple(r4_jacobi(m) for m in range(11)) != PUBLISHED["r4"]:
        bad.append("Jacobi r4")
    if tuple(r8_jacobi(m) for m in range(11)) != PUBLISHED["r8"]:
        bad.append("Jacobi r8")
    if theta("Z4", 40) != tuple(r4_jacobi(m) for m in range(41)):
        bad.append("r4 convolution vs Jacobi")
    if theta("Z8", 30) != tuple(r8_jacobi(m) for m in range(31)):
        bad.append("r8 convolution vs Jacobi")
    if aut_order("Z3") != 48 or aut_order("E8") != 696729600:
        bad.append("group orders")
    for name, gram, ms, arch, exact_count in SIEGEL_CASES:
        for m in ms:
            num, den = euler_product(gram, m, 2000)
            approx = arch(m) * (num / den)
            if abs(approx - exact_count(m)) > 0.01 * exact_count(m):
                bad.append(f"Siegel product {name} r({m}) = {approx:.3f}")
    for k in (1, 2, 3):
        hk = [[int(abs(i - j) == 1 and min(i, j) % 2 == 0) for j in range(2 * k)]
              for i in range(2 * k)]
        for m in (2, 4, 6, 8, 16):
            K = hensel_level(2, m, 1)
            count = Fraction(count_mod(hk, 2, K, m), 2 ** (K * (2 * k - 1)))
            if count != hyperbolic_2adic_density(k, m):
                bad.append(f"hyperbolic density k={k} m={m}")
    # the count is already stable at the Hensel level
    for gram, p, m in ((((1, 0), (0, 1)), 2, 2), (((1, 1), (1, 3)), 2, 4),
                       (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2, 4),
                       (((2, 1), (1, 2)), 3, 9)):
        got, K = local_density(gram, p, m)
        again = Fraction(count_mod(gram, p, K + 1, m),
                         p ** ((K + 1) * (len(gram) - 1)))
        if got != again:
            bad.append(f"density {gram} p={p} m={m} moves past level {K}")
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            g = [[1, 0], [0, d]]
            if p != d and d % p:
                want = good_prime_density(2, d, p, 1)
                if local_density(g, p, 1)[0] != want:
                    bad.append(f"good prime formula p={p} d={d}")
    return bad
