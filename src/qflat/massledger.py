"""Mass-formula truncation checks and the dimension-41 inequality ledger.

`siegel_check` compares the weighted average of representation numbers
over a genus (exact rational) against the truncated density product
(certified interval).  `bounds_ledger_41` machine-verifies the constants
feeding the counting argument in 41 variables, recomputing every claimed
density rather than assuming it.  `prop41_arithmetic` replays the mass
inequality chain in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumeration import representation_count
from .gram import GramForm, hyperbolic_plane, orthogonal_sum
from .intervals import Interval, pow_half_integer
from .localform import (
    infinity_density,
    local_density,
    stirling_omega_upper,
    zeta_interval,
)


class EmptyGenus(Exception):
    """A genus input needs at least one class representative."""


class NonPositiveInput(ValueError):
    """All mass-chain inputs must be positive."""


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


@dataclass(frozen=True)
class GenusInput:
    """Class representatives with their automorphism group orders."""

    forms: tuple
    orders: tuple

    def __post_init__(self):
        if len(self.forms) == 0:
            raise EmptyGenus("no class representatives")
        if len(self.forms) != len(self.orders):
            raise ValueError("forms and orders must have equal length")
        if any(o <= 0 for o in self.orders):
            raise ValueError("automorphism orders must be positive")
        dims = {f.n for f in self.forms}
        if len(dims) != 1:
            raise ValueError("all representatives must share one dimension")

    @property
    def weights(self):
        inv = [Fraction(1, o) for o in self.orders]
        total = sum(inv)
        return tuple(w / total for w in inv)


@dataclass(frozen=True)
class SiegelRhs:
    """Truncated density product: epsilon * D_inf * prod_{p<=B} D_p."""

    interval: Interval
    epsilon: Fraction
    prime_bound: int
    local_product: Fraction
    archimedean: Interval
    truncated: bool
    unstabilized_primes: tuple


def siegel_rhs(G, m, prime_bound=10_000, *, bits=None, k_max=6,
               budget=None):
    """Certified interval for the truncated representation-density product.

    The Euler product stops at `prime_bound`; the tail is reported as a
    truncation, not bounded.
    """
    if not isinstance(G, GramForm):
        G = GramForm(G)
    if m < 1:
        raise ValueError("m must be >= 1")
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    n = G.n
    eps = Fraction(1, 2) if n == 2 else Fraction(1)
    kwargs = {"k_max": k_max}
    if budget is not None:
        kwargs["budget"] = budget
    prod = Fraction(1)
    loose = []
    for p in _primes_up_to(prime_bound):
        d = local_density(G, p, m, **kwargs)
        if not d.stabilized:
            loose.append(p)
        prod *= d.value
    arch = infinity_density(n, abs(G.determinant), Fraction(m), bits=bits)
    total = arch * Interval(eps * prod)
    return SiegelRhs(total, eps, prime_bound, prod, arch, True, tuple(loose))


@dataclass(frozen=True)
class MassLedger:
    """One mass-formula comparison: exact left side, interval right side."""

    genus: GenusInput
    m: int
    weights: tuple
    counts: tuple
    lhs: Fraction
    rhs: SiegelRhs
    tol: Fraction
    passed: bool

    def to_json_dict(self):
        return {
            "check": "mass-formula",
            "m": self.m,
            "lhs": [str(self.lhs.numerator), str(self.lhs.denominator)],
            "interval": [str(self.rhs.interval.lo), str(self.rhs.interval.hi)],
            "prime_bound": self.rhs.prime_bound,
            "tol": str(self.tol),
            "pass": self.passed,
        }


def siegel_check(genus, m, prime_bound=10_000, tol=Fraction(1, 50), *,
                 bits=None):
    """Weighted representation average vs truncated density product.

    The left side is exact; PASS means the whole right-side interval lies
    within relative `tol` of it.
    """
    if not isinstance(genus, GenusInput):
        raise TypeError("genus must be a GenusInput")
    tol = Fraction(tol)
    weights = genus.weights
    counts = tuple(representation_count(f, m) for f in genus.forms)
    lhs = sum(w * c for w, c in zip(weights, counts))
    rhs = siegel_rhs(genus.forms[0], m, prime_bound, bits=bits)
    lo_ok = rhs.interval.lo >= lhs * (1 - tol)
    hi_ok = rhs.interval.hi <= lhs * (1 + tol)
    return MassLedger(genus, m, weights, counts, lhs, rhs, tol,
                      bool(lhs > 0 and lo_ok and hi_ok))


# ---------------------------------------------------------------------------
# the dimension-41 bounds ledger


@dataclass(frozen=True)
class LedgerItem:
    name: str
    passed: bool
    detail: dict

    def to_json_dict(self):
        out = {"check": self.name, "pass": self.passed}
        out.update(self.detail)
        return out


@dataclass(frozen=True)
class Ledger41Report:
    items: tuple

    def item(self, name):
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    @property
    def bounds_passed(self):
        """All inequality checks that the counting argument consumes."""
        return all(
            it.passed for it in self.items if it.name != "two-adic-claim"
        )


def _fmt(x):
    if isinstance(x, Interval):
        return [str(x.lo), str(x.hi)]
    return str(x)


def bounds_ledger_41(*, bits=None, euler_bound=100):
    """Certified checks behind the 41-variable density bound.

    (a) the odd-prime factor prod_{p odd} (1-p^-4)/(1-p^-3), evaluated
        both as 14*zeta(3)/(15*zeta(4)) and as a bracketed finite Euler
        product, lies in [1.03, 1.04] and under 11/10;
    (b) the density of 2*x1*x2 at p = 2, recomputed by counting for
        m = 1..10: the received claim pins it to 2 for even m, but the
        count gives the 2-adic valuation of m, so the claim fails and is
        reported failed; the corrected ingredient -- the 2-adic density
        at m = 2 of the actual 41-variable local form (twenty hyperbolic
        planes plus a single <2>) -- is computed exactly and checked
        against the same bound 2;
    (c) the archimedean density at n = 41, disc 2, y = 2 is at most 1/50
        by the exact volume formula and by the Stirling overestimate;
    (d) the assembled product of the three bounds stays under 1/20, both
        with the claimed two-adic constant and with the corrected
        computed value.
    """
    z3 = zeta_interval(3, terms=128)
    z4 = zeta_interval(4, terms=128)
    ratio = z3 * Interval(Fraction(14)) / (z4 * Interval(Fraction(15)))
    euler = Interval(Fraction(1))
    for p in _primes_up_to(euler_bound):
        if p == 2:
            continue
        q = Fraction(p)
        euler = euler * Interval(
            (1 - q ** -4) / (1 - q ** -3))
    # remaining factors each lie in (1, 1 + 2p^-3); the sum of 2p^-3 over
    # p > B is below B^-2 and exp(S) <= 1 + 2S for S <= 1/2
    tail = Interval(Fraction(1), 1 + 2 * Fraction(1, euler_bound) ** 2)
    euler = euler * tail
    a_pass = (ratio.hi <= Fraction(11, 10)
              and Fraction(103, 100) <= ratio.lo
              and ratio.hi <= Fraction(104, 100)
              and max(ratio.lo, euler.lo) <= min(ratio.hi, euler.hi))
    item_a = LedgerItem(
        "odd-prime-factor", bool(a_pass),
        {
            "interval": _fmt(ratio),
            "euler_bracket": _fmt(euler),
            "bound": "11/10",
            "window": ["103/100", "104/100"],
        },
    )

    h = hyperbolic_plane()
    table = {}
    claim_ok = True
    for m in range(1, 11):
        d = local_density(h, 2, m, k_max=10)
        table[m] = d.value
        want = Fraction(2) if m % 2 == 0 else Fraction(0)
        if d.value != want:
            claim_ok = False
    item_b_claim = LedgerItem(
        "two-adic-claim", bool(claim_ok),
        {
            "claimed": {str(m): "2" if m % 2 == 0 else "0"
                        for m in range(1, 11)},
            "computed": {str(m): str(table[m]) for m in range(1, 11)},
            "note": "computed value at even m is the 2-adic valuation of m",
        },
    )
    local41 = orthogonal_sum(*([h] * 20 + [GramForm(((2,),))]))
    d41 = local_density(local41, 2, 2, k_max=8)
    b_bound = Fraction(2)
    item_b = LedgerItem(
        "two-adic-factor", bool(d41.stabilized and d41.value <= b_bound),
        {
            "value": str(d41.value),
            "bound": str(b_bound),
            "stabilized_at_k": d41.k,
            "form": "20 hyperbolic planes + <2>",
        },
    )

    arch = infinity_density(41, 2, Fraction(2), bits=bits)
    omega_hi = stirling_omega_upper(41, bits=bits)
    # the same density with omega replaced by its Stirling overestimate:
    # (n/2) * disc^(-1/2) * omega_n * y^(n/2 - 1) at n=41, disc=y=2
    y_pow = pow_half_integer(Interval(Fraction(2)), 39, bits)
    rdisc = Interval(Fraction(2)).sqrt(bits)
    stirling_route = Fraction(41, 2) * omega_hi * y_pow.hi / rdisc.lo
    c_bound = Fraction(1, 50)
    item_c = LedgerItem(
        "archimedean", bool(arch.hi <= c_bound and stirling_route <= c_bound),
        {
            "interval": _fmt(arch),
            "stirling_upper": str(stirling_route),
            "bound": "1/50",
        },
    )

    claimed_product = ratio.hi * b_bound * arch.hi
    computed_product = ratio.hi * d41.value * arch.hi
    d_bound = Fraction(1, 20)
    item_d = LedgerItem(
        "combined", bool(claimed_product <= d_bound
                         and computed_product <= d_bound),
        {
            "with_claimed_two_adic": str(claimed_product),
            "with_computed_two_adic": str(computed_product),
            "bound": "1/20",
        },
    )
    return Ledger41Report((item_a, item_b_claim, item_b, item_c, item_d))


# ---------------------------------------------------------------------------
# the mass-chain arithmetic


@dataclass(frozen=True)
class Prop41Report:
    king_mass: Fraction
    e8_order: int
    e8_r2: int
    ct_bound: Fraction
    m1: Fraction
    m1_floor: Fraction
    m1_ok: bool
    paper_low: Fraction
    paper_low_ok: bool
    m3_floor: Fraction
    s_exact: Fraction
    s_paper: int
    s_sharp: int

    def lines(self):
        r = self.e8_r2 + 2
        return [
            f"M1 = king/(2*|O(e8)|) = {self.m1}",
            f"M1 >= {self.m1_floor}: {'PASS' if self.m1_ok else 'FAIL'}",
            f"classes with r(2) >= {r} put {r}*M1 + 2*M2 under the "
            f"average bound {self.ct_bound}",
            f"{r - 1}*M1 >= {self.paper_low}: "
            f"{'PASS' if self.paper_low_ok else 'FAIL'}",
            f"M3 >= {r - 1}*M1/({self.ct_bound}) = {self.m3_floor}",
            f"s >= 2*M3 >= {self.s_exact} (exact), so s >= {self.s_sharp}",
            f"s >= {self.s_paper}",
        ]

    def to_json_dict(self):
        return {
            "check": "mass-chain",
            "m1": [str(self.m1.numerator), str(self.m1.denominator)],
            "m1_bound": str(self.m1_floor),
            "pass": self.m1_ok and self.paper_low_ok,
            "s_paper": self.s_paper,
            "s_sharp": self.s_sharp,
        }


def prop41_arithmetic(king_mass=Fraction(10968923, 2), e8_order=696729600,
                      e8_r2=240, ct_bound=Fraction(1, 20)):
    """Replay of the genus mass chain in exact rationals.

    M1 is the mass of the classes whose forms contain the e8-block
    summand, king_mass/(2*e8_order); those classes represent 2 at least
    e8_r2 + 2 times.  Averaging against ct_bound forces the mass M3 of
    the remaining classes up, and each class contributes at most 1/2 to
    a mass, so the class count s is at least 2*M3.  Reported: the
    received rounding chain (s_paper) and the sharp exact bound
    (s_sharp).
    """
    king_mass = Fraction(king_mass)
    ct_bound = Fraction(ct_bound)
    if king_mass <= 0 or e8_order <= 0 or e8_r2 <= 0 or ct_bound <= 0:
        raise NonPositiveInput("all chain inputs must be positive")
    m1 = king_mass / (2 * e8_order)
    m1_floor = Fraction(3, 1000)
    r = e8_r2 + 2
    paper_low = Fraction(7, 10)
    m3_floor = (r - 1) * m1 / ct_bound
    s_exact = 2 * m3_floor
    s_sharp = -((-s_exact.numerator) // s_exact.denominator)
    paper_m3 = paper_low / ct_bound
    paper_s = 2 * paper_m3
    s_paper = -((-paper_s.numerator) // paper_s.denominator)
    return Prop41Report(
        king_mass, e8_order, e8_r2, ct_bound,
        m1, m1_floor, m1 >= m1_floor,
        paper_low, (r - 1) * m1 >= paper_low,
        m3_floor, s_exact, s_paper, s_sharp,
    )
