"""Tests for mass-formula checks and the dimension-41 bounds ledger."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflat.exact import determinant
from qflat.gram import GramForm, e8_form, hyperbolic_plane, identity_form
from qflat.intervals import Interval
from qflat.localform import infinity_density, local_density
from qflat.massledger import (
    EmptyGenus,
    _primes_up_to,
    GenusInput,
    NonPositiveInput,
    bounds_ledger_41,
    prop41_arithmetic,
    siegel_check,
    siegel_rhs,
)


def test_weights_example():
    genus = GenusInput((identity_form(2), identity_form(2)), (4, 8))
    assert genus.weights == (Fraction(2, 3), Fraction(1, 3))
    assert sum(genus.weights) == 1


def test_weights_are_positive_and_sum_to_one():
    genus = GenusInput(
        (identity_form(3),) * 4, (7, 11, 13, 2))
    assert sum(genus.weights) == 1
    assert all(0 < w <= 1 for w in genus.weights)


def test_genus_validation():
    with pytest.raises(EmptyGenus):
        GenusInput((), ())
    with pytest.raises(ValueError):
        GenusInput((identity_form(2),), (4, 8))
    with pytest.raises(ValueError):
        GenusInput((identity_form(2),), (0,))
    with pytest.raises(ValueError):
        GenusInput((identity_form(2), identity_form(3)), (4, 8))


def test_siegel_rhs_validation():
    with pytest.raises(ValueError):
        siegel_rhs(identity_form(4), 0)
    with pytest.raises(ValueError):
        siegel_rhs(identity_form(4), 1, prime_bound=1)


def test_siegel_rhs_i4_example():
    rhs = siegel_rhs(identity_form(4), 1, prime_bound=2_000)
    assert rhs.epsilon == 1
    assert Fraction(98, 100) * 8 <= rhs.interval.lo
    assert rhs.interval.hi <= Fraction(102, 100) * 8


def test_siegel_rhs_binary_epsilon():
    rhs = siegel_rhs(identity_form(2), 1, prime_bound=500)
    assert rhs.epsilon == Fraction(1, 2)


@pytest.mark.parametrize(
    "form, m, count",
    [
        (identity_form(4), 1, 8),
        (identity_form(4), 2, 24),
        (identity_form(5), 1, 10),
        (identity_form(5), 2, 40),
        (e8_form(), 2, 240),
    ],
)
def test_siegel_check_single_class(form, m, count):
    genus = GenusInput((form,), (1,))
    check = siegel_check(genus, m, prime_bound=10_000, tol=Fraction(1, 50))
    assert check.lhs == count
    assert check.counts == (count,)
    assert check.weights == (Fraction(1),)
    assert check.passed


@pytest.mark.parametrize("n, m", [(5, 4), (5, 8), (6, 2), (7, 4), (8, 8)],
                         ids=["Z5-m4", "Z5-m8", "Z6-m2", "Z7-m4", "Z8-m8"])
def test_siegel_check_on_even_m_with_an_exact_two_adic_factor(n, m):
    # Z^n has class number 1 for n <= 8; these cases need the 2-adic
    # density at its proven level
    check = siegel_check(GenusInput((identity_form(n),), (1,)), m)
    assert check.passed, (check.lhs, check.rhs.interval)


def test_siegel_check_binary_sum_of_two_squares():
    genus = GenusInput((identity_form(2),), (1,))
    check = siegel_check(genus, 1, prime_bound=10_000)
    assert check.lhs == 4
    assert check.rhs.epsilon == Fraction(1, 2)
    assert check.passed


def test_siegel_check_weighted_average():
    # duplicated class: the weighted average must reproduce the count
    genus = GenusInput((identity_form(4), identity_form(4)), (2, 6))
    check = siegel_check(genus, 1, prime_bound=3_000)
    assert genus.weights == (Fraction(3, 4), Fraction(1, 4))
    assert check.lhs == 8
    assert check.passed


def test_siegel_check_monotone_in_prime_bound():
    genus = GenusInput((identity_form(4),), (1,))
    small = siegel_check(genus, 1, prime_bound=1_000)
    large = siegel_check(genus, 1, prime_bound=10_000)
    assert small.passed and large.passed
    mid_small = (small.rhs.interval.lo + small.rhs.interval.hi) / 2
    mid_large = (large.rhs.interval.lo + large.rhs.interval.hi) / 2
    assert abs(mid_small - mid_large) <= mid_large * Fraction(1, 1000)


def test_siegel_rhs_interval_nesting():
    wide = siegel_rhs(identity_form(5), 2, prime_bound=500, bits=64)
    tight = siegel_rhs(identity_form(5), 2, prime_bound=500, bits=128)
    assert wide.local_product == tight.local_product
    assert wide.interval.lo <= tight.interval.lo
    assert tight.interval.hi <= wide.interval.hi


A2 = GramForm(((2, 1), (1, 2)))
D4 = GramForm(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))
# determinant 40: the odd prime 5 is a bad prime for every m
ODD5 = GramForm(((2, 1, 0), (1, 4, 1), (0, 1, 6)))
EULER_FORMS = ([(f"Z{n}", identity_form(n)) for n in range(1, 9)]
               + [("A2", A2), ("D4", D4), ("E8", e8_form()), ("det40", ODD5)])


@pytest.mark.parametrize("name, G", EULER_FORMS,
                         ids=[name for name, _ in EULER_FORMS])
def test_siegel_rhs_matches_the_per_prime_product(name, G):
    """The Euler product against the definition: one `local_density` per
    prime, multiplied in order."""
    assert ODD5.determinant == 40 and D4.determinant == 4
    for m in range(1, 13):
        bound = (2, 2000, 97, 1000)[m % 4]
        want = Fraction(1)
        for p in _primes_up_to(bound):
            want *= local_density(G, p, m).value
        rhs = siegel_rhs(G, m, bound)
        assert rhs.local_product == want, (name, m)
        arch = infinity_density(G.n, G.determinant, Fraction(m))
        exact = rhs.epsilon * want * arch
        iv = rhs.interval
        assert iv.lo <= exact.lo and exact.hi <= iv.hi, (name, m)
        assert iv.width <= iv.hi * Fraction(1, 2 ** 100) + Fraction(1, 2 ** 120)
        for end in (iv.lo, iv.hi):
            den = end.denominator
            assert den & (den - 1) == 0, "endpoints are dyadic"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), p=st.sampled_from((3, 5, 7, 11, 13)),
       m=st.integers(1, 40), data=st.data())
def test_good_prime_factor_matches_direct_count(n, p, m, data):
    """At p not dividing 2*m*det the factor siegel_rhs uses equals the
    brute-force count."""
    assume(p ** (2 * n) <= 30_000)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = data.draw(st.integers(1, 9))
        for j in range(i):
            rows[i][j] = rows[j][i] = data.draw(st.integers(-2, 2))
    G = GramForm(tuple(map(tuple, rows)))
    minors = [determinant([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
    assume(all(d > 0 for d in minors) and (2 * m * G.determinant) % p)
    before = siegel_rhs(G, m, p - 1).local_product
    assume(before != 0)
    count = local_density(G, p, m, method="count")
    assert count.stabilized
    assert siegel_rhs(G, m, p).local_product == before * count.value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 9), p=st.sampled_from((3, 5, 7, 11, 13)),
       m=st.integers(1, 40), data=st.data())
def test_good_prime_factor_matches_local_density(n, p, m, data):
    """The closed-form good-prime factor against `local_density` at that
    prime, on diagonally dominant (so positive definite) forms of rank
    4 to 9, where brute force is out of reach."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = data.draw(st.integers(-2, 2))
    for i in range(n):
        rows[i][i] = data.draw(st.integers(1, 5)) + sum(map(abs, rows[i]))
    G = GramForm(tuple(map(tuple, rows)))
    assume((2 * m * G.determinant) % p)
    before = siegel_rhs(G, m, p - 1).local_product
    assume(before != 0)
    factor = local_density(G, p, m)
    assert factor.method == "unit-formula"
    assert siegel_rhs(G, m, p).local_product == before * factor.value


ROUNDING_FORMS = [("Z2", identity_form(2)), ("D4", D4),
                  ("Z5", identity_form(5)), ("E8", e8_form())]


@pytest.mark.parametrize("bits", (16, 64, 128))
@pytest.mark.parametrize("name, G", ROUNDING_FORMS,
                         ids=[name for name, _ in ROUNDING_FORMS])
def test_siegel_rhs_rounds_as_the_reduced_product(name, G, bits):
    """The interval rounded from the unreduced numerator and denominator
    is the one rounded from the reduced product, endpoint for endpoint;
    m = 5, 6, 7, 8 covers every residue class mod 4."""
    for m in (5, 6, 7, 8):
        rhs = siegel_rhs(G, m, 1000, bits=bits)
        arch = infinity_density(G.n, G.determinant, Fraction(m), bits=bits)
        local = Interval(rhs.epsilon * rhs.local_product).round_out(bits)
        assert rhs.archimedean == arch, (name, m)
        assert rhs.interval == (arch * local).round_out(bits), (name, m)


def test_local_product_is_reduced_only_when_read():
    check = siegel_check(GenusInput((identity_form(5),), (3840,)), 2, 3000)
    rhs = check.rhs
    assert "local_product" not in vars(rhs)
    # the stored pair is not in lowest terms: p^2 +- 1 at a good p shares
    # the small primes of the other factors' denominators p'^2
    assert gcd(rhs.numerator, rhs.denominator) > 1
    q = rhs.local_product
    assert q == Fraction(rhs.numerator, rhs.denominator)
    assert gcd(q.numerator, q.denominator) == 1
    assert rhs.local_product is q


def test_mass_ledger_json_record():
    genus = GenusInput((identity_form(4),), (1,))
    check = siegel_check(genus, 1, prime_bound=500)
    doc = check.to_json_dict()
    assert doc["check"] == "mass-formula"
    assert doc["m"] == 1
    assert doc["lhs"] == ["8", "1"]
    assert doc["prime_bound"] == 500
    assert doc["pass"] is True
    assert isinstance(doc["interval"][0], str)


# ---------------------------------------------------------------------------
# the dimension-41 ledger


@pytest.fixture(scope="module")
def ledger():
    return bounds_ledger_41()


def test_ledger_odd_prime_factor(ledger):
    item = ledger.item("odd-prime-factor")
    assert item.passed
    lo, hi = (Fraction(s) for s in item.detail["interval"])
    assert Fraction(103, 100) <= lo <= hi <= Fraction(104, 100)
    elo, ehi = (Fraction(s) for s in item.detail["euler_bracket"])
    assert max(lo, elo) <= min(hi, ehi)


def test_ledger_two_adic_claim_is_refuted(ledger):
    item = ledger.item("two-adic-claim")
    assert item.passed is False
    computed = {int(k): Fraction(v) for k, v in item.detail["computed"].items()}
    # odd m never represented; even m carries its full 2-adic valuation
    assert computed == {
        1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 1, 7: 0, 8: 3, 9: 0, 10: 1,
    }


def test_two_adic_claim_matches_direct_count():
    h = hyperbolic_plane()
    for m, want in [(2, 1), (4, 2), (6, 1), (8, 3)]:
        d = local_density(h, 2, m, method="count", k_max=10,
                          budget=30_000_000)
        assert d.value == want


def test_ledger_corrected_two_adic_factor(ledger):
    # the 41-variable form's density at m = 2 exceeds the received bound 2
    item = ledger.item("two-adic-factor")
    assert not item.passed
    assert Fraction(item.detail["value"]) == 2 + Fraction(2 ** 19 + 1, 2 ** 58)
    assert item.detail["stabilized_at_k"] == 4


def test_ledger_archimedean(ledger):
    item = ledger.item("archimedean")
    assert item.passed
    arch = infinity_density(41, 2, Fraction(2))
    assert arch.hi <= Fraction(1, 50)
    assert Fraction(item.detail["stirling_upper"]) <= Fraction(1, 50)


def test_ledger_combined_product(ledger):
    item = ledger.item("combined")
    assert item.passed
    assert Fraction(item.detail["with_claimed_two_adic"]) <= Fraction(1, 20)
    assert Fraction(item.detail["with_computed_two_adic"]) <= Fraction(1, 20)


def test_ledger_overall(ledger):
    # every item but the refuted claim counts, so the corrected two-adic
    # factor fails the ledger although the combined bound holds
    assert not ledger.bounds_passed
    assert ledger.item("combined").passed
    assert {it.name for it in ledger.items} == {
        "odd-prime-factor", "two-adic-claim", "two-adic-factor",
        "archimedean", "combined",
    }


# ---------------------------------------------------------------------------
# the mass-chain arithmetic


def test_chain_default_values():
    rep = prop41_arithmetic()
    assert rep.m1 == Fraction(10968923, 2786918400)
    assert rep.m1 >= Fraction(3, 1000)
    assert rep.m1_ok
    assert rep.paper_low_ok
    assert rep.s_paper == 28
    assert rep.s_sharp == 38
    assert rep.lines()[-1] == "s >= 28"
    assert any("38" in line for line in rep.lines())


def test_chain_is_exact():
    rep = prop41_arithmetic()
    assert isinstance(rep.m1, Fraction)
    assert rep.m3_floor == 241 * rep.m1 * 20
    assert rep.s_exact == 2 * rep.m3_floor


def test_chain_hand_checked_inputs():
    rep = prop41_arithmetic(king_mass=Fraction(1), e8_order=1, e8_r2=2,
                            ct_bound=Fraction(1))
    assert rep.m1 == Fraction(1, 2)
    assert rep.m3_floor == Fraction(3, 2)
    assert rep.s_exact == 3
    assert rep.s_sharp == 3
    assert rep.s_paper == 2


def test_chain_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        prop41_arithmetic(king_mass=0)
    with pytest.raises(NonPositiveInput):
        prop41_arithmetic(e8_order=-5)
    with pytest.raises(NonPositiveInput):
        prop41_arithmetic(e8_r2=0)
    with pytest.raises(NonPositiveInput):
        prop41_arithmetic(ct_bound=Fraction(-1, 20))


def test_chain_json_record():
    doc = prop41_arithmetic().to_json_dict()
    assert doc["check"] == "mass-chain"
    assert doc["pass"] is True
    assert doc["s_paper"] == 28
    assert doc["s_sharp"] == 38
