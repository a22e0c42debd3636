"""End-to-end acceptance checks, one test per numbered claim.

Run with ``pytest -v``: each test below prints exactly one PASSED/FAILED
line, and every stated tolerance and runtime budget is asserted inside
the test itself.  The two deliberately failing claims (the even-m
two-adic constant, and the bound 2 on the 41-variable two-adic factor)
are pinned as strict xfails next to the computation that refutes them.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from qflat import exact
from qflat.enumeration import automorphism_order, representation_count
from qflat.gram import GramForm, e8_form, orthogonal_sum
from qflat.hyperbolic import (Empty, HyperplaneOf, NegativeRoot,
                              PositiveRoot, Whole, cartan_involution,
                              classify_hyperplane_meet, classify_root,
                              reflection_matrix)
from qflat.lattice import Lattice, invariant_factors, saturate
from qflat.localform import local_density
from qflat.massledger import (GenusInput, bounds_ledger_41,
                              prop41_arithmetic, siegel_check)
from qflat.pingpong import (binary_disc_form, schottky_certify,
                            symmetric_square)

E8 = e8_form()
H = GramForm(((0, 1), (1, 0)))
README = Path(__file__).resolve().parent.parent / "README.md"


def test_a01_e8_minimal_vector_count():
    t0 = time.perf_counter()
    assert representation_count(E8, 2) == 240
    assert time.perf_counter() - t0 < 1.0


def test_a02_e8_automorphism_order():
    t0 = time.perf_counter()
    assert automorphism_order(E8) == 696729600
    assert time.perf_counter() - t0 < 600.0


def test_a03_bounds_ledger():
    t0 = time.perf_counter()
    report = bounds_ledger_41()

    odd = report.item("odd-prime-factor")
    assert odd.passed
    lo, hi = (Fraction(s) for s in odd.detail["interval"])
    assert Fraction(103, 100) <= lo and hi <= Fraction(104, 100)
    assert hi <= Fraction(11, 10)

    # the two-adic density of 2*x1*x2 is the 2-adic valuation of m, not
    # a constant; the constant-2 claim is pinned as xfail below, and the
    # value the chain actually needs is computed here
    claim = report.item("two-adic-claim")
    assert not claim.passed
    for m in range(1, 11):
        expect = 0
        mm = m
        while mm % 2 == 0:
            expect, mm = expect + 1, mm // 2
        assert Fraction(claim.detail["computed"][str(m)]) == expect

    # that value exceeds the received bound 2 (pinned as xfail below), so
    # the item and the ledger fail, while the combined bound still holds
    factor = report.item("two-adic-factor")
    assert not factor.passed
    assert Fraction(factor.detail["value"]) == \
        2 + Fraction(2 ** 19 + 1, 2 ** 58)

    arch = report.item("archimedean")
    assert arch.passed
    _, arch_hi = (Fraction(s) for s in arch.detail["interval"])
    assert arch_hi <= Fraction(1, 50)

    combined = report.item("combined")
    assert combined.passed
    for key in ("with_claimed_two_adic", "with_computed_two_adic"):
        assert Fraction(combined.detail[key]) <= Fraction(1, 20)

    assert not report.bounds_passed
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="refuted: the even-m density of 2*x1*x2 at p=2 is the 2-adic "
    "valuation of m (1 at m=2), not the constant 2",
)
def test_a03b_two_adic_even_density_as_claimed():
    for m in (2, 4, 6, 8):
        assert local_density(H, 2, m).value == 2


@pytest.mark.xfail(
    strict=True,
    reason="refuted: the density at p=2, m=2 of twenty hyperbolic planes "
    "plus <2> is 2 + (2^19+1)/2^58, above the received bound 2",
)
def test_a03c_two_adic_factor_at_most_two_as_claimed():
    local41 = orthogonal_sum(*([H] * 20 + [GramForm(((2,),))]))
    assert local_density(local41, 2, 2).value <= 2


def test_a04_mass_chain_exact():
    t0 = time.perf_counter()
    report = prop41_arithmetic()
    assert report.m1 == Fraction(10968923, 2786918400)
    assert report.m1 >= Fraction(3, 1000) and report.m1_ok
    assert report.s_paper == 28
    assert report.s_sharp == 38
    assert isinstance(report.m3_floor, Fraction)
    assert report.lines()[-1] == "s >= 28"
    assert time.perf_counter() - t0 < 1.0


def test_a05_mass_formula_truncations():
    i4 = GramForm(tuple(tuple(int(i == j) for j in range(4))
                        for i in range(4)))
    i5 = GramForm(tuple(tuple(int(i == j) for j in range(5))
                        for i in range(5)))
    checks = [
        (i4, 1, 8), (i4, 2, 24),
        (i5, 1, 10), (i5, 2, 40),
        (E8, 2, 240),
    ]
    for form, m, expect in checks:
        t0 = time.perf_counter()
        assert representation_count(form, m) == expect
        genus = GenusInput((form,), (automorphism_order(form),))
        ledger = siegel_check(genus, m, prime_bound=10_000,
                              tol=Fraction(1, 50))
        assert ledger.lhs == expect
        assert ledger.passed
        assert time.perf_counter() - t0 < 60.0


def test_a06_saturation_suite():
    t0 = time.perf_counter()
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g = exact.mat_mul(exact.transpose(exact.freeze(b)), exact.freeze(b))
        det = exact.determinant(g)
        if det == 0 or abs(det) > 500:
            continue
        f = GramForm([[int(x) for x in row] for row in g])
        lat = Lattice.standard(f)
        sat = saturate(lat)
        checked += 1
        for j in range(3):
            assert sat.contains(tuple(row[j] for row in lat.basis))
        assert sat.is_classically_integral
        factors = invariant_factors(sat)
        for fac in factors:
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                assert fac % (p * p) != 0
        assert saturate(sat) == sat
        snf = smith_normal_form(Matrix(
            [[int(x) for x in row] for row in sat.induced_gram]))
        assert tuple(abs(snf[i, i]) for i in range(3)) == factors
    assert time.perf_counter() - t0 < 30.0


def test_a07_reflection_cartan_suite():
    t0 = time.perf_counter()
    rng = random.Random(47)
    mink = GramForm(((1, 0), (0, -1)))
    forms = [
        mink,
        orthogonal_sum(H, GramForm(((2,),))),
        orthogonal_sum(mink, GramForm(((1,),))),
        E8,
    ]
    checked = 0
    while checked < 1000:
        G = rng.choice(forms)
        v = tuple(rng.randint(-3, 3) for _ in range(G.n))
        if not any(v):
            continue
        r = classify_root(G, v)
        if isinstance(r, PositiveRoot):
            R = reflection_matrix(G, v)
        elif isinstance(r, NegativeRoot):
            R = exact.mat_mul(
                tuple(tuple(-int(i == j) for j in range(G.n))
                      for i in range(G.n)),
                cartan_involution(G, v).matrix)
            assert cartan_involution(G, v)(v) == v
        else:
            continue
        assert exact.mat_mul(
            exact.transpose(R), exact.mat_mul(G.matrix, R)) == G.matrix
        assert exact.mat_mul(R, R) == exact.identity(G.n)
        assert exact.determinant(R) == -1
        assert tuple(exact.mat_vec(R, v)) == tuple(-c for c in v)
        checked += 1
    assert time.perf_counter() - t0 < 10.0


def test_a08_hyperplane_meet_trichotomy():
    t0 = time.perf_counter()
    rng = random.Random(53)
    tail = GramForm(((1, 0), (0, 1)))
    seen = {"empty": 0, "whole": 0, "hyper": 0}
    for alpha in (1, 2):
        q = GramForm(((0, 1), (1, 0)))
        f = orthogonal_sum(GramForm(((0, alpha), (alpha, 0))), tail)
        checked = 0
        while checked < 500:
            v = tuple(rng.randint(-4, 4) for _ in range(4))
            if not any(v):
                continue
            if not isinstance(classify_root(f, v), PositiveRoot):
                continue
            got = classify_hyperplane_meet(f, q, tail, v, alpha=alpha)
            assert isinstance(got, (Empty, Whole, HyperplaneOf))
            if isinstance(got, Empty):
                seen["empty"] += 1
            elif isinstance(got, Whole):
                seen["whole"] += 1
            else:
                seen["hyper"] += 1
                w = got.root
                assert isinstance(classify_root(q, w.vector), PositiveRoot)
            checked += 1
    assert all(seen.values())
    assert time.perf_counter() - t0 < 30.0


def test_a09_schottky_certificate():
    t0 = time.perf_counter()
    g1 = symmetric_square(((2, 1), (1, 1)))
    g2 = symmetric_square(((1, 1), (1, 2)))
    cert = schottky_certify(g1, g2, m_max=20)
    assert cert.m <= 20
    # all reduced words of length <= 6 over the powered pair: 4 * 364
    assert cert.words_checked == 1456
    # four Dirichlet half-spaces, pairwise disjoint, none holding the base
    f = binary_disc_form()
    assert all(f.inner(cert.base, a) < 0 for a in cert.normals)
    pairs = cert.inequalities()
    assert len(pairs) == 6
    assert all(ab < 0 and ab * ab > aabb for _, _, ab, aabb in pairs)
    assert time.perf_counter() - t0 < 60.0


def test_a10_stated_limitations():
    raw = README.read_text(encoding="utf-8").lower()
    text = " ".join(raw.replace("*", "").split())
    assert "## limitations" in text
    assert "41" in text and "not enumerated" in text
    assert "class-count" in text or "class count" in text
    assert "verified ingredients" in text
