import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_enumeration import random_unimodular, transformed

from qflat.exact import determinant
from qflat.gram import (
    GramForm,
    e8_form,
    hyperbolic_plane,
    identity_form,
    orthogonal_sum,
)
from qflat.intervals import Interval, pi_interval
from qflat.localform import (
    BudgetExceeded,
    NoIsotropicVector,
    PrecisionTooLow,
    infinity_density,
    jordan_decompose_odd,
    local_density,
    omega_interval,
    omega_rational_coefficient,
    stirling_omega_upper,
    two_adic_split,
    zeta_interval,
)


# ---------------------------------------------------------------------------
# p-adic densities: frozen values


def test_one_square_at_three():
    d = local_density(GramForm(((1,),)), 3, 1)
    assert d.value == 2
    assert d.stabilized
    assert local_density(GramForm(((1,),)), 3, 1, method="count").value == 2


def test_two_squares_at_three():
    d = local_density(identity_form(2), 3, 1)
    assert d.value == Fraction(4, 3)
    assert local_density(identity_form(2), 3, 1, method="count").value == \
        Fraction(4, 3)


def test_hyperbolic_plane_at_two_odd_m():
    U = hyperbolic_plane()
    for m in (1, 3, 5, 7, 9):
        assert local_density(U, 2, m).value == 0


def test_hyperbolic_plane_at_two_even_m():
    # density of 2xy at even m equals the 2-adic valuation of m; the
    # structural route and raw enumeration must agree exactly.
    U = hyperbolic_plane()
    expected = {2: 1, 4: 2, 6: 1, 8: 3, 10: 1, 12: 2}
    for m, want in expected.items():
        auto = local_density(U, 2, m, k_max=8)
        brute = local_density(U, 2, m, k_max=8, method="count",
                              budget=20_000_000)
        assert auto.value == want == brute.value
        assert auto.stabilized and brute.stabilized


def test_squares_at_two():
    assert local_density(identity_form(4), 2, 1).value == 1
    assert local_density(identity_form(4), 2, 2).value == Fraction(3, 2)
    assert local_density(identity_form(5), 2, 1).value == Fraction(5, 8)
    assert local_density(e8_form(), 2, 2).value == Fraction(15, 8)


def test_auto_matches_count_on_grid():
    forms = [
        identity_form(2),
        GramForm(((2, 1), (1, 2))),
        GramForm(((1, 0), (0, 3))),
        hyperbolic_plane(),
        GramForm(((2, 0, 0), (0, 3, 0), (0, 0, 5))),
    ]
    for G in forms:
        for p in (2, 3, 5):
            for m in (1, 2, 3, 4, 6):
                a = local_density(G, p, m, k_max=4)
                c = local_density(G, p, m, k_max=4, method="count",
                                  budget=20_000_000)
                assert a.value == c.value, (G.matrix, p, m)
                assert a.value >= 0


def test_genus_locality():
    # a unimodular change of variable leaves every local density unchanged
    rng = random.Random(7)
    base = GramForm(((2, 1, 0), (1, 4, 1), (0, 1, 6)))
    for _ in range(5):
        T = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for r in range(3):
                T[r][i] += c * T[r][j]
        M = [[sum(T[a][i] * base.matrix[a][b] * T[b][j]
                  for a in range(3) for b in range(3))
              for j in range(3)] for i in range(3)]
        other = GramForm(tuple(tuple(r) for r in M))
        for p in (2, 3):
            for m in (1, 2, 3):
                assert local_density(base, p, m).value == \
                    local_density(other, p, m).value


def test_good_odd_prime_stabilizes_immediately():
    # p odd, p dividing neither 2m nor det: level 1 already has the limit
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        diag = [rng.randint(1, 6) for _ in range(n)]
        G = GramForm(tuple(tuple(diag[i] if i == j else 0
                                 for j in range(n)) for i in range(n)))
        for p in (5, 7):
            for m in (1, 2, 3):
                if (2 * m * G.determinant) % p == 0:
                    continue
                d = local_density(G, p, m)
                assert d.stabilized and d.k == 2
                assert d.history[0][1] == d.value


def test_sampled_submultiplicativity():
    # sup_m density(a + b) <= sup_m density(a) on sampled ranges
    I2 = identity_form(2)
    I4 = orthogonal_sum(I2, I2)
    for p in (3, 5):
        sup_a = max(local_density(I2, p, m).value for m in range(1, 10))
        sup_ab = max(local_density(I4, p, m).value for m in range(1, 10))
        assert sup_ab <= sup_a
    U = hyperbolic_plane()
    UU = orthogonal_sum(U, U)
    sup_u = max(local_density(U, 2, m, k_max=8).value for m in range(1, 11))
    sup_uu = max(local_density(UU, 2, m, k_max=8).value for m in range(1, 11))
    assert sup_uu <= sup_u


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        local_density(identity_form(5), 3, 1, method="count", budget=100)


def test_density_json_record():
    d = local_density(hyperbolic_plane(), 2, 3)
    rec = d.to_json_dict()
    assert rec["p"] == 2 and rec["m"] == 3
    assert rec["value"] == ["0", "1"]
    assert rec["stabilized_at_k"] == d.k


def test_rejects_composite_p():
    with pytest.raises(ValueError):
        local_density(identity_form(2), 6, 1)


# ---------------------------------------------------------------------------
# odd-p Jordan decomposition


def test_jordan_diagonal_powers():
    G = GramForm(((1, 0, 0), (0, 3, 0), (0, 0, 9)))
    dec = jordan_decompose_odd(G, 3, 12)
    assert dec.scales == (1, 3, 9)
    assert all(u % 3 != 0 for b in dec.blocks for u in b.units)


def test_jordan_a2():
    dec = jordan_decompose_odd(GramForm(((2, 1), (1, 2))), 3, 8)
    assert dec.scales == (1, 3)


def test_jordan_hyperbolic_is_unit():
    dec = jordan_decompose_odd(hyperbolic_plane(), 3, 6)
    assert dec.scales == (1, 1)
    assert len(dec.blocks) == 1 and dec.blocks[0].exponent == 0


def test_jordan_exponent_sum_and_recomposition():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(2, 4)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
            M[i][i] = rng.randint(1, 9)
        G = GramForm(tuple(tuple(r) for r in M))
        if G.determinant == 0:
            continue
        for p in (3, 5):
            vp = 0
            d = abs(G.determinant)
            while d % p == 0:
                d //= p
                vp += 1
            K = 2 * vp + 3
            dec = jordan_decompose_odd(G, p, K)
            assert sum(b.exponent * len(b.units) for b in dec.blocks) == vp
            # recomposition: T^t G T is the block diagonal mod p^K
            mod = p ** K
            T = dec.transform
            got = [[sum(T[a][i] * G.matrix[a][b] * T[b][j]
                        for a in range(n) for b in range(n)) % mod
                    for j in range(n)] for i in range(n)]
            diag = []
            for b in dec.blocks:
                for u in b.units:
                    diag.append((p ** b.exponent * u) % mod)
            for i in range(n):
                for j in range(n):
                    want = diag[i] if i == j else 0
                    assert got[i][j] % mod == want % mod


def test_jordan_precision_guard():
    with pytest.raises(PrecisionTooLow):
        jordan_decompose_odd(GramForm(((9, 0), (0, 9))), 3, 3)
    with pytest.raises(ValueError):
        jordan_decompose_odd(identity_form(2), 2, 8)


# ---------------------------------------------------------------------------
# 2-adic splitting


def test_split_hyperbolic_plane():
    res = two_adic_split(hyperbolic_plane(), 8)
    assert [t for t, _ in res.blocks] == ["even"]
    assert res.remainder == ()


def test_split_e8():
    res = two_adic_split(e8_form(), 8)
    assert [t for t, _ in res.blocks] == ["even"] * 4
    assert res.remainder == ()


def test_split_five_squares():
    res = two_adic_split(identity_form(5), 8)
    assert [t for t, _ in res.blocks] == ["odd"]
    assert len(res.remainder) == 3
    # external recomposition check mod 2^K
    G = identity_form(5).matrix
    T = res.transform
    mod = 2 ** res.bits
    got = [[sum(T[a][i] * G[a][b] * T[b][j]
                for a in range(5) for b in range(5)) % mod
            for j in range(5)] for i in range(5)]
    expect = [[0] * 5 for _ in range(5)]
    blk = res.blocks[0][1]
    for a in range(2):
        for b in range(2):
            expect[a][b] = blk[a][b]
    for a in range(3):
        for b in range(3):
            expect[2 + a][2 + b] = res.remainder[a][b]
    for i in range(5):
        for j in range(5):
            assert (got[i][j] - expect[i][j]) % mod == 0


def test_split_four_squares_has_no_isotropic_vector():
    for G in (identity_form(2), identity_form(3), identity_form(4),
              GramForm(((2, 1), (1, 2)))):
        with pytest.raises(NoIsotropicVector):
            two_adic_split(G, 8)


def _split_form(res):
    """The block diagonal of a Split2Result, as a list of rows."""
    pieces = [blk for _, blk in res.blocks] + [res.remainder]
    n = sum(len(blk) for blk in pieces)
    out = [[0] * n for _ in range(n)]
    pos = 0
    for blk in pieces:
        for a, row in enumerate(blk):
            for b, x in enumerate(row):
                out[pos + a][pos + b] = x
        pos += len(blk)
    return out


def _assert_recomposes(G, res):
    """T^t G T equals the split form mod 2^K, summed here term by term."""
    n = len(G)
    T = res.transform
    want = _split_form(res)
    for i in range(n):
        for j in range(n):
            got = sum(T[a][i] * G[a][b] * T[b][j]
                      for a in range(n) for b in range(n))
            assert (got - want[i][j]) % 2 ** res.bits == 0


def test_split_six_squares():
    # Z^6 was the first dimension the seed search missed; the remainder is
    # the anisotropic part of Z^n over Z_2, whose rank has period 8
    ranks = [3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0]
    for n, rank in zip(range(5, 17), ranks):
        res = two_adic_split(identity_form(n), 8)
        assert 2 * len(res.blocks) + len(res.remainder) == n
        assert len(res.remainder) == rank
        _assert_recomposes(identity_form(n).matrix, res)


def _hyperbolic_sum(k, unit):
    return orthogonal_sum(*[hyperbolic_plane()] * k, GramForm(((unit,),)))


SPLIT_BASES = ([identity_form(n) for n in range(5, 17)]
               + [e8_form(), orthogonal_sum(e8_form(), identity_form(3))]
               + [_hyperbolic_sum(k, u)
                  for k in (2, 5, 8) for u in (1, 3, 5, 7)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SPLIT_BASES), st.integers(0, 10 ** 6),
       st.sampled_from([3, 6, 8]))
def test_split_survives_unimodular_skews(base, seed, K):
    # block kinds are not invariants (odd + odd = even + odd over Z_2);
    # the remainder rank, the anisotropic dimension, is
    G = transformed(base, random_unimodular(base.n, random.Random(seed)))
    res = two_adic_split(G, K)
    _assert_recomposes(G.matrix, res)
    assert determinant(res.transform) % 2 == 1
    even = all(G.matrix[i][i] % 2 == 0 for i in range(G.n))
    split = _split_form(res)
    assert even == all(split[i][i] % 2 == 0 for i in range(G.n))
    assert len(res.remainder) == len(two_adic_split(base, K).remainder)


def test_split_rejects_even_determinant():
    with pytest.raises(ValueError):
        two_adic_split(GramForm(((2, 0), (0, 1))), 8)


# ---------------------------------------------------------------------------
# archimedean pieces


def test_omega_small_dimensions():
    ref = pi_interval(256)
    w2 = omega_interval(2)
    assert w2.lo <= ref.lo and ref.hi <= w2.hi
    w3 = omega_interval(3)
    third = ref * Interval(Fraction(4, 3))
    assert w3.lo <= third.lo and third.hi <= w3.hi
    assert omega_rational_coefficient(2) == (Fraction(1), 1)
    assert omega_rational_coefficient(3) == (Fraction(4, 3), 1)
    assert omega_rational_coefficient(4) == (Fraction(1, 2), 2)


def test_stirling_dominates_omega():
    for n in (5, 12, 41, 60):
        assert stirling_omega_upper(n) >= omega_interval(n).hi


def test_infinity_density_disc_one_circle():
    ref = pi_interval(256)
    d = infinity_density(2, 1, Fraction(1))
    assert d.lo <= ref.lo and ref.hi <= d.hi


def test_infinity_density_vanishes_at_small_y():
    d = infinity_density(4, 1, Fraction(1, 10 ** 6))
    assert d.hi < Fraction(1, 100000)


def test_infinity_density_41():
    d = infinity_density(41, 2, Fraction(2))
    assert d.hi <= Fraction(1, 50)


def test_infinity_density_precision_nesting():
    lo_bits = infinity_density(7, 3, Fraction(5, 2), bits=64)
    hi_bits = infinity_density(7, 3, Fraction(5, 2), bits=128)
    assert lo_bits.lo <= hi_bits.lo and hi_bits.hi <= lo_bits.hi
    assert hi_bits.width < lo_bits.width


def test_zeta_values():
    ref = pi_interval(256)
    z2 = zeta_interval(2)
    target = ref * ref * Interval(Fraction(1, 6))
    assert z2.lo <= target.lo and target.hi <= z2.hi
    # more terms narrow the bracket without losing the value
    wide = zeta_interval(3, terms=8)
    tight = zeta_interval(3, terms=256)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_zeta_ratio_for_prime_product():
    # (1 - p^-4)/(1 - p^-3) over odd p equals 14 zeta(3) / (15 zeta(4))
    z3 = zeta_interval(3, terms=128)
    z4 = zeta_interval(4, terms=128)
    ratio = z3 * Interval(Fraction(14)) / (z4 * Interval(Fraction(15)))
    assert Fraction(103, 100) <= ratio.lo and ratio.hi <= Fraction(104, 100)
    assert ratio.hi <= Fraction(11, 10)
