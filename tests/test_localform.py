import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_enumeration import random_unimodular, transformed

from qflat.exact import (congruence_split, determinant, mat_mul, transpose,
                         valuation)
from qflat.gram import (
    GramForm,
    e8_form,
    hyperbolic_plane,
    identity_form,
    orthogonal_sum,
)
from qflat.intervals import Interval, pi_interval
from qflat.localform import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _legendre,
    _level_density,
    _unit_count_mod1,
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
                a = local_density(G, p, m)
                c = local_density(G, p, m, method="count",
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
                assert d.stabilized and d.k == 1
                assert d.value == _level_density(G, p, m, 2, "auto",
                                                 DEFAULT_BUDGET)[0]


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


def test_rejects_composite_p():
    with pytest.raises(ValueError):
        local_density(identity_form(2), 6, 1)


def test_rejects_m_zero():
    with pytest.raises(ValueError):
        local_density(identity_form(3), 2, 0)


# H + <1> + ((3, 1), (1, 2)): levels 1-3 give 1, 5/4, 5/4, then 39/32
SPLIT5 = GramForm(((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0),
                   (0, 0, 0, 3, 1), (0, 0, 0, 1, 2)))


@pytest.mark.parametrize("G, m, k0, want", [
    (identity_form(2), 2, 4, 2),
    (identity_form(3), 4, 5, Fraction(3, 4)),
    (identity_form(5), 4, 5, Fraction(45, 64)),
    (identity_form(5), 16, 7, Fraction(365, 512)),
    (SPLIT5, 4, 5, Fraction(39, 32)),
], ids=["Z2-m2", "Z3-m4", "Z5-m4", "Z5-m16", "split5-m4"])
def test_density_at_two_past_agreeing_levels(G, m, k0, want):
    # each value holds at every level from k0 = v_2(m) + 3 on, while two
    # consecutive levels below k0 can agree on a different value
    d = local_density(G, 2, m)
    assert (d.k, d.value) == (k0, want)


@st.composite
def sweep_like_forms(draw):
    """(form, p, m): an orthogonal sum of up to 3 pieces u p^e, 2^e H and
    2^e ((2, 1), (1, 2)) with e <= 3, and m = w p^j."""
    p = draw(st.sampled_from((2, 3, 5)))
    units = [u for u in range(1, 8) if u % p]
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(0, 3))
        kind = draw(st.sampled_from(("unit", "H", "A2")))
        if kind == "unit":
            rows = ((draw(st.sampled_from(units)) * p ** e,),)
        else:
            rows = tuple(tuple(2 ** e * x for x in row) for row in
                         (((0, 1), (1, 0)) if kind == "H"
                          else ((2, 1), (1, 2))))
        pieces.append(GramForm(rows))
    j = draw(st.integers(0, 2 if p < 5 else 1))
    return orthogonal_sum(*pieces), p, draw(st.sampled_from(units)) * p ** j


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sweep_like_forms())
def test_level_k0_is_the_stable_value(case):
    G, p, m = case
    d = local_density(G, p, m)
    for k in (d.k + 1, d.k + 2):
        assert _level_density(G, p, m, k, "auto", DEFAULT_BUDGET)[0] == \
            d.value, k
    if G.n <= 3:
        assert local_density(G, p, m, method="count").value == d.value


def test_e8_at_two_high_valuation_within_default_budget():
    # E8 is four hyperbolic planes over Z_2: 2 (1 - 2^-4) sum_{j<=9} 8^-j
    d = local_density(e8_form(), 2, 2 ** 10)
    assert d.k == 13
    assert d.value == 2 * (1 - Fraction(1, 16)) * sum(
        Fraction(1, 8 ** j) for j in range(10))
    assert local_density(hyperbolic_plane(), 2, 2 ** 10).value == 10


def test_k_max_caps_the_level():
    U = hyperbolic_plane()
    assert local_density(U, 2, 8, k_max=6).k == 6
    with pytest.raises(BudgetExceeded):
        local_density(U, 2, 8, k_max=5)


def test_high_two_power_reduces_without_allocating():
    # v_2(m) = 40 steps of the reduction, with no table over 2^43 residues
    tracemalloc.start()
    try:
        assert local_density(hyperbolic_plane(), 2, 2 ** 40).value == 40
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_large_odd_prime_dividing_det_and_m():
    # 1009 x^2 + y^2 = 1009 mod 1009^2: y = 1009 y' and x = +-1 mod 1009,
    # so 2 * 1009 * 1009 solutions over 1009^2
    d = local_density(GramForm(((1009, 0), (0, 1))), 1009, 1009)
    assert (d.value, d.k, d.method) == (2, 2, "jordan-blocks")


def test_e8_at_two_to_the_sixty():
    start = time.perf_counter()
    d = local_density(e8_form(), 2, 2 ** 60)
    assert time.perf_counter() - start < 1
    assert d.k == 63
    assert d.value == 2 * (1 - Fraction(1, 16)) * sum(
        Fraction(1, 8 ** j) for j in range(60))


def _unimodular_density(G, p, v):
    """(1 - chi p^-h) sum_{j<=v} (chi p^(1-h))^j, chi = ((-1)^h det / p):
    the classical p-density of a form of even rank 2h with p not dividing
    2 det, at any m of valuation v."""
    h = G.n // 2
    chi = _legendre((-1) ** h * G.determinant, p)
    step = chi * Fraction(p) ** (1 - h)
    geometric = v + 1 if step == 1 else (1 - step ** (v + 1)) / (1 - step)
    return (1 - chi * Fraction(p) ** -h) * geometric


# H + H has chi = 1 at p = 3, H + Z^2 has chi = -1
@pytest.mark.parametrize("G", [orthogonal_sum(hyperbolic_plane(),
                                              hyperbolic_plane()),
                               orthogonal_sum(hyperbolic_plane(),
                                              identity_form(2))],
                         ids=["HH", "HZ2"])
def test_unimodular_density_formula_against_counting(G):
    for v in range(3):
        for u in (1, 2):
            d = local_density(G, 3, u * 3 ** v, method="count")
            assert d.value == _unimodular_density(G, 3, v), (u, v)


def test_e8_at_three_high_valuation():
    # v + 1 reduction steps, each a few exact operations on the count
    G = e8_form()
    start = time.perf_counter()
    for v in (0, 1, 2, 10, 100, 1000, 3000):
        for u in (1, 2):
            d = local_density(G, 3, u * 3 ** v)
            assert (d.k, d.method) == (v + 1, "unit-formula")
            assert d.value == _unimodular_density(G, 3, v), (u, v)
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# reference: level counts by class tables, the method before the reduction


def _unit_count(level1, nu, p, k, m):
    """#{x in (Z/p^k)^nu : g(x) = m} from level1(r) = #{x mod p : g(x) = r},
    for g with a gradient nonzero mod p at every x != 0 mod p."""
    if k == 0:
        return 1
    mm = m % (p ** k)
    r = mm % p
    base = (level1(r) - (r == 0)) * p ** ((k - 1) * (nu - 1))
    if k == 1:
        return base + (r == 0)
    if mm % (p * p):
        return base
    return base + p ** nu * _unit_count(level1, nu, p, k - 2, mm // p ** 2)


def _square_class(r, p, k):
    """v_p(r) and the class of r/p^v under unit squares mod p^k."""
    if r == 0:
        return (k,)
    v = valuation(r, p)
    u = r // p ** v
    return v, (u % min(8, 2 ** (k - v)) if p == 2 else _legendre(u, p))


def _piece_counts(block, p, k, reps):
    """Solution counts mod p^k of one sweep piece at each residue in reps."""
    mod = p ** k
    if len(block) == 1:
        d = block[0][0] % mod
        hits = Counter(d * x * x % mod for x in range(mod))
        return [hits[r] for r in reps]
    (a, b), (_, c) = block
    e = valuation(b, 2) + 1
    level1 = ((3, 1) if Fraction(a * c, 4 ** e).numerator % 2 == 0 else (1, 3))
    e = min(e, k)
    return [0 if r % 2 ** e else
            4 ** e * _unit_count(level1.__getitem__, 2, 2, k - e, r >> e)
            for r in reps]


def _count_by_classes(blocks, p, k, m):
    """#{x : f(x) = m mod p^k} for f the orthogonal sum of sweep `blocks`,
    convolving count vectors kept one value per `_square_class`."""
    mod = p ** k
    index = {}
    cls = [index.setdefault(_square_class(r, p, k), len(index))
           for r in range(mod)]
    reps = [cls.index(c) for c in range(len(index))]
    pairs = [Counter(zip(cls, cls[r::-1] + cls[:r:-1])) for r in reps]

    def convolve(pair, f, g):
        return sum(n * f[a] * g[b] for (a, b), n in pair.items())

    total, *pieces = [_piece_counts(block, p, k, reps) for block in blocks]
    for piece in pieces[:-1]:
        total = [convolve(pair, total, piece) for pair in pairs]
    c = cls[m % mod]
    return convolve(pairs[c], total, pieces[-1]) if pieces else total[c]


def reference_level_density(G, p, m, k):
    """(normalized count at level k, method tag) by Hensel recursion at
    good odd p and by class tables over the sweep's pieces otherwise."""
    n, det = G.n, G.determinant
    if p % 2 and det % p:
        count = _unit_count(lambda r: _unit_count_mod1(n, det % p, p, r),
                            n, p, k, m)
        tag = "unit-formula"
    else:
        mod = p ** (k + valuation(det, p) + 3)
        blocks = [step[2] for step in congruence_split(G.matrix, p, mod)]
        count = _count_by_classes(blocks, p, k, m)
        tag = "jordan-blocks" if p % 2 else "two-adic-pieces"
    return Fraction(count, p ** (k * (n - 1))), tag


@st.composite
def reduction_cases(draw):
    """(form, p, m): a sum of up to 5 pieces u p^e, 2^e H and
    2^e ((2, 1), (1, 2)) with e <= 4, or a random form of rank <= 6, and
    m = w p^j."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    units = [u for u in range(-9, 16) if u % p]
    if draw(st.booleans()):
        pieces = []
        for _ in range(draw(st.integers(1, 5))):
            e = draw(st.integers(0, 4))
            kind = draw(st.sampled_from(("unit", "H", "A2")))
            if kind == "unit":
                rows = ((draw(st.sampled_from(units)) * p ** e,),)
            else:
                rows = tuple(tuple(2 ** e * x for x in row) for row in
                             (((0, 1), (1, 0)) if kind == "H"
                              else ((2, 1), (1, 2))))
            pieces.append(GramForm(rows))
        G = orthogonal_sum(*pieces)
    else:
        n = draw(st.integers(1, 6))
        entries = iter(draw(st.lists(st.integers(-4, 4), min_size=n * n,
                                     max_size=n * n)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(entries)
        assume(determinant(rows) != 0)
        G = GramForm(tuple(map(tuple, rows)))
    j = draw(st.integers(0, {2: 3, 3: 2, 5: 1, 7: 1}[p]))
    return G, p, draw(st.sampled_from(units)) * p ** j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reduction_cases())
def test_reduction_matches_class_tables(case):
    G, p, m = case
    k0 = local_density(G, p, m).k
    for k in (k0, k0 + 1, k0 + 2):
        assert _level_density(G, p, m, k, "auto", DEFAULT_BUDGET) == \
            reference_level_density(G, p, m, k), k


@st.composite
def deep_sweep_cases(draw):
    """(form, p, m): up to 4 pieces u p^e, p^e H and p^e ((2, 1), (1, 2))
    with e <= 8 (2^e H and 2^e A2 at p = 2), in a random unimodular basis,
    so that v_p(det) reaches 8 and beyond; m = w p^j, j <= 2."""
    p = draw(st.sampled_from((2, 3, 5)))
    units = [u for u in range(-9, 16) if u % p]
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(0, 8))
        kind = draw(st.sampled_from(("unit", "H", "A2")))
        if kind == "unit":
            rows = ((draw(st.sampled_from(units)) * p ** e,),)
        else:
            rows = tuple(tuple(p ** e * x for x in row) for row in
                         (((0, 1), (1, 0)) if kind == "H"
                          else ((2, 1), (1, 2))))
        pieces.append(GramForm(rows))
    G = orthogonal_sum(*pieces)
    if G.n > 1:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        G = transformed(G, random_unimodular(G.n, rng))
    return G, p, draw(st.sampled_from(units)) * p ** draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(deep_sweep_cases())
def test_integer_sweep_at_the_minimal_modulus(case):
    G, p, m = case
    vdet = valuation(G.determinant, p)
    d = 3 if p == 2 else 1
    mod = p ** (vdet + d)

    def steps(modulus):
        return [(v, i, tuple(tuple(x % mod for x in row) for row in block),
                 tuple(tuple(x % p ** d for x in vec) for vec in basis))
                for v, i, block, basis
                in congruence_split(G.matrix, p, modulus)]

    low = steps(mod)
    assert low == steps(mod * p ** 5) == steps(None)
    assert sum(v * len(block) for v, _, block, _ in low) == vdet
    # the basis is exact mod p^d: it carries G to each block mod p^d
    for _, _, block, basis in low:
        got = mat_mul(mat_mul(basis, G.matrix), transpose(basis))
        assert all((x - y) % p ** d == 0 for r, s in zip(got, block)
                   for x, y in zip(r, s))
    if p != 2:  # the Jordan transform is exact mod p^K
        K = 2 * vdet + 1
        low, high = (jordan_decompose_odd(G, p, k) for k in (K, K + 5))
        assert low.transform == tuple(tuple(x % p ** K for x in row)
                                      for row in high.transform)
    auto = local_density(G, p, m)
    try:
        count = local_density(G, p, m, method="count", budget=20_000)
    except BudgetExceeded:
        return
    assert (auto.value, auto.k) == (count.value, count.k)


def test_density_of_2i_plus_j_at_rank_93():
    n = 93
    G = GramForm(tuple(tuple(2 * (i == j) + 1 for j in range(n))
                       for i in range(n)))
    d = local_density(G, 5, 5)
    assert (d.value, d.k, d.method) == (Fraction(
        4038967834731580443708050254247751809089095331728458404541015624,
        5 ** 91), 2, "jordan-blocks")


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
