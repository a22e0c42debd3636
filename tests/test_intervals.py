import math
import random
from fractions import Fraction

import pytest

from qflat.intervals import (
    Interval,
    acosh_interval,
    e_interval,
    exp_interval,
    log_interval,
    pi_interval,
    pow_half_integer,
    precision_bits,
)


def test_exact_field_ops():
    a = Interval(Fraction(1, 3))
    b = Interval(Fraction(1, 7))
    assert (a + b).is_point() and (a + b).lo == Fraction(10, 21)
    assert (a * b).lo == Fraction(1, 21)
    assert (a - b).lo == Fraction(4, 21)
    assert (a / b).lo == Fraction(7, 3)


def test_mul_sign_cases():
    a = Interval(-2, 3)
    b = Interval(-5, 1)
    prod = a * b
    # endpoints achieved at corner products
    assert prod.lo == -15 and prod.hi == 10
    assert a.square().lo == 0 and a.square().hi == 9


def test_division_guard():
    with pytest.raises(ZeroDivisionError):
        Interval(1, 2) / Interval(-1, 1)


def test_sqrt_certified():
    s = Interval(2).sqrt(128)
    assert s.lo * s.lo <= 2 <= s.hi * s.hi
    assert s.width < Fraction(1, 2**100)
    z = Interval(0, 4).sqrt(64)
    assert z.lo == 0 and z.hi * z.hi >= 4


def test_round_out_sound():
    rng = random.Random(2)
    for _ in range(200):
        lo = Fraction(rng.randint(-1000, 1000), rng.randint(1, 997))
        hi = lo + Fraction(rng.randint(0, 50), rng.randint(1, 997))
        x = Interval(lo, hi)
        r = x.round_out(20)
        assert r.lo <= x.lo and x.hi <= r.hi
        assert r.lo.denominator <= 2**20


def test_pi_enclosure():
    p = pi_interval(128)
    # 40-digit two-sided reference bracket around pi
    ref_lo = Fraction("3.141592653589793238462643383279502884197")
    ref_hi = Fraction("3.141592653589793238462643383279502884198")
    assert p.lo < ref_hi and p.hi > ref_lo
    assert p.lo > Fraction(223, 71) and p.hi < Fraction(355, 113)
    assert p.width < Fraction(1, 2**96)


def test_e_enclosure():
    e = e_interval(128)
    ref_lo = Fraction("2.718281828459045235360287471352662497757")
    ref_hi = Fraction("2.718281828459045235360287471352662497758")
    assert e.lo < ref_hi and e.hi > ref_lo


def test_exp_log_round_trip():
    for q in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        x = Interval(q)
        back = log_interval(exp_interval(x))
        assert back.lo <= q <= back.hi
        assert back.width < Fraction(1, 2**90)


def test_log_guard():
    with pytest.raises(ValueError):
        log_interval(Interval(-1, 2))


def test_acosh_values():
    # acosh(1) = 0
    z = acosh_interval(Interval(1))
    assert z.contains(0) and z.width < Fraction(1, 2**60)
    # acosh(cosh(1)) ~ 1: cosh(1) enclosed via exp
    e1 = exp_interval(Interval(1))
    c = (e1 + Interval(1) / e1) / 2
    d = acosh_interval(c)
    assert d.contains(1)


def test_acosh_against_float():
    rng = random.Random(9)
    for _ in range(30):
        q = Fraction(rng.randint(1001, 4000), 1000)
        d = acosh_interval(Interval(q))
        ref = math.acosh(float(q))
        assert d.lo <= Fraction(ref).limit_denominator(10**12) + Fraction(1, 10**6)
        assert float(d.lo) <= ref + 1e-9 and ref - 1e-9 <= float(d.hi)


def test_pow_half_integer():
    x = Interval(4)
    assert pow_half_integer(x, 3).contains(8)
    assert pow_half_integer(x, -1).contains(Fraction(1, 2))
    y = pow_half_integer(Interval(2), 39)
    # 2^19.5 = 2^19 * sqrt(2)
    ref = Interval(2**19) * Interval(2).sqrt(128)
    assert not y.disjoint(ref)
    assert y.width / y.lo < Fraction(1, 2**90)


def test_precision_env(monkeypatch):
    monkeypatch.delenv("QF_PRECISION_BITS", raising=False)
    assert precision_bits() == 128
    monkeypatch.setenv("QF_PRECISION_BITS", "256")
    assert precision_bits() == 256
    monkeypatch.setenv("QF_PRECISION_BITS", "junk")
    with pytest.raises(ValueError):
        precision_bits()


def test_precision_bits_argument(monkeypatch):
    monkeypatch.setenv("QF_PRECISION_BITS", "256")
    assert precision_bits(64) == 64
    for bad in (0, -4):
        with pytest.raises(ValueError):
            precision_bits(bad)
    with pytest.raises(ValueError):
        Interval(2).sqrt(0)
    with pytest.raises(ValueError):
        pi_interval(-1)


def test_float_endpoints_rejected():
    for args in [(0.1,), (0, 0.5), (0.5, 1)]:
        with pytest.raises(TypeError):
            Interval(*args)
    with pytest.raises(TypeError):
        Interval(1) + 0.5
    assert Interval("0.1").lo == Fraction(1, 10)
