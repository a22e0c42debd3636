"""Certified interval arithmetic with exact rational endpoints.

Field operations on intervals are carried out exactly in Fraction
arithmetic, so they introduce no rounding at all. Square roots are
bracketed with integer isqrt at a requested bit count. The handful of
transcendental values needed elsewhere (pi, e, exp, log) are evaluated by
mpmath's outward-rounded interval context and their endpoints pulled back
into Fractions exactly, so every Interval produced here is a certified
enclosure. mpmath is imported on the first transcendental call, so code
that never evaluates one never loads it. The working precision defaults to
128 bits and is set through the QF_PRECISION_BITS environment variable or a
`bits` argument; either must be a positive integer.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import isqrt

DEFAULT_PRECISION_BITS = 128


def precision_bits(bits: int | None = None) -> int:
    """Working precision in bits: `bits` when given, else QF_PRECISION_BITS
    when set, else DEFAULT_PRECISION_BITS.  A count that is not a positive
    integer raises ValueError."""
    if bits is None:
        raw = os.environ.get("QF_PRECISION_BITS", DEFAULT_PRECISION_BITS)
        try:
            bits = int(raw)
        except ValueError:
            raise ValueError(
                f"QF_PRECISION_BITS must be an integer, got {raw!r}") from None
    if bits <= 0:
        raise ValueError(f"precision must be a positive bit count, got {bits}")
    return bits


class Interval:
    """A closed interval [lo, hi] with Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if isinstance(lo, float) or isinstance(hi, float):
            raise TypeError("interval endpoints must be exact, not float")
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- construction ------------------------------------------------------

    @staticmethod
    def point(x) -> "Interval":
        return Interval(x)

    # -- predicates --------------------------------------------------------

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- exact field operations -------------------------------------------

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_interval(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        quots = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quots), max(quots))

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def square(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            return Interval(0, max(self.lo * self.lo, self.hi * self.hi))
        a, b = self.lo * self.lo, self.hi * self.hi
        return Interval(min(a, b), max(a, b))

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            return Interval(1) / self.pow_int(-k)
        out = Interval(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base.square()
        return out

    # -- rounding and roots --------------------------------------------------

    def round_out(self, bits: int) -> "Interval":
        """Outward dyadic rounding; keeps endpoint sizes bounded, stays sound."""
        s = 1 << bits
        lo = Fraction(_floor_frac(self.lo * s), s)
        hi = Fraction(_ceil_frac(self.hi * s), s)
        return Interval(lo, hi)

    def sqrt(self, bits: int | None = None) -> "Interval":
        """Certified square root bracket via integer isqrt at 2^bits scaling."""
        if self.lo < 0:
            raise ValueError("sqrt of an interval with negative points")
        bits = precision_bits(bits)
        return Interval(_sqrt_lower(self.lo, bits), _sqrt_upper(self.hi, bits))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(x)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _sqrt_lower(x: Fraction, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = 1 << bits
    n = (x.numerator * s * s) // x.denominator
    return Fraction(isqrt(n), s)


def _sqrt_upper(x: Fraction, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = 1 << bits
    n = -((-x.numerator * s * s) // x.denominator)  # ceil(x * s^2)
    r = isqrt(n)
    if r * r < n:
        r += 1
    return Fraction(r, s)


# ---------------------------------------------------------------------------
# mpmath bridge for transcendental enclosures
# ---------------------------------------------------------------------------


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite endpoint from mpmath")
    v = Fraction(man) * (Fraction(2) ** int(exp))
    return -v if sign else v


def _from_iv(x) -> Interval:
    a, b = x._mpi_
    return Interval(_mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b))


def _to_iv(x: Interval, iv):
    lo = iv.mpf(x.lo.numerator) / iv.mpf(x.lo.denominator)
    hi = iv.mpf(x.hi.numerator) / iv.mpf(x.hi.denominator)
    # iv.mpf([a, b]) keeps a's lower and b's upper endpoint exactly
    return iv.mpf([lo, hi])


class _IvPrecision:
    """mpmath's interval context at `bits` for one evaluation; the only
    place mpmath is imported, on the first transcendental call."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        from mpmath import iv
        self.iv, self.saved = iv, iv.prec
        iv.prec = self.bits
        return iv

    def __exit__(self, *exc):
        self.iv.prec = self.saved


def pi_interval(bits: int | None = None) -> Interval:
    with _IvPrecision(precision_bits(bits)) as iv:
        return _from_iv(+iv.pi)


def e_interval(bits: int | None = None) -> Interval:
    with _IvPrecision(precision_bits(bits)) as iv:
        return _from_iv(+iv.e)


def exp_interval(x: Interval, bits: int | None = None) -> Interval:
    with _IvPrecision(precision_bits(bits)) as iv:
        return _from_iv(iv.exp(_to_iv(x, iv)))


def log_interval(x: Interval, bits: int | None = None) -> Interval:
    if x.lo <= 0:
        raise ValueError("log needs a strictly positive interval")
    with _IvPrecision(precision_bits(bits)) as iv:
        return _from_iv(iv.log(_to_iv(x, iv)))


def acosh_interval(x: Interval, bits: int | None = None) -> Interval:
    """acosh over [1, inf), as log(x + sqrt(x^2 - 1))."""
    if x.lo < 1:
        raise ValueError("acosh needs an interval inside [1, inf)")
    inner = x + (x.square() - 1).sqrt(bits)
    return log_interval(inner, bits)


def pow_half_integer(x: Interval, half_exponent: int, bits: int | None = None) -> Interval:
    """x^(half_exponent / 2) for x >= 0, certified."""
    if x.lo < 0:
        raise ValueError("half-integer powers need a nonnegative interval")
    if half_exponent % 2 == 0:
        return x.pow_int(half_exponent // 2)
    if half_exponent > 0:
        return x.pow_int(half_exponent // 2) * x.sqrt(bits)
    # negative odd: x^(k/2) = 1 / x^(-k/2)
    return Interval(1) / pow_half_integer(x, -half_exponent, bits)
