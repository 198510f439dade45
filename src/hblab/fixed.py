"""Fixed-point arithmetic on Python integers: hblab's one P-bit layer.

Four things, on machine integers and the standard library only:

* the elementary kernels of the P-bit seeds: pi, ln 2, exp, expm1, and cos
  with sin, each a Taylor (or arctangent) series after argument reduction,
  as in Brent & Zimmermann, *Modern Computer Arithmetic* (2010), 4.3-4.4;
* round-half-even of an exact m 2^e to P significant bits;
* ``PBit``, a P-bit real number (mantissa, exponent) with ``float``, an
  exact total order, a correctly rounded quotient and a log10 from
  ``decimal``;
* the aligned-mantissa sums: ``fixed_mantissas`` puts numbers on one scale
  2^e, and ``fixed_dot`` and ``fixed_toeplitz`` sum their products
  exactly; the callers round each sum once, half-even, with ``to_pbit``.

A fixed-point number at precision p is an integer X standing for X 2^-p;
"within c units" means |X - x 2^p| <= c.  Every bound below is counted in
its docstring, and the tests hold each against an independent reference
at 64 more bits.

``taylor`` and the coefficient experiments import this module; the
float-only verbs never do, and ``hb`` and ``series`` compute in floats.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

_HASH_MODULUS = sys.hash_info.modulus


def float_fixed(x: float, prec: int) -> int:
    """floor(x 2^prec) of a finite float, exactly."""
    m, e = math.frexp(x)
    return floor_shift(int(m * 2.0**53), e - 53 + prec)


def floor_shift(x: int, s: int) -> int:
    """floor(x 2^s)."""
    return x << s if s >= 0 else x >> -s


def _guard(prec: int) -> int:
    """Guard bits g with 2^g > 16 prec + 1024, so that a series of at most
    prec + g terms, each within a few units, leaves less than a unit after
    the final shift by g (for g <= 100)."""
    return (16 * prec + 1024).bit_length()


def _arc_inv(n: int, q: int, sign: int) -> int:
    """atan(1/n) 2^q for sign -1, atanh(1/n) 2^q for sign 1: the series
    sum_k sign^k n^-(2k+1) / (2k + 1), within 2K + 2 units, K the number
    of terms (at most q / (2 log2 n) + 1).  Each power and term is one
    floor (the powers stay within 1.05 units, each term within 2), and the
    tail after the last nonzero power is below 1.05 units when the terms
    alternate and below 1.2 units when they do not."""
    power = (1 << q) // n
    total, k, n2 = power, 1, n * n
    while power:
        power //= n2
        term = power // (2 * k + 1)
        total += -term if sign < 0 and k & 1 else term
        k += 1
    return total


@functools.lru_cache(maxsize=32)
def pi_fixed(prec: int) -> int:
    """pi 2^prec within 2 units, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)
    at prec + g bits: 16 (2 K_5 + 2) + 4 (2 K_239 + 2) < 8 (prec + g) + 128
    < 2^g units there, below one unit after the shift, which floors."""
    g = _guard(prec)
    q = prec + g
    return (16 * _arc_inv(5, q, -1) - 4 * _arc_inv(239, q, -1)) >> g


@functools.lru_cache(maxsize=32)
def ln2_fixed(prec: int) -> int:
    """ln 2 2^prec within 2 units, as 2 atanh(1/3) at prec + g bits:
    2 (2 K_3 + 2) < 2 (prec + g) + 8 < 2^g units there, below one unit
    after the shift, which floors."""
    g = _guard(prec)
    return (2 * _arc_inv(3, prec + g, 1)) >> g


def _taylor_terms(y: int, q: int):
    """(k, term_k) for k = 1, 2, ... up to the first zero term, which it
    yields too, with term_0 = 2^q and
    term_k = floor(floor(term_(k-1) y / 2^q) / k): the Taylor terms of
    e^(y 2^-q) at fixed point q.  Each is two floors from the one before,
    so where |y 2^-q| <= 1/2, as at both callers, each is within 4 units of
    its exact value for this y, and there are at most q.  ``exp_fixed``
    sums them all; ``cos_sin_fixed`` takes them by the parity and sign of
    k."""
    term, k = 1 << q, 1
    while term:
        term = ((term * y) >> q) // k
        yield k, term
        k += 1


def exp_fixed(x: int, prec: int) -> tuple:
    """(y, n) with e^(x 2^-prec) = (y + d) 2^(n - prec), |d| <= 2 and
    y 2^-prec in [0.7, 1.42]: the result to relative 3 2^-prec, any x.

    n = round(x / ln 2) from ln 2 on 64 bits more than x has integer bits,
    so |r| <= 0.35 (plus 2^-60) for r = x - n ln 2, formed at
    q = prec + g bits from ln 2 within 2 units: r is within 2|n| units.
    r is halved s = max(2, isqrt(prec) / 2) times (one floor), the Taylor
    series of e^(r / 2^s) runs to its last nonzero term (each term within
    4 units, the series within 4K + 2 units, K <= q terms, plus
    1.5 (1 + 2|n| / 2^s) from the halved r), and s squarings, each one
    floor, carry that error E_0 to at most 2^(s+1) (E_0 + 1) units.  With
    g = s + 2 + bitlen(4q + 4|n| + 8), rounded up so that q is a multiple
    of 32 (ln 2 is then computed once for nearby precisions), the shift by
    g leaves below half a unit, plus one for its floor.
    """
    t = max(x.bit_length() - prec, 0) + 64
    ln2 = ln2_fixed(t)
    n = (2 * floor_shift(x, t - prec) + ln2) // (2 * ln2)
    s = max(2, math.isqrt(prec) // 2)
    g = s + 2 + (4 * prec + 4 * 256 + 4 * abs(n) + 8).bit_length()
    g += -(prec + g) % 32
    q = prec + g
    r = (x << g) - n * ln2_fixed(q)
    total = (1 << q) + sum(term for _, term in _taylor_terms(r >> s, q))
    for _ in range(s):
        total = (total * total) >> q
    return total >> g, n


def expm1_fixed(x: int, prec: int) -> int:
    """(e^(x 2^-prec) - 1) 2^prec within 2 units, for x <= 0.

    ``exp_fixed`` at q = prec + g bits, less one.  For every x <= 0 its n
    is at most 0, so e^x 2^q = (y + d) 2^n, |d| <= 2, is placed by a right
    shift: its 2 units shrink by 2^n and the shift floors once, within
    3 units at q, and 1 = 2^q exactly.  3 < 2^g leaves below one unit at
    prec before the last floor.  The bound is absolute: a small |x| gives
    a small result with fewer significant bits, and the caller adds the
    bits it lacks (Brent & Zimmermann, 4.3).
    """
    g = _guard(prec)
    q = prec + g
    y, n = exp_fixed(x << g, q)
    return (floor_shift(y, n) - (1 << q)) >> g


def cos_sin_fixed(x: int, prec: int) -> tuple:
    """(cos, sin) of x 2^-prec, |x 2^-prec| <= 2, each within 2 units.

    At q = prec + g bits the argument is halved s = max(2, isqrt(prec) / 2)
    times (one floor, a unit of argument), one Taylor series gives both at
    |y| <= 2^(1-s) (each term within 4 units, K <= q terms: E_0 <= 4q + 3),
    and s doublings, sin 2y = 2 sin y cos y and cos 2y = cos^2 y - sin^2 y
    with |cos| + |sin| <= 1.5, each one floor, multiply the error by at
    most 4 and add 1: E_s <= 4^s (4q + 4).  With g = 2s + 2 + bitlen(4q + 4)
    that is below a quarter unit after the shift by g, plus one for its
    floor.
    """
    s = max(2, math.isqrt(prec) // 2)
    g = 2 * s + 2 + (4 * prec + 4 * 256 + 4).bit_length()
    q = prec + g
    c, sn = 1 << q, 0
    for k, term in _taylor_terms((x << g) >> s, q):
        if k & 1:
            sn += -term if k & 2 else term
        else:
            c += -term if k & 2 else term
    for _ in range(s):
        c, sn = (c * c - sn * sn) >> q, (c * sn) >> (q - 1)
    return c >> g, sn >> g


# -- P-bit numbers ---------------------------------------------------------


def round_half_even(man: int, exp: int, bits: int) -> tuple:
    """(m, e): man 2^exp rounded to ``bits`` significant bits, to nearest
    with ties to an even mantissa, and normalized as mpmath normalizes:
    m odd, or (0, 0) for zero.  The rounding of mpmath's
    ``from_man_exp(man, exp, bits, round_nearest)``, bit for bit."""
    if not man:
        return 0, 0
    a = -man if man < 0 else man
    drop = a.bit_length() - bits
    if drop > 0:
        t = a >> (drop - 1)
        if t & 1 and (t & 2 or a & ((1 << (drop - 1)) - 1)):
            a = (t >> 1) + 1
        else:
            a = t >> 1
        exp += drop
    zeros = (a & -a).bit_length() - 1
    a >>= zeros
    return (-a if man < 0 else a), exp + zeros


def to_pbit(man: int, exp: int, bits: int) -> "PBit":
    """man 2^exp rounded once, half-even, to a ``bits``-bit ``PBit``."""
    return PBit(*round_half_even(man, exp, bits))


def _man_exp(x) -> tuple:
    """(m, e) with x = m 2^e exactly, for a PBit, an int or a finite float:
    the one reader of a number's mantissa and exponent.  Any other type
    raises TypeError rather than being read through a rounding to float."""
    if isinstance(x, PBit):
        return x.man, x.exp
    if isinstance(x, int):
        return x, 0
    if not isinstance(x, float):
        raise TypeError(f"expected a PBit, an int or a float, got {type(x).__name__}")
    m, e = math.frexp(x)
    return int(m * 2.0**53), e - 53


def fixed_mantissas(xs) -> tuple:
    """Integers m_i and one exponent e with xs[i] = m_i 2^e exactly, each
    number read by ``_man_exp``: every mantissa aligned to the smallest
    exponent of a nonzero one, so a dot product of two aligned sequences
    is one integer sum (``fixed_dot``)."""
    pairs = [_man_exp(x) for x in xs]
    low = min((e for m, e in pairs if m), default=0)
    return [m << (e - low) if m else 0 for m, e in pairs], low


def fixed_dot(xs, ys) -> int:
    """sum_i xs[i] ys[i] over integer mantissas on one scale, exact; zip
    stops at the shorter sequence, so either may be a stream."""
    return sum(map(operator.mul, xs, ys))


def fixed_toeplitz(hs, fs) -> list:
    """sum_j hs[j] fs[k+j] for k = 0..len(fs)-1, the coefficients of T_h-bar f
    for a real symbol, as exact integers over mantissas on one scale each
    (``fixed_mantissas``), so on the product of the two scales, unrounded;
    each sum stops at the shorter sequence."""
    return [fixed_dot(fs[k:], hs) for k in range(len(fs))]


def quotient(a, b, bits: int) -> "PBit":
    """a / b correctly rounded, half-even, to ``bits`` bits, for PBits and
    ints (b nonzero): mpmath's ``mpf_div`` at ``bits`` and round_nearest,
    bit for bit.  The exact quotient is carried to at least bits + 2 bits
    with one sticky bit for a nonzero remainder, so the one rounding sees
    whether it lies below, at or above a half."""
    (ma, ea), (mb, eb) = _man_exp(a), _man_exp(b)
    if not mb:
        raise ZeroDivisionError("quotient by zero")
    shift = bits + 2 + max(0, mb.bit_length() - ma.bit_length())
    q, r = divmod(abs(ma) << shift, abs(mb))
    q = (q << 1) | bool(r)
    if (ma < 0) != (mb < 0):
        q = -q
    return to_pbit(q, ea - eb - shift - 1, bits)


def log10(x: "PBit", bits: int) -> float:
    """log10 x of a positive PBit, correctly rounded by ``decimal`` to
    ceil(0.30103 bits) + 2 >= bits log10 2 + 2 digits, then to the nearest
    double.  For
    ``bits`` >= 64, as every P-bit report has (``phi_hat_series`` asks for
    64 bits at least), it differs from mpmath's float(log10) at ``bits``
    only where the true value lies within one of those roundings of a
    double midpoint."""
    import decimal

    if x.man <= 0:
        raise ValueError(f"log10 of a non-positive number {x!r}")
    # m 2^e = m 5^-e 10^e, an exact decimal
    exact = decimal.Decimal(x.man << x.exp if x.exp >= 0 else f"{x.man * 5 ** -x.exp}E{x.exp}")
    digits = -(-bits * 30103 // 100000) + 2
    context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return float(context.log10(exact))


class PBit:
    """A real number man 2^exp, its mantissa made odd (normalized) on
    construction, as hblab's P-bit routes return it: exact, ordered and
    hashable as the rational it is.  ``float`` rounds it as mpmath does:
    to 53 bits, to nearest with ties to even, which is the nearest double
    down to 2^-1022; below that the 53-bit value is rounded again, to the
    subnormal grid, so ``float(PBit(2**59 + 1, -1134))`` is 0.0 where the
    nearest double is 5e-324.  No report floats a subnormal PBit.  It has
    no arithmetic: hblab's P-bit routes read (man, exp) and sum integers.

    ``_mpf_`` is the raw tuple (sign, mantissa, exponent, bit count) of
    the same value, the interchange form of mpmath, which therefore
    accepts a PBit wherever it accepts an mpf (``mp.mpf``, ``mp.log``).  It
    is there for that interchange only: hblab itself reads a PBit through
    ``_man_exp``.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int):
        if man and not man & 1:
            zeros = (man & -man).bit_length() - 1
            man, exp = man >> zeros, exp + zeros
        self.man, self.exp = man, (exp if man else 0)

    @property
    def _mpf_(self) -> tuple:
        m = self.man
        return (int(m < 0), abs(m), self.exp, abs(m).bit_length())

    def __float__(self) -> float:
        m, e = round_half_even(self.man, self.exp, 53)
        try:
            return math.ldexp(m, e)
        except OverflowError:
            return math.copysign(math.inf, m)

    def __bool__(self) -> bool:
        return self.man != 0

    def __repr__(self) -> str:
        return f"PBit({self.man}, {self.exp})"

    def __hash__(self) -> int:
        # Python's hash of the rational man 2^exp, as int, float and mpf hash it
        h = abs(self.man) % _HASH_MODULUS * pow(2, self.exp, _HASH_MODULUS) % _HASH_MODULUS
        h = -h if self.man < 0 else h
        return -2 if h == -1 else h

    def _cmp(self, other):
        """Sign of self - other, exactly (NaN against a NaN, so that every
        comparison is False), or None for an operand this type does not
        compare (mpmath then compares through ``_mpf_``)."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return math.nan if math.isnan(other) else (-1 if other > 0 else 1)
        elif not isinstance(other, (PBit, int)):
            return None
        (ma, ea), (mb, eb) = (self.man, self.exp), _man_exp(other)
        low = min(ea, eb)
        d = (ma << (ea - low)) - (mb << (eb - low))
        return (d > 0) - (d < 0)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

