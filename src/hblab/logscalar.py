"""Overflow-safe scalars stored as natural-log magnitude plus a phase.

The construction manipulates quantities like exp(exp(n**1.5 - n**1.2)) that
blow past any floating-point range long before the interesting regime is
reached, so every magnitude-carrying value in the library is a
:class:`LogScalar`: the pair (log|x|, arg x).  Exact zero is log_mag = -inf
with canonical phase 0.  Phases live in (-pi, pi].
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._record import Record, _set

_TAU = 2.0 * math.pi
NEG_INF = float("-inf")


def wrap_phase(theta: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    t = math.remainder(theta, _TAU)
    if t <= -math.pi:
        t += _TAU
    return t


class LogScalar(Record):
    """A number x stored as (log|x|, arg x); immutable.

    ``log_mag`` may be -inf (exact zero, phase forced to 0).  Positive reals
    have phase 0, negative reals phase pi.
    """

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag: float, phase: float = 0.0):
        _set(self, "log_mag", log_mag)
        _set(self, "phase", phase)
        self.__post_init__()

    def __post_init__(self):
        if math.isnan(self.log_mag):
            raise ValueError("log_mag must not be NaN")
        if self.log_mag == NEG_INF:
            _set(self, "phase", 0.0)
        else:
            _set(self, "phase", wrap_phase(self.phase))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogScalar":
        return LogScalar(NEG_INF)

    @staticmethod
    def one() -> "LogScalar":
        return LogScalar(0.0)

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        if x == 0.0:
            return LogScalar.zero()
        if x > 0:
            return LogScalar(math.log(x))
        return LogScalar(math.log(-x), math.pi)

    @staticmethod
    def exp_of(x: float) -> "LogScalar":
        """The positive number e**x, for x of any magnitude."""
        return LogScalar(x)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mag == NEG_INF

    def sign(self) -> int:
        """Sign of a real LogScalar (+1, -1 or 0)."""
        if self.is_zero:
            return 0
        if self.phase == 0.0:
            return 1
        if self.phase == math.pi:
            return -1
        raise ValueError(f"not a real LogScalar (phase={self.phase})")

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Magnitude-with-sign as an ordinary float; overflows to +-inf."""
        s = self.sign()
        if s == 0:
            return 0.0
        try:
            return s * math.exp(self.log_mag)
        except OverflowError:
            return s * math.inf

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        if self.is_zero or other.is_zero:
            return LogScalar.zero()
        return LogScalar(self.log_mag + other.log_mag, self.phase + other.phase)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.is_zero:
            raise ZeroDivisionError("LogScalar division by zero")
        if self.is_zero:
            return LogScalar.zero()
        return LogScalar(self.log_mag - other.log_mag, self.phase - other.phase)

    def __pow__(self, k: float) -> "LogScalar":
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("0 ** nonpositive power")
            return LogScalar.zero()
        return LogScalar(k * self.log_mag, k * self.phase)

    def __neg__(self) -> "LogScalar":
        if self.is_zero:
            return self
        return LogScalar(self.log_mag, self.phase + math.pi)

    def __abs__(self) -> "LogScalar":
        return LogScalar(self.log_mag)

    # One total order on real LogScalars: by sign, then by magnitude, the
    # larger magnitude the smaller among negatives; a complex one raises.
    def __lt__(self, other: "LogScalar") -> bool:
        sa, sb = self.sign(), other.sign()
        if sa != sb:
            return sa < sb
        if sa > 0:
            return self.log_mag < other.log_mag
        return other.log_mag < self.log_mag

    def __le__(self, other: "LogScalar") -> bool:
        return not other < self


def log_sum_exp(logs: Iterable[float]) -> LogScalar:
    """The sum of e**x over the float log magnitudes x of ``logs``, by
    factoring out the maximum.

    -inf is an exact zero and drops out; a +inf term makes the sum +inf.
    A NaN term raises ValueError in any position.  The empty sum is the
    exact zero.  The result is the one LogScalar the sum builds.
    """
    logs = list(logs)
    m = max(logs, default=NEG_INF)
    if m == math.inf or m == NEG_INF:
        # max skips a NaN that follows an infinity, so look for it here
        if any(math.isnan(x) for x in logs):
            raise ValueError("log_sum_exp term must not be NaN")
        return LogScalar(m)
    # a NaN term makes acc NaN, which the result's constructor rejects
    acc = math.fsum(math.exp(x - m) for x in logs)
    return LogScalar(m + math.log(acc))


def log_sum_signed(terms: Sequence[tuple]) -> LogScalar:
    """Sum of real terms, each a (sign, log_mag) pair with sign +-1, via
    max-factoring.

    A log_mag of -inf is an exact zero and drops out; a NaN log_mag raises
    ValueError in any position.  Accuracy is limited by cancellation among
    the leading terms, which is inherent to any fixed-precision signed
    accumulation.
    """
    m = max((lm for _, lm in terms), default=NEG_INF)
    if m == NEG_INF:
        if any(math.isnan(lm) for _, lm in terms):
            raise ValueError("log_sum_signed term must not be NaN")
        return LogScalar.zero()
    # a NaN term makes acc NaN, which the result's constructor rejects
    acc = math.fsum(s * math.exp(lm - m) for s, lm in terms)
    if acc == 0.0:
        return LogScalar.zero()
    if acc > 0:
        return LogScalar(m + math.log(acc))
    return LogScalar(m + math.log(-acc), math.pi)


def log1p_exp(x: float) -> float:
    """log(1 + e**x), stable for any x.

    Above 36 the value is x + e**-x, and that sum rounds to x in doubles:
    e**-36 = 2.3e-16 lies below half an ulp of any x >= 32 (3.6e-15).  So x
    itself is returned, the same float without the exp, and every caller
    keeps its bits.
    """
    if x > 36.0:
        return x
    if x < -36.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def log_add_exp(a: float, b: float) -> float:
    """log(e**a + e**b), stable for any a, b; either may be -inf."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == NEG_INF:
        return hi
    return hi + log1p_exp(lo - hi)


def log1m_product(a: float, b: float) -> float:
    """log(1 - x y) from a = log(1 - x) and b = log(1 - y), x and y in
    [0, 1): 1 - x y = (1 - x) + x (1 - y) adds two nonnegative terms, so
    nothing cancels however close x and y are to 1.  Where e**a rounds to
    1.0 (a above about -1.1e-16), log x is taken as log(-expm1(a)); a = 0
    gives x = 0 and the value a."""
    e = math.exp(max(a, -745.0))
    if e != 1.0:
        return log_add_exp(a, b + math.log1p(-e))
    return a if a == 0.0 else log_add_exp(a, b + math.log(-math.expm1(a)))


def log_diff_exp(a: float, b: float) -> float:
    """log(e**a - e**b) for a > b; -inf when equal."""
    if b > a:
        raise ValueError("log_diff_exp requires a >= b")
    if a == b:
        return NEG_INF
    d = b - a
    return a + math.log(-math.expm1(d))


def clog1p(w: complex) -> complex:
    """log(1 + w) for complex w off the ray (-inf, -1], without
    cancellation near w = 0."""
    re, im = w.real, w.imag
    return complex(
        0.5 * math.log1p(2.0 * re + re * re + im * im),
        math.atan2(im, 1.0 + re),
    )
