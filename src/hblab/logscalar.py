"""Overflow-safe scalars stored as natural-log magnitude plus a phase.

The construction manipulates quantities like exp(exp(n**1.5 - n**1.2)) that
blow past any floating-point range long before the interesting regime is
reached, so every magnitude-carrying value in the library is a
:class:`LogScalar`: the pair (log|x|, arg x).  Exact zero is log_mag = -inf
with canonical phase 0.  Phases live in (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

_TAU = 2.0 * math.pi
NEG_INF = float("-inf")


def wrap_phase(theta: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    t = math.remainder(theta, _TAU)
    if t <= -math.pi:
        t += _TAU
    return t


@dataclass(frozen=True)
class LogScalar:
    """A number x stored as (log|x|, arg x); immutable.

    ``log_mag`` may be -inf (exact zero, phase forced to 0).  Positive reals
    have phase 0, negative reals phase pi.
    """

    log_mag: float
    phase: float = 0.0

    def __post_init__(self):
        if math.isnan(self.log_mag):
            raise ValueError("log_mag must not be NaN")
        if self.log_mag == NEG_INF:
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "phase", wrap_phase(self.phase))

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

    @property
    def is_positive_real(self) -> bool:
        return self.phase == 0.0 and not self.is_zero

    @property
    def is_negative_real(self) -> bool:
        return self.phase == math.pi

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

    def to_mpf(self, ctx):
        """Convert a real LogScalar to an mpmath number under context *ctx*."""
        s = self.sign()
        if s == 0:
            return ctx.mpf(0)
        return s * ctx.exp(ctx.mpf(self.log_mag))

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

    # Ordering is defined for nonnegative reals only (all the data we order).
    def _cmp_key(self) -> float:
        s = self.sign()
        if s < 0:
            raise ValueError("ordering defined for nonnegative LogScalars only")
        return self.log_mag

    def __lt__(self, other: "LogScalar") -> bool:
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other: "LogScalar") -> bool:
        return self._cmp_key() <= other._cmp_key()


def log_sum_exp(terms: Iterable[LogScalar]) -> LogScalar:
    """Sum of nonnegative LogScalars, computed by factoring out the maximum.

    Raises ValueError if any term has a nonzero phase; the empty sum is the
    exact zero.
    """
    logs = []
    for t in terms:
        if t.is_zero:
            continue
        if t.phase != 0.0:
            raise ValueError("log_sum_exp requires nonnegative terms")
        logs.append(t.log_mag)
    if not logs:
        return LogScalar.zero()
    m = max(logs)
    if m == math.inf:
        return LogScalar(math.inf)
    acc = math.fsum(math.exp(x - m) for x in logs)
    return LogScalar(m + math.log(acc))


def log_sum_signed(terms: Sequence[LogScalar]) -> LogScalar:
    """Sum of real (possibly negative) LogScalars via max-factoring.

    Accuracy is limited by cancellation among the leading terms, which is
    inherent to any fixed-precision signed accumulation.
    """
    live = [(t.sign(), t.log_mag) for t in terms if not t.is_zero]
    if not live:
        return LogScalar.zero()
    m = max(lm for _, lm in live)
    acc = math.fsum(s * math.exp(lm - m) for s, lm in live)
    if acc == 0.0:
        return LogScalar.zero()
    if acc > 0:
        return LogScalar(m + math.log(acc))
    return LogScalar(m + math.log(-acc), math.pi)


def log1p_exp(x: float) -> float:
    """log(1 + e**x), stable for any x."""
    if x > 36.0:
        return x + math.exp(-x)
    if x < -36.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def log_add_exp(a: float, b: float) -> float:
    """log(e**a + e**b), stable for any a, b; either may be -inf."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == NEG_INF:
        return hi
    return hi + log1p_exp(lo - hi)


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
