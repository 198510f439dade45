"""Log-domain arithmetic for magnitudes far past floating-point range.

The construction manipulates quantities like exp(exp(n**1.5 - n**1.2)) that
blow past any floating-point range long before the interesting regime is
reached.  A positive quantity is carried as its natural log, a plain float
(-inf for exact zero), and sums of such logs go through ``log_sum_exp``.
Only a signed sum needs more: ``log_sum_signed`` returns a
:class:`LogScalar`, the pair (log|x|, arg x) of a real x, whose phase is 0
for x >= 0 and pi for x < 0.  Exact zero is log_mag = -inf with phase 0.
``sum_settles`` tells a caller that walks its terms when more of them can
no longer change that sum.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._record import Record, _set

NEG_INF = float("-inf")


class LogScalar(Record):
    """A real number x stored as (log|x|, arg x); immutable.

    ``log_mag`` may be -inf (exact zero, phase forced to 0).  Positive reals
    have phase 0, negative reals phase pi; any other phase raises
    ValueError.
    """

    __slots__ = ("log_mag", "phase")
    _defaults = {"phase": 0.0}

    def __post_init__(self):
        if math.isnan(self.log_mag):
            raise ValueError("log_mag must not be NaN")
        if self.phase != 0.0 and self.phase != math.pi:
            raise ValueError(f"a LogScalar is real: phase must be 0 or pi, got {self.phase!r}")
        if self.log_mag == NEG_INF:
            _set(self, "phase", 0.0)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mag == NEG_INF

    def sign(self) -> int:
        """Sign of a real LogScalar (+1, -1 or 0)."""
        if self.is_zero:
            return 0
        return 1 if self.phase == 0.0 else -1

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

    # One total order: by sign, then by magnitude, the larger magnitude the
    # smaller among negatives.
    def __lt__(self, other: "LogScalar") -> bool:
        sa, sb = self.sign(), other.sign()
        if sa != sb:
            return sa < sb
        if sa > 0:
            return self.log_mag < other.log_mag
        return other.log_mag < self.log_mag


def log_sum_exp(logs: Iterable[float]) -> float:
    """The log of the sum of e**x over the float log magnitudes x of
    ``logs``, by factoring out the maximum, as a float.

    -inf is an exact zero and drops out; a +inf term makes the sum +inf.
    A NaN term raises ValueError in any position.  The empty sum is the
    exact zero, -inf.
    """
    logs = list(logs)
    m = max(logs, default=NEG_INF)
    # a NaN term makes the sum NaN, except that max skips one following an
    # infinity, which the sum then never reads
    total = m if math.isinf(m) else m + math.log(math.fsum(math.exp(x - m) for x in logs))
    if math.isnan(total) or (math.isinf(m) and any(map(math.isnan, logs))):
        raise ValueError("log_sum_exp term must not be NaN")
    return total


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
        return LogScalar(NEG_INF)
    # a NaN term makes acc NaN, which the result's constructor rejects
    acc = math.fsum(s * math.exp(lm - m) for s, lm in terms)
    if acc == 0.0:
        return LogScalar(NEG_INF)
    return LogScalar(m + math.log(abs(acc)), 0.0 if acc > 0 else math.pi)


def sum_settles(terms: Sequence[tuple], m: float, log_rest: float) -> bool:
    """Whether any more terms whose scaled doubles sum to at most
    e**(log_rest - m) in magnitude leave ``log_sum_signed(terms)`` bit for
    bit as it is, where m is the largest log_mag of ``terms`` and no more
    term reaches it.

    ``log_sum_signed`` rounds the exact sum of the scaled doubles
    s e**(log_mag - m) once (``math.fsum``, Shewchuk's exact sum).
    Rounding is monotone, so when that sum rounds alike with
    +e**(log_rest - m) and with -e**(log_rest - m) appended, every exact sum
    between the two ends rounds to the same double, the sum without a rest
    among them (Ziv's rounding test).  A bound whose scaled double
    underflows to 0.0 always settles.  The caller's bound must cover the
    rounding of the rest's scaled doubles.
    """
    scaled = [s * math.exp(lm - m) for s, lm in terms]
    rest = math.exp(log_rest - m)
    return math.fsum(scaled + [rest]) == math.fsum(scaled + [-rest])


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
