"""Construction of the half-plane outer function and its disk pullback.

The boundary datum is a sum of indicator steps on intervals [2t_k, 3t_k] of
the positive real axis with heights eps_k / t_k, where

    w_n = 1 - exp(-n**beta),   rho_n = exp(-n**alpha),
    t_k = (1 - w_k**2) / (1 + w_k**2),
    eps_k = ((1 - w_k) / (1 - w_{k+1})) * rho_k.

The Herglotz integral of a step datum has a closed form per interval, so the
outer function is evaluated exactly (no grids).  On the positive imaginary
axis everything reduces to arctangent differences, which this module also
provides in a fully log-domain form that remains valid when t_k, u_n, v_n
underflow every floating-point format.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from ._record import Record, _set
from .logscalar import (
    LogScalar,
    clog1p,
    log1p_exp,
    log_add_exp,
    log_diff_exp,
    log_sum_exp,
    log_sum_signed,
)

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LN6 = math.log(6.0)
_LNPI = math.log(math.pi)


class ParameterError(ValueError):
    """Invalid construction or experiment parameters."""


class GrowthBoundError(RuntimeError):
    """No power of the outer function satisfies the radial growth bound.

    Raised with a per-interval table of the best (least favourable) measured
    log-ratio against the required bound.
    """

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table or []


class PrecisionExhausted(RuntimeError):
    """The requested computation needs more mantissa bits than configured."""


class ConstructionParams(Record):
    """Parameters of the construction; requires 1 < alpha < beta < alpha + 1."""

    __slots__ = ("alpha", "beta", "n_terms", "power_m", "precision_bits", "n_check")

    def __init__(
        self,
        alpha: float,
        beta: float,
        n_terms: int = 8,
        power_m: "int | str" = "auto",
        precision_bits: int = 53,
        n_check: int = 5,
    ):
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "n_terms", n_terms)
        _set(self, "power_m", power_m)
        _set(self, "precision_bits", precision_bits)
        _set(self, "n_check", n_check)
        if not (1.0 < self.alpha < self.beta < self.alpha + 1.0):
            raise ParameterError(
                f"need 1 < alpha < beta < alpha+1, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.n_terms < 2:
            raise ParameterError("n_terms must be at least 2")
        if not (1 <= self.n_check <= self.n_terms - 1):
            raise ParameterError("n_check must satisfy 1 <= n_check <= n_terms - 1")
        if self.power_m != "auto":
            if not isinstance(self.power_m, int) or self.power_m < 1:
                raise ParameterError("power_m must be a positive integer or 'auto'")
        if self.precision_bits < 24:
            raise ParameterError("precision_bits must be at least 24")

    def with_power(self, m: int) -> "ConstructionParams":
        return self._replace(power_m=m)

    def resolved_power(self) -> int:
        if self.power_m == "auto":
            raise ParameterError(
                "power_m is 'auto'; resolve it with choose_power_m (or set it explicitly)"
            )
        return self.power_m


def _params_dict(params: ConstructionParams) -> dict:
    """The construction parameters as a report records them."""
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "n_terms": params.n_terms,
        "power_m": params.power_m,
        "n_check": params.n_check,
    }


# -- log-domain scalar sequences ------------------------------------------


def log_delta(params: ConstructionParams, n: int) -> float:
    """log(1 - w_n) = -n**beta."""
    return -float(n) ** params.beta


def log_eps(params: ConstructionParams, k: int) -> float:
    """log eps_k = (k+1)**beta - k**beta - k**alpha."""
    kk = float(k)
    return (kk + 1.0) ** params.beta - kk ** params.beta - kk ** params.alpha


def log_rho(params: ConstructionParams, n: int) -> float:
    return -float(n) ** params.alpha


def log_t(params: ConstructionParams, n: int) -> float:
    """log t_n with t_n = (1 - w_n**2)/(1 + w_n**2) = d(2-d)/(1+(1-d)^2)."""
    ld = log_delta(params, n)
    if ld < -700.0:
        return ld  # limit d->0: t = d within relative error d
    d = math.exp(ld)
    return ld + math.log(2.0 - d) - math.log(1.0 + (1.0 - d) ** 2)


def log_cayley_im(params: ConstructionParams, ld: float) -> float:
    """log of (1-x)/(1+x) for x = 1 - exp(ld) in (0, 1)."""
    if ld < -700.0:
        return ld - _LN2
    d = math.exp(ld)
    return ld - math.log(2.0 - d)


# {(alpha, beta): (row k for k = 0, 1, ...)} for the most recent (alpha,
# beta) only, so a parameter sweep holds one table; row 0 is padding
_LOG_T_EPS: dict = {}


def _log_t_eps(params: ConstructionParams, n: int) -> tuple:
    """Rows (log t_k, log eps_k, D_k, ...) to k >= n, with the prefix
    maximum D_k = max_{j <= k} (log eps_j - 2 log t_j) that bounds the
    terms of ``growth_log_ratio`` from interval k down, then their per-k
    sums 2 log 3 + 2 log t_k, 2 log 2 + 2 log t_k, log 3 + log t_k, log 2 +
    log t_k, log 6 + 2 log t_k and log eps_k - log t_k - log pi.  Each
    depends on k and the exponents alone, so the radial evaluators share the
    table of the most recent (alpha, beta); a longer one, or another
    pair's, replaces it whole, never in part."""
    global _LOG_T_EPS
    key = (params.alpha, params.beta)
    table = _LOG_T_EPS.get(key, ((math.nan, math.nan, -math.inf),))
    if len(table) <= n:
        rows = []
        d_max = table[-1][2]
        for k in range(len(table), n + 1):
            lt, le = log_t(params, k), log_eps(params, k)
            d_max = max(d_max, le - 2.0 * lt)
            lt2 = 2.0 * lt
            rows.append((lt, le, d_max, 2.0 * _LN3 + lt2, 2.0 * _LN2 + lt2, _LN3 + lt, _LN2 + lt,
                         _LN6 + lt2, le - lt - _LNPI))
        table = table + tuple(rows)
        _LOG_T_EPS = {key: table}
    return table


class Sequences(Record):
    """Float sequences (indices 1..N, plus w_{N+1}) for the construction.

    Underflow-prone members are duplicated in log-domain form; the float
    views exist for reporting and for the closed-form complex evaluators,
    which are only used at desk-scale parameters.
    """

    __slots__ = ("params", "w", "rho", "t", "eps")

    def __init__(
        self,
        params: ConstructionParams,
        w: tuple,  # w[1..N+1]; w[0] is nan padding
        rho: tuple,  # LogScalar, rho[1..N]
        t: tuple,  # float, t[1..N+1]
        eps: tuple,  # LogScalar, eps[1..N]
    ):
        _set(self, "params", params)
        _set(self, "w", w)
        _set(self, "rho", rho)
        _set(self, "t", t)
        _set(self, "eps", eps)

    def delta(self, n: int) -> float:
        return math.exp(log_delta(self.params, n))

    def v(self, n: int) -> float:
        d = self.delta(n)
        return d / (2.0 - d)


def make_sequences(params: ConstructionParams) -> Sequences:
    """Populate w, rho, t, eps for indices 1..N in log-domain arithmetic."""
    n_top = params.n_terms + 1
    if float(n_top) ** params.beta > 700.0:
        raise ParameterError(
            "n_terms too large for float-range sequences; "
            "use the log-domain asymptotic evaluators instead"
        )
    nan = float("nan")
    w = [nan]
    t = [nan]
    for n in range(1, n_top + 1):
        d = math.exp(log_delta(params, n))
        w.append(1.0 - d)
        t.append(math.exp(log_t(params, n)))
    rho = [LogScalar.zero()] + [
        LogScalar.exp_of(log_rho(params, n)) for n in range(1, params.n_terms + 1)
    ]
    eps = [LogScalar.zero()] + [
        LogScalar.exp_of(log_eps(params, k)) for k in range(1, params.n_terms + 1)
    ]
    seq = Sequences(params, tuple(w), tuple(rho), tuple(t), tuple(eps))
    _check_sequences(seq)
    return seq


def _check_sequences(seq: Sequences):
    n = seq.params.n_terms
    for k in range(1, n + 1):
        if not (0.0 < seq.w[k] < seq.w[k + 1] < 1.0):
            raise ParameterError(f"w must be strictly increasing in (0,1) at index {k}")
        if not (0.0 < seq.t[k + 1] < seq.t[k] < 1.0):
            raise ParameterError(f"t must be strictly decreasing in (0,1) at index {k}")
        d = seq.delta(k)
        v = seq.v(k)
        if not (d / 2.0 <= v and seq.t[k] <= 2.0 * d):
            raise ParameterError(f"sequence inequalities violated at index {k}")


def check_rho_condition(seq: Sequences, n: int) -> float:
    """The tail ratio (sum_{k=n+1..N} eps_k) / rho_n, as a float: the
    tail is ``log_sum_exp`` of the log eps_k.

    The limiting construction wants this to vanish as n grows, but the
    leading tail term alone gives eps_{n+1}/rho_n =
    exp((n+2)**beta - (n+1)**beta - (n+1)**alpha + n**alpha), whose
    exponent ~ beta*n**(beta-1) grows without bound for beta > 1.  The
    table is therefore reported as observed, never asserted to decrease.
    """
    params = seq.params
    if not (1 <= n < params.n_terms):
        raise ValueError("need 1 <= n < n_terms")
    tail = log_sum_exp(e.log_mag for e in seq.eps[n + 1 : params.n_terms + 1])
    return math.exp(tail.log_mag - seq.rho[n].log_mag)


# -- closed-form complex evaluators ---------------------------------------


def cayley(z):
    """i(1-z)/(1+z): unit disk to upper half-plane."""
    if 1 + z == 0:
        raise ValueError("Cayley transform has a pole at z = -1")
    return 1j * (1 - z) / (1 + z)


def log_Phi_halfplane(z, seq: Sequences):
    """log Phi(z) for Im z > 0, summing the per-interval closed forms.

    Each interval [2t, 3t] of height eps/t contributes

        eps/(pi*i*t) * [ log((3t-z)/(2t-z)) - (1/2) log((9t^2+1)/(4t^2+1)) ],

    the Herglotz integral of the indicator; the principal branch is safe
    because (3t-z)/(2t-z) stays off the negative real axis for Im z > 0.
    Intervals that are vanishingly small against |z| switch to the first
    order expansion -eps/(pi*i) * (1/z + 5t/(2z^2) + 5t/2) to avoid 0*inf.
    With lo = 2t - z, log((3t-z)/(2t-z)) is log1p(t/lo) where |t/lo| <= 1/2
    and log((lo + t)/lo) elsewhere: near either end of the interval the real
    part of lo or of lo + t is then exact (Sterbenz), so the log keeps its
    relative precision up to the ends.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("log_Phi_halfplane requires Im z > 0")

    total = 0
    az = abs(z)
    for k in range(1, seq.params.n_terms + 1):
        t = seq.t[k]
        eps = math.exp(seq.eps[k].log_mag)
        if t < 1e-12 * az:
            term = eps / (math.pi * 1j) * (-1.0 / z - 2.5 * t / (z * z) - 2.5 * t)
        else:
            lo = complex(2 * t - z.real, -z.imag)
            w = t / lo
            # log((3t-z)/(2t-z)): log1p(w) is stable as t -> 0
            ratio = clog1p(w) if abs(w) <= 0.5 else cmath.log(complex(lo.real + t, -z.imag) / lo)
            term = (
                eps
                / (math.pi * 1j * t)
                * (ratio - 0.5 * clog1p(5 * t * t / (4 * t * t + 1.0)))
            )
        total = total + term
    return total


def log_phi_disk(z, params: ConstructionParams, seq: Sequences):
    """log of the symmetrized disk function raised to the power m.

    phi(z) = [Phi(cayley(z)) * conj(Phi(cayley(conj z)))]**m; the result is
    real (up to rounding) on (-1, 1) and has nonnegative real part on the
    disk.
    """
    m = params.resolved_power()
    if abs(z) >= 1:
        raise ValueError("log_phi_disk requires |z| < 1")
    a = log_Phi_halfplane(cayley(z), seq)
    b = log_Phi_halfplane(cayley(z.conjugate()), seq)
    return m * (a + b.conjugate())


# -- log-domain radial evaluators -----------------------------------------


def _log_atan_diff(log_q: float) -> float:
    """log(atan(3q) - atan(2q)) for q = e**log_q > 0.

    Uses atan(3q) - atan(2q) = atan(q / (1 + 6 q^2)); the argument is at
    most 1/(2*sqrt(6)), so the float atan never overflows and the
    subtraction never cancels.
    """
    log_arg = log_q - log1p_exp(_LN6 + 2.0 * log_q)
    if log_arg > -37.0:
        return math.log(math.atan(math.exp(log_arg)))
    return log_arg


def half_plane_log_modulus_radial(
    log_y: float, params: ConstructionParams, n_terms: Optional[int] = None
) -> LogScalar:
    """Re log Phi(i y) with y = e**log_y > 0, as a LogScalar.

    Valid for any magnitude of y; each interval contributes
    (eps_k / (pi t_k)) * (atan(3 t_k / y) - atan(2 t_k / y)).
    """
    n = n_terms if n_terms is not None else params.n_terms
    return log_sum_exp(
        row[8] + _log_atan_diff(row[0] - log_y) for row in _log_t_eps(params, n)[1 : n + 1]
    )


def log_phi_radial(
    ld_x: float, params: ConstructionParams, n_terms: Optional[int] = None
) -> float:
    """log phi(x) at the point x = 1 - e**ld_x of (0, 1), as a float.

    Combines the Cayley image of x with the symmetrized power; raises if
    the value exceeds float range (use the asymptotic scan in that regime).
    """
    m = params.resolved_power()
    f = half_plane_log_modulus_radial(log_cayley_im(params, ld_x), params, n_terms)
    val = f.to_float()
    if math.isinf(val):
        raise OverflowError("log phi exceeds float range; use log-domain scans")
    return 2.0 * m * val


def _log_radius_complement(params: ConstructionParams, n: int, s: float) -> float:
    """log(1 - r) for r = w_n + s (w_{n+1} - w_n), s in [0, 1]."""
    ld_n = log_delta(params, n)
    ld_n1 = log_delta(params, n + 1)
    ratio = math.exp(ld_n1 - ld_n)  # delta_{n+1}/delta_n < 1
    x = -s * (1.0 - ratio)
    # x = -1 only at s = 1 once ratio <= 2^-54; there 1 - r = delta_{n+1}
    return ld_n1 if x == -1.0 else ld_n + math.log1p(x)


# exp(x) is 0.0 in doubles below -745.14; the rest is room for the rounding
# of the term bound and of the terms themselves
_UNDERFLOW_GAP = 747.0


def _growth_logs(params: ConstructionParams, n: int, s: float) -> tuple:
    """(log(u v), log(u - v)) at r = w_n + s (w_{n+1} - w_n), where
    u = (1 - r w_n)/(1 + r w_n) and v = (1 - w_n)/(1 + w_n)."""
    ld_n = log_delta(params, n)
    lomr = _log_radius_complement(params, n, s)

    # floats for the benign O(1) denominators 1 + r w_n, 1 + w_n, 2 - d
    d_n = math.exp(ld_n) if ld_n > -700.0 else 0.0
    omr = math.exp(lomr) if lomr > -700.0 else 0.0
    w_n = 1.0 - d_n
    r = 1.0 - omr
    denom_u = 1.0 + r * w_n
    denom_v = 2.0 - d_n

    # u = (1 - r w_n)/(1 + r w_n) with 1 - r w_n = (1-r) + r d_n
    log_w_n = math.log(w_n) if w_n > 0.0 else -d_n  # log(1-d) ~ -d
    log_r = math.log(r) if r > 0.0 else -omr
    log_u = log_add_exp(lomr, log_r + ld_n) - math.log(denom_u)
    log_v = ld_n - math.log(denom_v)
    # u - v = 2 (1-r) w_n / ((1 + r w_n)(1 + w_n)); exact, no cancellation
    log_umv = _LN2 + lomr + log_w_n - math.log(denom_u) - math.log(2.0 - d_n)
    return log_u + log_v, log_umv


def growth_log_ratio(
    params: ConstructionParams,
    n: int,
    s: float,
    n_terms: Optional[int] = None,
) -> LogScalar:
    """log|Phi(i u_n)| - log|Phi(i v_n)| at r = w_n + s (w_{n+1} - w_n).

    This is the per-power growth ratio log|phi(r w_n)/phi(w_n)| divided by
    2m.  Computed entirely in log-domain with the exact two-angle identity

        atan(3t/u) - atan(3t/v) = atan(3 t (v-u) / (u v + 9 t^2)),

    so it stays accurate when u - v is hundreds of orders of magnitude
    below u, and at indices n where u, v, t underflow floats.  Interval k
    adds (eps_k/(pi t_k)) (atan(3t_k/u) - atan(3t_k/v) - atan(2t_k/u) +
    atan(2t_k/v)), read from the table of ``_log_t_eps``; the terms are
    summed as (sign, log) pairs.  At s = 1 from n = 623 on (at the default
    exponents), where delta_{n+1}/delta_n <= 2^-54, log(1 - r) is
    log delta_{n+1} exactly.  The result is a signed LogScalar (phase 0 or pi).

    Only the terms that can reach the sum are evaluated.  Since
    log1p_exp(x) >= max(0, x), log_diff_exp(a, b) <= a and
    0 <= atan x <= x, term k has log magnitude at most

        U_k = c + log eps_k + min(log 6 - log(u v), -2 log t_k)
            <= c + D_k,   c = log(u - v) - log pi - log 2,

    with D_k the prefix maximum of log eps_j - 2 log t_j over j <= k (the
    third column of the shared table).  The terms are taken from k =
    n_terms down, keeping the largest log magnitude m seen so far, and the
    walk stops at the first k with c + D_k < m - 747.  Every term j <= k is
    then so small that exp(log|term_j| - m) is exactly 0.0 in doubles
    (they underflow below -745.14), so neither the maximum nor the
    correctly rounded fsum inside ``log_sum_signed`` can change: the
    result is bit for bit that of the sum of all n_terms terms.

    Most evaluated terms lie deep in the small-angle branch, where the loop
    skips three calls that are exact no-ops in doubles: log1p_exp(x) is x
    for x > 36 (see ``log1p_exp``), and -expm1(d) rounds to 1.0 for
    d < -37.43, so log_diff_exp(a, b) is a for b - a < -40.  With the per-k
    sums added in the term formula's order, every term keeps its bits.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError("s must lie in [0, 1]")
    nt = n_terms if n_terms is not None else params.n_terms
    if n < 1 or nt < 1:
        raise ValueError(f"need n >= 1 and n_terms >= 1, got n={n}, n_terms={nt}")
    log_uv, log_umv = _growth_logs(params, n, s)
    c = log_umv - _LNPI - _LN2
    table = _log_t_eps(params, nt)
    terms = []  # (sign, log|term|)
    append = terms.append
    m = floor = -math.inf  # the largest log|term| so far, and m - 747
    for k in range(nt, 0, -1):
        lt, _, d_k, a3, a2, b3, b2, n6, e = table[k]
        if c + d_k < floor:
            break
        # log(1 + 9 t^2/(u v)) >= log(1 + 4 t^2/(u v)); log1p_exp(x) is x past 36
        l3, l2 = a3 - log_uv, a2 - log_uv
        if l2 <= 36.0:
            l3, l2 = log1p_exp(l3), log1p_exp(l2)
        la3 = b3 + log_umv - l3 - log_uv
        if la3 > -18.0:
            # atan arguments comfortably inside float range; the 3:2 ratio
            # of the arguments keeps the subtraction well conditioned
            bracket = math.atan(math.exp(b2 + log_umv - l2 - log_uv)) - math.atan(math.exp(la3))
            if bracket == 0.0:
                continue
            sign, lb = (1 if bracket > 0 else -1), math.log(abs(bracket))
        else:
            # atan(x) = x to better than double precision; the bracket is
            # (u-v) t (6 t^2 - u v) / ((u v + 9 t^2)(u v + 4 t^2))
            if n6 > log_uv:
                sign, lnum = 1, n6 if log_uv - n6 < -40.0 else log_diff_exp(n6, log_uv)
            elif n6 < log_uv:
                sign, lnum = -1, log_uv if n6 - log_uv < -40.0 else log_diff_exp(log_uv, n6)
            else:
                continue
            lb = log_umv + lt + lnum - (log_uv + l3) - (log_uv + l2)
        lm = e + lb
        append((sign, lm))
        if lm > m:
            m, floor = lm, lm - _UNDERFLOW_GAP
    return log_sum_signed(terms)


# -- growth-bound verification --------------------------------------------


class GrowthCheckRecord(Record):
    """One sampled point r in [w_n, w_{n+1}] of the growth-bound check."""

    __slots__ = ("n", "r", "u", "v", "log_ratio", "bound", "passed")

    def __init__(
        self,
        n: int,
        r: float,
        u: float,
        v: float,
        log_ratio: float,  # log|phi(r w_n)/phi(w_n)| including the power
        bound: LogScalar,  # exp(n**beta - n**alpha)
        passed: bool,
    ):
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "log_ratio", log_ratio)
        _set(self, "bound", bound)
        _set(self, "passed", passed)


def verify_growth_bound(
    n: int,
    r_samples: int,
    params: ConstructionParams,
    seq: Sequences,
) -> list:
    """Sample the ratio over [w_n, w_{n+1}] against the required bound."""
    if not (1 <= n <= params.n_check):
        raise ValueError("need 1 <= n <= n_check")
    if r_samples < 2:
        raise ValueError("need at least two radius samples")
    m = params.resolved_power()
    bound = LogScalar.exp_of(float(n) ** params.beta - float(n) ** params.alpha)
    t_n = seq.t[n]
    v_n = seq.v(n)
    w1 = seq.w[1]
    d_n1 = math.exp(log_delta(params, n + 1))
    records = []
    d_n = math.exp(log_delta(params, n))
    for i in range(r_samples):
        s = i / (r_samples - 1)
        r = seq.w[n] + s * (seq.w[n + 1] - seq.w[n])
        ratio1 = growth_log_ratio(params, n, s)
        # 1 - r w_n = (1-r) + r (1-w_n), free of cancellation
        omr = math.exp(_log_radius_complement(params, n, s))
        u = (omr + (1.0 - omr) * d_n) / (1.0 + r * seq.w[n])
        if not (v_n * (1 - 1e-12) <= u <= t_n * (1 + 1e-12)):
            raise AssertionError(f"v <= u <= t violated at n={n}, s={s}")
        if u - v_n < (w1 / 2.0) * d_n1 * (1 - 1e-9) and s < 1.0:
            raise AssertionError(f"u - v lower bound violated at n={n}, s={s}")
        sgn = ratio1.sign()
        log_ratio = 2.0 * m * ratio1.to_float()
        passed = sgn > 0 and (
            math.log(2.0 * m) + ratio1.log_mag >= bound.log_mag
        )
        records.append(GrowthCheckRecord(n, r, u, v_n, log_ratio, bound, passed))
    return records


def choose_power_m(
    params: ConstructionParams, seq: Sequences, r_samples: int = 33, m_max: int = 10**6
) -> int:
    """Smallest power m making the growth bound hold for n = 1..n_check.

    The per-power ratio scales linearly in m, so the linear search from
    m = 1 reduces to one worst-case ratio per interval; a nonpositive
    ratio anywhere means no power works and raises GrowthBoundError.
    """
    worst = []  # (n, min signed ratio as LogScalar, bound log)
    for n in range(1, params.n_check + 1):
        best, _ = _worst_ratios(params, n, r_samples)
        lb = float(n) ** params.beta - float(n) ** params.alpha
        worst.append((n, best, lb))

    bad = [(n, rat, lb) for n, rat, lb in worst if rat.sign() <= 0]
    if bad:
        raise GrowthBoundError(
            "growth ratio is nonpositive on "
            + ", ".join(f"[w_{n}, w_{n+1}]" for n, _, _ in bad)
            + "; no power can satisfy the bound (the bound holds only "
            "asymptotically for these parameters -- see growth_bound_scan)",
            table=worst,
        )

    def works(m: int) -> bool:
        lm = math.log(2.0 * m)
        return all(lm + rat.log_mag >= lb for _, rat, lb in worst)

    # closed form for the linear search from m = 1
    need = max(lb - rat.log_mag - _LN2 for _, rat, lb in worst)
    m = 1 if need <= 0.0 else int(math.ceil(math.exp(need) * (1 - 1e-15)))
    while m <= m_max and not works(m):
        m += 1
    if m > m_max:
        raise GrowthBoundError(f"no power m <= {m_max} satisfies the bound", table=worst)
    if m > 1 and works(m - 1):
        m -= 1  # guard against ceiling overshoot; preserves minimality
    return m


def _worst_ratios(
    params: ConstructionParams, n: int, samples: int, n_terms: Optional[int] = None
) -> tuple:
    """The least signed growth ratio over s = i/(samples - 1), i < samples,
    on the closed interval [w_n, w_{n+1}] and on its interior: the samples
    with s < 1, which leave out only the right endpoint.  Both are ``min``
    under the signed order of ``LogScalar``."""
    if samples < 2:
        raise ValueError(f"need at least two radius samples, got {samples}")
    last = samples - 1
    interior = min(growth_log_ratio(params, n, i / last, n_terms=n_terms) for i in range(last))
    return min(interior, growth_log_ratio(params, n, 1.0, n_terms=n_terms)), interior


class GrowthScanRow(Record):
    __slots__ = (
        "n",
        "min_log_ratio",
        "min_log_ratio_interior",
        "log_bound",
        "interior_positive",
        "passes_with_m",
    )

    def __init__(
        self,
        n: int,
        min_log_ratio: LogScalar,  # over the closed interval, per-power signed
        min_log_ratio_interior: LogScalar,  # excluding the right endpoint
        log_bound: float,  # n**beta - n**alpha
        interior_positive: bool,
        passes_with_m: Optional[float],  # smallest real m on the interior grid
    ):
        _set(self, "n", n)
        _set(self, "min_log_ratio", min_log_ratio)
        _set(self, "min_log_ratio_interior", min_log_ratio_interior)
        _set(self, "log_bound", log_bound)
        _set(self, "interior_positive", interior_positive)
        _set(self, "passes_with_m", passes_with_m)


def growth_bound_scan(
    params: ConstructionParams,
    n_lo: int,
    n_hi: int,
    samples: int = 9,
    tail_terms: int = 3,
) -> list:
    """Log-domain scan of the growth ratio over arbitrary interval indices.

    This exhibits the asymptotic regime far beyond float range: at
    desk-scale indices the ratio is negative throughout.  Positivity
    spreads across each interval from the left: the left endpoint r = w_n
    turns positive near n = 100, while the right endpoint r = w_{n+1}
    stays negative until n = 183 -- the trace of the slowly-decaying tail
    (see check_rho_condition).  The reported interior minimum therefore
    depends on the sample grid; the closed-interval minimum does not once
    the whole interval is positive.  Truncates the boundary datum at
    n + tail_terms interior intervals per row, which the tail decay makes
    inconsequential.  Each row extends the shared (log t_k, log eps_k, D_k)
    table of ``growth_log_ratio`` by one k, so a scan computes each once.
    The right endpoint stays finite at any n: where delta_{n+1}/delta_n
    falls to 2^-54 its log(1 - r) is log delta_{n+1} exactly.
    """
    if samples < 2 or n_lo < 1 or tail_terms < 0:
        raise ValueError(
            "need samples >= 2, n_lo >= 1 and tail_terms >= 0, got "
            f"samples={samples}, n_lo={n_lo}, tail_terms={tail_terms}"
        )
    rows = []
    for n in range(n_lo, n_hi + 1):
        best, best_int = _worst_ratios(params, n, samples, n_terms=n + tail_terms)
        lb = float(n) ** params.beta - float(n) ** params.alpha
        positive = best_int.sign() > 0
        m_req = None
        if positive:
            need = lb - best_int.log_mag - _LN2
            m_req = max(1.0, math.exp(need)) if need < 700.0 else math.inf
        rows.append(GrowthScanRow(n, best, best_int, lb, positive, m_req))
    return rows


# -- quadrature cross-check ------------------------------------------------

# The 30-point Gauss-Legendre rule applied to every panel of the oracle, as
# (node, weight) pairs each correctly rounded, written by
# tests/data/make_gauss_legendre.py.
_GAUSS_LEGENDRE = tuple(
    (float.fromhex(x), float.fromhex(w))
    for x, w in (
        ("-0x1.fe68d29f64696p-1", "0x1.051a0b16f2427p-7"),
        ("-0x1.f7a35927355b1p-1", "0x1.2e8dfb5e00194p-6"),
        ("-0x1.eb87fc62f7b5dp-1", "0x1.d79bd0bef65edp-6"),
        ("-0x1.da36e4828656fp-1", "0x1.3dd7cde654010p-5"),
        ("-0x1.c3def97bef284p-1", "0x1.8c83c31b159edp-5"),
        ("-0x1.a8bcd7f6a16eap-1", "0x1.d6fbe3365a0dep-5"),
        ("-0x1.891a1fa2fe827p-1", "0x1.0e3afe7b90638p-4"),
        ("-0x1.654ca8f944f8bp-1", "0x1.2e1abeb620f4ep-4"),
        ("-0x1.3db59b9c8042dp-1", "0x1.4ac6b18f8353bp-4"),
        ("-0x1.12c0667d07155p-1", "0x1.63f10800ed9cbp-4"),
        ("-0x1.c9c338717ea9ap-2", "0x1.79557743c7fbdp-4"),
        ("-0x1.692b6d7532f8fp-2", "0x1.8ab9f1e859c52p-4"),
        ("-0x1.04bf8ad8faef5p-2", "0x1.97ef454512ac4p-4"),
        ("-0x1.3b2026364c35ap-3", "0x1.a0d1997eea523p-4"),
        ("-0x1.a5a8470e14134p-5", "0x1.a548d2c7c13a9p-4"),
        ("0x1.a5a8470e14134p-5", "0x1.a548d2c7c13a9p-4"),
        ("0x1.3b2026364c35ap-3", "0x1.a0d1997eea523p-4"),
        ("0x1.04bf8ad8faef5p-2", "0x1.97ef454512ac4p-4"),
        ("0x1.692b6d7532f8fp-2", "0x1.8ab9f1e859c52p-4"),
        ("0x1.c9c338717ea9ap-2", "0x1.79557743c7fbdp-4"),
        ("0x1.12c0667d07155p-1", "0x1.63f10800ed9cbp-4"),
        ("0x1.3db59b9c8042dp-1", "0x1.4ac6b18f8353bp-4"),
        ("0x1.654ca8f944f8bp-1", "0x1.2e1abeb620f4ep-4"),
        ("0x1.891a1fa2fe827p-1", "0x1.0e3afe7b90638p-4"),
        ("0x1.a8bcd7f6a16eap-1", "0x1.d6fbe3365a0dep-5"),
        ("0x1.c3def97bef284p-1", "0x1.8c83c31b159edp-5"),
        ("0x1.da36e4828656fp-1", "0x1.3dd7cde654010p-5"),
        ("0x1.eb87fc62f7b5dp-1", "0x1.d79bd0bef65edp-6"),
        ("0x1.f7a35927355b1p-1", "0x1.2e8dfb5e00194p-6"),
        ("0x1.fe68d29f64696p-1", "0x1.051a0b16f2427p-7"),
    )
)


def _two_sum(a: float, b: float):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def poisson_quad_crosscheck(
    seq: Sequences, n_points: int = 50, seed: int = 0, rtol: float = 1e-8
) -> float:
    """Max relative error of closed-form Re log Phi against Poisson quadrature.

    Samples points with Im z in [t_N, 1]; the oracle integrates the Poisson
    kernel against the step datum interval by interval, with a fixed
    30-point Gauss-Legendre rule on each panel of a geometric ladder around
    the spike, at the exact interval ends 2t - x0 and 3t - x0.
    """
    from ._pcg64 import Generator

    params = seq.params
    rng = Generator(seed)
    t_lo = seq.t[params.n_terms]
    worst = 0.0
    for _ in range(n_points):
        x0 = rng.uniform(-2.0, 2.0)
        y0 = math.exp(rng.uniform(math.log(t_lo), 0.0))
        z = complex(x0, y0)
        closed = log_Phi_halfplane(z, seq).real
        terms = []
        for k in range(1, params.n_terms + 1):
            t = seq.t[k]
            h = math.exp(seq.eps[k].log_mag) / t
            # The Poisson kernel is a spike of width y0 at x0, which can be
            # ten orders of magnitude narrower than the interval.  Integrate
            # in the shifted variable u = x - x0 (so panel edges near the
            # spike are exactly representable) over panels cut on a
            # geometric ladder of scales around the spike, and sum.
            a, da = _two_sum(2.0 * t, -x0)
            three_t, d3 = _two_sum(2.0 * t, t)
            b, db = _two_sum(three_t, -x0)
            cuts = {a, b}
            for j in range(16):
                for u in (-y0 * 10.0**j, y0 * 10.0**j):
                    if a < u < b:
                        cuts.add(u)
            if a < 0.0 < b:
                cuts.add(0.0)
            edges = sorted(cuts)
            parts = []
            for lo, hi in zip(edges, edges[1:]):
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                for x, w in _GAUSS_LEGENDRE:
                    u = mid + half * x
                    parts.append((half * w) * (y0 / (u * u + y0 * y0)))
            # The kernel has width y0 >= t_N, so rounding a or b by an ulp
            # of x0 moves the integral by up to 1e-10 relative; add back
            # kernel(end) * (exact end - rounded end), with the exact ends
            # a + da and b + (db + d3) from the error-free sums above.
            parts.append(-y0 / (a * a + y0 * y0) * da)
            parts.append(y0 / (b * b + y0 * y0) * (db + d3))
            terms.append(h * math.fsum(parts) / math.pi)
        total = math.fsum(terms)
        rel = abs(closed - total) / max(abs(total), 1e-300)
        worst = max(worst, rel)
    if worst > rtol:
        raise AssertionError(f"quadrature cross-check failed: rel err {worst} > {rtol}")
    return worst
