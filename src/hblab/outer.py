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

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the construction; requires 1 < alpha < beta < alpha + 1."""

    alpha: float
    beta: float
    n_terms: int = 8
    power_m: "int | str" = "auto"
    precision_bits: int = 53
    n_check: int = 5

    def __post_init__(self):
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
        return ConstructionParams(
            self.alpha, self.beta, self.n_terms, m, self.precision_bits, self.n_check
        )

    def resolved_power(self) -> int:
        if self.power_m == "auto":
            raise ParameterError(
                "power_m is 'auto'; resolve it with choose_power_m (or set it explicitly)"
            )
        return self.power_m


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


@dataclass(frozen=True)
class Sequences:
    """Float sequences (indices 1..N, plus w_{N+1}) for the construction.

    Underflow-prone members are duplicated in log-domain form; the float
    views exist for reporting and for the closed-form complex evaluators,
    which are only used at desk-scale parameters.
    """

    params: ConstructionParams
    w: tuple  # w[1..N+1]; w[0] is nan padding
    rho: tuple  # LogScalar, rho[1..N]
    t: tuple  # float, t[1..N+1]
    eps: tuple  # LogScalar, eps[1..N]

    @property
    def n_terms(self) -> int:
        return self.params.n_terms

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
    """The tail ratio (sum_{k=n+1..N} eps_k) / rho_n, via log-sum-exp.

    The limiting construction wants this to vanish as n grows, but the
    leading tail term alone gives eps_{n+1}/rho_n =
    exp((n+2)**beta - (n+1)**beta - (n+1)**alpha + n**alpha), whose
    exponent ~ beta*n**(beta-1) grows without bound for beta > 1.  The
    table is therefore reported as observed, never asserted to decrease.
    """
    params = seq.params
    if not (1 <= n < params.n_terms):
        raise ValueError("need 1 <= n < n_terms")
    tail = log_sum_exp(seq.eps[n + 1 : params.n_terms + 1])
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
            term = (
                eps
                / (math.pi * 1j * t)
                * (
                    # log((3t-z)/(2t-z)) = log1p(t/(2t-z)), stable as t -> 0
                    clog1p(t / (2 * t - z))
                    - 0.5 * clog1p(5 * t * t / (4 * t * t + 1.0))
                )
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
    terms = []
    for k in range(1, n + 1):
        lt = log_t(params, k)
        terms.append(
            LogScalar.exp_of(log_eps(params, k) - lt - _LNPI + _log_atan_diff(lt - log_y))
        )
    return log_sum_exp(terms)


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
    return ld_n + math.log1p(-s * (1.0 - ratio))


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
    below u, and at indices n where u, v, t underflow floats.  The result
    is a signed LogScalar (phase 0 or pi).
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError("s must lie in [0, 1]")
    nt = n_terms if n_terms is not None else params.n_terms
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
    log_uv = log_u + log_v

    terms = []
    for k in range(1, nt + 1):
        lt = log_t(params, k)
        le = log_eps(params, k)
        la3 = _LN3 + lt + log_umv - log1p_exp(2.0 * _LN3 + 2.0 * lt - log_uv)
        la2 = _LN2 + lt + log_umv - log1p_exp(2.0 * _LN2 + 2.0 * lt - log_uv)
        la3 -= log_uv
        la2 -= log_uv
        if la3 > -18.0:
            # atan arguments comfortably inside float range; the 3:2 ratio
            # of the arguments keeps the subtraction well conditioned
            bracket = math.atan(math.exp(la2)) - math.atan(math.exp(la3))
            if bracket == 0.0:
                continue
            sign = 1.0 if bracket > 0 else -1.0
            lb = math.log(abs(bracket))
        else:
            # atan(x) = x to better than double precision; the bracket is
            # (u-v) t (6 t^2 - u v) / ((u v + 9 t^2)(u v + 4 t^2))
            num_hi = _LN6 + 2.0 * lt
            num_lo = log_uv
            if num_hi == num_lo:
                continue
            if num_hi > num_lo:
                sign, lnum = 1.0, log_diff_exp(num_hi, num_lo)
            else:
                sign, lnum = -1.0, log_diff_exp(num_lo, num_hi)
            lb = (
                log_umv
                + lt
                + lnum
                - (log_uv + log1p_exp(2.0 * _LN3 + 2.0 * lt - log_uv))
                - (log_uv + log1p_exp(2.0 * _LN2 + 2.0 * lt - log_uv))
            )
        phase = 0.0 if sign > 0 else math.pi
        terms.append(LogScalar(le - lt - _LNPI + lb, phase))
    return log_sum_signed(terms)


# -- growth-bound verification --------------------------------------------


@dataclass(frozen=True)
class GrowthCheckRecord:
    """One sampled point r in [w_n, w_{n+1}] of the growth-bound check."""

    n: int
    r: float
    u: float
    v: float
    log_ratio: float  # log|phi(r w_n)/phi(w_n)| including the power
    bound: LogScalar  # exp(n**beta - n**alpha)
    passed: bool


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
        best: Optional[LogScalar] = None
        for i in range(r_samples):
            s = i / (r_samples - 1)
            ratio = growth_log_ratio(params, n, s)
            if best is None or _signed_less(ratio, best):
                best = ratio
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


def _signed_less(a: LogScalar, b: LogScalar) -> bool:
    sa, sb = a.sign(), b.sign()
    if sa != sb:
        return sa < sb
    if sa >= 0:
        return a.log_mag < b.log_mag
    return a.log_mag > b.log_mag


@dataclass(frozen=True)
class GrowthScanRow:
    n: int
    min_log_ratio: LogScalar  # over the closed interval, per-power signed
    min_log_ratio_interior: LogScalar  # excluding the right endpoint
    log_bound: float  # n**beta - n**alpha
    interior_positive: bool
    passes_with_m: Optional[float]  # smallest real m on the interior grid


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
    inconsequential.
    """
    rows = []
    for n in range(n_lo, n_hi + 1):
        nt = n + tail_terms
        best = best_int = None
        for i in range(samples):
            s = i / (samples - 1)
            ratio = growth_log_ratio(params, n, s, n_terms=nt)
            if best is None or _signed_less(ratio, best):
                best = ratio
            if s < 1.0 and (best_int is None or _signed_less(ratio, best_int)):
                best_int = ratio
        lb = float(n) ** params.beta - float(n) ** params.alpha
        positive = best_int.sign() > 0
        m_req = None
        if positive:
            need = lb - best_int.log_mag - _LN2
            m_req = max(1.0, math.exp(need)) if need < 700.0 else math.inf
        rows.append(GrowthScanRow(n, best, best_int, lb, positive, m_req))
    return rows


# -- quadrature cross-check ------------------------------------------------


def poisson_quad_crosscheck(
    seq: Sequences, n_points: int = 50, seed: int = 0, rtol: float = 1e-8
) -> float:
    """Max relative error of closed-form Re log Phi against scipy quadrature.

    Samples points with Im z in [t_N, 1]; the oracle integrates the Poisson
    kernel against the step datum interval by interval with adaptive
    quadrature.
    """
    import numpy as np
    from scipy.integrate import quad

    params = seq.params
    rng = np.random.default_rng(seed)
    t_lo = seq.t[params.n_terms]
    worst = 0.0
    for _ in range(n_points):
        x0 = float(rng.uniform(-2.0, 2.0))
        y0 = float(math.exp(rng.uniform(math.log(t_lo), 0.0)))
        z = complex(x0, y0)
        closed = log_Phi_halfplane(z, seq).real
        total = 0.0
        for k in range(1, params.n_terms + 1):
            t = seq.t[k]
            h = math.exp(seq.eps[k].log_mag) / t
            # The Poisson kernel is a spike of width y0 at x0, which can be
            # ten orders of magnitude narrower than the interval; a single
            # adaptive pass silently misses it.  Integrate in the shifted
            # variable u = x - x0 (so panel edges near the spike are exactly
            # representable) over panels cut on a geometric ladder of scales
            # around the spike, and sum.
            a, b = 2.0 * t - x0, 3.0 * t - x0
            cuts = {a, b}
            for j in range(16):
                for u in (-y0 * 10.0**j, y0 * 10.0**j):
                    if a < u < b:
                        cuts.add(u)
            if a < 0.0 < b:
                cuts.add(0.0)
            edges = sorted(cuts)
            val = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                part, _err = quad(
                    lambda u: y0 / (u * u + y0 * y0),
                    lo,
                    hi,
                    epsabs=0.0,
                    epsrel=1e-12,
                    limit=200,
                )
                val += part
            total += h * val / math.pi
        rel = abs(closed - total) / max(abs(total), 1e-300)
        worst = max(worst, rel)
    if worst > rtol:
        raise AssertionError(f"quadrature cross-check failed: rel err {worst} > {rtol}")
    return worst
