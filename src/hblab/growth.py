"""The growth checks of the construction and its quadrature oracle.

The paper's construction needs |phi(r w_n)/phi(w_n)| >= exp(n**beta -
n**alpha) on each interval [w_n, w_{n+1}].  This module evaluates that
growth ratio in log-domain at any interval index (``growth_log_ratio``),
samples it against the bound (``verify_growth_bound``), picks the least
power m that meets it (``choose_power_m``), scans it far past float range
(``growth_bound_scan``), and cross-checks the closed-form half-plane
evaluator against Poisson quadrature (``poisson_quad_crosscheck``).

Only ``verify-outer``, ``construct`` with ``power_m`` "auto", the growth
scan and the demos run this code, so ``hblab.outer`` loads it on first
access to one of its names (PEP 562) and every other verb never compiles
it.  Calls to ``growth_log_ratio``, ``log_Phi_halfplane``,
``log_sum_signed`` and ``sum_settles`` go through the attributes of
``hblab.outer`` and ``hblab.logscalar``, where a tracer or a test that
rebinds module attributes finds them.
"""

from __future__ import annotations

import math
from typing import Optional

from . import logscalar, outer
from ._record import Record
from .errors import GrowthBoundError
from .logscalar import LogScalar, log1p_exp, log_add_exp, log_diff_exp
from .outer import (
    _LN2,
    _LN6,
    _LNPI,
    ConstructionParams,
    Sequences,
    _check_float_range,
    _log_t_eps,
    log_delta,
)


def _log_radius_complement(params: ConstructionParams, n: int, s: float) -> float:
    """log(1 - r) for r = w_n + s (w_{n+1} - w_n), s in [0, 1]."""
    ld_n = log_delta(params, n)
    ld_n1 = log_delta(params, n + 1)
    ratio = math.exp(ld_n1 - ld_n)  # delta_{n+1}/delta_n < 1
    x = -s * (1.0 - ratio)
    # x = -1 only at s = 1 once ratio <= 2^-54; there 1 - r = delta_{n+1}
    return ld_n1 if x == -1.0 else ld_n + math.log1p(x)


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


_LN3 = math.log(3.0)

# the least whole number of nats with e**-gap below 2^-53, half the gap
# above 1.0: growth_log_ratio tests a rest only this far below m and below
# the rest it tested last
_SETTLE_GAP = 37.0


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
    atan(2t_k/v)), from the row of ``_log_t_eps``; the terms are summed as
    (sign, log) pairs.  At s = 1 from n = 623 on (at the default
    exponents), where delta_{n+1}/delta_n <= 2^-54, log(1 - r) is
    log delta_{n+1} exactly.  The result is a signed LogScalar (phase 0 or pi).

    Only the terms that can change the sum are evaluated.  Since
    log1p_exp(x) >= max(0, x), log_diff_exp(a, b) <= a and
    0 <= atan x <= x, term k has log magnitude at most

        U_k = c + log eps_k + min(log 6 - log(u v), -2 log t_k)
            <= c + D_k,   c = log(u - v) - log pi - log 2,

    with D_k the prefix maximum of log eps_j - 2 log t_j over j <= k (the
    third column of the table).  The terms are taken from k = n_terms
    down, keeping the largest log magnitude m seen so far.  Before term k,
    top = c + D_k + log k + 1 bounds the log of the k terms left, summed in
    magnitude as ``log_sum_signed`` scales them: the one nat is room for
    the rounding of the terms and of their scaled doubles.  Once
    top < m - 37, no term left reaches m, and ``logscalar.sum_settles``
    asks whether the fsum inside ``log_sum_signed`` rounds alike with the
    rest at +e**(top - m) and at -e**(top - m).  If it does, rounding is
    monotone, so any rest leaves the result bit for bit that of the sum of
    all n_terms terms, and the walk stops.  37 is the least whole number of
    nats with e**-37 < 2^-53, half the gap above 1.0: a larger rest moves
    every scaled sum in [1, 2), and the leading term alone scales to 1, so
    no test is tried sooner.  Unequal ends (a sum near a rounding boundary,
    or cancelled far below 1) retry once top has fallen another 37 nats;
    once e**(top - m) underflows to 0.0 (below -745.14) the ends are equal,
    so a call makes at most 20 unequal tests.
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
    m, tried = -math.inf, math.inf  # the largest log|term| so far; the last top tested
    for k in range(nt, 0, -1):
        lt, _, d_k, e = table[k]
        top = c + d_k + math.log(k) + 1.0
        if top < min(m, tried) - _SETTLE_GAP:
            if logscalar.sum_settles(terms, m, top):
                break
            tried = top
        l3 = log1p_exp(2.0 * _LN3 + 2.0 * lt - log_uv)  # log(1 + 9 t^2/(u v))
        l2 = log1p_exp(2.0 * _LN2 + 2.0 * lt - log_uv)  # log(1 + 4 t^2/(u v))
        la3 = _LN3 + lt + log_umv - l3 - log_uv
        if la3 > -18.0:
            # atan arguments comfortably inside float range; the 3:2 ratio
            # of the arguments keeps the subtraction well conditioned
            la2 = _LN2 + lt + log_umv - l2 - log_uv
            bracket = math.atan(math.exp(la2)) - math.atan(math.exp(la3))
            if bracket == 0.0:
                continue
            sign, lb = (1 if bracket > 0 else -1), math.log(abs(bracket))
        else:
            # atan(x) = x to better than double precision; the bracket is
            # (u-v) t (6 t^2 - u v) / ((u v + 9 t^2)(u v + 4 t^2))
            n6 = _LN6 + 2.0 * lt
            if n6 >= log_uv:  # a tie gives lnum = -inf, a term that adds 0.0
                sign, lnum = 1, log_diff_exp(n6, log_uv)
            else:
                sign, lnum = -1, log_diff_exp(log_uv, n6)
            lb = log_umv + lt + lnum - (log_uv + l3) - (log_uv + l2)
        lm = e + lb
        terms.append((sign, lm))
        m = max(m, lm)
    return logscalar.log_sum_signed(terms)


# -- growth-bound verification --------------------------------------------


class GrowthCheckRecord(Record):
    """One sampled point r in [w_n, w_{n+1}] of the growth-bound check."""

    # log_ratio: log|phi(r w_n)/phi(w_n)| including the power;
    # log_bound: n**beta - n**alpha
    __slots__ = ("n", "r", "u", "v", "log_ratio", "log_bound", "passed")


def verify_growth_bound(n: int, r_samples: int, seq: Sequences) -> list:
    """Sample the ratio over [w_n, w_{n+1}] against the required bound, at
    the parameters ``seq.params`` of the sequences."""
    params = seq.params
    if not (1 <= n <= params.n_check):
        raise ValueError("need 1 <= n <= n_check")
    if r_samples < 2:
        raise ValueError("need at least two radius samples")
    m = params.resolved_power()
    lb = float(n) ** params.beta - float(n) ** params.alpha
    t_n = seq.t[n]
    v_n = seq.v(n)
    w1 = seq.w[1]
    d_n1 = math.exp(log_delta(params, n + 1))
    records = []
    d_n = math.exp(log_delta(params, n))
    for i in range(r_samples):
        s = i / (r_samples - 1)
        r = seq.w[n] + s * (seq.w[n + 1] - seq.w[n])
        ratio1 = outer.growth_log_ratio(params, n, s)
        # 1 - r w_n = (1-r) + r (1-w_n), free of cancellation
        omr = math.exp(_log_radius_complement(params, n, s))
        u = (omr + (1.0 - omr) * d_n) / (1.0 + r * seq.w[n])
        if not (v_n * (1 - 1e-12) <= u <= t_n * (1 + 1e-12)):
            raise AssertionError(f"v <= u <= t violated at n={n}, s={s}")
        if u - v_n < (w1 / 2.0) * d_n1 * (1 - 1e-9) and s < 1.0:
            raise AssertionError(f"u - v lower bound violated at n={n}, s={s}")
        sgn = ratio1.sign()
        log_ratio = 2.0 * m * ratio1.to_float()
        passed = sgn > 0 and math.log(2.0 * m) + ratio1.log_mag >= lb
        records.append(GrowthCheckRecord(n, r, u, v_n, log_ratio, lb, passed))
    return records


# the largest power choose_power_m tries
_M_MAX = 10**6


def choose_power_m(params: ConstructionParams, r_samples: int = 33) -> int:
    """Smallest power m making the growth bound hold for n = 1..n_check.

    The per-power ratio scales linearly in m, so the linear search from
    m = 1 reduces to one worst-case ratio per interval; a nonpositive
    ratio anywhere means no power works, and no power up to 10**6 working
    means none is taken: both raise GrowthBoundError.  The power is that of
    a pair, so n_terms past float range raises ParameterError first, as
    ``make_sequences`` does.
    """
    _check_float_range(params)
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
    while m <= _M_MAX and not works(m):
        m += 1
    if m > _M_MAX:
        raise GrowthBoundError(f"no power m <= {_M_MAX} satisfies the bound", table=worst)
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
    ratio = outer.growth_log_ratio
    interior = min(ratio(params, n, i / last, n_terms=n_terms) for i in range(last))
    return min(interior, ratio(params, n, 1.0, n_terms=n_terms)), interior


class GrowthScanRow(Record):
    __slots__ = (
        "n",
        "min_log_ratio",  # LogScalar over the closed interval, per-power signed
        "min_log_ratio_interior",  # LogScalar excluding the right endpoint
        "log_bound",  # n**beta - n**alpha
        "interior_positive",
        "passes_with_m",  # smallest real m on the interior grid, or None
    )


# growth_bound_scan truncates the boundary datum at n + 3 intervals in row n
_SCAN_TAIL_TERMS = 3


def growth_bound_scan(
    params: ConstructionParams, n_lo: int, n_hi: int, samples: int = 9
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
    n + 3 interior intervals per row, which the tail decay makes
    inconsequential.  Each row extends the shared (log t_k, log eps_k, D_k)
    table of ``growth_log_ratio`` by one k, so a scan computes each once.
    The right endpoint stays finite at any n: where delta_{n+1}/delta_n
    falls to 2^-54 its log(1 - r) is log delta_{n+1} exactly.
    """
    if samples < 2 or n_lo < 1:
        raise ValueError(f"need samples >= 2 and n_lo >= 1, got samples={samples}, n_lo={n_lo}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        best, best_int = _worst_ratios(params, n, samples, n_terms=n + _SCAN_TAIL_TERMS)
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


# the largest relative error poisson_quad_crosscheck accepts
_QUAD_RTOL = 1e-8


def poisson_quad_crosscheck(seq: Sequences, n_points: int = 50, seed: int = 0) -> float:
    """Max relative error of closed-form Re log Phi against Poisson quadrature;
    above 1e-8 it raises AssertionError.

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
        closed = outer.log_Phi_halfplane(z, seq).real
        terms = []
        for k in range(1, params.n_terms + 1):
            t = seq.t[k]
            h = math.exp(seq.log_eps[k]) / t
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
    if worst > _QUAD_RTOL:
        raise AssertionError(f"quadrature cross-check failed: rel err {worst} > {_QUAD_RTOL}")
    return worst
