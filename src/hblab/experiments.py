"""The divergence experiments: the blow-up curve, the growth envelope,
the coefficient-series failure, and summability divergence.

The central object is f = sum_j c_j k_{w_j} with
c_j = (1 - w_j)^{1/2} / (j^2 phi(w_j)); its radial dilates satisfy
(f_r)+(0) = sum_j c_j phi(r w_j), all terms positive, which is computed in
log-domain far past float range.  The cross-representation oracle re-derives
the same value from actual Taylor coefficients, (f_r)+(0) =
sum_j r^j fhat(j) phihat(j), at extended precision.

The float experiments (the curve and the envelope) need only ``hb``,
``outer``, ``pair`` and ``logscalar``.  The extended-precision ones share
one integer kernel, ``_fhat_fixed``, whose exact coefficients meet
phi-hat's aligned mantissas in the sums of ``hblab.fixed``; that module
is imported by the functions that call it, so the ``divergence`` verb
never compiles it.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Optional, Sequence, Union

from .hb import (
    KernelCombo,
    KernelNode,
    Radius,
    _ccond_log_terms,
    _gram_log_terms,
    _log_phi_at_nodes,
    as_radius,
    dilate,
    hb_norm_sq,
)
from .errors import ParameterError, PrecisionExhausted
from .logscalar import LogScalar, log_add_exp, log_sum_exp
from .outer import _params_dict, half_plane_log_modulus_radial, log_delta
from .pair import Pair
from .reports import ExperimentReport

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)


# -- the function f --------------------------------------------------------


def build_divergent_combo(params, pair: Pair) -> KernelCombo:
    """f = sum_{j=1..N} c_j k_{w_j}, c_j = (1 - w_j)^{1/2} / (j^2 phi(w_j)).

    Certifies the admissibility condition termwise, from the log phi(w_j)
    the build forms: each term
    |c_j|(1 + phi(w_j))(1 - w_j)^{-1/2} = (1 + phi(w_j))/(j^2 phi(w_j))
    must be at most 2/j^2 (phi >= 1 forces it); a NaN term fails too.
    """
    nodes, lphis = [], []
    for j in range(1, params.n_terms + 1):
        ld = log_delta(params, j)
        lphi = pair.log_phi_radial_at(ld)
        nodes.append(KernelNode(0.5 * ld - 2.0 * math.log(j) - lphi, ld))
        lphis.append(lphi)
    combo = KernelCombo(tuple(nodes))
    for j, term in enumerate(_ccond_log_terms(combo, lphis), start=1):
        limit = math.log(2.0) - 2.0 * math.log(j)
        if not term <= limit + 1e-9:
            raise ArithmeticError(f"admissibility term {j} exceeds 2/j^2: log term {term}")
    return combo


def fr_plus_at_zero(r: Union[float, Radius], f: KernelCombo, pair: Pair) -> LogScalar:
    """(f_r)+(0) = sum_j c_j phi(r w_j), all terms positive, in log-domain.

    Returned as a LogScalar, built once from the float log of
    ``_fr_plus_at_zero``, only because the benchmark's cross-check step
    reads its ``log_mag``; every positive value elsewhere is a float log.
    """
    fr = dilate(f, r)
    return LogScalar(_fr_plus_at_zero(fr, _log_phi_at_nodes(fr, pair)))


def _fr_plus_at_zero(fr: KernelCombo, lphi: list) -> float:
    """The float log of ``fr_plus_at_zero`` of the dilate ``fr``, given log
    phi at its nodes."""
    return log_sum_exp(nd.log_c + lp for nd, lp in zip(fr.nodes, lphi))


# -- radius grids -----------------------------------------------------------


def interval_radius(params, n: int, s: float) -> Radius:
    """The radius w_n + s (w_{n+1} - w_n) via log(1 - r), exact near 1;
    s outside [0, 1], NaN included, raises ValueError."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    ld_n = log_delta(params, n)
    ld_n1 = log_delta(params, n + 1)
    if s == 0.0:
        return Radius.from_log_one_minus(ld_n)
    if s == 1.0:
        return Radius.from_log_one_minus(ld_n1)
    # 1 - r = (1-s) d_n + s d_{n+1}
    return Radius.from_log_one_minus(
        log_add_exp(math.log1p(-s) + ld_n, math.log(s) + ld_n1)
    )


def default_r_grid(params) -> list:
    """Endpoints and midpoints of [w_n, w_{n+1}] for n <= n_check, plus 16
    uniform radii in (w_1, w_{n_check})."""
    grid = []
    for n in range(1, params.n_check + 1):
        grid.append(interval_radius(params, n, 0.0))
        grid.append(interval_radius(params, n, 0.5))
        grid.append(interval_radius(params, n, 1.0))
    w1 = 1.0 - math.exp(log_delta(params, 1))
    wc = 1.0 - math.exp(log_delta(params, params.n_check))
    for i in range(1, 17):
        grid.append(Radius.from_float(w1 + i * (wc - w1) / 17.0))
    grid.sort(key=lambda r: -r.log_one_minus)
    return grid


def _interval_index(params, rad: Radius) -> int:
    """n with r in [w_n, w_{n+1}), or 0 when r < w_1, N when beyond."""
    lomr = rad.log_one_minus
    if lomr > -1.0:
        return 0
    for n in range(1, params.n_terms + 1):
        if -float(n) ** params.beta >= lomr > -float(n + 1) ** params.beta:
            return n
    return params.n_terms


# -- experiments ------------------------------------------------------------


def _radial_values(r_grid: Sequence, f: KernelCombo, pair: Pair) -> list:
    """(radius, log (f_r)+(0), log ||f_r||^2_{H(b)}) for each radius of
    ``r_grid``, as floats.  The log phi(r w_j) of each radius are evaluated
    once and serve both the value and the Gram norm of ``hb_norm_sq``,
    whose operations the norm repeats in its order, bit for bit."""
    out = []
    for r in r_grid:
        rad = as_radius(r)
        fr = dilate(f, rad)
        lphi = _log_phi_at_nodes(fr, pair)
        out.append((rad, _fr_plus_at_zero(fr, lphi), log_sum_exp(_gram_log_terms(fr, lphi))))
    return out


def divergence_curve(
    r_grid: Sequence, f: KernelCombo, pair: Pair
) -> ExperimentReport:
    """|(f_r)+(0)| and ||f_r||_{H(b)} along a radius grid, against the
    closed per-interval lower bound e^{-n^beta/2} exp(e^{n^beta-n^alpha})/n^2.

    The pass flag asserts value >= bound only on intervals n <= n_check
    (the range where the growth inequality is actually checked); rows off
    those intervals carry n and bound for context but always pass.  The
    log phi(r w_j) of each radius are evaluated once and serve both the
    value and the Gram norm of ``hb_norm_sq``.
    """
    return _divergence_report(_radial_values(r_grid, f, pair), pair.params)


def growth_envelope(r_grid: Sequence, f: KernelCombo, pair: Pair) -> ExperimentReport:
    """E(r) = log||f_r|| * (1-r) * exp((log 1/(1-r))^{alpha/beta}); the grid
    minimum is the empirical constant of the growth-rate estimate.  The
    trend column log||f_r|| * (1-r) is reported without assertion."""
    radii = [as_radius(r) for r in r_grid]
    return _envelope_report([(rad, hb_norm_sq(dilate(f, rad), pair)) for rad in radii], pair.params)


def divergence_reports(r_grid: Sequence, f: KernelCombo, pair: Pair) -> tuple:
    """(``divergence_curve``, ``growth_envelope``) as the ``divergence``
    verb writes them: the curve on ``r_grid`` and the envelope on its radii
    with log(1 - r) < -1, from one evaluation of each radius' value and
    norm; each report is the one its public function gives."""
    values = _radial_values(r_grid, f, pair)
    norms = [(rad, norm_sq) for rad, _, norm_sq in values if rad.log_one_minus < -1.0]
    return _divergence_report(values, pair.params), _envelope_report(norms, pair.params)


def _divergence_report(values: list, params) -> ExperimentReport:
    """The report of ``divergence_curve`` from ``_radial_values``."""
    rows = []
    all_pass = True
    chain_ok = True
    for rad, val, norm_sq in values:
        log10_val = val / _LN10
        log10_norm = 0.5 * norm_sq / _LN10
        if log10_norm < log10_val - 1e-12:
            chain_ok = False
        n = _interval_index(params, rad)
        if 1 <= n < params.n_terms:
            nb = float(n) ** params.beta
            na = float(n) ** params.alpha
            log10_bound = (-0.5 * nb + math.exp(nb - na) - 2.0 * math.log(n)) / _LN10
        else:
            log10_bound = float("nan")
        ok = True
        if 1 <= n <= params.n_check:
            ok = log10_val >= log10_bound
        all_pass = all_pass and ok
        rows.append((rad.value, log10_val, log10_norm, n, log10_bound, ok))
    return ExperimentReport(
        name="divergence",
        columns=("r", "log10_frplus0", "log10_hbnorm", "n", "log10_bound", "pass"),
        rows=rows,
        params=_params_dict(params),
        metadata={"precision_bits": 53, "norm_chain_ok": chain_ok},
        passed=all_pass and chain_ok,
    )


def _envelope_report(norms: list, params) -> ExperimentReport:
    """The report of ``growth_envelope`` from (radius, log ||f_r||^2)
    pairs."""
    expo = params.alpha / params.beta
    rows = []
    e_values = []
    for rad, norm_sq in norms:
        half_log = 0.5 * norm_sq  # log ||f_r||
        lomr = rad.log_one_minus
        e_r = half_log * math.exp(lomr + (-lomr) ** expo)
        trend = half_log * math.exp(lomr)
        rows.append((rad.value, e_r, trend))
        e_values.append(e_r)
    finite = all(math.isfinite(e) for e in e_values)
    empirical_c = min(e_values) if e_values else float("nan")
    return ExperimentReport(
        name="envelope",
        columns=("r", "E_r", "trend"),
        rows=rows,
        params=_params_dict(params),
        metadata={"precision_bits": 53, "empirical_c": empirical_c},
        passed=finite and bool(e_values) and min(e_values) > 0.0,
    )


# -- coefficient machinery (extended precision) -----------------------------


def f_hat_log(f: KernelCombo, j: int) -> float:
    """log fhat(j), the float log of the positive Taylor coefficient
    fhat(j) = sum_m c_m w_m^j.

    The float oracle of ``_fhat_fixed``, which checks its first and last
    coefficient against it on every run (``_check_fhat``)."""
    return log_sum_exp(
        nd.log_c + j * math.log1p(-math.exp(max(nd.log_one_minus_w, -745.0)))
        for nd in f.nodes
    )


def _fhat_fixed(f: KernelCombo, degree: int, bits: int, radius=None) -> tuple:
    """(F, exp, error_bound): r^j fhat(j) = sum_m c_m v_m^j, v_m = r w_m,
    for j = 0..degree as integers F_j on one fixed-point scale, r^j fhat(j)
    = F_j 2^exp within the relative ``error_bound`` <= 2^-bits.  The one
    integer kernel behind every extended-precision coefficient sum
    (``sarason_series_failure``, ``abel_fr_plus``, and
    ``summability_divergence``, which rounds each F_j once to ``bits``).

    The seeds c_m = exp(log c_m) and v_m = r w_m, with w_m = -expm1(log(1 -
    w_m)) and r = -expm1(log(1 - r)), come from the integer kernels of
    ``hblab.fixed`` (``_seeds``) from the float node data taken as exact:
    c_m rounded to 2W bits, v_m within 2^-(2W+5) relative.  exp is placed
    so that the largest term c_m v_m^degree is 2^(W+1) units or more;
    F_degree, the smallest coefficient (every v_m < 1), is then at least
    2^W.  Each node carries its term c_m v_m^j as an integer
    from j = 0: one multiply by V_m = v_m 2^Q_m (floored, Q_m = W + 1 +
    bits of 1/v_m, so V_m / 2^Q_m is within 2^-W of v_m relative) and one
    shift by Q_m per j.

    The count behind W, per coefficient: each of the K = len(nodes) nodes
    carries at most j + 1 floors of one unit, and its term at most
    2 j eta relative from V_m (eta = 2^-W + 2^(1 - 2W)) and
    8 (degree + 3) 2^-2W from the 2W-bit node data.  So r^j fhat(j) is within
        K (j + 1) / (F_j - K (j + 1)) + 2 degree eta + 8 (degree + 3) 2^-2W
    relative, and with F_j >= 2^W this is below 2^-bits for
    W = bits + 1 + bitlen(K (degree + 1) + 2 degree + 1).  This bound
    never decreases as j grows: F_j never increases (every V_m < 2^Q_m),
    K (j + 1) grows, the last term is a constant, and rounding preserves
    order.  So the largest bound is that of F_degree, returned as
    ``error_bound``; a bound that misses 2^-bits raises ArithmeticError.
    The first and last coefficients are checked against ``f_hat_log``
    (times r^j) by ``_check_fhat``.
    """
    radius = None if radius is None else as_radius(radius)
    k = len(f.nodes)
    W = bits + 1 + (k * (degree + 1) + 2 * degree + 1).bit_length()
    exp, q, vs, terms = _seeds(f, radius, degree, W)
    F = [sum(terms)]
    for _ in range(degree):
        terms = [(t * vq) >> qm for t, vq, qm in zip(terms, vs, q)]
        F.append(sum(terms))
    _check_fhat(f, radius, 0, F[0], exp)
    eta = 2.0**-W + 2.0 ** (1 - 2 * W)
    fixed = 2 * degree * eta + (degree + 3) * 2.0 ** (3 - 2 * W)
    units = k * (degree + 1)
    rel = units / (F[-1] - units) + fixed if F[-1] > units else math.inf
    if rel > 2.0**-bits:
        raise ArithmeticError(
            f"fhat({degree}) cannot be carried to {bits} bits at 2^{exp}: "
            f"its counted relative error bound is {rel:.3e}"
        )
    _check_fhat(f, radius, degree, F[-1], exp)
    return F, exp, rel


def _check_fhat(f: KernelCombo, radius: Optional[Radius], j: int, total: int, exp: int) -> None:
    """Raise ArithmeticError where log(F_j 2^exp) of ``_fhat_fixed`` leaves
    the float ``f_hat_log`` plus j log r by more than that route's float
    error: each log-term log c + j log1p(-e^(log(1-w))) is off by a few
    units of 2^-53 in |log c| and, through log1p, in j / w, and log r
    likewise by j / r; 2^-48 times their sum holds all of it with room."""
    r, log_r = 1.0, 0.0
    if radius is not None:
        r = radius.value
        log_r = math.log1p(-math.exp(max(radius.log_one_minus, -745.0)))
    tol = 2.0**-48 * (1.0 + max(abs(nd.log_c) + j / nd.w for nd in f.nodes) + j / r)
    got = math.log(total) + exp * _LN2
    want = f_hat_log(f, j) + j * log_r
    if abs(got - want) > tol:
        raise ArithmeticError(
            f"fhat({j}) leaves the log-domain oracle: log {got!r} against {want!r}"
        )


def _seeds(f: KernelCombo, radius: Optional[Radius], degree: int, W: int) -> tuple:
    """(exp, Q, V, C): the integer seeds of ``_fhat_fixed`` at working bits
    W, with Q_m = W + 2 - mag(v_m), V_m = floor(v_m 2^Q_m) and C_m =
    floor(c_m 2^-exp), exp = mag(max_m c_m v_m^degree) - W - 2, where
    mag(x) = floor(log2 x) + 1.

    c_m = exp(log c_m) is ``exp_fixed`` at 2W + 32 bits, within
    2^-(2W+30) relative (the float log c_m is exact there, or floored by
    one unit), rounded half-even to 2W bits: within 2^-2W (1 + 2^-30), and
    the correctly rounded 2W-bit value unless the exact one lies within
    2^-(2W+30) of a rounding midpoint.

    With P = 2W + 8, w_m = -expm1(l), l = log(1 - w_m) < 0, is
    ``expm1_fixed`` within 2 units at P plus the bits D(l) = max(0, 2 - e)
    that a float l = f 2^e (1/2 <= |f| < 1) lacks: |expm1(l)| >= 0.63
    min(1, |l|) >= 2^(e-2) puts w_m at 2^(2W+8) units or more, so it is
    within 2^-(2W+7) relative.  r likewise, once at the most bits any node
    takes and floored to each node's (3 units); v_m = r w_m, one floor of
    their product at P + D(l) + D(log(1 - r)) bits, is within 6 2^-(2W+8)
    < 2^-(2W+5) relative.

    The mags come from those integers, and max c_m v_m^degree from powers
    truncated to 2W bits, within (degree + 2 bitlen(degree) + 2) 2^(1-2W)
    relative: only a product that close to a power of two can take another
    mag than its exact value has.
    """
    from .fixed import exp_fixed, expm1_fixed, float_fixed, floor_shift, round_half_even

    def lacks(l: float) -> int:
        return max(0, 2 - math.frexp(l)[1])

    P = 2 * W + 8
    lr = None if radius is None else radius.log_one_minus
    rd = 0 if lr is None else lacks(lr)
    widest = P + rd + max(lacks(nd.log_one_minus_w) for nd in f.nodes)
    r = None if lr is None else -expm1_fixed(float_fixed(lr, widest), widest)
    cs, vs = [], []
    for nd in f.nodes:
        y, n = exp_fixed(float_fixed(nd.log_c, P + 24), P + 24)
        cs.append(round_half_even(y, n - P - 24, 2 * W))  # c_m = y 2^(n - P - 24)
        pv = P + rd + lacks(nd.log_one_minus_w)
        w = -expm1_fixed(float_fixed(nd.log_one_minus_w, pv), pv)
        vs.append((w if r is None else (w * (r >> (widest - pv))) >> pv, -pv))

    def mag(m: int, e: int) -> int:
        return m.bit_length() + e

    def times(a: tuple, b: tuple) -> tuple:
        # a b truncated to 2W bits
        m, e = a[0] * b[0], a[1] + b[1]
        cut = max(0, m.bit_length() - 2 * W)
        return m >> cut, e + cut

    def power(v: tuple, k: int) -> tuple:
        out = (1, 0)
        while k:
            if k & 1:
                out = times(out, v)
            k >>= 1
            if k:
                v = times(v, v)
        return out

    exp = max(mag(*times(c, power(v, degree))) for c, v in zip(cs, vs)) - W - 2
    q = [W + 2 - mag(*v) for v in vs]
    vq = [floor_shift(m, e + qm) for (m, e), qm in zip(vs, q)]
    terms = [floor_shift(m, e - exp) for m, e in cs]
    return exp, q, vq, terms


def required_bits_for_degree(pair: Pair, degree: int) -> int:
    """Mantissa bits needed to carry phihat up to the given degree: the
    coefficient magnitude bound min_rho M(rho) rho^{-degree} at
    rho = 1 - 1/degree, plus guard bits."""
    params = pair.params
    m = params.resolved_power()
    rho_c = 1.0 / max(degree, 2)
    log_y = math.log(rho_c / 2.0)
    f_val = math.exp(half_plane_log_modulus_radial(log_y, params))
    ln_bound = 2.0 * m * f_val - degree * math.log1p(-rho_c)
    return int(ln_bound / math.log(2.0)) + 64


def phi_hat_series(pair: Pair, degree: int, precision_bits: int) -> TaylorSeries:
    """Taylor coefficients 0..degree of phi as P-bit numbers (``fixed.PBit``).

    ``Pair.phi_hat``, the one phi-hat of hblab, behind a precision gate:
    ``outer_series`` of the theta-symmetric phi modulus, one real
    recurrence per arc in fixed point, each coefficient within its
    counted error bound of 2^-precision_bits relative, with its low
    coefficients checked against the O(N^2) exp route.  Raises
    PrecisionExhausted when ``precision_bits`` is below
    ``required_bits_for_degree``, which is never less than 64 bits.
    """
    need = required_bits_for_degree(pair, degree)
    if precision_bits < need:
        raise PrecisionExhausted(
            f"degree {degree} needs about {need} bits, configured {precision_bits}"
        )
    return pair.phi_hat(degree, precision_bits)


def abel_fr_plus(
    r: Union[float, Radius],
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 256,
    degree: int = 3072,
    tail_rel: float = 1e-9,
    phi_hat: Optional[TaylorSeries] = None,
):
    """(f_r)+(0) as the coefficient series sum_j r^j fhat(j) phihat(j).

    Independent of the log-domain Gram route: the value is rebuilt from
    actual Taylor coefficients at extended precision.  r is folded into the
    nodes of ``_fhat_fixed``, whose r^j fhat(j) meet 2^-bits relative; the
    sum with the aligned mantissas of phi-hat is exact (``fixed_dot``) and
    rounded once, half-even, to the larger of ``precision_bits`` and
    phi-hat's precision.  Raises PrecisionExhausted if the exact terms have
    not decayed below ``tail_rel`` times the sum by the end of the
    truncation.  Returns a ``fixed.PBit``, which mpmath accepts as an mpf.
    """
    from .fixed import fixed_dot, fixed_mantissas, to_pbit

    if phi_hat is None:
        phi_hat = phi_hat_series(pair, degree, precision_bits)
    degree = phi_hat.truncation_degree
    bits = max(precision_bits, phi_hat.precision_bits)
    fhat, fhat_exp, _ = _fhat_fixed(f, degree, bits, r)
    phis, phi_exp = fixed_mantissas(phi_hat.coeffs)
    tail_start = max(0, degree - max(degree // 20, 16))
    tail = list(map(operator.mul, fhat[tail_start:], phis[tail_start:]))
    total = fixed_dot(fhat[:tail_start], phis) + sum(tail)
    ratio = max(map(abs, tail)) / abs(total)
    if ratio > tail_rel:
        raise PrecisionExhausted(
            f"coefficient series not converged at degree {degree}: tail/total = {ratio:.5g}"
        )
    return to_pbit(total, fhat_exp + phi_exp, bits)


def _pbit_setup(f: KernelCombo, pair: Pair, degree: int, precision_bits: int) -> tuple:
    """(F, exp, phis, phi_exp, metadata): the shared start of the P-bit
    reports.  fhat(j) = F_j 2^exp for j = 0..degree within
    ``fhat_error_bound`` relative (``_fhat_fixed``); phi-hat's
    coefficients (``phi_hat_series``) as the aligned mantissas
    phis_j 2^phi_exp; and the report metadata: ``precision_bits``,
    ``bits_required`` for ``degree``, ``series_error_bound``, the largest
    counted relative error bound of a coefficient of phi-hat
    (``outer_series``), and ``fhat_error_bound``, the largest of fhat."""
    from .fixed import fixed_mantissas

    phi_hat = phi_hat_series(pair, degree, precision_bits)
    fhat, exp, fhat_bound = _fhat_fixed(f, degree, precision_bits)
    phis, phi_exp = fixed_mantissas(phi_hat.coeffs)
    metadata = {
        "precision_bits": precision_bits,
        "bits_required": required_bits_for_degree(pair, degree),
        "series_error_bound": phi_hat.error_bound,
        "fhat_error_bound": fhat_bound,
    }
    return fhat, exp, phis, phi_exp, metadata


def sarason_series_failure(
    j_max: int,
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 256,
) -> ExperimentReport:
    """Partial sums S_J = sum_{j<=J} fhat(j) phihat(j) of the coefficient
    series at r = 1, which the norm formula would need to converge; they
    grow without ceiling instead.

    Each S_J is the exact running sum of the products of fhat's integers
    with phi-hat's aligned mantissas (``_pbit_setup``, whose metadata the
    report carries), rounded once at its checkpoint J to
    ``precision_bits``.  Each row's log10 is that of ``fixed.log10``, and
    ``ratio_full_to_half`` the quotient of the last sum by the one at the
    last checkpoint J <= j_max / 2, rounded once to 53 bits."""
    from . import fixed

    if j_max < 2:
        raise ParameterError(f"j_max must be at least 2, got {j_max}")
    fhat, fhat_exp, phis, phi_exp, meta = _pbit_setup(f, pair, j_max, precision_bits)
    checkpoints = []
    j = 1
    while j < j_max:
        checkpoints.append(j)
        j *= 2
    checkpoints.append(j_max)
    rows = []
    sums = {
        j: fixed.to_pbit(total, fhat_exp + phi_exp, precision_bits)
        for j, total in enumerate(accumulate(map(operator.mul, fhat, phis)))
        if j in checkpoints
    }
    ok = True
    for j in checkpoints:
        s = sums[j]
        if s > 0:
            rows.append((j, fixed.log10(s, precision_bits)))
        else:
            rows.append((j, float("nan")))
            ok = False
    half = sums[max(c for c in checkpoints if c <= j_max // 2)]
    ratio = float(fixed.quotient(sums[j_max], half, 53)) if half else float("nan")
    meta["ratio_full_to_half"] = ratio
    return ExperimentReport(
        name="sarason",
        columns=("J", "log10_SJ"),
        rows=rows,
        params=_params_dict(pair.params),
        metadata=meta,
        passed=ok and sums[j_max] > half,
    )


def summability_divergence(
    n_list: Sequence[int],
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 192,
) -> ExperimentReport:
    """||s_n(f)||_{H(b)} and ||sigma_n(f)||_{H(b)} for the Taylor partial
    sums and Cesaro means, each ||p||^2 + ||T_phi-bar p||^2 one exact
    integer sum rounded once, with the one phi-hat of ``phi_hat_series``
    shared by all rows, the phi-hat of ``sarason`` and of the Abel sums.

    fhat comes from ``_fhat_fixed``, rounded once to ``precision_bits``;
    its mantissas and phi-hat's are aligned once each (``fixed_mantissas``).
    s_n is a prefix of fhat's mantissas and sigma_n that prefix times the
    integer Fejer weights n + 1 - j, its factor 1/(n+1)^2 taken in the one
    final rounding; the coefficients of f+ = T_phi-bar p are the exact
    integer sums of ``fixed_toeplitz``, the P-bit form of
    ``hb.toeplitz_coanalytic_apply``.  Each norm is the correctly
    rounded P-bit quotient of ``fixed.quotient``, and its log10 that of
    ``fixed.log10``.  Reports running maxima (the
    limsup claim is exhibited as monotone growth over the computed range,
    never asserted as a limit) and the convexity sanity
    ||sigma_n|| <= max_{k<=n} ||s_k|| over computed k.  The metadata is
    that of ``_pbit_setup`` and ``convexity_ok``.
    """
    from . import fixed
    from .fixed import fixed_dot, fixed_mantissas, fixed_toeplitz

    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 0 or n_list[-1] < 8:
        raise ParameterError(
            f"summability orders must be >= 0 and include one >= 8, got {n_list}"
        )
    fhat, exp, ps, pe, meta = _pbit_setup(f, pair, n_list[-1], precision_bits)
    fs, fe = fixed_mantissas(fixed.to_pbit(m, exp, precision_bits) for m in fhat)
    # ||p||^2 is on the scale 2^(2 fe), ||f+||^2 on 2^(2 fe + 2 pe)
    low = 2 * fe + min(0, 2 * pe)
    shift_p, shift_plus = 2 * fe - low, 2 * fe + 2 * pe - low

    def log10_norm(ms, den):
        """(1/2) log10 of (||p||^2 + ||T_phi-bar p||^2) / den for the
        polynomial p with mantissas ``ms``, rounded once to P bits."""
        plus = sum(s * s for s in fixed_toeplitz(ps, ms))
        total = (fixed_dot(ms, ms) << shift_p) + (plus << shift_plus)
        norm_sq = fixed.quotient(fixed.PBit(total, low), den, precision_bits)
        return 0.5 * fixed.log10(norm_sq, precision_bits)

    rows = []
    s_norms = {}
    convex_ok = True
    for n in n_list:
        ls = log10_norm(fs[: n + 1], 1)
        lsig = log10_norm([m * (n + 1 - j) for j, m in enumerate(fs[: n + 1])], (n + 1) ** 2)
        s_norms[n] = ls
        best_s = max(s_norms[k] for k in s_norms if k <= n)
        if lsig > best_s + 1e-9:
            convex_ok = False
        rows.append((n, ls, lsig))
    growth_ok = (
        len(rows) >= 2
        and rows[-1][1] > next(ls for n, ls, _ in rows if n >= 8)
        and rows[-1][2] > next(lg for n, _, lg in rows if n >= 8)
    )
    meta["convexity_ok"] = convex_ok
    return ExperimentReport(
        name="summability",
        columns=("n", "log10_sn_norm", "log10_sigman_norm"),
        rows=rows,
        params=_params_dict(pair.params),
        metadata=meta,
        passed=convex_ok and growth_ok,
    )
