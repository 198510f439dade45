"""The divergence experiments: the blow-up curve, the growth envelope,
the coefficient-series failure, and summability divergence.

The central object is f = sum_j c_j k_{w_j} with
c_j = (1 - w_j)^{1/2} / (j^2 phi(w_j)); its radial dilates satisfy
(f_r)+(0) = sum_j c_j phi(r w_j), all terms positive, which is computed in
log-domain far past float range.  The cross-representation oracle re-derives
the same value from actual Taylor coefficients, (f_r)+(0) =
sum_j r^j fhat(j) phihat(j), at extended precision.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from .hb import (
    KernelCombo,
    KernelNode,
    Radius,
    as_radius,
    cesaro_mean,
    dilate,
    f_plus_solve,
    hb_norm_sq,
    kernel_combo_ccond_check,
    partial_sum,
)
from .logscalar import LogScalar, log_add_exp, log_sum_exp
from .outer import ParameterError, half_plane_log_modulus_radial, log_delta
from .pair import Pair, outer_series
from .reports import CODE_VERSION, ExperimentReport
from .series import TaylorSeries

_LN10 = math.log(10.0)


class PrecisionExhausted(RuntimeError):
    """The requested computation needs more mantissa bits than configured."""


# -- the function f --------------------------------------------------------


def build_divergent_combo(params, pair: Pair) -> KernelCombo:
    """f = sum_{j=1..N} c_j k_{w_j}, c_j = (1 - w_j)^{1/2} / (j^2 phi(w_j)).

    Certifies the admissibility condition termwise: each term
    |c_j|(1 + phi(w_j))(1 - w_j)^{-1/2} = (1 + phi(w_j))/(j^2 phi(w_j))
    must be at most 2/j^2 (phi >= 1 forces it).
    """
    nodes = []
    for j in range(1, params.n_terms + 1):
        ld = log_delta(params, j)
        lphi = pair.log_phi_radial_at(ld)
        log_c = 0.5 * ld - 2.0 * math.log(j) - lphi
        nodes.append(KernelNode(LogScalar.exp_of(log_c), ld))
    combo = KernelCombo(tuple(nodes))
    terms = kernel_combo_ccond_check(combo, pair)
    for j, term in enumerate(terms, start=1):
        limit = math.log(2.0) - 2.0 * math.log(j)
        if term.log_mag > limit + 1e-9:
            raise ArithmeticError(
                f"admissibility term {j} exceeds 2/j^2: log term {term.log_mag}"
            )
    return combo


def fr_plus_at_zero(r: Union[float, Radius], f: KernelCombo, pair: Pair) -> LogScalar:
    """(f_r)+(0) = sum_j c_j phi(r w_j), all terms positive, in log-domain."""
    combo_r = dilate(f, r)
    terms = [
        LogScalar.exp_of(
            nd.log_c.log_mag + pair.log_phi_radial_at(nd.log_one_minus_w)
        )
        for nd in combo_r.nodes
    ]
    return log_sum_exp(terms)


# -- radius grids -----------------------------------------------------------


def interval_radius(params, n: int, s: float) -> Radius:
    """The radius w_n + s (w_{n+1} - w_n) via log(1 - r), exact near 1."""
    ld_n = log_delta(params, n)
    ld_n1 = log_delta(params, n + 1)
    if s <= 0.0:
        return Radius.from_log_one_minus(ld_n)
    if s >= 1.0:
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


def _base_metadata(pair: Pair, precision_bits: int) -> dict:
    return {
        "code_version": CODE_VERSION,
        "precision_bits": precision_bits,
    }


def _params_dict(params) -> dict:
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "n_terms": params.n_terms,
        "power_m": params.power_m,
        "n_check": params.n_check,
    }


def divergence_curve(
    r_grid: Sequence, f: KernelCombo, pair: Pair
) -> ExperimentReport:
    """|(f_r)+(0)| and ||f_r||_{H(b)} along a radius grid, against the
    closed per-interval lower bound e^{-n^beta/2} exp(e^{n^beta-n^alpha})/n^2.

    The pass flag asserts value >= bound only on intervals n <= n_check
    (the range where the growth inequality is actually checked); rows off
    those intervals carry n and bound for context but always pass.
    """
    params = pair.params
    rows = []
    all_pass = True
    chain_ok = True
    for r in r_grid:
        rad = as_radius(r)
        val = fr_plus_at_zero(rad, f, pair)
        norm_sq = hb_norm_sq(dilate(f, rad), pair)
        log10_val = val.log_mag / _LN10
        log10_norm = 0.5 * norm_sq.log_mag / _LN10
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
    meta = _base_metadata(pair, 53)
    meta["norm_chain_ok"] = chain_ok
    return ExperimentReport(
        name="divergence",
        columns=("r", "log10_frplus0", "log10_hbnorm", "n", "log10_bound", "pass"),
        rows=rows,
        params=_params_dict(params),
        metadata=meta,
        passed=all_pass and chain_ok,
    )


def growth_envelope(r_grid: Sequence, f: KernelCombo, pair: Pair) -> ExperimentReport:
    """E(r) = log||f_r|| * (1-r) * exp((log 1/(1-r))^{alpha/beta}); the grid
    minimum is the empirical constant of the growth-rate estimate.  The
    trend column log||f_r|| * (1-r) is reported without assertion."""
    params = pair.params
    expo = params.alpha / params.beta
    rows = []
    e_values = []
    for r in r_grid:
        rad = as_radius(r)
        norm_sq = hb_norm_sq(dilate(f, rad), pair)
        half_log = 0.5 * norm_sq.log_mag  # log ||f_r||
        lomr = rad.log_one_minus
        e_r = half_log * math.exp(lomr + (-lomr) ** expo)
        trend = half_log * math.exp(lomr)
        rows.append((rad.value, e_r, trend))
        e_values.append(e_r)
    meta = _base_metadata(pair, 53)
    finite = all(math.isfinite(e) for e in e_values)
    meta["empirical_c"] = min(e_values) if e_values else float("nan")
    return ExperimentReport(
        name="envelope",
        columns=("r", "E_r", "trend"),
        rows=rows,
        params=_params_dict(params),
        metadata=meta,
        passed=finite and bool(e_values) and min(e_values) > 0.0,
    )


# -- coefficient machinery (extended precision) -----------------------------


def f_hat_log(f: KernelCombo, j: int) -> LogScalar:
    """log-domain Taylor coefficient fhat(j) = sum_m c_m w_m^j (positive)."""
    terms = []
    for nd in f.nodes:
        log_w = math.log1p(-math.exp(max(nd.log_one_minus_w, -745.0)))
        terms.append(LogScalar.exp_of(nd.log_c.log_mag + j * log_w))
    return log_sum_exp(terms)


def required_bits_for_degree(pair: Pair, degree: int) -> int:
    """Mantissa bits needed to carry phihat up to the given degree: the
    coefficient magnitude bound min_rho M(rho) rho^{-degree} at
    rho = 1 - 1/degree, plus guard bits."""
    params = pair.params
    m = params.resolved_power()
    rho_c = 1.0 / max(degree, 2)
    log_y = math.log(rho_c / 2.0)
    f_val = half_plane_log_modulus_radial(log_y, params).to_float()
    ln_bound = 2.0 * m * f_val - degree * math.log1p(-rho_c)
    return int(ln_bound / math.log(2.0)) + 64


def phi_hat_series(pair: Pair, degree: int, precision_bits: int) -> TaylorSeries:
    """Taylor coefficients 0..degree of phi as real mpmath numbers.

    ``outer_series`` of the phi modulus: exp of the exact Fourier log
    series (real by theta-symmetry), the exp recurrence carried at
    ``precision_bits``.  Raises PrecisionExhausted when that is below
    ``required_bits_for_degree``, which is never less than 64 bits.
    """
    need = required_bits_for_degree(pair, degree)
    if precision_bits < need:
        raise PrecisionExhausted(
            f"degree {degree} needs about {need} bits, configured {precision_bits}"
        )
    return outer_series(pair.phi_modulus, degree, precision_bits)


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
    actual Taylor coefficients at extended precision.  Raises
    PrecisionExhausted if the terms have not decayed below ``tail_rel``
    times the sum by the end of the truncation.  Returns an mpmath number.
    """
    from mpmath import mp

    if phi_hat is None:
        phi_hat = phi_hat_series(pair, degree, precision_bits)
    degree = phi_hat.truncation_degree
    rad = as_radius(r)
    with mp.workprec(max(precision_bits, phi_hat.precision_bits)):
        r_mp = 1 - mp.exp(mp.mpf(rad.log_one_minus))
        total = mp.mpf(0)
        r_pow = mp.mpf(1)
        tail_max = mp.mpf(0)
        tail_start = degree - max(degree // 20, 16)
        for j in range(degree + 1):
            fh = mp.exp(mp.mpf(f_hat_log(f, j).log_mag))
            term = r_pow * fh * phi_hat.coeffs[j]
            total += term
            if j >= tail_start:
                tail_max = max(tail_max, abs(term))
            r_pow *= r_mp
        if tail_max > tail_rel * abs(total):
            raise PrecisionExhausted(
                f"coefficient series not converged at degree {degree}: "
                f"tail/total = {mp.nstr(tail_max / abs(total), 5)}"
            )
        return total


def sarason_series_failure(
    j_max: int,
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 256,
) -> ExperimentReport:
    """Partial sums S_J = sum_{j<=J} fhat(j) phihat(j) of the coefficient
    series at r = 1, which the norm formula would need to converge; they
    grow without ceiling instead."""
    from mpmath import mp

    if j_max < 2:
        raise ParameterError(f"j_max must be at least 2, got {j_max}")
    phi_hat = phi_hat_series(pair, j_max, precision_bits)
    checkpoints = []
    j = 1
    while j < j_max:
        checkpoints.append(j)
        j *= 2
    checkpoints.append(j_max)
    rows = []
    with mp.workprec(max(precision_bits, phi_hat.precision_bits)):
        total = mp.exp(mp.mpf(f_hat_log(f, 0).log_mag)) * phi_hat.coeffs[0]
        sums = {}
        for j in range(1, j_max + 1):
            fh = mp.exp(mp.mpf(f_hat_log(f, j).log_mag))
            total += fh * phi_hat.coeffs[j]
            if j in checkpoints or j == j_max:
                sums[j] = total
        ok = True
        for j in checkpoints:
            s = sums[j]
            if s > 0:
                rows.append((j, float(mp.log10(s))))
            else:
                rows.append((j, float("nan")))
                ok = False
        half = sums.get(max(c for c in checkpoints if c <= j_max // 2), None)
        growth = half is not None and sums[j_max] > half
    meta = _base_metadata(pair, precision_bits)
    meta["ratio_full_to_half"] = float(sums[j_max] / half) if half else float("nan")
    return ExperimentReport(
        name="sarason",
        columns=("J", "log10_SJ"),
        rows=rows,
        params=_params_dict(pair.params),
        metadata=meta,
        passed=ok and growth,
    )


def summability_divergence(
    n_list: Sequence[int],
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 192,
) -> ExperimentReport:
    """||s_n(f)||_{H(b)} and ||sigma_n(f)||_{H(b)} for the Taylor partial
    sums and Cesaro means, via the f+ solve on polynomial truncations.

    Reports running maxima (the limsup claim is exhibited as monotone
    growth over the computed range, never asserted as a limit) and the
    convexity sanity ||sigma_n|| <= max_{k<=n} ||s_k|| over computed k.
    """
    import dataclasses

    from mpmath import mp

    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 0 or n_list[-1] < 8:
        raise ParameterError(
            f"summability orders must be >= 0 and include one >= 8, got {n_list}"
        )
    deg_f = n_list[-1]
    work_degree = 2 * deg_f + 16
    need = required_bits_for_degree(pair, work_degree)
    if precision_bits < need:
        raise PrecisionExhausted(
            f"degree {work_degree} needs about {need} bits, configured {precision_bits}"
        )
    mp_pair = dataclasses.replace(
        pair,
        a_series=outer_series(pair.a_modulus, work_degree, precision_bits),
        b_series=outer_series(pair.b_modulus, work_degree, precision_bits),
    )
    rows = []
    with mp.workprec(precision_bits):
        f_series = TaylorSeries(
            tuple(mp.exp(mp.mpf(f_hat_log(f, j).log_mag)) for j in range(deg_f + 1)),
            precision_bits=precision_bits,
        )

        def log10_norm(poly):
            fp = f_plus_solve(poly, mp_pair, degree=work_degree)
            total = poly.l2_norm_sq() + fp.l2_norm_sq()
            return 0.5 * float(mp.log10(total))

        s_norms = {}
        convex_ok = True
        for n in n_list:
            ls = log10_norm(partial_sum(f_series, n))
            lsig = log10_norm(cesaro_mean(f_series, n))
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
    meta = _base_metadata(pair, precision_bits)
    meta["convexity_ok"] = convex_ok
    return ExperimentReport(
        name="summability",
        columns=("n", "log10_sn_norm", "log10_sigman_norm"),
        rows=rows,
        params=_params_dict(pair.params),
        metadata=meta,
        passed=convex_ok and growth_ok,
    )
