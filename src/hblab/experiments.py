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
import operator
from itertools import islice
from typing import Optional, Sequence, Union

from .hb import (
    KernelCombo,
    KernelNode,
    Radius,
    _gram_log_terms,
    _log_phi_at_nodes,
    as_radius,
    dilate,
    hb_norm_sq,
    kernel_combo_ccond_check,
)
from .logscalar import LogScalar, log_add_exp, log_sum_exp
from .outer import (
    ParameterError,
    PrecisionExhausted,
    _params_dict,
    half_plane_log_modulus_radial,
    log_delta,
)
from .pair import Pair
from .reports import CODE_VERSION, ExperimentReport
from .series import TaylorSeries, fixed_dot, fixed_mantissas, fixed_to_mpf, fixed_toeplitz

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)


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
    fr = dilate(f, r)
    return _fr_plus_at_zero(fr, _log_phi_at_nodes(fr, pair))


def _fr_plus_at_zero(fr: KernelCombo, lphi: list) -> LogScalar:
    """``fr_plus_at_zero`` of the dilate ``fr``, given log phi at its nodes."""
    return log_sum_exp(nd.log_c.log_mag + lp for nd, lp in zip(fr.nodes, lphi))


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


def _base_metadata(precision_bits: int) -> dict:
    return {
        "code_version": CODE_VERSION,
        "precision_bits": precision_bits,
    }


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
    params = pair.params
    rows = []
    all_pass = True
    chain_ok = True
    for r in r_grid:
        rad = as_radius(r)
        fr = dilate(f, rad)
        lphi = _log_phi_at_nodes(fr, pair)
        val = _fr_plus_at_zero(fr, lphi)
        norm_sq = log_sum_exp(_gram_log_terms(fr, lphi))
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
    meta = _base_metadata(53)
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
    meta = _base_metadata(53)
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
    """log-domain Taylor coefficient fhat(j) = sum_m c_m w_m^j (positive).

    The float oracle of ``_FhatFixed``, which checks its first and last
    coefficient against it on every run."""
    return log_sum_exp(
        nd.log_c.log_mag + j * math.log1p(-math.exp(max(nd.log_one_minus_w, -745.0)))
        for nd in f.nodes
    )


class _FhatFixed:
    """r^j fhat(j) = sum_m c_m v_m^j, v_m = r w_m, for j = 0..degree as
    integers F_j on one fixed-point scale: r^j fhat(j) = F_j 2^exp within
    a counted relative error.  The one integer kernel behind every
    extended-precision coefficient sum (``sarason_series_failure``,
    ``abel_fr_plus``, and ``summability_divergence``, which rounds each
    F_j once to ``bits`` and sums the aligned mantissas as exact squares
    and f+ dot products); iterating it streams F_0..F_degree, and the
    per-node state is all it stores.

    mpmath computes c_m = exp(log c_m) and v_m = r w_m, with
    w_m = 1 - exp(log(1 - w_m)) and r = 1 - exp(log(1 - r)), at 2W bits
    from the float node data taken as exact, and places exp so that the
    largest term c_m v_m^degree is 2^(W+1) units or more; F_degree, the
    smallest coefficient (every v_m < 1), is then at least 2^W.  Each node
    carries its term c_m v_m^j as an integer from j = 0: one multiply by
    V_m = v_m 2^Q_m (floored, Q_m = W + 1 + bits of 1/v_m, so V_m / 2^Q_m
    is within 2^-W of v_m relative) and one shift by Q_m per j.

    The count behind W, per coefficient: each of the K = len(nodes) nodes
    carries at most j + 1 floors of one unit, and its term at most
    2 j eta relative from V_m (eta = 2^-W + 2^(1 - 2W)) and
    8 (degree + 3) 2^-2W from the mpmath data.  So r^j fhat(j) is within
        K (j + 1) / (F_j - K (j + 1)) + 2 degree eta + 8 (degree + 3) 2^-2W
    relative, and with F_j >= 2^W this is below 2^-bits for
    W = bits + 1 + bitlen(K (degree + 1) + 2 degree + 1).  This bound
    never decreases as j grows: F_j never increases (every V_m < 2^Q_m),
    K (j + 1) grows, the last term is a constant, and rounding preserves
    order.  So the largest bound is that of F_degree: it is tested once,
    before F_degree is yielded, and recorded as ``error_bound``; a bound
    that misses 2^-bits raises ArithmeticError.  The first and last
    coefficients are checked against ``f_hat_log`` (times r^j) within that
    oracle's own float error.
    """

    def __init__(self, f: KernelCombo, degree: int, bits: int, radius=None):
        from mpmath import mp

        self.f, self.degree, self.bits = f, degree, bits
        self.radius = None if radius is None else as_radius(radius)
        k = len(f.nodes)
        self.W = W = bits + 1 + (k * (degree + 1) + 2 * degree + 1).bit_length()
        self.wp = 2 * W
        with mp.workprec(self.wp):
            r = 1 if radius is None else -mp.expm1(mp.mpf(self.radius.log_one_minus))
            self.c = [mp.exp(mp.mpf(nd.log_c.log_mag)) for nd in f.nodes]
            self.v = [r * -mp.expm1(mp.mpf(nd.log_one_minus_w)) for nd in f.nodes]
            top = max(c * v**degree for c, v in zip(self.c, self.v))
        # mag(x) = floor(log2 x) + 1: top is 2^(W+1) units or more
        self.exp = mp.mag(top) - W - 2
        self.q = [W + 2 - mp.mag(v) for v in self.v]
        self.error_bound = 0.0

    def __iter__(self):
        from mpmath.libmp import to_fixed

        degree, bits, W = self.degree, self.bits, self.W
        k = len(self.f.nodes)
        eta = 2.0**-W + 2.0 ** (1 - self.wp)
        fixed = 2 * degree * eta + (degree + 3) * 2.0 ** (3 - self.wp)
        vs = [to_fixed(v._mpf_, q) for v, q in zip(self.v, self.q)]
        terms = [to_fixed(c._mpf_, -self.exp) for c in self.c]
        for j in range(degree + 1):
            total = sum(terms)
            if j == degree:
                units = k * (j + 1)
                rel = units / (total - units) + fixed if total > units else math.inf
                if rel > 2.0**-bits:
                    raise ArithmeticError(
                        f"fhat({j}) cannot be carried to {bits} bits at 2^{self.exp}: "
                        f"its counted relative error bound is {rel:.3e}"
                    )
                self.error_bound = rel
            if j in (0, degree):
                self._check_oracle(j, total)
            yield total
            terms = [(t * vq) >> q for t, vq, q in zip(terms, vs, self.q)]

    def _check_oracle(self, j: int, total: int) -> None:
        """Raise ArithmeticError where log(F_j 2^exp) leaves the float
        ``f_hat_log`` plus j log r by more than that route's float error:
        each log-term log c + j log1p(-e^(log(1-w))) is off by a few units of
        2^-53 in |log c| and, through log1p, in j / w, and log r likewise by
        j / r; 2^-48 times their sum holds all of it with room."""
        r, log_r = 1.0, 0.0
        if self.radius is not None:
            r = self.radius.value
            log_r = math.log1p(-math.exp(max(self.radius.log_one_minus, -745.0)))
        tol = 2.0**-48 * (
            1.0
            + max(abs(nd.log_c.log_mag) + j / nd.w for nd in self.f.nodes)
            + j / r
        )
        got = math.log(total) + self.exp * _LN2
        want = f_hat_log(self.f, j).log_mag + j * log_r
        if abs(got - want) > tol:
            raise ArithmeticError(
                f"fhat({j}) leaves the log-domain oracle: log {got!r} against {want!r}"
            )


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
    nodes of ``_FhatFixed``, whose r^j fhat(j) meet 2^-bits relative; the
    sum with the aligned mantissas of phi-hat is exact (``fixed_dot``) and
    rounded once to the larger of ``precision_bits`` and phi-hat's
    precision.  Raises PrecisionExhausted if the exact terms have not
    decayed below ``tail_rel`` times the sum by the end of the truncation.
    Returns an mpmath number.
    """
    if phi_hat is None:
        phi_hat = phi_hat_series(pair, degree, precision_bits)
    degree = phi_hat.truncation_degree
    bits = max(precision_bits, phi_hat.precision_bits)
    kernel = _FhatFixed(f, degree, bits, r)
    fhat = iter(kernel)
    phis, phi_exp = fixed_mantissas(phi_hat.coeffs)
    tail_start = max(0, degree - max(degree // 20, 16))
    total = fixed_dot(islice(fhat, tail_start), phis[:tail_start])
    tail = list(map(operator.mul, fhat, phis[tail_start:]))
    total += sum(tail)
    ratio = max(map(abs, tail)) / abs(total)
    if ratio > tail_rel:
        raise PrecisionExhausted(
            f"coefficient series not converged at degree {degree}: tail/total = {ratio:.5g}"
        )
    return fixed_to_mpf(total, kernel.exp + phi_exp, bits)


def sarason_series_failure(
    j_max: int,
    f: KernelCombo,
    pair: Pair,
    precision_bits: int = 256,
) -> ExperimentReport:
    """Partial sums S_J = sum_{j<=J} fhat(j) phihat(j) of the coefficient
    series at r = 1, which the norm formula would need to converge; they
    grow without ceiling instead.

    fhat streams from ``_FhatFixed`` and phi-hat's mantissas are aligned
    once, so the running sum is one exact integer, rounded once at each
    checkpoint J to ``precision_bits``.  The metadata carries
    ``series_error_bound``, the largest counted relative error bound of a
    coefficient of phi-hat (``outer_series``), and ``fhat_error_bound``,
    the largest of fhat (``_FhatFixed``)."""
    from mpmath import mp

    if j_max < 2:
        raise ParameterError(f"j_max must be at least 2, got {j_max}")
    phi_hat = phi_hat_series(pair, j_max, precision_bits)
    kernel = _FhatFixed(f, j_max, precision_bits)
    fhat = iter(kernel)
    phis, phi_exp = fixed_mantissas(phi_hat.coeffs)
    checkpoints = []
    j = 1
    while j < j_max:
        checkpoints.append(j)
        j *= 2
    checkpoints.append(j_max)
    rows = []
    sums = {}
    total, done = 0, 0
    with mp.workprec(precision_bits):
        for j in checkpoints:
            total += fixed_dot(islice(fhat, j + 1 - done), phis[done : j + 1])
            done = j + 1
            sums[j] = fixed_to_mpf(total, kernel.exp + phi_exp, precision_bits)
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
    meta = _base_metadata(precision_bits)
    meta["bits_required"] = required_bits_for_degree(pair, j_max)
    meta["series_error_bound"] = phi_hat.error_bound
    meta["fhat_error_bound"] = kernel.error_bound
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
    sums and Cesaro means, each ||p||^2 + ||T_phi-bar p||^2 one exact
    integer sum rounded once, with the one phi-hat of ``phi_hat_series``
    shared by all rows, the phi-hat of ``sarason`` and of the Abel sums.

    fhat comes from ``_FhatFixed``, rounded once to ``precision_bits``;
    its mantissas and phi-hat's are aligned once each (``fixed_mantissas``).
    s_n is a prefix of fhat's mantissas and sigma_n that prefix times the
    integer Fejer weights n + 1 - j, its factor 1/(n+1)^2 taken in the one
    final rounding; the coefficients of f+ = T_phi-bar p are the exact
    integer sums of ``fixed_toeplitz``, the sums that
    ``hb.toeplitz_coanalytic_apply`` rounds.  Reports running maxima (the
    limsup claim is exhibited as monotone growth over the computed range,
    never asserted as a limit) and the convexity sanity
    ||sigma_n|| <= max_{k<=n} ||s_k|| over computed k.  The metadata
    carries ``series_error_bound``, the largest counted relative error
    bound of a coefficient of phi-hat (``outer_series``), and
    ``fhat_error_bound``, the largest of fhat (``_FhatFixed``).
    """
    from mpmath import mp
    from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 0 or n_list[-1] < 8:
        raise ParameterError(
            f"summability orders must be >= 0 and include one >= 8, got {n_list}"
        )
    deg_f = n_list[-1]
    phi_hat = phi_hat_series(pair, deg_f, precision_bits)
    kernel = _FhatFixed(f, deg_f, precision_bits)
    fs, fe = fixed_mantissas(fixed_to_mpf(m, kernel.exp, precision_bits) for m in kernel)
    ps, pe = fixed_mantissas(phi_hat.coeffs)
    # ||p||^2 is on the scale 2^(2 fe), ||f+||^2 on 2^(2 fe + 2 pe)
    low = 2 * fe + min(0, 2 * pe)
    shift_p, shift_plus = 2 * fe - low, 2 * fe + 2 * pe - low

    def log10_norm(ms, den):
        """(1/2) log10 of (||p||^2 + ||T_phi-bar p||^2) / den for the
        polynomial p with mantissas ``ms``, rounded once."""
        plus = sum(s * s for s in fixed_toeplitz(ps, ms))
        total = (fixed_dot(ms, ms) << shift_p) + (plus << shift_plus)
        norm_sq = mpf_div(from_man_exp(total, low), from_int(den), precision_bits, round_nearest)
        return 0.5 * float(mp.log10(mp.make_mpf(norm_sq)))

    rows = []
    s_norms = {}
    convex_ok = True
    with mp.workprec(precision_bits):
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
    meta = _base_metadata(precision_bits)
    meta["bits_required"] = required_bits_for_degree(pair, deg_f)
    meta["series_error_bound"] = phi_hat.error_bound
    meta["fhat_error_bound"] = kernel.error_bound
    meta["convexity_ok"] = convex_ok
    return ExperimentReport(
        name="summability",
        columns=("n", "log10_sn_norm", "log10_sigman_norm"),
        rows=rows,
        params=_params_dict(pair.params),
        metadata=meta,
        passed=convex_ok and growth_ok,
    )
