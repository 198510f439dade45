"""The Taylor engine: coefficients of a step-modulus outer function.

``outer_series`` is the one Taylor route for a, b and phi: an O(N * cells)
pole recurrence for F' = g'F in one fixed-point loop on Python integers,
with a counted bound on its truncations and, at every precision, a check of
its low coefficients against the O(N^2) route ``exp_series`` of the float
``log_outer_series``.  ``Pair.with_series`` and ``Pair.phi_hat`` import
this module on first use, so a process that never asks for Taylor
coefficients never loads it.  The O(N^2) route is called through its home
modules (``pair.log_outer_series``, ``series.exp_series``), so a rebinding
there reaches this module whatever the import order.
"""

from __future__ import annotations

import math

from . import pair, series
from .series import TaylorSeries, fixed_to_mpf

_ORACLE_DEGREE = 32

# Rounding allowance of the check against the O(N^2) oracle, in units of
# 2^-53 * cond_n: in floats each of F_n and E_n (n <= _ORACLE_DEGREE) is
# a sum of at most n + 1 rounded products, each carrying a few roundings.
_ORACLE_ULPS = 4 * (_ORACLE_DEGREE + 1)


def outer_series(mod: pair.StepModulus, degree: int, precision_bits: int = 53) -> TaylorSeries:
    """Taylor coefficients 0..degree of the outer function with modulus ``mod``.

    The one route for every step-modulus outer function (a, b and phi).
    F = exp(g) with g the Schwarz integral of the steps, so F' = g'F, and
    each cell [theta_s, theta_e] of height h (above the default) adds
    (h / i pi) (1/(u_s - z) - 1/(u_e - z)) to g', u = e^{i theta}.  That
    turns F' = g'F into an O(degree * cells) recurrence: with the pole sums
    S_u(n) = conj(u) (F_n + S_u(n-1)), (n+1) F_{n+1} is the sum over cells
    of (h / i pi) (S_s(n) - S_e(n)).  On the narrow, tall arcs of the
    constructed pair the two pole sums cancel, so each cell carries the
    divided difference T = (S_s - S_e) / (u_e - u_s) instead, with
    T(n) = conj(u_s) (S_e(n) + T(n-1)), and contributes
    (h / i pi) (u_e - u_s) T(n) with the chord u_e - u_s formed as in
    ``pair._cell_schwarz_integral``.  On a theta-symmetric modulus each mirror
    cell is folded into its partner (twice the real part), so F is real.

    The recurrence runs at every precision in one fixed-point loop on
    Python integers scaled by 2^W (as mpmath's own ``exp_basecase``): each
    complex product is shifted down by W once, the cell sum is exact at
    2^2W, and F_n is its floor quotient by n 2^W.  mpmath computes the cell
    data (cosines, sines, F_0 = exp(mean)) at 2W bits from the float cell
    data taken as exact.  ``_truncation_bound`` counts every floor, at most
    one unit of 2^-W per real part, and carries it through the recurrence;
    W is ``precision_bits`` plus the least number of bits that lifts the
    a-priori coefficient scale |F_0| min(1, A) / (n+1)^2 (A the total weight
    of the cells) strictly above the bound's whole units, the count the
    guard tests.  A coefficient whose counted bound exceeds
    2^-precision_bits of its size raises ArithmeticError: it is too small
    for the fixed-point scale to carry its relative precision.  Every returned coefficient is
    therefore within 2^-precision_bits of its size before the final
    rounding, and within one unit in its last place after it; the largest
    counted bound relative to its coefficient is the series'
    ``error_bound``.  The loop itself is ``_pole_recurrence``.

    At 53 bits the result is rounded to complex floats.  Above 53 bits it
    is rounded to real mpmath numbers at ``precision_bits``; a modulus that
    is not theta-symmetric has complex coefficients and raises ValueError
    there.  Coefficients 0..min(degree, 32) are recomputed in floats by the
    O(degree^2) route, ``exp_series`` of the float ``log_outer_series``, at
    every precision, and a disagreement beyond that route's own float error
    raises ArithmeticError.
    """
    from mpmath import mp
    from mpmath.libmp import to_fixed

    cells = {(c.theta_start, c.theta_end, c.log_modulus) for c in mod.cells}
    real = all((-b, -a, h) in cells for a, b, h in cells)
    if precision_bits > 53 and not real:
        raise ValueError("extended-precision outer_series needs a theta-symmetric modulus")
    d = mod.default_log_modulus
    # (cell, fold): a folded cell stands for itself and its mirror, one
    # that straddles 0 is its own mirror; flat cells and the mirrors of
    # folded ones carry no pole
    active = [
        (c, 2 if real and c.theta_start >= 0.0 else 1)
        for c in mod.cells
        if c.log_modulus != d and not (real and c.theta_end <= 0.0)
    ]
    # A, the sum of the pole weights |fold h chord / pi| after their
    # rounding to 2^-W, taken from above
    mass = (1.0 + 2.0**-40) * math.fsum(
        fold * abs(c.log_modulus - d) / math.pi * 2.0 * math.sin(c.width / 2.0)
        for c, fold in active
    ) + len(active) * 2.0 ** (1 - precision_bits)
    f0 = math.exp(mod.mean_log_modulus())
    bound = _truncation_bound(mod, active, mass, f0, degree, real, precision_bits)
    # the a-priori size of F_n; a coefficient below it may raise.  The guard
    # tests ceil(e) (2^P + 1) <= |F_n| 2^W, so W - P must exceed
    # log2(ceil(e) / |F_n|): a constant modulus (e_0 = 1 + tiny, 2 units)
    # with F_0 = 1 needs W = P + 2
    scale = [f0] + [f0 * min(1.0, mass) / (n + 1) ** 2 for n in range(1, degree + 1)]
    W = precision_bits + max(
        0,
        max(math.floor(math.log2(math.ceil(e) / s)) + 1 for e, s in zip(bound, scale) if e > 0.0),
    )
    with mp.workprec(2 * W):

        def fixed(x):
            return to_fixed(x._mpf_, W)

        mean = mp.mpf(d)
        for c in mod.cells:
            w, h = mp.mpf(c.theta_end) - c.theta_start, mp.mpf(c.log_modulus) - d
            mean += w * h / (2 * mp.pi)
        poles = []
        for c, fold in active:
            ts, te = mp.mpf(c.theta_start), mp.mpf(c.theta_end)
            k = fold * (mp.mpf(c.log_modulus) - d) / mp.pi
            cs, ss = mp.cos(ts), mp.sin(ts)
            cr, ci = -2 * mp.sin((te - ts) / 2) ** 2, mp.sin(te - ts)
            chord_r, chord_i = cs * cr - ss * ci, cs * ci + ss * cr
            # conj(u_s), conj(u_e), and (h / i pi) * chord
            poles.append(tuple(map(fixed, (
                cs, -ss, mp.cos(te), -mp.sin(te), k * chord_i, -k * chord_r
            ))))
        f0_fixed = fixed(mp.exp(mean))
    coeffs = _pole_recurrence(f0_fixed, poles, degree, W, real)
    rel_bound = 0.0
    for n, ((fr, fi), e) in enumerate(zip(coeffs, bound)):
        # the claim, in units: |F_n - fixed F_n| <= e <= 2^-P (|fixed F_n| - e)
        e = math.ceil(e)
        size = abs(fr) if real else math.isqrt(fr * fr + fi * fi)
        if (e << precision_bits) + e > size:
            raise ArithmeticError(
                f"outer_series coefficient {n} is too small for {precision_bits} bits "
                f"at 2^-{W}: its counted error bound is {e} units"
            )
        if e:
            rel_bound = max(rel_bound, e / size)
    if precision_bits <= 53:
        out, bits = tuple(complex(r / (1 << W), i / (1 << W)) for r, i in coeffs), 53
    else:
        out, bits = tuple(fixed_to_mpf(r, -W, precision_bits) for r, _ in coeffs), precision_bits
    _check_against_exp_series(mod, out, real)
    return TaylorSeries(out, bits, rel_bound)


def _pole_recurrence(f0: int, poles: list, degree: int, W: int, real: bool) -> list:
    """F_0..F_degree as (re, im) integers at 2^-W: the fixed-point loop of
    ``outer_series`` from F_0 = ``f0`` over ``poles``, each the integers
    (re, im) of conj(u_s), of conj(u_e) and of the weight (h / i pi) chord.

    A pole u enters the loop as (re u, re u + im u, im u - re u), so that
    q u = re u (qr + qi) - qi (re u + im u)
          + i (re u (qr + qi) + qr (im u - re u))
    takes three multiplies, exact in integers.  On ``real`` (theta-symmetric)
    data only the real part of the cell sum is formed, and every F_n is real.
    """
    split = [
        (esr, esr + esi, esi - esr, eer, eer + eei, eei - eer, ar, ai)
        for esr, esi, eer, eei, ar, ai in poles
    ]
    fr, fi = f0, 0
    coeffs = [(fr, fi)]
    state = [(0, 0, 0, 0)] * len(split)
    for n in range(1, degree + 1):
        accr = acci = 0
        nxt = []
        for (esr, esp, esm, eer, eep, eem, ar, ai), (sr, si, tr, ti) in zip(split, state):
            qr, qi = fr + sr, fi + si
            k = eer * (qr + qi)
            sr, si = (k - qi * eep) >> W, (k + qr * eem) >> W
            qr, qi = sr + tr, si + ti
            k = esr * (qr + qi)
            tr, ti = (k - qi * esp) >> W, (k + qr * esm) >> W
            accr += ar * tr - ai * ti
            if not real:
                acci += ar * ti + ai * tr
            nxt.append((sr, si, tr, ti))
        state = nxt
        unit = n << W
        fr, fi = accr // unit, acci // unit
        coeffs.append((fr, fi))
    return coeffs


def _truncation_bound(mod, active, mass, f0, degree, real, bits) -> list:
    """Bounds, in units of 2^-W for any W >= ``bits``, on |F_n - fixed F_n|
    for the fixed-point loop of ``outer_series``.

    Each floor errs by less than one unit per real part (sqrt 2 for a
    complex product), and the errors travel through the recurrence as
    through the exact one.  |conj u| <= 1 + 2^(4-W) for the rounded poles,
    so an error in S or T is carried without growth and only accumulates:
    e_S(n) <= e_F(n-1) + e_S(n-1) + sqrt 2, e_T(n) <= e_S(n) + e_T(n-1) +
    sqrt 2, and n e_F(n) <= A e_T(n) + n (sqrt 2 when F is complex), with
    A the sum of |weight * chord| over the cells.  The data add errors of
    their own: a pole rounded to sqrt 2 (1 + 2^(4-W)) units multiplies
    |F + S| or |S + T|, and a weight rounded to sqrt 2 (1 + 2^(4-W) |a|)
    units multiplies |T|, so magnitude majorants m_F, m_S, m_T of the exact
    recurrence (the same sums without the units, m_F(0) = |F_0|) carry
    along.  F_0 is off by one unit plus |F_0| 2^-W times the rounding of
    exp(mean) at 2W bits from the float cell data.  Evaluating the tiny
    2^-W terms at W = ``bits`` makes the bounds hold for every W above.
    """
    r2 = math.sqrt(2.0)
    tiny = 2.0 ** (4 - bits)
    grow = 1.0 + tiny
    eta = r2 * grow
    weights = len(active) * r2 + mass * r2 * tiny
    terms = abs(mod.default_log_modulus) + math.fsum(
        c.width * abs(c.log_modulus - mod.default_log_modulus) for c in mod.cells
    )
    floor = (1.0 if real else r2) if active else 0.0
    ms = mt = es = et = 0.0
    mf, ef = f0, 1.0 + f0 * (len(mod.cells) + 3) * (1.0 + terms) * tiny
    out = [ef]
    for n in range(1, degree + 1):
        es = grow * (ef + es) + eta * (mf + ms) + r2
        ms = grow * (mf + ms)
        et = grow * (es + et) + eta * (ms + mt) + r2
        mt = grow * (ms + mt)
        mf = mass * mt / n
        ef = (mass * et + weights * mt) / n + floor
        out.append(ef)
    if not math.isfinite(ef):
        raise ArithmeticError(
            f"outer_series: the error bound overflows at degree {degree} (cell weight {mass:.3g})"
        )
    return out


def _log_series_ulps(mod: pair.StepModulus, degree: int, real: bool) -> list:
    """Error bounds on coefficients 0..degree of the float
    ``log_outer_series``, in units of 2^-53.

    Coefficient j >= 1 sums h (e^{-ij theta_s} - e^{-ij theta_e}) / (i pi j)
    over the cells.  The product j * theta is rounded, which moves each sine
    and cosine by up to j |theta|; the sine itself rounds to within 2 of its
    own size, below 2 j |theta|, and the cosine to within 2.  Real
    coefficients (theta-symmetric data) take only the sines.  The sum of
    len(cells) terms, each below |h| j width, and the division round within
    (len(cells) + 4) of their sizes; the mean (coefficient 0) rounds within
    4 of each width * height and 1 of the default.
    """
    d = mod.default_log_modulus
    hs = [abs(c.log_modulus - d) for c in mod.cells]
    mass = sum(h * c.width for h, c in zip(hs, mod.cells)) / math.pi
    trig = (lambda x: 3.0 * x) if real else (lambda x: 4.0 * x + 2.0)
    out = [abs(d) + 2.0 * mass]
    for j in range(1, degree + 1):
        spread = sum(
            h * (trig(j * abs(c.theta_start)) + trig(j * abs(c.theta_end)))
            for h, c in zip(hs, mod.cells)
        )
        out.append(spread / (math.pi * j) + (len(hs) + 4) * mass)
    return out


def _check_against_exp_series(mod: pair.StepModulus, coeffs, real: bool) -> None:
    """Raise ArithmeticError where the low coefficients of ``outer_series``
    leave the O(N^2) route by more than that route's own error.

    E = exp_series(g) with g the float ``log_outer_series``, evaluated in
    floats at every precision, and each coefficient is compared as a
    complex float.  Its rounding error is held to _ORACLE_ULPS * 2^-53 *
    cond_n with cond_n = |E_n| + (1/n) sum_j j |g_j| |E_{n-j}|; the error
    eps_j of g_j reaches E_n as sum_j eps_j |E_{n-j}| to first order
    (E(1 + delta g)), which is allowed twice over.
    """
    k = min(len(coeffs) - 1, _ORACLE_DEGREE)
    g = pair.log_outer_series(mod, k).coeffs
    if real:
        g = tuple(c.real for c in g)
    e = series.exp_series(TaylorSeries(g)).coeffs
    eps = _log_series_ulps(mod, k, real)
    for n in range(k + 1):
        cond = abs(e[n])
        if n:
            cond += sum(j * abs(g[j]) * abs(e[n - j]) for j in range(1, n + 1)) / n
        carried = sum(eps[j] * abs(e[n - j]) for j in range(n + 1))
        tol = 2.0**-53 * (_ORACLE_ULPS * cond + 2 * carried)
        err = abs(complex(coeffs[n]) - e[n])
        if err > tol:
            raise ArithmeticError(
                f"outer_series coefficient {n} leaves the exp_series oracle: "
                f"|difference| = {err:.3e} > {tol:.3e}"
            )
