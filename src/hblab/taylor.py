"""The Taylor engine: coefficients of a theta-symmetric step-modulus outer
function.

``outer_series`` is the one Taylor route for a, b and phi, whose moduli are
mirrored arc by arc, so every coefficient is real: one real second-order
recurrence per arc (the Goertzel / Clenshaw form) in one fixed-point loop
on Python integers, with a counted bound on its truncations and, at every
precision, a check of its low coefficients against the O(N^2) route
``exp_series`` of the float ``log_outer_series``.  ``Pair.with_series`` and
``Pair.phi_hat`` import this module on first use, so a process that never
asks for Taylor coefficients never loads it.  The O(N^2) route is called
through its home modules (``pair.log_outer_series``, ``series.exp_series``),
so a rebinding there reaches this module whatever the import order.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import pair, series
from .series import TaylorSeries, fixed_to_mpf

_ORACLE_DEGREE = 32

# Rounding allowance of the check against the O(N^2) oracle, in units of
# 2^-53 * cond_n: in floats each of F_n and E_n (n <= _ORACLE_DEGREE) is
# a sum of at most n + 1 rounded products, each carrying a few roundings.
_ORACLE_ULPS = 4 * (_ORACLE_DEGREE + 1)


def outer_series(mod: pair.StepModulus, degree: int, precision_bits: int = 53) -> TaylorSeries:
    """Taylor coefficients 0..degree of the outer function with modulus ``mod``.

    The one route for every step-modulus outer function (a, b and phi); the
    modulus must be theta-symmetric (each cell's mirror [-theta_e, -theta_s]
    a cell of the same height), or ValueError is raised.  F = exp(g) with g
    the Schwarz integral of the steps, so (n+1) F_{n+1} = sum_{j<=n}
    (m+1) g_{m+1} F_j, m = n - j.  Each mirrored arc [theta_s, theta_e]
    (0 <= theta_s < theta_e <= pi; a self-mirror cell [-t, t] counts as
    [0, t]) of height h above the default adds k (sin (m+1) theta_e -
    sin (m+1) theta_s) to (m+1) g_{m+1}, k = 2h / pi.  With sin (m+1) theta
    = sin theta U_m(cos theta), each arc keeps two states:
    Q(n) = (2 - d_e) Q(n-1) - Q(n-2) + F_n, which is sum_j U_{n-j}(cos
    theta_e) F_j, and D(n) = (2 - d_s) D(n-1) - D(n-2) + 2 Q(n-1), the
    divided difference (Q_s - Q_e) / (cos theta_s - cos theta_e), where
    d = 4 sin^2(theta / 2).  Then (n+1) F_{n+1} = sum over arcs of
    alpha Q(n) + beta D(n), with alpha = 2k cos mu sin w, beta = -2k
    sin theta_s sin mu sin w, mu and w the half sum and half width of the
    arc: a narrow arc anywhere on the circle loses no bits to cancellation.

    The recurrence runs at every precision in one fixed-point loop on
    Python integers at 2^-W (as mpmath's own ``exp_basecase``).  Each d is
    stored with W significant bits on its own scale, alpha and beta on one
    shared scale 2^-(W + G), so the arc sum is one exact integer and F_{n+1}
    is its one floor quotient; G = 2 bitlen(degree) extra bits, as |D| may
    exceed |Q| by (degree+1)^2.  mpmath computes the arc data (d, alpha,
    beta, F_0 = exp(mean)) at 2W bits from the float cells taken as exact.
    ``_truncation_bound`` counts every floor and every rounded datum and
    carries them through the recurrence; W is ``precision_bits`` plus the
    least number of bits that lifts the a-priori coefficient scale
    |F_0| min(1, A) / (n+1)^2 (A the total arc weight) strictly above the
    bound's whole units, the count the guard tests.  A coefficient whose
    counted bound exceeds 2^-precision_bits of its size, one that falls
    below that scale, sends the loop through one more pass, at W plus the
    most bits any coefficient lacks plus 1 (the bound's units do not depend
    on W); a coefficient still short after it raises ArithmeticError: it is
    too small for the fixed-point scale to carry its relative precision,
    as an exact zero is.  Every returned coefficient is therefore within
    2^-precision_bits of its size before the final rounding, and within one
    unit in its last place after it; the largest counted bound relative to
    its coefficient is the series' ``error_bound``.

    At 53 bits the result is rounded to real floats, above it to real
    mpmath numbers at ``precision_bits``.  Coefficients 0..min(degree, 32)
    are recomputed in floats by the O(degree^2) route, ``exp_series`` of
    the float ``log_outer_series``, at every precision, and a disagreement
    beyond that route's own float error raises ArithmeticError.
    """
    cells = {(c.theta_start, c.theta_end, c.log_modulus) for c in mod.cells}
    if not all((-b, -a, h) in cells for a, b, h in cells):
        raise ValueError("outer_series needs a theta-symmetric modulus")
    d = mod.default_log_modulus
    # (theta_s, theta_e, log-modulus) of each arc that carries a step; a
    # mirror cell (theta_e <= 0) is folded into its partner
    arcs = [
        (max(c.theta_start, 0.0), c.theta_end, c.log_modulus)
        for c in mod.cells
        if c.log_modulus != d and c.theta_end > 0.0
    ]
    # G: |D| may exceed |Q| by (degree+1)^2 (U'_m(1) = m(m+1)(m+2)/3), so with
    # G more bits on alpha and beta their rounding costs D what it costs Q
    extra = 2 * degree.bit_length()
    f0 = math.exp(mod.mean_log_modulus())
    mass, bound = _truncation_bound(mod, arcs, f0, degree, precision_bits, extra)
    # the a-priori size of F_n; a coefficient below it may raise.  The guard
    # tests ceil(e) (2^P + 1) <= |F_n| 2^W, so W - P must exceed
    # log2(ceil(e) / |F_n|): a constant modulus (e_0 = 1 + tiny, 2 units)
    # with F_0 = 1 needs W = P + 2
    scale = [f0] + [f0 * min(1.0, mass) / (n + 1) ** 2 for n in range(1, degree + 1)]
    W = precision_bits + max(
        0,
        max(math.floor(math.log2(math.ceil(e) / s)) + 1 for e, s in zip(bound, scale) if e > 0.0),
    )
    coeffs = _fixed_pass(mod, arcs, degree, W, extra)
    short, n = _shortfall(coeffs, bound, precision_bits)
    if short:
        # a coefficient below the a-priori scale: one pass with the bits it lacks
        W += short + 1
        coeffs = _fixed_pass(mod, arcs, degree, W, extra)
        short, n = _shortfall(coeffs, bound, precision_bits)
    if short:
        raise ArithmeticError(
            f"outer_series coefficient {n} is too small for {precision_bits} bits "
            f"at 2^-{W}: its counted error bound is {math.ceil(bound[n])} units"
        )
    rel_bound = max((math.ceil(e) / abs(f) for f, e in zip(coeffs, bound) if e), default=0.0)
    if precision_bits <= 53:
        out, bits = tuple(f / (1 << W) for f in coeffs), 53
    else:
        out, bits = tuple(fixed_to_mpf(f, -W, precision_bits) for f in coeffs), precision_bits
    _check_against_exp_series(mod, out)
    return TaylorSeries(out, bits, rel_bound)


def _fixed_pass(mod: pair.StepModulus, arcs: list, degree: int, W: int, extra: int) -> list:
    """F_0..F_degree as integers at 2^-W: the arc data of ``outer_series``
    computed by mpmath at 2W bits, then ``_arc_recurrence``."""
    from mpmath import mp
    from mpmath.libmp import to_fixed

    d = mod.default_log_modulus
    with mp.workprec(2 * W):

        def own_scale(x):
            # x >= 0 to W significant bits: (integer, shift)
            shift = W - x._mpf_[2] - x._mpf_[3]
            return to_fixed(x._mpf_, shift), shift

        mean = mp.mpf(d)
        for c in mod.cells:
            w, h = mp.mpf(c.theta_end) - c.theta_start, mp.mpf(c.log_modulus) - d
            mean += w * h / (2 * mp.pi)
        data = []
        for ts, te, lm in arcs:
            ts, te = mp.mpf(ts), mp.mpf(te)
            k = 2 * (mp.mpf(lm) - d) / mp.pi
            sin_w, mu = mp.sin((te - ts) / 2), (te + ts) / 2
            alpha, beta = 2 * k * mp.cos(mu) * sin_w, -2 * k * mp.sin(ts) * mp.sin(mu) * sin_w
            data.append(
                own_scale(4 * mp.sin(te / 2) ** 2)
                + own_scale(4 * mp.sin(ts / 2) ** 2)
                + (to_fixed(alpha._mpf_, W + extra), to_fixed(beta._mpf_, W + extra))
            )
        f0_fixed = to_fixed(mp.exp(mean)._mpf_, W)
    return _arc_recurrence(f0_fixed, data, degree, W + extra)


def _shortfall(coeffs: list, bound: list, bits: int) -> tuple:
    """(s, n): the guard of ``outer_series`` on fixed-point coefficients.
    The claim, in units, is |F_n - fixed F_n| <= e <= 2^-bits (|fixed F_n| - e),
    tested as ceil(e) (2^bits + 1) <= |fixed F_n|; n is the first
    coefficient that misses it (None if none does) and s the most bits,
    by bit lengths, that any coefficient lacks (0 if none)."""
    s, first = 0, None
    for n, (f, e) in enumerate(zip(coeffs, bound)):
        e = math.ceil(e)
        need = (e << bits) + e
        if need > abs(f):
            s = max(s, need.bit_length() - abs(f).bit_length() + 1)
            first = n if first is None else first
    return s, first


def _arc_recurrence(f0: int, data: list, degree: int, shift: int) -> list:
    """F_0..F_degree as integers at 2^-W: the fixed-point loop of
    ``outer_series`` from F_0 = ``f0`` over ``data``, each arc's
    (d_e, its shift, d_s, its shift, alpha, beta) with alpha and beta at
    2^-``shift``.  Four integer multiplies per arc and step."""
    f = f0
    coeffs = [f]
    state = [(0, 0, 0, 0)] * len(data)
    for n in range(1, degree + 1):
        acc = 0
        nxt = []
        for (de, se, ds, ss, alpha, beta), (q1, q2, d1, d2) in zip(data, state):
            q = 2 * q1 - q2 + f - ((de * q1) >> se)
            dd = 2 * (d1 + q1) - d2 - ((ds * d1) >> ss)
            acc += alpha * q + beta * dd
            nxt.append((q, q1, dd, d1))
        state = nxt
        f = acc // (n << shift)
        coeffs.append(f)
    return coeffs


def _truncation_bound(mod, arcs, f0, degree, bits, extra) -> tuple:
    """(A, bounds): the total arc weight A, and bounds, in units of 2^-W for
    any W >= ``bits``, on |F_n - fixed F_n| for the fixed-point loop of
    ``outer_series``, whose alpha and beta lie on 2^-(W + ``extra``).

    Exact data.  An arc's share of (m+1) g_{m+1} is K(m) = 2k cos((m+1) mu)
    sin((m+1) w), and |sin((m+1) w)| <= (m+1) sin w, so |K(m)| <= a (m+1)
    with a = 2|k| sin w, and A = sum a.  Hence |F_n| <= m_n with m_0 = |F_0|
    and m_{n+1} = A sum_{j<=n} (n-j+1) m_j / (n+1).

    Errors, by linearity through the exact recurrence.  Whatever enters an
    arc's Q at step j enters it as F_j does, so it reaches (n+1) F_{n+1}
    through that arc's K(n-j), at most a (n-j+1) per unit: the error e_j of
    F_j, one floor unit, and the rounding of d_e (to W bits, relative
    2^(1-W) (1 + tiny), tiny = 2^(4-bits)), 2 (1 + tiny) d_e |Q(j-1)| units.
    What enters D at step j reaches it through beta U_{n-j}(cos theta_s),
    and |beta U_m(cos theta_s)| <= |beta| / sin theta_s = b = 2|k| sin mu
    sin w <= a: D's floor unit is counted as a second floor of Q, and the
    rounding of d_s, 2 (1 + tiny) d_s |D(j-1)| units, with weight b (an arc
    from theta_s = 0 has beta = b = 0 exactly, and no D term at all).  The
    roundings of alpha and beta, 2^-extra + tiny |alpha| units each (tiny
    |beta| for the 2W-bit data), multiply |Q(n)| and |D(n)|, and the floor
    quotient adds one unit.  With X, Y bounds on |Q|, |D| (value units):
      (n+1) e_{n+1} <= sum_{j<=n} (n-j+1) r_j
                       + sum_arcs 2 (1 + tiny) b d_s sum_{j<=n} Y(j-1)
                       + sum_arcs ((2^-extra + tiny |alpha|) X(n)
                                   + (2^-extra + tiny |beta|) Y(n)) + (n+1),
      r_j = A (e_j + 2) + sum_arcs 2 (1 + tiny) a d_e X(j-1),
    with X(-1) = Y(-1) = 0, and e_0 = 1 + |F_0| (cells + 3) (1 + sum |d| +
    width |h|) tiny: one floor and the rounding of exp(mean) at 2W bits from
    the float cells.  A modulus with no arc has F_n = 0 exactly for n >= 1.

    Sizes of the computed states.  The loop runs the recurrence of the
    rounded d exactly on F_n plus its floors, so with z_j = m_j +
    2^-bits (e_j + 1) and u_m >= |U_m| at the rounded angle,
    |Q(n)| <= X(n) = sum_{j<=n} u_{n-j} z_j, and, as X grows by at least
    2^-bits a step, |D(n)| <= Y(n) = 2 sum_{j<=n} u_{n-j} X(j).
    |U_m(cos theta)| <= min(m+1, 1/|sin theta|), and a d rounded to W bits
    moves sin^2 theta by at most 2^(5-bits), so each arc end takes
    u_m = c = 1 / sqrt(sin^2 theta - 2^(5-bits)) where c <= degree + 1, and
    u_m = m+1 elsewhere: the smaller of the two at the top degree.  With
    S_0(n) = sum_{j<=n} z_j and S_{o+1}(n) = sum_{j<=n} S_o(j), so that
    sum_{j<=n} (n-j+1) z_j = S_1(n): X = c_e S_0 or S_1, Y = 2 c_s c_e S_1
    up to 2 S_3, and sum_{j<=n} Y(j-1) the same one order up at n-1.  Each
    arc's terms are thus its weights times shared running sums, O(degree)
    in all.  Float data carry a factor 1 + 2^-40, and the tiny terms,
    evaluated at W = ``bits``, make the bounds hold for every W above.
    """
    unit, tiny, wide = 2.0**-bits, 2.0 ** (4 - bits), 1.0 + 2.0**-40
    d = mod.default_log_modulus
    # weights on S_0..S_4: wq at n-1 into r_n, wo at n and wd at n-1 into e_{n+1}
    wq, wo, wd = [0.0] * 5, [0.0] * 5, [0.0] * 5
    mass = 0.0
    for ts, te, lm in arcs:
        k, sin_w, mu = 2.0 * abs(lm - d) / math.pi, math.sin((te - ts) / 2.0), (te + ts) / 2.0
        a, b = 2.0 * k * sin_w, 2.0 * k * math.sin(mu) * sin_w if ts > 0.0 else 0.0
        (ce, pe), (cs, ps) = (_u_bound(t, degree, bits) for t in (te, ts))
        d_e, d_s = (4.0 * math.sin(t / 2.0) ** 2 for t in (te, ts))
        mass += a
        wq[pe] += 2.0 * (1.0 + tiny) * a * d_e * ce
        wo[pe] += (2.0**-extra + tiny * a * abs(math.cos(mu))) * ce
        if b:
            wo[1 + pe + ps] += 2.0 * (2.0**-extra + tiny * b * math.sin(ts)) * cs * ce
            wd[2 + pe + ps] += 2.0 * (1.0 + tiny) * b * d_s * 2.0 * cs * ce
    mass, wq, wo, wd = wide * mass, *([wide * x for x in w] for w in (wq, wo, wd))
    terms = abs(d) + math.fsum(c.width * abs(c.log_modulus - d) for c in mod.cells)
    out = [1.0 + f0 * (len(mod.cells) + 3) * (1.0 + terms) * tiny]
    (q0, q1, *_), (o0, o1, o2, o3, _), (_, _, d2, d3, d4) = wq, wo, wd
    m, s0, s1, s2, s3, s4 = wide * f0, 0.0, 0.0, 0.0, 0.0, 0.0
    m0 = m1 = r0 = r1 = 0.0
    floor = 1.0 if arcs else 0.0  # no arc: F_n = 0 exactly for n >= 1
    for n in range(degree):
        e, p0, p1, p2, p3, p4 = out[n], s0, s1, s2, s3, s4
        s0, s1, s2, s3, s4 = accumulate((s0 + m + unit * (e + 1.0), s1, s2, s3, s4))
        r0 += mass * (e + 2.0) + q0 * p0 + q1 * p1
        r1 += r0
        m0 += m
        m1 += m0
        m = mass * m1 / (n + 1)
        local = o0 * s0 + o1 * s1 + o2 * s2 + o3 * s3 + d2 * p2 + d3 * p3 + d4 * p4
        out.append((r1 + local) / (n + 1) + floor)
    if not math.isfinite(out[-1]):
        raise ArithmeticError(
            f"outer_series: the error bound overflows at degree {degree} (arc weight {mass:.3g})"
        )
    return mass, out


def _u_bound(theta: float, degree: int, bits: int) -> tuple:
    """(c, 0) when |U_m| <= c = 1 / sqrt(sin^2 theta - 2^(5-bits)) <= degree + 1
    at the rounded angle, else (1.0, 1) for |U_m| <= m + 1."""
    s2 = math.sin(theta) ** 2 - 2.0 ** (5 - bits)
    return (1.0 / math.sqrt(s2), 0) if s2 * (degree + 1) ** 2 >= 1.0 else (1.0, 1)


def _log_series_ulps(mod: pair.StepModulus, degree: int) -> list:
    """Error bounds on coefficients 0..degree of the float
    ``log_outer_series``, in units of 2^-53.

    Coefficient j >= 1 sums h (e^{-ij theta_s} - e^{-ij theta_e}) / (i pi j)
    over the cells, and on theta-symmetric data only its real part, the
    sines, is kept.  The product j * theta is rounded, which moves each sine
    by up to j |theta|; the sine itself rounds to within 2 of its own size,
    below 2 j |theta|.  The sum of len(cells) terms, each below |h| j width,
    and the division round within (len(cells) + 4) of their sizes; the mean
    (coefficient 0) rounds within 4 of each width * height and 1 of the
    default.
    """
    d = mod.default_log_modulus
    hs = [abs(c.log_modulus - d) for c in mod.cells]
    mass = sum(h * c.width for h, c in zip(hs, mod.cells)) / math.pi
    out = [abs(d) + 2.0 * mass]
    for j in range(1, degree + 1):
        spread = sum(
            h * 3.0 * j * (abs(c.theta_start) + abs(c.theta_end)) for h, c in zip(hs, mod.cells)
        )
        out.append(spread / (math.pi * j) + (len(hs) + 4) * mass)
    return out


def _check_against_exp_series(mod: pair.StepModulus, coeffs) -> None:
    """Raise ArithmeticError where the low coefficients of ``outer_series``
    leave the O(N^2) route by more than that route's own error.

    E = exp_series(g) with g the real part of the float
    ``log_outer_series``, evaluated in floats at every precision, and each
    coefficient is compared as a float.  Its rounding error is held to
    _ORACLE_ULPS * 2^-53 * cond_n with cond_n = |E_n| + (1/n) sum_j j |g_j|
    |E_{n-j}|; the error eps_j of g_j reaches E_n as sum_j eps_j |E_{n-j}|
    to first order (E(1 + delta g)), which is allowed twice over.
    """
    k = min(len(coeffs) - 1, _ORACLE_DEGREE)
    g = tuple(c.real for c in pair.log_outer_series(mod, k).coeffs)
    e = series.exp_series(TaylorSeries(g)).coeffs
    eps = _log_series_ulps(mod, k)
    for n in range(k + 1):
        cond = abs(e[n])
        if n:
            cond += sum(j * abs(g[j]) * abs(e[n - j]) for j in range(1, n + 1)) / n
        carried = sum(eps[j] * abs(e[n - j]) for j in range(n + 1))
        tol = 2.0**-53 * (_ORACLE_ULPS * cond + 2 * carried)
        err = abs(float(coeffs[n]) - e[n])
        if err > tol:
            raise ArithmeticError(
                f"outer_series coefficient {n} leaves the exp_series oracle: "
                f"|difference| = {err:.3e} > {tol:.3e}"
            )
