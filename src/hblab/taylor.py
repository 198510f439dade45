"""The Taylor engine: coefficients of a theta-symmetric step-modulus outer
function.

``outer_series`` is the one Taylor route for a, b and phi, whose moduli are
mirrored arc by arc, so every coefficient is real: one real second-order
recurrence per arc (the Goertzel / Clenshaw form) in one fixed-point loop
on Python integers, with a counted bound on its truncations and, at every
precision, a check of its low coefficients against the O(N^2) route
``exp_series`` of the float ``log_outer_series``.  ``Pair.with_series`` and
``Pair.phi_hat`` import this module on first use, so a process that never
asks for Taylor coefficients never loads it, nor the integer kernels of
``hblab.fixed`` that it imports.  The O(N^2) route is called through its
home modules (``pair.log_outer_series``, ``series.exp_series``), so a
rebinding there reaches this module whatever the import order.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import pair, series
from .fixed import cos_sin_fixed, exp_fixed, float_fixed, floor_shift, pi_fixed, to_pbit
from .series import TaylorSeries

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
    exceed |Q| by (degree+1)^2.  The arc data (d, alpha, beta, F_0 =
    exp(mean)) come from the integer kernels of ``hblab.fixed``, each
    within 2^-2W of its exact value from the float cells taken as exact
    (``_arc_data``).
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

    At 53 bits the result is rounded to real floats, above it half-even
    to P-bit numbers (``fixed.PBit``) at ``precision_bits``, straight from
    the integers.  Coefficients 0..min(degree, 32)
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
        out, bits = tuple(to_pbit(f, -W, precision_bits) for f in coeffs), precision_bits
    _check_against_exp_series(mod, out)
    return TaylorSeries(out, bits, rel_bound)


def _fixed_pass(mod: pair.StepModulus, arcs: list, degree: int, W: int, extra: int) -> list:
    """F_0..F_degree as integers at 2^-W: the loop of ``outer_series``,
    ``_arc_recurrence``, on the data of ``_arc_data``."""
    f0, data = _arc_data(mod, arcs, W, extra)
    return _arc_recurrence(f0, data, degree, W + extra)


# every factor of the arc data is carried to 2^_FACTOR_BITS units, beyond 2W
_FACTOR_BITS = 13


def _arc_data(mod: pair.StepModulus, arcs: list, W: int, extra: int) -> tuple:
    """(F_0 at 2^-W, data): the integer inputs of ``_arc_recurrence`` from
    the float cells taken as exact, each arc's (d_e on W significant bits,
    its shift, d_s likewise, alpha and beta at 2^-(W + ``extra``)), every
    one the floor of a value within 2^-(2W+4) of its exact value, relative:
    inside the 2W-bit data allowance of ``_truncation_bound`` (2^(4-bits)
    of |alpha| and |beta| in units, 2^(5-W-bits) of d relative, and
    (cells + 3) (1 + terms) 2^(4-bits) of |F_0| in units).

    The kernels of ``hblab.fixed`` run at P bits.  The half angles a =
    theta_s / 2 and b = theta_e / 2 are floored to 2^-P (one unit), and
    their cos and sin are within 2 units more.  So sin w = sin b cos a -
    cos b sin a, cos mu and sin mu (mu = a + b), sin theta_s = 2 sin a cos a
    and 4 sin^2 of a or b, each one floor of a product, are within 10, 10,
    10, 10 and 25 units.  P is 2W + 13 bits beyond the smallest of them
    (estimated in floats by ``_arc_bits``, then checked on the integers,
    and raised if short), so each is within 2^-(2W+8) of itself, relative,
    as is pi (2 units).  alpha = 4 h cos mu sin w / pi and beta = -4 h
    sin theta_s sin mu sin w / pi, h = (log-modulus - default) exact, and
    the d's are then within 4 2^-(2W+8) = 2^-(2W+6) relative before their
    one floor.

    The mean, d plus the exact dyadic sum of width * h over 2 pi, is
    formed at Q = 2W + 8 + bitlen(1 + terms) bits (terms = |d| plus the
    sum of width * |h|) within 2 + terms units (two floors, pi), and
    ``exp_fixed`` adds 3 2^-Q relative, so F_0 = exp(mean) is within
    5 2^-(2W+8) < 2^-(2W+5) relative before its floor.
    """
    d = mod.default_log_modulus
    # the mean: the float cells are exact multiples of 2^-1074
    exact = 1074
    dd = float_fixed(d, exact)
    area = sum(
        (float_fixed(c.theta_end, exact) - float_fixed(c.theta_start, exact))
        * (float_fixed(c.log_modulus, exact) - dd)
        for c in mod.cells
    )
    terms = abs(d) + math.fsum(c.width * abs(c.log_modulus - d) for c in mod.cells)
    Q = 2 * W + 8 + (1 + int(terms)).bit_length()
    mean = float_fixed(d, Q) + _floor_div(area, 2 * Q - 2 * exact - 1, pi_fixed(Q))
    y, n = exp_fixed(mean, Q)
    f0 = floor_shift(y, n - Q + W)

    P = _arc_bits(arcs, W)
    while True:
        pi = pi_fixed(P)
        data, short = [], 0
        for ts, te, lm in arcs:
            ca, sa = cos_sin_fixed(float_fixed(ts, P - 1), P)
            cb, sb = cos_sin_fixed(float_fixed(te, P - 1), P)
            sin_w = (sb * ca - cb * sa) >> P
            cos_mu = (ca * cb - sa * sb) >> P
            sin_mu = (sa * cb + ca * sb) >> P
            sin_ts = (sa * ca) >> (P - 1)
            d_e, d_s = (sb * sb) >> (P - 2), (sa * sa) >> (P - 2)
            factors = [sin_w, cos_mu, sin_mu, d_e] + ([sin_ts, d_s] if ts > 0.0 else [])
            short = max(short, *(2 * W + _FACTOR_BITS + 1 - abs(x).bit_length() for x in factors))
            hm, he = float_fixed(lm, exact) - dd, W + extra - exact - P
            alpha = _floor_div(4 * hm * cos_mu * sin_w, he, pi)
            beta = _floor_div(-4 * hm * sin_ts * sin_mu * sin_w, he - P, pi) if ts > 0.0 else 0
            data.append(_own_scale(d_e, P, W) + _own_scale(d_s, P, W) + (alpha, beta))
        if short <= 0:
            return f0, data
        P += short


def _arc_bits(arcs: list, W: int) -> int:
    """The first P of ``_arc_data``: 2W + _FACTOR_BITS + 2 bits beyond the
    smallest factor of the arc data, estimated in floats."""

    def lg(x: float) -> float:
        return math.log2(max(abs(x), 1e-300))

    smallest = 0.0
    for ts, te, _ in arcs:
        w, mu = (te - ts) / 2.0, (te + ts) / 2.0
        logs = [lg(math.sin(w)), lg(math.cos(mu)), lg(math.sin(mu))]
        logs.append(2.0 + 2.0 * lg(math.sin(te / 2.0)))
        if ts > 0.0:
            logs += [lg(math.sin(ts)), 2.0 + 2.0 * lg(math.sin(ts / 2.0))]
        smallest = min(smallest, *logs)
    return 2 * W + _FACTOR_BITS + 2 - math.floor(smallest)


def _floor_div(x: int, s: int, y: int) -> int:
    """floor(x 2^s / y) for y > 0."""
    return (x << s) // y if s >= 0 else x // (y << -s)


def _own_scale(x: int, P: int, W: int) -> tuple:
    """(floor(v 2^shift), shift) for v = x 2^-P >= 0 on W significant
    bits: shift = W - mag(v), mag(v) = floor(log2 v) + 1 (shift W for 0)."""
    shift = W - (x.bit_length() - P) if x else W
    return floor_shift(x, shift - P), shift


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
