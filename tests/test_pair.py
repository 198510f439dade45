"""Tests for step moduli, Schwarz-integral outer evaluation, the pair
(b, a), the Taylor route outer_series, and serialization."""

import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblab.outer import log_phi_disk
from hblab.pair import (
    Cell,
    StepModulus,
    build_pair,
    log_outer_series,
    outer_eval,
    pair_from_json,
    pair_to_json,
    phi_step_modulus,
    step_modulus_from_phi,
    tame_pair,
)
from hblab.series import TaylorSeries, exp_series
from hblab.taylor import outer_series

from oracles import evaluate, exp_series_mp, mul, to_mpf

HALF_LN2 = 0.5 * math.log(2.0)


def value_at(m, theta):
    """The log-modulus of the step datum ``m`` at the angle ``theta``."""
    for c in m.cells:
        if c.theta_start <= theta < c.theta_end:
            return c.log_modulus
    return m.default_log_modulus


# -- StepModulus ------------------------------------------------------------


def test_cells_sorted_and_disjoint():
    m = StepModulus((Cell(0.5, 1.0, 2.0), Cell(-1.0, 0.0, 1.0)))
    assert m.cells[0].theta_start == -1.0
    with pytest.raises(ValueError):
        StepModulus((Cell(0.0, 1.0, 1.0), Cell(0.5, 2.0, 1.0)))
    with pytest.raises(ValueError):
        StepModulus((Cell(3.0, 4.0, 1.0),))
    with pytest.raises(ValueError):
        StepModulus((Cell(0.0, 1.0, math.inf),))


def test_mean_and_value():
    m = StepModulus((Cell(0.0, math.pi, 2.0),), default_log_modulus=-1.0)
    assert m.mean_log_modulus() == pytest.approx(-1.0 + 3.0 / 2.0)
    assert value_at(m, 0.5) == 2.0
    assert value_at(m, -0.5) == -1.0


# -- outer evaluation -------------------------------------------------------


def test_outer_eval_constant_datum():
    """Constant boundary modulus c gives the constant outer function c."""
    m = StepModulus((), default_log_modulus=0.7)
    for z in (0.0, 0.5j, -0.3 + 0.4j):
        assert complex(outer_eval(m, z)) == pytest.approx(0.7 + 0j, abs=1e-14)


def test_outer_eval_at_zero_is_mean():
    m = StepModulus((Cell(-0.5, 0.25, 1.5), Cell(1.0, 1.5, -2.0)), 0.3)
    assert complex(outer_eval(m, 0.0)) == pytest.approx(
        m.mean_log_modulus() + 0j, abs=1e-14
    )


def outer_eval_mp(mod, z):
    """200-bit reference for outer_eval: the same sub-arc Schwarz sums,
    with every trigonometric value and logarithm taken in mpmath."""
    from mpmath import mp

    with mp.workprec(200):
        z = mp.mpc(z)
        d = mod.default_log_modulus
        total = mp.mpc(d)
        for c in mod.cells:
            h = c.log_modulus - d
            width = c.theta_end - c.theta_start
            n_sub = int(width / (0.5 * (1.0 - abs(complex(z))))) + 1
            step = mp.mpf(width) / n_sub
            seg = mp.mpc(0)
            for i in range(n_sub):
                ta = c.theta_start + i * step
                eia = mp.expj(ta)
                chord = eia * mp.mpc(-2 * mp.sin(step / 2) ** 2, mp.sin(step))
                seg += -step - 2j * mp.log(1 + chord / (eia - z))
            total += h * seg / (2 * mp.pi)
        return complex(total)


def test_outer_eval_mp_matches_float():
    m = StepModulus((Cell(0.1, 0.1 + 1e-9, 5.0), Cell(-2.0, -1.0, 1.0)))
    for z in (0.3 + 0.2j, -0.8j, 0.95):
        a = outer_eval(m, z)
        b = outer_eval_mp(m, z)
        assert abs(a - b) <= 1e-13 * max(abs(b), 1.0)


def test_outer_eval_poisson_oracle():
    """Re of the Schwarz integral is the Poisson integral of the datum."""
    import mpmath

    m = StepModulus((Cell(0.2, 0.9, 1.3), Cell(-1.4, -0.2, -0.6)), 0.1)
    z = 0.35 + 0.15j
    r, ang = abs(z), math.atan2(z.imag, z.real)

    def poisson(t):
        return (
            (1 - r * r)
            / (1 - 2 * r * mpmath.cos(t - ang) + r * r)
            * value_at(m, t)
            / (2 * mpmath.pi)
        )

    # breakpoints at the cell edges, where the datum jumps
    expect = float(mpmath.quad(poisson, [-math.pi, -1.4, -0.2, 0.2, 0.9, math.pi]))
    assert outer_eval(m, z).real == pytest.approx(expect, rel=1e-9)


def test_outer_eval_rejects_boundary():
    with pytest.raises(ValueError):
        outer_eval(StepModulus(()), 1.0)


def test_log_outer_series_fourier_oracle():
    """Closed-form Fourier coefficients against direct quadrature."""
    import mpmath

    m = StepModulus((Cell(0.3, 1.1, 2.0), Cell(-1.1, -0.3, 2.0)))  # symmetric
    g = log_outer_series(m, 6)
    for j in range(1, 7):
        re = float(
            mpmath.quad(
                lambda t: value_at(m, t) * mpmath.cos(j * t) / mpmath.pi,
                [-math.pi, -1.1, -0.3, 0.3, 1.1, math.pi],
            )
        )
        assert g.coeffs[j].real == pytest.approx(re, abs=1e-10)
        assert abs(g.coeffs[j].imag) < 1e-14


def test_log_outer_series_matches_eval():
    """exp of the coefficient series reproduces the Schwarz evaluation."""
    m = StepModulus((Cell(0.5, 1.5, 1.0), Cell(-1.5, -0.5, 1.0)), -0.2)
    f = exp_series(log_outer_series(m, 96))
    for z in (0.3, 0.2 + 0.1j, -0.4j):
        expect = cmath.exp(complex(outer_eval(m, z)))
        assert complex(evaluate(f, z)) == pytest.approx(expect, rel=1e-10)


# -- the constructed pair ---------------------------------------------------


def test_phi_step_modulus_structure(pair, params):
    mod = phi_step_modulus(pair.seq)
    assert len(mod.cells) == 2 * params.n_terms
    assert mod.default_log_modulus == 0.0
    for c in mod.cells:
        assert c.log_modulus > 0.0
        # symmetric partner exists
        assert any(
            abs(d.theta_start + c.theta_end) < 1e-15 for d in mod.cells
        )


def test_pair_identity_on_cells(pair):
    """|a|^2 + |b|^2 = 1 exactly on every cell and off all cells."""
    for ca, cb in zip(pair.a_modulus.cells, pair.b_modulus.cells):
        assert ca.theta_start == cb.theta_start
        total = math.exp(2.0 * ca.log_modulus) + math.exp(2.0 * cb.log_modulus)
        assert abs(total - 1.0) <= 1e-14
    off = math.exp(2.0 * pair.a_modulus.default_log_modulus) + math.exp(
        2.0 * pair.b_modulus.default_log_modulus
    )
    assert abs(off - 1.0) <= 1e-14


def test_pair_phi_quotient(pair):
    """log b - log a == log phi at interior points, both routes."""
    for x in (-0.7, 0.0, 0.4, 0.9):
        lhs = outer_eval(pair.b_modulus, x) - outer_eval(pair.a_modulus, x)
        rhs = log_phi_disk(complex(x, 0.0), pair.seq)
        assert abs(lhs - rhs) <= 1e-10


def test_build_pair_detects_tampering(params):
    """A corrupted modulus must fail the construction cross-check."""
    from hblab.pair import Pair
    from hblab.outer import make_sequences

    seq = make_sequences(params)
    a_mod, b_mod = step_modulus_from_phi(seq)
    bad = StepModulus(
        tuple(c._replace(log_modulus=c.log_modulus + 0.01) for c in b_mod.cells),
        b_mod.default_log_modulus,
    )
    lhs = outer_eval(bad, 0.1) - outer_eval(a_mod, 0.1)
    rhs = log_phi_disk(complex(0.1, 0.0), seq)
    assert abs(lhs - rhs) > 1e-8  # the check in build_pair would trip


@pytest.mark.parametrize("delta, raises", [(5e-9, False), (2e-8, True)])
def test_build_pair_tolerance_threshold(params, monkeypatch, delta, raises):
    """``build_pair`` accepts a log difference of b/a against phi up to
    1e-8 and raises above it.  Its worst difference at the default
    parameters is 1.8e-15, so a half-plane route moved by delta reads
    about delta: 5e-9 passes and 2e-8 raises.  ``build_pair`` reads the
    half-plane route from ``hblab.outer`` when it runs, so it is patched
    there."""
    import hblab.outer as outer

    exact = outer.log_phi_disk
    monkeypatch.setattr(
        outer, "log_phi_disk", lambda z, seq: exact(z, seq) + delta
    )
    if raises:
        with pytest.raises(ArithmeticError, match="b/a == phi"):
            build_pair(params)
    else:
        assert build_pair(params).tag == "constructed"


def test_build_pair_power_beyond_float_range(params):
    """A power m that no float holds (10**310) meets the step-height
    guard, a ParameterError, rather than the OverflowError of the int's
    conversion to float."""
    from hblab.outer import ParameterError

    with pytest.raises(ParameterError, match="step height overflows at k=1; reduce power_m"):
        build_pair(params._replace(power_m=10**310))


def test_tame_pair_series():
    t = tame_pair(degree=8)
    assert t.a_series.coeffs[:2] == (0.5, -0.5)
    assert t.b_series.coeffs[:2] == (0.5, 0.5)
    assert t.log_phi_radial_at(math.log(0.5)) == pytest.approx(math.log(3.0))


def test_pair_phi_hat_is_the_one_route(pair, tame):
    """``Pair.phi_hat``: (1, 2, 2, ...) exactly for the tame pair's
    (1+z)/(1-z), in floats only; for the constructed pair the phi-modulus
    series that the mpmath reports take through ``phi_hat_series``."""
    from hblab.experiments import phi_hat_series

    assert tame.phi_hat(40).coeffs == (1.0,) + (2.0,) * 40
    with pytest.raises(ValueError):
        tame.phi_hat(40, 54)
    assert pair.phi_hat(64, 200) == phi_hat_series(pair, 64, 200)


def test_constructed_series_match_eval(pair):
    """a and b Taylor series from exact Fourier data agree with the Schwarz
    evaluator pointwise."""
    p = pair.with_series(128)
    for z in (0.2, 0.5j, -0.3 + 0.3j):
        ea = cmath.exp(complex(outer_eval(pair.a_modulus, z)))
        eb = cmath.exp(complex(outer_eval(pair.b_modulus, z)))
        assert complex(evaluate(p.a_series, z)) == pytest.approx(ea, rel=1e-10)
        assert complex(evaluate(p.b_series, z)) == pytest.approx(eb, rel=1e-10)


def test_outer_series_b_is_a_times_phi(pair):
    """The one Taylor route ties the three series together: b = a * phi
    coefficientwise at 256 bits.  The three log moduli are separately
    rounded float data (log b and log a + log phi agree only to rounding),
    so b and a * phi are exact for slightly different data, and each
    coefficient is held to 1e-13 of the Cauchy-product condition sum, as in
    test_exp_series_multiplicative."""
    from mpmath import mp

    deg = 64
    a = outer_series(pair.a_modulus, deg, 256)
    b = outer_series(pair.b_modulus, deg, 256)
    phi = outer_series(pair.phi_modulus, deg, 256)
    assert a.precision_bits == b.precision_bits == phi.precision_bits == 256
    with mp.workprec(256):
        ab = mul(a, phi).coeffs
        a, b, phi = ([to_mpf(c) for c in s.coeffs] for s in (a, b, phi))
        for k in range(deg + 1):
            cond = sum(abs(a[j]) * abs(phi[k - j]) for j in range(k + 1))
            assert abs(b[k] - ab[k]) <= 1e-13 * (cond + abs(b[k]))


def outer_series_mp(mod, degree, bits):
    """All-mpmath O(N^2) reference for outer_series on theta-symmetric
    data: the log series d + mean, sum h (sin j theta_e - sin j theta_s)
    / (pi j) from the float cell data (the cosine terms cancel between
    mirror cells), then exp_series, both at ``bits``."""
    from mpmath import mp

    with mp.workprec(bits):
        d = mp.mpf(mod.default_log_modulus)
        cells = [
            (mp.mpf(c.theta_start), mp.mpf(c.theta_end), mp.mpf(c.log_modulus) - d)
            for c in mod.cells
        ]
        g = [d + sum((te - ts) * h for ts, te, h in cells) / (2 * mp.pi)]
        for j in range(1, degree + 1):
            sines = sum(h * (mp.sin(j * te) - mp.sin(j * ts)) for ts, te, h in cells)
            g.append(sines / (mp.pi * j))
        return exp_series_mp(TaylorSeries(tuple(g), bits)).coeffs


@pytest.mark.parametrize("name", ["phi_modulus", "a_modulus", "b_modulus"])
def test_outer_series_matches_all_mp_oracle(pair, name):
    """At 256 bits every coefficient carries 248 correct bits, relative;
    in floats a and b carry 1e-14 of the largest coefficient."""
    from mpmath import mp

    mod = getattr(pair, name)
    ref = outer_series_mp(mod, 256, 276)
    got = outer_series(mod, 256, 256).coeffs
    with mp.workprec(276):
        for x, y in zip(got, ref):
            assert abs(to_mpf(x) - y) <= mp.mpf(2) ** -248 * abs(y)
    if name != "phi_modulus":
        scale = float(max(abs(y) for y in ref))
        flt = outer_series(mod, 256).coeffs
        assert max(abs(x - complex(y)) for x, y in zip(flt, ref)) <= 1e-14 * scale


def nearly_even_modulus(delta):
    """theta-symmetric cells that repeat after a half turn, the second pair
    higher by the factor 1 + delta.  At delta = 0 the outer function is even,
    so its odd coefficients vanish; at small delta they are delta-small."""
    h, g = 1.3, 1.3 * (1.0 + delta)
    return StepModulus(
        (
            Cell(0.2, 0.9, h),
            Cell(-0.9, -0.2, h),
            Cell(math.pi - 0.9, math.pi - 0.2, g),
            Cell(-math.pi + 0.2, -math.pi + 0.9, g),
        ),
        -0.1,
    )


@pytest.mark.parametrize("bits", [53, 128])
def test_outer_series_within_one_unit_in_last_place(pair, bits):
    """Each fixed-point coefficient is within 2^-bits of its size, and the
    final rounding adds at most as much, so every returned coefficient is
    within 2^(1-bits) (1 + 2^-bits) of the true one, relative.  The
    all-mpmath reference at bits + 60 loses about 20 of its bits at worst
    (the constructed a at degree 256), so it adds 2^-40 of the claim; the
    factor 1 + 2^-30 covers both terms."""
    from mpmath import mp

    for mod in (pair.phi_modulus, pair.a_modulus, pair.b_modulus, nearly_even_modulus(0.5)):
        ref = outer_series_mp(mod, 128, bits + 60)
        with mp.workprec(bits + 60):
            tol = mp.mpf(2) ** (1 - bits) * (1 + mp.mpf(2) ** -30)
            for x, y in zip(outer_series(mod, 128, bits).coeffs, ref):
                assert abs(mp.mpc(x) - y) <= tol * abs(y)


def test_outer_series_narrow_arc_off_zero():
    """A tall arc of width 1e-8 at theta = 2: there sin(j theta_e) and
    sin(j theta_s) cancel, and the float log series, hence the oracle, keeps
    only about 26 bits.  The check allows for that error, and the
    recurrence, built on the chord, stays accurate at both precisions."""
    from mpmath import mp

    m = StepModulus((Cell(2.0, 2.0 + 1e-8, 1e4), Cell(-2.0 - 1e-8, -2.0, 1e4)), 0.25)
    ref = outer_series_mp(m, 64, 168)  # 40 bits over 128 cover the same cancellation
    with mp.workprec(168):
        for bits, rel in ((53, 1e-13), (128, mp.mpf(2) ** -120)):
            for x, y in zip(outer_series(m, 64, bits).coeffs, ref):
                assert abs(mp.mpc(x) - y) <= rel * abs(y)


def test_outer_series_guard_fails_loudly(pair, monkeypatch):
    """A log series off by 1e-9 in one coefficient makes the float oracle
    check raise at every precision, the CLI's 384 bits included; the true
    one passes on a, b and phi."""
    import hblab.pair as pairmod

    mods = (pair.a_modulus, pair.b_modulus, pair.phi_modulus)
    for mod in mods:
        for bits in (53, 256, 384):
            outer_series(mod, 48, bits)
    true_log_series = pairmod.log_outer_series

    def perturbed(mod, degree):
        g = true_log_series(mod, degree).coeffs
        return TaylorSeries(g[:5] + (g[5] * (1 + 1e-9),) + g[6:])

    monkeypatch.setattr(pairmod, "log_outer_series", perturbed)
    for mod in mods:
        for bits in (53, 256, 384):
            with pytest.raises(ArithmeticError):
                outer_series(mod, 48, bits)


def within_claim(got, ref, bits):
    """Every coefficient of ``got`` within its counted ``error_bound`` plus
    its final rounding of the all-mpmath ``ref``, relative, with 2^-16 of a
    unit for the reference's own loss."""
    from mpmath import mp

    with mp.workprec(bits + 64):
        u = mp.mpf(2) ** -bits
        claim = (mp.mpf(got.error_bound) + u) * (1 + u)
        return all(
            abs(x - y) <= claim * abs(x) + u * 2**-16 * abs(y)
            for x, y in zip(map(to_mpf, got.coeffs), ref)
        )


@pytest.mark.parametrize("bits", [128, 384])
def test_outer_series_guard_raises_below_scale(pair, bits, monkeypatch):
    """The fixed-point scale is derived from the modulus, so its first pass
    carries 2^-bits relative only down to the a-priori coefficient size
    |F_0| min(1, A) / (n+1)^2.  A coefficient below it gets one more pass,
    with the bits it lacks: the odd coefficients of nearly even moduli,
    2^-40 below the even ones, and about 2^-53 below at delta = 0, where
    only the float rounding of the cell ends breaks the evenness, come back
    within their claim of the all-mpmath oracle at bits + 128.  A
    coefficient still short after that pass raises: one held at zero in
    both passes does, one held at zero in the first pass only does not.
    The constructed a, whose coefficients fall to 2^-12 by degree 256, is
    inside the scale and keeps its claim."""
    import hblab.taylor as taylor

    for delta in (2.0**-40, 0.0):
        mod = nearly_even_modulus(delta)
        got = outer_series(mod, 48, bits)
        assert min(abs(to_mpf(c)) for c in got.coeffs) < 1e-12
        assert 0.0 < got.error_bound <= 2.0**-bits
        assert within_claim(got, outer_series_mp(mod, 48, bits + 128), bits)
    assert outer_series(nearly_even_modulus(0.5), 48, bits).error_bound <= 2.0**-bits
    true_recurrence, passes = taylor._arc_recurrence, []

    def zeroed(held):
        def recurrence(f0, data, degree, shift):
            coeffs = true_recurrence(f0, data, degree, shift)
            passes.append(shift)
            return coeffs[:7] + [0] + coeffs[8:] if len(passes) <= held else coeffs

        return recurrence

    mod = nearly_even_modulus(0.5)
    monkeypatch.setattr(taylor, "_arc_recurrence", zeroed(2))
    with pytest.raises(ArithmeticError, match="coefficient 7 is too small"):
        outer_series(mod, 48, bits)
    assert len(passes) == 2 and passes[1] > passes[0]
    passes.clear()
    monkeypatch.setattr(taylor, "_arc_recurrence", zeroed(1))
    got = outer_series(mod, 48, bits)
    assert len(passes) == 2
    assert within_claim(got, outer_series_mp(mod, 48, bits + 128), bits)
    a = outer_series(pair.a_modulus, 256, bits)
    assert 0.0 < a.error_bound <= 2.0**-bits
    assert min(abs(to_mpf(c)) for c in a.coeffs) < 2.0**-11


@pytest.mark.parametrize("bits", [53, 384])
@pytest.mark.parametrize("e", [0.25, 1.0, 3.5, 1e6 + 0.5])
def test_shortfall_threshold(bits, e):
    """The guard's claim |F_n - fixed F_n| <= e <= 2^-bits (|fixed F_n| - e)
    is tested as ceil(e) (2^bits + 1) <= |fixed F_n|: a coefficient of
    exactly that size passes, of either sign, and one unit less reports
    its shortfall, the least bits it lacks, 1."""
    import hblab.taylor as taylor

    need = math.ceil(e) * (2**bits + 1)
    for f in (need, -need):
        assert taylor._shortfall([f], [e], bits) == (0, None)
    for f in (need - 1, 1 - need):
        assert taylor._shortfall([2**bits, f], [0.0, e], bits) == (1, 1)


@pytest.mark.parametrize("bits", [53, 128, 384])
@pytest.mark.parametrize("d", [0.0, 0.1, -0.1, -5.0, 3.0])
def test_outer_series_constant_modulus(d, bits):
    """A constant modulus e^d has the constant outer function e^d: the
    series is e^d, 0, ..., 0 within its claim.  Its one counted bound is
    1 + tiny units, so the guard tests 2 units against F_0; the fixed-point
    scale is placed from that unit count, not from the float bound, or
    e^d < 2 at 53 bits (d = 0 at any precision) raises."""
    from mpmath import mp

    s = outer_series(StepModulus((), d), 8, bits)
    assert s.precision_bits == bits
    assert all(c == 0 for c in s.coeffs[1:])
    assert 0.0 < s.error_bound <= 2.0**-bits
    with mp.workprec(bits + 64):
        c0, ref = mp.mpmathify(s.coeffs[0]), mp.exp(d)
        assert c0.imag == 0
        assert abs(c0.real - ref) <= 2 ** (1 - bits) * ref


def test_outer_series_mp_needs_symmetric_modulus():
    """Off theta-symmetry the coefficients are complex, and outer_series
    refuses at every precision; on symmetric data the float and the
    128-bit series agree."""
    lopsided = StepModulus((Cell(0.2, 0.9, 1.3),))
    for bits in (53, 128):
        with pytest.raises(ValueError, match="theta-symmetric"):
            outer_series(lopsided, 8, bits)
    symmetric = StepModulus((Cell(0.2, 0.9, 1.3), Cell(-0.9, -0.2, 1.3)), -0.1)
    lo, hi = outer_series(symmetric, 48), outer_series(symmetric, 48, 128)
    assert hi.precision_bits == 128
    assert all(isinstance(x, float) for x in lo.coeffs)
    for x, y in zip(lo.coeffs, hi.coeffs):
        assert abs(x - to_mpf(y)) <= 1e-13 * max(abs(x), 1.0)


@st.composite
def symmetric_moduli(draw):
    """(modulus, symmetric): one to three mirrored arcs, each at least 0.01
    wide, with heights in [-2, 2]; the first may start at 0 (one
    self-mirror cell), the last may end at pi, and one may be cut to its
    last 1e-8 or so with a height of 1e3 to 1e4, a tall arc away from 0.
    Off ``symmetric`` one mirror cell is dropped or the self-mirror cell cut."""
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(0.01, 0.45), min_size=2 * n, max_size=2 * n))
    ends = [0.05 + sum(gaps[: i + 1]) for i in range(2 * n)]
    heights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    arcs = [[ends[2 * j], ends[2 * j + 1], h] for j, h in enumerate(heights)]
    if draw(st.booleans()):
        arcs[0][0] = 0.0
    if draw(st.booleans()):
        arcs[-1][1] = math.pi
    if draw(st.booleans()):
        tall = draw(st.integers(0, n - 1))
        te = arcs[tall][1]
        arcs[tall] = [te - draw(st.floats(0.5e-8, 2e-8)), te, draw(st.floats(1e3, 1e4))]
    cells = []
    for ts, te, h in arcs:
        cells += [Cell(-te, te, h)] if ts == 0.0 else [Cell(ts, te, h), Cell(-te, -ts, h)]
    symmetric = draw(st.integers(0, 4)) != 3
    if not symmetric:
        c = cells.pop()
        if c.theta_start == -c.theta_end:
            cells.append(Cell(c.theta_start / 2, c.theta_end, c.log_modulus))
    return StepModulus(tuple(cells), draw(st.floats(-0.5, 0.5))), symmetric


@settings(max_examples=30, deadline=None, derandomize=True)
@given(symmetric_moduli())
def test_outer_series_within_its_bound_across_symmetric_moduli(drawn):
    """Across theta-symmetric moduli each coefficient of outer_series at P
    bits is within its counted ``error_bound`` plus the final rounding of
    the all-mpmath oracle at P + 64 bits: |x - y| <= (error_bound + 2^-P)
    (1 + 2^-P) |x|.  The oracle loses up to about 27 of its 64 extra bits
    on a tall arc of width 1e-8 (sin j theta_e - sin j theta_s cancels) and
    a few more in exp_series, allowed as 2^-(P+16) |y|.  A coefficient
    below the a-priori scale gets the second pass and keeps its claim (none
    may raise); an asymmetric modulus raises ValueError at every
    precision."""
    mod, symmetric = drawn
    for bits in (53, 128, 256):
        if not symmetric:
            with pytest.raises(ValueError, match="theta-symmetric"):
                outer_series(mod, 24, bits)
            continue
        got = outer_series(mod, 24, bits)
        assert within_claim(got, outer_series_mp(mod, 24, bits + 64), bits)


# three mirrored arcs whose coefficient 20 of degree 24 (9.4e-5 against
# F_0 = 1.08) lies below the a-priori scale of the first pass
LOW_COEFFICIENT_MODULUS = StepModulus(
    (
        Cell(-1.734177449772364, -1.458287682086904, 0.2758897676854601),
        Cell(-1.1178055296330591, -1.065165354710205, 0.3404821524538447),
        Cell(-0.7892755870247448, -0.4487934345709, 0.3987934345709),
        Cell(0.4487934345709, 0.7892755870247448, 0.3987934345709),
        Cell(1.065165354710205, 1.1178055296330591, 0.3404821524538447),
        Cell(1.458287682086904, 1.734177449772364, 0.2758897676854601),
    ),
    0.0,
)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_outer_series_second_pass_on_a_low_coefficient(bits, monkeypatch):
    """A theta-symmetric modulus that the draws above produced (before the
    second pass existed, when it raised), whose coefficient 20 falls a few
    times below the first pass's scale: the second pass is taken and
    returns the series within ``error_bound`` of the all-mpmath oracle."""
    import hblab.taylor as taylor

    true_pass, widths = taylor._fixed_pass, []

    def counted(mod, arcs, degree, W, extra):
        widths.append(W)
        return true_pass(mod, arcs, degree, W, extra)

    monkeypatch.setattr(taylor, "_fixed_pass", counted)
    got = outer_series(LOW_COEFFICIENT_MODULUS, 24, bits)
    assert len(widths) == 2 and widths[1] > widths[0]
    assert abs(float(got.coeffs[20])) < 1e-4
    assert 0.0 < got.error_bound <= 2.0**-bits
    assert within_claim(got, outer_series_mp(LOW_COEFFICIENT_MODULUS, 24, bits + 64), bits)


def counted_truncation_bound(mod, degree, bits, extra):
    """(A, e_0..e_degree): the count in the docstring of
    ``taylor._truncation_bound``, written out again term by term in exact
    rationals, with explicit sums over arcs and steps in place of the
    shared running sums.  The float arc data are taken as exact."""
    q = Fraction
    tiny, wide, unit, rounding = q(2) ** (4 - bits), 1 + q(2) ** -40, q(2) ** -bits, q(2) ** -extra
    d = mod.default_log_modulus

    def u_bound(theta):
        # |U_m| <= min(m+1, 1/|sin theta|), each end taking the smaller at the top degree
        s2 = math.sin(theta) ** 2 - 2.0 ** (5 - bits)
        c = 1.0 / math.sqrt(s2) if s2 > 0.0 else math.inf
        return (lambda m: q(c)) if c <= degree + 1 else (lambda m: q(m + 1))

    arcs = []
    for c in mod.cells:
        if c.log_modulus == d or c.theta_end <= 0.0:
            continue
        ts, te = max(c.theta_start, 0.0), c.theta_end
        k = 2.0 * abs(c.log_modulus - d) / math.pi
        sin_w, mu = math.sin((te - ts) / 2.0), (te + ts) / 2.0
        a, b = q(2.0 * k * sin_w), q(2.0 * k * math.sin(mu) * sin_w) if ts > 0.0 else q(0)
        arcs.append({
            "a": a, "b": b, "alpha": a * q(abs(math.cos(mu))), "beta": b * q(math.sin(ts)),
            "de": q(4.0 * math.sin(te / 2.0) ** 2), "ds": q(4.0 * math.sin(ts / 2.0) ** 2),
            "ue": u_bound(te), "us": u_bound(ts),
        })
    mass = wide * sum(arc["a"] for arc in arcs)
    f0 = q(math.exp(mod.mean_log_modulus()))
    terms = q(abs(d)) + sum(q(c.width) * q(abs(c.log_modulus - d)) for c in mod.cells)
    m, e = [wide * f0], [1 + f0 * (len(mod.cells) + 3) * (1 + terms) * tiny]
    for n in range(degree):
        z = [m[j] + unit * (e[j] + 1) for j in range(n + 1)]

        def X(arc, j):
            return sum((arc["ue"](j - i) * z[i] for i in range(j + 1)), q(0))

        def Y(arc, j):
            return 2 * sum((arc["us"](j - i) * X(arc, i) for i in range(j + 1)), q(0))

        r = [
            mass * (e[j] + 2)
            + sum(wide * 2 * (1 + tiny) * arc["a"] * arc["de"] * X(arc, j - 1) for arc in arcs)
            for j in range(n + 1)
        ]
        total = sum((n - j + 1) * r[j] for j in range(n + 1)) + (n + 1)
        for arc in arcs:
            total += wide * (rounding + tiny * arc["alpha"]) * X(arc, n)
            if arc["b"]:
                total += wide * 2 * (1 + tiny) * arc["b"] * arc["ds"] * sum(
                    Y(arc, j - 1) for j in range(n + 1)
                )
                total += wide * (rounding + tiny * arc["beta"]) * Y(arc, n)
        e.append(total / (n + 1))
        m.append(mass * sum((n - j + 1) * m[j] for j in range(n + 1)) / (n + 1))
    return mass, e


@pytest.mark.parametrize("bits", [53, 128])
def test_truncation_bound_is_its_derivation(bits):
    """``_truncation_bound`` is the count its docstring derives, term by
    term, on one mirrored arc (both ends taking 1/|sin theta|) and one
    self-mirror arc (taking m + 1, and no D term) at degree 6.  Dropping
    any counted term, such as the rounding of alpha and beta, a floor unit
    or the 1/|sin theta| bound, moves the result far beyond 1e-12."""
    import hblab.taylor as taylor

    mod = StepModulus(
        (Cell(0.3, 0.9, 1.3), Cell(-0.9, -0.3, 1.3), Cell(-0.1, 0.1, -0.7)), 0.2
    )
    arcs = [
        (max(c.theta_start, 0.0), c.theta_end, c.log_modulus)
        for c in mod.cells
        if c.log_modulus != mod.default_log_modulus and c.theta_end > 0.0
    ]
    f0 = math.exp(mod.mean_log_modulus())
    mass, got = taylor._truncation_bound(mod, arcs, f0, 6, bits, 6)
    want_mass, want = counted_truncation_bound(mod, 6, bits, 6)
    assert mass == pytest.approx(float(want_mass), rel=1e-12, abs=0.0)
    assert got == pytest.approx([float(x) for x in want], rel=1e-12, abs=0.0)


_TAYLOR_IMPORT_ORDER = """
import json, sys
import hblab.pair as pair
import hblab.series as series
from hblab.outer import ConstructionParams
loaded_early = "hblab.taylor" in sys.modules
originals = pair.log_outer_series, series.exp_series
calls = dict.fromkeys(("log_outer_series", "exp_series"), 0)
def counting(fn):
    def wrapped(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return wrapped
pair.log_outer_series = counting(pair.log_outer_series)
series.exp_series = counting(series.exp_series)
p = pair.build_pair(ConstructionParams(alpha=1.2, beta=1.5, power_m=1))
first = p.phi_hat(32, 128)
wrapped_calls = dict(calls)
pair.log_outer_series, series.exp_series = originals
reached = set()
def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)
sys.setprofile(profile)
second = p.phi_hat(32, 128)
sys.setprofile(None)
print(json.dumps({
    "loaded_early": loaded_early,
    "wrapped_calls": wrapped_calls,
    "calls_after_restore": calls,
    "originals_reached": [fn.__code__ in reached for fn in originals],
    "same": first == second,
}))
"""


def test_taylor_resolves_the_oracle_at_call_time(run_fresh):
    """``taylor`` calls ``pair.log_outer_series`` and ``series.exp_series``
    through their home modules, in a fresh interpreter: wrappers bound
    there before ``hblab.taylor`` is first imported see ``phi_hat``'s
    oracle calls, and once the originals are restored a second call
    reaches them, not a stale binding."""
    probe = run_fresh(_TAYLOR_IMPORT_ORDER)
    assert probe["loaded_early"] is False
    assert probe["wrapped_calls"] == {"log_outer_series": 1, "exp_series": 1}
    assert probe["calls_after_restore"] == probe["wrapped_calls"]
    assert probe["originals_reached"] == [True, True]
    assert probe["same"] is True


# -- serialization ----------------------------------------------------------


def test_pair_json_roundtrip(pair):
    doc = pair_to_json(pair, extra={"chosen_power_m": 1})
    obj = json.loads(doc)
    assert obj["chosen_power_m"] == 1
    back = pair_from_json(doc)
    assert back.tag == pair.tag
    assert back.params == pair.params
    assert back.a_modulus == pair.a_modulus
    assert back.b_modulus == pair.b_modulus
    assert back.phi_modulus == pair.phi_modulus


def test_pair_json_deterministic(pair):
    assert pair_to_json(pair) == pair_to_json(pair)


def test_tame_json_roundtrip(tame):
    back = pair_from_json(pair_to_json(tame))
    assert back.tag == "tame"
    assert back.a_series.coeffs[:2] == (0.5, -0.5)
