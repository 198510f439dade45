"""Tests of the half-plane construction: sequences, closed-form evaluators,
the log-domain growth ratio, and the quadrature cross-check.

Frozen reference values were produced by an independent 300-bit mpmath
implementation of the defining formulas.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblab.outer import (
    ConstructionParams,
    GrowthBoundError,
    ParameterError,
    cayley,
    check_rho_condition,
    choose_power_m,
    growth_bound_scan,
    growth_log_ratio,
    half_plane_log_modulus_radial,
    log_Phi_halfplane,
    log_delta,
    log_eps,
    log_phi_disk,
    log_phi_radial,
    log_t,
    make_sequences,
    poisson_quad_crosscheck,
    verify_growth_bound,
)

# independently computed at 300 bits from the defining formulas
W1 = 0.63212055882855768
W2 = 0.94089425343804376
T1 = 0.42900380338140827
T3 = 0.0055531642624624175
LOG_EPS3 = -0.93334524155318386
RE_LOG_PHI_I = 0.85388513036840627
LOG_PHI_AT = {0.0: 1.7077702607368125, 0.5: 3.1624969506443158}
LOG_PHI_W1 = 3.9477742912968318
RHO_RATIOS = {
    1: 4.441048085801144,
    2: 5.5800695817269454,
    3: 7.0389341340259443,
    4: 8.8063688424001581,
    5: 10.857118472497197,
    6: 12.917539376798058,
    7: 13.161061728616776,
}
GROWTH_RATIOS = {
    (1, 0.0): -0.61040610475302173,
    (2, 0.0): -1.9530991102878498,
    (3, 0.5): -4.9872633431555812,
    (5, 0.0): -194.10180378138416,
    (1, 1.0): -0.1252318636445066,
    (5, 1.0): -12.03042212063059,
}


@pytest.fixture(scope="module")
def seq(params):
    return make_sequences(params)


# -- parameters and sequences ----------------------------------------------


@pytest.mark.parametrize(
    "alpha,beta",
    [(1.0, 1.5), (1.5, 1.2), (1.2, 2.3), (0.5, 0.8), (1.2, 1.2)],
)
def test_invalid_exponents_rejected(alpha, beta):
    with pytest.raises(ParameterError):
        ConstructionParams(alpha=alpha, beta=beta)


def test_power_validation():
    with pytest.raises(ParameterError):
        ConstructionParams(1.2, 1.5, power_m=0)
    with pytest.raises(ParameterError):
        ConstructionParams(1.2, 1.5, power_m="later")
    p = ConstructionParams(1.2, 1.5)
    with pytest.raises(ParameterError):
        p.resolved_power()
    assert p.with_power(3).resolved_power() == 3


def test_n_terms_overflow_guard():
    with pytest.raises(ParameterError):
        make_sequences(ConstructionParams(1.2, 1.5, n_terms=100, n_check=5))


def test_sequences_frozen_values(seq):
    assert seq.w[1] == pytest.approx(W1, rel=1e-15)
    assert seq.w[2] == pytest.approx(W2, rel=1e-15)
    assert seq.t[1] == pytest.approx(T1, rel=1e-14)
    assert seq.t[3] == pytest.approx(T3, rel=1e-14)
    assert seq.eps[3].log_mag == pytest.approx(LOG_EPS3, rel=1e-14)


def test_sequences_invariants(seq, params):
    n = params.n_terms
    for k in range(1, n + 1):
        assert 0.0 < seq.w[k] < seq.w[k + 1] < 1.0
        assert seq.t[k + 1] < seq.t[k]
        d = seq.delta(k)
        assert d / 2.0 <= seq.v(k) <= seq.t[k] <= 2.0 * d


def test_log_t_underflow_regime():
    p = ConstructionParams(1.2, 1.5, power_m=1)
    # beyond float range log t falls back to log delta (relative error ~ d)
    assert log_t(p, 200) == pytest.approx(log_delta(p, 200))
    assert log_t(p, 3) == pytest.approx(math.log(T3), rel=1e-13)


def test_rho_ratio_table(seq):
    """The tail ratios as observed: they grow with n for these exponents."""
    for n, expect in RHO_RATIOS.items():
        assert check_rho_condition(seq, n) == pytest.approx(expect, rel=1e-12)
    vals = [check_rho_condition(seq, n) for n in range(1, 8)]
    assert vals == sorted(vals)  # monotone increasing, not decreasing


# -- closed-form evaluators ------------------------------------------------


def test_log_Phi_at_i(seq):
    val = log_Phi_halfplane(1j, seq)
    assert val.real == pytest.approx(RE_LOG_PHI_I, rel=1e-13)


def log_Phi_mp(z, params):
    """200-bit reference for log_Phi_halfplane: t_k and eps_k recomputed
    from alpha and beta, and the per-interval closed form taken exactly,
    with no small-interval expansion."""
    from mpmath import mp

    with mp.workprec(200):
        z = mp.mpc(z)
        total = mp.mpc(0)
        for k in range(1, params.n_terms + 1):
            kk = mp.mpf(k)
            d = mp.exp(-(kk**params.beta))
            t = d * (2 - d) / (1 + (1 - d) ** 2)
            eps = mp.exp((kk + 1) ** params.beta - kk**params.beta - kk**params.alpha)
            bracket = (
                mp.log((3 * t - z) / (2 * t - z))
                - mp.log((9 * t * t + 1) / (4 * t * t + 1)) / 2
            )
            total += eps / (mp.pi * 1j * t) * bracket
        return complex(total)


def test_log_Phi_mp_agreement(seq):
    for z in (0.3 + 0.7j, -1.1 + 0.05j, 2.0 + 1e-6j):
        a = log_Phi_halfplane(z, seq)
        b = log_Phi_mp(z, seq.params)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_log_Phi_requires_upper_half(seq):
    with pytest.raises(ValueError):
        log_Phi_halfplane(1.0 - 1j, seq)


def test_cayley_basics():
    assert cayley(0.0) == 1j
    x = 0.3
    assert cayley(x) == pytest.approx(1j * (1 - x) / (1 + x))
    with pytest.raises(ValueError):
        cayley(-1.0)


def test_log_phi_disk_real_on_axis(params, seq):
    for x in (-0.5, 0.0, 0.3, 0.9):
        val = log_phi_disk(complex(x, 0.0), params, seq)
        assert abs(val.imag) < 1e-12 * max(abs(val.real), 1.0)


def test_log_phi_radial_frozen(params):
    assert log_phi_radial(math.log(1.0), params) == pytest.approx(
        LOG_PHI_AT[0.0], rel=1e-13
    )
    assert log_phi_radial(math.log(0.5), params) == pytest.approx(
        LOG_PHI_AT[0.5], rel=1e-13
    )
    assert log_phi_radial(log_delta(params, 1), params) == pytest.approx(
        LOG_PHI_W1, rel=1e-13
    )


def test_phi_at_least_one_on_radius(params):
    """phi is the exponential of a positive Herglotz integral, so >= 1."""
    for ld in (-0.1, -1.0, -5.0, -50.0, -500.0):
        assert log_phi_radial(ld, params) > 0.0


def test_half_plane_modulus_extreme_y(params):
    # far field: Re log Phi(iy) ~ (1/pi) sum eps_k / y
    log_y = 50.0
    val = half_plane_log_modulus_radial(log_y, params)
    expect = sum(
        math.exp(log_eps(params, k)) for k in range(1, params.n_terms + 1)
    ) / math.pi
    assert val.log_mag == pytest.approx(math.log(expect) - log_y, rel=1e-10)
    # near field: y below every t_k leaves the support, and the value decays
    # like y * sum_k eps_k / (6 pi t_k^2)
    log_y = -5000.0
    got = half_plane_log_modulus_radial(log_y, params)
    slope = math.log(
        sum(
            math.exp(log_eps(params, k) - 2.0 * log_t(params, k))
            for k in range(1, params.n_terms + 1)
        )
    )
    assert got.log_mag == pytest.approx(
        log_y + slope - math.log(6.0 * math.pi), rel=1e-10
    )


# -- the growth ratio -------------------------------------------------------


def test_growth_ratio_frozen(params):
    for (n, s), expect in GROWTH_RATIOS.items():
        got = growth_log_ratio(params, n, s)
        assert got.sign() == -1
        assert -math.exp(got.log_mag) == pytest.approx(expect, rel=1e-12)


def test_growth_ratio_zero_width_limit(params):
    """At s where r -> w_n the ratio tends to 0 from below; u == t_n at s=0
    still gives a strictly negative value for these exponents."""
    with pytest.raises(ValueError):
        growth_log_ratio(params, 1, 1.5)


def test_growth_ratio_deep_log_domain():
    """Far beyond float range the log-domain branch still produces finite,
    smoothly varying values."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    vals = [growth_log_ratio(p, n, 0.5, n_terms=n + 3) for n in (250, 251)]
    for v in vals:
        assert v.sign() == 1
        assert math.isfinite(v.log_mag)
    assert vals[1].log_mag > vals[0].log_mag


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_growth_ratio_matches_mp(n, s):
    """Property check against a 250-bit direct evaluation."""
    from mpmath import mp

    p = ConstructionParams(1.2, 1.5, power_m=1, n_terms=8)
    got = growth_log_ratio(p, n, s)
    old = mp.prec
    try:
        mp.prec = 250
        alpha, beta = mp.mpf("1.2"), mp.mpf("1.5")

        def w(k):
            return 1 - mp.exp(-mp.mpf(k) ** beta)

        def re_log_phi(y):
            total = mp.mpf(0)
            for k in range(1, 9):
                wk = w(k)
                t = (1 - wk**2) / (1 + wk**2)
                kk = mp.mpf(k)
                eps = mp.exp((kk + 1) ** beta - kk**beta - kk**alpha)
                total += eps / (mp.pi * t) * (mp.atan(3 * t / y) - mp.atan(2 * t / y))
            return total

        r = w(n) + mp.mpf(s) * (w(n + 1) - w(n))
        u = (1 - r * w(n)) / (1 + r * w(n))
        v = (1 - w(n)) / (1 + w(n))
        expect = re_log_phi(u) - re_log_phi(v)
    finally:
        mp.prec = old
    if expect == 0:
        assert got.is_zero or got.log_mag < -30
    else:
        assert got.sign() == (1 if expect > 0 else -1)
        assert got.log_mag == pytest.approx(float(mp.log(abs(expect))), abs=1e-10)


# -- bound verification and the power search -------------------------------


def test_verify_growth_bound_rows(params, seq):
    records = verify_growth_bound(2, 9, params, seq)
    assert len(records) == 9
    for rec in records:
        assert rec.n == 2
        assert rec.v <= rec.u * (1 + 1e-12)
        assert rec.log_ratio < 0.0  # desk-scale regime: ratio negative
        assert not rec.passed


def test_verify_growth_bound_validation(params, seq):
    with pytest.raises(ValueError):
        verify_growth_bound(0, 9, params, seq)
    with pytest.raises(ValueError):
        verify_growth_bound(1, 1, params, seq)


def test_choose_power_m_reports_all_intervals(params, seq):
    """No positive power works at these exponents; the error must name every
    checked interval and carry the measured table."""
    with pytest.raises(GrowthBoundError) as exc:
        choose_power_m(params, seq)
    msg = str(exc.value)
    for n in range(1, params.n_check + 1):
        assert f"[w_{n}, w_{n + 1}]" in msg
    assert len(exc.value.table) == params.n_check
    for n, ratio, lb in exc.value.table:
        assert ratio.sign() == -1
        assert lb == pytest.approx(float(n) ** 1.5 - float(n) ** 1.2)


def test_growth_bound_scan_asymptotic_regime():
    """Positivity spreads across each interval from the left; on the
    5-point grid (interior up to s = 0.75) the interior minimum clears the
    bound with power 1 by n = 150 while the right endpoint still lags."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    low = growth_bound_scan(p, 5, 5, samples=5)[0]
    assert not low.interior_positive
    assert low.passes_with_m is None
    high = growth_bound_scan(p, 150, 150, samples=5)[0]
    assert high.interior_positive
    assert high.passes_with_m == 1.0
    assert high.min_log_ratio_interior.log_mag > high.log_bound
    assert high.min_log_ratio.sign() == -1  # right endpoint still negative


# -- quadrature cross-check -------------------------------------------------


def test_poisson_quad_crosscheck(seq):
    worst = poisson_quad_crosscheck(seq, n_points=20, seed=7)
    assert worst <= 1e-8
