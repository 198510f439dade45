"""Tests of the half-plane construction: sequences, closed-form evaluators,
the log-domain growth ratio, and the quadrature cross-check.

Frozen reference values were produced by an independent 300-bit mpmath
implementation of the defining formulas.
"""

import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hblab import growth, logscalar, outer
from hblab.logscalar import LogScalar, log1p_exp, log_diff_exp, log_sum_signed
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

DATA = Path(__file__).resolve().parent / "data"

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
    assert p._replace(power_m=3).resolved_power() == 3
    with pytest.raises(ParameterError):
        p._replace(power_m=0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_terms": 1}, "n_terms must be at least 2"),
        ({"n_check": 0}, "n_check must satisfy"),
        ({"n_check": 8}, "n_check must satisfy"),
        ({"precision_bits": 23}, "precision_bits must be at least 24"),
    ],
)
def test_size_validation(fields, message):
    """n_terms below 2, n_check outside 1..n_terms - 1 and fewer than 24
    bits are each rejected by their own check (n_terms = 1 would fail the
    n_check check too, so the message tells the two apart)."""
    with pytest.raises(ParameterError, match=message):
        ConstructionParams(1.2, 1.5, power_m=1, **fields)


def test_sequences_reject_w_that_rounds_to_one():
    """At (1.7, 1.8), delta_8 = exp(-8**1.8) = 4.6e-19 lies below half an
    ulp of 1, so w_8 rounds to 1.0 and the sequence check rejects w at
    index 7, though (N + 1)**beta = 52 is far inside float range."""
    with pytest.raises(ParameterError, match=r"w must be strictly increasing in \(0,1\) at index 7"):
        make_sequences(ConstructionParams(1.7, 1.8, n_terms=8, power_m=1))


def test_n_terms_overflow_guard():
    with pytest.raises(ParameterError):
        make_sequences(ConstructionParams(1.2, 1.5, n_terms=100, n_check=5))


def test_sequences_frozen_values(seq):
    assert seq.w[1] == pytest.approx(W1, rel=1e-15)
    assert seq.w[2] == pytest.approx(W2, rel=1e-15)
    assert seq.t[1] == pytest.approx(T1, rel=1e-14)
    assert seq.t[3] == pytest.approx(T3, rel=1e-14)
    assert seq.log_eps[3] == pytest.approx(LOG_EPS3, rel=1e-14)


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


def test_rho_condition_and_disk_reject_points_outside(seq):
    """The tail ratio needs 1 <= n < n_terms (at n = 0 it would divide by
    rho_0 = 0 and return inf), and the disk function |z| < 1 (at z = 1 the
    Cayley image is 0, where the half-plane evaluator raises a message of
    its own)."""
    with pytest.raises(ValueError, match="need 1 <= n < n_terms"):
        check_rho_condition(seq, 0)
    with pytest.raises(ValueError, match=r"log_phi_disk requires \|z\| < 1"):
        log_phi_disk(1.0, seq)


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


@pytest.mark.parametrize("z", [200j, 300 + 100j])
def test_log_Phi_small_interval_expansion(seq, z):
    """The last interval's term at a z with t < 1e-12 |z|, where
    ``log_Phi_halfplane`` takes the first-order expansion, against the
    exact Herglotz term at 200 bits, from the same float t and eps.

    With u = t/z, the exact term is eps/(pi i t) [L(u) - M(t)/2], where

        L(u) = log((3t - z)/(2t - z)) = -sum_j (3^j - 2^j) u^j / j,
        M(t) = log((9t^2 + 1)/(4t^2 + 1)) = sum_j (-1)^(j+1) (9^j - 4^j) t^(2j) / j.

    The expansion keeps j = 1, 2 of L and j = 1 of M:
    eps/(pi i) (-1/z - 5t/(2z^2) - 5t/2).  The first dropped order is
    -(19/3) t^2/z^3; with 3^j >= 3^j - 2^j and |1/j| <= 1/3 past it, the
    dropped tail of L/t is at most 9 t^2 / (|z|^3 (1 - 3t/|z|)), and that
    of M/(2t), from j = 2 on, at most (81/4) t^3 / (1 - 9t^2).  To that
    bound, times eps/pi, the tolerance adds 16 units of 2^-53 of the kept
    terms' magnitude for the float arithmetic of the branch.  Every other
    interval gets eps = 0, so the sum is that one term.
    """
    from mpmath import mp

    k = seq.params.n_terms
    t, eps, az = seq.t[k], math.exp(seq.log_eps[k]), abs(z)
    assert t < 1e-12 * az <= seq.t[k - 1]  # the expansion serves interval k alone
    only_k = tuple(le if j == k else -math.inf for j, le in enumerate(seq.log_eps))
    got = log_Phi_halfplane(z, seq._replace(log_eps=only_k))
    with mp.workprec(200):
        zz, tt = mp.mpc(z), mp.mpf(t)
        bracket = mp.log((3 * tt - zz) / (2 * tt - zz)) - mp.log(
            (9 * tt * tt + 1) / (4 * tt * tt + 1)
        ) / 2
        exact = complex(mp.mpf(eps) / (mp.pi * 1j * tt) * bracket)
    dropped = 9 * t * t / (az**3 * (1 - 3 * t / az)) + 81 / 4 * t**3 / (1 - 9 * t * t)
    rounding = 16 * 2.0**-53 * (1 / az + 2.5 * t / az**2 + 2.5 * t)
    assert abs(got - exact) <= eps / math.pi * (dropped + rounding)


def test_log_Phi_requires_upper_half(seq):
    with pytest.raises(ValueError):
        log_Phi_halfplane(1.0 - 1j, seq)


def test_cayley_basics():
    assert cayley(0.0) == 1j
    x = 0.3
    assert cayley(x) == pytest.approx(1j * (1 - x) / (1 + x))
    with pytest.raises(ValueError):
        cayley(-1.0)


def test_log_phi_disk_real_on_axis(seq):
    for x in (-0.5, 0.0, 0.3, 0.9):
        val = log_phi_disk(complex(x, 0.0), seq)
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
    assert val == pytest.approx(math.log(expect) - log_y, rel=1e-10)
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
    assert got == pytest.approx(log_y + slope - math.log(6.0 * math.pi), rel=1e-10)


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


@pytest.mark.parametrize("n", [100, 150])
def test_growth_ratio_matches_mp_deep(n):
    """Deep-n check against a direct mpmath sum, without the two-angle
    identity: sum_k eps_k/(pi t_k) (atan(3t_k/y) - atan(2t_k/y)) at y = u
    minus the same at y = v, k <= n + 3.

    Precision.  atan(3q) - atan(2q) loses log2(q) bits, and q = t_k/y stays
    below e^((n+1)**beta); ceil((n+1)**beta / ln 2) + 128 bits leave the
    oracle over 100 bits after that and after the u - v difference and the
    final sum (cond below is at most 100), so its error is negligible.

    Tolerance.  With B = (n + 4)**beta, every |log delta_k|, |log t_k| and
    power inside log eps_k for k <= n + 3 is at most B, and every float
    that ``growth_log_ratio`` forms on the way to one term's log magnitude
    is at most 4B in size, so one rounding costs at most 4B u, u = 2^-53.
    Weighting each rounding by how often it enters the term (log uv up to
    6 times, log t_k up to 10) bounds the error of a small-angle term by
    165 u B.  A term in the atan branch has an argument good to 61 u B in
    log; the subtraction atan(x2) - atan(x3) amplifies that at most 7-fold
    while x2/x3 = (2/3)(uv + 9t^2)/(uv + 4t^2) stays off 1, which holds
    when |log(6 t_k^2/(uv))| >= 2 for every k (asserted here; it also keeps
    the numerator log(6t^2 - uv) of the small-angle branch well
    conditioned).  So every term is good to 450 u B relative, and the
    signed sum moves log|sum| by at most 450 u B cond + 4u with
    cond = sum |term| / |sum term| taken from the oracle.  s = 1 is left
    out: there log(1 - r) is rounded from 1 - delta_{n+1}/delta_n and is
    off by about 1e-16 delta_n/delta_{n+1} (4e-9 at n = 150), an error of
    the radius itself, not of this evaluator.
    """
    from mpmath import mp

    p = ConstructionParams(1.2, 1.5, power_m=1)
    nt = n + 3
    big_b = float(n + 4) ** p.beta
    with mp.workprec(math.ceil((n + 1) ** p.beta / math.log(2.0)) + 128):
        alpha, beta = mp.mpf(p.alpha), mp.mpf(p.beta)

        def w(k):
            return 1 - mp.exp(-mp.mpf(k) ** beta)

        ts, eps = [], []
        for k in range(1, nt + 1):
            wk, kk = w(k), mp.mpf(k)
            ts.append((1 - wk**2) / (1 + wk**2))
            eps.append(mp.exp((kk + 1) ** beta - kk**beta - kk**alpha))

        def brackets(y):
            return [mp.atan(3 * t / y) - mp.atan(2 * t / y) for t in ts]

        v = (1 - w(n)) / (1 + w(n))
        at_v = brackets(v)
        e2 = mp.exp(2)
        for s in (0.0, 0.25, 0.5, 0.75):
            r = w(n) + mp.mpf(s) * (w(n + 1) - w(n))
            u = (1 - r * w(n)) / (1 + r * w(n))
            assert all(not 1 / e2 < 6 * t * t / (u * v) < e2 for t in ts)
            terms = [
                e / (mp.pi * t) * (bu - bv)
                for t, e, bu, bv in zip(ts, eps, brackets(u), at_v)
            ]
            total = mp.fsum(terms)
            cond = float(mp.fsum(abs(x) for x in terms) / abs(total))
            got = growth_log_ratio(p, n, s, n_terms=nt)
            assert got.sign() == mp.sign(total)
            tol = 450 * 2.0**-53 * big_b * cond + 4 * 2.0**-53
            assert abs(got.log_mag - float(mp.log(abs(total)))) <= tol


_LN2, _LN3, _LN6, _LNPI = (math.log(x) for x in (2.0, 3.0, 6.0, math.pi))


def _growth_term(lt: float, le: float, log_uv: float, log_umv: float):
    """Reference for interval k's term (eps_k/(pi t_k)) (atan(3t_k/u) -
    atan(3t_k/v) - atan(2t_k/u) + atan(2t_k/v)) of ``growth_log_ratio`` as a
    (sign, log|term|) pair from lt = log t_k and le = log eps_k, written out
    with every ``log1p_exp`` and ``log_diff_exp`` call; None when the term
    is exactly zero."""
    l3 = log1p_exp(2.0 * _LN3 + 2.0 * lt - log_uv)  # log(1 + 9 t^2/(u v))
    l2 = log1p_exp(2.0 * _LN2 + 2.0 * lt - log_uv)  # log(1 + 4 t^2/(u v))
    la3 = _LN3 + lt + log_umv - l3 - log_uv
    if la3 > -18.0:
        la2 = _LN2 + lt + log_umv - l2 - log_uv
        bracket = math.atan(math.exp(la2)) - math.atan(math.exp(la3))
        if bracket == 0.0:
            return None
        sign = 1 if bracket > 0 else -1
        lb = math.log(abs(bracket))
    else:
        num_hi = _LN6 + 2.0 * lt
        if num_hi == log_uv:
            return None
        if num_hi > log_uv:
            sign, lnum = 1, log_diff_exp(num_hi, log_uv)
        else:
            sign, lnum = -1, log_diff_exp(log_uv, num_hi)
        lb = log_umv + lt + lnum - (log_uv + l3) - (log_uv + l2)
    return sign, le - lt - _LNPI + lb


class _CountedTable(tuple):
    """A table of ``_log_t_eps`` that counts the rows read from it."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return tuple.__getitem__(self, k)


@pytest.mark.parametrize(
    "alpha, beta", [(1.2, 1.5), (1.1, 1.3), (1.3, 1.6), (1.2, 1.9), (1.05, 1.1)]
)
def test_growth_ratio_pruning_is_exact(alpha, beta, monkeypatch):
    """``growth_log_ratio`` stops once the terms left cannot change the sum;
    the result must equal, bit for bit, ``log_sum_signed`` of all n_terms
    reference terms.  Each term must lie under its bound U_k, and at n = 697
    fewer than the 700 table rows must be read, so the stopping rule is
    really exercised (at (1.2, 1.5) it evaluates 5 of 203 terms at
    n = 200).  The rows n = 140 and 182 hold the worst cancellation of the
    250-row scan at (1.2, 1.5): sum |t_k| / |sum t_k| is 1.7e4 at
    (140, 0.75) and 1.2e4 at (182, 1), both at n_terms = n + 3."""
    p = ConstructionParams(alpha, beta, power_m=1)
    log_t_eps = outer._log_t_eps
    read = []

    def counted(params, n):
        read.append(_CountedTable(log_t_eps(params, n)))
        return read[-1]

    monkeypatch.setattr(growth, "_log_t_eps", counted)
    for n in sorted(set(range(1, 61)) | set(range(17, 701, 17)) | {140, 182}):
        for nt in (8, n + 3):
            table = log_t_eps(p, nt)
            for i in range(9):
                s = i / 8
                log_uv, log_umv = growth._growth_logs(p, n, s)
                c = log_umv - math.log(math.pi) - math.log(2.0)
                every = []
                for lt, le, *_ in table[1 : nt + 1]:
                    t = _growth_term(lt, le, log_uv, log_umv)
                    if t is not None:
                        every.append(t)
                        bound = c + le + min(math.log(6.0) - log_uv, -2.0 * lt)
                        assert t[1] <= bound + 1e-9 * max(1.0, abs(bound))
                got = growth_log_ratio(p, n, s, n_terms=nt)
                assert got == log_sum_signed(every)
                if n == 697 and nt == n + 3:
                    assert read[-1].reads < nt  # the pruning fires


def _assert_kernel_matches_reference(p, n, s, nt):
    """growth_log_ratio(p, n, s, nt) is, bit for bit, the sum of all nt
    reference terms, none pruned."""
    got = growth_log_ratio(p, n, s, n_terms=nt)
    log_uv, log_umv = growth._growth_logs(p, n, s)
    terms = (_growth_term(r[0], r[1], log_uv, log_umv) for r in outer._log_t_eps(p, nt)[1 : nt + 1])
    want = log_sum_signed([t for t in terms if t is not None])
    assert (got.log_mag, got.phase) == (want.log_mag, want.phase)


@given(
    st.floats(min_value=1.05, max_value=1.3),
    st.floats(min_value=1.1, max_value=1.9),
    st.integers(min_value=1, max_value=900),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from([1, 2, 8, 0, 3, 10]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_growth_kernel_matches_reference(alpha, beta, n, s, nt_pick):
    """The term loop of ``growth_log_ratio``, with its settle test, gives
    the ratio of the written-out reference terms bit for bit, across the
    (alpha, beta) box of the parameter-family checks, past n = 623 (where
    s = 1 takes log delta_{n+1}), and at n_terms 1, 2, 8, n, n + 3 and
    n + 10 (drawn as 0, 3 and 10 for the last three)."""
    assume(alpha < beta)
    p = ConstructionParams(alpha, beta, power_m=1)
    nt = nt_pick if nt_pick in (1, 2, 8) else n + nt_pick
    _assert_kernel_matches_reference(p, n, s, nt)


def test_growth_ratio_retries_an_unsettled_sum(monkeypatch):
    """A settle test that says no lets the walk go on, and the next test
    comes only 37 nats further down; the ratio is still, bit for bit, the
    sum of all n_terms reference terms.  ``growth_log_ratio`` reads
    ``sum_settles`` from ``hblab.logscalar``, so it is patched there."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    settles = logscalar.sum_settles
    tops = []

    def no_at_first(terms, m, log_rest):
        tops.append(log_rest)
        return len(tops) > 1 and settles(terms, m, log_rest)

    monkeypatch.setattr(logscalar, "sum_settles", no_at_first)
    _assert_kernel_matches_reference(p, 200, 0.5, 203)
    assert len(tops) >= 2 and tops[1] < tops[0] - 37.0


def test_growth_kernel_exact_tie(monkeypatch):
    """Where 6 t_k^2 = u v exactly, interval k adds nothing: its
    small-angle numerator log_diff_exp(log 6 + 2 log t_k, log(u v)) is
    -inf, a term whose scaled double is 0.0, and the ratio is, bit for
    bit, ``log_sum_signed`` of the other reference terms (the reference
    drops the tied one).  The pair (log(u v), log(u - v)) is set directly,
    with interval k = 5 on the tie and inside the small-angle branch."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    nt, k = 10, 5
    lt = outer._log_t_eps(p, nt)[k][0]
    log_uv = _LN6 + 2.0 * lt
    log_umv = 0.5 * log_uv - 30.0
    assert _growth_term(lt, 0.0, log_uv, log_umv) is None
    monkeypatch.setattr(growth, "_growth_logs", lambda *_: (log_uv, log_umv))
    _assert_kernel_matches_reference(p, 7, 0.5, nt)


def test_growth_ratio_settle_bound_covers_every_term_left(monkeypatch):
    """The settle test's bound on the terms left, top = c + D_k + log k + 1,
    must cover k terms, not one.  A synthetic table (every row at one
    log t, so each term is a third of its bound c + log eps_k - 2 log t)
    holds a leading term A, a term B that brings the scaled sum to
    delta = 10 x below the midpoint 1 + 2^-53, and 20 terms of x = e**-45
    each.  Their 20 x cross the midpoint, so the scaled sum is 1 + 2^-52,
    where that of A and B alone is 1.0.  The bound here reads 163 x and
    does not settle; without its log k + 1 it would read 3 x, settle at
    once and return the sum of A and B."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    lt, log_uv, log_umv, k_rest = -30.0, -100.0, -60.0, 20
    # the term of a row is its log eps plus this shift
    shift = _growth_term(lt, 0.0, log_uv, log_umv)[1]
    le_a = 0.3 - shift  # the leading term's log near 0.3, where an ulp of 1 shows
    le_b = le_a + math.log(2.0**-53 - 10.0 * math.exp(-45.0))
    les = [le_a - 45.0] * k_rest + [le_b, le_a]
    table, d_max = [(math.nan, math.nan, -math.inf, math.nan)], -math.inf
    for le in les:
        d_max = max(d_max, le - 2.0 * lt)
        table.append((lt, le, d_max, le - lt - _LNPI))
    nt = len(les)
    monkeypatch.setattr(growth, "_log_t_eps", lambda params, n: tuple(table))
    monkeypatch.setattr(growth, "_growth_logs", lambda *_: (log_uv, log_umv))
    every = [_growth_term(lt, le, log_uv, log_umv) for le in les]
    assert all(t is not None and t[0] == 1 for t in every)
    want, m = log_sum_signed(every), every[-1][1]
    assert log_sum_signed(every[-2:]).log_mag == m  # A and B scale to 1.0
    assert want.log_mag == m + math.log(1.0 + 2.0**-52)  # all of them to 1 + 2^-52
    got = growth_log_ratio(p, 7, 0.5, n_terms=nt)
    assert (got.log_mag, got.phase) == (want.log_mag, want.phase)


def test_log_t_eps_keeps_one_table():
    """A sweep over 50 (alpha, beta) leaves one table, that of the last
    pair, and a pair met again gets the rows it had before."""
    import random

    rng = random.Random(7)
    first = ConstructionParams(1.2, 1.5, power_m=1)
    rows = outer._log_t_eps(first, 40)[:41]
    for _ in range(50):
        alpha = rng.uniform(1.05, 1.3)
        last = ConstructionParams(alpha, rng.uniform(alpha + 0.01, 1.9), power_m=1)
        growth_log_ratio(last, 30, 0.5, n_terms=40)
    assert list(outer._LOG_T_EPS) == [(last.alpha, last.beta)]
    assert len(outer._LOG_T_EPS[(last.alpha, last.beta)]) == 41
    assert outer._log_t_eps(first, 40)[:41] == rows
    assert list(outer._LOG_T_EPS) == [(first.alpha, first.beta)]


def _ulps(x: float, count: int) -> list:
    """x and its `count` float neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("edge", ["log1p_exp", "log_diff_exp", "small_angle"])
def test_growth_kernel_branch_edges(edge, monkeypatch):
    """At the kernel's three branch edges the loop and the reference agree
    bit for bit, on both sides of each edge: x2 = 2 log 2 + 2 log t_k -
    log(u v) at 36, where ``log1p_exp`` turns into the identity;
    log(u v) - (log 6 + 2 log t_k) at -40 and at 40 in the small-angle
    branch, where -expm1 inside ``log_diff_exp`` rounds to 1.0; and la3 at
    -18 (itself included), where the atan bracket gives way to the
    small-angle form.
    The pair (log(u v), log(u - v)) is set directly, with interval k = 5
    on the edge."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    nt, k = 10, 5
    lt = outer._log_t_eps(p, nt)[k][0]
    n6 = _LN6 + 2.0 * lt

    def la3(log_uv, log_umv):
        return _LN3 + lt + log_umv - log1p_exp(2.0 * _LN3 + 2.0 * lt - log_uv) - log_uv

    def side(log_uv, log_umv):
        if edge == "log1p_exp":
            return 2.0 * _LN2 + 2.0 * lt - log_uv > 36.0
        if edge == "log_diff_exp":
            return abs(log_uv - n6) > 40.0
        return la3(log_uv, log_umv) > -18.0

    if edge == "log1p_exp":
        pairs = [(uv, 0.5 * uv - 5.0) for uv in _ulps(2.0 * _LN2 + 2.0 * lt - 36.0, 4)]
    elif edge == "log_diff_exp":
        pairs = [(uv, 0.5 * uv - 5.0) for d in (-40.0, 40.0) for uv in _ulps(n6 + d, 4)]
    else:
        uv = 2.0 * lt - 10.0
        umv = -18.0 - _LN3 - lt + log1p_exp(2.0 * _LN3 + 2.0 * lt - uv) + uv
        pairs = [(uv, x) for x in _ulps(umv, 64)]
        assert any(la3(uv, x) == -18.0 for _, x in pairs)
    sides = set()
    for log_uv, log_umv in pairs:
        monkeypatch.setattr(growth, "_growth_logs", lambda *_, v=(log_uv, log_umv): v)
        _assert_kernel_matches_reference(p, 7, 0.5, nt)
        if edge == "log_diff_exp":
            assert la3(log_uv, log_umv) <= -18.0
        sides.add(side(log_uv, log_umv))
    assert sides == {False, True}


# -- bound verification and the power search -------------------------------


def test_verify_growth_bound_rows(seq):
    records = verify_growth_bound(2, 9, seq)
    assert len(records) == 9
    for rec in records:
        assert rec.n == 2
        assert rec.v <= rec.u * (1 + 1e-12)
        assert rec.log_ratio < 0.0  # desk-scale regime: ratio negative
        assert not rec.passed


def test_verify_growth_bound_validation(seq):
    with pytest.raises(ValueError):
        verify_growth_bound(0, 9, seq)
    with pytest.raises(ValueError):
        verify_growth_bound(1, 1, seq)


@pytest.mark.parametrize("shift, raises", [(1e-14, False), (1e-9, True)])
def test_verify_growth_bound_order_slack_threshold(seq, monkeypatch, shift, raises):
    """v <= u <= t is checked within 1e-12 relative.  At s = 0, where
    u = t_n, log(1 - r) moved up by 1e-9 puts u past t_n by about 1e-9
    relative and raises; moved by 1e-14 it stays inside.  The radius is
    read from ``hblab.growth`` when it runs, so it is patched there."""
    exact = growth._log_radius_complement
    monkeypatch.setattr(
        growth,
        "_log_radius_complement",
        lambda params, n, s: exact(params, n, s) + (shift if s == 0.0 else 0.0),
    )
    if raises:
        with pytest.raises(AssertionError, match="v <= u <= t violated at n=2, s=0.0"):
            verify_growth_bound(2, 9, seq)
    else:
        assert len(verify_growth_bound(2, 9, seq)) == 9


def test_verify_growth_bound_u_minus_v_floor(seq):
    """u - v >= (w_1 / 2) delta_{n+1} is checked at every sample with
    s < 1.  At n = 2 it holds with a factor 17.4 to spare at s = 0, so a
    w_1 raised twentyfold puts the floor above u - v there, and the check
    raises."""
    raised = seq._replace(w=(seq.w[0], 20.0 * seq.w[1]) + seq.w[2:])
    with pytest.raises(AssertionError, match="u - v lower bound violated at n=2, s=0.0"):
        verify_growth_bound(2, 9, raised)


def test_growth_ratio_and_scan_validation(params):
    """Inputs without an interval, a term or a grid raise ValueError; the
    power search's one-sample grid is caught by its sampler's own check,
    not by the empty ``min`` that would follow."""
    for n, nt in ((0, 8), (-2, 8), (1, 0), (1, -1)):
        with pytest.raises(ValueError):
            growth_log_ratio(params, n, 0.5, n_terms=nt)
    for samples in (1, 0):
        with pytest.raises(ValueError):
            growth_bound_scan(params, 1, 2, samples=samples)
    with pytest.raises(ValueError):
        growth_bound_scan(params, 0, 2)
    with pytest.raises(ValueError, match="need at least two radius samples, got 1"):
        choose_power_m(params, r_samples=1)


def test_choose_power_m_reports_all_intervals(params):
    """No positive power works at these exponents; the error must name every
    checked interval and carry the measured table."""
    with pytest.raises(GrowthBoundError) as exc:
        choose_power_m(params)
    msg = str(exc.value)
    for n in range(1, params.n_check + 1):
        assert f"[w_{n}, w_{n + 1}]" in msg
    assert len(exc.value.table) == params.n_check
    for n, ratio, lb in exc.value.table:
        assert ratio.sign() == -1
        assert lb == pytest.approx(float(n) ** 1.5 - float(n) ** 1.2)


def _bounds(params):
    """log bound n**beta - n**alpha of intervals 1..n_check, as
    ``choose_power_m`` forms it."""
    return [
        float(n) ** params.beta - float(n) ** params.alpha for n in range(1, params.n_check + 1)
    ]


def _patch_worst_ratios(monkeypatch, table):
    """Make the least sampled log ratio of interval n the positive
    ``table[n - 1]``, on the closed interval and its interior alike."""
    monkeypatch.setattr(
        growth, "_worst_ratios", lambda params, n, samples: (LogScalar(table[n - 1]),) * 2
    )


@pytest.mark.parametrize("n_check", [5, 70])
def test_choose_power_m_is_minimal(n_check, monkeypatch):
    """On positive ratio tables, the power is the least m with
    log(2m) + log ratio >= bound on every interval.  The last interval
    needs m near each target, its log ratio stepped by up to four ulps
    either way.  At n_check 5 some of these tables leave the closed form
    short of m and take the linear search; at n_check 70, whose bound
    near 422 rounds ``bound - log ratio`` by more than the closed form's
    1e-15 slack, one overshoots and takes the step back."""
    params = ConstructionParams(1.2, 1.5, n_terms=n_check + 1, n_check=n_check)
    bounds = _bounds(params)
    for target in (2, 3, 7, 1000, 999_983):
        for steps in range(-4, 5):
            last = bounds[-1] - math.log(2.0 * target)
            for _ in range(abs(steps)):
                last = math.nextafter(last, math.copysign(math.inf, steps))
            table = [lb + 10.0 for lb in bounds[:-1]] + [last]
            _patch_worst_ratios(monkeypatch, table)

            def works(m):
                return all(math.log(2.0 * m) + lr >= lb for lr, lb in zip(table, bounds))

            m = choose_power_m(params)
            assert works(m) and (m == 1 or not works(m - 1)), (target, steps, m)


def test_choose_power_m_edges(params, monkeypatch):
    """A table that every ratio clears at m = 1 gives 1; one whose last
    interval needs m = 2 * 10**6, past the largest power tried, raises
    GrowthBoundError carrying the table."""
    bounds = _bounds(params)
    _patch_worst_ratios(monkeypatch, [lb + 1.0 for lb in bounds])
    assert choose_power_m(params) == 1
    table = [lb + 1.0 for lb in bounds[:-1]] + [bounds[-1] - math.log(4e6)]
    _patch_worst_ratios(monkeypatch, table)
    with pytest.raises(GrowthBoundError, match="no power m <= 1000000") as exc:
        choose_power_m(params)
    assert exc.value.table == [
        (n, LogScalar(lr), lb) for n, (lr, lb) in enumerate(zip(table, bounds), start=1)
    ]


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


def test_growth_bound_scan_matches_golden():
    """The 250-row scan of the benchmark repeats to the last bit:
    ``tests/data/growth_scan_golden.json`` holds the repr of every field,
    as written by ``tests/data/make_growth_scan_golden.py``."""
    spec = importlib.util.spec_from_file_location(
        "make_growth_scan_golden", DATA / "make_growth_scan_golden.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expect = json.loads((DATA / "growth_scan_golden.json").read_text())
    assert script.golden() == expect


def test_growth_bound_scan_past_double_ratio():
    """From n = 623 on the ratio delta_{n+1}/delta_n is at most 2^-54, so at the
    right endpoint r = w_{n+1} the log1p argument of log(1 - r) rounds to
    -1; the scan takes log(1 - w_{n+1}) = -(n+1)**beta there and stays
    finite."""
    p = ConstructionParams(1.2, 1.5, power_m=1)
    row = growth_bound_scan(p, 700, 700)[0]
    for ratio in (row.min_log_ratio, row.min_log_ratio_interior):
        assert ratio.sign() == 1
        assert math.isfinite(ratio.log_mag)
    assert row.interior_positive and row.passes_with_m == 1.0


# -- quadrature cross-check -------------------------------------------------


def test_poisson_quad_crosscheck(seq):
    worst = poisson_quad_crosscheck(seq, n_points=20, seed=7)
    assert worst <= 1e-8


@pytest.mark.parametrize("delta, raises", [(5e-9, False), (2e-8, True)])
def test_poisson_quad_crosscheck_tolerance_threshold(seq, monkeypatch, delta, raises):
    """The cross-check accepts a relative error up to 1e-8 and raises
    above it.  Unperturbed it reads 5.0e-16 at 50 points and seed 0, so a
    closed form scaled by 1 + delta reads about delta: 5e-9 passes and
    2e-8 raises."""
    exact = outer.log_Phi_halfplane
    monkeypatch.setattr(outer, "log_Phi_halfplane", lambda z, s: (1.0 + delta) * exact(z, s))
    if raises:
        with pytest.raises(AssertionError, match="quadrature cross-check failed"):
            poisson_quad_crosscheck(seq, 50, 0)
    else:
        assert poisson_quad_crosscheck(seq, 50, 0) == pytest.approx(delta, rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_quadrature_oracle_exact_endpoints(seq, seed):
    """The oracle integrates to the exact ends 2t - x0 and 3t - x0.

    Rounding either end to a float moves the integral by up to 2.6e-10
    relative at these points, since the kernel has width y0 >= t_N.  With
    the ends exact, the oracle agrees with a 200-bit arctangent sum to
    4.0e-16 at these seeds, and the closed form keeps its ends exact too
    (``test_closed_form_keeps_interval_ends``): the worst gap between the
    two is 6.4e-16 (seed 3).  The bound 1e-13 (about 450 ulps) sits 2500
    times below the rounded-end error.
    """
    assert poisson_quad_crosscheck(seq, 50, seed) <= 1e-13


def test_closed_form_keeps_interval_ends(seq):
    """Among 2000 points at seed 1 some lie within about y0 of an interval
    end, where log((3t - z)/(2t - z)) taken as log1p(t/(2t - z)) sits near
    log 0 and lost up to 8.2e-13 relative.  ``log_Phi_halfplane`` forms the
    log there from the quotient of two ends that are exact in floats
    (Sterbenz), and the closed form meets the oracle to 1.0e-15."""
    assert poisson_quad_crosscheck(seq, 2000, 1) <= 1e-14


def test_gauss_legendre_table_matches_its_script():
    """The oracle's rule is the text ``tests/data/make_gauss_legendre.py``
    writes: nodes and weights of P_30 from mpmath, each rounded once."""
    spec = importlib.util.spec_from_file_location(
        "make_gauss_legendre", DATA / "make_gauss_legendre.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.table_source() in Path(growth.__file__).read_text()
    assert growth._GAUSS_LEGENDRE == tuple(script.rule())


def test_gauss_legendre_integrates_monomials():
    """The 30-point rule integrates x^k over [-1, 1] for k <= 59 exactly,
    up to the rounding of its nodes and weights.  With each correctly
    rounded, a node error of 2^-53 relative moves x^k by k·2^-53; the
    weight, the power, the product, the sum and the check's own scaling
    add at most six more.  The worst even case is 1.4e-15 at k = 58;
    numpy's ``leggauss(30)`` weights, off by up to 3.0e-13, give 1.3e-13
    there and 4.9e-15 already at k = 2.  Odd powers cancel exactly, since
    the table is symmetric."""
    for k in range(60):
        got = math.fsum(w * x**k for x, w in growth._GAUSS_LEGENDRE)
        if k % 2:
            assert got == 0.0, k
        else:
            assert abs(got * (k + 1) / 2 - 1) <= (k + 6) * 2.0**-53, k


# Run in a fresh interpreter: import the package bare, then the CLI, and run
# one verb with the given arguments (none for the bare case); report, as
# JSON, the hblab submodules and the modules of EVERYWHERE that the bare
# import loaded, the verb's exit code, the modules it must not load that are
# loaded after it ran, and every module loaded since start-up whose file
# lies outside the standard library, mpmath and hblab.  verify-outer runs
# the quadrature oracle and norm-crosscheck makes its seeded draws.
_IMPORT_PROBE = """
import json, os, sys, sysconfig
argv, banned = json.loads(CASE)
before = set(sys.modules)
import hblab
bare = sorted(
    name for name in sys.modules
    if name.startswith("hblab.") or name in EVERYWHERE or name in banned
)
import hblab.cli
code = None
if argv:
    try:
        hblab.cli.main(argv)
    except SystemExit as e:
        code = e.code
loaded = [name for name in banned if name in sys.modules]
import mpmath
def under(dirs):
    return tuple(os.path.realpath(d) + os.sep for d in dirs)
paths = sysconfig.get_paths()
stdlib = under([paths["stdlib"], paths["platstdlib"]])
installed = under([paths["purelib"], paths["platlib"]])
deps = under([os.path.dirname(m.__file__) for m in (mpmath, hblab)])
def allowed(f):
    f = os.path.realpath(f)
    return f.startswith(deps) or (f.startswith(stdlib) and not f.startswith(installed))
stray = sorted(
    name
    for name, mod in sys.modules.items()
    if name not in before and getattr(mod, "__file__", None) and not allowed(mod.__file__)
)
print(json.dumps({"bare": bare, "code": code, "loaded": loaded, "stray": stray}))
"""

# never loaded by the bare import or any verb
_EVERYWHERE = (
    "dataclasses", "inspect", "hashlib", "_hashlib", "argparse", "gettext", "click", "mpmath"
)
_NO_SERIES = ("hblab.series", "hblab.taylor", "hblab.fixed")
_NO_TAYLOR = ("hblab.taylor", "hblab.fixed")
# (verb, config overrides, exit code, modules it must not load, modules it must load)
_VERB_IMPORTS = (
    ("construct", {}, 0,
     ("hblab.hb", "hblab.experiments", "hblab._pcg64", "hblab.growth", *_NO_SERIES), ()),
    ("verify-outer", {}, 4, ("hblab.hb", "hblab.experiments", *_NO_SERIES), ("hblab.growth",)),
    ("norm-crosscheck", {}, 0,
     ("hblab.experiments", "hblab.growth", "hblab.outer", "hblab.logscalar", *_NO_TAYLOR), ()),
    ("divergence", {}, 4, ("hblab.growth", "hblab.series", *_NO_TAYLOR), ()),
    ("sarason", {}, 0, ("hblab.growth",), ()),
    ("summability", {}, 0, ("hblab.growth",), ()),
    ("construct", {"power_m": "auto"}, 3,
     ("hblab.hb", "hblab.experiments", "hblab._pcg64", *_NO_SERIES), ("hblab.growth",)),
)


def test_verify_outer_imports_only_runtime_dependencies(run_fresh, tmp_path):
    """The CLI and every verb, the quadrature oracle and the seeded draws
    included, each in a fresh process, load nothing beyond the standard
    library, and never click, argparse (with its gettext) or mpmath, whose
    allowance below covers only this probe's own import of it.  A bare
    ``import hblab`` loads no submodule and none of these.  ``construct``
    and ``verify-outer`` load neither ``hb`` nor ``experiments``,
    ``construct`` not the seeded generator ``_pcg64`` either, and
    ``norm-crosscheck`` not ``experiments``.  ``construct`` and
    ``verify-outer`` load neither ``series``, the Taylor engine ``taylor``
    nor the integer kernels of ``fixed``, and ``norm-crosscheck`` and
    ``divergence`` neither ``taylor`` nor ``fixed``; ``sarason`` and
    ``summability`` carry their P-bit numbers in ``fixed``, never in
    mpmath.  Only ``verify-outer``, and ``construct`` with ``power_m``
    "auto" (which exits 3 at these exponents), load the growth checks of
    ``growth``; ``norm-crosscheck``, on the tame pair, loads neither
    ``outer`` nor ``logscalar``, and ``divergence``, on kernel
    combinations, no ``series``.  Neither the bare import nor any verb
    loads ``dataclasses``, ``inspect`` or ``hashlib`` (with OpenSSL's
    ``_hashlib``)."""

    def probe(argv, banned):
        case = json.dumps([argv, list(banned)])
        script = f"CASE = {case!r}\nEVERYWHERE = {_EVERYWHERE!r}\n" + _IMPORT_PROBE
        return run_fresh(script)

    bare = probe([], _EVERYWHERE)
    assert bare == {"bare": [], "code": None, "loaded": [], "stray": []}
    for verb, overrides, code, banned, needed in _VERB_IMPORTS:
        out = tmp_path / "auto" if overrides else tmp_path
        argv = [verb, "--out", str(out)]
        if overrides:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(overrides))
            argv += ["--config", str(config)]
        got = probe(argv, (*banned, *_EVERYWHERE, *needed))
        assert got["code"] == code, (verb, overrides, got)
        assert got["loaded"] == list(needed), (verb, overrides, got)
        assert got["stray"] == [], (verb, got)
