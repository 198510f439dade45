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

from hblab import outer
from hblab.logscalar import log1p_exp, log_diff_exp, log_sum_signed
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
    """``growth_log_ratio`` skips the terms that cannot reach the sum; the
    result must equal, bit for bit, ``log_sum_signed`` of all n_terms
    reference terms.  Each term must lie under its bound U_k, and at n = 697
    fewer than the 700 table rows must be read, so the pruning is really
    exercised (at (1.2, 1.5) it keeps 23 of 203 terms at n = 200)."""
    p = ConstructionParams(alpha, beta, power_m=1)
    log_t_eps = outer._log_t_eps
    read = []

    def counted(params, n):
        read.append(_CountedTable(log_t_eps(params, n)))
        return read[-1]

    monkeypatch.setattr(outer, "_log_t_eps", counted)
    for n in sorted(set(range(1, 61)) | set(range(17, 701, 17))):
        for nt in (8, n + 3):
            table = log_t_eps(p, nt)
            for i in range(9):
                s = i / 8
                log_uv, log_umv = outer._growth_logs(p, n, s)
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
    log_uv, log_umv = outer._growth_logs(p, n, s)
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
    """The term loop of ``growth_log_ratio``, with its per-k sums read from
    the table and its skipped ``log1p_exp``/``log_diff_exp`` calls, gives
    the ratio of the written-out reference terms bit for bit, across the
    (alpha, beta) box of the parameter-family checks, past n = 623 (where
    s = 1 takes log delta_{n+1}), and at n_terms 1, 2, 8, n, n + 3 and
    n + 10 (drawn as 0, 3 and 10 for the last three)."""
    assume(alpha < beta)
    p = ConstructionParams(alpha, beta, power_m=1)
    nt = nt_pick if nt_pick in (1, 2, 8) else n + nt_pick
    _assert_kernel_matches_reference(p, n, s, nt)


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
    branch, where ``log_diff_exp`` is skipped; and la3 at -18 (itself
    included), where the atan bracket gives way to the small-angle form.
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
        monkeypatch.setattr(outer, "_growth_logs", lambda *_, v=(log_uv, log_umv): v)
        _assert_kernel_matches_reference(p, 7, 0.5, nt)
        if edge == "log_diff_exp":
            assert la3(log_uv, log_umv) <= -18.0
        sides.add(side(log_uv, log_umv))
    assert sides == {False, True}


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


def test_growth_ratio_and_scan_validation(params):
    """Inputs without an interval, a term or a grid raise ValueError."""
    for n, nt in ((0, 8), (-2, 8), (1, 0), (1, -1)):
        with pytest.raises(ValueError):
            growth_log_ratio(params, n, 0.5, n_terms=nt)
    for kwargs in ({"samples": 1}, {"samples": 0}, {"tail_terms": -1}):
        with pytest.raises(ValueError):
            growth_bound_scan(params, 1, 2, **kwargs)
    with pytest.raises(ValueError):
        growth_bound_scan(params, 0, 2)


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
    assert script.table_source() in Path(outer.__file__).read_text()
    assert outer._GAUSS_LEGENDRE == tuple(script.rule())


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
        got = math.fsum(w * x**k for x, w in outer._GAUSS_LEGENDRE)
        if k % 2:
            assert got == 0.0, k
        else:
            assert abs(got * (k + 1) / 2 - 1) <= (k + 6) * 2.0**-53, k


# Run in a fresh interpreter: import the package bare, then the CLI, and run
# every verb once, the cheap ones first; report, as JSON, the submodules a
# bare import loaded, the modules each verb must not load that are loaded
# after it ran, whether click was ever loaded, and every module loaded since
# start-up whose file lies outside the standard library, mpmath and hblab.
# verify-outer runs the quadrature oracle and norm-crosscheck makes its
# seeded draws.
_IMPORT_PROBE = """
import json, os, sys, sysconfig, tempfile
before = set(sys.modules)
import hblab
everywhere = ("dataclasses", "inspect", "hashlib", "_hashlib")
bare = sorted(
    name for name in sys.modules if name.startswith("hblab.") or name in everywhere
)
import hblab.cli
no_series = ("hblab.series", "hblab.taylor", *everywhere)
verbs = (
    ("construct", ("hblab.hb", "hblab.experiments", "hblab._pcg64", "mpmath", *no_series)),
    ("verify-outer", ("hblab.hb", "hblab.experiments", "mpmath", *no_series)),
    ("norm-crosscheck", ("hblab.experiments", "mpmath", "hblab.taylor", *everywhere)),
    ("divergence", ("hblab.taylor", *everywhere)),
    ("sarason", everywhere),
    ("summability", everywhere),
)
loaded = {}
with tempfile.TemporaryDirectory() as out:
    for verb, banned in verbs:
        try:
            hblab.cli.main([verb, "--out", out])
        except SystemExit as e:
            assert e.code in (0, 4), (verb, e.code)  # verify-outer, divergence: 4
        loaded[verb] = [name for name in banned if name in sys.modules]
click = "click" in sys.modules
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
print(json.dumps({"bare": bare, "loaded": loaded, "click": click, "stray": stray}))
"""


def test_verify_outer_imports_only_runtime_dependencies(run_fresh):
    """The CLI and every verb, the quadrature oracle and the seeded draws
    included, load nothing beyond the standard library and mpmath, and
    never click.  A bare ``import hblab`` loads no submodule; ``construct``
    and ``verify-outer`` load neither ``hb``, ``experiments`` nor mpmath,
    ``construct`` not the seeded generator ``_pcg64`` either, and
    ``norm-crosscheck`` loads neither ``experiments`` nor mpmath.
    ``construct`` and ``verify-outer`` load neither ``series`` nor the
    Taylor engine ``taylor``, and ``norm-crosscheck`` and ``divergence``
    not ``taylor``.  Neither the bare import nor any verb loads
    ``dataclasses``, ``inspect`` or ``hashlib`` (with OpenSSL's
    ``_hashlib``)."""
    probe = run_fresh(_IMPORT_PROBE)
    assert probe["bare"] == []
    assert probe["loaded"] == {verb: [] for verb in probe["loaded"]}
    assert len(probe["loaded"]) == 6
    assert probe["click"] is False
    assert probe["stray"] == []
