"""Tests for the experiment drivers: the divergent kernel combination, the
blow-up curve, the envelope, the coefficient-series checks, and summability.

The desk-scale parameter set (alpha=1.2, beta=1.5, power 1) does not satisfy
the sampled growth bound -- the bound holds only in the asymptotic regime --
so the divergence report is expected to carry passed=False while all of its
internal consistency checks (norm chain, positivity) hold.
"""

import math
import sys

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

import hblab.fixed as fixed
import hblab.experiments as experiments
from hblab.experiments import (
    PrecisionExhausted,
    _LN10,
    _divergence_report,
    _fhat_fixed,
    abel_fr_plus,
    build_divergent_combo,
    default_r_grid,
    divergence_curve,
    divergence_reports,
    f_hat_log,
    fr_plus_at_zero,
    growth_envelope,
    interval_radius,
    phi_hat_series,
    required_bits_for_degree,
    sarason_series_failure,
    summability_divergence,
)
from hblab.hb import (
    Radius,
    dilate,
    KernelCombo,
    KernelNode,
    as_radius,
    hb_norm_sq,
    kernel_combo_ccond_check,
)
from hblab.logscalar import LogScalar, log_sum_exp
from hblab.series import TaylorSeries
from hblab.outer import (
    half_plane_log_modulus_radial,
    log_delta,
    log_phi_radial,
    make_sequences,
    verify_growth_bound,
)
from hblab.pair import Pair

from oracles import f_plus_solve_mp, hb_norm_sq_mp, to_mpf


# -- the function f ---------------------------------------------------------


def test_combo_coefficients(params, pair, combo):
    assert len(combo.nodes) == params.n_terms
    for j, node in enumerate(combo.nodes, start=1):
        ld = log_delta(params, j)
        assert node.log_one_minus_w == ld
        expect = 0.5 * ld - 2.0 * math.log(j) - log_phi_radial(ld, params)
        assert node.log_c == pytest.approx(expect, rel=1e-13)


def test_combo_admissibility_certified(params, pair, combo):
    """Each certified term is (1 + phi)/(j^2 phi) in (1/j^2, 2/j^2]."""
    terms = kernel_combo_ccond_check(combo, pair)
    for j, term in enumerate(terms, start=1):
        lo = -2.0 * math.log(j)
        # 1/j^2 < term <= 2/j^2; the lower end is approached to within the
        # rounding of log phi(w_j) (magnitude ~1e5, so ulps ~1e-11) when
        # phi(w_j) is astronomically large
        assert lo - 1e-9 <= term <= math.log(2.0) + lo + 1e-9


@pytest.mark.parametrize("excess, raises", [(5e-10, False), (1e-6, True)])
def test_combo_admissibility_slack_threshold(params, pair, monkeypatch, excess, raises):
    """``build_divergent_combo`` accepts a log term up to 1e-9 above its
    limit log 2 - 2 log j and raises past it: every term set excess above
    the limit builds at 5e-10 and raises at 1e-6.  The terms are read
    from ``hblab.experiments`` when it runs, so they are patched there."""
    monkeypatch.setattr(
        experiments,
        "_ccond_log_terms",
        lambda combo, lphis: [
            math.log(2.0) - 2.0 * math.log(j) + excess for j in range(1, len(lphis) + 1)
        ],
    )
    if raises:
        with pytest.raises(ArithmeticError, match="admissibility term 1 exceeds"):
            build_divergent_combo(params, pair)
    else:
        assert len(build_divergent_combo(params, pair).nodes) == params.n_terms


def test_fr_plus_at_zero_oracle(params, pair, combo):
    """(f_r)+(0) = sum c_j phi(r w_j) against a direct float evaluation."""
    r = 0.9
    expect = 0.0
    for node in combo.nodes:
        w = 1.0 - math.exp(node.log_one_minus_w)
        rw = r * w
        lphi = log_phi_radial(math.log1p(-rw), params)
        expect += math.exp(node.log_c + lphi)
    got = fr_plus_at_zero(r, combo, pair)
    assert got.to_float() == pytest.approx(expect, rel=1e-11)


# -- radius grids -----------------------------------------------------------


def test_interval_radius_rejects_s_outside_unit_interval(params):
    """s outside [0, 1], NaN included, raises instead of clamping to an
    endpoint or returning a NaN radius."""
    for s in (-0.5, -1e-300, 1.0 + 2.0**-52, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="s must lie"):
            interval_radius(params, 2, s)


def test_interval_radius_endpoints(params):
    r0 = interval_radius(params, 2, 0.0)
    r1 = interval_radius(params, 2, 1.0)
    assert r0.log_one_minus == log_delta(params, 2)
    assert r1.log_one_minus == log_delta(params, 3)
    mid = interval_radius(params, 2, 0.5)
    d2, d3 = math.exp(log_delta(params, 2)), math.exp(log_delta(params, 3))
    assert math.exp(mid.log_one_minus) == pytest.approx((d2 + d3) / 2.0, rel=1e-13)


def test_default_r_grid(params):
    grid = default_r_grid(params)
    assert len(grid) == 3 * params.n_check + 16
    logs = [r.log_one_minus for r in grid]
    assert logs == sorted(logs, reverse=True)  # increasing radius
    assert min(logs) == log_delta(params, params.n_check + 1)


# -- the divergence curve and envelope -------------------------------------


@pytest.fixture(scope="module")
def curve(params, pair, combo):
    return divergence_curve(default_r_grid(params), pair=pair, f=combo)


def test_divergence_curve_columns(curve):
    assert curve.columns == (
        "r",
        "log10_frplus0",
        "log10_hbnorm",
        "n",
        "log10_bound",
        "pass",
    )
    assert len(curve.rows) == 31


def test_divergence_norm_chain(curve):
    """||f_r|| >= |(f_r)+(0)| on every row."""
    assert curve.metadata["norm_chain_ok"] is True
    for row in curve.rows:
        assert row[2] >= row[1] - 1e-12


@pytest.mark.parametrize("gap, chain_ok", [(1e-13, True), (1e-9, False)])
def test_divergence_norm_chain_slack_threshold(params, gap, chain_ok):
    """The norm chain ||f_r|| >= |(f_r)+(0)| holds within 1e-12 in log10:
    a row whose log10 norm lies 1e-13 below its log10 value keeps
    ``norm_chain_ok``, and one 1e-9 below clears it."""
    log10_val = 2.0
    row = (interval_radius(params, 1, 0.5), log10_val * _LN10, 2.0 * (log10_val - gap) * _LN10)
    rep = _divergence_report([row], params)
    assert rep.rows[0][2] == pytest.approx(log10_val - gap, abs=1e-14)
    assert rep.metadata["norm_chain_ok"] is chain_ok


def test_divergence_curve_evaluates_each_log_phi_once(params, pair, combo, curve, monkeypatch):
    """One log phi(r w_j) per node and radius serves both (f_r)+(0) and the
    Gram norm, and the rows are those of the two public routes."""
    calls = []
    log_phi = Pair.log_phi_radial_at

    def counted(self, ld):
        calls.append(ld)
        return log_phi(self, ld)

    monkeypatch.setattr(Pair, "log_phi_radial_at", counted)
    grid = default_r_grid(params)
    again = divergence_curve(grid, combo, pair)
    assert len(calls) == len(grid) * len(combo.nodes)
    monkeypatch.undo()
    assert again.rows == curve.rows
    for rad, row in zip(grid, curve.rows):
        assert row[1] == fr_plus_at_zero(rad, combo, pair).log_mag / math.log(10.0)
        assert row[2] == 0.5 * hb_norm_sq(dilate(combo, rad), pair) / math.log(10.0)


def test_divergence_verb_evaluates_each_radius_once(params, pair, combo, curve, monkeypatch):
    """The ``divergence`` verb's two reports come from one evaluation per
    radius: one log phi(r w_j) per node and radius of the curve's grid, and
    no ``hb_norm_sq`` call for the envelope, which takes the curve's norms
    at its 30 radii.  Each report is, byte for byte, the one its public
    function gives."""
    import hblab.experiments as ex

    calls = []
    log_phi = Pair.log_phi_radial_at

    def counted(self, ld):
        calls.append(ld)
        return log_phi(self, ld)

    def forbidden(*args):
        raise AssertionError("the envelope recomputed a norm")

    monkeypatch.setattr(Pair, "log_phi_radial_at", counted)
    monkeypatch.setattr(ex, "hb_norm_sq", forbidden)
    grid = default_r_grid(params)
    got_curve, got_env = divergence_reports(grid, combo, pair)
    assert len(calls) == len(grid) * len(combo.nodes)
    monkeypatch.undo()
    inner = [r for r in grid if r.log_one_minus < -1.0]
    assert len(inner) == 30
    envelope = growth_envelope(inner, combo, pair)
    assert got_curve.rows == curve.rows
    for got, want in ((got_curve, curve), (got_env, envelope)):
        assert (got.to_json(), got.to_csv()) == (want.to_json(), want.to_csv())


def test_divergence_rows_off_the_checked_intervals_pass(params, pair, combo):
    """Rows off the intervals n <= n_check carry n and a NaN bound and
    always pass: r = 0.5 lies below w_1 (n = 0), log(1 - r) =
    -(8^beta + 1/2) on the last interval, n = n_terms = 8, which has no
    bound, and -(9^beta + 1) beyond it (n = n_terms)."""
    grid = [
        Radius.from_float(0.5),
        Radius.from_log_one_minus(-(params.n_terms**params.beta + 0.5)),
        Radius.from_log_one_minus(-((params.n_terms + 1) ** params.beta + 1.0)),
    ]
    rep = divergence_curve(grid, combo, pair)
    assert [row[3] for row in rep.rows] == [0, params.n_terms, params.n_terms]
    for row in rep.rows:
        assert math.isnan(row[4]) and row[5] is True


def test_divergence_values_increase(curve):
    vals = [row[1] for row in curve.rows]
    assert vals == sorted(vals)


def test_divergence_honest_failure(curve, params):
    """The desk-scale bound clause fails on some checked intervals, and the
    report says so instead of passing vacuously."""
    checked = [row for row in curve.rows if 1 <= row[3] <= params.n_check]
    assert checked
    assert any(not row[5] for row in checked)
    assert curve.passed is False


def test_growth_envelope(params, pair, combo):
    """E(r) is finite on every row and the empirical constant is reported.

    At the desk-scale parameters ||f_r|| < 1 over the whole grid (the same
    regime in which the sampled growth bound fails), so log||f_r|| and hence
    min E are negative and the report honestly carries passed=False.
    """
    grid = [r for r in default_r_grid(params) if r.log_one_minus < -1.0]
    env = growth_envelope(grid, combo, pair)
    assert env.columns == ("r", "E_r", "trend")
    assert all(math.isfinite(row[1]) and math.isfinite(row[2]) for row in env.rows)
    c = float(env.metadata["empirical_c"])
    assert c == pytest.approx(min(row[1] for row in env.rows))
    assert c < 0.0
    assert env.passed is False


# -- coefficient machinery --------------------------------------------------


def test_f_hat_log_direct(combo):
    for j in (0, 1, 5):
        expect = sum(
            math.exp(n.log_c) * (1.0 - math.exp(n.log_one_minus_w)) ** j
            for n in combo.nodes
        )
        assert math.exp(f_hat_log(combo, j)) == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_positive_log_sums_build_no_log_scalar(params, pair, tame, combo, monkeypatch):
    """A positive log-domain sum builds no LogScalar, counted through the
    ``__post_init__`` of the class dict, where a tracer counts them: its
    result, and each of the N node values log phi(r w_j) of the constructed
    pair, is a float.  ``fr_plus_at_zero`` alone wraps its float in one
    LogScalar, on either pair."""
    post_init = LogScalar.__dict__["__post_init__"]
    built = []

    def counted(self):
        built.append(self.log_mag)
        post_init(self)

    monkeypatch.setattr(LogScalar, "__post_init__", counted)

    def constructions(fn, *args):
        built.clear()
        fn(*args)
        return len(built)

    r = interval_radius(params, 1, 0.5)
    combo_r = dilate(combo, r)
    assert constructions(half_plane_log_modulus_radial, -1.0, params) == 0
    assert constructions(f_hat_log, combo, 5) == 0
    assert constructions(fr_plus_at_zero, r, combo, tame) == 1
    assert constructions(hb_norm_sq, combo_r, tame) == 0
    assert constructions(fr_plus_at_zero, r, combo, pair) == 1
    assert constructions(hb_norm_sq, combo_r, pair) == 0
    assert constructions(kernel_combo_ccond_check, combo_r, pair) == 0
    assert constructions(make_sequences, params) == 0
    assert constructions(build_divergent_combo, params, pair) == 0


POSITIVE_LOGS = {
    "log_sum_exp": lambda p, pair, combo: log_sum_exp([0.5, -2.0]),
    "half_plane_log_modulus_radial": lambda p, pair, combo: half_plane_log_modulus_radial(
        -1.0, p
    ),
    "hb_norm_sq(KernelCombo)": lambda p, pair, combo: hb_norm_sq(combo, pair),
    "hb_norm_sq(TaylorSeries)": lambda p, pair, combo: hb_norm_sq(
        TaylorSeries((1.0, 0.5, 0.25)), pair
    ),
    "f_hat_log": lambda p, pair, combo: f_hat_log(combo, 3),
    "kernel_combo_ccond_check": lambda p, pair, combo: kernel_combo_ccond_check(combo, pair)[0],
    "KernelNode.log_c": lambda p, pair, combo: combo.nodes[0].log_c,
    "Sequences.log_rho": lambda p, pair, combo: pair.seq.log_rho[1],
    "Sequences.log_eps": lambda p, pair, combo: pair.seq.log_eps[1],
    "GrowthCheckRecord.log_bound": lambda p, pair, combo: verify_growth_bound(
        1, 2, pair.seq
    )[0].log_bound,
}


@pytest.mark.parametrize("name", sorted(POSITIVE_LOGS))
def test_positive_logs_are_floats(params, pair, combo, name):
    """Each positive quantity is carried as its float log."""
    value = POSITIVE_LOGS[name](params, pair, combo)
    assert type(value) is float and math.isfinite(value)


def fhat_oracle(combo, degree, bits, radius=None):
    """All-mpmath r^j fhat(j) = fsum_m c_m (r w_m)^j, j = 0..degree, at ``bits``,
    from the same float node data, each power taken afresh."""
    with mp.workprec(bits):
        r = 1 if radius is None else -mp.expm1(mp.mpf(as_radius(radius).log_one_minus))
        cs = [mp.exp(mp.mpf(nd.log_c)) for nd in combo.nodes]
        vs = [r * -mp.expm1(mp.mpf(nd.log_one_minus_w)) for nd in combo.nodes]
        return [mp.fsum(c * mp.power(v, j) for c, v in zip(cs, vs)) for j in range(degree + 1)]


REF_BITS = 448  # 384 + 64


@pytest.fixture(scope="module")
def fhat_ref(pair, combo):
    """``fhat_oracle`` to degree 1024 at REF_BITS, at r = 1 and at A7's w_1."""
    return {r: fhat_oracle(combo, 1024, REF_BITS, r) for r in (None, pair.seq.w[1])}


def fhat_bits(k: int, degree: int, bits: int) -> int:
    """The working bits W of ``_fhat_fixed`` on k nodes."""
    return bits + 1 + (k * (degree + 1) + 2 * degree + 1).bit_length()


def test_fhat_kernel_error_bound_is_its_count():
    """``error_bound`` is the count of the ``_fhat_fixed`` docstring, written
    out term by term in exact rationals on a three-node kernel: the
    largest over j of
        K (j + 1) / (F_j - K (j + 1))   (the floors, one unit each)
      + 2 degree (2^-W + 2^(1 - 2W))     (the multipliers V_m)
      + 8 (degree + 3) 2^-2W             (the mpmath node data),
    with W = bits + 1 + bitlen(K (degree + 1) + 2 degree + 1)."""
    from fractions import Fraction

    nodes = tuple(KernelNode(float(-k), k * math.log(0.5)) for k in (1, 2, 3))
    k, degree, bits = len(nodes), 8, 64
    totals, _, error_bound = _fhat_fixed(KernelCombo(nodes), degree, bits)
    w = fhat_bits(k, degree, bits)
    multipliers = 2 * degree * (Fraction(1, 2**w) + Fraction(2, 2 ** (2 * w)))
    data = Fraction(8 * (degree + 3), 2 ** (2 * w))
    count = max(
        Fraction(k * (j + 1), total - k * (j + 1)) + multipliers + data
        for j, total in enumerate(totals)
    )
    assert error_bound == pytest.approx(float(count), rel=1e-12, abs=0.0)
    assert error_bound <= 2.0**-bits


@pytest.mark.parametrize("bits", [53, 200])
def test_fhat_kernel_bound_is_its_last(pair, combo, bits):
    """The kernel tests and returns its relative bound once, at j = degree:
    the returned ``error_bound`` equals, bit for bit, the largest over j of
    the per-coefficient float bound K (j + 1) / (F_j - K (j + 1)) + fixed,
    which never decreases in j, at r = 1 and at A7's w_1 radius."""
    k, degree = len(combo.nodes), 256
    W = fhat_bits(k, degree, bits)
    for radius in (None, pair.seq.w[1]):
        totals, _, error_bound = _fhat_fixed(combo, degree, bits, radius)
        eta = 2.0**-W + 2.0 ** (1 - 2 * W)
        fixed = 2 * degree * eta + (degree + 3) * 2.0 ** (3 - 2 * W)
        rels = [k * (j + 1) / (t - k * (j + 1)) + fixed for j, t in enumerate(totals)]
        assert rels == sorted(rels)
        assert error_bound == max(rels)


@pytest.mark.parametrize("bits", [128, 384])
def test_fhat_kernel_matches_mp_oracle(pair, combo, fhat_ref, bits):
    """Every coefficient of the integer kernel, at r = 1 and at A7's w_1
    radius, is within its counted bound of the all-mpmath sum at 448 >=
    bits + 64 bits, and that bound meets 2^-bits."""
    for radius, ref in fhat_ref.items():
        got, exp, error_bound = _fhat_fixed(combo, 1024, bits, radius)
        assert 0.0 < error_bound <= 2.0**-bits
        with mp.workprec(REF_BITS):
            tol = mp.mpf(error_bound) + mp.mpf(2) ** -(bits + 60)
            for j, (m, y) in enumerate(zip(got, ref)):
                assert abs(mp.ldexp(m, exp) - y) <= tol * y, j


def test_fhat_kernel_guard(combo):
    """The kernel carries every coefficient to 2^-bits with its derived
    headroom, and carries a node whose log2-term of about -1.4e17 floats
    hold only to 2^4 bits: its scale is placed in mpmath, so its
    coefficients meet their counted bound against the all-mpmath sum."""
    for bits in (53, 64, 200):
        got, _, error_bound = _fhat_fixed(combo, 512, bits)
        assert len(got) == 513
        assert error_bound <= 2.0**-bits
    far = KernelCombo((KernelNode(-1e17, -1.0),))
    got, exp, error_bound = _fhat_fixed(far, 8, 128)
    assert 0.0 < error_bound <= 2.0**-128
    ref = fhat_oracle(far, 8, 192)
    with mp.workprec(192):
        tol = mp.mpf(error_bound) + mp.mpf(2) ** -188
        for j, (m, y) in enumerate(zip(got, ref)):
            assert abs(mp.ldexp(m, exp) - y) <= tol * y, j


def test_fhat_kernel_oracle_check(combo, monkeypatch):
    """The first and last coefficients are checked against the log-domain
    ``f_hat_log``: an oracle off by 1e-6 in log, beyond its tolerance of
    about 5.2e-10 here (set by node 8's |log c| of about 1.47e5), raises."""
    assert len(_fhat_fixed(combo, 64, 128)[0]) == 65
    true_log = experiments.f_hat_log
    monkeypatch.setattr(
        experiments,
        "f_hat_log",
        lambda f, j: true_log(f, j) + 1e-6,
    )
    with pytest.raises(ArithmeticError, match="log-domain oracle"):
        _fhat_fixed(combo, 64, 128)


def test_required_bits_monotone(pair):
    assert required_bits_for_degree(pair, 512) < required_bits_for_degree(pair, 4096)


def test_phi_hat_series_precision_guard(pair):
    with pytest.raises(PrecisionExhausted):
        phi_hat_series(pair, 3072, precision_bits=64)


def test_phi_hat_series_two_precisions_agree(pair):
    """Results at 150 and 300 bits agree to 140 bits, relative."""
    from mpmath import mp

    a = phi_hat_series(pair, 24, precision_bits=150)
    b = phi_hat_series(pair, 24, precision_bits=300)
    with mp.workprec(300):
        for x, y in zip(a.coeffs, b.coeffs):
            x, y = to_mpf(x), to_mpf(y)
            assert abs(x - y) <= mp.mpf(2) ** -140 * abs(y)


def test_phi_hat_matches_phi_value(pair, params):
    """Summing the coefficient series at x reproduces exp(log phi(x))."""
    ph = phi_hat_series(pair, 220, precision_bits=200)
    x = 0.5
    val = sum(float(c) * x**j for j, c in enumerate(ph.coeffs))
    assert math.log(val) == pytest.approx(
        log_phi_radial(math.log(0.5), params), abs=1e-8
    )


def test_abel_vs_gram(pair, combo):
    """The extended-precision coefficient series equals the log-domain Gram
    value of (f_r)+(0)."""
    from mpmath import mp

    ph = phi_hat_series(pair, 512, precision_bits=384)
    for r in (pair.seq.w[1], interval_radius(pair.params, 1, 0.5)):
        gram = fr_plus_at_zero(r, combo, pair)
        abel = abel_fr_plus(r, combo, pair, precision_bits=384, phi_hat=ph)
        assert float(mp.log(abel)) == pytest.approx(gram.log_mag, abs=1e-9)


def test_abel_tail_guard(pair, combo):
    """Truncating far too early must raise instead of returning garbage."""
    ph = phi_hat_series(pair, 8, precision_bits=150)
    with pytest.raises(PrecisionExhausted):
        abel_fr_plus(
            interval_radius(pair.params, 3, 0.5),
            combo,
            pair,
            precision_bits=150,
            phi_hat=ph,
        )


# -- series failure and summability ----------------------------------------


def test_sarason_series_failure(pair, combo):
    rep = sarason_series_failure(64, combo, pair, precision_bits=200)
    assert rep.columns == ("J", "log10_SJ")
    assert [row[0] for row in rep.rows] == [1, 2, 4, 8, 16, 32, 64]
    vals = [row[1] for row in rep.rows]
    assert all(math.isfinite(v) for v in vals)
    assert vals == sorted(vals)  # positive terms: monotone partial sums
    assert float(rep.metadata["ratio_full_to_half"]) > 1.0
    assert 0.0 < rep.metadata["series_error_bound"] <= 2.0**-200
    assert rep.passed is True


def test_sarason_series_failure_flags_a_non_positive_sum(pair, combo, monkeypatch):
    """A partial sum at or below zero has no log10: its row is NaN and the
    report fails, though the last sum still exceeds the half-way one.  The
    set-up is patched so that phi-hat's first mantissa pulls every partial
    sum below zero and leaves their increments as they were."""
    setup = experiments._pbit_setup

    def shifted(*args):
        fhat, exp, phis, phi_exp, meta = setup(*args)
        assert fhat[0] > 0
        total = sum(abs(x * y) for x, y in zip(fhat, phis))
        return fhat, exp, [phis[0] - total // fhat[0] - 1, *phis[1:]], phi_exp, meta

    monkeypatch.setattr(experiments, "_pbit_setup", shifted)
    rep = sarason_series_failure(64, combo, pair, precision_bits=200)
    assert [row[0] for row in rep.rows] == [1, 2, 4, 8, 16, 32, 64]
    assert all(math.isnan(row[1]) for row in rep.rows)
    assert float(rep.metadata["ratio_full_to_half"]) < 1.0  # S_64 > S_32, both negative
    assert rep.passed is False


def test_summability_divergence(pair, combo):
    rep = summability_divergence([0, 2, 8, 16, 24], combo, pair, precision_bits=200)
    assert rep.columns == ("n", "log10_sn_norm", "log10_sigman_norm")
    assert rep.metadata["convexity_ok"] is True
    assert 0.0 < rep.metadata["series_error_bound"] <= 2.0**-200
    rows = rep.rows
    assert rows[0][1] == pytest.approx(rows[0][2])  # sigma_0 == s_0
    # running growth from n = 8 on
    assert rows[-1][1] > rows[2][1]
    assert rows[-1][2] > rows[2][2]
    assert rep.passed is True


@pytest.mark.parametrize("excess, convex_ok", [(5e-10, True), (2e-9, False)])
def test_summability_convexity_slack_threshold(pair, combo, monkeypatch, excess, convex_ok):
    """The convexity check ||sigma_n|| <= max_{k<=n} ||s_k|| holds within
    1e-9 in log10: a sigma_2 norm set 5e-10 above the best s_k so far
    keeps ``convexity_ok`` and the verdict, and one 2e-9 above clears both.
    Each row takes the log10 of s_n and then of sigma_n through
    ``fixed.log10``, so the fourth call is sigma_2's."""
    log10 = fixed.log10
    s_logs, calls = [], []

    def shifted(x, bits):
        calls.append(x)
        value = log10(x, bits)
        if len(calls) % 2:  # s_n
            s_logs.append(0.5 * value)
        elif len(calls) == 4:  # sigma_2
            return 2.0 * (max(s_logs) + excess)
        return value

    monkeypatch.setattr(fixed, "log10", shifted)
    rep = summability_divergence([0, 2, 8, 16], combo, pair, precision_bits=200)
    assert len(calls) == 2 * len(rep.rows)
    assert rep.rows[1][2] == max(row[1] for row in rep.rows[:2]) + excess
    assert rep.metadata["convexity_ok"] is convex_ok
    assert rep.passed is convex_ok


def test_summability_matches_solve_oracle(pair, combo, monkeypatch):
    """The rows are exact integer sums: ``summability`` never enters
    ``sarason_f_plus``, ``TaylorSeries.l2_norm_sq``, the triangular solve
    or ``Pair.with_series``.  Its oracle is the mpf route, written out
    here at P = 200 bits: s_n is the fhat of ``_fhat_fixed`` rounded to
    P bits and cut at n, sigma_n the mean of s_0..s_n, f+ is the product
    ``oracles.toeplitz_mp`` with the phi-hat of ``phi_hat_series``, and
    ``oracles.hb_norm_sq_mp`` sums the squares in mpmath; the solve is
    ``oracles.f_plus_solve_mp``.

    With u = 2^-P and every term positive, a sigma_n coefficient of the
    oracle is within 2u (the exact column sum and the division, each
    rounded once), so one square is within 5u and ||p||^2, a sum of at
    most m = 25 of them, within (m + 4) u; an f+ coefficient is within 3u
    (one more rounding) and ||f+||^2 within (m + 6) u.  The report's norm
    is rounded once from the exact sum: (m + 8) u in all, and one more u
    holds the second-order terms.  The rows are the logs of the norms
    bit for bit.

    The solve on the 200-bit series of a and b is the oracle of the
    product route.  For z^24 its output reversed is phi-hat itself,
    within 1e-15 relative of ``phi_hat_series`` (measured 1.12e-16), and
    each product norm is within 1e-15 relative of the solve norm
    (measured 7.6e-17).  The slack is that of the cell data, where
    b/a = phi holds only to 2.4e-16."""

    def forbidden(*args, **kwargs):
        raise AssertionError("summability left the exact integer route")

    names = (
        "f_plus_solve",
        "sarason_f_plus",
        "toeplitz_coanalytic_apply",
        "triangular_solve_upper_toeplitz",
    )
    for name, module in list(sys.modules.items()):
        if name == "hblab" or name.startswith("hblab."):
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(Pair, "with_series", forbidden)
    monkeypatch.setattr(TaylorSeries, "l2_norm_sq", forbidden)
    norms = []
    log10 = fixed.log10

    def spy(x, bits):
        norms.append(x)
        return log10(x, bits)

    monkeypatch.setattr(fixed, "log10", spy)
    n_list = [0, 2, 8, 16, 24]
    bits, deg = 200, n_list[-1]
    rep = summability_divergence(n_list, combo, pair, precision_bits=bits)
    monkeypatch.undo()
    assert len(norms) == 2 * len(n_list)

    phi_hat = phi_hat_series(pair, deg, bits)
    mp_pair = pair.with_series(deg, bits)
    with mp.workprec(bits):
        monomial = TaylorSeries((mp.mpf(0),) * deg + (mp.mpf(1),), bits)
        solved_phi = f_plus_solve_mp(monomial, mp_pair).coeffs[::-1]
        gap = max(abs(x - y) / abs(y) for x, y in zip(solved_phi, map(to_mpf, phi_hat.coeffs)))
        assert gap <= 1e-15
        fs, exp, _ = _fhat_fixed(combo, deg, bits)
        fhat = tuple(mp.make_mpf(from_man_exp(m, exp, bits, round_nearest)) for m in fs)
        partial = [TaylorSeries(fhat[: k + 1] + (0,) * (deg - k), bits) for k in range(deg + 1)]
        tol = (deg + 10) * mp.mpf(2) ** -bits
        got = iter(norms)
        for (n, ls, lsig) in rep.rows:
            columns = zip(*(s.coeffs for s in partial[: n + 1]))
            mean = TaylorSeries(tuple(mp.fsum(col) / (n + 1) for col in columns), bits)
            for poly, logged in ((partial[n], ls), (mean, lsig)):
                product = hb_norm_sq_mp(poly, phi_hat)
                assert abs(to_mpf(next(got)) - product) <= tol * product
                assert logged == 0.5 * float(mp.log10(product))
                solved = poly.l2_norm_sq() + f_plus_solve_mp(poly, mp_pair).l2_norm_sq()
                assert abs(product - solved) <= 1e-15 * solved


def test_mp_reports_meet_their_precision(pair, combo, fhat_ref, monkeypatch):
    """``sarason`` (j_max 512), ``summability`` (the CLI orders) and A7's
    Abel value at w_1 (degree 1024), run at P = 384 bits, agree in mpmath
    with the same quantities at P + 64 bits built from the all-mpmath fhat
    (``fhat_oracle``) and exact Cesaro weights.  Comparing two library runs
    would not do: an error common to both precisions, as a float fhat is,
    cancels between them.

    The bounds, with u = 2^-P and every sum over positive terms (asserted):
    fhat is within u (the kernel's counted bound), a phi-hat of
    ``phi_hat_series`` within u before and u from its rounding, each
    product and sum of fhat phi-hat is exact and rounded once: S_J and the
    Abel value are within 4u, so slack = 3 bits.  In ``summability`` a
    coefficient of s_n or sigma_n is within 2u (kernel, rounding; the
    Fejer weights are exact integers), so ||p||^2, an exact sum of their
    squares, is within 4u.  The phi-hat of ``phi_hat_series`` is within
    e_phi + u, e_phi its counted bound (asserted at most u); each f+
    coefficient sums p phi-hat exactly, within 3u + e_phi, so ||f+||^2 is
    within 6u + 2 e_phi, and the one rounding of the exact total adds u:
    7u + 2 e_phi.  One more u holds the second-order terms and the P + 64
    side, which adds below 2^-50 u: tol = 8u + 2 e_phi.
    """
    bits, extra = 384, REF_BITS
    orders = [0, 1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64]
    seen = []
    log10 = fixed.log10

    def spy(x, bits):
        seen.append(x)
        return log10(x, bits)

    monkeypatch.setattr(fixed, "log10", spy)
    sarason_series_failure(512, combo, pair, precision_bits=bits)
    sums, seen[:] = list(seen), []
    summability_divergence(orders, combo, pair, precision_bits=bits)
    norms = list(seen)
    monkeypatch.undo()
    w1 = pair.seq.w[1]
    phi_hat = phi_hat_series(pair, 1024, bits)
    abel = abel_fr_plus(w1, combo, pair, precision_bits=bits, phi_hat=phi_hat)

    def agree(got, ref, slack):
        with mp.workprec(extra):
            assert abs(to_mpf(got) - ref) <= mp.mpf(2) ** (slack - bits) * abs(ref)

    # sarason: S_J at J = 1, 2, 4, ..., 512
    phi_ref = phi_hat_series(pair, 512, extra).coeffs
    f_ref = fhat_ref[None]
    with mp.workprec(extra):
        assert min(phi_ref) > 0
        ref_sums = [
            mp.fsum(x * y for x, y in zip(f_ref[: j + 1], phi_ref))
            for j in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        ]
    assert len(sums) == len(ref_sums)
    for got, ref in zip(sums, ref_sums):
        agree(got, ref, 3)

    # Abel at w_1, degree 1024
    phi_ref = phi_hat_series(pair, 1024, extra).coeffs
    with mp.workprec(extra):
        ref = mp.fsum(x * y for x, y in zip(fhat_ref[w1], phi_ref))
    agree(abel, ref, 3)

    # summability: ||s_n||^2 and ||sigma_n||^2 for each order
    deg = orders[-1]
    e_phi = phi_hat_series(pair, deg, bits).error_bound
    phi_ref = phi_hat_series(pair, deg, extra)
    f_ref = fhat_ref[None][: deg + 1]
    assert e_phi <= 2.0**-bits
    with mp.workprec(extra):
        assert min(phi_ref.coeffs) > 0 and min(f_ref) > 0
        tol = 8 * mp.mpf(2) ** -bits + 2 * e_phi
        ref_norms = []
        for n in orders:
            for weights in ([1] * (n + 1), [mp.mpf(n + 1 - j) / (n + 1) for j in range(n + 1)]):
                coeffs = tuple(c * w for c, w in zip(f_ref, weights)) + (0,) * (deg - n)
                p = TaylorSeries(coeffs, extra)
                ref_norms.append(hb_norm_sq_mp(p, phi_ref))
        assert len(norms) == len(ref_norms)
        for got, ref in zip(norms, ref_norms):
            assert abs(to_mpf(got) - ref) <= tol * ref


def test_summability_precision_guard(pair, combo):
    with pytest.raises(PrecisionExhausted):
        summability_divergence([0, 512], combo, pair, precision_bits=64)
