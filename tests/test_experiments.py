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

import hblab.experiments as experiments
from hblab.experiments import (
    PrecisionExhausted,
    _FhatFixed,
    abel_fr_plus,
    build_divergent_combo,
    default_r_grid,
    divergence_curve,
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
    f_plus_solve,
    hb_norm_sq,
    sarason_f_plus,
)
from hblab.logscalar import LogScalar
from hblab.series import TaylorSeries, fixed_to_mpf
from hblab.outer import half_plane_log_modulus_radial, log_delta, log_phi_radial
from hblab.pair import Pair


# -- the function f ---------------------------------------------------------


def test_combo_coefficients(params, pair, combo):
    assert len(combo.nodes) == params.n_terms
    for j, node in enumerate(combo.nodes, start=1):
        ld = log_delta(params, j)
        assert node.log_one_minus_w == ld
        expect = 0.5 * ld - 2.0 * math.log(j) - log_phi_radial(ld, params)
        assert node.log_c.log_mag == pytest.approx(expect, rel=1e-13)


def test_combo_admissibility_certified(params, pair, combo):
    """Each certified term is (1 + phi)/(j^2 phi) in (1/j^2, 2/j^2]."""
    from hblab.hb import kernel_combo_ccond_check

    terms = kernel_combo_ccond_check(combo, pair)
    for j, term in enumerate(terms, start=1):
        lo = -2.0 * math.log(j)
        # 1/j^2 < term <= 2/j^2; the lower end is approached to within the
        # rounding of log phi(w_j) (magnitude ~1e5, so ulps ~1e-11) when
        # phi(w_j) is astronomically large
        assert lo - 1e-9 <= term.log_mag <= math.log(2.0) + lo + 1e-9


def test_fr_plus_at_zero_oracle(params, pair, combo):
    """(f_r)+(0) = sum c_j phi(r w_j) against a direct float evaluation."""
    r = 0.9
    expect = 0.0
    for node in combo.nodes:
        w = 1.0 - math.exp(node.log_one_minus_w)
        rw = r * w
        lphi = log_phi_radial(math.log1p(-rw), params)
        expect += math.exp(node.log_c.log_mag + lphi)
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
        assert row[2] == 0.5 * hb_norm_sq(dilate(combo, rad), pair).log_mag / math.log(10.0)


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
            math.exp(n.log_c.log_mag) * (1.0 - math.exp(n.log_one_minus_w)) ** j
            for n in combo.nodes
        )
        assert f_hat_log(combo, j).to_float() == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_log_domain_sums_build_one_log_scalar(params, pair, tame, combo, monkeypatch):
    """Each log-domain sum builds one LogScalar, its result, counted through
    the ``__post_init__`` of the class dict, where a tracer counts them.  On
    the tame pair log phi is a closed-form float; on the constructed pair
    each of the N node values log phi(r w_j) is one
    ``half_plane_log_modulus_radial`` sum, one LogScalar more each."""
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

    n = len(combo.nodes)
    r = interval_radius(params, 1, 0.5)
    combo_r = dilate(combo, r)
    assert constructions(half_plane_log_modulus_radial, -1.0, params) == 1
    assert constructions(f_hat_log, combo, 5) == 1
    assert constructions(fr_plus_at_zero, r, combo, tame) == 1
    assert constructions(hb_norm_sq, combo_r, tame) == 1
    assert constructions(fr_plus_at_zero, r, combo, pair) == 1 + n
    assert constructions(hb_norm_sq, combo_r, pair) == 1 + n


def fhat_oracle(combo, degree, bits, radius=None):
    """All-mpmath r^j fhat(j) = fsum_m c_m (r w_m)^j, j = 0..degree, at ``bits``,
    from the same float node data, each power taken afresh."""
    with mp.workprec(bits):
        r = 1 if radius is None else -mp.expm1(mp.mpf(as_radius(radius).log_one_minus))
        cs = [mp.exp(mp.mpf(nd.log_c.log_mag)) for nd in combo.nodes]
        vs = [r * -mp.expm1(mp.mpf(nd.log_one_minus_w)) for nd in combo.nodes]
        return [mp.fsum(c * mp.power(v, j) for c, v in zip(cs, vs)) for j in range(degree + 1)]


REF_BITS = 448  # 384 + 64


@pytest.fixture(scope="module")
def fhat_ref(pair, combo):
    """``fhat_oracle`` to degree 1024 at REF_BITS, at r = 1 and at A7's w_1."""
    return {r: fhat_oracle(combo, 1024, REF_BITS, r) for r in (None, pair.seq.w[1])}


def test_fhat_kernel_error_bound_is_its_count():
    """``error_bound`` is the count of the ``_FhatFixed`` docstring, written
    out term by term in exact rationals on a three-node kernel: the
    largest over j of
        K (j + 1) / (F_j - K (j + 1))   (the floors, one unit each)
      + 2 degree (2^-W + 2^(1 - 2W))     (the multipliers V_m)
      + 8 (degree + 3) 2^-2W             (the mpmath node data),
    with W = bits + 1 + bitlen(K (degree + 1) + 2 degree + 1)."""
    from fractions import Fraction

    nodes = tuple(KernelNode(LogScalar.exp_of(-k), k * math.log(0.5)) for k in (1, 2, 3))
    k, degree, bits = len(nodes), 8, 64
    kernel = _FhatFixed(KernelCombo(nodes), degree, bits)
    totals = list(kernel)
    w = bits + 1 + (k * (degree + 1) + 2 * degree + 1).bit_length()
    assert kernel.W == w
    multipliers = 2 * degree * (Fraction(1, 2**w) + Fraction(2, 2 ** (2 * w)))
    data = Fraction(8 * (degree + 3), 2 ** (2 * w))
    count = max(
        Fraction(k * (j + 1), total - k * (j + 1)) + multipliers + data
        for j, total in enumerate(totals)
    )
    assert kernel.error_bound == pytest.approx(float(count), rel=1e-12, abs=0.0)
    assert kernel.error_bound <= 2.0**-bits


@pytest.mark.parametrize("bits", [53, 200])
def test_fhat_kernel_bound_is_its_last(pair, combo, bits):
    """The kernel tests and records its relative bound once, at j = degree:
    the recorded ``error_bound`` equals, bit for bit, the largest over j of
    the per-coefficient float bound K (j + 1) / (F_j - K (j + 1)) + fixed,
    which never decreases in j, at r = 1 and at A7's w_1 radius."""
    for radius in (None, pair.seq.w[1]):
        kernel = _FhatFixed(combo, 256, bits, radius)
        totals = list(kernel)
        k, degree = len(combo.nodes), 256
        eta = 2.0**-kernel.W + 2.0 ** (1 - kernel.wp)
        fixed = 2 * degree * eta + (degree + 3) * 2.0 ** (3 - kernel.wp)
        rels = [k * (j + 1) / (t - k * (j + 1)) + fixed for j, t in enumerate(totals)]
        assert rels == sorted(rels)
        assert kernel.error_bound == max(rels)


@pytest.mark.parametrize("bits", [128, 384])
def test_fhat_kernel_matches_mp_oracle(pair, combo, fhat_ref, bits):
    """Every coefficient of the integer kernel, at r = 1 and at A7's w_1
    radius, is within its counted bound of the all-mpmath sum at 448 >=
    bits + 64 bits, and that bound meets 2^-bits."""
    for radius, ref in fhat_ref.items():
        kernel = _FhatFixed(combo, 1024, bits, radius)
        got = list(kernel)
        assert 0.0 < kernel.error_bound <= 2.0**-bits
        with mp.workprec(REF_BITS):
            tol = mp.mpf(kernel.error_bound) + mp.mpf(2) ** -(bits + 60)
            for j, (m, y) in enumerate(zip(got, ref)):
                assert abs(mp.ldexp(m, kernel.exp) - y) <= tol * y, j


def test_fhat_kernel_guard(combo):
    """The kernel carries every coefficient to 2^-bits with its derived
    headroom, and carries a node whose log2-term of about -1.4e17 floats
    hold only to 2^4 bits: its scale is placed in mpmath, so its
    coefficients meet their counted bound against the all-mpmath sum."""
    for bits in (53, 64, 200):
        kernel = _FhatFixed(combo, 512, bits)
        assert len(list(kernel)) == 513
        assert kernel.error_bound <= 2.0**-bits
    far = KernelCombo((KernelNode(LogScalar.exp_of(-1e17), -1.0),))
    kernel = _FhatFixed(far, 8, 128)
    got = list(kernel)
    assert 0.0 < kernel.error_bound <= 2.0**-128
    ref = fhat_oracle(far, 8, 192)
    with mp.workprec(192):
        tol = mp.mpf(kernel.error_bound) + mp.mpf(2) ** -188
        for j, (m, y) in enumerate(zip(got, ref)):
            assert abs(mp.ldexp(m, kernel.exp) - y) <= tol * y, j


def test_fhat_kernel_oracle_check(combo, monkeypatch):
    """The first and last coefficients are checked against the log-domain
    ``f_hat_log``: an oracle off by 1e-6 in log, beyond its tolerance of
    about 5.2e-10 here (set by node 8's |log c| of about 1.47e5), raises."""
    assert len(list(_FhatFixed(combo, 64, 128))) == 65
    true_log = experiments.f_hat_log
    monkeypatch.setattr(
        experiments,
        "f_hat_log",
        lambda f, j: LogScalar.exp_of(true_log(f, j).log_mag + 1e-6),
    )
    with pytest.raises(ArithmeticError, match="log-domain oracle"):
        list(_FhatFixed(combo, 64, 128))


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


def test_summability_matches_solve_oracle(pair, combo, monkeypatch):
    """The rows are exact integer sums: ``summability`` never enters
    ``sarason_f_plus``, ``TaylorSeries.l2_norm_sq``, the triangular solve
    or ``Pair.with_series``.  Its oracle is the mpf route, written out
    here at P = 200 bits: s_n is the fhat of ``_FhatFixed`` rounded to
    P bits and cut at n, sigma_n the mean of s_0..s_n, f+ comes from
    ``sarason_f_plus`` with the phi-hat of ``phi_hat_series``, and
    ``l2_norm_sq`` sums the squares.

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
    log10 = mp.log10

    def spy(x):
        norms.append(x)
        return log10(x)

    monkeypatch.setattr(mp, "log10", spy)
    n_list = [0, 2, 8, 16, 24]
    bits, deg = 200, n_list[-1]
    rep = summability_divergence(n_list, combo, pair, precision_bits=bits)
    monkeypatch.undo()
    assert len(norms) == 2 * len(n_list)

    phi_hat = phi_hat_series(pair, deg, bits)
    mp_pair = pair.with_series(deg, bits)
    with mp.workprec(bits):
        monomial = TaylorSeries((mp.mpf(0),) * deg + (mp.mpf(1),), bits)
        solved_phi = f_plus_solve(monomial, mp_pair).coeffs[::-1]
        gap = max(abs(x - y) / abs(y) for x, y in zip(solved_phi, phi_hat.coeffs))
        assert gap <= 1e-15
        kernel = _FhatFixed(combo, deg, bits)
        fhat = tuple(fixed_to_mpf(m, kernel.exp, bits) for m in kernel)
        partial = [TaylorSeries(fhat[: k + 1] + (0,) * (deg - k), bits) for k in range(deg + 1)]
        tol = (deg + 10) * mp.mpf(2) ** -bits
        got = iter(norms)
        for (n, ls, lsig) in rep.rows:
            columns = zip(*(s.coeffs for s in partial[: n + 1]))
            mean = TaylorSeries(tuple(mp.fsum(col) / (n + 1) for col in columns), bits)
            for poly, logged in ((partial[n], ls), (mean, lsig)):
                product = poly.l2_norm_sq() + sarason_f_plus(poly, phi_hat).l2_norm_sq()
                assert abs(next(got) - product) <= tol * product
                assert logged == 0.5 * float(mp.log10(product))
                solved = poly.l2_norm_sq() + f_plus_solve(poly, mp_pair).l2_norm_sq()
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
    log10 = mp.log10

    def spy(x):
        seen.append(x)
        return log10(x)

    monkeypatch.setattr(mp, "log10", spy)
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
            assert abs(got - ref) <= mp.mpf(2) ** (slack - bits) * abs(ref)

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
                ref_norms.append(p.l2_norm_sq() + sarason_f_plus(p, phi_ref).l2_norm_sq())
        assert len(norms) == len(ref_norms)
        for got, ref in zip(norms, ref_norms):
            assert abs(got - ref) <= tol * ref


def test_summability_precision_guard(pair, combo):
    with pytest.raises(PrecisionExhausted):
        summability_divergence([0, 512], combo, pair, precision_bits=64)
