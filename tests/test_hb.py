"""Tests for Toeplitz operators, the f+ map, norms, kernels and dilation,
mostly on the tame pair where everything has closed forms: b = (1+z)/2,
a = (1-z)/2, phi = (1+z)/(1-z)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblab.hb import (
    KernelCombo,
    KernelNode,
    Radius,
    as_radius,
    cauchy_kernel,
    dilate,
    f_plus_solve,
    hb_norm_sq,
    kernel_combo_ccond_check,
    kernel_hb,
    sarason_f_plus,
    toeplitz_coanalytic_apply,
)
from hblab.logscalar import LogScalar
from hblab.pair import tame_pair
from hblab.taylor import outer_series
from hblab.series import TaylorSeries

PHI_HAT_TAME = tame_pair().phi_hat(160)  # (1+z)/(1-z)

coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def random_poly(rng, max_degree=24):
    deg = int(rng.integers(1, max_degree + 1))
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return TaylorSeries(tuple(complex(v) for v in c))


# -- Radius ----------------------------------------------------------------


def test_radius_construction():
    r = Radius.from_float(0.5)
    assert r.log_one_minus == pytest.approx(math.log(0.5))
    deep = Radius.from_log_one_minus(-1000.0)
    assert deep.value == 1.0  # float view saturates, log view does not
    assert deep.log_one_minus == -1000.0
    with pytest.raises(ValueError):
        Radius.from_float(1.0)
    with pytest.raises(ValueError):
        Radius.from_log_one_minus(0.5)
    assert as_radius(0.25).value == 0.25
    assert as_radius(deep) is deep


# -- kernels and Toeplitz operators ----------------------------------------


def test_cauchy_kernel_coeffs():
    k = cauchy_kernel(0.5j, 3)
    assert k.coeffs == ((1 + 0j), -0.5j, (-0.5j) ** 2, (-0.5j) ** 3)
    with pytest.raises(ValueError):
        cauchy_kernel(1.0, 3)


@given(st.lists(coeff, min_size=2, max_size=12), st.lists(coeff, min_size=2, max_size=12))
@settings(max_examples=40)
def test_toeplitz_adjoint_identity(hc, pc):
    """<T_h-bar f, g> == <f, T_h g> on polynomials (adjoint pair)."""
    n = min(len(hc), len(pc))
    h = TaylorSeries(tuple(hc[:n]))
    f = TaylorSeries(tuple(pc[:n]))
    g = TaylorSeries(tuple(reversed(pc[:n])))
    lhs = toeplitz_coanalytic_apply(h, f).inner(g)
    rhs = f.inner(h * g)  # T_h g: multiplication by the analytic symbol
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_coanalytic_kernel_eigenvector():
    """T_h-bar k_w = conj(h(w)) k_w for analytic h (truncation tail aside)."""
    h = TaylorSeries((1.0, 0.3, 0.2, 0.1))
    w = 0.4 + 0.2j
    k = cauchy_kernel(w, 40)
    got = toeplitz_coanalytic_apply(h.pad(40), k)
    lam = complex(h(w)).conjugate()
    for j in range(30):  # away from the truncation edge
        assert got.coeffs[j] == pytest.approx(lam * k.coeffs[j], abs=1e-10)


def test_toeplitz_coanalytic_apply_rejects_short_symbol():
    """T_1-bar f = f for a symbol reaching the degree of f; a symbol with
    fewer coefficients than f raises rather than truncating the output and
    its inner sums to a wrong T_h-bar f."""
    f = TaylorSeries((1.0, 2.0, 3.0))
    for degree in (2, 5):
        assert toeplitz_coanalytic_apply(TaylorSeries.constant(1.0, degree), f) == f
    with pytest.raises(ValueError, match="fewer than the 3"):
        toeplitz_coanalytic_apply(TaylorSeries((1.0,)), f)


# -- f+ and norms on the tame pair -----------------------------------------


def test_f_plus_of_one(tame):
    """f = 1: T_b-bar 1 has coefficients (1/2, 0, ...), and f+ = 1."""
    one = TaylorSeries((1.0,) + (0.0,) * 16)
    fp = f_plus_solve(one, tame)
    assert fp.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    for c in fp.coeffs[1:]:
        assert abs(c) <= 1e-12
    norm = hb_norm_sq(one, tame)
    assert norm.to_float() == pytest.approx(2.0, abs=1e-12)


def test_f_plus_solve_vs_sarason(tame):
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_poly(rng)
        via_solve = f_plus_solve(p, tame)
        via_sarason = sarason_f_plus(p, PHI_HAT_TAME)
        for j in range(len(p.coeffs)):
            assert via_solve.coeffs[j] == pytest.approx(
                via_sarason.coeffs[j], abs=1e-10
            )


def test_f_plus_solve_is_exact_at_input_degree(tame, pair):
    """T_a-bar maps the polynomials of degree <= d onto themselves, so the
    solve of a degree-d f zero-padded to max(4d, 16) gives the same
    coefficients, to the bit, and exact zeros past d: in floats on the tame
    pair and in 200-bit mpmath on the constructed pair."""
    from mpmath import mp

    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_poly(rng)
        d = p.truncation_degree
        fp = f_plus_solve(p, tame)
        assert fp.truncation_degree == d
        assert f_plus_solve(p.pad(max(4 * d, 16)), tame) == fp.pad(max(4 * d, 16))
    mp_pair = pair.with_series(64, 200)
    with mp.workprec(200):
        for d in (0, 3, 8, 16):
            p = TaylorSeries(tuple(mp.mpf(c) for c in rng.uniform(-1, 1, d + 1)), 200)
            fp = f_plus_solve(p, mp_pair)
            assert fp.truncation_degree == d
            assert fp.precision_bits == 200
            assert f_plus_solve(p.pad(max(4 * d, 16)), mp_pair) == fp.pad(max(4 * d, 16))


def test_f_plus_solve_residual_guard(tame, monkeypatch):
    """One unknown of the back-substitution off by 1e-6 moves
    T_a-bar f+ - T_b-bar f far past 1e-9 ||f||, and the solve raises."""
    import hblab.hb as hb

    true_solve = hb.triangular_solve_upper_toeplitz

    def perturbed(h, rhs):
        x = true_solve(h, rhs)
        x[2] += 1e-6
        return x

    p = TaylorSeries((1.0, 2.0, -1.0, 0.5j))
    f_plus_solve(p, tame)
    monkeypatch.setattr(hb, "triangular_solve_upper_toeplitz", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        f_plus_solve(p, tame)


@pytest.mark.parametrize("deg", [128, 160])
def test_float_hb_norm_of_growing_phi_hat(pair, deg):
    """phi-hat of the constructed pair grows (|phi-hat| reaches 6e6 by
    degree 160).  The float H(b) norm takes it in one ``outer_series`` call
    on the phi modulus, each coefficient within 2^-53 of its size, and meets
    the 200-bit norm to 1e-12 in log (measured: 0.0 at both degrees)."""
    from mpmath import mp

    f = TaylorSeries(tuple(0.97**j for j in range(deg + 1)))
    got = hb_norm_sq(f, pair)
    phi_hat = pair.phi_hat(deg, 200)
    with mp.workprec(200):
        f_mp = TaylorSeries(tuple(mp.mpf(c) for c in f.coeffs), 200)
        expect = mp.log(f_mp.l2_norm_sq() + sarason_f_plus(f_mp, phi_hat).l2_norm_sq())
    assert got.log_mag == pytest.approx(float(expect), abs=1e-12)


def test_short_b_series_is_rederived():
    """A pair whose b series is shorter than the degree asked for gets both
    series re-derived on the solve route."""
    short_b = tame_pair(degree=64)._replace(b_series=TaylorSeries((0.5, 0.5)))
    p = TaylorSeries((1.0, 2.0, -1.0, 0.5j, 0.25))
    via_solve = f_plus_solve(p, short_b)
    via_sarason = sarason_f_plus(p, PHI_HAT_TAME)
    for j in range(len(p.coeffs)):
        assert via_solve.coeffs[j] == pytest.approx(via_sarason.coeffs[j], abs=1e-10)


def test_short_mp_series_keep_their_precision(pair):
    """Short series are re-derived at the precision they carry: a pair with
    200-bit series to degree 24, asked to solve a 200-bit polynomial of
    degree 40, gives the 200-bit f+ of a pair built at degree 40, not
    floats."""
    from mpmath import mp

    short = pair._replace(
        a_series=outer_series(pair.a_modulus, 24, 200),
        b_series=outer_series(pair.b_modulus, 24, 200),
    )
    with mp.workprec(200):
        p = TaylorSeries(tuple(mp.mpf(1) / (j + 1) for j in range(41)), 200)
        fp = f_plus_solve(p, short)
        assert fp.coeffs == f_plus_solve(p, pair.with_series(40, 200)).coeffs
    assert fp.precision_bits == 200
    assert all(isinstance(c, mp.mpf) for c in fp.coeffs)
    with pytest.raises(ValueError):
        tame_pair(8).with_series(8, 200)


def test_mp_dot_products_round_once():
    """On mpmath series each f+ coefficient is the exact dot product rounded
    once at the working precision."""
    from mpmath import mp

    rng = np.random.default_rng(5)
    bits, deg = 100, 24

    def series(scale):
        # two doubles 2^-60 apart fill a 100-bit mantissa
        pairs = rng.uniform(-1, 1, (deg + 1, 2))
        with mp.workprec(bits):
            c = [mp.mpf(float(x)) * scale + mp.mpf(float(y)) * 2**-60 for x, y in pairs]
        return TaylorSeries(tuple(c), bits)

    def rounded_dot(terms):
        with mp.workprec(4000):
            exact = sum(x * y for x, y in terms)  # no rounding at 4000 bits
        with mp.workprec(bits):
            return +exact

    phi, f = series(1.0), series(1.0)
    with mp.workprec(bits):
        fp = sarason_f_plus(f, phi)
    for k in range(deg + 1):
        assert fp.coeffs[k] == rounded_dot(zip(f.coeffs[k:], phi.coeffs[: deg + 1 - k]))


def test_sarason_f_plus_rounds_at_its_own_bits():
    """An mpmath f+ is rounded at the smaller ``precision_bits`` of its two
    series, whatever the ambient mpmath precision: at the default 53 bits a
    200-bit result equals the one made inside workprec(200) and carries
    more than 53 bits, and inside workprec(384) a 200-bit f with a 128-bit
    phi-hat gives 128-bit coefficients."""
    from mpmath import mp

    deg = 16
    with mp.workprec(200):
        f = TaylorSeries(tuple(mp.mpf(1) / (j + 3) for j in range(deg + 1)), 200)
        phi = TaylorSeries(tuple(mp.mpf(2) / (2 * j + 5) for j in range(deg + 1)), 200)
        inside = sarason_f_plus(f, phi)
    assert mp.prec == 53
    outside = sarason_f_plus(f, phi)
    assert outside.precision_bits == 200
    assert outside.coeffs == inside.coeffs
    assert max(c._mpf_[3] for c in outside.coeffs) > 53
    with mp.workprec(128):
        phi128 = TaylorSeries(tuple(+c for c in phi.coeffs), 128)
        at128 = sarason_f_plus(f, phi128)
    with mp.workprec(384):
        mixed = sarason_f_plus(f, phi128)
    assert mixed.precision_bits == 128
    assert mixed.coeffs == at128.coeffs
    assert all(c._mpf_[3] <= 128 for c in mixed.coeffs)


def test_sarason_f_plus_rejects_short_phi_hat():
    """A phi-hat with fewer coefficients than f raises, in floats and in
    200-bit mpmath, rather than truncating the inner sums to a wrong f+;
    one of exactly the length of f is enough."""
    from mpmath import mp

    f = TaylorSeries((1.0, 0.5, -0.25, 0.125))
    with pytest.raises(ValueError, match="fewer than the 4"):
        sarason_f_plus(f, PHI_HAT_TAME.truncate(2))
    assert sarason_f_plus(f, PHI_HAT_TAME.truncate(3)) == sarason_f_plus(f, PHI_HAT_TAME)
    with mp.workprec(200):
        f200 = TaylorSeries(tuple(mp.mpf(1) / (j + 1) for j in range(9)), 200)
        phi200 = TaylorSeries(tuple(mp.mpf(2 * j + 1) for j in range(8)), 200)
    with pytest.raises(ValueError, match="fewer than the 9"):
        sarason_f_plus(f200, phi200)


def test_mp_products_ignore_the_ambient_precision(pair):
    """On the 200-bit series of a and b at degree 16 and a 200-bit f, the
    product T_b-bar f and the solve give, at mpmath's default 53 bits, the
    coefficients they give inside workprec(200): both run at the
    precision of their operands.  The same holds for the float f rounded
    from it, whose results carry 53 bits."""
    from mpmath import mp

    mp_pair = pair.with_series(16, 200)
    with mp.workprec(200):
        f = TaylorSeries(tuple(mp.mpf(1) / (j + 3) - mp.mpf(2) ** -j for j in range(17)), 200)
    f53 = TaylorSeries(tuple(map(float, f.coeffs)))
    for p, bits in ((f, 200), (f53, 53)):
        with mp.workprec(200):
            inside = toeplitz_coanalytic_apply(mp_pair.b_series, p), f_plus_solve(p, mp_pair)
        assert mp.prec == 53
        outside = toeplitz_coanalytic_apply(mp_pair.b_series, p), f_plus_solve(p, mp_pair)
        for got, want in zip(outside, inside):
            assert got.precision_bits == want.precision_bits == bits
            assert got.coeffs == want.coeffs
        assert max(c._mpf_[3] for c in outside[0].coeffs) == bits


def test_sarason_f_plus_is_the_toeplitz_product(pair):
    """``sarason_f_plus(f, phi-hat)`` is T_phi-hat-bar f, in floats and at
    200 bits."""
    from mpmath import mp

    rng = np.random.default_rng(13)
    for _ in range(5):
        p = random_poly(rng)
        assert sarason_f_plus(p, PHI_HAT_TAME) == toeplitz_coanalytic_apply(PHI_HAT_TAME, p)
    phi200 = pair.phi_hat(24, 200)
    with mp.workprec(200):
        f = TaylorSeries(tuple(mp.mpf(float(x)) / 3 for x in rng.uniform(-1, 1, 21)), 200)
    assert sarason_f_plus(f, phi200) == toeplitz_coanalytic_apply(phi200, f)


def test_zero_padded_symbols_match_their_polynomials(tame):
    """The tame pair's a-hat and b-hat are two-term polynomials padded with
    zeros to degree 160.  The float product and the solve stop at their
    last nonzero coefficient and give, bit for bit, what the two-term
    recurrences give: (T_b-bar f)_k = b_0 f_k + b_1 f_(k+1) and
    x_k = ((T_b-bar f)_k - a_1 x_(k+1)) / a_0."""
    (a0, a1), (b0, b1) = tame.a_series.coeffs[:2], tame.b_series.coeffs[:2]
    assert not any(tame.a_series.coeffs[2:]) and not any(tame.b_series.coeffs[2:])
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_poly(rng, 40)
        fc = p.coeffs + (0.0,)
        rhs = [0.0 + b0 * fc[k] + b1 * fc[k + 1] for k in range(len(p.coeffs))]
        x = [0.0] * (len(rhs) + 1)
        for k in reversed(range(len(rhs))):
            x[k] = (rhs[k] - a1 * x[k + 1]) / a0
        assert toeplitz_coanalytic_apply(tame.b_series, p).coeffs == tuple(rhs)
        assert f_plus_solve(p, tame).coeffs == tuple(x[:-1])


def test_hb_inner_consistency(tame, hb_inner):
    rng = np.random.default_rng(3)
    f, g = random_poly(rng, 12), random_poly(rng, 12)
    lhs = hb_inner(f, g, tame)
    # polarization against hb_norm_sq through the same product route
    assert hb_inner(f, f, tame).real == pytest.approx(
        hb_norm_sq(f, tame).to_float(), rel=1e-10
    )
    assert abs(hb_inner(g, f, tame) - lhs.conjugate()) < 1e-10


def test_kernel_hb_reproduces(tame, hb_inner):
    """<p, k_w^b>_{H(b)} == p(w) for polynomials."""
    rng = np.random.default_rng(5)
    for w in (0.1, 0.4, 0.3 + 0.2j):
        k = kernel_hb(w, tame, 120)
        for _ in range(5):
            p = random_poly(rng, 16)
            got = hb_inner(p, k, tame)
            assert got == pytest.approx(complex(p(w)), abs=1e-8)


def test_kernel_hb_norm_closed_form(tame):
    """||k_w^b||^2 = k_w^b(w) = (1 - |b(w)|^2)/(1 - |w|^2)."""
    w = 0.4
    k = kernel_hb(w, tame, 120)
    expect = (1.0 - 0.49) / (1.0 - 0.16)
    assert hb_norm_sq(k, tame).to_float() == pytest.approx(expect, rel=1e-8)
    assert complex(k(w)).real == pytest.approx(expect, rel=1e-10)


# -- KernelCombo (log-domain Gram route) -----------------------------------


def test_kernel_combo_validation():
    with pytest.raises(ValueError):
        KernelCombo((KernelNode(LogScalar.from_float(-1.0), -1.0),))
    with pytest.raises(ValueError):
        KernelCombo((KernelNode(LogScalar.one(), 0.5),))


def test_combo_norm_matches_series_route(tame):
    """Gram-form norm of c1 k_w1 + c2 k_w2 against the coefficient route."""
    nodes = (
        KernelNode(LogScalar.from_float(0.7), math.log(1.0 - 0.3)),
        KernelNode(LogScalar.from_float(0.2), math.log(1.0 - 0.6)),
    )
    combo = KernelCombo(nodes)
    gram = hb_norm_sq(combo, tame)
    series = TaylorSeries(
        tuple(
            0.7 * 0.3**j + 0.2 * 0.6**j for j in range(400)
        )
    )
    direct = hb_norm_sq(series, tame)
    assert gram.log_mag == pytest.approx(direct.log_mag, abs=1e-8)


def test_combo_norm_log_domain_far_out(pair, combo):
    """The Gram norm stays finite in log-domain at radii beyond float
    resolution of 1 - r.  With finitely many kernel nodes the dilated norm
    peaks astronomically inside the last interval (log of order 1e5 here)
    and relaxes back to ||f|| as r -> 1."""
    mid, deep, past = (
        hb_norm_sq(dilate(combo, Radius.from_log_one_minus(l)), pair).log_mag
        for l in (-5.0, -20.0, -100.0)
    )
    for x in (mid, deep, past):
        assert math.isfinite(x)
    assert deep > 1e5
    assert abs(mid) < 10.0 and abs(past) < 10.0
    # at r -> 1 the norm approaches ||f||, which the Gram form gives directly
    limit = hb_norm_sq(combo, pair).log_mag
    assert past == pytest.approx(limit, abs=1e-3)


def test_ccond_check_single_kernel(tame):
    """c = 1, w = 1/2: (1 + phi(1/2)) / sqrt(1/2) = 4 sqrt(2)."""
    combo = KernelCombo((KernelNode(LogScalar.one(), math.log(0.5)),))
    (term,) = kernel_combo_ccond_check(combo, tame)
    assert term.to_float() == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


# -- dilation and summation operators --------------------------------------


@given(st.lists(coeff, min_size=1, max_size=10), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40)
def test_dilate_series_pointwise(cs, r):
    f = TaylorSeries(tuple(cs))
    fr = dilate(f, r)
    z = 0.3 + 0.4j
    assert complex(fr(z)) == pytest.approx(complex(f(r * z)), rel=1e-10, abs=1e-10)


def test_dilate_combo_matches_series(tame):
    """Dilating a kernel combo shifts nodes w -> rw; check against the
    coefficient expansion."""
    combo = KernelCombo((KernelNode(LogScalar.from_float(1.0), math.log(0.5)),))
    fr = dilate(combo, 0.9)
    (node,) = fr.nodes
    assert 1.0 - math.exp(node.log_one_minus_w) == pytest.approx(0.45, rel=1e-14)


def test_dilate_combo_deep_radius():
    combo = KernelCombo((KernelNode(LogScalar.one(), -50.0),))
    fr = dilate(combo, Radius.from_log_one_minus(-80.0))
    (node,) = fr.nodes
    # 1 - r w = (1-r) + r(1-w) ~ (1-w) when 1-r << 1-w
    assert node.log_one_minus_w == pytest.approx(-50.0, abs=1e-12)
