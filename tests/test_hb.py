"""Tests for Toeplitz operators, the f+ map, norms, kernels, dilation and
summation operators, mostly on the tame pair where everything has closed
forms: b = (1+z)/2, a = (1-z)/2, phi = (1+z)/(1-z)."""

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
    cesaro_mean,
    dilate,
    f_plus_solve,
    hb_inner,
    hb_norm_sq,
    kernel_combo_ccond_check,
    kernel_hb,
    partial_sum,
    sarason_f_plus,
    toeplitz_coanalytic_apply,
)
from hblab.logscalar import LogScalar
from hblab.series import TaylorSeries

PHI_HAT_TAME = TaylorSeries((1.0,) + (2.0,) * 160)  # (1+z)/(1-z)

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


def test_f_plus_degree_preserved(tame):
    """For a polynomial the solved f+ vanishes beyond the input degree."""
    p = TaylorSeries((1.0, 2.0, -1.0))
    fp = f_plus_solve(p, tame)
    assert all(abs(c) < 1e-12 for c in fp.coeffs[3:])


def test_hb_inner_consistency(tame):
    rng = np.random.default_rng(3)
    f, g = random_poly(rng, 12), random_poly(rng, 12)
    lhs = hb_inner(f, g, tame)
    # polarization against hb_norm_sq through the same solve route
    assert hb_inner(f, f, tame).real == pytest.approx(
        hb_norm_sq(f, tame).to_float(), rel=1e-10
    )
    assert abs(hb_inner(g, f, tame) - lhs.conjugate()) < 1e-10


def test_kernel_hb_reproduces(tame):
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


def test_partial_sum_and_cesaro():
    f = TaylorSeries((1.0, 2.0, 3.0, 4.0))
    s2 = partial_sum(f, 2)
    assert s2.coeffs == (1.0, 2.0, 3.0, 0.0)
    sig2 = cesaro_mean(f, 2)
    assert sig2.coeffs == (1.0, 2.0 * 2 / 3, 3.0 * 1 / 3, 0.0)
    with pytest.raises(ValueError):
        partial_sum(f, 9)
    with pytest.raises(ValueError):
        cesaro_mean(f, 9)
    with pytest.raises(ValueError):
        partial_sum(f, -1)
    with pytest.raises(ValueError):
        cesaro_mean(f, -1)


def test_cesaro_is_average_of_partial_sums():
    rng = np.random.default_rng(2)
    f = random_poly(rng, 10).pad(12)
    n = 7
    avg = [0.0] * len(f.coeffs)
    for k in range(n + 1):
        sk = partial_sum(f, k)
        avg = [a + c / (n + 1) for a, c in zip(avg, sk.coeffs)]
    sig = cesaro_mean(f, n)
    for a, c in zip(avg, sig.coeffs):
        assert abs(a - c) < 1e-12
