"""Unit and property tests for truncated power series and the Toeplitz
solve, and for the series helpers of the tests (``oracles``)."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hblab.series import (
    TaylorSeries,
    exp_series,
    triangular_solve_upper_toeplitz,
)

from conftest import inner, pad
from oracles import add, evaluate, exp_series_mp, mul

coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
coeff_list = st.lists(coeff, min_size=1, max_size=16)


def test_empty_rejected():
    with pytest.raises(ValueError):
        TaylorSeries(())


def test_horner_eval():
    p = TaylorSeries((1.0, 2.0, 3.0))
    assert evaluate(p, 2.0) == 1.0 + 4.0 + 12.0


def test_add_truncates_to_shorter():
    p = TaylorSeries((1.0, 1.0, 1.0))
    q = TaylorSeries((1.0, 1.0))
    assert add(p, q).coeffs == (2.0, 2.0)


def test_cauchy_product():
    p = TaylorSeries((1.0, 1.0, 0.0))  # 1 + z
    q = TaylorSeries((1.0, -1.0, 0.0))  # 1 - z
    assert mul(p, q).coeffs == (1.0, 0.0, -1.0)


def test_truncate_pad_roundtrip():
    p = TaylorSeries((1.0, 2.0, 3.0))
    assert pad(p, 5).truncate(2).coeffs == p.coeffs
    assert pad(p, 5).coeffs[3:] == (0.0, 0.0, 0.0)


def test_l2_norm_and_inner():
    p = TaylorSeries((3.0, 4.0j))
    assert p.l2_norm_sq() == pytest.approx(25.0)
    q = TaylorSeries((1.0, 1.0j))
    assert inner(p, q) == pytest.approx(3.0 + 4.0)


@given(coeff_list)
@settings(max_examples=60)
def test_exp_series_pointwise(gc):
    """exp_series agrees with exp(g(z)) at a point well inside convergence."""
    g = TaylorSeries(tuple(gc))
    e = exp_series(pad(g, 48))
    z = 0.05 + 0.02j
    assert evaluate(e, z) == pytest.approx(cmath.exp(evaluate(g, z)), rel=1e-9, abs=1e-9)


@given(coeff_list, coeff_list)
@settings(max_examples=40)
def test_exp_series_multiplicative(ga, gb):
    """exp(a+b) == exp(a) exp(b) coefficientwise at matched truncation."""
    deg = 32
    a = pad(TaylorSeries(tuple(ga)), deg)
    b = pad(TaylorSeries(tuple(gb)), deg)
    lhs = exp_series(add(a, b))
    ea, eb = exp_series(a), exp_series(b)
    rhs = mul(ea, eb)
    for k, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        # condition number of the Cauchy product at index k
        cond = sum(abs(ea.coeffs[j]) * abs(eb.coeffs[k - j]) for j in range(k + 1))
        assert abs(x - y) <= 1e-9 * (cond + abs(x) + 1.0)


def test_exp_series_mp():
    """The mpmath recurrence of the tests' oracle gives exp(z) to 180 bits."""
    from mpmath import mp

    old = mp.prec
    try:
        mp.prec = 200
        g = pad(TaylorSeries((mp.mpf(0), mp.mpf(1)), precision_bits=200), 30)
        e = exp_series_mp(g)
        for n, c in enumerate(e.coeffs):
            assert abs(c - 1 / mp.factorial(n)) < mp.mpf(2) ** (-180)
    finally:
        mp.prec = old


# Constant of the back-substitution bound (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm 8.5, with the complex-arithmetic bounds
# of Lemma 3.5).  Row k of the solve rounds at most n - 1 subtractions (u
# each), one complex product (sqrt(2) gamma_2, about 2.83 u) and one complex
# quotient (sqrt(2) gamma_4, about 5.66 u), so |Delta T| <= (n + 7.5) u |T|
# <= 8.5 n u |T| to first order.  C = 16 leaves room for the second-order
# terms and for CPython's scaled complex division.
SOLVE_C = 16.0
UNIT_ROUNDOFF = 2.0**-53
# Under gradual underflow each real product or quotient may also commit an
# absolute error of up to half the smallest subnormal.
SUBNORMAL_MIN = 2.0**-1074


@given(
    st.lists(coeff, min_size=1, max_size=24),
    st.lists(coeff, min_size=1, max_size=24),
)
@example(hc=[-2, 1] + [0] * 14, xc=[0] * 15 + [1.5])
@settings(max_examples=60)
def test_triangular_solve_roundtrip(hc, xc):
    """The guarantee of back-substitution, and nothing more.

    The computed x^ solves (T + Delta T) x^ = b with |Delta T| <= g |T|,
    g = C n u, so the residual obeys |b - T x^| <= g |T| |x^|.  Here b is
    T x rounded, with an error of the same kind, so the forward error obeys
    |x^ - x| <= g |T^-1| |T| (|x| + |x^|): Skeel's condition number, formed
    from the explicit inverse since n <= 24.  The @example is an
    ill-conditioned T (cond ~ 5e7) whose forward error, 2e-10, is far above
    u while its residual is at rounding level.
    """
    from mpmath import mp

    n = min(len(hc), len(xc))
    h = [1.0 + 0.3 * c for c in hc[:n]]  # keep the diagonal away from 0
    x = list(xc[:n])
    rhs = []
    for k in range(n):
        rhs.append(sum(h[j].conjugate() * x[k + j] for j in range(n - k)))
    sol = triangular_solve_upper_toeplitz(h, rhs)

    t = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for j in range(n - k):
            t[k, k + j] = complex(h[j]).conjugate()
    abs_t, abs_tinv = np.abs(t), np.abs(np.linalg.inv(t))
    x_arr, sol_arr = np.array(x, dtype=complex), np.array(sol, dtype=complex)
    g = SOLVE_C * n * UNIT_ROUNDOFF
    underflow = SOLVE_C * n * SUBNORMAL_MIN * (1.0 + np.abs(t[0]).sum())

    with mp.workprec(200):  # the residual, exact far below u
        tx = [mp.fsum(mp.mpc(t[k, i]) * sol[i] for i in range(n)) for k in range(n)]
        res = np.array([abs(complex(mp.mpc(b) - v)) for b, v in zip(rhs, tx)])
    assert np.all(res <= g * (abs_t @ np.abs(sol_arr)) + underflow)

    skeel = abs_tinv @ (abs_t @ (np.abs(x_arr) + np.abs(sol_arr)))
    fwd_bound = g * skeel + 2.0 * underflow * abs_tinv.sum(axis=1)
    assert np.all(np.abs(sol_arr - x_arr) <= fwd_bound)


def test_triangular_solve_degenerate_diagonal():
    with pytest.raises(ValueError):
        triangular_solve_upper_toeplitz([0.0, 1.0], [1.0, 1.0])


def test_triangular_solve_length_mismatch():
    with pytest.raises(ValueError):
        triangular_solve_upper_toeplitz([1.0], [1.0, 2.0])
