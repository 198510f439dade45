"""The tests' own routes: series arithmetic that hblab does not carry, and
the extended-precision oracles in mpmath.

hblab computes at 53 bits in floats and above in exact integers
(``hblab.fixed``), and its P-bit numbers (``fixed.PBit``) have no
arithmetic.  The tests check both against independent routes:

* ``evaluate``, ``add`` and ``mul``: Horner evaluation and the sum and
  Cauchy product of two series, truncated at the shorter, in the
  arithmetic of their coefficients; ``cauchy_kernel``, the truncated k_w;
* ``to_mpf`` and ``l2_norm_sq_mp``: a PBit as the mpf of the same value,
  and the squared l2 norm of a series of them;
* ``toeplitz_mp``: T_h-bar f on mpmath numbers, each coefficient one
  exact dot product rounded once (hblab's own product takes 53-bit
  series only);
* ``exp_series_mp``, ``f_plus_solve_mp`` and ``hb_norm_sq_mp``: the
  recurrence of ``series.exp_series``, the triangular-Toeplitz solve of
  ``hb.f_plus_solve`` and the H(b) norm of a series, each on mpmath
  numbers.
"""

import math

from mpmath import mp

from hblab.fixed import PBit
from hblab.hb import _RESIDUAL_TOL, _series_pair
from hblab.series import TaylorSeries, triangular_solve_upper_toeplitz


def to_mpf(x):
    """A PBit as the mpmath mpf of the same value, exactly (not rounded to
    the ambient precision); any other number unchanged."""
    return mp.make_mpf(x._mpf_) if isinstance(x, PBit) else x


def evaluate(f: TaylorSeries, z):
    """f(z) by Horner's rule."""
    acc = to_mpf(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = acc * z + to_mpf(c)
    return acc


def add(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """f + g, truncated at the shorter."""
    return TaylorSeries(
        tuple(to_mpf(a) + to_mpf(b) for a, b in zip(f.coeffs, g.coeffs)),
        min(f.precision_bits, g.precision_bits),
    )


def mul(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """The Cauchy product f g, truncated at the shorter."""
    a, b = [to_mpf(c) for c in f.coeffs], [to_mpf(c) for c in g.coeffs]
    n = min(len(a), len(b))
    out = tuple(sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n))
    return TaylorSeries(out, min(f.precision_bits, g.precision_bits))


def cauchy_kernel(w: complex, degree: int) -> TaylorSeries:
    """k_w(z) = 1/(1 - conj(w) z), truncated: coefficients conj(w)^k."""
    wc = complex(w).conjugate()
    coeffs = [1.0 + 0j]
    for _ in range(degree):
        coeffs.append(coeffs[-1] * wc)
    return TaylorSeries(tuple(coeffs))


def l2_norm_sq_mp(f: TaylorSeries):
    """sum |f_k|^2 in mpmath at the ambient precision."""
    return sum(abs(to_mpf(c)) ** 2 for c in f.coeffs)


def toeplitz_mp(h: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """T_h-bar f, coefficient k sum_j conj(h_j) f_{k+j}, as
    ``hb.toeplitz_coanalytic_apply`` defines it for any precision: each
    coefficient is ``mp.fdot`` of exact products, rounded once at the
    smaller ``precision_bits`` of h and f, which the result carries,
    whatever the ambient precision."""
    n = len(f.coeffs)
    assert len(h.coeffs) >= n, "the symbol is shorter than f"
    bits = min(h.precision_bits, f.precision_bits)
    hs, fs = [to_mpf(c) for c in h.coeffs[:n]], [to_mpf(c) for c in f.coeffs]
    with mp.workprec(bits):
        out = tuple(mp.fdot(fs[k:], hs, conjugate=True) for k in range(n))
    return TaylorSeries(out, bits)


def exp_series_mp(g: TaylorSeries) -> TaylorSeries:
    """exp(g) by the recurrence of ``series.exp_series``,
    n e_n = sum k g_k e_{n-k}, from e_0 = exp(g_0), in mpmath at the
    ambient precision."""
    gc = [to_mpf(c) for c in g.coeffs]
    e = [mp.exp(gc[0])]
    for m in range(1, len(gc)):
        acc = 0
        for k in range(1, m + 1):
            acc += k * gc[k] * e[m - k]
        e.append(acc / m)
    return TaylorSeries(tuple(e), g.precision_bits)


def f_plus_solve_mp(f: TaylorSeries, pair) -> TaylorSeries:
    """The f+ of ``hb.f_plus_solve`` for series carried above 53 bits.

    T_b-bar f is ``toeplitz_mp``; the back-substitution
    (``triangular_solve_upper_toeplitz``) runs in mpmath under ``workprec``
    at the larger ``precision_bits`` of a-hat and f, and f+ carries the
    smaller.  The defect residual
    ||T_a-bar f+ - T_b-bar f||, each coefficient rounded to a double, is
    held below ``hb._RESIDUAL_TOL`` ||f||, as the library holds its own.
    """
    degree = f.truncation_degree
    pair = _series_pair(pair, degree)
    a = pair.a_series.truncate(degree)
    rhs = toeplitz_mp(pair.b_series, f)
    with mp.workprec(max(a.precision_bits, f.precision_bits)):
        x = triangular_solve_upper_toeplitz(
            [to_mpf(c) for c in a.coeffs], [to_mpf(c) for c in rhs.coeffs]
        )
        f_plus = TaylorSeries(tuple(x), min(a.precision_bits, f.precision_bits))
        scale = math.sqrt(abs(float(l2_norm_sq_mp(f)))) or 1.0
    lhs = toeplitz_mp(pair.a_series, f_plus)
    res = math.sqrt(sum(abs(complex(x) - complex(y)) ** 2 for x, y in zip(lhs.coeffs, rhs.coeffs)))
    assert res <= _RESIDUAL_TOL * scale, f"f+ residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||f||"
    return f_plus


def hb_norm_sq_mp(f: TaylorSeries, phi_hat: TaylorSeries):
    """||f||^2_{H^2} + ||f+||^2_{H^2}, f+ = T_phi-hat-bar f
    (``toeplitz_mp``), as ``hb.sarason_f_plus`` defines it, summed in
    mpmath at the ambient precision (not its log)."""
    return l2_norm_sq_mp(f) + l2_norm_sq_mp(toeplitz_mp(phi_hat, f))
