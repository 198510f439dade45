"""Toeplitz operators, the f+ map, H(b) norms and reproducing kernels.

Functions in H(b) appear in two representations:

* :class:`~hblab.series.TaylorSeries` -- generic; norms take f+ as the
  Toeplitz product T_phi-bar f (``sarason_f_plus``) with the one phi-hat
  of ``Pair.phi_hat``, and the l2 sums of
  ||f||^2 = ||f||_{H^2}^2 + ||f+||_{H^2}^2.  The triangular-Toeplitz solve
  of T_b-bar f = T_a-bar f+ (``f_plus_solve``) on the series of a and b is
  kept as the independent oracle.
* :class:`KernelCombo` -- finite combinations sum_j c_j k_{w_j} of Cauchy
  kernels with positive data, where f+ = sum_j c_j conj(phi(w_j)) k_{w_j}
  gives closed Gram-form norms that survive in log-domain when the phi
  values overflow every float format.
"""

from __future__ import annotations

import math
from typing import Union

from ._record import Record, _set
from .logscalar import LogScalar, log1m_product, log1p_exp, log_sum_exp
from .pair import Pair
from .series import (
    TaylorSeries,
    _is_mp,
    fixed_dot,
    fixed_mantissas,
    fixed_to_mpf,
    triangular_solve_upper_toeplitz,
)


class Radius(Record):
    """A radius r in (0, 1] carried together with log(1 - r), so radii
    exponentially close to 1 keep full precision."""

    __slots__ = ("value", "log_one_minus")

    def __init__(self, value: float, log_one_minus: float):
        _set(self, "value", value)
        _set(self, "log_one_minus", log_one_minus)

    @staticmethod
    def from_float(r: float) -> "Radius":
        if not (0.0 < r < 1.0):
            raise ValueError("radius must lie in (0, 1)")
        return Radius(r, math.log1p(-r))

    @staticmethod
    def from_log_one_minus(l: float) -> "Radius":
        if l >= 0.0:
            raise ValueError("log(1 - r) must be negative")
        return Radius(1.0 - math.exp(max(l, -745.0)), l)


def as_radius(r: Union[float, Radius]) -> Radius:
    return r if isinstance(r, Radius) else Radius.from_float(float(r))


class KernelNode(Record):
    """One term c * k_w with positive real c (as LogScalar) and real
    w in (0, 1) stored via log(1 - w)."""

    __slots__ = ("log_c", "log_one_minus_w")

    def __init__(self, log_c: LogScalar, log_one_minus_w: float):
        _set(self, "log_c", log_c)
        _set(self, "log_one_minus_w", log_one_minus_w)

    @property
    def w(self) -> float:
        return 1.0 - math.exp(max(self.log_one_minus_w, -745.0))


class KernelCombo(Record):
    """f = sum_j c_j k_{w_j} with all-positive data (the construction's
    regime); norms and point values admit closed log-domain forms."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: tuple):
        _set(self, "nodes", nodes)
        for nd in nodes:
            if nd.log_c.sign() <= 0:
                raise ValueError(
                    "KernelCombo requires positive real coefficients; "
                    "use the TaylorSeries representation for signed data"
                )
            if nd.log_one_minus_w >= 0.0:
                raise ValueError("kernel nodes must have w in (0, 1)")


HbFunction = Union[TaylorSeries, KernelCombo]


# -- Cauchy kernels and Toeplitz operators --------------------------------


def cauchy_kernel(w: complex, degree: int) -> TaylorSeries:
    """k_w(z) = 1/(1 - conj(w) z), truncated: coefficients conj(w)**k."""
    if abs(w) >= 1:
        raise ValueError("cauchy_kernel requires |w| < 1")
    wc = complex(w).conjugate()
    coeffs = [1.0 + 0j]
    for _ in range(degree):
        coeffs.append(coeffs[-1] * wc)
    return TaylorSeries(tuple(coeffs))


def toeplitz_coanalytic_apply(h: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """T_h-bar f: output coefficient k is sum_j conj(h_j) f_{k+j}."""
    n = min(len(h.coeffs), len(f.coeffs))
    hc, fc = h.coeffs, f.coeffs
    out = []
    for k in range(n):
        acc = 0.0
        for j in range(n - k):
            acc = acc + hc[j].conjugate() * fc[k + j]
        out.append(acc)
    return TaylorSeries(tuple(out), min(h.precision_bits, f.precision_bits))


# -- the f+ map and H(b) norms --------------------------------------------


def _series_pair(pair: Pair, degree: int) -> Pair:
    """The pair with a and b series reaching ``degree``, re-derived when
    either is missing or short, at the precision of the series it has."""
    have = [s for s in (pair.a_series, pair.b_series) if s is not None]
    if len(have) == 2 and all(s.truncation_degree >= degree for s in have):
        return pair
    return pair.with_series(degree, min((s.precision_bits for s in have), default=53))


# Bound on the residual of ``f_plus_solve``, relative to ||f||.
_RESIDUAL_TOL = 1e-9


def f_plus_residual(f: TaylorSeries, f_plus: TaylorSeries, pair: Pair) -> float:
    """||T_a-bar f+ - T_b-bar f||_{H^2} at the shared truncation."""
    lhs = toeplitz_coanalytic_apply(pair.a_series, f_plus)
    rhs = toeplitz_coanalytic_apply(pair.b_series, f)
    return math.sqrt(abs(float((lhs - rhs).l2_norm_sq())))


def f_plus_solve(f: TaylorSeries, pair: Pair) -> TaylorSeries:
    """The unique f+ with T_b-bar f = T_a-bar f+, on truncated coefficients.

    Solves the upper-triangular Toeplitz system by back-substitution at the
    degree d of f.  T_a-bar maps the polynomials of degree <= d onto
    themselves, so for a polynomial the truncation at d is exact: a solve
    at any larger degree gives the same coefficients and exact zeros past d.
    The defect residual ||T_a-bar f+ - T_b-bar f|| is checked against
    1e-9 ||f|| and a violation raises ArithmeticError.  It reads a-hat and
    b-hat, never phi, so it is the one independent oracle of the product
    route that the norms use, ``sarason_f_plus`` with ``Pair.phi_hat``; for
    the monomial z^N its output reversed is conj(phi-hat) to degree N.
    """
    degree = f.truncation_degree
    pair = _series_pair(pair, degree)
    a = pair.a_series.truncate(degree)
    b = pair.b_series.truncate(degree)
    rhs = toeplitz_coanalytic_apply(b, f)
    x = triangular_solve_upper_toeplitz(a.coeffs, rhs.coeffs)
    f_plus = TaylorSeries(tuple(x), min(a.precision_bits, f.precision_bits))
    scale = math.sqrt(abs(float(f.l2_norm_sq()))) or 1.0
    res = f_plus_residual(f, f_plus, pair)
    if res > _RESIDUAL_TOL * scale:
        raise ArithmeticError(f"f+ residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||f||")
    return f_plus


def _log_of_positive(x) -> float:
    """Natural log of a positive number that may be float or mpmath."""
    if _is_mp(x):
        import mpmath

        return float(mpmath.log(x))
    return math.log(x)


def _gram_log_terms(combo: KernelCombo, pair: Pair):
    """Log magnitudes of the terms of ||f||^2 + ||f+||^2 =
    sum_{i,j} c_i c_j (1 + phi_i phi_j) / (1 - w_i w_j): one pass over the
    node pairs yields the plain term and then the one with phi values."""
    nodes = combo.nodes
    lphi = [pair.log_phi_radial_at(nd.log_one_minus_w) for nd in nodes]
    for ni, lpi in zip(nodes, lphi):
        for nj, lpj in zip(nodes, lphi):
            lm = (
                ni.log_c.log_mag
                + nj.log_c.log_mag
                - log1m_product(ni.log_one_minus_w, nj.log_one_minus_w)
            )
            yield lm
            yield lm + (lpi + lpj)


def hb_norm_sq(f: HbFunction, pair: Pair) -> LogScalar:
    """||f||^2_{H(b)} = ||f||^2_{H^2} + ||f+||^2_{H^2} as a LogScalar.

    TaylorSeries take f+ = T_phi-bar f (``sarason_f_plus`` with
    ``Pair.phi_hat`` at the precision of f), exact for the truncated
    polynomial; KernelCombos use the closed Gram forms with
    f+ = sum c_j conj(phi(w_j)) k_{w_j}, entirely in log-domain.
    """
    if isinstance(f, KernelCombo):
        return log_sum_exp(_gram_log_terms(f, pair))
    f_plus = sarason_f_plus(f, pair.phi_hat(f.truncation_degree, f.precision_bits))
    total = f.l2_norm_sq() + f_plus.l2_norm_sq()
    return LogScalar.exp_of(_log_of_positive(total))


def kernel_hb(w: complex, pair: Pair, degree: int) -> TaylorSeries:
    """H(b) reproducing kernel k_w^b(z) = (1 - conj(b(w)) b(z)) k_w(z)."""
    if abs(w) >= 1:
        raise ValueError("kernel_hb requires |w| < 1")
    pair = _series_pair(pair, degree)
    b = pair.b_series.truncate(degree)
    bw_conj = complex(b(w)).conjugate()
    factor = TaylorSeries.constant(1.0 + 0j, degree) - b.scale(bw_conj)
    return factor * cauchy_kernel(w, degree)


def kernel_combo_ccond_check(f: KernelCombo, pair: Pair) -> list:
    """Termwise |c_j| (1 + |phi(w_j)|) (1 - w_j)^{-1/2} as LogScalars.

    Summability of these terms is the admissibility condition for kernel
    combinations; for the construction's coefficients each term is at most
    2/j^2.
    """
    out = []
    for nd in f.nodes:
        lphi = pair.log_phi_radial_at(nd.log_one_minus_w)
        lm = nd.log_c.log_mag + log1p_exp(lphi) - 0.5 * nd.log_one_minus_w
        out.append(LogScalar.exp_of(lm))
    return out


def sarason_f_plus(f: TaylorSeries, phi_hat: TaylorSeries) -> TaylorSeries:
    """f+ by the coefficient formula f+hat(k) = sum_j fhat(j+k) conj(phihat(j)).

    Valid whenever the inner series converges absolutely for each k (always
    for polynomials, where it is exact with phi-hat to the degree of f); a
    phi-hat with fewer coefficients than f raises ValueError.  With phi-hat
    from ``Pair.phi_hat`` (in the mpmath reports through
    ``experiments.phi_hat_series``) this is the route of every H(b) norm
    of a TaylorSeries; ``f_plus_solve`` is its independent oracle.  On
    real mpmath series the mantissas of f and of phi-hat are aligned once
    to one exponent each (``fixed_mantissas``, float zero pads included),
    so each output coefficient is one exact integer dot product
    (``fixed_dot``) rounded once at the result's precision, the smaller of
    the two series' ``precision_bits``, whatever the ambient mpmath
    precision; floats take T_phi-hat-bar f, ``toeplitz_coanalytic_apply``.
    """
    nf = len(f.coeffs)
    if len(phi_hat.coeffs) < nf:
        raise ValueError(
            f"phi-hat has {len(phi_hat.coeffs)} coefficients, fewer than the {nf} of f"
        )
    bits = min(f.precision_bits, phi_hat.precision_bits)
    if bits <= 53:
        return toeplitz_coanalytic_apply(phi_hat, f)
    fs, fe = fixed_mantissas(f.coeffs)
    ps, pe = fixed_mantissas(phi_hat.coeffs)
    out = [fixed_to_mpf(fixed_dot(fs[k:], ps), fe + pe, bits) for k in range(nf)]
    return TaylorSeries(tuple(out), bits)


# -- dilation, partial sums, Cesaro means ---------------------------------


def dilate(f: HbFunction, r: Union[float, Radius]) -> HbFunction:
    """f_r(z) = f(rz): coefficient k scaled by r**k, or w_j -> r w_j using
    k_w(rz) = k_{rw}(z) for real w."""
    rad = as_radius(r)
    if isinstance(f, KernelCombo):
        lr = rad.log_one_minus
        return KernelCombo(
            tuple(KernelNode(nd.log_c, log1m_product(lr, nd.log_one_minus_w)) for nd in f.nodes)
        )
    out, p = [], 1.0
    for c in f.coeffs:
        out.append(c * p)
        p *= rad.value
    return TaylorSeries(tuple(out), f.precision_bits)


def partial_sum(f: TaylorSeries, n: int) -> TaylorSeries:
    """s_n(f): coefficients 0..n, zero-padded to the original degree."""
    if n < 0:
        raise ValueError(f"partial sum order must be >= 0, got {n}")
    if n > f.truncation_degree:
        raise ValueError("partial sum order exceeds truncation degree")
    return TaylorSeries(
        f.coeffs[: n + 1] + (0.0,) * (f.truncation_degree - n), f.precision_bits
    )


def cesaro_mean(f: TaylorSeries, n: int) -> TaylorSeries:
    """sigma_n(f) = mean of s_0..s_n: Fejer weights (n+1-j)/(n+1).

    Each weight is formed in the series' own number type: a float quotient
    for float series, an mpmath quotient rounded once at the series'
    precision for mpmath series, so no sigma_n coefficient of an
    extended-precision series carries a double-rounded weight.
    """
    if n < 0:
        raise ValueError(f"Cesaro order must be >= 0, got {n}")
    if n > f.truncation_degree:
        raise ValueError("Cesaro order exceeds truncation degree")
    if f.precision_bits > 53:
        from mpmath import mp

        with mp.workprec(f.precision_bits):
            out = [c * (mp.mpf(n + 1 - j) / (n + 1)) for j, c in enumerate(f.coeffs[: n + 1])]
    else:
        out = [c * ((n + 1 - j) / (n + 1)) for j, c in enumerate(f.coeffs[: n + 1])]
    out += [0.0 * c for c in f.coeffs[n + 1 :]]
    return TaylorSeries(tuple(out), f.precision_bits)
