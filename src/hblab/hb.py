"""Toeplitz operators, the f+ map, H(b) norms and reproducing kernels.

Functions in H(b) appear in two representations:

* :class:`~hblab.series.TaylorSeries` -- generic; norms go through the
  triangular-Toeplitz solve of T_b-bar f = T_a-bar f+ and the coefficient
  l2 sums of the norm identity ||f||^2 = ||f||_{H^2}^2 + ||f+||_{H^2}^2.
* :class:`KernelCombo` -- finite combinations sum_j c_j k_{w_j} of Cauchy
  kernels with positive data, where f+ = sum_j c_j conj(phi(w_j)) k_{w_j}
  gives closed Gram-form norms that survive in log-domain when the phi
  values overflow every float format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .logscalar import LogScalar, log1p_exp, log_add_exp, log_sum_exp
from .pair import Pair
from .series import TaylorSeries, triangular_solve_upper_toeplitz


@dataclass(frozen=True)
class Radius:
    """A radius r in (0, 1] carried together with log(1 - r), so radii
    exponentially close to 1 keep full precision."""

    value: float
    log_one_minus: float

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


@dataclass(frozen=True)
class KernelNode:
    """One term c * k_w with positive real c (as LogScalar) and real
    w in (0, 1) stored via log(1 - w)."""

    log_c: LogScalar
    log_one_minus_w: float

    @property
    def w(self) -> float:
        return 1.0 - math.exp(max(self.log_one_minus_w, -745.0))


@dataclass(frozen=True)
class KernelCombo:
    """f = sum_j c_j k_{w_j} with all-positive data (the construction's
    regime); norms and point values admit closed log-domain forms."""

    nodes: tuple

    def __post_init__(self):
        for nd in self.nodes:
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
    if (
        pair.a_series is None
        or pair.b_series is None
        or pair.a_series.truncation_degree < degree
    ):
        return pair.with_series(degree)
    return pair


def f_plus_residual(f: TaylorSeries, f_plus: TaylorSeries, pair: Pair) -> float:
    """||T_a-bar f+ - T_b-bar f||_{H^2} at the shared truncation."""
    lhs = toeplitz_coanalytic_apply(pair.a_series, f_plus)
    rhs = toeplitz_coanalytic_apply(pair.b_series, f)
    return math.sqrt(abs(float((lhs - rhs).l2_norm_sq())))


def f_plus_solve(
    f: TaylorSeries,
    pair: Pair,
    tol: float = 1e-9,
    degree: Optional[int] = None,
) -> TaylorSeries:
    """The unique f+ with T_b-bar f = T_a-bar f+, on truncated coefficients.

    Solves the upper-triangular Toeplitz system by back-substitution at a
    working degree defaulting to 4x the input degree, then truncates back.
    The defect residual ||T_a-bar f+ - T_b-bar f|| is checked against
    tol * ||f||; a violation signals that the truncation is too small.
    """
    if degree is None:
        degree = max(4 * f.truncation_degree, 16)
    pair = _series_pair(pair, degree)
    a = pair.a_series.truncate(degree)
    b = pair.b_series.truncate(degree)
    fx = f.pad(degree).truncate(degree)
    rhs = toeplitz_coanalytic_apply(b, fx)
    x = triangular_solve_upper_toeplitz(a.coeffs, rhs.coeffs)
    f_plus = TaylorSeries(tuple(x), min(a.precision_bits, f.precision_bits))
    scale = math.sqrt(abs(float(fx.l2_norm_sq()))) or 1.0
    res = f_plus_residual(fx, f_plus, pair)
    if res > tol * scale:
        raise ArithmeticError(
            f"f+ residual {res:.3e} exceeds {tol:.1e} * ||f||; "
            "increase the working degree"
        )
    return f_plus


def _log_of_positive(x) -> float:
    """Natural log of a positive number that may be float or mpmath."""
    if type(x).__module__.startswith("mpmath"):
        import mpmath

        return float(mpmath.log(x))
    return math.log(x)


def _gram_log_terms(combo: KernelCombo, pair: Pair, with_phi: bool):
    """Log-domain terms of sum_{i,j} c_i c_j [phi_i phi_j] / (1 - w_i w_j)."""
    nodes = combo.nodes
    lphi = [pair.log_phi_radial_at(nd.log_one_minus_w) for nd in nodes] if with_phi else None
    terms = []
    for i, ni in enumerate(nodes):
        di = math.exp(max(ni.log_one_minus_w, -745.0))
        for j, nj in enumerate(nodes):
            # 1 - w_i w_j = d_i + d_j (1 - d_i), no cancellation
            log_denom = log_add_exp(
                ni.log_one_minus_w, nj.log_one_minus_w + math.log1p(-di)
            )
            lm = ni.log_c.log_mag + nj.log_c.log_mag - log_denom
            if with_phi:
                lm += lphi[i] + lphi[j]
            terms.append(LogScalar.exp_of(lm))
    return terms


def hb_norm_sq(f: HbFunction, pair: Pair) -> LogScalar:
    """||f||^2_{H(b)} = ||f||^2_{H^2} + ||f+||^2_{H^2} as a LogScalar.

    TaylorSeries go through f_plus_solve; KernelCombos use the closed Gram
    forms with f+ = sum c_j conj(phi(w_j)) k_{w_j}, entirely in log-domain.
    """
    if isinstance(f, KernelCombo):
        plain = _gram_log_terms(f, pair, with_phi=False)
        plussed = _gram_log_terms(f, pair, with_phi=True)
        return log_sum_exp(plain + plussed)
    f_plus = f_plus_solve(f, pair)
    total = f.l2_norm_sq() + f_plus.l2_norm_sq()
    return LogScalar.exp_of(_log_of_positive(total))


def hb_inner(f: TaylorSeries, g: TaylorSeries, pair: Pair):
    """<f, g>_{H(b)} = <f, g>_{H^2} + <f+, g+>_{H^2}."""
    fp = f_plus_solve(f, pair)
    gp = f_plus_solve(g, pair)
    return f.inner(g) + fp.inner(gp)


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
    for polynomials); this is the independent cross-check against the
    triangular-solve route.
    """
    nf = len(f.coeffs)
    out = []
    for k in range(nf):
        acc = 0.0
        for j in range(min(nf - k, len(phi_hat.coeffs))):
            acc = acc + f.coeffs[j + k] * phi_hat.coeffs[j].conjugate()
        out.append(acc)
    return TaylorSeries(tuple(out), min(f.precision_bits, phi_hat.precision_bits))


# -- dilation, partial sums, Cesaro means ---------------------------------


def dilate(f: HbFunction, r: Union[float, Radius]) -> HbFunction:
    """f_r(z) = f(rz): coefficient k scaled by r**k, or w_j -> r w_j using
    k_w(rz) = k_{rw}(z) for real w."""
    rad = as_radius(r)
    if isinstance(f, KernelCombo):
        lr = rad.log_one_minus
        one_minus_r = math.exp(max(lr, -745.0))
        nodes = []
        for nd in f.nodes:
            # 1 - r w = (1-r) + r (1-w)
            ld = log_add_exp(lr, nd.log_one_minus_w + math.log1p(-one_minus_r))
            nodes.append(KernelNode(nd.log_c, ld))
        return KernelCombo(tuple(nodes))
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
    """sigma_n(f) = mean of s_0..s_n: Fejer weights (n+1-j)/(n+1)."""
    if n < 0:
        raise ValueError(f"Cesaro order must be >= 0, got {n}")
    if n > f.truncation_degree:
        raise ValueError("Cesaro order exceeds truncation degree")
    out = []
    for j, c in enumerate(f.coeffs):
        out.append(c * ((n + 1 - j) / (n + 1)) if j <= n else 0.0 * c)
    return TaylorSeries(tuple(out), f.precision_bits)
