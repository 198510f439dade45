"""Toeplitz operators, the f+ map, H(b) norms and reproducing kernels.

Functions in H(b) appear in two representations:

* :class:`~hblab.series.TaylorSeries` -- generic; norms take f+ as the
  Toeplitz product T_phi-bar f (``sarason_f_plus``) with the one phi-hat
  of ``Pair.phi_hat``, and the l2 sums of
  ||f||^2 = ||f||_{H^2}^2 + ||f+||_{H^2}^2.  The triangular-Toeplitz solve
  of T_b-bar f = T_a-bar f+ (``f_plus_solve``) on the series of a and b is
  kept as the independent oracle.  Every Toeplitz product is the one
  T_h-bar, ``toeplitz_coanalytic_apply``.  The product, the solve, the
  series norms, ``dilate`` and ``kernel_hb`` do their arithmetic in
  floats and take 53-bit series only; the P-bit sums live in
  ``hblab.fixed``.
* :class:`KernelCombo` -- finite combinations sum_j c_j k_{w_j} of Cauchy
  kernels with positive data, where f+ = sum_j c_j conj(phi(w_j)) k_{w_j}
  gives closed Gram-form norms that survive in log-domain when the phi
  values overflow every float format.

Of hblab's modules, importing this one loads only ``_record``, ``pair``
and, through ``pair``, the leaf ``errors`` (``pair`` is light: it imports
``outer`` and ``logscalar`` at call time).
``hblab.series`` is imported by the functions on Taylor series and
``hblab.logscalar`` by those on kernel combinations, each when it runs:
the ``divergence`` verb, which works on kernel combinations alone, compiles
no ``series``, and ``norm-crosscheck``, on Taylor series alone, no
``logscalar``.
"""

from __future__ import annotations

import math
from typing import Union

from ._record import Record
from .pair import Pair


class Radius(Record):
    """A radius r in (0, 1] carried together with log(1 - r), so radii
    exponentially close to 1 keep full precision."""

    __slots__ = ("value", "log_one_minus")

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
    """One term c * k_w with positive real c stored via its float log and
    real w in (0, 1) stored via log(1 - w)."""

    __slots__ = ("log_c", "log_one_minus_w")

    @property
    def w(self) -> float:
        return 1.0 - math.exp(max(self.log_one_minus_w, -745.0))


class KernelCombo(Record):
    """f = sum_j c_j k_{w_j} with all-positive data (the construction's
    regime); norms and point values admit closed log-domain forms."""

    __slots__ = ("nodes",)

    def __post_init__(self):
        for nd in self.nodes:
            if not nd.log_c > -math.inf:  # a zero coefficient, or NaN
                raise ValueError(
                    "KernelCombo requires positive real coefficients, each log_c above -inf; "
                    "use the TaylorSeries representation for signed data"
                )
            if nd.log_one_minus_w >= 0.0:
                raise ValueError("kernel nodes must have w in (0, 1)")


HbFunction = Union["TaylorSeries", KernelCombo]


# -- Toeplitz operators ---------------------------------------------------


def toeplitz_coanalytic_apply(h: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """T_h-bar f: output coefficient k is sum_j conj(h_j) f_{k+j}, exact on
    the polynomial f when h reaches its degree; an h with fewer
    coefficients than f raises ValueError.

    The one Toeplitz product of hblab on series, in floats: an operand
    carried above 53 bits raises ValueError (the P-bit sums are the exact
    integers of ``fixed.fixed_toeplitz``).  Each sum stops at h's last
    nonzero coefficient: a symbol whose support is its first m
    coefficients costs O(m) per output coefficient, so the tame pair's
    zero-padded two-term a-hat and b-hat cost O(len f) in all.
    """
    from .series import TaylorSeries, _support_len

    n = len(f.coeffs)
    if len(h.coeffs) < n:
        raise ValueError(f"symbol has {len(h.coeffs)} coefficients, fewer than the {n} of f")
    if max(h.precision_bits, f.precision_bits) > 53:
        raise ValueError("toeplitz_coanalytic_apply takes 53-bit float series only")
    hc = [c.conjugate() for c in h.coeffs[: _support_len(h.coeffs[:n])]]
    fc = f.coeffs
    out = []
    for k in range(n):
        acc = 0.0
        for j in range(min(n - k, len(hc))):
            acc = acc + hc[j] * fc[k + j]
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


def f_plus_residual(rhs: TaylorSeries, f_plus: TaylorSeries, pair: Pair) -> float:
    """||T_a-bar f+ - rhs||_{H^2} at the shared truncation, where rhs is
    T_b-bar f as ``f_plus_solve`` formed it, in floats."""
    lhs = toeplitz_coanalytic_apply(pair.a_series, f_plus)
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(lhs.coeffs, rhs.coeffs)))


def f_plus_solve(f: TaylorSeries, pair: Pair) -> TaylorSeries:
    """The unique f+ with T_b-bar f = T_a-bar f+, on truncated coefficients.

    Forms T_b-bar f once (``toeplitz_coanalytic_apply``) and solves the
    upper-triangular Toeplitz system by back-substitution at the degree d
    of f, in floats, each row's sum stopping at a-hat's last nonzero
    coefficient: f or a pair series carried above 53 bits raises
    ValueError.  T_a-bar maps the polynomials of degree <= d onto
    themselves, so for a polynomial the truncation at d is exact: a solve
    at any larger degree gives the same coefficients and exact zeros past d.
    The defect residual ||T_a-bar f+ - T_b-bar f|| is checked against
    1e-9 ||f|| and a violation raises ArithmeticError.  It reads a-hat and
    b-hat, never phi, so it is the one independent oracle of the product
    route that the norms use, ``sarason_f_plus`` with ``Pair.phi_hat``; for
    the monomial z^N its output reversed is conj(phi-hat) to degree N.
    """
    from .series import TaylorSeries, triangular_solve_upper_toeplitz

    degree = f.truncation_degree
    pair = _series_pair(pair, degree)
    if max(f.precision_bits, pair.a_series.precision_bits, pair.b_series.precision_bits) > 53:
        raise ValueError("f_plus_solve takes 53-bit float series only")
    a = pair.a_series.truncate(degree)
    rhs = toeplitz_coanalytic_apply(pair.b_series, f)
    x = triangular_solve_upper_toeplitz(a.coeffs, rhs.coeffs)
    f_plus = TaylorSeries(tuple(x), min(a.precision_bits, f.precision_bits))
    scale = math.sqrt(f.l2_norm_sq()) or 1.0
    res = f_plus_residual(rhs, f_plus, pair)
    if res > _RESIDUAL_TOL * scale:
        raise ArithmeticError(f"f+ residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||f||")
    return f_plus


def _log_phi_at_nodes(combo: KernelCombo, pair: Pair) -> list:
    """log phi(w_j) at the nodes of ``combo``, one float per node."""
    return [pair.log_phi_radial_at(nd.log_one_minus_w) for nd in combo.nodes]


def _gram_log_terms(combo: KernelCombo, lphi: list):
    """Log magnitudes of the terms of ||f||^2 + ||f+||^2 =
    sum_{i,j} c_i c_j (1 + phi_i phi_j) / (1 - w_i w_j), given
    lphi = ``_log_phi_at_nodes(combo, pair)``: one pass over the node pairs
    yields the plain term and then the one with phi values."""
    from .logscalar import log1m_product

    nodes = combo.nodes
    for ni, lpi in zip(nodes, lphi):
        for nj, lpj in zip(nodes, lphi):
            lm = ni.log_c + nj.log_c - log1m_product(ni.log_one_minus_w, nj.log_one_minus_w)
            yield lm
            yield lm + (lpi + lpj)


def hb_norm_sq(f: HbFunction, pair: Pair) -> float:
    """log ||f||^2_{H(b)}, the log of ||f||^2_{H^2} + ||f+||^2_{H^2}, as a
    float.

    TaylorSeries take f+ = T_phi-bar f (``sarason_f_plus`` with
    ``Pair.phi_hat``), exact for the truncated polynomial, and sum the
    squares in floats: a series carried above 53 bits raises ValueError,
    and so does a NaN sum.  KernelCombos use the closed Gram forms with
    f+ = sum c_j conj(phi(w_j)) k_{w_j}, entirely in log-domain.
    """
    from .logscalar import log_sum_exp

    if isinstance(f, KernelCombo):
        return log_sum_exp(_gram_log_terms(f, _log_phi_at_nodes(f, pair)))
    if f.precision_bits > 53:
        raise ValueError("hb_norm_sq takes 53-bit float series only")
    f_plus = sarason_f_plus(f, pair.phi_hat(f.truncation_degree, f.precision_bits))
    log_total = math.log(f.l2_norm_sq() + f_plus.l2_norm_sq())
    if math.isnan(log_total):
        raise ValueError("hb_norm_sq of a series with NaN coefficients")
    return log_total


def kernel_hb(w: complex, pair: Pair, degree: int) -> TaylorSeries:
    """H(b) reproducing kernel k_w^b(z) = (1 - conj(b(w)) b(z)) k_w(z), with
    k_w(z) = 1/(1 - conj(w) z), truncated at ``degree``, in floats: a pair
    carrying b above 53 bits raises ValueError.  b(w) is taken by Horner,
    and the coefficients are the Cauchy product of 1 - conj(b(w)) b-hat
    with conj(w)^k."""
    from .series import TaylorSeries

    if abs(w) >= 1:
        raise ValueError("kernel_hb requires |w| < 1")
    pair = _series_pair(pair, degree)
    b = pair.b_series.truncate(degree)
    if b.precision_bits > 53:
        raise ValueError("kernel_hb takes 53-bit float series only")
    bw = b.coeffs[-1]
    for c in reversed(b.coeffs[:-1]):
        bw = bw * w + c
    bw_conj, wc = complex(bw).conjugate(), complex(w).conjugate()
    factor, kw, p = [], [], 1.0 + 0j
    for k, c in enumerate(b.coeffs):
        factor.append((1.0 + 0j if k == 0 else 0.0) + -1.0 * (bw_conj * c))
        kw.append(p)
        p = p * wc
    out = (sum(factor[j] * kw[k - j] for j in range(k + 1)) for k in range(len(kw)))
    return TaylorSeries(tuple(out), b.precision_bits)


def _ccond_log_terms(f: KernelCombo, lphi: list) -> list:
    """The float logs of the terms of ``kernel_combo_ccond_check``, given
    lphi = ``_log_phi_at_nodes(f, pair)``; a NaN passes through."""
    from .logscalar import log1p_exp

    return [
        nd.log_c + log1p_exp(lp) - 0.5 * nd.log_one_minus_w for nd, lp in zip(f.nodes, lphi)
    ]


def kernel_combo_ccond_check(f: KernelCombo, pair: Pair) -> list:
    """Termwise log(|c_j| (1 + |phi(w_j)|) (1 - w_j)^{-1/2}) as floats; a
    NaN term raises ValueError.

    Summability of these terms is the admissibility condition for kernel
    combinations; for the construction's coefficients each term is at most
    2/j^2.  ``build_divergent_combo`` sums ``_ccond_log_terms`` under its
    own check; this public form stays because the condition holds for any
    kernel combination, not only the constructed one, and the tests read
    it on combinations of their own (a dilate, a NaN pair, one kernel).
    """
    out = _ccond_log_terms(f, _log_phi_at_nodes(f, pair))
    if any(map(math.isnan, out)):
        raise ValueError("admissibility term must not be NaN")
    return out


def sarason_f_plus(f: TaylorSeries, phi_hat: TaylorSeries) -> TaylorSeries:
    """f+ by the coefficient formula f+hat(k) = sum_j fhat(j+k) conj(phihat(j)).

    Valid whenever the inner series converges absolutely for each k (always
    for polynomials, where it is exact with phi-hat to the degree of f); a
    phi-hat with fewer coefficients than f raises ValueError.  With phi-hat
    from ``Pair.phi_hat`` this is the route of ``hb_norm_sq`` on a
    TaylorSeries; ``f_plus_solve`` is its independent oracle, and
    ``experiments.summability_divergence`` sums the same products as exact
    integers (``fixed.fixed_toeplitz``).  It is T_phi-hat-bar f, the one
    product ``toeplitz_coanalytic_apply``, in floats: a series carried
    above 53 bits raises ValueError.
    """
    return toeplitz_coanalytic_apply(phi_hat, f)


# -- dilation ---------------------------------------------------------------


def dilate(f: HbFunction, r: Union[float, Radius]) -> HbFunction:
    """f_r(z) = f(rz): coefficient k scaled by r**k, or w_j -> r w_j using
    k_w(rz) = k_{rw}(z) for real w.  r**k is a float product, so a series
    carried above 53 bits raises ValueError."""
    rad = as_radius(r)
    if isinstance(f, KernelCombo):
        from .logscalar import log1m_product

        lr = rad.log_one_minus
        return KernelCombo(
            tuple(KernelNode(nd.log_c, log1m_product(lr, nd.log_one_minus_w)) for nd in f.nodes)
        )
    from .series import TaylorSeries

    if f.precision_bits > 53:
        raise ValueError("dilate takes 53-bit float series only")
    out, p = [], 1.0
    for c in f.coeffs:
        out.append(c * p)
        p *= rad.value
    return TaylorSeries(tuple(out), f.precision_bits)
