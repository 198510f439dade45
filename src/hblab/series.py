"""Truncated power series and the matrix-free triangular Toeplitz solver.

Coefficients are Python floats and complex numbers at 53 bits, or the
P-bit numbers of ``hblab.fixed`` above, which this module only carries:
its arithmetic is in floats, and every sum over P-bit coefficients is an
exact integer sum of ``hblab.fixed``.  ``exp_series`` is a plain O(N^2)
recurrence in floats; the long outer-function series come from the
O(N * cells) recurrence of ``hblab.taylor.outer_series``, which uses
``exp_series`` only as its low-degree oracle.
"""

from __future__ import annotations

import cmath
from typing import Sequence

from ._record import Record, _set


class TaylorSeries(Record):
    """Coefficients c_0..c_N of a power series truncated at degree N.

    ``error_bound``, where known, bounds the error of every coefficient
    relative to its size before its rounding to ``precision_bits``
    (``hblab.taylor.outer_series`` counts it); series made by any other
    operation carry None.  Equality and hash leave ``error_bound`` out.
    """

    __slots__ = ("coeffs", "precision_bits", "error_bound")
    _defaults = {"precision_bits": 53, "error_bound": None}

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("TaylorSeries needs at least the constant term")
        _set(self, "coeffs", tuple(self.coeffs))

    def _key(self) -> tuple:
        return (self.coeffs, self.precision_bits)

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, degree: int) -> "TaylorSeries":
        if degree >= self.truncation_degree:
            return self
        return TaylorSeries(self.coeffs[: degree + 1], self.precision_bits)

    def l2_norm_sq(self):
        return sum(abs(c) ** 2 for c in self.coeffs)


def exp_series(g: TaylorSeries) -> TaylorSeries:
    """Truncation of exp(g) via the recurrence n*e_n = sum k*g_k*e_{n-k},
    in floats from e_0 = exp(g_0).

    O(N^2) multiply-adds (Brent-Kung 1978); ``outer_series`` runs it to
    degree 32 as the independent check of its arc recurrence.
    """
    gc = g.coeffs
    n = len(gc)
    e = [cmath.exp(complex(gc[0]))]
    for m in range(1, n):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * gc[k] * e[m - k]
        e.append(acc / m)
    return TaylorSeries(tuple(e), g.precision_bits)


def triangular_solve_upper_toeplitz(diag_and_superdiagonals: Sequence, rhs: Sequence):
    """Solve sum_j conj(h_j) * x_{k+j} = rhs_k for k = 0..N by back-substitution.

    The matrix is upper triangular Toeplitz with (conjugated) first row
    ``diag_and_superdiagonals``; unknowns beyond the truncation are taken as
    zero, so the solve proceeds from the top index down, and each row's sum
    stops at the last nonzero h_j.  It runs in its operands' arithmetic,
    floats in ``hb.f_plus_solve``.  A diagonal of magnitude below 1e-300
    signals a degenerate system (for a pair it would mean a(0) ~ 0, which
    cannot happen) and raises ValueError.
    """
    h = [c.conjugate() for c in diag_and_superdiagonals]
    if len(h) != len(rhs):
        raise ValueError("coefficient and right-hand-side lengths differ")
    d = h[0]
    if abs(d) < 1e-300:
        raise ValueError(f"diagonal magnitude {abs(d)} below threshold 1e-300")
    n, m = len(rhs), _support_len(h)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(1, min(n - k, m)):
            acc = acc - h[j] * x[k + j]
        x[k] = acc / d
    return x


def _support_len(cs) -> int:
    """The number of coefficients up to the last nonzero one: a Toeplitz sum
    stops there, since every later term is an exact zero."""
    return next((m for m in range(len(cs), 0, -1) if cs[m - 1]), 0)
