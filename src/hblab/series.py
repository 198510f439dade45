"""Truncated power series and the matrix-free triangular Toeplitz solver.

Coefficients may be ordinary Python complex/float numbers or mpmath numbers;
all operations are written generically so the same code path serves the
double-precision and extended-precision experiments.  Products and
``exp_series`` are plain O(N^2) recurrences; the long outer-function series
come from the O(N * cells) recurrence of ``hblab.taylor.outer_series``, which
uses ``exp_series`` only as its low-degree oracle.

The ``fixed_*`` helpers are the one aligned-mantissa format of every exact
integer sum at extended precision: integers on one scale 2^e, summed
exactly and rounded to mpmath once.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Optional, Sequence

from ._record import Record, _set


def _is_mp(x) -> bool:
    return type(x).__module__.startswith("mpmath")


def _exp(x):
    if _is_mp(x):
        import mpmath

        return mpmath.exp(x)
    return cmath.exp(complex(x))


class TaylorSeries(Record):
    """Coefficients c_0..c_N of a power series truncated at degree N.

    ``error_bound``, where known, bounds the error of every coefficient
    relative to its size before its rounding to ``precision_bits``
    (``hblab.taylor.outer_series`` counts it); series made by any other
    operation carry None.  Equality and hash leave ``error_bound`` out.
    """

    __slots__ = ("coeffs", "precision_bits", "error_bound")

    def __init__(
        self, coeffs: tuple, precision_bits: int = 53, error_bound: Optional[float] = None
    ):
        if len(coeffs) == 0:
            raise ValueError("TaylorSeries needs at least the constant term")
        _set(self, "coeffs", tuple(coeffs))
        _set(self, "precision_bits", precision_bits)
        _set(self, "error_bound", error_bound)

    def _key(self) -> tuple:
        return (self.coeffs, self.precision_bits)

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(c, degree: int, precision_bits: int = 53) -> "TaylorSeries":
        return TaylorSeries((c,) + (0.0,) * degree, precision_bits)

    def __call__(self, z):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TaylorSeries(
            tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])),
            min(self.precision_bits, other.precision_bits),
        )

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        return self + other.scale(-1.0)

    def scale(self, c) -> "TaylorSeries":
        return TaylorSeries(tuple(c * a for a in self.coeffs), self.precision_bits)

    def __mul__(self, other: "TaylorSeries") -> "TaylorSeries":
        """Cauchy product truncated at the smaller truncation degree."""
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n):
            out.append(sum(a[j] * b[k - j] for j in range(k + 1)))
        return TaylorSeries(tuple(out), min(self.precision_bits, other.precision_bits))

    def truncate(self, degree: int) -> "TaylorSeries":
        if degree >= self.truncation_degree:
            return self
        return TaylorSeries(self.coeffs[: degree + 1], self.precision_bits)

    def pad(self, degree: int) -> "TaylorSeries":
        if degree <= self.truncation_degree:
            return self
        return TaylorSeries(
            self.coeffs + (0.0,) * (degree - self.truncation_degree),
            self.precision_bits,
        )

    def l2_norm_sq(self):
        return sum(abs(c) ** 2 for c in self.coeffs)

    def inner(self, other: "TaylorSeries"):
        """H^2 pairing: sum of c_k * conj(d_k) over the shared range."""
        n = min(len(self.coeffs), len(other.coeffs))
        return sum(self.coeffs[k] * other.coeffs[k].conjugate() for k in range(n))


def exp_series(g: TaylorSeries) -> TaylorSeries:
    """Truncation of exp(g) via the recurrence n*e_n = sum k*g_k*e_{n-k}.

    O(N^2) multiply-adds (Brent-Kung 1978); ``outer_series`` runs it to
    degree 32 as the independent check of its arc recurrence.
    """
    gc = g.coeffs
    n = len(gc)
    e = [_exp(gc[0])]
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
    stops at the last nonzero h_j.  On mpmath numbers it runs at the ambient
    precision, which ``hb.f_plus_solve`` sets to its operands'.  A diagonal
    of magnitude below 1e-300 signals a degenerate system (for a pair it
    would mean a(0) ~ 0, which cannot happen) and raises ValueError.
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


def fixed_mantissas(xs):
    """Integers m_i and one exponent e with xs[i] = m_i 2^e exactly, for
    real mpmath numbers, floats and ints: every mantissa aligned to the
    smallest exponent, so a dot product of two aligned sequences is one
    integer sum (``fixed_dot``)."""
    pairs = []
    for x in xs:
        if isinstance(x, int):
            pairs.append((x, 0))
            continue
        if isinstance(x, float):
            m, e = math.frexp(x)
            pairs.append((int(m * 2.0**53), e - 53))
            continue
        sign, man, e, bc = x._mpf_
        if not man and bc:
            raise ValueError(f"fixed_mantissas needs finite numbers, got {x}")
        pairs.append((-man if sign else man, e))
    low = min((e for m, e in pairs if m), default=0)
    return [m << (e - low) if m else 0 for m, e in pairs], low


def fixed_dot(xs, ys) -> int:
    """sum_i xs[i] ys[i] over integer mantissas on one scale, exact; zip
    stops at the shorter sequence, so either may be a stream."""
    return sum(map(operator.mul, xs, ys))


def fixed_toeplitz(hs, fs) -> list:
    """sum_j hs[j] fs[k+j] for k = 0..len(fs)-1, the coefficients of T_h-bar f
    for a real symbol, as exact integers over mantissas on one scale each
    (``fixed_mantissas``), so on the product of the two scales, unrounded;
    each sum stops at the shorter sequence."""
    return [fixed_dot(fs[k:], hs) for k in range(len(fs))]


@functools.cache
def _mpf_names() -> tuple:
    """mpmath's make_mpf, from_man_exp and round_nearest, imported on the
    first call only, so a float-only process never loads mpmath."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp, round_nearest

    return mp.make_mpf, from_man_exp, round_nearest


def fixed_to_mpf(man: int, exp: int, bits: int):
    """man 2^exp as an mpmath number rounded once, to nearest, at ``bits``."""
    make_mpf, from_man_exp, rnd = _mpf_names()
    return make_mpf(from_man_exp(man, exp, bits, rnd))
