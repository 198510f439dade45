"""Truncated power series and the matrix-free triangular Toeplitz solver.

Coefficients may be ordinary Python complex/float numbers or mpmath numbers;
all operations are written generically so the same code path serves the
double-precision and extended-precision experiments.  Truncations stay in
the low thousands, so plain quadratic Cauchy products are used throughout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence


def _is_mp(x) -> bool:
    return type(x).__module__.startswith("mpmath")


def _exp(x):
    if _is_mp(x):
        import mpmath

        return mpmath.exp(x)
    return cmath.exp(complex(x))


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficients c_0..c_N of a power series truncated at degree N."""

    coeffs: tuple
    precision_bits: int = 53

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("TaylorSeries needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(degree: int, precision_bits: int = 53) -> "TaylorSeries":
        return TaylorSeries((0.0,) * (degree + 1), precision_bits)

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
    """Truncation of exp(g) via the recurrence n*e_n = sum k*g_k*e_{n-k}."""
    gc = g.coeffs
    n = len(gc)
    e = [_exp(gc[0])]
    for m in range(1, n):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * gc[k] * e[m - k]
        e.append(acc / m)
    return TaylorSeries(tuple(e), g.precision_bits)


def triangular_solve_upper_toeplitz(
    diag_and_superdiagonals: Sequence,
    rhs: Sequence,
    min_diag: float = 1e-300,
):
    """Solve sum_j conj(h_j) * x_{k+j} = rhs_k for k = 0..N by back-substitution.

    The matrix is upper triangular Toeplitz with (conjugated) first row
    ``diag_and_superdiagonals``; unknowns beyond the truncation are taken as
    zero, so the solve proceeds from the top index down.  A diagonal whose
    magnitude falls below ``min_diag`` signals a degenerate system (for a
    pair it would mean a(0) ~ 0, which cannot happen) and raises.
    """
    h = list(diag_and_superdiagonals)
    b = list(rhs)
    if len(h) != len(b):
        raise ValueError("coefficient and right-hand-side lengths differ")
    d = h[0].conjugate()
    if abs(d) < min_diag:
        raise ValueError(f"diagonal magnitude {abs(d)} below threshold {min_diag}")
    n = len(b)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = b[k]
        for j in range(1, n - k):
            acc = acc - h[j].conjugate() * x[k + j]
        x[k] = acc / d
    return x
