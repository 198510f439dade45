"""Construction of the half-plane outer function and its disk pullback.

The boundary datum is a sum of indicator steps on intervals [2t_k, 3t_k] of
the positive real axis with heights eps_k / t_k, where

    w_n = 1 - exp(-n**beta),   rho_n = exp(-n**alpha),
    t_k = (1 - w_k**2) / (1 + w_k**2),
    eps_k = ((1 - w_k) / (1 - w_{k+1})) * rho_k.

The Herglotz integral of a step datum has a closed form per interval, so the
outer function is evaluated exactly (no grids).  On the positive imaginary
axis everything reduces to arctangent differences, which this module also
provides in a fully log-domain form that remains valid when t_k, u_n, v_n
underflow every floating-point format.

This module imports ``hblab.logscalar`` and the leaf ``hblab.errors``,
whose three errors it re-exports.  The growth checks and the quadrature
oracle live in ``hblab.growth``, which only ``verify-outer``, ``construct``
with ``power_m`` "auto", the growth scan and the demos run: the first
access here to one of their public names, those that the package's
``hblab._EXPORTS`` maps to ``growth`` (``growth_log_ratio``,
``verify_growth_bound``, ``choose_power_m``, ``growth_bound_scan``,
``poisson_quad_crosscheck`` and their record classes), loads it (PEP 562)
and binds the name in this module, where a tracer that rebinds module
attributes finds it.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record

# re-exported: the errors the CLI maps to exit codes live in a leaf module
from .errors import GrowthBoundError, ParameterError, PrecisionExhausted  # noqa: F401
from .logscalar import clog1p, log1p_exp, log_sum_exp

_LN2 = math.log(2.0)
_LN6 = math.log(6.0)
_LNPI = math.log(math.pi)


class ConstructionParams(Record):
    """Parameters of the construction; requires 1 < alpha < beta < alpha + 1."""

    __slots__ = ("alpha", "beta", "n_terms", "power_m", "precision_bits", "n_check")
    _defaults = {"n_terms": 8, "power_m": "auto", "precision_bits": 53, "n_check": 5}

    def __post_init__(self):
        if not (1.0 < self.alpha < self.beta < self.alpha + 1.0):
            raise ParameterError(
                f"need 1 < alpha < beta < alpha+1, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.n_terms < 2:
            raise ParameterError("n_terms must be at least 2")
        if not (1 <= self.n_check <= self.n_terms - 1):
            raise ParameterError("n_check must satisfy 1 <= n_check <= n_terms - 1")
        if self.power_m != "auto":
            if not isinstance(self.power_m, int) or self.power_m < 1:
                raise ParameterError("power_m must be a positive integer or 'auto'")
        if self.precision_bits < 24:
            raise ParameterError("precision_bits must be at least 24")

    def resolved_power(self) -> int:
        if self.power_m == "auto":
            raise ParameterError(
                "power_m is 'auto'; resolve it with choose_power_m (or set it explicitly)"
            )
        return self.power_m


def _params_dict(params: ConstructionParams) -> dict:
    """The construction parameters as a report records them: every field
    but ``precision_bits``, which each report states in its metadata."""
    return {f: v for f, v in params._asdict().items() if f != "precision_bits"}


# -- log-domain scalar sequences ------------------------------------------


def log_delta(params: ConstructionParams, n: int) -> float:
    """log(1 - w_n) = -n**beta."""
    return -float(n) ** params.beta


def log_eps(params: ConstructionParams, k: int) -> float:
    """log eps_k = (k+1)**beta - k**beta - k**alpha."""
    kk = float(k)
    return (kk + 1.0) ** params.beta - kk ** params.beta - kk ** params.alpha


def log_rho(params: ConstructionParams, n: int) -> float:
    return -float(n) ** params.alpha


def log_t(params: ConstructionParams, n: int) -> float:
    """log t_n with t_n = (1 - w_n**2)/(1 + w_n**2) = d(2-d)/(1+(1-d)^2)."""
    ld = log_delta(params, n)
    if ld < -700.0:
        return ld  # limit d->0: t = d within relative error d
    d = math.exp(ld)
    return ld + math.log(2.0 - d) - math.log(1.0 + (1.0 - d) ** 2)


def log_cayley_im(ld: float) -> float:
    """log of (1-x)/(1+x) for x = 1 - exp(ld) in (0, 1)."""
    if ld < -700.0:
        return ld - _LN2
    d = math.exp(ld)
    return ld - math.log(2.0 - d)


# {(alpha, beta): (row k for k = 0, 1, ...)} for the most recent (alpha,
# beta) only, so a parameter sweep holds one table; row 0 is padding
_LOG_T_EPS: dict = {}


def _log_t_eps(params: ConstructionParams, n: int) -> tuple:
    """Rows (log t_k, log eps_k, D_k, log eps_k - log t_k - log pi) to
    k >= n: the prefix maximum D_k = max_{j <= k} (log eps_j - 2 log t_j)
    bounds the terms of ``growth_log_ratio`` from interval k down, and
    log(eps_k/(pi t_k)) weighs interval k's arctangents in both radial
    evaluators.  Each is a fact of k and the exponents alone, so the radial
    evaluators share the table of the most recent (alpha, beta); a longer
    one, or another pair's, replaces it whole, never in part."""
    global _LOG_T_EPS
    key = (params.alpha, params.beta)
    table = _LOG_T_EPS.get(key, ((math.nan, math.nan, -math.inf, math.nan),))
    if len(table) <= n:
        rows = []
        d_max = table[-1][2]
        for k in range(len(table), n + 1):
            lt, le = log_t(params, k), log_eps(params, k)
            d_max = max(d_max, le - 2.0 * lt)
            rows.append((lt, le, d_max, le - lt - _LNPI))
        table = table + tuple(rows)
        _LOG_T_EPS = {key: table}
    return table


class Sequences(Record):
    """Float sequences (indices 1..N, plus w_{N+1}) for the construction.

    The underflow-prone rho and eps are carried as float logs; the float
    views w and t exist for reporting and for the closed-form complex
    evaluators, which are only used at desk-scale parameters.
    """

    # w[1..N+1] and t[1..N+1], floats, w[0] nan padding; log rho[1..N] and
    # log eps[1..N], index 0 -inf padding
    __slots__ = ("params", "w", "log_rho", "t", "log_eps")

    def delta(self, n: int) -> float:
        return math.exp(log_delta(self.params, n))

    def v(self, n: int) -> float:
        d = self.delta(n)
        return d / (2.0 - d)


def _check_float_range(params: ConstructionParams):
    """Raise ParameterError unless (N+1)**beta <= 700, so that the float
    sequences of a pair keep delta_{N+1} = exp(-(N+1)**beta) a normal
    float."""
    if float(params.n_terms + 1) ** params.beta > 700.0:
        raise ParameterError(
            "n_terms too large for float-range sequences; "
            "use the log-domain asymptotic evaluators instead"
        )


def make_sequences(params: ConstructionParams) -> Sequences:
    """Populate w, rho, t, eps for indices 1..N in log-domain arithmetic."""
    _check_float_range(params)
    n_top = params.n_terms + 1
    nan = float("nan")
    w = [nan]
    t = [nan]
    for n in range(1, n_top + 1):
        d = math.exp(log_delta(params, n))
        w.append(1.0 - d)
        t.append(math.exp(log_t(params, n)))
    indices = range(1, params.n_terms + 1)
    rho = (-math.inf,) + tuple(log_rho(params, n) for n in indices)
    eps = (-math.inf,) + tuple(log_eps(params, k) for k in indices)
    seq = Sequences(params, tuple(w), rho, tuple(t), eps)
    _check_sequences(seq)
    return seq


def _check_sequences(seq: Sequences):
    n = seq.params.n_terms
    for k in range(1, n + 1):
        if not (0.0 < seq.w[k] < seq.w[k + 1] < 1.0):
            raise ParameterError(f"w must be strictly increasing in (0,1) at index {k}")
        if not (0.0 < seq.t[k + 1] < seq.t[k] < 1.0):
            raise ParameterError(f"t must be strictly decreasing in (0,1) at index {k}")
        d = seq.delta(k)
        v = seq.v(k)
        if not (d / 2.0 <= v and seq.t[k] <= 2.0 * d):
            raise ParameterError(f"sequence inequalities violated at index {k}")


def check_rho_condition(seq: Sequences, n: int) -> float:
    """The tail ratio (sum_{k=n+1..N} eps_k) / rho_n, as a float: the
    tail is ``log_sum_exp`` of the log eps_k.

    The limiting construction wants this to vanish as n grows, but the
    leading tail term alone gives eps_{n+1}/rho_n =
    exp((n+2)**beta - (n+1)**beta - (n+1)**alpha + n**alpha), whose
    exponent ~ beta*n**(beta-1) grows without bound for beta > 1.  The
    table is therefore reported as observed, never asserted to decrease.
    """
    params = seq.params
    if not (1 <= n < params.n_terms):
        raise ValueError("need 1 <= n < n_terms")
    tail = log_sum_exp(seq.log_eps[n + 1 : params.n_terms + 1])
    return math.exp(tail - seq.log_rho[n])


# -- closed-form complex evaluators ---------------------------------------


def cayley(z):
    """i(1-z)/(1+z): unit disk to upper half-plane."""
    if 1 + z == 0:
        raise ValueError("Cayley transform has a pole at z = -1")
    return 1j * (1 - z) / (1 + z)


def log_Phi_halfplane(z, seq: Sequences):
    """log Phi(z) for Im z > 0, summing the per-interval closed forms.

    Each interval [2t, 3t] of height eps/t contributes

        eps/(pi*i*t) * [ log((3t-z)/(2t-z)) - (1/2) log((9t^2+1)/(4t^2+1)) ],

    the Herglotz integral of the indicator; the principal branch is safe
    because (3t-z)/(2t-z) stays off the negative real axis for Im z > 0.
    Intervals that are vanishingly small against |z| switch to the first
    order expansion -eps/(pi*i) * (1/z + 5t/(2z^2) + 5t/2) to avoid 0*inf.
    With lo = 2t - z, log((3t-z)/(2t-z)) is log1p(t/lo) where |t/lo| <= 1/2
    and log((lo + t)/lo) elsewhere: near either end of the interval the real
    part of lo or of lo + t is then exact (Sterbenz), so the log keeps its
    relative precision up to the ends.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("log_Phi_halfplane requires Im z > 0")

    total = 0
    az = abs(z)
    for k in range(1, seq.params.n_terms + 1):
        t = seq.t[k]
        eps = math.exp(seq.log_eps[k])
        if t < 1e-12 * az:
            term = eps / (math.pi * 1j) * (-1.0 / z - 2.5 * t / (z * z) - 2.5 * t)
        else:
            lo = complex(2 * t - z.real, -z.imag)
            w = t / lo
            # log((3t-z)/(2t-z)): log1p(w) is stable as t -> 0
            ratio = clog1p(w) if abs(w) <= 0.5 else cmath.log(complex(lo.real + t, -z.imag) / lo)
            term = (
                eps
                / (math.pi * 1j * t)
                * (ratio - 0.5 * clog1p(5 * t * t / (4 * t * t + 1.0)))
            )
        total = total + term
    return total


def log_phi_disk(z, seq: Sequences):
    """log of the symmetrized disk function raised to the power m of
    ``seq.params``.

    phi(z) = [Phi(cayley(z)) * conj(Phi(cayley(conj z)))]**m; the result is
    real (up to rounding) on (-1, 1) and has nonnegative real part on the
    disk.
    """
    m = seq.params.resolved_power()
    if abs(z) >= 1:
        raise ValueError("log_phi_disk requires |z| < 1")
    a = log_Phi_halfplane(cayley(z), seq)
    b = log_Phi_halfplane(cayley(z.conjugate()), seq)
    return m * (a + b.conjugate())


# -- log-domain radial evaluators -----------------------------------------


def _log_atan_diff(log_q: float) -> float:
    """log(atan(3q) - atan(2q)) for q = e**log_q > 0.

    Uses atan(3q) - atan(2q) = atan(q / (1 + 6 q^2)); the argument is at
    most 1/(2*sqrt(6)), so the float atan never overflows and the
    subtraction never cancels.
    """
    log_arg = log_q - log1p_exp(_LN6 + 2.0 * log_q)
    if log_arg > -37.0:
        return math.log(math.atan(math.exp(log_arg)))
    return log_arg


def half_plane_log_modulus_radial(log_y: float, params: ConstructionParams) -> float:
    """log of Re log Phi(i y), which is positive, at y = e**log_y > 0, as a
    float.

    Valid for any magnitude of y; each of the n_terms intervals contributes
    (eps_k / (pi t_k)) * (atan(3 t_k / y) - atan(2 t_k / y)).
    """
    n = params.n_terms
    return log_sum_exp(
        row[3] + _log_atan_diff(row[0] - log_y) for row in _log_t_eps(params, n)[1 : n + 1]
    )


def log_phi_radial(ld_x: float, params: ConstructionParams) -> float:
    """log phi(x) at the point x = 1 - e**ld_x of (0, 1), as a float.

    Combines the Cayley image of x with the symmetrized power; raises if
    the value exceeds float range (use the asymptotic scan in that regime).
    """
    m = params.resolved_power()
    f = half_plane_log_modulus_radial(log_cayley_im(ld_x), params)
    try:
        val = math.exp(f)
    except OverflowError:
        val = math.inf
    if math.isinf(val):
        raise OverflowError("log phi exceeds float range; use log-domain scans")
    return 2.0 * m * val


def __getattr__(name):
    from . import _EXPORTS

    if _EXPORTS.get(name) != "growth":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import growth

    value = globals()[name] = getattr(growth, name)
    return value
