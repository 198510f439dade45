"""The pair (b, a) as exact step-modulus outer functions on the circle.

The boundary modulus of the constructed phi is piecewise constant: each
half-plane interval [2t_k, 3t_k] maps through the boundary Cayley
correspondence x = tan(theta/2) to a circle arc, which is symmetrized
(theta and -theta) and scaled by the power m.  All Schwarz and Poisson
integrals over such step data have closed-form antiderivatives, so nothing
is ever put on a grid -- the arcs shrink like exp(-k**beta) and would be
invisible to any uniform discretization.

From |phi| the pair moduli are |a|^2 = 1/(1+|phi|^2) and
|b|^2 = |phi|^2/(1+|phi|^2), computed stably in log form.  Their Taylor
coefficients come from ``hblab.taylor``, which ``Pair.with_series`` and
``Pair.phi_hat`` load on first use, so a process that only builds,
evaluates or loads a constructed pair compiles neither it nor
``hblab.series``.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from ._record import Record, _set
from .logscalar import clog1p, log1p_exp
from .outer import (
    ConstructionParams,
    ParameterError,
    Sequences,
    log_phi_disk,
    log_phi_radial,
    make_sequences,
)

_TWO_PI = 2.0 * math.pi
_HALF_LN2 = 0.5 * math.log(2.0)


class Cell(Record):
    """One arc [theta_start, theta_end) carrying a constant log-modulus."""

    __slots__ = ("theta_start", "theta_end", "log_modulus")

    def __init__(self, theta_start: float, theta_end: float, log_modulus: float):
        _set(self, "theta_start", theta_start)
        _set(self, "theta_end", theta_end)
        _set(self, "log_modulus", log_modulus)

    @property
    def width(self) -> float:
        return self.theta_end - self.theta_start


class StepModulus(Record):
    """A finite family of disjoint arcs in [-pi, pi) with constant
    log-modulus per arc, and a default value off all arcs."""

    __slots__ = ("cells", "default_log_modulus")

    def __init__(self, cells: tuple, default_log_modulus: float = 0.0):
        cells = tuple(sorted(cells, key=lambda c: c.theta_start))
        _set(self, "cells", cells)
        _set(self, "default_log_modulus", default_log_modulus)
        prev_end = -math.pi
        for c in cells:
            if not (-math.pi <= c.theta_start < c.theta_end <= math.pi):
                raise ValueError(f"cell [{c.theta_start}, {c.theta_end}] outside [-pi, pi]")
            if c.theta_start < prev_end:
                raise ValueError("cells overlap")
            if not math.isfinite(c.log_modulus):
                raise ValueError("cell log-modulus must be finite")
            prev_end = c.theta_end
        if not math.isfinite(self.default_log_modulus):
            raise ValueError("default log-modulus must be finite")

    def mean_log_modulus(self) -> float:
        """(1/2pi) * integral of the log-modulus over the circle."""
        acc = math.fsum(
            c.width * (c.log_modulus - self.default_log_modulus) for c in self.cells
        )
        return self.default_log_modulus + acc / _TWO_PI

    def scale(self, factor: float) -> "StepModulus":
        return StepModulus(
            tuple(c._replace(log_modulus=factor * c.log_modulus) for c in self.cells),
            factor * self.default_log_modulus,
        )


def _cell_schwarz_integral(theta1: float, theta2: float, z):
    """integral over [theta1, theta2] of (e^{it}+z)/(e^{it}-z) dt.

    The antiderivative is F(t) = -t - 2i log(e^{it} - z); the log increment
    is accumulated sub-arc by sub-arc so the principal branch never jumps.
    Sub-arcs are capped at half the distance (1-|z|), which keeps each
    increment argument inside |w| <= 1/2.  Short arcs use log1p against the
    chord e^{i t_b} - e^{i t_a}, so widths down to e^{-k**beta} lose no
    relative precision.
    """
    z = complex(z)
    az = abs(z)
    if az >= 1:
        raise ValueError("Schwarz integral requires |z| < 1")
    width = theta2 - theta1
    n_sub = int(width / (0.5 * (1.0 - az))) + 1
    step = width / n_sub
    total = 0
    for i in range(n_sub):
        ta = theta1 + i * step
        d = step
        eia = complex(math.cos(ta), math.sin(ta))
        # e^{i t_b} - e^{i t_a} = e^{i t_a} (-2 sin^2(d/2) + i sin d)
        chord = eia * complex(-2.0 * math.sin(d / 2.0) ** 2, math.sin(d))
        w = chord / (eia - z)
        total = total + (-d - 2j * clog1p(w))
    return total


def outer_eval(mod: StepModulus, z) -> complex:
    """log of the outer function with boundary log-modulus ``mod`` at z.

    Schwarz integral (1/2pi) int (e^{it}+z)/(e^{it}-z) log-modulus(t) dt,
    cell by cell in closed form, in complex floats; the value at 0 is the
    cell mean, which is real, so the normalization "positive at 0" holds by
    construction.  The tests keep a 200-bit mpmath evaluation of the same
    formula as its oracle.
    """
    if abs(z) >= 1:
        raise ValueError("outer_eval requires |z| < 1")
    d = mod.default_log_modulus
    total = complex(d)
    for c in mod.cells:
        h = c.log_modulus - d
        if h == 0.0:
            continue
        seg = _cell_schwarz_integral(c.theta_start, c.theta_end, z)
        total = total + h * seg / _TWO_PI
    return total


def log_outer_series(mod: StepModulus, degree: int) -> TaylorSeries:
    """Taylor series of the log of the outer function with modulus ``mod``.

    Expanding the Schwarz kernel, coefficient j >= 1 is
    (1/pi) int log-modulus(t) e^{-ijt} dt, a closed form over the cells;
    coefficient 0 is the cell mean.  For theta-symmetric data every
    coefficient is real.  Computed in floats, so on a narrow arc away from
    theta = 0, where the two endpoint terms cancel, a coefficient keeps
    fewer bits; ``taylor._log_series_ulps`` bounds the loss.
    """
    from .series import TaylorSeries

    d = mod.default_log_modulus
    coeffs = [complex(mod.mean_log_modulus())]
    for j in range(1, degree + 1):
        acc = 0j
        for c in mod.cells:
            h = c.log_modulus - d
            if h == 0.0:
                continue
            e1 = complex(math.cos(j * c.theta_start), -math.sin(j * c.theta_start))
            e2 = complex(math.cos(j * c.theta_end), -math.sin(j * c.theta_end))
            acc += h * (e1 - e2)
        coeffs.append(acc / (1j * j * math.pi))
    return TaylorSeries(tuple(coeffs))


# -- the constructed pair --------------------------------------------------


def phi_step_modulus(seq: Sequences, params: ConstructionParams) -> StepModulus:
    """Boundary log|phi| as a StepModulus: arcs +-[2 atan 2t_k, 2 atan 3t_k]
    of height m * eps_k / t_k."""
    m = params.resolved_power()
    cells = []
    for k in range(1, params.n_terms + 1):
        t = seq.t[k]
        theta1 = 2.0 * math.atan(2.0 * t)
        theta2 = 2.0 * math.atan(3.0 * t)
        if not (0.0 < theta1 < theta2 < math.pi):
            raise ValueError(f"arc {k} fails to land in (0, pi)")
        h = m * math.exp(seq.eps[k].log_mag - math.log(t))
        if not math.isfinite(h):
            raise ParameterError(f"step height overflows at k={k}; reduce power_m")
        cells.append(Cell(theta1, theta2, h))
        cells.append(Cell(-theta2, -theta1, h))
    return StepModulus(tuple(cells), 0.0)


def step_modulus_from_phi(seq: Sequences, params: ConstructionParams):
    """(a_modulus, b_modulus) from |a|^2 = 1/(1+|phi|^2) in stable log form.

    Per cell with h = log|phi| >= 0:
        log|a| = -(h + (1/2) log(1 + e^{-2h})),
        log|b| = -(1/2) log(1 + e^{-2h});
    off all cells |phi| = 1 gives log|a| = log|b| = -(1/2) log 2.
    """
    phi_mod = phi_step_modulus(seq, params)
    a_cells, b_cells = [], []
    for c in phi_mod.cells:
        h = c.log_modulus
        tail = 0.5 * log1p_exp(-2.0 * h)
        a_cells.append(Cell(c.theta_start, c.theta_end, -(h + tail)))
        b_cells.append(Cell(c.theta_start, c.theta_end, -tail))
    a_mod = StepModulus(tuple(a_cells), -_HALF_LN2)
    b_mod = StepModulus(tuple(b_cells), -_HALF_LN2)
    return a_mod, b_mod


class Pair(Record):
    """A pair (b, a): a outer with a(0) > 0, |a|^2 + |b|^2 = 1 a.e., and
    phi = b/a.  Either constructed from ConstructionParams or a tame
    analytic test pair."""

    __slots__ = (
        "tag",
        "a_modulus",
        "b_modulus",
        "phi_modulus",
        "params",
        "seq",
        "a_series",
        "b_series",
    )

    def __init__(
        self,
        tag: str,  # "constructed" or "tame"
        a_modulus: Optional[StepModulus],
        b_modulus: Optional[StepModulus],
        phi_modulus: Optional[StepModulus],
        params: Optional[ConstructionParams] = None,
        seq: Optional[Sequences] = None,
        a_series: Optional[TaylorSeries] = None,
        b_series: Optional[TaylorSeries] = None,
    ):
        _set(self, "tag", tag)
        _set(self, "a_modulus", a_modulus)
        _set(self, "b_modulus", b_modulus)
        _set(self, "phi_modulus", phi_modulus)
        _set(self, "params", params)
        _set(self, "seq", seq)
        _set(self, "a_series", a_series)
        _set(self, "b_series", b_series)

    def log_phi_radial_at(self, ld_x: float) -> float:
        """log phi(x) at x = 1 - e**ld_x in (0, 1), as a float."""
        if self.tag == "tame":
            # phi = (1+z)/(1-z): log phi(x) = log(2 - e**ld) - ld
            return math.log(2.0 - math.exp(max(ld_x, -700.0))) - ld_x
        return log_phi_radial(ld_x, self.params)

    def with_series(self, degree: int, precision_bits: int = 53) -> "Pair":
        """Attach Taylor series for a and b to ``degree`` at ``precision_bits``:
        ``taylor.outer_series`` of the a and b moduli, which mirror the
        theta-symmetric phi arcs, so their coefficients are real floats at
        53 bits and real mpmath numbers above; the tame pair's series are
        53-bit floats."""
        if self.tag == "tame":
            from .series import TaylorSeries

            if precision_bits > 53:
                raise ValueError("the tame pair carries 53-bit float series only")
            a = TaylorSeries((0.5, -0.5) + (0.0,) * max(0, degree - 1))
            b = TaylorSeries((0.5, 0.5) + (0.0,) * max(0, degree - 1))
            return self._replace(a_series=a.truncate(degree), b_series=b.truncate(degree))
        from .taylor import outer_series

        return self._replace(
            a_series=outer_series(self.a_modulus, degree, precision_bits),
            b_series=outer_series(self.b_modulus, degree, precision_bits),
        )

    def phi_hat(self, degree: int, precision_bits: int = 53) -> TaylorSeries:
        """Taylor coefficients 0..degree of phi = b/a, the symbol of f -> f+:
        ``taylor.outer_series`` of the theta-symmetric phi modulus (arcs
        +-[2 atan 2t_k, 2 atan 3t_k]), real floats at 53 bits and real mpmath
        numbers above, or (1, 2, 2, ...) for the tame pair's (1+z)/(1-z),
        which carries 53-bit floats only."""
        if self.tag == "tame":
            from .series import TaylorSeries

            if precision_bits > 53:
                raise ValueError("the tame pair carries 53-bit float series only")
            return TaylorSeries((1.0,) + (2.0,) * degree)
        from .taylor import outer_series

        return outer_series(self.phi_modulus, degree, precision_bits)


def tame_pair(degree: int = 64) -> Pair:
    """The analytic test pair b = (1+z)/2, a = (1-z)/2, phi = (1+z)/(1-z)."""
    return Pair(
        tag="tame",
        a_modulus=None,
        b_modulus=None,
        phi_modulus=None,
    ).with_series(degree)


# build_pair checks b/a == phi at this many points of (-1, 1), to this
# absolute tolerance on the log
_CHECK_POINTS = 16
_CHECK_TOL = 1e-8


def build_pair(params: ConstructionParams) -> Pair:
    """Assemble the constructed pair and verify b/a == phi pointwise.

    The verification compares the circle route (Schwarz integrals of the
    step moduli of b and a) against the half-plane route (closed-form
    Herglotz sum pulled back by the Cayley transform) at 16 real points;
    the two evaluators share only the sequence data, so agreement is a
    genuine cross-check of the whole construction.  A log difference above
    1e-8 at any point raises ArithmeticError.
    """
    params.resolved_power()  # fail fast on power_m="auto"
    seq = make_sequences(params)
    a_mod, b_mod = step_modulus_from_phi(seq, params)
    phi_mod = phi_step_modulus(seq, params)
    pair = Pair(
        tag="constructed",
        a_modulus=a_mod,
        b_modulus=b_mod,
        phi_modulus=phi_mod,
        params=params,
        seq=seq,
    )
    for i in range(_CHECK_POINTS):
        x = (2 * i - (_CHECK_POINTS - 1)) / (_CHECK_POINTS + 1)
        lhs = outer_eval(b_mod, x) - outer_eval(a_mod, x)
        rhs = log_phi_disk(complex(x, 0.0), params, seq)
        err = abs(lhs - rhs)
        if err > _CHECK_TOL:
            raise ArithmeticError(
                f"b/a == phi check failed at x={x}: |difference| = {err:.3e} > {_CHECK_TOL}"
            )
    return pair


# -- serialization ---------------------------------------------------------


def _mod_to_obj(mod: Optional[StepModulus]):
    if mod is None:
        return None
    return {
        "default_log_modulus": repr(mod.default_log_modulus),
        "cells": [
            [repr(c.theta_start), repr(c.theta_end), repr(c.log_modulus)]
            for c in mod.cells
        ],
    }


def _mod_from_obj(obj) -> Optional[StepModulus]:
    if obj is None:
        return None
    return StepModulus(
        tuple(Cell(float(a), float(b), float(h)) for a, b, h in obj["cells"]),
        float(obj["default_log_modulus"]),
    )


def pair_to_json(pair: Pair, extra: Optional[dict] = None) -> str:
    """Serialize a Pair losslessly (floats as shortest round-trip decimal
    strings) to a deterministic JSON document."""
    obj = {
        "tag": pair.tag,
        "params": None
        if pair.params is None
        else {
            "alpha": repr(pair.params.alpha),
            "beta": repr(pair.params.beta),
            "n_terms": pair.params.n_terms,
            "power_m": pair.params.power_m,
            "precision_bits": pair.params.precision_bits,
            "n_check": pair.params.n_check,
        },
        "a_modulus": _mod_to_obj(pair.a_modulus),
        "b_modulus": _mod_to_obj(pair.b_modulus),
        "phi_modulus": _mod_to_obj(pair.phi_modulus),
    }
    if extra:
        obj.update(extra)
    return json.dumps(obj, indent=2, sort_keys=True)


def pair_from_json(doc: str) -> Pair:
    obj = json.loads(doc)
    params = None
    seq = None
    if obj["params"] is not None:
        p = obj["params"]
        params = ConstructionParams(
            alpha=float(p["alpha"]),
            beta=float(p["beta"]),
            n_terms=int(p["n_terms"]),
            power_m=p["power_m"] if p["power_m"] == "auto" else int(p["power_m"]),
            precision_bits=int(p["precision_bits"]),
            n_check=int(p["n_check"]),
        )
        seq = make_sequences(params)
    pair = Pair(
        tag=obj["tag"],
        a_modulus=_mod_from_obj(obj["a_modulus"]),
        b_modulus=_mod_from_obj(obj["b_modulus"]),
        phi_modulus=_mod_from_obj(obj["phi_modulus"]),
        params=params,
        seq=seq,
    )
    if pair.tag == "tame":
        pair = pair.with_series(64)
    return pair
