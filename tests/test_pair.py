"""Tests for step moduli, Schwarz-integral outer evaluation, the pair
(b, a), the Taylor route outer_series, and serialization."""

import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblab.outer import log_phi_disk
from hblab.pair import (
    Cell,
    StepModulus,
    build_pair,
    l1_log_check,
    log_outer_series,
    outer_eval,
    outer_series,
    pair_from_json,
    pair_to_json,
    phi_step_modulus,
    step_modulus_from_phi,
    tame_pair,
)
from hblab.series import exp_series

HALF_LN2 = 0.5 * math.log(2.0)


# -- StepModulus ------------------------------------------------------------


def test_cells_sorted_and_disjoint():
    m = StepModulus((Cell(0.5, 1.0, 2.0), Cell(-1.0, 0.0, 1.0)))
    assert m.cells[0].theta_start == -1.0
    with pytest.raises(ValueError):
        StepModulus((Cell(0.0, 1.0, 1.0), Cell(0.5, 2.0, 1.0)))
    with pytest.raises(ValueError):
        StepModulus((Cell(3.0, 4.0, 1.0),))
    with pytest.raises(ValueError):
        StepModulus((Cell(0.0, 1.0, math.inf),))


def test_mean_and_l1():
    m = StepModulus((Cell(0.0, math.pi, 2.0),), default_log_modulus=-1.0)
    assert m.mean_log_modulus() == pytest.approx(-1.0 + 3.0 / 2.0)
    assert m.l1_mean() == pytest.approx((2.0 * math.pi + 1.0 * math.pi) / (2 * math.pi))
    assert m.value_at(0.5) == 2.0
    assert m.value_at(-0.5) == -1.0


def test_scale():
    m = StepModulus((Cell(0.0, 1.0, 2.0),), default_log_modulus=0.5)
    s = m.scale(3.0)
    assert s.cells[0].log_modulus == 6.0
    assert s.default_log_modulus == 1.5


# -- outer evaluation -------------------------------------------------------


def test_outer_eval_constant_datum():
    """Constant boundary modulus c gives the constant outer function c."""
    m = StepModulus((), default_log_modulus=0.7)
    for z in (0.0, 0.5j, -0.3 + 0.4j):
        assert complex(outer_eval(m, z)) == pytest.approx(0.7 + 0j, abs=1e-14)


def test_outer_eval_at_zero_is_mean():
    m = StepModulus((Cell(-0.5, 0.25, 1.5), Cell(1.0, 1.5, -2.0)), 0.3)
    assert complex(outer_eval(m, 0.0)) == pytest.approx(
        m.mean_log_modulus() + 0j, abs=1e-14
    )


def outer_eval_mp(mod, z):
    """200-bit reference for outer_eval: the same sub-arc Schwarz sums,
    with every trigonometric value and logarithm taken in mpmath."""
    from mpmath import mp

    with mp.workprec(200):
        z = mp.mpc(z)
        d = mod.default_log_modulus
        total = mp.mpc(d)
        for c in mod.cells:
            h = c.log_modulus - d
            width = c.theta_end - c.theta_start
            n_sub = int(width / (0.5 * (1.0 - abs(complex(z))))) + 1
            step = mp.mpf(width) / n_sub
            seg = mp.mpc(0)
            for i in range(n_sub):
                ta = c.theta_start + i * step
                eia = mp.expj(ta)
                chord = eia * mp.mpc(-2 * mp.sin(step / 2) ** 2, mp.sin(step))
                seg += -step - 2j * mp.log(1 + chord / (eia - z))
            total += h * seg / (2 * mp.pi)
        return complex(total)


def test_outer_eval_mp_matches_float():
    m = StepModulus((Cell(0.1, 0.1 + 1e-9, 5.0), Cell(-2.0, -1.0, 1.0)))
    for z in (0.3 + 0.2j, -0.8j, 0.95):
        a = outer_eval(m, z)
        b = outer_eval_mp(m, z)
        assert abs(a - b) <= 1e-13 * max(abs(b), 1.0)


def test_outer_eval_poisson_oracle():
    """Re of the Schwarz integral is the Poisson integral of the datum."""
    from scipy.integrate import quad

    m = StepModulus((Cell(0.2, 0.9, 1.3), Cell(-1.4, -0.2, -0.6)), 0.1)
    z = 0.35 + 0.15j
    r, ang = abs(z), math.atan2(z.imag, z.real)

    def poisson(t):
        return (
            (1 - r * r)
            / (1 - 2 * r * math.cos(t - ang) + r * r)
            * m.value_at(t)
            / (2 * math.pi)
        )

    expect = 0.0
    edges = [-math.pi, -1.4, -0.2, 0.2, 0.9, math.pi]
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = quad(poisson, lo, hi, epsabs=1e-13, epsrel=1e-12)
        expect += part
    assert outer_eval(m, z).real == pytest.approx(expect, rel=1e-9)


def test_outer_eval_rejects_boundary():
    with pytest.raises(ValueError):
        outer_eval(StepModulus(()), 1.0)


def test_log_outer_series_fourier_oracle():
    """Closed-form Fourier coefficients against direct quadrature."""
    from scipy.integrate import quad

    m = StepModulus((Cell(0.3, 1.1, 2.0), Cell(-1.1, -0.3, 2.0)))  # symmetric
    g = log_outer_series(m, 6)
    for j in range(1, 7):
        re, _ = quad(
            lambda t: m.value_at(t) * math.cos(j * t) / math.pi,
            -math.pi,
            math.pi,
            points=[-1.1, -0.3, 0.3, 1.1],
            epsabs=1e-13,
        )
        assert g.coeffs[j].real == pytest.approx(re, abs=1e-10)
        assert abs(g.coeffs[j].imag) < 1e-14


def test_log_outer_series_matches_eval():
    """exp of the coefficient series reproduces the Schwarz evaluation."""
    m = StepModulus((Cell(0.5, 1.5, 1.0), Cell(-1.5, -0.5, 1.0)), -0.2)
    f = exp_series(log_outer_series(m, 96))
    for z in (0.3, 0.2 + 0.1j, -0.4j):
        expect = cmath.exp(complex(outer_eval(m, z)))
        assert complex(f(z)) == pytest.approx(expect, rel=1e-10)


# -- the constructed pair ---------------------------------------------------


def test_phi_step_modulus_structure(pair, params):
    mod = phi_step_modulus(pair.seq, params)
    assert len(mod.cells) == 2 * params.n_terms
    assert mod.default_log_modulus == 0.0
    for c in mod.cells:
        assert c.log_modulus > 0.0
        # symmetric partner exists
        assert any(
            abs(d.theta_start + c.theta_end) < 1e-15 for d in mod.cells
        )


def test_pair_identity_on_cells(pair):
    """|a|^2 + |b|^2 = 1 exactly on every cell and off all cells."""
    for ca, cb in zip(pair.a_modulus.cells, pair.b_modulus.cells):
        assert ca.theta_start == cb.theta_start
        total = math.exp(2.0 * ca.log_modulus) + math.exp(2.0 * cb.log_modulus)
        assert abs(total - 1.0) <= 1e-14
    off = math.exp(2.0 * pair.a_modulus.default_log_modulus) + math.exp(
        2.0 * pair.b_modulus.default_log_modulus
    )
    assert abs(off - 1.0) <= 1e-14


def test_pair_phi_quotient(pair, params):
    """log b - log a == log phi at interior points, both routes."""
    for x in (-0.7, 0.0, 0.4, 0.9):
        lhs = outer_eval(pair.b_modulus, x) - outer_eval(pair.a_modulus, x)
        rhs = log_phi_disk(complex(x, 0.0), params, pair.seq)
        assert abs(lhs - rhs) <= 1e-10


def test_build_pair_detects_tampering(params):
    """A corrupted modulus must fail the construction cross-check."""
    import dataclasses

    from hblab.pair import Pair
    from hblab.outer import make_sequences

    seq = make_sequences(params)
    a_mod, b_mod = step_modulus_from_phi(seq, params)
    bad = StepModulus(
        tuple(
            dataclasses.replace(c, log_modulus=c.log_modulus + 0.01)
            for c in b_mod.cells
        ),
        b_mod.default_log_modulus,
    )
    lhs = outer_eval(bad, 0.1) - outer_eval(a_mod, 0.1)
    rhs = log_phi_disk(complex(0.1, 0.0), params, seq)
    assert abs(lhs - rhs) > 1e-8  # the check in build_pair would trip


def test_l1_log_check(pair, tame):
    assert l1_log_check(tame) == pytest.approx(2.0 * math.log(2.0))
    val = l1_log_check(pair)
    assert 0.0 < val < math.inf
    # independently computed at 200 bits from the defining formulas
    assert val == pytest.approx(3.9911025531089017, rel=1e-13)


def test_tame_pair_series():
    t = tame_pair(degree=8)
    assert t.a_series.coeffs[:2] == (0.5, -0.5)
    assert t.b_series.coeffs[:2] == (0.5, 0.5)
    assert t.log_phi_radial_at(math.log(0.5)) == pytest.approx(math.log(3.0))


def test_constructed_series_match_eval(pair):
    """a and b Taylor series from exact Fourier data agree with the Schwarz
    evaluator pointwise."""
    p = pair.with_series(128)
    for z in (0.2, 0.5j, -0.3 + 0.3j):
        ea = cmath.exp(complex(outer_eval(pair.a_modulus, z)))
        eb = cmath.exp(complex(outer_eval(pair.b_modulus, z)))
        assert complex(p.a_series(z)) == pytest.approx(ea, rel=1e-10)
        assert complex(p.b_series(z)) == pytest.approx(eb, rel=1e-10)


def test_outer_series_b_is_a_times_phi(pair):
    """The one Taylor route ties the three series together: b = a * phi
    coefficientwise at 256 bits.  The log moduli are float data (log b and
    log a + log phi agree only to rounding) and the log series is a float
    closed form, so each coefficient is held to 1e-13 of the Cauchy-product
    condition sum, as in test_exp_series_multiplicative."""
    from mpmath import mp

    deg = 64
    a = outer_series(pair.a_modulus, deg, 256)
    b = outer_series(pair.b_modulus, deg, 256)
    phi = outer_series(pair.phi_modulus, deg, 256)
    assert a.precision_bits == b.precision_bits == phi.precision_bits == 256
    with mp.workprec(256):
        ab = a * phi
        for k in range(deg + 1):
            cond = sum(abs(a.coeffs[j]) * abs(phi.coeffs[k - j]) for j in range(k + 1))
            assert abs(b.coeffs[k] - ab.coeffs[k]) <= 1e-13 * (cond + abs(b.coeffs[k]))


def test_outer_series_mp_needs_symmetric_modulus():
    """Off theta-symmetry the log series has imaginary parts, which the
    real mpmath branch would drop; it refuses instead, while the float
    branch keeps them.  On symmetric data the two branches agree."""
    lopsided = StepModulus((Cell(0.2, 0.9, 1.3),))
    with pytest.raises(ValueError):
        outer_series(lopsided, 8, 128)
    z = 0.2 + 0.1j
    f = outer_series(lopsided, 48)
    assert complex(f(z)) == pytest.approx(cmath.exp(outer_eval(lopsided, z)), rel=1e-10)
    symmetric = StepModulus((Cell(0.2, 0.9, 1.3), Cell(-0.9, -0.2, 1.3)), -0.1)
    lo, hi = outer_series(symmetric, 48), outer_series(symmetric, 48, 128)
    assert hi.precision_bits == 128
    for x, y in zip(lo.coeffs, hi.coeffs):
        assert abs(x - complex(y)) <= 1e-13 * max(abs(x), 1.0)


# -- serialization ----------------------------------------------------------


def test_pair_json_roundtrip(pair):
    doc = pair_to_json(pair, extra={"chosen_power_m": 1})
    obj = json.loads(doc)
    assert obj["chosen_power_m"] == 1
    back = pair_from_json(doc)
    assert back.tag == pair.tag
    assert back.params == pair.params
    assert back.a_modulus == pair.a_modulus
    assert back.b_modulus == pair.b_modulus
    assert back.phi_modulus == pair.phi_modulus


def test_pair_json_deterministic(pair):
    assert pair_to_json(pair) == pair_to_json(pair)


def test_tame_json_roundtrip(tame):
    back = pair_from_json(pair_to_json(tame))
    assert back.tag == "tame"
    assert back.a_series.coeffs[:2] == (0.5, -0.5)
