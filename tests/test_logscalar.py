"""Unit and property tests for the log-domain scalar type."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hblab.logscalar import (
    NEG_INF,
    LogScalar,
    log1p_exp,
    log_diff_exp,
    log_sum_exp,
    log_sum_signed,
    wrap_phase,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_zero_and_one():
    assert LogScalar.zero().is_zero
    assert LogScalar.one().to_float() == 1.0
    assert LogScalar.zero().sign() == 0
    assert LogScalar.from_float(0.0).is_zero


def test_from_float_signs():
    assert LogScalar.from_float(2.0).sign() == 1
    assert LogScalar.from_float(-2.0).sign() == -1
    assert LogScalar.from_float(-3.0).to_float() == pytest.approx(-3.0, rel=1e-15)


def test_exp_of_huge():
    x = LogScalar.exp_of(1e6)
    assert x.sign() == 1
    assert x.log_mag == 1e6
    assert x.to_float() == math.inf  # overflow saturates, sign preserved


def test_nan_rejected():
    with pytest.raises(ValueError):
        LogScalar(float("nan"))


def test_phase_wrapping():
    assert wrap_phase(3.0 * math.pi) == pytest.approx(math.pi)
    x = LogScalar(0.0, 5.0 * math.pi)
    assert x.sign() == -1


@given(small, small)
def test_mul_matches_float(a, b):
    x = LogScalar.from_float(math.exp(a)) * LogScalar.from_float(-math.exp(b))
    assert x.sign() == -1
    assert x.log_mag == pytest.approx(a + b, abs=1e-9)


@given(small)
def test_neg_and_abs(a):
    x = LogScalar.from_float(-math.exp(a))
    assert (-x).sign() == 1
    assert abs(x).sign() == 1
    assert abs(x).log_mag == x.log_mag


def test_pow_of_zero():
    assert (LogScalar.zero() ** 2).is_zero
    with pytest.raises(ZeroDivisionError):
        LogScalar.zero() ** (-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        LogScalar.one() / LogScalar.zero()


def test_ordering_nonnegative_only():
    assert LogScalar.from_float(1.0) < LogScalar.from_float(2.0)
    assert LogScalar.zero() <= LogScalar.zero()
    with pytest.raises(ValueError):
        LogScalar.from_float(-1.0) < LogScalar.one()


@given(st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=20))
def test_log_sum_exp_bounds(logs):
    """max <= log sum <= max + log(count); tight both ways."""
    total = log_sum_exp([LogScalar.exp_of(x) for x in logs])
    m = max(logs)
    assert m - 1e-12 <= total.log_mag <= m + math.log(len(logs)) + 1e-12


def test_log_sum_exp_rejects_signed():
    with pytest.raises(ValueError):
        log_sum_exp([LogScalar.from_float(-1.0)])


def test_log_sum_exp_empty_is_zero():
    assert log_sum_exp([]).is_zero


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
def test_log_sum_signed_matches_fsum(vals):
    total = log_sum_signed([LogScalar.from_float(v) for v in vals])
    expect = math.fsum(vals)
    if expect == 0.0:
        assert total.is_zero or total.log_mag < max(abs(v) for v in vals) - 20
    else:
        assert total.to_float() == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_log_sum_signed_exact_cancellation():
    x = LogScalar.from_float(5.0)
    assert log_sum_signed([x, -x]).is_zero


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
def test_log_sum_signed_pairs_match_logscalars(vals):
    """(sign, log_mag) pairs sum to the same bits as the LogScalars they
    stand for, zeros included."""
    terms = [LogScalar.from_float(v) for v in vals]
    pairs = [(t.sign(), t.log_mag) for t in terms]
    assert log_sum_signed(pairs) == log_sum_signed(terms)


def test_log_sum_signed_rejects_nan():
    """A NaN log magnitude raises, as it does when it builds a LogScalar."""
    with pytest.raises(ValueError):
        log_sum_signed([(1, math.nan)])
    with pytest.raises(ValueError):
        log_sum_signed([(1, 2.0), (-1, math.nan), (1, 0.5)])


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_log1p_exp_reference(x):
    if abs(x) < 600:
        assert log1p_exp(x) == pytest.approx(math.log(1.0 + math.exp(x)), rel=1e-12)
    assert log1p_exp(x) >= max(x, 0.0)


def test_log_diff_exp():
    assert log_diff_exp(math.log(5.0), math.log(2.0)) == pytest.approx(math.log(3.0))
    assert log_diff_exp(1.0, 1.0) == NEG_INF
    with pytest.raises(ValueError):
        log_diff_exp(0.0, 1.0)
