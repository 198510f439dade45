"""Unit and property tests for the log-domain sums and the signed scalar
type."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hblab.logscalar import (
    NEG_INF,
    LogScalar,
    log1m_product,
    log1p_exp,
    log_add_exp,
    log_diff_exp,
    log_sum_exp,
    log_sum_signed,
    sum_settles,
)


def signed_log(v: float) -> tuple:
    """The (sign, log_mag) pair of a float; zero is (1, -inf)."""
    return (-1 if v < 0 else 1, math.log(abs(v)) if v else NEG_INF)


def from_float(v: float) -> LogScalar:
    """The LogScalar of a float."""
    sign, lm = signed_log(v)
    return LogScalar(lm, math.pi if sign < 0 else 0.0)


def test_zero_and_one():
    assert LogScalar(NEG_INF).is_zero
    assert LogScalar(0.0).to_float() == 1.0
    assert LogScalar(NEG_INF).sign() == 0
    assert from_float(0.0).is_zero


def test_from_float_signs():
    assert from_float(2.0).sign() == 1
    assert from_float(-2.0).sign() == -1
    assert from_float(-3.0).to_float() == pytest.approx(-3.0, rel=1e-15)


def test_exp_of_huge():
    x = LogScalar(1e6)
    assert x.sign() == 1
    assert x.log_mag == 1e6
    assert x.to_float() == math.inf  # overflow saturates, sign preserved


def test_nan_rejected():
    with pytest.raises(ValueError):
        LogScalar(float("nan"))


def test_phase_must_be_real():
    """A LogScalar is real: a phase other than 0 or pi raises, exact zeros
    and NaN included, where a wrapped phase would fail only later, in
    ``sign``."""
    assert LogScalar(0.0, math.pi).sign() == -1
    assert LogScalar(NEG_INF, math.pi) == LogScalar(NEG_INF)
    for phase in (7.0, 0.5, -math.pi, 3.0 * math.pi, math.nan):
        with pytest.raises(ValueError, match="phase"):
            LogScalar(0.0, phase)
    with pytest.raises(ValueError, match="phase"):
        LogScalar(NEG_INF, 7.0)


def test_ordering_is_signed():
    """Real LogScalars order by sign, then by magnitude: a negative with the
    larger magnitude is the smaller."""
    neg2, neg1 = from_float(-2.0), from_float(-1.0)
    zero, one, two = LogScalar(NEG_INF), LogScalar(0.0), from_float(2.0)
    assert neg2 < neg1 < zero < one < two
    assert not neg1 < neg2 and not two < one and not zero < zero
    assert neg1 > neg2 and two > one
    assert min(one, neg1, zero) is neg1
    with pytest.raises(ValueError):
        LogScalar(0.0, 1.0) < LogScalar(0.0)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
def test_ordering_matches_floats(vals):
    """Sorting LogScalars sorts the floats they stand for, zeros and ties
    included, and min picks the least."""
    xs = [from_float(v) for v in vals]
    assert [x.to_float() for x in sorted(xs)] == sorted(x.to_float() for x in xs)
    assert min(xs).to_float() == min(x.to_float() for x in xs)


@given(st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=20))
def test_log_sum_exp_bounds(logs):
    """max <= log sum <= max + log(count); tight both ways.  The terms are
    plain float logs, from a list or a generator alike, and so is the sum."""
    total = log_sum_exp(logs)
    m = max(logs)
    assert m - 1e-12 <= total <= m + math.log(len(logs)) + 1e-12
    assert type(total) is float
    assert log_sum_exp(x for x in logs) == total


def test_log_sum_exp_zeros_and_infinity():
    """-inf is an exact zero and drops out; +inf makes the sum +inf."""
    assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF
    assert log_sum_exp([NEG_INF, 0.0, NEG_INF]) == 0.0
    assert log_sum_exp([1.0, math.inf, NEG_INF]) == math.inf


def test_log_sum_exp_rejects_nan():
    """A NaN term raises ValueError in any position, next to an infinity
    (which max would step over) too."""
    for logs in (
        [math.nan],
        [1.0, math.nan],
        [math.nan, 1.0],
        [math.inf, math.nan],
        [math.nan, math.inf],
        [NEG_INF, math.nan],
        [NEG_INF, math.nan, NEG_INF],
    ):
        with pytest.raises(ValueError):
            log_sum_exp(logs)


def test_log_sum_exp_empty_is_zero():
    assert log_sum_exp([]) == NEG_INF


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
def test_log_sum_signed_matches_fsum(vals):
    total = log_sum_signed([signed_log(v) for v in vals])
    expect = math.fsum(vals)
    if expect == 0.0:
        assert total.is_zero or total.log_mag < max(abs(v) for v in vals) - 20
    else:
        assert total.to_float() == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_log_sum_signed_exact_cancellation():
    assert log_sum_signed([(1, math.log(5.0)), (-1, math.log(5.0))]).is_zero


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
def test_log_sum_signed_agrees_with_log_sum_exp(vals):
    """On nonnegative terms, zeros included, the signed sum is log_sum_exp
    bit for bit, with phase 0; flipping every sign flips the sign of the
    sum and keeps its magnitude."""
    logs = [signed_log(abs(v))[1] for v in vals]
    assert log_sum_signed([(1, lm) for lm in logs]) == LogScalar(log_sum_exp(logs))
    pairs = [signed_log(v) for v in vals]
    total = log_sum_signed(pairs)
    flipped = log_sum_signed([(-sgn, lm) for sgn, lm in pairs])
    assert flipped.sign() == -total.sign() and flipped.log_mag == total.log_mag


def test_log_sum_signed_rejects_nan():
    """A NaN log magnitude raises, as it does when it builds a LogScalar,
    next to exact zeros too."""
    with pytest.raises(ValueError):
        log_sum_signed([(1, math.nan)])
    with pytest.raises(ValueError):
        log_sum_signed([(1, 2.0), (-1, math.nan), (1, 0.5)])
    with pytest.raises(ValueError):
        log_sum_signed([(1, NEG_INF), (-1, math.nan)])


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_log1p_exp_reference(x):
    if abs(x) < 600:
        assert log1p_exp(x) == pytest.approx(math.log(1.0 + math.exp(x)), rel=1e-12)
    assert log1p_exp(x) >= max(x, 0.0)


def test_deep_term_float_identities():
    """The two identities of the deep small-angle terms of
    ``growth_log_ratio``, pinned against this platform's libm: x + e**-x
    is x for every x > 36 (so ``log1p_exp`` returns x there, and that is
    its correctly rounded value), and -expm1(d) is 1.0 for d < -37.43 (so
    log_diff_exp(a, b) is a for b - a < -40).  A libm that broke the first
    would make the shortcut of ``log1p_exp`` inexact."""
    sweep = [36.0 + i / 64.0 for i in range(1, 64 * 64)]
    for x in [math.nextafter(36.0, math.inf), 36.5, 1e3, 1e300, *sweep]:
        assert x + math.exp(-x) == x
        assert log1p_exp(x) == x
    for d in [math.nextafter(-37.43, -math.inf), -40.0, -1e3, -1e300]:
        assert -math.expm1(d) == 1.0
    for i in range(4096):
        d = -40.0 - i / 16.0
        assert -math.expm1(d) == 1.0
        assert log_diff_exp(1.5, 1.5 + d) == 1.5


@pytest.mark.parametrize("sign", [1, -1])
def test_sum_settles_checks_both_ends(sign):
    """At 1.0 the gap below, 2^-53, is half the gap above, 2^-52.  A rest r
    between the two half gaps, 2^-54 < r < 2^-53, leaves 1 + r at 1.0 but
    takes 1 - r to 1 - 2^-53, so it must not settle; a rest below 2^-54
    leaves both ends at 1.0 and settles.  -1.0 mirrors both, so a test of
    one end alone fails at 1.0 or at -1.0."""
    one = [(sign, 0.0)]
    assert not sum_settles(one, 0.0, math.log(1.5 * 2.0**-54))
    assert sum_settles(one, 0.0, math.log(0.5 * 2.0**-54))
    # a sum cancelled to 0.0 settles only once the rest underflows
    cancelled = [(sign, 0.0), (-sign, 0.0)]
    assert not sum_settles(cancelled, 0.0, -744.0)
    assert sum_settles(cancelled, 0.0, -746.0)
    assert log_sum_signed(cancelled).is_zero


def test_log_add_exp_with_an_exact_zero():
    """-inf is an exact zero: added to x it gives x, and to itself -inf,
    where the difference of the two infinities would be NaN."""
    for x in (-745.5, -1.0, 0.0, 3.25, 1e300):
        assert log_add_exp(x, NEG_INF) == log_add_exp(NEG_INF, x) == x
    assert log_add_exp(NEG_INF, NEG_INF) == NEG_INF


def test_log_diff_exp():
    assert log_diff_exp(math.log(5.0), math.log(2.0)) == pytest.approx(math.log(3.0))
    assert log_diff_exp(1.0, 1.0) == NEG_INF
    with pytest.raises(ValueError):
        log_diff_exp(0.0, 1.0)


@given(
    st.floats(min_value=-800.0, max_value=-1e-12),
    st.floats(min_value=-800.0, max_value=-1e-300),
)
def test_log1m_product(a, b):
    """log(1 - x y) from a = log(1 - x) and b = log(1 - y): bit for bit the
    sum (1 - x) + x (1 - y) written out, and within a few units of
    max(1, |log|) of 1 - x y = e^a - e^b expm1(a) in 200-bit mpmath.  The
    draws keep |a| >= 1e-12, where e^a stays below 1.0."""
    got = log1m_product(a, b)
    assert got == log_add_exp(a, b + math.log1p(-math.exp(max(a, -745.0))))
    _assert_log1m_product_accurate(a, b, got)


def _assert_log1m_product_accurate(a, b, got):
    from mpmath import mp

    with mp.workprec(200):
        ref = float(mp.log(mp.exp(a) - mp.exp(b) * mp.expm1(a)))
    assert abs(got - ref) <= 2.0**-50 * max(1.0, abs(ref))


@given(
    st.one_of(
        st.floats(min_value=-1e-12, max_value=0.0),
        st.floats(min_value=-2.0**-52, max_value=0.0),
    ),
    st.floats(min_value=-800.0, max_value=-1e-300),
)
@example(-1e-17, -1.0)
@example(-2.0**-53, -1e-300)
@example(0.0, -1.0)
def test_log1m_product_near_zero(a, b):
    """Near a = 0, where e^a rounds to 1.0 (a above about -1.1e-16), x is
    taken as -expm1(a) and the value stays within a few units of the
    200-bit reference; a = 0 (x = 0) gives a."""
    got = log1m_product(a, b)
    if a == 0.0:
        assert got == a
    else:
        _assert_log1m_product_accurate(a, b, got)


def test_dilate_near_r_zero(pair):
    """A dilation radius so small that log(1 - r) lies above -1.1e-16: the
    node's log(1 - r w) matches the 200-bit reference and its Gram norm,
    whose diagonal log(1 - w^2) lies there too, is finite, where both
    raised a math domain error."""
    from mpmath import mp

    from hblab.hb import KernelCombo, KernelNode, dilate, hb_norm_sq

    f = dilate(KernelCombo((KernelNode(0.0, -1.0),)), 1e-17)
    (node,) = f.nodes
    with mp.workprec(200):
        ref = float(mp.log(1 - mp.mpf(1e-17) * (1 - mp.exp(-1))))
    assert abs(node.log_one_minus_w - ref) <= 1e-14 * abs(ref)
    assert math.isfinite(hb_norm_sq(f, pair))
