"""Tests of ``hblab.fixed``: the integer kernels within their counted unit
bounds of mpmath at 64 more bits, the round-half-even, ``float`` and
quotient of the P-bit numbers bit for bit against mpmath's, and the seeds of
``taylor._arc_data`` and ``experiments._fhat_fixed`` equal, integer for
integer, to those of the all-mpmath route they replaced."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_div, round_nearest, to_fixed

from hblab import fixed, taylor
from hblab.experiments import _fhat_fixed, _seeds, interval_radius
from hblab.hb import as_radius
from hblab.fixed import PBit

# working precisions W of the P-bit routes; the kernels run at 2W bits
working_bits = st.integers(min_value=30, max_value=700)


def within(got: int, exact, prec: int, units: int) -> bool:
    """|got - exact 2^prec| <= units, in mpmath at the ambient precision."""
    return abs(mp.mpf(got) - mp.ldexp(exact, prec)) <= units


def argument(x: float, prec: int):
    """The fixed-point argument of a float at ``prec`` and its exact value."""
    xf = fixed.float_fixed(x, prec)
    return xf, mp.ldexp(mp.mpf(xf), -prec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(W=working_bits)
def test_pi_and_ln2_within_two_units(W):
    prec = 2 * W
    with mp.workprec(prec + 64):
        assert within(fixed.pi_fixed(prec), mp.pi, prec, 2)
        assert within(fixed.ln2_fixed(prec), mp.ln2, prec, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    W=working_bits,
    x=st.one_of(
        st.floats(min_value=-800.0, max_value=800.0),
        st.floats(min_value=-1e-9, max_value=1e-9),
        st.floats(min_value=-1e17, max_value=-1e3),
    ),
)
@example(W=441, x=-1.4735e5)  # the deepest log c of the pinned combination
@example(W=100, x=-1e17)  # the far node of the kernel guard test
@example(W=575, x=-1e-300)
def test_exp_within_two_units(W, x):
    """e^x = (y + d) 2^(n - prec) with |d| <= 2 and y 2^-prec in [0.7, 1.42],
    whatever the size of x: strongly negative log c included."""
    prec = 2 * W
    xf, exact = argument(x, prec)
    y, n = fixed.exp_fixed(xf, prec)
    assert 7 << prec <= 10 * y and 100 * y <= 142 << prec
    with mp.workprec(prec + 64 + abs(n).bit_length()):
        assert within(y, mp.exp(exact - n * mp.ln2), prec, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    W=working_bits,
    x=st.one_of(
        st.floats(min_value=-40.0, max_value=0.0),
        st.floats(min_value=-2e-3, max_value=0.0),
        st.floats(min_value=-1e4, max_value=-30.0),
    ),
)
@example(W=441, x=-1e-12)  # log(1 - w) of a node next to 0
@example(W=441, x=-22.627416997969522)  # log(1 - w_8) = -8^1.5
@example(W=64, x=-0.0009765625)  # 2^-10 and the float above: small results
@example(W=64, x=-0.0009765624999999999)
def test_expm1_within_two_units(W, x):
    """expm1 on x <= 0, ``exp_fixed`` less one, within 2 units absolute: a
    small |x| gives a small result with fewer significant bits."""
    prec = 2 * W
    xf, exact = argument(x, prec)
    with mp.workprec(prec + 64):
        assert within(fixed.expm1_fixed(xf, prec), mp.expm1(exact), prec, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    W=working_bits,
    x=st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1e-9),
    ),
)
@example(W=575, x=1e-10)  # the half angle of a deep phi arc
@example(W=100, x=math.pi / 2)
@example(W=100, x=2.0)
@example(W=100, x=0.0)
def test_cos_sin_within_two_units(W, x):
    prec = 2 * W
    xf, exact = argument(x, prec)
    c, s = fixed.cos_sin_fixed(xf, prec)
    with mp.workprec(prec + 64):
        assert within(c, mp.cos(exact), prec, 2)
        assert within(s, mp.sin(exact), prec, 2)


# -- P-bit numbers ---------------------------------------------------------

mantissas = st.integers(min_value=-(2**900), max_value=2**900)
exponents = st.integers(min_value=-1500, max_value=300)
precisions = st.integers(min_value=2, max_value=700)


def halfway(bits: int, odd: bool) -> int:
    """A (bits + 2)-bit mantissa exactly half-way between two bits-bit ones,
    the lower one odd or even."""
    low = (1 << (bits - 1)) | int(odd)
    return (2 * low + 1) << 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(man=mantissas, exp=exponents, bits=precisions)
@example(man=halfway(384, odd=False), exp=-400, bits=384)
@example(man=halfway(384, odd=True), exp=-400, bits=384)
@example(man=-halfway(53, odd=True), exp=7, bits=53)
@example(man=(1 << 384) - 1, exp=0, bits=384)  # rounds up across a power of two
@example(man=0, exp=5, bits=10)
def test_round_half_even_is_mpmaths(man, exp, bits):
    """``round_half_even`` and ``to_pbit`` give mpmath's ``from_man_exp``
    at round_nearest, normalized tuple and all, ties included."""
    p = fixed.to_pbit(man, exp, bits)
    assert p._mpf_ == from_man_exp(man, exp, bits, round_nearest)
    assert (p.man, p.exp) == fixed.round_half_even(man, exp, bits)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(man=mantissas, exp=st.integers(min_value=-1200, max_value=1000))
@example(man=((1 << 53) | 1) << 330, exp=-383)  # a P-bit value on a double midpoint
@example(man=((1 << 53) | 3) << 330, exp=-383)
@example(man=1, exp=-1074)  # the least subnormal
@example(man=3, exp=-1076)  # below it, a tie
@example(man=1, exp=1024)  # overflow
def test_float_is_mpmaths(man, exp):
    p = PBit(man, exp)
    with mp.workprec(1000):
        assert float(p) == float(mp.make_mpf(from_man_exp(man, exp)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=mantissas, ea=exponents, b=mantissas.filter(bool), eb=exponents, bits=precisions)
@example(a=(1 << 200) + 1, ea=0, b=1, eb=0, bits=200)  # an exact tie
@example(a=(1 << 200) + 3, ea=0, b=1, eb=0, bits=200)
@example(a=3 * ((1 << 200) + 1), ea=-9, b=3, eb=4, bits=200)
@example(a=0, ea=0, b=7, eb=0, bits=53)
def test_quotient_is_mpmaths(a, ea, b, eb, bits):
    """``quotient`` is mpmath's correctly rounded ``mpf_div``, ties to even."""
    x, y = PBit(a, ea), PBit(b, eb)
    assert fixed.quotient(x, y, bits)._mpf_ == mpf_div(x._mpf_, y._mpf_, bits, round_nearest)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    man=st.integers(min_value=1, max_value=2**400),
    exp=exponents,
    bits=st.integers(min_value=64, max_value=700),
)
def test_log10_is_mpmaths(man, exp, bits):
    """``log10`` from ``decimal`` is float(mpmath's log10 at ``bits``) but
    where mpmath's value lies within its own rounding of a double
    midpoint, which no drawn case does; ``bits`` >= 64, the least
    precision of a P-bit report."""
    x = PBit(man, exp)
    with mp.workprec(bits):
        assert fixed.log10(x, bits) == float(mp.log10(x))


def test_quotient_and_log10_reject_their_poles():
    """A zero divisor raises ZeroDivisionError with ``quotient``'s own
    message (the integer division behind it would raise one of its own),
    and log10 of a non-positive number ValueError (``decimal`` would
    signal InvalidOperation)."""
    with pytest.raises(ZeroDivisionError, match="quotient by zero"):
        fixed.quotient(PBit(3, -2), 0, 53)
    with pytest.raises(ValueError, match="log10 of a non-positive number"):
        fixed.log10(PBit(-1, 0), 64)


def test_pbit_is_an_mpf_to_mpmath():
    """mpmath takes a PBit as the mpf of the same value, in its
    constructors, functions, arithmetic with an mpf and comparisons, and
    the two compare and hash as equal numbers; two PBits have no
    arithmetic of their own."""
    x = fixed.to_pbit(3 << 500, -501, 384)  # 1.5
    y = mp.mpf(1.5)
    assert x == y and y == x and x == 1.5 and hash(x) == hash(y) == hash(1.5)
    assert mp.mpf(x) == y and mp.log(x) == mp.log(y)
    assert x + y == 3 and y - x == 0 and x * y == 2.25 and abs(-mp.mpf(x)) == 1.5
    for op in (lambda: x * x, lambda: x + 1, lambda: -x, lambda: abs(x)):
        with pytest.raises(TypeError):
            op()
    assert x < 2 < y + 1 and y <= x and not x < y and x > mp.mpf(1)
    assert sorted([PBit(1, 1), x, 1, 0.25]) == [0.25, 1, x, 2]
    assert not x < math.nan and not x == math.nan
    assert float(x) == 1.5 and complex(x) == 1.5 and bool(PBit(0, 9)) is False
    assert PBit(12, 0) == PBit(3, 2) and PBit(12, 0)._mpf_ == (0, 3, 2, 2)


def test_fixed_mantissas_read_exactly():
    """``fixed_mantissas`` puts PBits, ints and floats on the one scale of
    the smallest exponent of a nonzero number, exactly, and an exact sum of
    products of two aligned sequences is ``fixed_dot``; a number of any
    other type, as an mpf is, raises TypeError rather than being read
    through a float."""
    from fractions import Fraction

    xs = [PBit(3, -200), 0.0, 5, -0.375, PBit(0, 0)]
    ms, e = fixed.fixed_mantissas(xs)
    assert e == -200 and ms[1] == ms[4] == 0

    def value(x):
        return Fraction(x.man) * Fraction(2) ** x.exp if isinstance(x, PBit) else Fraction(x)

    assert [m * Fraction(2) ** e for m in ms] == [value(x) for x in xs]
    assert fixed.fixed_mantissas([]) == ([], 0)
    assert fixed.fixed_dot(ms, [1, 2, 3, 4, 5]) == ms[0] + 3 * ms[2] + 4 * ms[3]
    assert fixed.fixed_toeplitz([1, 1], [1, 2, 3]) == [3, 5, 3]
    for other in (mp.mpf(1.5), Fraction(3, 2)):
        with pytest.raises(TypeError, match="a PBit, an int or a float"):
            fixed.fixed_mantissas([1.0, other])


# -- the seeds against the all-mpmath route --------------------------------


def arc_data_mp(mod, arcs, W, extra):
    """The arc data of ``taylor._arc_data`` as mpmath computed it at 2W bits,
    floored with ``to_fixed``."""
    d = mod.default_log_modulus
    with mp.workprec(2 * W):

        def own_scale(x):
            shift = W - x._mpf_[2] - x._mpf_[3]
            return to_fixed(x._mpf_, shift), shift

        mean = mp.mpf(d)
        for c in mod.cells:
            w, h = mp.mpf(c.theta_end) - c.theta_start, mp.mpf(c.log_modulus) - d
            mean += w * h / (2 * mp.pi)
        data = []
        for ts, te, lm in arcs:
            ts, te = mp.mpf(ts), mp.mpf(te)
            k = 2 * (mp.mpf(lm) - d) / mp.pi
            sin_w, mu = mp.sin((te - ts) / 2), (te + ts) / 2
            alpha = 2 * k * mp.cos(mu) * sin_w
            beta = -2 * k * mp.sin(ts) * mp.sin(mu) * sin_w
            data.append(
                own_scale(4 * mp.sin(te / 2) ** 2)
                + own_scale(4 * mp.sin(ts / 2) ** 2)
                + (to_fixed(alpha._mpf_, W + extra), to_fixed(beta._mpf_, W + extra))
            )
        return to_fixed(mp.exp(mean)._mpf_, W), data


def fhat_seeds_mp(f, radius, degree, W):
    """The seeds of ``experiments._seeds`` as mpmath computed them at 2W bits."""
    with mp.workprec(2 * W):
        r = 1 if radius is None else -mp.expm1(mp.mpf(radius.log_one_minus))
        cs = [mp.exp(mp.mpf(nd.log_c)) for nd in f.nodes]
        vs = [r * -mp.expm1(mp.mpf(nd.log_one_minus_w)) for nd in f.nodes]
        top = max(c * v**degree for c, v in zip(cs, vs))
    exp = mp.mag(top) - W - 2
    q = [W + 2 - mp.mag(v) for v in vs]
    return (
        exp,
        q,
        [to_fixed(v._mpf_, qm) for v, qm in zip(vs, q)],
        [to_fixed(c._mpf_, -exp) for c in cs],
    )


def test_seeds_equal_the_mpmath_route(pair, combo, monkeypatch):
    """The integer kernels reproduce the mpmath seed route they replaced,
    integer for integer: the arc data and F_0 of every pass of
    ``outer_series`` for phi, a and b, and the seeds and scale of
    ``_fhat_fixed`` at r = 1 and at the three radii of the benchmark's
    cross-check, on the pinned pair at (degree, bits) = (1024, 384) and
    (256, 128)."""
    passes = []
    arc_data = taylor._arc_data

    def spy(mod, arcs, W, extra):
        passes.append((mod, arcs, W, extra))
        return arc_data(mod, arcs, W, extra)

    monkeypatch.setattr(taylor, "_arc_data", spy)
    params = pair.params
    radii = (None, pair.seq.w[1], interval_radius(params, 1, 0.5), interval_radius(params, 2, 0.0))
    for degree, bits in ((1024, 384), (256, 128)):
        pair.phi_hat(degree, bits)
        pair.with_series(degree, bits)
        W = bits + 1 + (len(combo.nodes) * (degree + 1) + 2 * degree + 1).bit_length()
        for r in radii:
            radius = None if r is None else as_radius(r)
            seeds = _seeds(combo, radius, degree, W)
            assert seeds == fhat_seeds_mp(combo, radius, degree, W)
            fhat, exp, _ = _fhat_fixed(combo, degree, bits, r)
            assert (fhat[0], exp) == (sum(seeds[3]), seeds[0])
    assert len(passes) == 6
    for mod, arcs, W, extra in passes:
        assert arc_data(mod, arcs, W, extra) == arc_data_mp(mod, arcs, W, extra)


def test_arc_data_raises_a_short_precision(pair, monkeypatch):
    """``_arc_data`` checks the size of every factor on its integers and,
    when the float estimate of ``_arc_bits`` left one short, runs again
    with the bits it lacks: started at P = 2W + 16, about 60 bits too few
    for phi's deepest arcs, it takes a second pass and returns the same
    integers."""
    mod = pair.phi_modulus
    arcs = [
        (max(c.theta_start, 0.0), c.theta_end, c.log_modulus)
        for c in mod.cells
        if c.theta_end > 0.0
    ]
    W, extra = 441, 22
    want = taylor._arc_data(mod, arcs, W, extra)
    assert taylor._arc_bits(arcs, W) > 2 * W + 16 + 60
    passes = []
    pi_fixed = fixed.pi_fixed

    def counted(prec):
        passes.append(prec)
        return pi_fixed(prec)

    monkeypatch.setattr(taylor, "_arc_bits", lambda arcs, W: 2 * W + 16)
    monkeypatch.setattr(taylor, "pi_fixed", counted)
    assert taylor._arc_data(mod, arcs, W, extra) == want
    # the mean's pi, then one pass per P
    assert len(passes) == 3 and passes[1] == 2 * W + 16 < passes[2]
