"""Acceptance gate: criteria A1-A10, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced.

Three criteria fail by design at the pinned parameters (alpha=1.2,
beta=1.5, power from the sampled bound search): the per-interval growth
bound does not hold at desk-scale indices -- the interior of the intervals
only clears it around n ~ 150, far beyond float range -- so the bound
clause of A5, the bound clause of A6, and the positivity clause of A9 are
honestly red.  The implementation computes them faithfully and reports the
measured values; every internal consistency clause (quadrature, norm chain,
monotonicity) is green.
"""

import json
import math
import time

import numpy as np
import pytest

from hblab import (
    ConstructionParams,
    GrowthBoundError,
    build_pair,
    choose_power_m,
    hb_norm_sq,
    make_sequences,
    tame_pair,
)
from hblab.cli import main as cli_main
from hblab.experiments import (
    abel_fr_plus,
    build_divergent_combo,
    default_r_grid,
    divergence_curve,
    fr_plus_at_zero,
    growth_envelope,
    interval_radius,
    phi_hat_series,
    summability_divergence,
)
from hblab.hb import dilate, f_plus_solve, kernel_hb, sarason_f_plus
from hblab.outer import (
    log_phi_disk,
    poisson_quad_crosscheck,
    verify_growth_bound,
)
from hblab.pair import outer_eval
from hblab.series import TaylorSeries

_LN10 = math.log(10.0)


def _criterion(name: str, clauses: dict, start: float, budget: float):
    elapsed = time.monotonic() - start
    clauses = dict(clauses)
    clauses[f"runtime<{budget:g}s"] = elapsed < budget
    ok = all(clauses.values())
    failing = [k for k, v in clauses.items() if not v]
    status = "PASS" if ok else "FAIL"
    detail = "all clauses hold" if ok else "failing: " + ", ".join(failing)
    print(f"{name}: {status} ({elapsed:.1f} s) - {detail}")
    assert ok, f"{name}: {detail}"


def test_A1_pair_identity(pair):
    start = time.monotonic()
    worst = 0.0
    for ca, cb in zip(pair.a_modulus.cells, pair.b_modulus.cells):
        total = math.exp(2.0 * ca.log_modulus) + math.exp(2.0 * cb.log_modulus)
        worst = max(worst, abs(total - 1.0))
    off = math.exp(2.0 * pair.a_modulus.default_log_modulus) + math.exp(
        2.0 * pair.b_modulus.default_log_modulus
    )
    worst = max(worst, abs(off - 1.0))
    _criterion("A1", {"|a|^2+|b|^2=1 to 1e-12": worst <= 1e-12}, start, 1.0)


def test_A2_outer_normalization(pair, params):
    start = time.monotonic()
    a0 = complex(outer_eval(pair.a_modulus, 0.0))
    b0 = complex(outer_eval(pair.b_modulus, 0.0))
    mean_ok = abs(a0.real - pair.a_modulus.mean_log_modulus()) <= 1e-12
    positive = abs(a0.imag) <= 1e-12 and abs(b0.imag) <= 1e-12
    worst = 0.0
    for i in range(16):
        x = (2 * i - 15) / 17
        lhs = outer_eval(pair.b_modulus, x) - outer_eval(pair.a_modulus, x)
        rhs = log_phi_disk(complex(x, 0.0), params, pair.seq)
        worst = max(worst, abs(lhs - rhs))
    _criterion(
        "A2",
        {
            "log a(0) = cell mean to 1e-12": mean_ok,
            "a(0) > 0 and b(0) > 0": positive,
            "b/a = phi at 16 points to 1e-8": worst <= 1e-8,
        },
        start,
        5.0,
    )


def test_A3_norm_crosscheck(tame):
    start = time.monotonic()
    phi_hat = tame.phi_hat(160)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(1, 33))
        c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        p = TaylorSeries(tuple(complex(v) for v in c))
        via_solve = p.l2_norm_sq() + f_plus_solve(p, tame).l2_norm_sq()
        via_sarason = p.l2_norm_sq() + sarason_f_plus(p, phi_hat).l2_norm_sq()
        worst = max(worst, abs(via_solve - via_sarason) / abs(via_sarason))
    one = TaylorSeries((1.0,) + (0.0,) * 16)
    norm_one = hb_norm_sq(one, tame).to_float()
    _criterion(
        "A3",
        {
            "100 seeded polys rel err <= 1e-9": worst <= 1e-9,
            "||1||^2 = 2 within 1e-12": abs(norm_one - 2.0) <= 1e-12,
        },
        start,
        10.0,
    )


def test_A4_reproducing_kernel(tame, hb_inner):
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for w in (0.1, 0.4, 0.7, 0.3 + 0.2j):
        k = kernel_hb(w, tame, 140)
        for _ in range(5):
            deg = int(rng.integers(1, 17))
            c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
            p = TaylorSeries(tuple(complex(v) for v in c))
            got = hb_inner(p, k, tame)
            worst = max(worst, abs(got - complex(p(w))))
    _criterion(
        "A4", {"<p, k_w^b> = p(w) to 1e-8 (20 polys)": worst <= 1e-8}, start, 5.0
    )


def test_A5_growth_bound_and_quadrature():
    start = time.monotonic()
    params = ConstructionParams(alpha=1.2, beta=1.5, n_check=5)
    seq = make_sequences(params)
    try:
        m = choose_power_m(params, seq, r_samples=33)
        params = params.with_power(m)
        bound_ok = all(
            rec.passed
            for n in range(1, params.n_check + 1)
            for rec in verify_growth_bound(n, 33, params, seq)
        )
    except GrowthBoundError:
        # no power exists: the sampled ratio is negative on every checked
        # interval at these exponents (asymptotic-only bound)
        bound_ok = False
    try:
        quad_ok = poisson_quad_crosscheck(seq, n_points=50, seed=0) <= 1e-8
    except AssertionError:
        quad_ok = False
    _criterion(
        "A5",
        {
            "sampled growth bound with chosen m": bound_ok,
            "closed form vs quadrature rel 1e-8 at 50 points": quad_ok,
        },
        start,
        60.0,
    )


def test_A6_divergence(params, pair, combo):
    start = time.monotonic()
    mids = [
        (n, fr_plus_at_zero(interval_radius(params, n, 0.5), combo, pair))
        for n in range(2, 7)
    ]
    vals = [v.log_mag for _, v in mids]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    bound_ok = True
    for n, v in mids:
        nb, na = float(n) ** params.beta, float(n) ** params.alpha
        log_bound = -0.5 * nb + math.exp(nb - na) - 2.0 * math.log(n)
        bound_ok = bound_ok and v.log_mag >= log_bound
    curve = divergence_curve(default_r_grid(params), combo, pair)
    chain_ok = bool(curve.metadata["norm_chain_ok"])
    _criterion(
        "A6",
        {
            "midpoint values increasing n=2..6": increasing,
            "values exceed closed lower bound": bound_ok,
            "||f_r|| >= |(f_r)+(0)| on all rows": chain_ok,
        },
        start,
        60.0,
    )


def test_A7_cross_representation(params, pair, combo):
    start = time.monotonic()
    from mpmath import mp

    phi_hat = phi_hat_series(pair, 3072, precision_bits=384)
    worst = 0.0
    radii = (
        pair.seq.w[1],
        interval_radius(params, 1, 0.5),
        interval_radius(params, 3, 0.0),
    )
    for r in radii:
        gram = fr_plus_at_zero(r, combo, pair)
        abel = abel_fr_plus(r, combo, pair, precision_bits=384, phi_hat=phi_hat)
        worst = max(worst, abs(float(mp.log(abel)) - gram.log_mag))
    _criterion(
        "A7",
        {"Gram vs Abel series rel err <= 1e-6 at 3 radii": worst <= 1e-6},
        start,
        120.0,
    )


def test_A8_summability(pair, combo):
    start = time.monotonic()
    n_list = [0, 1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64]
    rep = summability_divergence(n_list, combo, pair, precision_bits=192)
    rows = rep.rows
    s8 = next(ls for n, ls, _ in rows if n == 8)
    sig8 = next(lg for n, _, lg in rows if n == 8)
    run_s = run_sig = -math.inf
    max_s, max_sig = {}, {}
    for n, ls, lsig in rows:
        run_s, run_sig = max(run_s, ls), max(run_sig, lsig)
        max_s[n], max_sig[n] = run_s, run_sig
    _criterion(
        "A8",
        {
            "running max ||s_n|| increases 8..64": max_s[64] > s8,
            "running max ||sigma_n|| increases 8..64": max_sig[64] > sig8,
            "convexity on every row": bool(rep.metadata["convexity_ok"]),
        },
        start,
        300.0,
    )


def test_A9_growth_envelope(params, pair, combo):
    start = time.monotonic()
    grid = [r for r in default_r_grid(params) if r.log_one_minus < -1.0]
    env = growth_envelope(grid, combo, pair)
    c = float(env.metadata["empirical_c"])
    finite = all(math.isfinite(row[1]) for row in env.rows)
    print(f"A9: empirical constant c = {c:.6f} over {len(env.rows)} radii")
    _criterion(
        "A9",
        {"E(r) finite on all rows": finite, "empirical min E > 0": c > 0.0},
        start,
        60.0,
    )


def _cli_exit_code(argv) -> int:
    """Run one CLI verb in this process; returns its exit code."""
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    return exit_.value.code


def test_A10_determinism(tmp_path):
    start = time.monotonic()
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert _cli_exit_code(["construct", "--out", str(out)]) == 0
        _cli_exit_code(["verify-outer", "--out", str(out)])
        _cli_exit_code(["divergence", "--out", str(out)])
        assert _cli_exit_code(["norm-crosscheck", "--out", str(out), "--seed", "3"]) == 0
        outs.append(out)
    names = (
        "pair.json",
        "verify_outer.json",
        "divergence.json",
        "envelope.json",
        "norm_crosscheck.json",
    )
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    _criterion("A10", {"byte-identical JSON reports": identical}, start, 60.0)
