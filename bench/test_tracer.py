"""Checks of the benchmark's layer tracer.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_tracer.py

The tracer rebinds functions that other hblab modules imported by name;
a binding it missed would drop calls silently.  These tests compare its
call counts with cProfile's on a small input that enters every traced
function, and require two traced runs to give identical counts.
"""

import cProfile
import json
import math
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
from run import layer_sample  # noqa: E402

import hblab.cli as cli  # noqa: E402
import hblab.experiments as ex  # noqa: E402
import hblab.hb as hb  # noqa: E402
import hblab.outer as outer  # noqa: E402
import hblab.pair as pairmod  # noqa: E402
import hblab.reports as reports  # noqa: E402
from hblab.series import TaylorSeries  # noqa: E402


def small_workload(tmp_path):
    """Enters every traced function once or more, in about a second."""
    params = outer.ConstructionParams(alpha=1.2, beta=1.5, power_m=1)
    pair = pairmod.build_pair(params)
    pair = pairmod.pair_from_json(pairmod.pair_to_json(pair))
    combo = ex.build_divergent_combo(params, pair)
    ex.summability_divergence([0, 4, 8], combo, pair, precision_bits=192)
    outer.growth_bound_scan(params, 1, 1)
    ex.sarason_series_failure(16, combo, pair, precision_bits=256)
    ex.abel_fr_plus(pair.seq.w[1], combo, pair, precision_bits=256, degree=32, tail_rel=math.inf)
    grid = ex.default_r_grid(params)[-2:]
    ex.divergence_curve(grid, combo, pair)
    ex.growth_envelope(grid, combo, pair)
    tame = pairmod.tame_pair(degree=32)
    poly = TaylorSeries((1.0, 0.5j, -0.25))
    hb.sarason_f_plus(poly, TaylorSeries((1.0,) + (2.0,) * 32))
    hb.f_plus_solve(poly, tame)
    outer.poisson_quad_crosscheck(pair.seq, n_points=2, seed=1)
    report = reports.ExperimentReport("small", ("x",), [(1.0,)])
    cli.write_report(report, {"output_dir": str(tmp_path), "formats": ["json", "csv"]})


def originals():
    """Code object of every traced function, keyed by span name."""
    out = {}
    for modname, attr, _, _ in tracing.TARGETS:
        obj = sys.modules[f"hblab.{modname}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        out[f"{modname}.{attr}"] = obj.__code__
    out[tracing.LOGSCALAR_COUNT] = sys.modules["hblab.logscalar"].LogScalar.__post_init__.__code__
    return out


def traced(tmp_path):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        small_workload(tmp_path)
    finally:
        tracing.uninstall(undo)
    _, calls, _ = tracing.self_times(tracer.spans)
    calls = dict(calls)
    calls[tracing.LOGSCALAR_COUNT] = tracer.counts[tracing.LOGSCALAR_COUNT]
    return tracer, calls


def test_wrappers_catch_every_call(tmp_path):
    codes = originals()
    profile = cProfile.Profile()
    profile.enable()
    small_workload(tmp_path)
    profile.disable()
    ncalls = {}
    for (filename, line, _), (_, nc, _, _, _) in pstats.Stats(profile).stats.items():
        ncalls[(filename, line)] = nc
    _, calls = traced(tmp_path)
    for name, code in codes.items():
        profiled = ncalls.get((code.co_filename, code.co_firstlineno), 0)
        assert profiled > 0, f"{name} is not entered by the small workload"
        assert calls.get(name, 0) == profiled, name
    # the tracer left every binding as it found it
    assert originals() == codes


def test_counts_repeat_exactly(tmp_path):
    first, first_calls = traced(tmp_path)
    second, second_calls = traced(tmp_path)
    assert first_calls == second_calls
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["series.exp_series.madds"] > 0
    assert first.counts["logscalar.log_sum_exp.terms"] > 0


def test_every_per_layer_metric_is_computed(tmp_path):
    tracer, _ = traced(tmp_path)
    sample = layer_sample([{"spans": tracer.spans, "counts": tracer.counts}], wall=1.0)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    missing = sorted(n for n in names if n not in sample)
    assert not missing
    assert 0.0 < sample["hb.f_plus_solve.useful_frac"] < 1.0
    assert sample["cli.write_report.bytes"] > 0
