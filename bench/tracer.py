"""Outside-in layer tracer for hblab.

The tracer wraps public hblab functions from outside the package: for each
target it replaces every module-level binding of the original function in
every loaded ``hblab`` module (``from .series import exp_series`` makes a
second binding in ``pair``, ``experiments`` and ``hblab`` itself), and
class attributes for methods.  Each wrapped call records one span
``(name, start, end, parent)`` in memory; some targets also add exact work
counts.  Nothing is written until ``dump`` is called.

This module imports only the standard library at import time, so the
traced CLI launcher can time ``import hblab.cli`` before installing it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _exp_series(g):
    n = len(g.coeffs) - 1
    return {"coeffs": n + 1, "madds": n * (n + 1) // 2}  # computed, not measured


def _triangular_solve(diag_and_superdiagonals, rhs, min_diag=1e-300):
    return {"n": len(rhs)}


def _log_outer_series(mod, degree):
    return {"coeffs": degree + 1}


def _f_plus_solve(f, pair, tol=1e-9, degree=None):
    # the working degree defaults to max(4 * input degree, 16) in hb.f_plus_solve
    work = degree if degree is not None else max(4 * f.truncation_degree, 16)
    return {"useful_coeffs": f.truncation_degree + 1, "work_coeffs": work + 1}


def _log_sum_signed(terms):
    return {"terms": len(terms)}


def _write_report_bytes(result, report, cfg):
    out = Path(cfg["output_dir"])
    return {"bytes": sum((out / f"{report.name}.{ext}").stat().st_size for ext in cfg["formats"])}


# (module, attribute, counts before the call, counts after the call)
TARGETS = (
    ("series", "exp_series", _exp_series, None),
    ("series", "triangular_solve_upper_toeplitz", _triangular_solve, None),
    ("pair", "log_outer_series", _log_outer_series, None),
    ("pair", "outer_eval", None, None),
    ("pair", "build_pair", None, None),
    ("pair", "pair_from_json", None, None),
    ("pair", "Pair.with_series", None, None),
    ("experiments", "phi_hat_series", None, None),
    ("experiments", "abel_fr_plus", None, None),
    ("experiments", "f_hat_log", None, None),
    ("experiments", "sarason_series_failure", None, None),
    ("experiments", "summability_divergence", None, None),
    ("experiments", "divergence_curve", None, None),
    ("experiments", "growth_envelope", None, None),
    ("hb", "f_plus_solve", _f_plus_solve, None),
    ("hb", "f_plus_residual", None, None),
    ("hb", "toeplitz_coanalytic_apply", None, None),
    ("hb", "sarason_f_plus", None, None),
    ("hb", "hb_norm_sq", None, None),
    ("outer", "growth_log_ratio", None, None),
    ("outer", "half_plane_log_modulus_radial", None, None),
    ("outer", "log_Phi_halfplane", None, None),
    ("outer", "poisson_quad_crosscheck", None, None),
    ("outer", "make_sequences", None, None),
    ("logscalar", "log_sum_exp", None, None),  # terms counted in the wrapper
    ("logscalar", "log_sum_signed", _log_sum_signed, None),
    ("reports", "ExperimentReport.to_json", None, None),
    ("cli", "write_report", None, _write_report_bytes),
)

LOGSCALAR_COUNT = "logscalar.LogScalar.count"


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []

    def record(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent))

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def add(self, name, counts):
        for key, value in counts.items():
            self.counts[f"{name}.{key}"] += value

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def dump(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))


def _wrapper(tracer, name, fn, before, after):
    if name == "logscalar.log_sum_exp":

        @functools.wraps(fn)
        def wrapped(terms):
            terms = list(terms)  # callers may pass a generator
            tracer.add(name, {"terms": len(terms)})
            return tracer.call(name, fn, (terms,), {})

        return wrapped

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            tracer.add(name, before(*args, **kwargs))
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            bound = sig.bind(*args, **kwargs)
            tracer.add(name, after(result, *bound.args, **bound.kwargs))
        return result

    return wrapped


def install(tracer):
    """Wrap every target in every loaded hblab module; returns an undo list."""
    for mod in ("logscalar", "series", "outer", "pair", "hb", "reports", "experiments", "cli"):
        importlib.import_module(f"hblab.{mod}")
    modules = [m for n, m in list(sys.modules.items()) if n == "hblab" or n.startswith("hblab.")]
    undo = []
    for modname, attr, before, after in TARGETS:
        name = f"{modname}.{attr}"
        home = sys.modules[f"hblab.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            orig = owner.__dict__[meth]
            undo.append((owner, meth, orig))
            setattr(owner, meth, _wrapper(tracer, name, orig, before, after))
            continue
        orig = getattr(home, attr)
        wrapped = _wrapper(tracer, name, orig, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    logscalar = sys.modules["hblab.logscalar"].LogScalar
    post_init = logscalar.__dict__["__post_init__"]

    def counted(self):
        tracer.counts[LOGSCALAR_COUNT] += 1
        post_init(self)

    undo.append((logscalar, "__post_init__", post_init))
    logscalar.__post_init__ = counted
    return undo


def uninstall(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def self_times(spans):
    """Per-name self seconds, per-name call counts and covered seconds.

    Self time is a span's duration minus the time its direct children
    cover; spans of one process nest, so children never overlap.  Covered
    time is the summed duration of root spans.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    covered = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - child[idx]
        calls[name] += 1
        if parent < 0:
            covered += end - start
    return self_s, calls, covered
