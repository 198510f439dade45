#!/usr/bin/env python3
"""The hblab benchmark: two workloads, closed loop, one task at a time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {mp,desk} --seed N \
        --seconds S --trace {0,1}

Set-up times several cold ``hblab construct`` processes (``setup_s``).
Then tasks run back to back for S seconds, each started only after the
previous one finished.  Every CLI verb runs as a fresh ``python3 -m
hblab.cli`` process, as users run it; library-only steps run in this
process.  Each task's outputs are checked against ``reference.json``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json (medians over tasks).  With
``--trace 1`` untraced and traced tasks alternate and the object holds the
per-layer metrics instead, from spans the benchmark records around hblab's
public functions (see tracer.py); the untraced tasks give the tracing
overhead.  See README.md for how to read both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402

# Relative tolerance for numbers compared with the reference: loose enough
# for a phi-hat more accurate than today's ~6e-15, tight enough to catch a
# wrong digit.
RTOL = 1e-10
# Thresholds of the verbs themselves, used where the output depends on the seed.
NORM_CROSSCHECK_MAX = 1e-9
QUADRATURE_MAX = 1e-8
# Keys never compared: config_hash hashes the set of config keys, which a
# change that drops a dead key alters without changing any result.
IGNORED_KEYS = {"config_hash"}

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every child still running past this is killed
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

COEFF_DEGREE = 1024
COEFF_BITS = 384
SCAN_ROWS = 250


# -- processes ---------------------------------------------------------------


def run_process(argv, cwd, deadline):
    """Run a child to completion; returns (exit code, cpu seconds, peak MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    with open(cwd / "stderr.log", "ab") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Task:
    """One task's processes and library steps, with their costs."""

    def __init__(self, ctx, traced):
        self.ctx = ctx
        self.traced = traced
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.exit = {}
        self.span_files = []
        self.results = {}

    def verb(self, name, *args):
        argv = [name, "--out", str(self.ctx.work), *args]
        if self.traced:
            spans = self.ctx.work / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
        else:
            argv = [sys.executable, "-m", "hblab.cli", *argv]
        code, cpu, rss = run_process(argv, self.ctx.work, self.ctx.deadline)
        self.cpu_s += cpu
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.exit[name] = code

    def library(self, key, fn, *args):
        start = time.process_time()
        self.results[key] = fn(*args)
        self.cpu_s += time.process_time() - start
        # high-water mark of this process; steady once the first task ran
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, own)


# -- workloads ---------------------------------------------------------------
# Library calls go through the hblab module attributes, never through names
# bound here, so the tracer's rebinding sees them.


def mp_setup(ctx):
    from hblab.experiments import interval_radius

    ctx.config = ctx.work / "sarason-config.json"
    ctx.config.write_text(json.dumps({"j_max": COEFF_DEGREE, "precision_bits": COEFF_BITS}))
    params = ctx.pair.params
    ctx.radii = (ctx.pair.seq.w[1], interval_radius(params, 1, 0.5), interval_radius(params, 2, 0.0))


def crossrep(pair, combo, radii):
    """A7's cross-representation check at degree COEFF_DEGREE."""
    import hblab.experiments as ex

    phi_hat = ex.phi_hat_series(pair, COEFF_DEGREE, COEFF_BITS)
    return [
        (ex.fr_plus_at_zero(r, combo, pair),
         ex.abel_fr_plus(r, combo, pair, precision_bits=COEFF_BITS, phi_hat=phi_hat))
        for r in radii
    ]


def mp_task(task, ctx):
    task.verb("sarason", "--config", str(ctx.config))
    task.library("crossrep", crossrep, ctx.pair, ctx.combo, ctx.radii)
    task.verb("summability")


def desk_task(task, ctx):
    import hblab.outer as outer

    seed = str(ctx.seed)
    task.verb("construct")
    task.verb("verify-outer", "--seed", seed)
    task.verb("divergence")
    task.verb("norm-crosscheck", "--seed", seed)
    task.library("scan", outer.growth_bound_scan, ctx.pair.params, 1, SCAN_ROWS)


WORKLOADS = {
    # name: (set-up, task, reports the task writes)
    "mp": (mp_setup, mp_task, ("sarason", "summability")),
    "desk": (None, desk_task, ("pair", "verify_outer", "divergence", "envelope", "norm_crosscheck")),
}


# -- outputs and their check -------------------------------------------------


def _num(x):
    return None if x is None else repr(float(x))


def task_outputs(task, ctx, reports):
    """The task's checked outputs as JSON values (numbers as repr strings)."""
    out = {"exit": task.exit, "reports": {}}
    for name in reports:
        path = ctx.work / f"{name}.json"
        out["reports"][name] = json.loads(path.read_text()) if path.exists() else None
    if "crossrep" in task.results:
        from mpmath import mp

        out["crossrep"] = [
            {"gram_log": _num(gram.log_mag), "abel_log": _num(mp.log(abel))}
            for gram, abel in task.results["crossrep"]
        ]
    if "scan" in task.results:
        out["scan"] = [
            [row.n, _num(row.min_log_ratio.log_mag), row.min_log_ratio.sign(),
             _num(row.min_log_ratio_interior.log_mag), row.min_log_ratio_interior.sign(),
             _num(row.log_bound), row.interior_positive, _num(row.passes_with_m)]
            for row in task.results["scan"]
        ]
    return out


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def compare(ref, got, path, errors):
    """Numbers within RTOL, everything else exactly; keys the output adds
    beyond the reference are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object, got {got!r}")
            return
        for key, value in ref.items():
            if key in IGNORED_KEYS:
                continue
            if key not in got:
                errors.append(f"{path}.{key}: missing")
            else:
                compare(value, got[key], f"{path}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: expected {len(ref)} entries, got {got!r:.80}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            compare(a, b, f"{path}[{i}]", errors)
    elif ref != got and not _close(ref, got):
        errors.append(f"{path}: expected {ref!r}, got {got!r}")


def split_seeded(out, seed):
    """Check the seed-dependent outputs by the verbs' own thresholds and
    remove them; the rest is seed-independent and compared with the
    reference."""
    errors = []
    reports = out["reports"]
    vo = reports.get("verify_outer")
    if vo is not None:
        err = float(vo["metadata"].pop("quadrature_max_rel_err"))
        if not err <= QUADRATURE_MAX:
            errors.append(f"verify_outer quadrature_max_rel_err {err} > {QUADRATURE_MAX}")
    if "norm_crosscheck" in reports:
        nc = reports.pop("norm_crosscheck")
        worst = float(nc["metadata"]["max_rel_err"])
        one = float(nc["metadata"]["norm_sq_of_one"])
        if not (nc["passed"] is True and worst <= NORM_CROSSCHECK_MAX and abs(one - 2.0) <= 1e-12):
            errors.append(f"norm_crosscheck: passed {nc['passed']}, max_rel_err {worst}, ||1||^2 {one}")
        if nc["params"]["seed"] != str(seed) or len(nc["rows"]) != 100:
            errors.append("norm_crosscheck: wrong seed or row count")
        if any(float(row[2]) > NORM_CROSSCHECK_MAX for row in nc["rows"]):
            errors.append("norm_crosscheck: a row exceeds the threshold")
    return errors, out


def check_outputs(out, seed, reference):
    errors, out = split_seeded(out, seed)
    compare(reference, out, "", errors)
    for row in out.get("crossrep", ()):
        gap = abs(float(row["abel_log"]) - float(row["gram_log"]))
        if not gap <= RTOL:
            errors.append(f"crossrep: Abel-Gram gap {gap} > {RTOL}")
    return errors


# -- the run -------------------------------------------------------------------


class Context:
    def __init__(self, work, seed, deadline):
        self.work = work
        self.seed = seed
        self.deadline = deadline


def set_up(ctx, reference):
    """Time cold construct processes; returns (seconds each, failures)."""
    import hblab.experiments as ex
    import hblab.pair as pairmod

    argv = [sys.executable, "-m", "hblab.cli", "construct", "--out", str(ctx.work)]
    run_process(argv, ctx.work, ctx.deadline)  # writes the bytecode caches
    times, failures = [], 0
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, _ = run_process(argv, ctx.work, ctx.deadline)
        times.append(time.perf_counter() - start)
        errors = []
        if code != 0:
            errors.append(f"construct exit {code}")
        elif reference is not None:
            compare(reference, json.loads((ctx.work / "pair.json").read_text()), "pair", errors)
        failures += bool(errors)
        report_errors("set-up", errors)
    ctx.pair = pairmod.pair_from_json((ctx.work / "pair.json").read_text())
    ctx.combo = ex.build_divergent_combo(ctx.pair.params, ctx.pair)
    return times, failures


def report_errors(what, errors):
    for line in errors[:5]:
        print(f"{what}: {line}", file=sys.stderr)


def layer_sample(procs, wall):
    """Per-layer values of one traced task from the spans and counts of its
    processes: self seconds, calls and work counts."""
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    covered = 0.0
    imports = []
    for proc in procs:
        s, c, cov = tracing.self_times(proc["spans"])
        covered += cov
        for name in s:
            self_s[name] += s[name]
            calls[name] += c[name]
        for key, value in proc["counts"].items():
            counts[key] += value
        imports += [end - start for name, start, end, _ in proc["spans"] if name == "cli.import"]
    sample = {}
    for modname, attr, _, _ in tracing.TARGETS:
        name = f"{modname}.{attr}"
        sample[f"{name}.s"] = self_s[name]
        sample[f"{name}.calls"] = calls[name]
    sample.update(counts)
    work = counts["hb.f_plus_solve.work_coeffs"]
    sample["hb.f_plus_solve.useful_frac"] = counts["hb.f_plus_solve.useful_coeffs"] / work if work else 1.0
    sample["cli.import_s"] = statistics.median(imports) if imports else 0.0
    sample["trace.coverage"] = covered / wall
    return sample


def measure(args, ctx, reference, task_fn, reports):
    """Closed loop for args.seconds; alternates untraced and traced tasks
    when tracing."""
    walls = {False: [], True: []}
    cpus, rss, samples = [], [], []
    attempted = failed = 0
    tracer = tracing.Tracer()
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and walls[False] and (walls[True] or not args.trace):
            break
        if time.monotonic() > ctx.deadline:
            break
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        for name in reports:
            (ctx.work / f"{name}.json").unlink(missing_ok=True)
        task = Task(ctx, traced)
        undo = None
        if traced:
            tracer.reset()
            undo = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            task_fn(task, ctx)
            errors = []
        except Exception:  # a raising task is a failed task; the run goes on
            errors = [traceback.format_exc()]
        finally:
            wall = time.perf_counter() - t0
            if undo is not None:
                tracing.uninstall(undo)
        if not errors:
            try:
                errors = check_outputs(task_outputs(task, ctx, reports), ctx.seed, reference)
            except (KeyError, TypeError, ValueError, AttributeError):
                errors = [traceback.format_exc()]
        attempted += 1
        failed += bool(errors)
        report_errors(f"task {attempted}", errors)
        walls[traced].append(wall)
        if traced:
            procs = [{"spans": tracer.spans, "counts": tracer.counts}]
            procs += [json.loads(p.read_text()) for p in task.span_files if p.exists()]
            samples.append(layer_sample(procs, wall))
        else:
            cpus.append(task.cpu_s)
            rss.append(task.peak_rss_mb)
    return walls, cpus, rss, samples, attempted, failed


def environment(args):
    import mpmath

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_independent": args.workload == "mp",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": commit,
    }


def run(args, work, spec, reference):
    ctx = Context(work, args.seed, time.monotonic() + RUN_LIMIT_S)
    setup_times, setup_failed = set_up(ctx, reference["pair"])
    setup_fn, task_fn, reports = WORKLOADS[args.workload]
    if setup_fn is not None:
        setup_fn(ctx)
    walls, cpus, rss, samples, attempted, failed = measure(
        args, ctx, reference[args.workload], task_fn, reports
    )
    attempted += len(setup_times)
    failed += setup_failed
    if args.trace:
        # a layer a workload never enters has no spans or counts: zero
        values = defaultdict(int, {k: statistics.median(s[k] for s in samples) for k in samples[0]})
        values["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rss),
        }
        wanted = spec["end_to_end"]
    print(json.dumps({"environment": environment(args), "setup_s_samples": setup_times,
                      "wall_s_untraced": walls[False], "wall_s_traced": walls[True],
                      "cpu_s_untraced": cpus}))
    for m in wanted:
        print(f"{m['name']:48s} {values[m['name']]:>16.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def use_sources():
    """Import hblab from the checkout's src/, single-threaded."""
    if not (SRC / "hblab" / "cli.py").is_file():
        sys.exit(f"error: no hblab sources under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    use_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work, spec, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
