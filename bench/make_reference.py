#!/usr/bin/env python3
"""Write bench/reference.json: the outputs run.py checks every task against.

Usage (from the root of a checkout): python3 bench/make_reference.py

Runs set-up and one task of each workload on the current tree and stores
their seed-independent outputs: report rows, params, metadata, ``passed``
verdicts and exit codes.  The committed file was made on the commit that
introduced the benchmark; regenerate it only when a change is meant to
move reported numbers, and say which numbers moved and why.
"""

import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SEED = 0


def main():
    bench.use_sources()
    work = bench.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = bench.Context(work, SEED, time.monotonic() + 600.0)
        bench.set_up(ctx, None)
        reference = {"pair": json.loads((work / "pair.json").read_text())}
        for name, (setup_fn, task_fn, reports) in bench.WORKLOADS.items():
            if setup_fn is not None:
                setup_fn(ctx)
            task = bench.Task(ctx, traced=False)
            task_fn(task, ctx)
            errors, out = bench.split_seeded(bench.task_outputs(task, ctx, reports), SEED)
            if errors:
                sys.exit(f"{name}: {errors}")
            reference[name] = out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = bench.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
