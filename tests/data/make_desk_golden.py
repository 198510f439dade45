#!/usr/bin/env python3
"""Write tests/data/desk_golden.json: the float report files that
``tests/test_desk_golden.py`` requires to repeat exactly.

Usage (from the root of a checkout): PYTHONPATH=src python3 tests/data/make_desk_golden.py

Stores, line by line, the CSV text of ``verify_outer.csv``
(``verify-outer --seed 0``; the seed moves only the quadrature check,
which the CSV leaves out), ``divergence.csv``, ``envelope.csv`` (both
written by the ``divergence`` verb) and ``norm_crosscheck.csv``
(``norm-crosscheck --seed 3``), each at the CLI defaults after
``construct``, run in a fresh directory through ``hblab.cli.main`` in this
process, with the verbs' stderr discarded.  It also stores the
``rho_ratio_table`` of that ``pair.json`` and, on the pair it holds and
its divergent kernel combination, ``fr_plus_at_zero(r).log_mag`` at the
three radii of acceptance check A7 and at the three of the benchmark's
``mp`` workload.
Regenerate it only when a change is meant to move these numbers, and say
which moved and why: before it overwrites the file, the script prints each
value that differs from the file as it was, as "path: old -> new".
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hblab.cli import main as cli_main
from hblab.experiments import build_divergent_combo, fr_plus_at_zero, interval_radius
from hblab.pair import pair_from_json

RUNS = (
    (["verify-outer", "--seed", "0"], ("verify_outer",)),
    (["divergence"], ("divergence", "envelope")),
    (["norm-crosscheck", "--seed", "3"], ("norm_crosscheck",)),
)


def run_verb(argv):
    """(exit code, stderr text) of one CLI verb run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            cli_main(argv)
        except SystemExit as e:
            return e.code, err.getvalue()
    raise RuntimeError(f"{argv[0]} returned without exiting")


def radii(pair) -> dict:
    """The radii at which A7 and the ``mp`` workload compare the Gram value
    (f_r)+(0) with its Abel series."""
    params = pair.params
    w1, mid1 = pair.seq.w[1], interval_radius(params, 1, 0.5)
    return {
        "A7": (w1, mid1, interval_radius(params, 3, 0.0)),
        "mp": (w1, mid1, interval_radius(params, 2, 0.0)),
    }


def golden() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_verb(["construct", "--out", tmp])
        if code != 0:
            raise RuntimeError(f"construct exited {code}: {err}")
        for args, names in RUNS:
            # verify-outer and divergence exit 4: their bound rows fail at
            # the default scale
            run_verb(args + ["--out", tmp, "--format", "csv"])
            for name in names:
                out[name] = (Path(tmp) / f"{name}.csv").read_text().splitlines()
        doc = (Path(tmp) / "pair.json").read_text()
    out["rho_ratio_table"] = json.loads(doc)["rho_ratio_table"]
    pair = pair_from_json(doc)
    combo = build_divergent_combo(pair.params, pair)
    out["fr_plus_at_zero_log_mag"] = {
        name: [fr_plus_at_zero(r, combo, pair).log_mag for r in rs]
        for name, rs in radii(pair).items()
    }
    return out


def moved(old, new, path="golden"):
    """Lines "path: old -> new", one for each value of ``new`` that differs
    from ``old``, the file as it was."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{path}.{k}", old.get(k), new.get(k)) for k in sorted(set(old) | set(new))]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return [] if old == new else [f"{path}: {old} -> {new}"]
    return [line for sub, a, b in pairs for line in moved(a, b, sub)]


def main():
    path = Path(__file__).resolve().parent / "desk_golden.json"
    new = golden()
    old = json.loads(path.read_text()) if path.exists() else {}
    for line in moved(old, new):
        print(line)
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
