#!/usr/bin/env python3
"""Write tests/data/desk_golden.json: the float report files that
``tests/test_desk_golden.py`` requires to repeat exactly.

Usage (from the root of a checkout): PYTHONPATH=src python3 tests/data/make_desk_golden.py

Stores, line by line, the CSV text of ``divergence.csv``, ``envelope.csv``
(both written by the ``divergence`` verb) and ``norm_crosscheck.csv``
(``norm-crosscheck --seed 3``), each at the CLI defaults after
``construct``, run in a fresh directory through ``hblab.cli.main`` in this
process, with the verbs' stderr discarded.
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

RUNS = (
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


def golden() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_verb(["construct", "--out", tmp])
        if code != 0:
            raise RuntimeError(f"construct exited {code}: {err}")
        for args, names in RUNS:
            # divergence exits 4: its bound rows fail at the default scale
            run_verb(args + ["--out", tmp, "--format", "csv"])
            for name in names:
                out[name] = (Path(tmp) / f"{name}.csv").read_text().splitlines()
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
