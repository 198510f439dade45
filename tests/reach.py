"""The defs of a package that no entry point reaches, by a profile hook.

    python tests/reach.py [DIR]

runs every entry point of ``ENTRY_POINTS`` in one process under
``sys.setprofile``, in a fresh temporary directory for the files that the
verbs write, and prints each def of the modules directly in DIR (default
src/hblab, imported from src) that no run entered, with its line count,
docstring and decorators included, then their total.  A def is reached
when a frame of its code object starts: a call, or a generator resumed.
Lambdas and comprehensions are not defs and are left out; so are the help
and error paths of the CLI, which no entry point takes.
"""

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _verb(*argv, config=None):
    """An entry point that runs one CLI verb, with ``config`` written as
    its JSON config file; the exit code is dropped."""

    def run(out):
        from hblab.cli import main

        extra = []
        if config is not None:
            path = out / f"{argv[0]}-config.json"
            path.write_text(json.dumps(config))
            extra = ["--config", str(path)]
        with contextlib.suppress(SystemExit):
            main([*argv, *extra, "--out", str(out)])

    return run


def _library(out):
    """The benchmark's library steps on the pair that ``construct`` wrote."""
    import hblab.experiments as ex
    from hblab import outer
    from hblab.pair import pair_from_json

    pair = pair_from_json((out / "pair.json").read_text())
    combo = ex.build_divergent_combo(pair.params, pair)
    phi_hat = ex.phi_hat_series(pair, 1024, 384)
    for r in (pair.seq.w[1], ex.interval_radius(pair.params, 1, 0.5)):
        ex.fr_plus_at_zero(r, combo, pair)
        ex.abel_fr_plus(r, combo, pair, precision_bits=384, phi_hat=phi_hat)
    outer.growth_bound_scan(pair.params, 1, 250)


def _demos(out):
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


# (label, run(out)): each takes the shared output directory
ENTRY_POINTS = (
    ("construct", _verb("construct")),
    ("verify-outer", _verb("verify-outer")),
    ("divergence", _verb("divergence")),
    ("sarason", _verb("sarason")),
    ("summability", _verb("summability")),
    ("norm-crosscheck", _verb("norm-crosscheck")),
    ("sarason 1024 / 384", _verb("sarason", config={"j_max": 1024, "precision_bits": 384})),
    ("library steps", _library),
    ("demos", _demos),
    ("construct, power_m auto", _verb("construct", config={"power_m": "auto"})),
)


def defs(path) -> list:
    """(file, dotted name, first line, lines) of every def of a file, or of
    each ``*.py`` directly in a directory, nested defs and methods
    included; the first line is that of the first decorator, as in the
    code object."""
    path = Path(path)
    found = []

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((file, name, first, child.end_lineno - first + 1))
                walk(child, file, name + ".")
            else:
                walk(child, file, prefix)

    for file in sorted(path.glob("*.py")) if path.is_dir() else [path]:
        walk(ast.parse(file.read_text()), str(file.resolve()), "")
    return found


def reached(entry_points) -> set:
    """(file, first line) of every code object that a frame started in
    while the entry points ran, their output swallowed."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    before = sys.getprofile()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        sys.setprofile(hook)
        try:
            for _, run in entry_points:
                run(Path(tmp))
        finally:
            sys.setprofile(before)
    files = {file: str(Path(file).resolve()) for file, _ in seen}
    return {(files[file], line) for file, line in seen}


def unreached(path, entry_points) -> list:
    """The defs of ``path`` (as ``defs`` gives them) that no entry point
    reached."""
    seen = reached(entry_points)
    return [d for d in defs(path) if (d[0], d[2]) not in seen]


def main(argv) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    path = Path(argv[0]) if argv else ROOT / "src" / "hblab"
    gaps = unreached(path, ENTRY_POINTS)
    for file, name, _, lines in gaps:
        print(f"{lines:6d}  {Path(file).name}: {name}")
    print(f"{sum(d[3] for d in gaps):6d}  total, {len(gaps)} defs unreached in {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
