"""What of a package its runs leave out: defs by entry point, statements
by test.

    python tests/reach.py [DIR]

runs every entry point of ``ENTRY_POINTS`` in one process under
``sys.setprofile``, in a fresh temporary directory for the files that the
verbs write, and prints each def of the modules directly in DIR (default
src/hblab, imported from src) that no run entered, with its line count,
docstring and decorators included, then their total.  A def is reached
when a frame of its code object starts: a call, or a generator resumed.
Lambdas and comprehensions are not defs and are left out; so are the help
and error paths of the CLI, which no entry point takes.

    python tests/reach.py --statements [DIR] [-- PYTEST_ARG ...]

runs Tier-1 (pytest from the repository root, with the arguments after
``--``, ``--deselect`` for one) in this process under ``sys.settrace``,
tracing lines only in frames of the modules directly in DIR, and prints
each statement that no test executed, then their total.  Docstrings are not
statements here.  A simple statement is executed when any of its lines
runs, a compound one when its header does (decorators included); a
``global`` or ``nonlocal`` runs no line, so it is always listed.  Code that
a test runs in a subprocess (the CLI in a fresh process, the import
probes) is not traced, so what only such a test runs is listed too.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
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

    for file in _modules(path):
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


def _modules(path) -> list:
    """A file, or each ``*.py`` directly in a directory."""
    path = Path(path)
    return sorted(path.glob("*.py")) if path.is_dir() else [path]


def statements(path) -> list:
    """(file, first line, last line, text of the first line) of every
    statement of ``_modules(path)`` but the docstrings, in file and line
    order: a simple statement spans its lines, a compound one its header,
    from its first decorator to the line before its body."""
    found = []
    for file in _modules(path):
        source = file.read_text()
        text = source.splitlines()
        tree = ast.parse(source)
        docstrings = {
            id(node.body[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt) or id(node) in docstrings:
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            found.append((str(file.resolve()), first, last, text[first - 1].strip()))
    return sorted(found)


def executed(files, run) -> set:
    """(file, line) of every line that ran in a frame of one of ``files``
    (resolved paths) while ``run()`` ran, in this thread or in a thread it
    started; the trace functions in place before are put back."""
    seen, verdicts = set(), {}

    def lines(frame, event, arg):
        if event == "line":
            seen.add((verdicts[frame.f_code.co_filename], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in verdicts:
            resolved = str(Path(name).resolve())
            verdicts[name] = resolved if resolved in files else None
        return lines if verdicts[name] else None

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return seen


def unexecuted(path, run) -> list:
    """The statements of ``path`` (as ``statements`` gives them) none of
    whose lines ran while ``run()`` ran."""
    found = statements(path)
    seen = executed({file for file, *_ in found}, run)
    return [s for s in found if not any((s[0], line) in seen for line in range(s[1], s[2] + 1))]


def _tier1(args):
    """A run of Tier-1 in this process, as its command runs it: pytest from
    the repository root, with src on PYTHONPATH."""

    def run():
        import pytest

        os.chdir(ROOT)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        pytest.main(["-q", "--continue-on-collection-errors", *args])

    return run


def main(argv) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    split = argv.index("--") if "--" in argv else len(argv)
    argv, pytest_args = argv[:split], argv[split + 1 :]
    statement_mode = argv[:1] == ["--statements"]
    argv = argv[statement_mode:]
    path = Path(argv[0]) if argv else ROOT / "src" / "hblab"
    if statement_mode:
        gaps = unexecuted(path, _tier1(pytest_args))
        for file, first, _, text in gaps:
            print(f"{Path(file).name}:{first}: {text}")
        print(f"{len(gaps)} statements of {path} no test executed in this process")
        print("(what a test runs in a subprocess is not traced)")
        return
    gaps = unreached(path, ENTRY_POINTS)
    for file, name, _, lines in gaps:
        print(f"{lines:6d}  {Path(file).name}: {name}")
    print(f"{sum(d[3] for d in gaps):6d}  total, {len(gaps)} defs unreached in {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
