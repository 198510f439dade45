"""The lazy top-level package: every public name resolves to its home
module's object on access, and nothing else does; and the package is
standard library only: no module of it imports mpmath, and the P-bit
verbs, the benchmark's library steps and the demos run where mpmath
cannot be imported."""

import ast
import importlib
from pathlib import Path

import pytest

import hblab
from hblab.reports import CODE_VERSION


def test_public_names_resolve_to_their_home_objects():
    assert hblab.__all__ == sorted(set(hblab.__all__))
    for name in hblab.__all__:
        home = importlib.import_module(f"hblab.{hblab._EXPORTS[name]}")
        obj = getattr(hblab, name)
        assert obj is getattr(home, name), name
        if hasattr(obj, "__module__") and name != "CODE_VERSION":
            assert obj.__module__ == home.__name__, name  # defined there, not re-exported


def test_version_is_the_code_version():
    assert hblab.__version__ == CODE_VERSION


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hblab.no_such_name
    with pytest.raises(ImportError):
        from hblab import no_such_name  # noqa: F401


def test_from_imports():
    from hblab import ConstructionParams, build_pair, outer
    from hblab.outer import ConstructionParams as home

    assert ConstructionParams is home
    assert outer is importlib.import_module("hblab.outer")
    assert callable(build_pair)
    assert {"outer", "build_pair", "__version__"} <= set(dir(hblab))


def test_precision_exhausted_is_one_class():
    from hblab.experiments import PrecisionExhausted
    from hblab.outer import PrecisionExhausted as home

    assert PrecisionExhausted is home is hblab.PrecisionExhausted


def test_names_follow_a_rebinding_of_the_home_module(monkeypatch):
    """Nothing is cached in the package, so a rebinding of the home module
    (as a tracer makes and undoes) shows through at once."""
    import hblab.series as series

    original = series.exp_series
    monkeypatch.setattr(series, "exp_series", "rebound")
    assert hblab.exp_series == "rebound"
    monkeypatch.undo()
    assert hblab.exp_series is original
    assert "exp_series" not in vars(hblab)


def test_no_module_imports_mpmath():
    """No module of ``src/hblab`` has an ``import mpmath`` or a
    ``from mpmath ... import``, at top level or inside a function."""
    modules = sorted(Path(hblab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "mpmath" for n in names), (path.name, node.lineno)


def _imports(tree) -> set:
    """Every module name an ``import`` or ``from ... import`` of ``tree``
    names, within hblab without its ``hblab.`` prefix: ``from .fixed
    import x`` and ``from . import fixed`` both give ``fixed``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return {n.removeprefix("hblab.") for n in names}


def test_p_bit_arithmetic_lives_in_fixed():
    """``hb`` and ``series`` compute in floats and import nothing from
    ``hblab.fixed``, and no module but ``fixed`` reads an ``_mpf_``
    attribute: ``fixed`` is the one home of the P-bit arithmetic, and
    ``fixed._man_exp`` the one reader of a number's mantissa."""
    root = Path(hblab.__file__).parent
    for name in ("hb.py", "series.py"):
        imported = _imports(ast.parse((root / name).read_text(), name))
        assert not {n for n in imported if n.split(".")[0] == "fixed"}, name
    for path in sorted(root.glob("*.py")):
        if path.name == "fixed.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            reads = isinstance(node, ast.Attribute) and node.attr == "_mpf_"
            assert not (reads or (isinstance(node, ast.Constant) and node.value == "_mpf_")), (
                path.name,
                node.lineno,
            )


def test_records_store_their_fields_in_the_base():
    """No ``Record`` subclass of ``src/hblab`` writes its own ``__init__``:
    ``_record.Record.__init__`` binds and stores every field, and a
    subclass checks them in ``__post_init__``.  Every key of a class's
    ``_defaults`` names one of its ``__slots__``."""
    root = Path(hblab.__file__).parent
    records = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (
                isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)
            ):
                continue
            records.append(node.name)
            where = (path.name, node.name)
            assigned = {
                stmt.targets[0].id: stmt.value
                for stmt in node.body
                if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
            }
            assert "__init__" not in assigned, where
            assert not any(
                isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__" for stmt in node.body
            ), where
            slots = ast.literal_eval(assigned["__slots__"])
            defaults = assigned.get("_defaults", ast.Dict(keys=[], values=[]))
            assert {ast.literal_eval(key) for key in defaults.keys} <= set(slots), where
    assert len(records) >= 13, records  # the scan sees the value classes


def test_cli_has_one_path_from_argv_to_exit_code():
    """In ``hblab.cli`` only ``main`` loads the config and only ``_finish``
    writes a report, so every option reaches the config and every verb's
    report reaches its exit code one way; ``run_command`` and
    ``_experiment``, the second such paths, are gone."""
    tree = ast.parse((Path(hblab.__file__).parent / "cli.py").read_text())
    users = {}
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                users.setdefault(node.id, set()).add(owner)
    assert users["write_report"] == {"_finish"}
    assert users["load_config"] == {"main"}
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not functions & {"run_command", "_experiment"}


def test_one_copy_of_the_provenance_and_the_growth_names():
    """Only ``reports``, which defines it, ``cli``, whose writer stamps it,
    and the package's ``__init__`` name ``CODE_VERSION``.  ``outer`` spells
    no growth name, and resolves each name that ``hblab._EXPORTS`` maps to
    ``growth`` to that module's object, and no other name."""
    import hblab.growth as growth
    import hblab.outer as outer

    root = Path(hblab.__file__).parent
    naming = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            fields = {getattr(node, f, None) for f in ("id", "attr", "name", "asname", "value")}
            if "CODE_VERSION" in fields:
                naming.add(path.stem)
    assert naming == {"reports", "cli", "__init__"}
    names = {name for name, home in hblab._EXPORTS.items() if home == "growth"}
    assert {"growth_bound_scan", "growth_log_ratio", "poisson_quad_crosscheck"} <= names
    tree = ast.parse((root / "outer.py").read_text())
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not literals & names
    for name in sorted(names):
        assert getattr(outer, name) is getattr(growth, name), name
    for name in ("build_pair", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(outer, name)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0.1, 0.2, 1.0, 2.0), {}, "Cell takes at most 3 values, got 4"),
        ((0.1, 0.2), {}, "Cell is missing field 'log_modulus'"),
        ((0.1, 0.2, 1.0), {"width": 0.1}, "Cell has no field 'width'"),
        ((0.1, 0.2), {"theta_end": 0.3}, "Cell got field 'theta_end' twice"),
    ],
)
def test_record_constructor_rejects_bad_calls(args, kwargs, message):
    """The one record constructor raises TypeError, as a Python signature
    would, on too many values, a missing field, an unknown keyword and a
    field given twice."""
    from hblab.pair import Cell

    with pytest.raises(TypeError) as exc:
        Cell(*args, **kwargs)
    assert str(exc.value) == message


# Run in a fresh interpreter in which ``import mpmath`` raises ImportError:
# the six verbs at their defaults, ``sarason`` at degree 1024 and 384 bits,
# the benchmark's cross-representation steps at the same degree and bits,
# and the three demos; print each verb's exit code and the demos' names.
_WITHOUT_MPMATH = """
import contextlib, io, json, runpy, sys
from pathlib import Path
sys.modules["mpmath"] = None
OUT, DEMOS = Path(OUT), Path(DEMOS)
import hblab.cli, hblab.experiments as ex, hblab.pair as pairmod
config = OUT / "sarason-config.json"
config.write_text(json.dumps({"j_max": 1024, "precision_bits": 384}))
codes, demos = [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["construct"], ["verify-outer"], ["divergence"], ["sarason"], ["summability"],
        ["norm-crosscheck"], ["sarason", "--config", str(config)],
    ):
        try:
            hblab.cli.main([*argv, "--out", str(OUT)])
        except SystemExit as e:
            codes.append(e.code)
    pair = pairmod.pair_from_json((OUT / "pair.json").read_text())
    combo = ex.build_divergent_combo(pair.params, pair)
    radii = (pair.seq.w[1], ex.interval_radius(pair.params, 1, 0.5),
             ex.interval_radius(pair.params, 2, 0.0))
    phi_hat = ex.phi_hat_series(pair, 1024, 384)
    for r in radii:
        ex.fr_plus_at_zero(r, combo, pair)
        ex.abel_fr_plus(r, combo, pair, precision_bits=384, phi_hat=phi_hat)
    for demo in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
        demos.append(demo.name)
print(json.dumps({"codes": codes, "demos": demos, "mpmath": sys.modules["mpmath"] is None}))
"""


def test_runs_without_mpmath(run_fresh, tmp_path):
    """Every verb, ``sarason`` at the benchmark's degree and bits, its
    library steps and every demo run to the end with mpmath unimportable;
    ``verify-outer`` and ``divergence`` exit 4, as they do with it, on the
    growth bound that fails at these parameters by design."""
    demos = Path(__file__).resolve().parents[1] / "demos"
    script = f"OUT = {str(tmp_path)!r}\nDEMOS = {str(demos)!r}\n" + _WITHOUT_MPMATH
    got = run_fresh(script)
    assert got == {
        "codes": [0, 4, 4, 0, 0, 0, 0],
        "demos": sorted(p.name for p in demos.glob("*.py")),
        "mpmath": True,
    }
