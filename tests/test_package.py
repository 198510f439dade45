"""The lazy top-level package: every public name resolves to its home
module's object on access, and nothing else does."""

import importlib

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
