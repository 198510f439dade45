"""The value classes of hblab: construction with defaults, field-wise
equality and hash, immutability, the ``Name(field=value, ...)`` repr and
the field-replacing copy ``_replace``."""

import pytest

from hblab.hb import KernelCombo, KernelNode, Radius
from hblab.logscalar import LogScalar
from hblab.outer import (
    ConstructionParams,
    GrowthCheckRecord,
    GrowthScanRow,
    ParameterError,
    Sequences,
)
from hblab.pair import Cell, Pair, StepModulus
from hblab.reports import ExperimentReport
from hblab.series import TaylorSeries

PARAMS = ConstructionParams(1.2, 1.5)
NODE = KernelNode(LogScalar(0.0), -1.0)

# (class, positional arguments, the defaults they leave, one field with a
# new value for _replace, the repr)
CASES = [
    (
        LogScalar,
        (1.5,),
        {"phase": 0.0},
        ("log_mag", 2.0),
        "LogScalar(log_mag=1.5, phase=0.0)",
    ),
    (
        TaylorSeries,
        ((1.0, 0.5),),
        {"precision_bits": 53, "error_bound": None},
        ("precision_bits", 64),
        "TaylorSeries(coeffs=(1.0, 0.5), precision_bits=53, error_bound=None)",
    ),
    (
        ExperimentReport,
        ("r", ("x",), [(1.0,)]),
        {"params": {}, "metadata": {}, "passed": True},
        ("passed", False),
        "ExperimentReport(name='r', columns=('x',), rows=[(1.0,)], params={}, "
        "metadata={}, passed=True)",
    ),
    (
        ConstructionParams,
        (1.2, 1.5),
        {"n_terms": 8, "power_m": "auto", "precision_bits": 53, "n_check": 5},
        ("power_m", 2),
        "ConstructionParams(alpha=1.2, beta=1.5, n_terms=8, power_m='auto', "
        "precision_bits=53, n_check=5)",
    ),
    (
        Sequences,
        (PARAMS, (0.5,), (LogScalar(-1.0),), (0.25,), (LogScalar(-2.0),)),
        {},
        ("w", (0.75,)),
        f"Sequences(params={PARAMS!r}, w=(0.5,), "
        "rho=(LogScalar(log_mag=-1.0, phase=0.0),), t=(0.25,), "
        "eps=(LogScalar(log_mag=-2.0, phase=0.0),))",
    ),
    (
        GrowthCheckRecord,
        (1, 0.5, 0.1, 0.2, -1.0, LogScalar(1.0), True),
        {},
        ("passed", False),
        "GrowthCheckRecord(n=1, r=0.5, u=0.1, v=0.2, log_ratio=-1.0, "
        "bound=LogScalar(log_mag=1.0, phase=0.0), passed=True)",
    ),
    (
        GrowthScanRow,
        (3, LogScalar(-1.0), LogScalar(-2.0), 0.3, False, None),
        {},
        ("passes_with_m", 2.0),
        "GrowthScanRow(n=3, min_log_ratio=LogScalar(log_mag=-1.0, phase=0.0), "
        "min_log_ratio_interior=LogScalar(log_mag=-2.0, phase=0.0), "
        "log_bound=0.3, interior_positive=False, passes_with_m=None)",
    ),
    (
        Cell,
        (0.1, 0.2, 1.0),
        {},
        ("log_modulus", 2.0),
        "Cell(theta_start=0.1, theta_end=0.2, log_modulus=1.0)",
    ),
    (
        StepModulus,
        ((Cell(0.1, 0.2, 1.0),),),
        {"default_log_modulus": 0.0},
        ("default_log_modulus", -0.5),
        "StepModulus(cells=(Cell(theta_start=0.1, theta_end=0.2, log_modulus=1.0),), "
        "default_log_modulus=0.0)",
    ),
    (
        Pair,
        ("tame", None, None, None),
        {"params": None, "seq": None, "a_series": None, "b_series": None},
        ("b_series", TaylorSeries((0.5, 0.5))),
        "Pair(tag='tame', a_modulus=None, b_modulus=None, phi_modulus=None, "
        "params=None, seq=None, a_series=None, b_series=None)",
    ),
    (
        Radius,
        (0.5, -0.75),
        {},
        ("value", 0.25),
        "Radius(value=0.5, log_one_minus=-0.75)",
    ),
    (
        KernelNode,
        (LogScalar(0.0), -1.0),
        {},
        ("log_one_minus_w", -2.0),
        "KernelNode(log_c=LogScalar(log_mag=0.0, phase=0.0), log_one_minus_w=-1.0)",
    ),
    (
        KernelCombo,
        ((NODE,),),
        {},
        ("nodes", ()),
        "KernelCombo(nodes=(KernelNode(log_c=LogScalar(log_mag=0.0, phase=0.0), "
        "log_one_minus_w=-1.0),))",
    ),
]


@pytest.mark.parametrize(
    "cls, args, defaults, change, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_semantics(cls, args, defaults, change, text):
    obj = cls(*args)
    for name, value in defaults.items():
        assert getattr(obj, name) == value, name
    assert repr(obj) == text

    twin = cls(*args)
    assert twin == obj and twin is not obj
    assert not twin != obj
    assert obj != (obj,)

    name, value = change
    copy = obj._replace(**{name: value})
    assert type(copy) is cls
    assert getattr(copy, name) == value and copy != obj
    for field in cls.__slots__:
        if field != name:
            assert getattr(copy, field) == getattr(obj, field), field

    if cls is ExperimentReport:
        # mutable, and so unhashable, with fresh dicts per report
        assert cls.__hash__ is None
        assert twin.params is not obj.params and twin.metadata is not obj.metadata
        twin.passed = False
        assert twin != obj
        return
    assert hash(twin) == hash(obj)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, name) == getattr(twin, name)


def test_taylor_series_equality_ignores_error_bound():
    bare = TaylorSeries((1.0, 0.5))
    bounded = TaylorSeries((1.0, 0.5), 53, 2.0**-60)
    assert bounded == bare and hash(bounded) == hash(bare)
    assert bounded != TaylorSeries((1.0, 0.5), 64)
    assert repr(bounded).endswith("error_bound=8.673617379884035e-19)")
    assert bare._replace(error_bound=1e-20) == bare


def test_replace_runs_the_checks():
    with pytest.raises(ParameterError):
        PARAMS._replace(beta=3.0)
    with pytest.raises(ValueError, match="overlap"):
        StepModulus((Cell(0.1, 0.3, 1.0),))._replace(
            cells=(Cell(0.1, 0.3, 1.0), Cell(0.2, 0.4, 1.0))
        )
    assert LogScalar(1.0, 7.0)._replace(log_mag=float("-inf")).phase == 0.0


def test_log_scalar_counts_through_post_init(monkeypatch):
    """Every LogScalar, a _replace copy included, runs the
    ``__post_init__`` of its class dict, where a tracer can count it."""
    post_init = LogScalar.__dict__["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self.log_mag)
        post_init(self)

    monkeypatch.setattr(LogScalar, "__post_init__", counted)
    x = LogScalar(1.0) * LogScalar(2.0, 7.0)
    x._replace(phase=0.5)
    assert calls == [1.0, 2.0, 3.0, 3.0]
