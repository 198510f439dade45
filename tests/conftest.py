"""Shared fixtures: the default constructed pair, the tame pair, the
divergent kernel combination, built once per session, the H(b) inner
product of Taylor series, and a runner of scripts in a fresh interpreter;
and the helpers ``inner`` and ``pad`` on Taylor series, which tests import
from here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hblab import ConstructionParams, build_pair, tame_pair
from hblab.experiments import build_divergent_combo
from hblab.hb import sarason_f_plus
from hblab.series import TaylorSeries


def inner(f, g):
    """H^2 pairing of two Taylor series: sum of f_k * conj(g_k) over the
    shared range."""
    n = min(len(f.coeffs), len(g.coeffs))
    return sum(f.coeffs[k] * g.coeffs[k].conjugate() for k in range(n))


def pad(f, degree: int):
    """f with zero coefficients appended up to ``degree``; f itself when it
    reaches that degree already."""
    if degree <= f.truncation_degree:
        return f
    return TaylorSeries(f.coeffs + (0.0,) * (degree - f.truncation_degree), f.precision_bits)


def _hb_inner(f, g, pair):
    """<f, g>_{H(b)} = <f, g>_{H^2} + <f+, g+>_{H^2}, with f+ and g+ taken
    by the product route of ``hb_norm_sq`` from one phi-hat at the larger
    degree."""
    phi_hat = pair.phi_hat(max(f.truncation_degree, g.truncation_degree))
    return inner(f, g) + inner(sarason_f_plus(f, phi_hat), sarason_f_plus(g, phi_hat))


@pytest.fixture(scope="session")
def hb_inner():
    return _hb_inner


def _run_fresh(script: str):
    """Run ``script`` in a fresh interpreter that imports this hblab and
    return the JSON document it prints."""
    import hblab

    src = str(Path(hblab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.fixture(scope="session")
def run_fresh():
    return _run_fresh


@pytest.fixture(scope="session")
def params():
    return ConstructionParams(alpha=1.2, beta=1.5, power_m=1)


@pytest.fixture(scope="session")
def pair(params):
    return build_pair(params)


@pytest.fixture(scope="session")
def tame():
    return tame_pair(degree=160)


@pytest.fixture(scope="session")
def combo(params, pair):
    return build_divergent_combo(params, pair)
