"""Shared fixtures: the default constructed pair, the tame pair, the
divergent kernel combination, built once per session, and the H(b) inner
product of Taylor series."""

import pytest

from hblab import ConstructionParams, build_pair, tame_pair
from hblab.experiments import build_divergent_combo
from hblab.hb import sarason_f_plus


def _hb_inner(f, g, pair):
    """<f, g>_{H(b)} = <f, g>_{H^2} + <f+, g+>_{H^2}, with f+ and g+ taken
    by the product route of ``hb_norm_sq`` from one phi-hat at the larger
    degree."""
    phi_hat = pair.phi_hat(max(f.truncation_degree, g.truncation_degree))
    return f.inner(g) + sarason_f_plus(f, phi_hat).inner(sarason_f_plus(g, phi_hat))


@pytest.fixture(scope="session")
def hb_inner():
    return _hb_inner


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
