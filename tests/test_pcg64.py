"""The pure-Python generator draws what numpy's ``default_rng`` draws.

numpy is a test dependency only: it is the oracle here.  The draw pattern
is the one the CLI makes: ``norm-crosscheck`` takes ``integers(1, 33)``,
then two ``uniform(-1, 1, d + 1)``; the quadrature oracle of
``verify-outer`` takes two scalar ``uniform`` draws per point.
"""

import numpy as np
import pytest

from hblab._pcg64 import Generator

# 2^200 + 5 has more 32-bit words than the SeedSequence pool holds.
SEEDS = [*range(200), 2**40 + 7, 12345678901234567890, 2**127 + 3, 2**200 + 5]


def test_cli_draws_match_numpy():
    for seed in SEEDS:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for _ in range(5):
            d = ours.integers(1, 33)
            assert d == int(ref.integers(1, 33)), seed
            for _ in range(2):
                xs = ref.uniform(-1, 1, d + 1).tolist()
                assert ours.uniform(-1, 1, d + 1) == xs, seed
            assert ours.uniform(-2.0, 2.0) == float(ref.uniform(-2.0, 2.0)), seed
            assert ours.uniform(-30.5, 0.0) == float(ref.uniform(-30.5, 0.0)), seed
            assert ours.random() == float(ref.random()), seed


@pytest.mark.parametrize("seed", [0, 1, 2**127 + 3])
@pytest.mark.parametrize("low,high", [(0, 3 * 2**30 + 1), (1, 34), (-5, 2**32 - 6), (7, 8)])
def test_bounded_integers_match_numpy(seed, low, high):
    """Ranges where Lemire's rejection loop runs: its threshold is
    (2^32 - n) mod n, which rejects often at n = 3·2^30 + 1.  A one-point
    range draws nothing, which the interleaved ``random`` checks."""
    ours, ref = Generator(seed), np.random.default_rng(seed)
    for _ in range(300):
        assert ours.integers(low, high) == int(ref.integers(low, high))
        assert ours.random() == float(ref.random())


@pytest.mark.parametrize("low,high", [(0, 2**32), (0, 0), (3, 1)])
def test_integers_rejects_unsupported_ranges(low, high):
    with pytest.raises(ValueError):
        Generator(0).integers(low, high)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Generator(-1)
