"""The seeded draw source ``Draws``: reproducible, distinct per seed, and normal.

The moment bands are about six standard errors wide for 10^5 samples, so a
correct source fails them with negligible probability while a wrong scale,
shift or transform fails them by far.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from lnls.continuum import random_low_modes
from lnls.corpus import random_grid
from lnls.lattice import Lattice
from lnls.util import Draws


@pytest.mark.parametrize("size", [7, (3, 5), (4, 4)])
def test_same_seed_gives_the_same_arrays(size):
    a, b = Draws(3), Draws(3)
    shape = (size,) if isinstance(size, int) else size
    for _ in range(2):
        x, y = a.standard_normal(size), b.standard_normal(size)
        assert x.shape == shape
        assert x.dtype == np.float64
        assert np.array_equal(x, y)
        assert np.array_equal(a.choice(50, size=6, replace=False), b.choice(50, size=6, replace=False))


def test_different_seeds_give_different_arrays():
    draws = [Draws(seed).standard_normal(16) for seed in (0, 1, 2, 2**64 - 1)]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.any(draws[i] == draws[j])
    assert not np.array_equal(Draws(0).choice(1000, size=8, replace=False),
                              Draws(1).choice(1000, size=8, replace=False))


def test_successive_draws_differ():
    draws = Draws(5)
    assert not np.any(draws.standard_normal(8) == draws.standard_normal(8))


@pytest.mark.parametrize("n, size", [(10, 10), (49, 8), (10**6, 20), (1, 1)])
def test_choice_returns_distinct_values_in_range(n, size):
    picked = Draws(11).choice(n, size=size, replace=False)
    assert picked.shape == (size,) and picked.dtype == np.int64
    assert len(set(picked.tolist())) == size
    assert picked.min() >= 0 and picked.max() < n


def test_choice_with_replacement_is_refused():
    with pytest.raises(ValueError, match="replace=False"):
        Draws(0).choice(5, size=2)


@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_normal_moments_lie_in_their_bands(seed):
    z = Draws(seed).standard_normal(10**5)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) <= 0.02  # standard error 0.0032
    assert abs(z.var() - 1.0) <= 0.03  # standard error 0.0045
    assert abs(np.mean(z**3)) <= 0.05  # standard error 0.0077
    assert abs(np.mean(z**4) - 3.0) <= 0.15  # standard error 0.031
    assert abs(np.mean(np.abs(z) <= 1.0) - math.erf(1.0 / math.sqrt(2.0))) <= 0.01


def test_profile_factories_accept_a_numpy_generator_and_draws():
    lat = Lattice(2, 4)
    for source in (np.random.default_rng(1), Draws(1)):
        noise = random_grid(lat, source)
        assert noise.values.shape == lat.shape and np.all(noise.values.imag != 0)
        f = random_low_modes(2, source, max_mode=2, n_modes=6)
        assert np.count_nonzero(f.coeffs) == 6
        assert f.sobolev_norm(1.0) == pytest.approx(1.0, rel=1e-12)
