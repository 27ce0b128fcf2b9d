"""Shared corpora: the per-lattice stress corpus draws from one seeded stream."""
from __future__ import annotations

import numpy as np
import pytest

from lnls.continuum import plane_wave, random_low_modes, wrapped_gaussian
from lnls.corpus import continuum_profiles, iter_lattice_stress_corpus, lattice_stress_corpus, random_grid
from lnls.lattice import GridFunction, Lattice, discretize
from lnls.spectral import DyadicScale, lp_project
from lnls.util import Draws


@pytest.mark.parametrize("d, m", [(1, 16), (2, 8)])
@pytest.mark.parametrize("seed", [0, 3, 97])
def test_stress_corpus_draws_noise_after_the_random_profile(d, m, seed):
    lat = Lattice(d, m)
    corpus = lattice_stress_corpus(lat, seed)
    noise = corpus[-2]
    # a second generator of the same seed would repeat the profile's draws
    assert not np.array_equal(noise.values, random_grid(lat, Draws(seed)).values)
    rng = Draws(seed)
    random_low_modes(d, rng, max_mode=3, n_modes=8)
    assert noise.values.tobytes() == random_grid(lat, rng).values.tobytes()
    # the random profile is the first one that continuum_profiles draws
    first = discretize(continuum_profiles(d, seed, n_random=1)[0], lat)
    assert corpus[0].values.tobytes() == first.values.tobytes()


def _eager_corpus(lattice, seed):
    """The stress corpus built all at once, element by element, from one ``Draws(seed)``."""
    d = lattice.d
    rng = Draws(seed)
    profiles = [random_low_modes(d, rng, max_mode=3, n_modes=8),
                wrapped_gaussian(d, width=0.6),
                wrapped_gaussian(d, width=0.35, center=(0.7,) * d),
                plane_wave(d, (1,) + (0,) * (d - 1), amplitude=0.8)]
    out = [discretize(f, lattice) for f in profiles]
    phase = max(1, lattice.M // 2) * lattice.meshgrid()[0]
    out.append(GridFunction(lattice, np.exp(1j * phase)))
    noise = random_grid(lattice, rng)
    return out + [noise, lp_project(noise, DyadicScale(lattice, 0))]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [4, 8, 32])
@pytest.mark.parametrize("seed", [0, 3])
def test_streamed_stress_corpus_equals_the_list(d, m, seed):
    lat = Lattice(d, m)
    want = [u.values.tobytes() for u in _eager_corpus(lat, seed)]
    assert [u.values.tobytes() for u in iter_lattice_stress_corpus(lat, seed)] == want
    assert [u.values.tobytes() for u in lattice_stress_corpus(lat, seed)] == want
