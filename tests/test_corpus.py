"""Shared corpora: the per-lattice stress corpus draws from one seeded stream."""
from __future__ import annotations

import numpy as np
import pytest

from lnls.continuum import random_low_modes
from lnls.corpus import continuum_profiles, iter_lattice_stress_corpus, lattice_stress_corpus, random_grid
from lnls.lattice import Lattice, discretize
from lnls.util import Draws

import allocating_oracle


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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [4, 8, 32, 64])
@pytest.mark.parametrize("seed", [0, 3])
def test_streamed_stress_corpus_equals_the_list(d, m, seed):
    # the oracle builds every element at once, each step in a fresh array
    lat = Lattice(d, m)
    want = [v.tobytes() for v in allocating_oracle.stress_corpus(lat, seed)]
    assert [u.values.tobytes() for u in iter_lattice_stress_corpus(lat, seed)] == want
    assert [u.values.tobytes() for u in lattice_stress_corpus(lat, seed)] == want
