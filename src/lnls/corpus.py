"""Shared test corpora: smooth continuum profiles and per-lattice stress cases."""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .continuum import TrigPolynomial, plane_wave, random_low_modes, wrapped_gaussian
from .lattice import GridFunction, Lattice, discretize
from .spectral import DyadicScale, lp_project
from .util import Draws


def random_grid(lattice: Lattice, rng: Draws | np.random.Generator) -> GridFunction:
    """Complex white noise on the lattice; ``rng`` is a :class:`~lnls.util.Draws` or a numpy ``Generator``."""
    vals = np.empty(lattice.shape, dtype=np.complex128)
    vals.real = rng.standard_normal(lattice.shape)
    vals.imag = rng.standard_normal(lattice.shape)
    return GridFunction(lattice, vals)


def continuum_profiles(d: int, seed: int = 0, n_random: int = 2) -> list[TrigPolynomial]:
    """Smooth shared profiles: random low-mode sums, a wrapped Gaussian, a plane wave.

    The random profiles are drawn from ``Draws(seed)``; the other three do
    not depend on the seed.
    """
    return list(_profiles(d, Draws(seed), n_random))


def _profiles(d: int, rng: Draws, n_random: int) -> Iterator[TrigPolynomial]:
    """:func:`continuum_profiles` one at a time, the random ones drawn from ``rng`` first."""
    for _ in range(n_random):
        yield random_low_modes(d, rng, max_mode=3, n_modes=8)
    yield wrapped_gaussian(d, width=0.6)
    yield wrapped_gaussian(d, width=0.35, center=(0.7,) * d)
    yield plane_wave(d, (1,) + (0,) * (d - 1), amplitude=0.8)


def _mid_band_mode(lattice: Lattice) -> GridFunction:
    """``exp(i k x_0)`` at ``k = max(1, M/2)``: its axis vector, broadcast into one grid."""
    k_mid = max(1, lattice.M // 2)
    mode = np.empty(lattice.shape, dtype=np.complex128)
    mode[...] = np.exp(1j * (k_mid * lattice.axis_coords())).reshape((-1,) + (1,) * (lattice.d - 1))
    return GridFunction(lattice, mode)


def iter_lattice_stress_corpus(lattice: Lattice, seed: int = 0) -> Iterator[GridFunction]:
    """Per-lattice corpus stressing norm inequalities, one element at a time.

    Discretized smooth profiles plus genuinely lattice-scale elements: a
    mid-band single mode, white noise, and noise concentrated on the top
    dyadic frequency annulus (the near-extremizer family for
    frequency-localized bounds).  The whole corpus is drawn from one
    ``Draws(seed)``: first the random profile, then the white noise.  The
    generator holds no element it has yielded, except the white noise until
    its projection is built.
    """
    rng = Draws(seed)
    # map holds no profile once its cell averages are built
    yield from map(discretize, _profiles(lattice.d, rng, n_random=1), itertools.repeat(lattice))
    yield _mid_band_mode(lattice)
    noise = random_grid(lattice, rng)
    yield noise
    top = lp_project(noise, DyadicScale(lattice, 0))
    del noise
    yield top


def lattice_stress_corpus(lattice: Lattice, seed: int = 0) -> list[GridFunction]:
    """The elements of :func:`iter_lattice_stress_corpus`, as a list."""
    return list(iter_lattice_stress_corpus(lattice, seed))
