"""Transforms in owned arrays give the bits of the allocating formulation.

``spectral.forward``/``inverse``, the projections, ``_inequality_records``,
``Draws.standard_normal`` and ``dynamics._conserved`` compute in place in
arrays they own.  Every result must equal the allocating formulation of
``allocating_oracle`` by ``tobytes``, and one ``_inequality_records`` call
must stay within a few grids of memory.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from lnls.corpus import iter_lattice_stress_corpus, random_grid
from lnls.dynamics import NlsParams, _conserved, _fft_symbol
from lnls.lattice import Lattice, lebesgue_norm
from lnls.spectral import (
    INEQUALITY_KINDS,
    Multiplier,
    SpectrumFunction,
    _annulus_mask,
    _bracket_sq,
    _inequality_records,
    apply_multiplier,
    dyadic_scales,
    forward,
    inverse,
    lp_project,
)
from lnls.util import Draws

import allocating_oracle as oracle


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [8, 64])
def test_inequality_records_equal_the_allocating_formulation(d, m):
    lat = Lattice(d, m)
    s, theta, epsilon = 0.4 * d, 0.5, 0.1
    for u in iter_lattice_stress_corpus(lat, seed=3):
        got = _inequality_records(u, INEQUALITY_KINDS, s=s, theta=theta, epsilon=epsilon)
        flat = np.array([x for recs in got for r in recs for x in (r.value, r.ratio)])
        assert flat.tobytes() == oracle.inequality_values(u.values, lat, s, theta, epsilon)


@pytest.mark.parametrize("lat", [Lattice(1, 1), Lattice(1, 16), Lattice(2, 1), Lattice(2, 32)])
def test_transforms_and_projections_equal_the_allocating_formulation(lat):
    u = random_grid(lat, Draws(11))
    before = u.values.tobytes()
    spec = oracle.forward(u.values, lat)
    assert forward(u).values.tobytes() == spec.tobytes()
    assert inverse(SpectrumFunction(lat, spec)).values.tobytes() == oracle.inverse(spec, lat).tobytes()
    for scale in dyadic_scales(lat):
        annulus = oracle.inverse(spec * _annulus_mask(scale), lat)
        assert lp_project(u, scale).values.tobytes() == annulus.tobytes()
    symbol = np.exp(0.3j * _bracket_sq(lat))
    got = apply_multiplier(u, Multiplier(lat, symbol)).values
    assert got.tobytes() == oracle.inverse(spec * symbol, lat).tobytes()
    assert lebesgue_norm(u, 3.5) == oracle.lebesgue_norm(u.values, lat, 3.5)
    assert u.values.tobytes() == before


@pytest.mark.parametrize("size", [1, 7, (3, 5), (128, 128)])
def test_draws_equal_the_allocating_box_muller(size):
    new, old = Draws(5), oracle.Draws0(5)
    for _ in range(2):
        assert new.standard_normal(size).tobytes() == old.standard_normal(size).tobytes()


@pytest.mark.parametrize("lat", [Lattice(1, 32), Lattice(2, 64)])
def test_conserved_equals_the_allocating_transform(lat):
    v = random_grid(lat, Draws(2)).values
    params = NlsParams(p=3, lam=-1, coupling=0.7)
    got = _conserved(v, lat, params)
    density = np.square(v.real) + np.square(v.imag)
    spec = np.fft.fftn(v)
    power = np.square(spec.real)
    power += np.square(spec.imag)
    power *= _fft_symbol(lat)
    vol = lat.cell_volume
    kinetic = 0.5 * vol**2 / (2.0 * math.pi) ** lat.d * float(np.sum(power))
    potential = (params.effective_lam / (params.p + 1.0)) * vol * float(
        np.sum(density ** ((params.p + 1.0) / 2.0)))
    assert (got.mass, got.energy) == (vol * float(np.sum(density)), kinetic + potential)


def test_inequality_records_peak_within_four_grids_of_its_input():
    lat = Lattice(2, 64)  # a 128^2 grid
    u = random_grid(lat, Draws(7))
    kwargs = dict(s=0.8, theta=0.5, epsilon=0.1)
    _inequality_records(u, INEQUALITY_KINDS, **kwargs)  # the per-lattice tables, once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _inequality_records(u, INEQUALITY_KINDS, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * u.values.nbytes, peak / u.values.nbytes
