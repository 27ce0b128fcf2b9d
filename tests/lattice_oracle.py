"""Test-side oracles for lattice calculus, each written from its definition.

:func:`inner_product` is the Hoelder pairing, :func:`backward_difference` the
difference ``D-_j``, :func:`convolve` the direct wrapped sum (one shifted copy
of ``u`` per point ``y``, no transform) and :func:`lowpass_project` a mask on
NumPy's DFT of the stored values.  None of them calls the library's
transforms, so a test can check ``lnls.spectral`` and the difference
operators against them.
"""
from __future__ import annotations

import functools

import numpy as np

from lnls.lattice import GridFunction, require_same_lattice
from lnls.spectral import DyadicScale


def inner_product(u: GridFunction, v: GridFunction) -> complex:
    """Sesquilinear pairing ``h^d sum u * conj(v)``."""
    lat = require_same_lattice(u, v)
    return complex(lat.cell_volume * np.sum(u.values * np.conj(v.values)))


def backward_difference(u: GridFunction, axis: int = 0) -> GridFunction:
    """Backward difference ``(u(x) - u(x - h e_j)) / h`` along ``axis``."""
    return GridFunction(u.lattice, (u.values - np.roll(u.values, 1, axis=axis)) / u.lattice.h)


def convolve(u: GridFunction, v: GridFunction) -> GridFunction:
    """Periodic convolution ``(u*v)(x) = h^d sum_y u(x - y) v(y)`` as a direct wrapped sum.

    The point ``y = h m`` sits at slot ``m + M``, and ``np.roll(u, m)`` holds
    ``u(x - y)`` at the slot of ``x``.
    """
    lat = require_same_lattice(u, v)
    axes = tuple(range(lat.d))
    total = np.zeros(lat.shape, dtype=np.complex128)
    for slot in np.ndindex(*lat.shape):
        total += v.values[slot] * np.roll(u.values, tuple(s - lat.M for s in slot), axis=axes)
    return GridFunction(lat, lat.cell_volume * total)


def lowpass_project(u: GridFunction, scale: DyadicScale) -> GridFunction:
    """Low-pass projection ``P_{<=N} u`` onto ``max_j |k_j| <= pi N / h``.

    A translation multiplies each DFT coefficient by a unimodular factor, so
    the mask may act on the DFT of the centred values as they are stored.
    """
    lat = u.lattice
    k = np.fft.fftfreq(lat.n_per_axis, 1.0 / lat.n_per_axis)  # integer modes in DFT order
    keep = functools.reduce(np.logical_and.outer, [np.abs(k) <= scale.mode_cutoff] * lat.d)
    return GridFunction(lat, np.fft.ifftn(np.fft.fftn(u.values) * keep))
