"""Test-side oracle for the dispersive kernel: the dense sum over the modes.

:func:`axis_sum` sums ``exp(i (x k - t sigma(k)))`` over the modes of one
kernel axis at any points, with the one-axis symbol written as
``(2/h^2)(1 - cos h k)``, not the library's ``(4/h^2) sin^2(h k / 2)``.  The
two forms agree to rounding, and the oracle shares no code with
``lnls.spectral._axis_symbol``, so a wrong symbol there moves the library's
kernel and not this one.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from lnls.estimates import KernelQuery, kernel_modes
from lnls.lattice import GridFunction


def axis_symbol(h: float, k: np.ndarray) -> np.ndarray:
    """One axis ``(2/h^2)(1 - cos h k)`` of the symbol of ``-Lap_h``."""
    return (2.0 / h**2) * (1.0 - np.cos(h * np.asarray(k, dtype=float)))


def axis_sum(query: KernelQuery, t: float, xs) -> np.ndarray:
    """One-axis sums ``sum_k exp(i (x k - t sigma(k)))`` at the points ``xs``."""
    k = kernel_modes(query.scale).astype(float)
    phase = np.multiply.outer(np.asarray(xs, dtype=float), k) - t * axis_symbol(query.h, k)
    return np.exp(1j * phase).sum(axis=-1)


def dispersive_kernel(query: KernelQuery, t: float, x) -> complex:
    """Band-limited free-propagator kernel ``K_{N,t}(x)``, the product of the axis sums."""
    out = (2.0 * math.pi) ** -len(x) + 0.0j
    for xj in x:
        out *= axis_sum(query, t, xj)
    return complex(out)


def kernel_as_grid(query: KernelQuery, t: float) -> GridFunction:
    """``K_{N,t}`` at the lattice points: the outer product of the axis sums there."""
    lat = query.lattice
    axis = axis_sum(query, t, lat.axis_coords())
    return GridFunction(lat, functools.reduce(np.multiply.outer, [axis] * lat.d)
                        * (2.0 * math.pi) ** -lat.d)
