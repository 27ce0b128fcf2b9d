"""Test-side oracle for the piecewise-affine interpolant ``p_h u``.

:func:`interpolant_at` evaluates ``p_h u`` at chosen offsets inside every
lattice cell, and :func:`cell_rule_sum` applies per-axis weights to values
laid out that way, so a test can integrate over the continuum box by a
midpoint or a Gauss-Legendre rule on each cell without the library.
"""
from __future__ import annotations

import numpy as np

from lnls.lattice import GridFunction, forward_difference


def interpolant_at(u: GridFunction, tau: np.ndarray) -> np.ndarray:
    """``p_h u`` at ``x_m + (tau_{i_1}, ..., tau_{i_d})`` for every cell ``m``.

    Axis ``j`` of the result runs over (cell, offset) pairs, cell-major.
    """
    lat = u.lattice
    k = len(tau)
    out = u.values
    for j in range(lat.d):
        out = np.repeat(out, k, axis=j)
    for j in range(lat.d):
        slope = forward_difference(u, j).values
        for i in range(lat.d):
            slope = np.repeat(slope, k, axis=i)
        shape = [1] * lat.d
        shape[j] = -1
        out = out + slope * np.tile(tau, lat.n_per_axis).reshape(shape)
    return out


def midpoint_rule(h: float, oversample: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the midpoint rule on ``oversample`` sub-cells of ``[0, h)``."""
    return (np.arange(oversample) + 0.5) * h / oversample, np.full(oversample, h / oversample)


def gauss_legendre_rule(h: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the ``nodes``-point Gauss-Legendre rule on ``[0, h]``."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * h * (x + 1.0), 0.5 * h * w


def cell_rule_sum(values: np.ndarray, w: np.ndarray, n_per_axis: int) -> float:
    """``sum values * w_{i_1} ... w_{i_d}`` over values laid out as by :func:`interpolant_at`."""
    weights = np.tile(w, n_per_axis)
    total = values
    for _ in range(values.ndim):
        total = total @ weights
    return float(total)
