"""Test-side oracles for continuum profiles: dense evaluation and the exact ``L^2`` distance.

:func:`evaluate` sums the modes of a profile densely at arbitrary points,
and :func:`l2_distance` aligns two mode grids and sums the squared
coefficient differences.  The library evaluates on uniform grids by one
inverse FFT and never at arbitrary points, so the tests check its
structured paths against these.
"""
from __future__ import annotations

import math

import numpy as np

from lnls.continuum import TWO_PI, TrigPolynomial


def evaluate(f: TrigPolynomial, *coords) -> np.ndarray:
    """``(2 pi)^{-d} sum_k c_k e^{ik.x}`` at the points given per axis; the coordinate arrays broadcast."""
    mats = [np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), m))
            for x, m in zip(coords, f.modes)]
    scale = TWO_PI**-f.d
    if f.d == 1:
        return scale * np.einsum("...i,i->...", mats[0], f.coeffs)
    return scale * np.einsum("...i,...j,ij->...", *mats, f.coeffs, optimize=True)


def l2_distance(a: TrigPolynomial, b: TrigPolynomial) -> float:
    """Exact ``L^2`` distance of two profiles, on the union of their mode grids."""
    ranges = [np.arange(min(ma.min(), mb.min()), max(ma.max(), mb.max()) + 1)
              for ma, mb in zip(a.modes, b.modes)]
    acc = np.zeros(tuple(len(r) for r in ranges), dtype=np.complex128)
    for poly, sign in ((a, 1.0), (b, -1.0)):
        idx = tuple(np.searchsorted(r, m) for r, m in zip(ranges, poly.modes))
        acc[np.ix_(*idx)] += sign * poly.coeffs
    return float(math.sqrt(np.sum(np.abs(acc) ** 2) * TWO_PI**-a.d))
