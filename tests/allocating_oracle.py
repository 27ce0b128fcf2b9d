"""Test-side oracle for the transforms in owned arrays: the allocating formulation.

``lnls`` transforms, projects and draws in place, in arrays it owns.  The
functions here are the formulation it replaced, written with a fresh array
for every step; the library must reproduce them bit for bit.
"""
from __future__ import annotations

import math
import random

import numpy as np

from lnls.continuum import plane_wave, random_low_modes, wrapped_gaussian
from lnls.lattice import Lattice, discretize
from lnls.spectral import DyadicScale, _annulus_mask, _bracket_sq, dyadic_scales, inequality_exponent
from lnls.util import Draws


def forward(v: np.ndarray, lat: Lattice) -> np.ndarray:
    axes = tuple(range(lat.d))
    spec = np.fft.fftn(np.fft.ifftshift(v, axes=axes), axes=axes)
    return lat.cell_volume * np.fft.fftshift(spec, axes=axes)


def inverse(s: np.ndarray, lat: Lattice) -> np.ndarray:
    axes = tuple(range(lat.d))
    vals = np.fft.ifftn(np.fft.ifftshift(s, axes=axes), axes=axes)
    return np.fft.fftshift(vals, axes=axes) / lat.cell_volume


def lebesgue_norm(v: np.ndarray, lat: Lattice, r: float) -> float:
    a = np.abs(v)
    if math.isinf(r):
        return float(a.max())
    return float((lat.cell_volume * np.sum(a**r)) ** (1.0 / r))


class Draws0:
    """``Draws`` with its Box-Muller written as one allocating expression."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)
        self.choice = Draws.choice.__get__(self)

    def standard_normal(self, size) -> np.ndarray:
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        words = np.frombuffer(self._random.randbytes(16 * pairs), dtype="<u8")
        uniform = (words >> np.uint64(11)) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log1p(-uniform[:pairs]))
        angle = (2.0 * math.pi) * uniform[pairs:]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


def stress_corpus(lat: Lattice, seed: int) -> list[np.ndarray]:
    """The values of every stress-corpus element, built all at once from one ``Draws0(seed)``."""
    d, rng = lat.d, Draws0(seed)
    profiles = [random_low_modes(d, rng, max_mode=3, n_modes=8),
                wrapped_gaussian(d, width=0.6),
                wrapped_gaussian(d, width=0.35, center=(0.7,) * d),
                plane_wave(d, (1,) + (0,) * (d - 1), amplitude=0.8)]
    out = [discretize(f, lat).values for f in profiles]
    out.append(np.exp(1j * (max(1, lat.M // 2) * lat.meshgrid()[0])))
    noise = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    top = inverse(forward(noise, lat) * _annulus_mask(DyadicScale(lat, 0)), lat)
    return out + [noise, top]


def inequality_values(v: np.ndarray, lat: Lattice, s: float, theta: float, epsilon: float) -> bytes:
    """The (value, ratio) of the sobolev, gagliardo_nirenberg and bernstein records, flat, as bytes."""
    d, h = lat.d, lat.h
    spec = forward(v, lat)
    power = np.abs(spec) ** 2

    def sobolev(smoothness: float) -> float:
        return float(math.sqrt(np.sum(_bracket_sq(lat) ** smoothness * power) / (2.0 * math.pi) ** d))

    q_s = inequality_exponent("sobolev", d, s=s)
    q_gn = inequality_exponent("gagliardo_nirenberg", d, theta=theta)
    l2, sob, gn = lebesgue_norm(v, lat, 2), lebesgue_norm(v, lat, q_s), lebesgue_norm(v, lat, q_gn)
    rows = [sob, sob / sobolev(s + epsilon), gn, gn / (l2 ** (1.0 - theta) * sobolev(1) ** theta)]
    for scale in dyadic_scales(lat):
        lhs = lebesgue_norm(inverse(spec * _annulus_mask(scale), lat), lat, q_s)
        rows += [lhs, lhs / ((scale.value / h) ** s * l2)]
    return np.array(rows).tobytes()
