"""Separable Fourier tables, built as outer reductions of per-axis vectors, keep their bits.

Each table is checked by ``tobytes``, dtype and shape included, against the
per-axis loop or meshgrid form it replaced, which is kept here as the
reference.  So is the interpolant's ``L^2`` norm, whose cell formula is now
one expression for every ``d``.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from lnls import dynamics, spectral
from lnls.continuum import TWO_PI, TrigPolynomial, wrapped_gaussian
from lnls.corpus import random_grid
from lnls.lattice import GridFunction, Lattice, forward_difference, interpolant_l2_norm
from lnls.spectral import SpectrumFunction

CASES = [(d, 2**j) for d in (1, 2) for j in range(9)]  # d = 1, 2 and M = 1 .. 256
IDS = [f"d{d}-M{M}" for d, M in CASES]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def frequency_meshgrid(lat: Lattice) -> list[np.ndarray]:
    return np.meshgrid(*([lat.frequencies()] * lat.d), indexing="ij")


# -- the reference forms ------------------------------------------------------


def laplacian_symbol_loop(lat: Lattice) -> np.ndarray:
    h = lat.h
    sig = np.zeros(lat.shape)
    for km in frequency_meshgrid(lat):
        sig = sig + (4.0 / h**2) * np.sin(h * km / 2.0) ** 2
    return sig


def max_abs_frequency_loop(lat: Lattice) -> np.ndarray:
    mesh = frequency_meshgrid(lat)
    out = np.abs(mesh[0])
    for km in mesh[1:]:
        out = np.maximum(out, np.abs(km))
    return out


def bracket_sq_loop(lat: Lattice) -> np.ndarray:
    out = np.ones(lat.shape)
    for km in frequency_meshgrid(lat):
        out = out + km.astype(float) ** 2
    return out


def poly_bracket_sq_loop(f: TrigPolynomial) -> np.ndarray:
    out = np.ones(f.coeffs.shape)
    for axis, m in enumerate(f.modes):
        shape = [1] * f.d
        shape[axis] = len(m)
        out = out + (m.astype(float) ** 2).reshape(shape)
    return out


def tail_norm_loop(f: TrigPolynomial, cutoff: float) -> float:
    far = np.zeros(f.coeffs.shape, dtype=bool)
    for axis, m in enumerate(f.modes):
        shape = [1] * f.d
        shape[axis] = len(m)
        far = far | (np.abs(m) > cutoff).reshape(shape)
    return float(math.sqrt(np.sum(np.abs(f.coeffs[far]) ** 2) * TWO_PI**-f.d))


def wrapped_gaussian_coeffs_branch(d: int, width: float, center) -> np.ndarray:
    kmax = int(math.ceil(math.sqrt(2.0 * 18.0 * math.log(10.0)) / width)) + 1
    k = np.arange(-kmax, kmax + 1)
    axis_coeffs = [
        width * math.sqrt(TWO_PI) * np.exp(-0.5 * width**2 * k.astype(float) ** 2)
        * np.exp(-1j * k * c)
        for c in center
    ]
    return axis_coeffs[0] if d == 1 else np.multiply.outer(axis_coeffs[0], axis_coeffs[1])


def collocation_symbol_branch(d: int, resolution: int, band: int | None) -> np.ndarray:
    square = np.fft.ifftshift(np.arange(-(resolution // 2), resolution // 2)).astype(float) ** 2
    if d == 2 and band is not None:
        square = square[square <= band**2]
    return square if d == 1 else np.add.outer(square, square)


def interpolant_l2_norm_branch(u: GridFunction) -> float:
    lat = u.lattice
    h = lat.h
    a = u.values
    s = [forward_difference(u, j).values for j in range(lat.d)]
    if lat.d == 1:
        cell = h * (
            np.abs(a) ** 2
            + h * np.real(np.conj(a) * s[0])
            + (h**2 / 3.0) * np.abs(s[0]) ** 2
        )
    else:
        cell = h**2 * (
            np.abs(a) ** 2
            + h * np.real(np.conj(a) * (s[0] + s[1]))
            + (h**2 / 3.0) * (np.abs(s[0]) ** 2 + np.abs(s[1]) ** 2)
            + (h**2 / 2.0) * np.real(np.conj(s[0]) * s[1])
        )
    return float(math.sqrt(max(np.sum(cell), 0.0)))


# -- the checks ---------------------------------------------------------------


def _random_poly(modes, seed: int) -> TrigPolynomial:
    gen = np.random.default_rng(seed)
    shape = tuple(len(m) for m in modes)
    return TrigPolynomial(modes, gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


@pytest.mark.parametrize("d, M", CASES, ids=IDS)
def test_lattice_tables_keep_the_bits_of_the_meshgrid_loops(d, M):
    lat = Lattice(d, M)
    assert_same_bits(spectral.laplacian_symbol(lat), laplacian_symbol_loop(lat))
    assert_same_bits(spectral._max_abs_frequency(lat), max_abs_frequency_loop(lat))
    assert_same_bits(spectral._bracket_sq(lat), bracket_sq_loop(lat))


@pytest.mark.parametrize("d, M", CASES, ids=IDS)
def test_trig_polynomial_tables_keep_the_bits_of_the_reshape_loops(d, M):
    f = _random_poly([Lattice(d, M).frequencies()] * d, seed=M + d)
    assert_same_bits(f._bracket_sq(), poly_bracket_sq_loop(f))
    for cutoff in (0.0, M / 4, M / 2 + 0.5, M):
        assert f.tail_norm(cutoff) == tail_norm_loop(f, cutoff)


def test_non_square_mode_grid_tables_keep_their_bits():
    f = _random_poly([np.arange(-3, 6), np.arange(-11, 2, 2)], seed=5)
    assert f.coeffs.shape == (9, 7)
    assert_same_bits(f._bracket_sq(), poly_bracket_sq_loop(f))
    for cutoff in (0.0, 2.0, 3.5, 5.0, 11.0):
        assert f.tail_norm(cutoff) == tail_norm_loop(f, cutoff)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("width", [0.3, 0.8, 2.0])
def test_wrapped_gaussian_keeps_the_bits_of_the_branch(d, width):
    center = (0.4, -1.3)[:d]
    assert_same_bits(wrapped_gaussian(d, width, center).coeffs,
                     wrapped_gaussian_coeffs_branch(d, width, center))


@pytest.mark.parametrize("d, M", CASES, ids=IDS)
def test_collocation_symbol_keeps_the_bits_of_the_branch(d, M):
    resolution = 2 * M
    for band in (None, resolution // 3):
        assert_same_bits(dynamics._collocation_symbol(d, resolution, band),
                         collocation_symbol_branch(d, resolution, band))


@pytest.mark.parametrize("d, M", CASES, ids=IDS)
def test_interpolant_norm_keeps_the_bits_of_the_per_d_formulas(d, M):
    u = random_grid(Lattice(d, M), np.random.default_rng(M + 10 * d))
    assert interpolant_l2_norm(u) == interpolant_l2_norm_branch(u)


def test_grid_and_spectrum_functions_share_one_check_and_stay_distinct():
    lat = Lattice(2, 2)
    flat = np.arange(lat.n_points, dtype=float)
    for cls, what in ((GridFunction, "grid function"), (SpectrumFunction, "spectrum")):
        f = cls(lat, flat)
        assert type(f) is cls and f.values.shape == lat.shape and f.values.dtype == np.complex128
        with pytest.raises(ValueError, match=r"values shape \(3,\) incompatible"):
            cls(lat, np.ones(3))
        with pytest.raises(ValueError, match=f"{what} contains non-finite entries"):
            cls(lat, np.full(lat.shape, np.nan))
    assert not issubclass(SpectrumFunction, GridFunction)
    assert not issubclass(GridFunction, SpectrumFunction)
