"""Band-limited continuum profiles: evaluation, norms, free flow, projections.

Convention: a profile with coefficient c_k represents
f(x) = (2 pi)^{-d} sum_k c_k e^{ik.x}, matching the lattice transform
normalization, so |f|_{L^2}^2 = (2 pi)^{-d} sum |c_k|^2.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from lnls.continuum import (
    TrigPolynomial,
    box_sobolev_norm,
    plane_wave,
    random_low_modes,
    wrapped_gaussian,
)
from lnls.corpus import continuum_profiles
from lnls.dynamics import NlsParams
from lnls.lattice import GridFunction, Lattice, discretize
from lnls.spectral import forward

from collocation_oracle import collocation_states
from continuum_oracle import evaluate, l2_distance

TWO_PI = 2.0 * math.pi


def test_plane_wave_evaluation():
    f = plane_wave(1, (3,), 1.5 - 0.5j)
    x = np.linspace(-math.pi, math.pi, 17)
    assert np.allclose(evaluate(f, x), (1.5 - 0.5j) * np.exp(3j * x), atol=1e-13)
    g = plane_wave(2, (1, -2))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    assert np.allclose(evaluate(g, xx, yy), np.exp(1j * (xx - 2 * yy)), atol=1e-13)


def test_plane_wave_norms_closed_form():
    for d in (1, 2):
        k0 = (2,) if d == 1 else (2, 1)
        f = plane_wave(d, k0, 0.5)
        ksq = sum(k**2 for k in k0)
        assert f.l2_norm() == pytest.approx(0.5 * TWO_PI ** (d / 2), rel=1e-13)
        for s in (0.0, 1.0, 1.7):
            want = 0.5 * (1 + ksq) ** (s / 2) * TWO_PI ** (d / 2)
            assert f.sobolev_norm(s) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("modes, axis", [
    ([np.array([1, 1])], 0),
    ([np.arange(3), np.array([2, -1, 2])], 1),
])
def test_repeated_mode_is_rejected_naming_its_axis(modes, axis):
    # [1, 1] with coefficients [1, -1] is the zero function, but every norm
    # sums |c_k|^2 over the listed modes and would read 0.564
    coeffs = np.ones(tuple(len(m) for m in modes))
    coeffs[..., -1] = -1.0
    with pytest.raises(ValueError, match=f"axis {axis} lists a mode more than once"):
        TrigPolynomial(modes, coeffs)


def test_free_evolution_phases():
    # e^{it Laplacian} e^{ik.x} = e^{-it|k|^2} e^{ik.x}
    f = plane_wave(2, (2, -1), 1.0)
    t = 0.37
    g = f.free_evolved(t)
    x = np.array([0.3])
    y = np.array([-1.1])
    want = np.exp(-1j * t * 5.0) * evaluate(f, x, y)
    assert evaluate(g, x, y)[0] == pytest.approx(want[0], rel=1e-13)
    # the flow is an L^2 isometry and a group
    assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)
    gg = g.free_evolved(-t)
    assert l2_distance(gg, f) <= 1e-13


def test_l2_distance_aligns_mode_sets():
    a = plane_wave(1, (1,), 1.0)
    b = plane_wave(1, (3,), 2.0)
    # disjoint supports: |a - b|^2 = |a|^2 + |b|^2
    want = math.sqrt(a.l2_norm() ** 2 + b.l2_norm() ** 2)
    assert l2_distance(a, b) == pytest.approx(want, rel=1e-13)
    assert l2_distance(a, a.scaled(1.0)) <= 1e-15


def test_scaled():
    f = plane_wave(1, (2,), 1.0)
    g = f.scaled(2.0j)
    assert evaluate(g, np.array([0.4]))[0] == pytest.approx(2.0j * evaluate(f, np.array([0.4]))[0],
                                                          rel=1e-13)


def test_wrapped_gaussian_transform_consistency():
    # discretizing on a fine lattice and transforming recovers the stated
    # coefficients up to the cell-average factor and truncation tails
    f = wrapped_gaussian(1, 0.6)
    lat = Lattice(1, 64)
    u = discretize(f, lat)
    hat = forward(u).values
    k = lat.frequencies()
    (modes,) = f.modes
    coeffs = dict(zip(modes.tolist(), f.coeffs.tolist()))
    for i, kk in enumerate(k):
        want = coeffs.get(int(kk), 0.0)
        # cell averaging multiplies mode k by (e^{ikh}-1)/(ikh)
        if kk != 0:
            want = want * (np.exp(1j * kk * lat.h) - 1.0) / (1j * kk * lat.h)
        assert abs(hat[i] - want) <= 1e-9 * max(1.0, abs(want))


def test_wrapped_gaussian_is_centered_and_positive_at_center():
    f = wrapped_gaussian(1, 0.5, center=(1.0,))
    x = np.linspace(-math.pi, math.pi, 201)
    vals = evaluate(f, x)
    peak = np.abs(evaluate(f, np.array([1.0]))[0])
    assert abs(vals[np.argmax(np.abs(vals))]) == pytest.approx(peak, rel=1e-2)


def test_random_low_modes_properties(rng):
    f = random_low_modes(2, rng, max_mode=3, n_modes=6)
    assert f.sobolev_norm(1.0) == pytest.approx(1.0, rel=1e-12)
    for axis_modes in f.modes:
        assert np.all(np.abs(axis_modes) <= 3)


def test_box_sobolev_norm_matches_closed_form():
    f = plane_wave(2, (1, 2), 0.8)
    got = box_sobolev_norm(f, 1.0, resolution=64)
    want = 0.8 * math.sqrt(1 + 5) * TWO_PI
    assert got == pytest.approx(want, rel=1e-10)


def _on_tensor_grid(f: TrigPolynomial, axis: np.ndarray) -> np.ndarray:
    """``f`` by its dense sum at every point of the tensor grid ``axis^d``."""
    return evaluate(f, *np.meshgrid(*[axis] * f.d, indexing="ij", sparse=True))


def _gauss_legendre_cell_averages(f, lat: Lattice, n: int) -> np.ndarray:
    """Oracle: an n-point Gauss-Legendre rule per axis on every cell, built here."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = (lat.axis_coords()[:, None] + 0.5 * lat.h * (x + 1.0)[None, :]).ravel()
    vals = _on_tensor_grid(f, nodes)
    w = 0.5 * w
    cells = lat.n_per_axis
    if lat.d == 1:
        return vals.reshape(cells, n) @ w
    return np.einsum("aibj,i,j->ab", vals.reshape(cells, n, cells, n), w, w)


CELL_AVERAGE_CASES = [
    pytest.param(f, M, id=f"d{d}-{f.tag}-M{M}")
    for d in (1, 2)
    for f in continuum_profiles(d) + [wrapped_gaussian(d, 0.35)]
    for M in (4, 16)
]


@pytest.mark.parametrize("f, M", CELL_AVERAGE_CASES)
def test_trig_cell_averages_match_gauss_legendre_32(f, M):
    lat = Lattice(f.d, M)
    got = f.cell_averages(lat)
    want = _gauss_legendre_cell_averages(f, lat, 32)
    assert got.shape == lat.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(discretize(f, lat).values, got)


UNIFORM_GRID_CASES = [
    pytest.param(f, M, id=f"d{d}-{f.tag}-M{M}")
    for d in (1, 2)
    # M = 2 folds the narrow Gaussian's 2 * 35 + 1 modes onto 4 slots per axis
    for f in continuum_profiles(d) + [wrapped_gaussian(d, 0.35)]
    for M in (2, 8)
]


@pytest.mark.parametrize("f, M", UNIFORM_GRID_CASES)
@pytest.mark.parametrize("half_cell", [False, True], ids=["x0=-pi", "x0=-pi+h/2"])
def test_uniform_grid_evaluator_matches_dense_sum(f, M, half_cell):
    lat = Lattice(f.d, M)
    n = lat.n_per_axis
    x0 = -math.pi + (0.5 * lat.h if half_cell else 0.0)
    want = _on_tensor_grid(f, x0 + TWO_PI * np.arange(n) / n)
    got = f.on_uniform_grid(n, x0)
    assert got.shape == (n,) * f.d
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_uniform_grid_evaluator_applies_weight_per_axis():
    f = random_low_modes(2, np.random.default_rng(5))
    n = 8
    weighted = TrigPolynomial(f.modes, f.coeffs * np.multiply.outer(
        np.cos(f.modes[0]), np.cos(f.modes[1])))
    want = _on_tensor_grid(weighted, 0.3 + TWO_PI * np.arange(n) / n)
    got = f.on_uniform_grid(n, 0.3, np.cos)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


WIDE_SPECTRUM_CASES = [
    wrapped_gaussian(1, 0.35),
    random_low_modes(1, np.random.default_rng(2), max_mode=9),
    wrapped_gaussian(2, 0.35, center=(0.7, -0.2)),
    random_low_modes(2, np.random.default_rng(3)),
    # a non-square mode grid, off-centre on both axes
    TrigPolynomial([np.arange(-3, 40), np.arange(-17, 5)],
                   np.random.default_rng(4).standard_normal((43, 22)) * (1 - 0.5j)),
]


@pytest.mark.parametrize("f", WIDE_SPECTRUM_CASES)
@pytest.mark.parametrize("oversample", [1, 4, 8])
def test_uniform_grid_evaluator_matches_dense_sum_past_the_mode_span(f, oversample):
    # n is at least the mode span, rarely a power of two, and x0 is the default 0
    span = max(2 * (int(np.max(np.abs(m))) + 1) for m in f.modes)
    n = max(32, oversample * span)
    want = _on_tensor_grid(f, TWO_PI * np.arange(n) / n)
    got = f.on_uniform_grid(n)
    assert got.shape == (n,) * f.d
    # both sums round on the scale of the bound (2 pi)^{-d} sum |c_k| of |f|;
    # for random coefficients that bound is several times max |f|
    bound = np.sum(np.abs(f.coeffs)) / TWO_PI**f.d
    assert np.max(np.abs(got - want)) <= 1e-14 * bound


@pytest.mark.parametrize("d, resolution", [(1, 64), (2, 64)])
def test_collocation_initial_sample_matches_dense_sum(d, resolution):
    f = wrapped_gaussian(d, 0.35)
    fine = Lattice(d, resolution // 2)
    want = forward(GridFunction(fine, _on_tensor_grid(f, fine.axis_coords()))).values
    (got,) = collocation_states(f, NlsParams(p=3, lam=1), [0.0], resolution, 1e-2)
    assert np.max(np.abs(got.coeffs - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("max_mode, n_modes, message", [
    (-1, 8, "max_mode must be >= 0, got -1"),
    (3, 0, "n_modes must be >= 1, got 0"),
    (3, -2, "n_modes must be >= 1, got -2"),
])
def test_random_low_modes_rejects_empty_mode_sets(max_mode, n_modes, message):
    with pytest.raises(ValueError, match=message):
        random_low_modes(2, np.random.default_rng(0), max_mode=max_mode, n_modes=n_modes)
