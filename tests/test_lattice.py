"""Lattice geometry, grid functions, transfer operators, exact errors, serialization.

Closed-form oracles are written out literally next to the assertions they
back; brute-force checks use direct O(n**2) summation or dense midpoint
quadrature so they share no code with the implementation under test.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnls import lattice
from lnls.continuum import TrigPolynomial, plane_wave, wrapped_gaussian
from lnls.corpus import random_grid
from lnls.lattice import (
    GridFunction,
    Lattice,
    LatticeMismatchError,
    backward_difference,
    continuum_l2_error,
    convolve,
    discrete_laplacian_stencil,
    discretize,
    forward_difference,
    gradient_norm_sq,
    inner_product,
    interpolant_l2_norm,
    laplacian_stencil_values,
    lebesgue_norm,
    read_grid,
    require_same_lattice,
    write_grid,
)

from interpolant_oracle import cell_rule_sum, interpolant_at, interpolant_coefficients, midpoint_rule

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# geometry


def test_lattice_geometry_1d():
    lat = Lattice(1, 8)
    assert lat.h == math.pi / 8
    assert lat.n_per_axis == 16
    assert lat.n_points == 16
    assert lat.shape == (16,)
    assert lat.cell_volume == lat.h
    x = lat.axis_coords()
    assert x[0] == -math.pi
    assert np.allclose(np.diff(x), lat.h)
    assert x[-1] == pytest.approx(math.pi - lat.h)
    k = lat.frequencies()
    assert k[0] == -8 and k[-1] == 7
    # x = 0 sits at slot M
    assert x[8] == 0.0


def test_lattice_geometry_2d():
    lat = Lattice(2, 4)
    assert lat.shape == (8, 8)
    assert lat.n_points == 64
    assert lat.cell_volume == pytest.approx(lat.h**2)
    xx, yy = lat.meshgrid()
    assert xx.shape == (8, 8)
    # row-major: first axis varies along rows
    assert np.allclose(xx[:, 0], lat.axis_coords())
    assert np.allclose(yy[0, :], lat.axis_coords())


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(3, 8)  # only d in {1, 2}
    with pytest.raises(ValueError):
        Lattice(1, 12)  # not a power of two
    with pytest.raises(ValueError):
        Lattice(1, 0)


def test_from_spacing_roundtrip():
    for m in (2, 8, 64):
        lat = Lattice.from_spacing(1, math.pi / m)
        assert lat.M == m
    with pytest.raises(ValueError):
        Lattice.from_spacing(1, math.pi / 12)
    with pytest.raises(ValueError):
        Lattice.from_spacing(1, 0.4)


# --------------------------------------------------------------------------
# grid functions


def test_grid_function_coerces_and_checks():
    lat = Lattice(1, 2)
    u = GridFunction(lat, np.arange(4))
    assert u.values.dtype == np.complex128
    with pytest.raises(ValueError):
        GridFunction(lat, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        GridFunction(lat, np.ones(5))


def test_grid_function_arithmetic(rng):
    lat = Lattice(2, 4)
    u = random_grid(lat, rng)
    v = random_grid(lat, rng)
    w = u + v
    assert np.allclose(w.values, u.values + v.values)
    assert np.allclose((u - v).values, u.values - v.values)
    assert np.allclose((2.5j * u).values, 2.5j * u.values)
    assert np.allclose((-u).values, -u.values)
    c = u.copy()
    c.values[0, 0] += 1.0
    assert c.values[0, 0] != u.values[0, 0]


def test_require_same_lattice():
    a = GridFunction.zeros(Lattice(1, 4))
    b = GridFunction.zeros(Lattice(1, 8))
    with pytest.raises(LatticeMismatchError):
        require_same_lattice(a, b)


# --------------------------------------------------------------------------
# norms and products


def test_lebesgue_norm_constant():
    # |1|_{L^r} = (2 pi)^{d/r}
    for d in (1, 2):
        lat = Lattice(d, 4)
        one = GridFunction(lat, np.ones(lat.shape))
        for r in (1.0, 2.0, 4.0):
            assert lebesgue_norm(one, r) == pytest.approx(TWO_PI ** (d / r), rel=1e-13)
        assert lebesgue_norm(one, math.inf) == 1.0
    with pytest.raises(ValueError):
        lebesgue_norm(one, 0.5)


def test_inner_product_is_sesquilinear(rng):
    lat = Lattice(1, 8)
    u, v = random_grid(lat, rng), random_grid(lat, rng)
    assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))
    assert inner_product(u, u).real == pytest.approx(lebesgue_norm(u, 2) ** 2, rel=1e-12)
    # linear in the first slot, conjugate-linear in the second
    assert inner_product(2j * u, v) == pytest.approx(2j * inner_product(u, v))
    assert inner_product(u, 2j * v) == pytest.approx(-2j * inner_product(u, v))


# --------------------------------------------------------------------------
# convolution


def _convolve_direct(u: GridFunction, v: GridFunction) -> np.ndarray:
    """O(n**2) periodic convolution h^d sum_n u(x_n) v(x_{m-n})."""
    lat = u.lattice
    n = lat.n_per_axis
    # slot s holds the point x = h (s - M), so x_m - x_j sits at slot (m - j + M) mod n
    shift = lat.M
    out = np.zeros(lat.shape, dtype=complex)
    if lat.d == 1:
        for m in range(n):
            acc = 0.0 + 0.0j
            for j in range(n):
                acc += u.values[j] * v.values[(m - j + shift) % n]
            out[m] = acc
    else:
        for m1 in range(n):
            for m2 in range(n):
                acc = 0.0 + 0.0j
                for j1 in range(n):
                    for j2 in range(n):
                        acc += u.values[j1, j2] * v.values[(m1 - j1 + shift) % n,
                                                           (m2 - j2 + shift) % n]
                out[m1, m2] = acc
    return out * lat.cell_volume


def test_convolution_matches_direct_sum(rng):
    for d, m in ((1, 4), (2, 2)):
        lat = Lattice(d, m)
        u, v = random_grid(lat, rng), random_grid(lat, rng)
        w = convolve(u, v)
        assert np.allclose(w.values, _convolve_direct(u, v), atol=1e-13)
        assert np.allclose(convolve(v, u).values, w.values, atol=1e-13)


def test_convolution_with_point_mass_is_identity(rng):
    lat = Lattice(1, 8)
    u = random_grid(lat, rng)
    delta = GridFunction.zeros(lat)
    delta.values[lat.M] = 1.0 / lat.cell_volume  # unit point mass at x = 0
    w = convolve(u, delta)
    assert np.allclose(w.values, u.values, atol=1e-13)


# --------------------------------------------------------------------------
# difference operators


def test_forward_difference_on_plane_wave():
    lat = Lattice(1, 16)
    k = 3
    x = lat.axis_coords()
    u = GridFunction(lat, np.exp(1j * k * x))
    got = forward_difference(u, 0)
    want = np.exp(1j * k * x) * (np.exp(1j * k * lat.h) - 1.0) / lat.h
    assert np.allclose(got.values, want, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts(seed):
    # <D+ u, v> = -<u, D- v> exactly on periodic grids
    lat = Lattice(2, 4)
    gen = np.random.default_rng(seed)
    u, v = random_grid(lat, gen), random_grid(lat, gen)
    for axis in (0, 1):
        lhs = inner_product(forward_difference(u, axis), v)
        rhs = -inner_product(u, backward_difference(v, axis))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_stencil_laplacian_is_div_grad(rng):
    lat = Lattice(2, 8)
    u = random_grid(lat, rng)
    lap = discrete_laplacian_stencil(u)
    comp = GridFunction.zeros(lat)
    for axis in (0, 1):
        comp = comp + backward_difference(forward_difference(u, axis), axis)
    assert np.allclose(lap.values, comp.values, atol=1e-12)


@pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (1, 32), (2, 1), (2, 2), (2, 8)])
def test_stencil_matches_roll_oracle(rng, d, m):
    # same sums in the same order as the np.roll form, so equal bit for bit;
    # M=1 is the 2-point axis, where both neighbours are the other point
    lat = Lattice(d, m)
    u = random_grid(lat, rng)
    v = u.values
    want = np.zeros(lat.shape, dtype=np.complex128)
    for axis in range(d):
        want += np.roll(v, -1, axis=axis) + np.roll(v, 1, axis=axis) - 2.0 * v
    want = want / lat.h**2
    assert laplacian_stencil_values(v, lat.h).tobytes() == want.tobytes()
    assert discrete_laplacian_stencil(u).values.tobytes() == want.tobytes()


def test_gradient_norm_sq(rng):
    lat = Lattice(2, 4)
    u = random_grid(lat, rng)
    want = sum(lebesgue_norm(forward_difference(u, ax), 2) ** 2 for ax in (0, 1))
    assert gradient_norm_sq(u) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# cell-average discretization


def test_discretize_plane_wave_closed_form():
    # cell average of e^{ikx} over [x_m, x_m + h) is e^{ik x_m} (e^{ikh}-1)/(ikh)
    lat = Lattice(1, 8)
    x = lat.axis_coords()
    for k in (1, 2, 5):
        u = discretize(plane_wave(1, (k,)), lat)
        want = np.exp(1j * k * x) * (np.exp(1j * k * lat.h) - 1.0) / (1j * k * lat.h)
        assert np.allclose(u.values, want, atol=1e-12)


def test_discretize_product_mode_2d():
    lat = Lattice(2, 4)
    k = (2, -1)
    u = discretize(plane_wave(2, k), lat)
    xx, yy = lat.meshgrid()
    factor = np.prod([(np.exp(1j * kj * lat.h) - 1.0) / (1j * kj * lat.h) for kj in k])
    want = np.exp(1j * (k[0] * xx + k[1] * yy)) * factor
    assert np.allclose(u.values, want, atol=1e-12)


def _trig_2d(terms: dict[tuple[int, int], complex]) -> TrigPolynomial:
    """``sum a e^{i(k0 x + k1 y)}`` over ``terms = {(k0, k1): a}``, on the modes -1..1."""
    k = np.arange(-1, 2)
    coeffs = np.zeros((3, 3), dtype=np.complex128)
    for (k0, k1), a in terms.items():
        coeffs[k0 + 1, k1 + 1] = a * TWO_PI**2
    return TrigPolynomial([k, k], coeffs)


def test_discretize_constant_and_linearity():
    lat = Lattice(2, 4)
    c = 2.0 - 0.5j
    assert np.allclose(discretize(_trig_2d({(0, 0): c}), lat).values, c)
    cos_x = {(1, 0): 0.5, (-1, 0): 0.5}
    sin_y = {(0, 1): -0.5j, (0, -1): 0.5j}
    got = discretize(_trig_2d({**cos_x, **sin_y}), lat)
    want = discretize(_trig_2d(cos_x), lat).values + discretize(_trig_2d(sin_y), lat).values
    assert np.allclose(got.values, want, atol=1e-13)
    # the averages of cos x + sin y in closed form: each term times its sinc factor
    xx, yy = lat.meshgrid()
    hh = lat.h
    closed = (np.sin(xx + hh) - np.sin(xx) - np.cos(yy + hh) + np.cos(yy)) / hh
    assert np.allclose(got.values, closed, atol=1e-13)


# --------------------------------------------------------------------------
# interpolation


def _interpolant_l2_bruteforce(u: GridFunction, oversample: int) -> float:
    tau, w = midpoint_rule(u.lattice.h, oversample)
    return math.sqrt(cell_rule_sum(np.abs(interpolant_at(u, tau)) ** 2, w, u.lattice.n_per_axis))


def test_interpolant_l2_norm_closed_form(rng):
    for d, m, os_ in ((1, 8, 64), (2, 4, 32)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        exact = interpolant_l2_norm(u)
        brute = _interpolant_l2_bruteforce(u, os_)
        # midpoint quadrature converges at O(oversample^-2)
        assert exact == pytest.approx(brute, rel=5.0 / os_**2)


def test_interpolant_norms_on_constant():
    for d in (1, 2):
        lat = Lattice(d, 4)
        one = GridFunction(lat, np.ones(lat.shape))
        assert interpolant_l2_norm(one) == pytest.approx(TWO_PI ** (d / 2), rel=1e-13)


# --------------------------------------------------------------------------
# continuum distance


def _perturbed_discretization(d: int, M: int, seed: int):
    f = wrapped_gaussian(d, 0.8)
    lat = Lattice(d, M)
    noise = random_grid(lat, np.random.default_rng(seed)).values
    return f, GridFunction(lat, discretize(f, lat).values + 0.01 * noise)


def _midpoint_l2_error(u: GridFunction, f: TrigPolynomial, oversample: int) -> float:
    """``|p_h u - f|_{L^2}`` by the midpoint rule on ``oversample``-fold refined cells."""
    lat = u.lattice
    tau, w = midpoint_rule(lat.h, oversample)
    axis = (lat.axis_coords()[:, None] + tau).ravel()
    diff = interpolant_at(u, tau) - f(*np.meshgrid(*[axis] * lat.d, indexing="ij", sparse=True))
    return math.sqrt(cell_rule_sum(np.abs(diff) ** 2, w, lat.n_per_axis))


@pytest.mark.parametrize("d, M", [(1, 8), (1, 16), (2, 8)])
def test_exact_trig_error_is_the_limit_of_the_midpoint_rule(d, M):
    # the midpoint rule's O(oversample^-2) error must shrink about 16x per 4x refinement
    f, u = _perturbed_discretization(d, M, seed=M)
    exact = continuum_l2_error(u, f)
    gaps = [abs(_midpoint_l2_error(u, f, os_) - exact) for os_ in (4, 16, 64)]
    assert gaps[0] >= 10.0 * gaps[1] and gaps[1] >= 10.0 * gaps[2], gaps
    assert gaps[2] <= 1e-5 * exact


def test_exact_trig_error_ignores_oversample():
    f, u = _perturbed_discretization(2, 4, seed=1)
    assert continuum_l2_error(u, f, oversample=4) == continuum_l2_error(u, f, oversample=64)


@pytest.mark.parametrize("theta", [0.3, 0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 0.7, -0.45, -0.55])
def test_first_cell_moment_series_meets_closed_form(theta):
    t = np.array([theta])
    series = lattice._first_moment_series(t)
    closed = lattice._first_moment_closed(t)
    assert abs(series[0] - closed[0]) <= 1e-14 * abs(series[0])


def test_cell_moments_match_gauss_legendre():
    h = math.pi / 8
    k = np.array([-40, -9, -1, 0, 1, 2, 16, 33])
    x, w = np.polynomial.legendre.leggauss(64)
    tau, w = 0.5 * h * (x + 1.0), 0.5 * h * w
    phase = np.exp(-1j * np.multiply.outer(k, tau))
    i0, i1 = lattice._cell_moments(k, h)
    assert np.allclose(i0, np.sum(phase * w, axis=1), rtol=1e-14, atol=1e-15)
    assert np.allclose(i1, np.sum(phase * (tau * w), axis=1), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("d, M, K", [(1, 8, 40), (2, 4, 20), (1, 8, 5000), (2, 16, 100)])
def test_split_error_matches_expanded_form(rng, d, M, K):
    # modes far past the lattice's 2M per axis, so the interpolant's
    # coefficients are read at aliased slots; the larger mode sets span
    # several blocks of the summation
    k = np.arange(-K, K + 1)
    shape = (len(k),) * d
    f = TrigPolynomial([k] * d, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u = random_grid(Lattice(d, M), rng)
    g = interpolant_coefficients(u, f.modes)
    cross = TWO_PI**-d * float(np.real(np.sum(g * np.conj(f.coeffs))))
    expanded = interpolant_l2_norm(u) ** 2 + f.l2_norm() ** 2 - 2.0 * cross
    assert continuum_l2_error(u, f) ** 2 == pytest.approx(expanded, rel=1e-10)


def test_exact_error_holds_no_reference_size_temporaries(rng):
    # a 256^2 reference is 1 MiB of coefficients; the error against it is
    # summed in blocks, so a call allocates O(lattice + block)
    k = np.arange(-128, 128)
    f = TrigPolynomial([k, k], rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
    u = random_grid(Lattice(2, 16), rng)
    continuum_l2_error(u, f)  # first call: imports and caches
    tracemalloc.start()
    try:
        continuum_l2_error(u, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


# --------------------------------------------------------------------------
# serialization


def test_grid_roundtrip_binary(tmp_path, rng):
    for d, m in ((1, 8), (2, 4)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        path = tmp_path / f"u{d}.grid"
        write_grid(u, path)
        v = read_grid(path)
        assert v.lattice == u.lattice
        assert np.array_equal(v.values, u.values)


def test_grid_rejects_bad_magic(tmp_path, rng):
    lat = Lattice(1, 4)
    path = tmp_path / "u.grid"
    write_grid(random_grid(lat, rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_grid(path)
