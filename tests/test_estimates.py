"""Dispersive kernel bounds, oscillatory integrals, Strichartz norm sweeps.

Oracles: the t = 0 kernel is the Dirichlet kernel with closed form
sin((n + 1/2) x) / (2 pi sin(x/2)); the multi-dimensional kernel is a tensor
product; the dense sum over the modes (``kernel_oracle``) writes the symbol
as (2/h^2)(1 - cos h k); the phase derivative obeys |phi'| <= |x| + 2 pi c
inside the sampled time window |t| <= c h / N.
"""
from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest

from lnls.continuum import plane_wave, random_low_modes, wrapped_gaussian
from lnls.corpus import continuum_profiles, random_grid
from lnls import dynamics, estimates, spectral
from lnls.estimates import (
    AdmissiblePair,
    KernelQuery,
    StrichartzQuery,
    dispersive_bound_sweep,
    dispersive_uniformity,
    kernel_modes,
    kernel_sup,
    strichartz_sweep,
)
from lnls.lattice import GridFunction, Lattice, NumericalAccuracyError, discretize, lebesgue_norm
from lnls.dynamics import NlsParams, conserved, evolve_capture
from lnls.records import uniformity_factor
from lnls.util import Draws
from lnls.spectral import (
    DyadicScale,
    SpectrumFunction,
    dyadic_scales,
    forward,
    inverse,
    laplacian_symbol,
    lp_project,
)

from flow_oracle import energy, linear_flow, strang_step
from kernel_oracle import axis_sum, axis_symbol, dispersive_kernel, kernel_as_grid
from lattice_oracle import convolve, lowpass_project

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# admissibility


def test_admissible_pair_accepts_valid_pairs():
    AdmissiblePair(3.0, math.inf).validate_for(2)   # 3/3 + 2/inf = 1 = d/2
    AdmissiblePair(6.0, 4.0).validate_for(2)        # 1/2 + 1/2 = 1
    AdmissiblePair(8.0, 8.0).validate_for(1)        # 3/8 + 1/8 = 1/2
    AdmissiblePair(math.inf, 2.0).validate_for(1)   # 0 + 1/2 = 1/2
    AdmissiblePair(math.inf, 2.0).validate_for(2)


def test_admissible_pair_rejects_relation_violations():
    with pytest.raises(ValueError, match=r"3/q \+ d/r = d/2"):
        AdmissiblePair(4.0, 4.0).validate_for(2)
    with pytest.raises(ValueError, match=r"3/q \+ d/r = d/2"):
        AdmissiblePair(2.0, math.inf).validate_for(2)


def test_admissible_pair_excluded_endpoint():
    # (2, inf, 3) satisfies the scaling relation, but no lattice has d = 3
    assert 3.0 / 2.0 == 3.0 / 2.0  # 3/q + d/r = 1.5 = d/2 at d = 3
    with pytest.raises(ValueError, match="lattice dimension must be 1 or 2"):
        AdmissiblePair(2.0, math.inf).validate_for(3)


def _nan_pair() -> AdmissiblePair:
    # a pair that skipped __post_init__, so that validate_for meets the NaN itself
    pair = object.__new__(AdmissiblePair)
    object.__setattr__(pair, "q", math.nan)
    object.__setattr__(pair, "r", math.nan)
    return pair


@pytest.mark.parametrize("check, message", [
    (lambda: AdmissiblePair(math.nan, math.nan), "admissible exponents need q, r >= 2"),
    (lambda: _nan_pair().validate_for(2), "violates the admissibility relation"),
    (lambda: StrichartzQuery(AdmissiblePair(3.0, math.inf), (math.pi / 8,), epsilon=math.nan),
     "epsilon must be >= 0"),
    (lambda: KernelQuery(DyadicScale.of(Lattice(1, 8), 0.5), c=math.nan),
     "window constant c must be positive"),
    (lambda: lebesgue_norm(GridFunction.zeros(Lattice(1, 8)), math.nan),
     "Lebesgue exponent must satisfy r >= 1"),
], ids=["pair", "pair-relation", "strichartz-epsilon", "kernel-c", "lebesgue-r"])
def test_nan_fails_each_library_check(check, message):
    # every comparison is written so that NaN fails it
    with pytest.raises(ValueError, match=message):
        check()


def test_admissible_pair_range_checks():
    with pytest.raises(ValueError):
        AdmissiblePair(1.5, 4.0)
    with pytest.raises(ValueError):
        AdmissiblePair(4.0, 1.0)


# --------------------------------------------------------------------------
# kernel


def test_kernel_query_window():
    lat = Lattice(1, 8)
    q = KernelQuery(DyadicScale.of(lat, 0.5))
    assert q.t_window == pytest.approx(0.1 * lat.h / 0.5)
    q.check_time(q.t_window)
    q.check_time(-q.t_window)
    with pytest.raises(ValueError):
        q.check_time(1.01 * q.t_window)


def test_kernel_modes_count():
    lat = Lattice(1, 8)
    modes = kernel_modes(DyadicScale.of(lat, 0.5))
    # |k| <= floor(pi N / h) = floor(N M) = 4
    assert modes.tolist() == list(range(-4, 5))


def test_kernel_dirichlet_closed_form_at_t0():
    lat = Lattice(1, 8)
    q = KernelQuery(DyadicScale.of(lat, 0.5))
    n = 4
    for x in (0.3, -1.2, 2.9):
        got = dispersive_kernel(q, 0.0, (x,))
        want = math.sin((n + 0.5) * x) / math.sin(x / 2.0) / TWO_PI
        assert got.real == pytest.approx(want, rel=1e-12)
        assert abs(got.imag) <= 1e-12
    # peak value counts the modes
    peak = dispersive_kernel(q, 0.0, (0.0,))
    assert peak.real == pytest.approx((2 * n + 1) / TWO_PI, rel=1e-12)


def test_kernel_tensorizes_in_2d():
    lat1 = Lattice(1, 8)
    lat2 = Lattice(2, 8)
    q1 = KernelQuery(DyadicScale.of(lat1, 0.5))
    q2 = KernelQuery(DyadicScale.of(lat2, 0.5))
    t = 0.5 * q1.t_window
    for x, y in ((0.4, -0.9), (1.3, 0.2)):
        got = dispersive_kernel(q2, t, (x, y))
        # each axis factor carries its own (2 pi)^{-1}, so the product has
        # exactly the (2 pi)^{-2} normalization of the 2-d kernel
        want = dispersive_kernel(q1, t, (x,)) * dispersive_kernel(q1, t, (y,))
        assert got == pytest.approx(want, rel=1e-11)


def test_kernel_peak_counts_modes_2d():
    lat = Lattice(2, 8)
    q = KernelQuery(DyadicScale.of(lat, 0.25))
    n = 2  # floor(0.25 * 8)
    got = dispersive_kernel(q, 0.0, (0.0, 0.0))
    assert got.real == pytest.approx((2 * n + 1) ** 2 / TWO_PI**2, rel=1e-12)


def test_kernel_sup_at_t0():
    lat = Lattice(1, 8)
    q = KernelQuery(DyadicScale.of(lat, 0.5))
    assert kernel_sup(q, 0.0) == pytest.approx(9.0 / TWO_PI, rel=1e-10)


@pytest.mark.parametrize("M", [8, 64, 128, 512])
def test_kernel_at_lattice_points_by_fft_matches_dense_sum(M):
    # the dense sum over the modes is the oracle of the one-FFT evaluation
    lat = Lattice(1, M)
    for scale in dyadic_scales(lat):
        q = KernelQuery(scale)
        for i in range(q.t_samples):
            t = q.t_window * 2.0**-i
            dense = axis_sum(q, t, lat.axis_coords())
            by_fft = estimates._axis_sum_at_points(q, t)
            assert np.max(np.abs(by_fft - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_kernel_as_grid_realizes_the_projected_flow(rng):
    # convolution with the grid kernel equals the free flow on P_N data: the
    # Strang stepper at coupling 0 and the stencil exponential alike
    lat = Lattice(1, 8)
    scale = DyadicScale.of(lat, 0.5)
    q = KernelQuery(scale)
    u = lowpass_project(random_grid(lat, rng), scale)
    t = 0.9 * q.t_window
    via_kernel = convolve(kernel_as_grid(q, t), u)
    (via_stepper,) = evolve_capture(u, NlsParams(p=3, lam=1, coupling=0.0), t, [t])
    for via_flow in (via_stepper, linear_flow(u, t)):
        assert np.max(np.abs(via_kernel.values - via_flow.values)) <= 1e-10


@pytest.mark.parametrize("d, M", [(d, 2**j) for d in (1, 2) for j in range(9)],
                         ids=[f"d{d}-M{2**j}" for d in (1, 2) for j in range(9)])
def test_kernel_sup_is_the_sup_of_the_dense_kernel_grid(d, M):
    # the sup over the lattice points of the tensor-product kernel, summed densely
    lat = Lattice(d, M)
    for scale in dyadic_scales(lat):
        query = KernelQuery(scale)
        t = query.t_window / 3.0
        want = np.max(np.abs(kernel_as_grid(query, t).values))
        assert kernel_sup(query, t) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# oscillatory integral and sum-versus-integral gap


def _phase(h: float, t: float, x: float, xi: np.ndarray) -> np.ndarray:
    return x * xi - (2.0 * t / h**2) * (1.0 - np.cos(h * xi))


def oscillatory_integral(h: float, N: float, t: float, x: float) -> complex:
    """``int_{-pi N/h}^{pi N/h} exp(i (x xi - (2t/h^2)(1 - cos(h xi)))) d xi``.

    Adaptive quadrature (SciPy); a failure to converge raises
    :class:`NumericalAccuracyError`.
    """
    from scipy import integrate

    if h <= 0 or N <= 0:
        raise ValueError(f"need h > 0 and N > 0, got h={h}, N={N}")
    L = math.pi * N / h
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            re, re_err = integrate.quad(
                lambda xi: math.cos(_phase(h, t, x, np.float64(xi))), -L, L,
                limit=400, epsabs=1e-10, epsrel=1e-10,
            )
            im, im_err = integrate.quad(
                lambda xi: math.sin(_phase(h, t, x, np.float64(xi))), -L, L,
                limit=400, epsabs=1e-10, epsrel=1e-10,
            )
        except integrate.IntegrationWarning as exc:
            raise NumericalAccuracyError(f"oscillatory integral failed to converge: {exc}") from exc
    scale = max(1.0, 2.0 * L)
    if re_err + im_err > 1e-6 * scale:
        raise NumericalAccuracyError(
            f"oscillatory integral error estimate {re_err + im_err:.2e} too large"
        )
    return complex(re, im)


def riemann_sum_gap(h: float, N: float, t: float, x: float) -> float:
    """``|sum_{a < n <= b} e^{i phi(n)} - int_a^b e^{i phi}|`` with ``b = -a = pi N/h``.

    Meaningful under the sum-versus-integral hypothesis ``|phi'| < 2 pi``
    with monotone ``phi'``; the gap is then bounded by a universal constant.
    """
    L = math.pi * N / h
    n = np.arange(math.floor(-L) + 1, math.floor(L) + 1)
    total = complex(np.sum(np.exp(1j * _phase(h, t, x, n.astype(float)))))
    return abs(total - oscillatory_integral(h, N, t, x))


def test_oscillatory_integral_zero_phase():
    h, n_scale = math.pi / 8, 0.5
    got = oscillatory_integral(h, n_scale, 0.0, 0.0)
    assert got.real == pytest.approx(2.0 * math.pi * n_scale / h, rel=1e-10)
    assert abs(got.imag) <= 1e-10


def test_oscillatory_integral_linear_phase():
    # t = 0: int_{-L}^{L} e^{ix xi} d xi = 2 sin(Lx)/x
    h, n_scale, x = math.pi / 8, 0.5, 0.7
    L = math.pi * n_scale / h
    got = oscillatory_integral(h, n_scale, 0.0, x)
    assert got.real == pytest.approx(2.0 * math.sin(L * x) / x, rel=1e-10)


def test_riemann_sum_gap_is_small_in_window():
    # with |phi'| < 2 pi the endpoint-corrected sum tracks the integral
    h = math.pi / 16
    n_scale = 0.5
    t_edge = 0.1 * h / n_scale
    worst = 0.0
    for t in (0.0, 0.5 * t_edge, t_edge):
        for x in (0.0, 0.4, -1.3, 3.0):
            worst = max(worst, riemann_sum_gap(h, n_scale, t, x))
    assert worst <= 10.0


# --------------------------------------------------------------------------
# dispersive sweeps


def test_dispersive_bound_sweep_record_shape():
    lat = Lattice(1, 16)
    recs = dispersive_bound_sweep(KernelQuery(DyadicScale.of(lat, 0.5), t_samples=4))
    assert len(recs) == 4
    for r in recs:
        assert r.experiment == "dispersive"
        assert r.h == lat.h
        assert r.N == 0.5
        assert 0 < r.t <= 0.1 * lat.h / 0.5 + 1e-15
        # ratio = sup|K| (h |t| / N)^{d/3}
        assert r.ratio == pytest.approx(r.value * (lat.h * r.t / 0.5) ** (1.0 / 3.0), rel=1e-12)
    times = [r.t for r in recs]
    assert times == sorted(times, reverse=True)


def test_dispersive_uniformity_small_sweep():
    recs = dispersive_uniformity(1, [math.pi / 8, math.pi / 16, math.pi / 32])
    assert uniformity_factor(recs) < 3.0


def test_base_scale_mean_bound(rng):
    # the coarsest projection is the mean: sup = (2 pi)^{-d} |u_hat(0)|
    # <= (2 pi)^{-d/2} |u|_2 by Cauchy-Schwarz on a single mode
    for d, m in ((1, 8), (2, 4)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        base = DyadicScale.of(lat, 1.0 / (2 * m))
        proj = lp_project(u, base)
        sup = lebesgue_norm(proj, math.inf)
        hat0 = forward(u).values[(lat.M,) * d]
        assert sup == pytest.approx(abs(hat0) / TWO_PI**d, rel=1e-12)
        assert sup <= TWO_PI ** (-d / 2.0) * lebesgue_norm(u, 2) * (1 + 1e-12)


# --------------------------------------------------------------------------
# Strichartz


def test_strichartz_query_validation():
    pair = AdmissiblePair(3.0, math.inf)
    h_sweep = (math.pi / 8, math.pi / 16)
    with pytest.raises(ValueError):
        StrichartzQuery(pair, h_sweep, t_nodes=4)  # must be odd
    with pytest.raises(ValueError):
        StrichartzQuery(pair, h_sweep, t_nodes=1)
    with pytest.raises(ValueError):
        StrichartzQuery(pair, h_sweep, time_interval=(1.0, 0.0))
    with pytest.raises(ValueError):
        StrichartzQuery(pair, h_sweep, epsilon=-0.2)
    with pytest.raises(ValueError, match="h_sweep must not be empty"):
        StrichartzQuery(pair, ())
    with pytest.raises(TypeError, match="h_sweep"):
        StrichartzQuery(pair)


@pytest.mark.parametrize("t_nodes", [3, 5, 65, 257])
@pytest.mark.parametrize("q", [1.5, 3.0, 8.0, math.inf])
def test_mixed_norm_matches_scipy_simpson(rng, t_nodes, q):
    from scipy.integrate import simpson

    # the doubled node set of strichartz_sweep, then its odd-count half
    fine = np.linspace(-0.3, 1.7, 2 * (t_nodes - 1) + 1)
    values = rng.uniform(0.1, 2.0, fine.size)
    for g, times in ((values, fine), (values[::2], fine[::2])):
        want = g.max() if math.isinf(q) else simpson(g**q, x=times) ** (1.0 / q)
        assert estimates._mixed_norm(g, times, q) == pytest.approx(want, rel=1e-13)


def test_strichartz_single_mode_ratio_closed_form():
    # |e^{it Lap} A e^{ik.x}|_{L^r_x} is constant in t, so the mixed norm over
    # [0, 1] is A (2 pi)^{d/r} and the ratio divides by <k>^{2/q+eps} A (2 pi)^{d/2}
    pair = AdmissiblePair(3.0, math.inf)
    q = StrichartzQuery(pair, h_sweep=(math.pi / 8,), epsilon=0.1)
    recs = strichartz_sweep(q, [plane_wave(2, (1, 0))])
    assert len(recs) == 1
    want = 1.0 / (2.0 ** ((2.0 / 3.0 + 0.1) / 2.0) * TWO_PI)
    assert recs[0].ratio == pytest.approx(want, rel=1e-10)
    assert recs[0].q == 3.0
    assert math.isinf(recs[0].r)
    assert recs[0].epsilon == 0.1


def test_strichartz_finite_r_single_mode():
    # for r < inf the space norm of a plane wave is (2 pi)^{d/r} |A|
    pair = AdmissiblePair(6.0, 4.0)
    q = StrichartzQuery(pair, h_sweep=(math.pi / 8,), epsilon=0.1)
    recs = strichartz_sweep(q, [plane_wave(2, (1, 0))])
    want = TWO_PI ** (2.0 / 4.0) / (2.0 ** ((2.0 / 6.0 + 0.1) / 2.0) * TWO_PI)
    assert recs[0].ratio == pytest.approx(want, rel=1e-10)


def _flow_norms_oracle(u0, times, r):
    """Per-time oracle: full-grid symbol in its cos form and one transform pair per time."""
    lat = u0.lattice
    axis = axis_symbol(lat.h, lat.frequencies())
    sigma = functools.reduce(np.add.outer, [axis] * lat.d)
    spec = forward(u0).values
    return np.array([
        lebesgue_norm(inverse(SpectrumFunction(u0.lattice, spec * np.exp(-1j * t * sigma))), r)
        for t in times
    ])


@pytest.mark.parametrize("block_points", [None, 2**9])
@pytest.mark.parametrize("r", [2.0, 3.5, 4.0, math.inf])
@pytest.mark.parametrize("d, M", [(1, 16), (2, 8)])
def test_flow_space_norms_match_per_time_oracle(monkeypatch, d, M, r, block_points):
    # non-constant |u|: a wrong symbol or sign would change these norms,
    # which a plane wave (constant modulus under any phase) cannot show
    if block_points is not None:
        monkeypatch.setattr(estimates, "_BLOCK_POINTS", block_points)
    lat = Lattice(d, M)
    times = np.linspace(0.0, 1.0, 301)
    chunk = max(1, estimates._BLOCK_POINTS // lat.n_points)
    assert times.size % chunk != 0  # a partial last block
    rng = np.random.default_rng(11)
    for profile in (random_low_modes(d, rng), wrapped_gaussian(d, 0.35)):
        u0 = discretize(profile, lat)
        want = _flow_norms_oracle(u0, times, r)
        if r != 2.0:
            assert np.ptp(want) > 1e-3 * want.max()
        np.testing.assert_allclose(estimates._flow_space_norms(u0, times, r), want,
                                   rtol=1e-12, atol=0)


def test_one_patch_of_the_axis_symbol_reaches_every_reader(monkeypatch):
    # The continuum-symbol mutant, k^2 in place of (4/h^2) sin^2(h k / 2), is one
    # patch of spectral._axis_symbol.  Every subject reads sigma_h through it and
    # must move; every oracle computes sigma_h another way (the cos form, the
    # stencil's exponential, forward differences) and must not, so under the
    # mutant each subject disagrees with its oracle.  laplacian_symbol is cached
    # per lattice, and the Strang stepper and the energy of conserved read it
    # through dynamics._fft_symbol, a second per-lattice cache: both are cleared.
    lat = Lattice(2, 8)
    u0 = discretize(wrapped_gaussian(2, 0.35), lat)
    params = NlsParams(p=3, lam=1)
    times = np.linspace(0.0, 1.0, 5)
    dt, n = 1e-2, 50
    query = KernelQuery(DyadicScale.of(lat, 1.0))
    t = query.t_window

    def subjects():
        laplacian_symbol.cache_clear()
        dynamics._fft_symbol.cache_clear()
        return [laplacian_symbol(lat), kernel_sup(query, t),
                estimates._flow_space_norms(u0, times, 4.0),
                evolve_capture(u0, params, dt, [n * dt])[0].values, conserved(u0, params).energy]

    def oracles():
        strang = u0
        for _ in range(n):
            strang = strang_step(strang, params, dt)
        axis = axis_symbol(lat.h, lat.frequencies())
        return [np.add.outer(axis, axis), np.max(np.abs(kernel_as_grid(query, t).values)),
                np.array([lebesgue_norm(linear_flow(u0, s), 4.0) for s in times]),
                strang.values, energy(u0, params)]

    def far(a, b):
        return np.max(np.abs(a - b)) > 1e-2 * np.max(np.abs(b))

    ours, want = subjects(), oracles()
    for got, oracle in zip(ours, want):
        assert np.max(np.abs(got - oracle)) <= 1e-11 * np.max(np.abs(oracle))
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_axis_symbol", lambda h, k: np.asarray(k, dtype=float) ** 2)
        mutant, still = subjects(), oracles()
    laplacian_symbol.cache_clear()
    dynamics._fft_symbol.cache_clear()
    for got, moved, oracle, kept in zip(ours, mutant, want, still):
        assert np.array_equal(kept, oracle)
        assert far(moved, got) and far(moved, oracle)


def _flow_norms_per_time(u0, times, r):
    """The sweep's own ops, one time at a time: one ``ifftn`` per time, no block buffers."""
    lat = u0.lattice
    h = lat.h
    sigma_axis = (4.0 / h**2) * np.sin(h * np.fft.ifftshift(lat.frequencies()) / 2.0) ** 2
    u_hat = np.fft.fftn(np.fft.ifftshift(u0.values))
    per_time = []
    for t in times:
        factor = np.exp(-1j * (t * sigma_axis))
        spec = u_hat * factor if lat.d == 1 else u_hat * factor[:, None] * factor[None, :]
        values = np.fft.ifftn(spec)
        mag_sq = (values.real**2 + values.imag**2).ravel()
        per_time.append(mag_sq.max() if math.isinf(r) else np.sum(mag_sq ** (r / 2.0)))
    # the roots are taken over the array of all times, as the sweep takes them
    # per block: NumPy's vectorised pow may differ from its scalar pow in the last bit
    if math.isinf(r):
        return np.sqrt(np.array(per_time))
    return (lat.cell_volume * np.array(per_time)) ** (1.0 / r)


@pytest.mark.parametrize("n_times", [301, 9])
@pytest.mark.parametrize("r", [4.0, math.inf])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 16)])
def test_flow_space_norms_equal_per_time_oracle_bit_for_bit(d, M, r, n_times):
    # the blocks reuse two buffers and transform in place; the ops and their
    # order are the per-time ones, so every bit must agree
    lat = Lattice(d, M)
    chunk = estimates._BLOCK_POINTS // lat.n_points
    if n_times > chunk:
        assert n_times % chunk != 0  # a short last block
    else:
        assert n_times < chunk  # the whole run in one block
    times = np.linspace(0.0, 1.0, n_times)
    for profile in (random_low_modes(d, Draws(7)), wrapped_gaussian(d, 0.35, center=(0.7,) * d)):
        u0 = discretize(profile, lat)
        got = estimates._flow_space_norms(u0, times, r)
        assert np.array_equal(got, _flow_norms_per_time(u0, times, r))


@pytest.mark.parametrize("d", [1, 2])
def test_flow_space_norms_conserve_l2(rng, d):
    u0 = random_grid(Lattice(d, 16), rng)
    got = estimates._flow_space_norms(u0, np.linspace(0.0, 3.0, 97), 2.0)
    np.testing.assert_allclose(got, lebesgue_norm(u0, 2), rtol=1e-12, atol=0)


def test_strichartz_sweep_structure():
    pair = AdmissiblePair(8.0, 8.0)
    q = StrichartzQuery(pair, h_sweep=(math.pi / 8, math.pi / 16))
    corpus = continuum_profiles(1, seed=5, n_random=1)
    recs = strichartz_sweep(q, corpus)
    assert len(recs) == len(corpus) * 2
    assert all(r.experiment == "strichartz" for r in recs)
    assert all("profile" in r.metadata for r in recs)
    assert uniformity_factor(recs) < 3.0


def test_strichartz_rejects_inadmissible_pair_for_corpus_dimension():
    pair = AdmissiblePair(3.0, math.inf)  # admissible only for d = 2
    q = StrichartzQuery(pair, h_sweep=(math.pi / 8,))
    with pytest.raises(ValueError, match=r"3/q \+ d/r = d/2"):
        strichartz_sweep(q, continuum_profiles(1, seed=0, n_random=1))
