"""Time integration: splitting, RK4, Picard iteration, reference solver.

Key oracles: the lattice plane wave A e^{i(k0.x - omega t)} with
omega = sigma(k0) + lam |A|^{p-1} solves the discrete equation exactly, the
linear flow is the diagonal phase e^{-it sigma}, and mass is preserved to
machine precision by construction of the splitting.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnls import dynamics
from lnls.continuum import plane_wave, wrapped_gaussian
from lnls.corpus import random_grid
from lnls.dynamics import (
    EvolutionConfig,
    INTEGRATORS,
    IntegrationDivergedError,
    NlsParams,
    Trajectory,
    conserved,
    evolve,
    evolve_capture,
    linear_flow,
    nonlinear_phase_step,
    picard_contraction_factor,
    picard_iterate,
    reference_trajectory,
    rk4_stability_dt,
    step_rk4,
)
from lnls.lattice import (
    GridFunction,
    Lattice,
    NumericalAccuracyError,
    lebesgue_norm,
)
from lnls.spectral import laplacian_symbol

TWO_PI = 2.0 * math.pi


def _plane_wave_grid(lat: Lattice, k0, amplitude=1.0) -> GridFunction:
    if lat.d == 1:
        x = lat.axis_coords()
        return GridFunction(lat, amplitude * np.exp(1j * k0[0] * x))
    xx, yy = lat.meshgrid()
    return GridFunction(lat, amplitude * np.exp(1j * (k0[0] * xx + k0[1] * yy)))


def _smooth_grid(lat: Lattice) -> GridFunction:
    x = lat.axis_coords()
    if lat.d == 1:
        vals = 0.6 * np.exp(1j * x) + 0.3 * np.exp(-2j * x) + 0.1
    else:
        xx, yy = lat.meshgrid()
        vals = 0.5 * np.exp(1j * xx) + 0.25 * np.exp(1j * (xx + yy)) + 0.1
    return GridFunction(lat, vals)


# --------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError, match="p > 1 required"):
        NlsParams(p=0.5, lam=1)
    with pytest.raises(ValueError, match="p > 1 required"):
        NlsParams(p=1.0, lam=1)
    with pytest.raises(ValueError):
        NlsParams(p=3, lam=2)
    with pytest.raises(ValueError):
        NlsParams(p=3, lam=1, coupling=-0.5)
    params = NlsParams(p=3, lam=-1, coupling=0.5)
    assert params.effective_lam == -0.5
    assert NlsParams(p=3, lam=1, coupling=0.0).effective_lam == 0.0


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_final=1.0, integrator="euler")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_final=1.0, record_stride=0)
    with pytest.raises(ValueError, match="not an integer multiple of dt"):
        EvolutionConfig(dt=0.003, t_final=0.01)
    assert EvolutionConfig(dt=0.1, t_final=0.3).n_steps == 3
    assert EvolutionConfig(dt=0.1, t_final=0.0).n_steps == 0
    assert set(INTEGRATORS) == {"strang", "rk4", "duhamel_picard"}


# --------------------------------------------------------------------------
# linear flow


def test_linear_flow_phase_oracle():
    lat = Lattice(1, 8)
    u = _plane_wave_grid(lat, (3,))
    sym = laplacian_symbol(lat)
    sigma = sym[3 + lat.M]
    t = 0.21
    got = linear_flow(u, t)
    want = np.exp(-1j * t * sigma) * u.values
    assert np.allclose(got.values, want, atol=1e-13)


def test_linear_flow_unitary_group(rng):
    lat = Lattice(2, 8)
    u = random_grid(lat, rng)
    t1, t2 = 0.3, -0.7
    assert lebesgue_norm(linear_flow(u, t1), 2) == pytest.approx(lebesgue_norm(u, 2), rel=1e-12)
    ab = linear_flow(linear_flow(u, t1), t2)
    both = linear_flow(u, t1 + t2)
    assert np.allclose(ab.values, both.values, atol=1e-12)
    assert np.allclose(linear_flow(u, 0.0).values, u.values, atol=1e-15)


# --------------------------------------------------------------------------
# nonlinear phase and splitting


def test_nonlinear_phase_step_modulus_and_phase():
    lat = Lattice(1, 4)
    c = 0.8 * np.exp(0.3j)
    u = GridFunction(lat, np.full(lat.shape, c))
    params = NlsParams(p=3, lam=1)
    dt = 0.17
    v = nonlinear_phase_step(u, params, dt)
    assert np.allclose(np.abs(v.values), abs(c), atol=1e-14)
    want = c * np.exp(-1j * dt * abs(c) ** 2)
    assert np.allclose(v.values, want, atol=1e-14)


def test_strang_tracks_nonlinear_plane_wave():
    # A e^{i(k0 x - omega t)} with omega = sigma(k0) + lam |A|^{p-1}
    lat = Lattice(1, 8)
    amp = 0.9
    k0 = 2
    params = NlsParams(p=3, lam=1)
    u = _plane_wave_grid(lat, (k0,), amp)
    sigma = laplacian_symbol(lat)[k0 + lat.M]
    omega = sigma + amp**2
    dt = 1e-2
    n = 100
    v = evolve(u, params, EvolutionConfig(dt=dt, t_final=n * dt)).states[-1]
    want = u.values * np.exp(-1j * omega * n * dt)
    assert np.max(np.abs(v.values - want)) <= 1e-12


def test_strang_mass_exact(rng):
    lat = Lattice(2, 4)
    u = random_grid(lat, rng)
    params = NlsParams(p=3.5, lam=-1)
    m0 = conserved(u, params).mass
    v = evolve(u, params, EvolutionConfig(dt=1e-2, t_final=2.0)).states[-1]
    assert conserved(v, params).mass == pytest.approx(m0, rel=1e-12)


@given(
    d=st.sampled_from([1, 2]),
    p=st.floats(1.5, 5.0),
    lam=st.sampled_from([1, -1]),
    dt=st.floats(1e-3, 5e-2),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_fused_strang_matches_explicit_composition(d, p, lam, dt, n, seed):
    # Unit sup norm: larger data turns rounding into phase errors that the
    # nonlinearity amplifies past 1e-12 in both forms alike.
    lat = Lattice(d, 8 if d == 1 else 4)
    noise = random_grid(lat, np.random.default_rng(seed)).values
    u = GridFunction(lat, noise / np.max(np.abs(noise)))
    params = NlsParams(p=p, lam=lam)
    (got,) = evolve_capture(u, params, dt, [n * dt])
    want = u
    for _ in range(n):
        want = nonlinear_phase_step(want, params, dt / 2.0)
        want = nonlinear_phase_step(linear_flow(want, dt), params, dt / 2.0)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_conserved_closed_form():
    lat = Lattice(1, 8)
    amp, k0 = 0.7, 3
    u = _plane_wave_grid(lat, (k0,), amp)
    params = NlsParams(p=3, lam=1)
    c = conserved(u, params)
    assert c.mass == pytest.approx(amp**2 * TWO_PI, rel=1e-12)
    sigma = laplacian_symbol(lat)[k0 + lat.M]
    want_e = 0.5 * sigma * amp**2 * TWO_PI + 0.25 * amp**4 * TWO_PI
    assert c.energy == pytest.approx(want_e, rel=1e-12)
    # zero coupling removes the potential term
    free = conserved(u, NlsParams(p=3, lam=1, coupling=0.0))
    assert free.energy == pytest.approx(0.5 * sigma * amp**2 * TWO_PI, rel=1e-12)


def test_energy_drift_richardson_order_two():
    lat = Lattice(1, 16)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    drifts = []
    for dt in (2e-2, 1e-2):
        traj = evolve(u, params, EvolutionConfig(dt=dt, t_final=1.0))
        e0 = traj.conserved[0].energy
        drifts.append(max(abs(c.energy - e0) for c in traj.conserved))
    ratio = drifts[0] / drifts[1]
    assert 3.2 <= ratio <= 4.8


def test_gauge_covariance():
    # u0 -> e^{i theta} u0 maps the solution to e^{i theta} u(t)
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    theta = 0.83
    params = NlsParams(p=3, lam=-1)
    config = EvolutionConfig(dt=1e-2, t_final=0.5)
    a = evolve(u, params, config).states[-1]
    b = evolve(GridFunction(lat, np.exp(1j * theta) * u.values), params, config).states[-1]
    assert np.max(np.abs(b.values - np.exp(1j * theta) * a.values)) <= 1e-11


# --------------------------------------------------------------------------
# RK4


def test_rk4_stability_dt():
    lat = Lattice(1, 8)
    assert rk4_stability_dt(lat) == pytest.approx(0.5 * lat.h**2)
    lat2 = Lattice(2, 8)
    assert rk4_stability_dt(lat2) == pytest.approx(0.25 * lat2.h**2)


def test_rk4_agrees_with_strang():
    lat = Lattice(1, 8)
    x = lat.axis_coords()
    u = GridFunction(lat, 0.2 * np.exp(1j * x) + 0.1 * np.exp(-1j * x))
    params = NlsParams(p=3, lam=1)
    dt = 2e-3
    a = u
    for _ in range(500):
        a = step_rk4(a, params, dt)
    b = evolve(u, params, EvolutionConfig(dt=dt, t_final=500 * dt)).states[-1]
    assert lebesgue_norm(a - b, 2) <= 1e-6


def test_step_rk4_matches_roll_oracle(rng):
    # the array-level stages against the np.roll form of the stencil, bit for bit
    for lat in (Lattice(1, 16), Lattice(2, 4)):
        u = GridFunction(lat, 0.3 * random_grid(lat, rng).values)
        params = NlsParams(p=2.5, lam=-1)
        dt = 0.5 * rk4_stability_dt(lat)

        def rhs(v):
            lap = np.zeros(lat.shape, dtype=np.complex128)
            for axis in range(lat.d):
                lap += np.roll(v, -1, axis=axis) + np.roll(v, 1, axis=axis) - 2.0 * v
            lap = lap / lat.h**2
            return 1j * (lap - params.effective_lam * np.abs(v) ** (params.p - 1.0) * v)

        v = u.values
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        want = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert step_rk4(u, params, dt).values.tobytes() == want.tobytes()


def test_rk4_capture_equals_step_loop():
    lat = Lattice(2, 4)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    dt = 1e-2
    got = evolve_capture(u, params, dt, [3 * dt, 7 * dt], integrator="rk4")
    want, v = [], u
    for j in range(1, 8):
        v = step_rk4(v, params, dt)
        if j in (3, 7):
            want.append(v.values)
    assert [g.values.tobytes() for g in got] == [w.tobytes() for w in want]


def test_rk4_diverges_above_stability_limit(rng):
    lat = Lattice(1, 32)
    u = random_grid(lat, rng)
    params = NlsParams(p=3, lam=1)
    dt = 50.0 * rk4_stability_dt(lat)
    with pytest.raises(IntegrationDivergedError):
        v = u
        for _ in range(200):
            v = step_rk4(v, params, dt)


# --------------------------------------------------------------------------
# evolve driver


def test_evolve_records_and_observer():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    config = EvolutionConfig(dt=1e-2, t_final=0.1, record_stride=5)
    seen = []
    traj = evolve(u, params, config, observer=lambda t, state: seen.append(t))
    # the observer sees the initial state and every step
    assert seen[0] == 0.0
    assert len(seen) == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    assert len(traj.times) == 3  # t = 0, 0.05, 0.1
    assert len(traj.states) == len(traj.times) == len(traj.conserved)


def test_evolve_rejects_incommensurate_final_time():
    lat = Lattice(1, 4)
    u = _smooth_grid(lat)
    with pytest.raises(ValueError):
        evolve(u, NlsParams(p=3, lam=1), EvolutionConfig(dt=0.3, t_final=1.0))


def test_trajectory_save_load_roundtrip(tmp_path):
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    traj = evolve(u, params, EvolutionConfig(dt=1e-2, t_final=0.05))
    traj.save(tmp_path / "run")
    back = Trajectory.load(tmp_path / "run")
    assert back.times == traj.times
    assert back.params == params
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.values, b.values)


def _tampered_run(tmp_path, edit):
    """A saved six-snapshot trajectory whose manifest ``edit`` has changed."""
    lat = Lattice(1, 8)
    run = tmp_path / "run"
    evolve(_smooth_grid(lat), NlsParams(p=3, lam=1), EvolutionConfig(dt=1e-2, t_final=0.05)).save(run)
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))
    return run


def test_trajectory_load_rejects_length_mismatch(tmp_path):
    run = _tampered_run(tmp_path, lambda m: m["times"].pop())
    with pytest.raises(ValueError, match="6 snapshots, 5 times and 6 conserved rows"):
        Trajectory.load(run)


def test_trajectory_load_rejects_snapshot_on_other_lattice(tmp_path):
    run = _tampered_run(tmp_path, lambda m: m["lattice"].update(M=16))
    with pytest.raises(ValueError, match=r"snapshot snap_000000.grid is on \(d=1, M=8\)"):
        Trajectory.load(run)


def test_evolve_capture_linear_shortcut(rng):
    lat = Lattice(1, 16)
    u = random_grid(lat, rng)
    free = NlsParams(p=3, lam=1, coupling=0.0)
    got = evolve_capture(u, free, 1e-2, [0.0, 0.13, 0.4])
    for t, g in zip([0.0, 0.13, 0.4], got):
        want = linear_flow(u, t)
        assert np.max(np.abs(g.values - want.values)) <= 1e-12


def test_evolve_capture_matches_evolve():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    (snap,) = evolve_capture(u, params, 1e-2, [0.1])
    traj = evolve(u, params, EvolutionConfig(dt=1e-2, t_final=0.1))
    assert np.max(np.abs(snap.values - traj.states[-1].values)) <= 1e-12


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_flows_leave_inputs_unchanged(integrator):
    # the in-place Strang step must work on its own array, never the caller's
    # and never a state already returned (Picard's contraction bound needs d=1)
    lat = Lattice(1, 8) if integrator == "duhamel_picard" else Lattice(2, 8)
    u = _smooth_grid(lat)
    before = u.values.copy()
    params = NlsParams(p=3, lam=1)
    times = [0.02, 0.05]
    evolve(u, params, EvolutionConfig(dt=1e-2, t_final=0.05, integrator=integrator))
    first, _ = evolve_capture(u, params, 1e-2, times, integrator=integrator)
    (alone,) = evolve_capture(u, params, 1e-2, times[:1], integrator=integrator)
    assert np.array_equal(u.values, before)
    assert np.array_equal(first.values, alone.values)


def test_split_step_works_on_its_own_array():
    # every caller hands the stepper a shifted copy today; the kernel itself
    # must still leave its argument alone
    lat = Lattice(2, 8)
    v = np.fft.ifftshift(_smooth_grid(lat).values)
    before = v.copy()
    step = dynamics._SplitStep(np.fft.ifftshift(laplacian_symbol(lat)), NlsParams(p=3, lam=1))
    assert step(v, 3, 1e-2) is not v
    assert np.array_equal(v, before)


def test_reference_trajectory_leaves_input_unchanged():
    f = wrapped_gaussian(1, 0.8)
    before = f.coeffs.copy()
    reference_trajectory(f, NlsParams(p=3, lam=1), [0.05, 0.1], resolution=64, dt=1e-2)
    assert np.array_equal(f.coeffs, before)


@pytest.mark.parametrize("span, n", [(1.49, 2), (1e-10, 1)])
def test_segment_steps_never_exceed_dt(monkeypatch, span, n):
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    dt = 1e-2
    taus = []

    def recording_rk4(v, params, tau):
        taus.append(tau)
        return step_rk4(v, params, tau)

    monkeypatch.setattr(dynamics, "step_rk4", recording_rk4)
    evolve_capture(u, NlsParams(p=3, lam=1), dt, [span * dt], integrator="rk4")
    assert taus == [pytest.approx(span * dt / n)] * n


# --------------------------------------------------------------------------
# Picard iteration


def test_picard_free_limit(rng):
    lat = Lattice(1, 8)
    u = random_grid(lat, rng)
    free = NlsParams(p=3, lam=1, coupling=0.0)
    got = picard_iterate(u, free, 0.2, n_iter=2)
    want = linear_flow(u, 0.2)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_picard_residuals_decay_geometrically():
    lat = Lattice(1, 8)
    u = GridFunction(lat, 0.2 * _smooth_grid(lat).values)
    params = NlsParams(p=3, lam=1)
    T = 0.05
    factor = picard_contraction_factor(u, params, T)
    assert factor < 1.0
    _, residuals = picard_iterate(u, params, T, n_iter=6, return_residuals=True)
    for a, b in zip(residuals, residuals[1:]):
        if a > 1e-13:
            assert b <= factor * a * 1.5
    assert residuals[-1] <= 1e-10


def test_picard_agrees_with_strang():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=-1)
    T = 0.01
    via_picard = picard_iterate(u, params, T)
    (via_strang,) = evolve_capture(u, params, T / 20, [T])
    assert lebesgue_norm(via_picard - via_strang, 2) <= 1e-7


def _picard_per_node_oracle(u0, params, T, n_nodes, n_iter):
    """Picard on the Duhamel form with one array per time node."""
    lat = u0.lattice
    axes = tuple(range(lat.d))
    sigma = np.fft.ifftshift(laplacian_symbol(lat), axes=axes)
    ds = T / (n_nodes - 1)
    nodes = np.arange(n_nodes) * ds
    u0_hat = np.fft.fftn(np.fft.ifftshift(u0.values, axes=axes), axes=axes)
    free_hats = [u0_hat * np.exp(-1j * s * sigma) for s in nodes]
    step = np.exp(-1j * ds * sigma)
    lam, p = params.effective_lam, params.p
    current = [np.fft.ifftn(fh, axes=axes) for fh in free_hats]
    residuals = []
    for _ in range(n_iter):
        nl_hats = [np.fft.fftn(np.abs(v) ** (p - 1.0) * v, axes=axes) for v in current]
        tail = 0.5 * nl_hats[0]
        new = [current[0]]
        for j in range(1, n_nodes):
            tail = step * tail + nl_hats[j]
            acc = tail - 0.5 * nl_hats[j]
            new.append(np.fft.ifftn(free_hats[j] - 1j * lam * ds * acc, axes=axes))
        residuals.append(max(
            math.sqrt(lat.cell_volume * float(np.sum(np.abs(a - b) ** 2)))
            for a, b in zip(new, current)
        ))
        current = new
    return np.fft.fftshift(current[-1], axes=axes), residuals


@pytest.mark.parametrize("d, m, p", [(1, 16, 3), (1, 32, 2.5), (2, 8, 3), (2, 16, 2.5)])
def test_picard_matches_per_node_oracle(rng, d, m, p):
    lat = Lattice(d, m)
    u = GridFunction(lat, 0.3 * random_grid(lat, rng).values)
    params = NlsParams(p=p, lam=-1)
    T = 0.5 / picard_contraction_factor(u, params, 1.0)
    got, residuals = picard_iterate(u, params, T, n_nodes=8, n_iter=6, return_residuals=True)
    want, want_residuals = _picard_per_node_oracle(u, params, T, 8, 6)
    assert got.values.tobytes() == want.tobytes()
    assert residuals == want_residuals


def test_picard_precondition_violation_names_admissible_horizon():
    lat = Lattice(1, 8)
    u = GridFunction(lat, 10.0 * _smooth_grid(lat).values)
    params = NlsParams(p=3, lam=1)
    assert picard_contraction_factor(u, params, 5.0) >= 1.0
    with pytest.raises(ValueError, match="admissible T"):
        picard_iterate(u, params, 5.0)


def test_contraction_factor_formula():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    T = 0.3
    norm = lebesgue_norm(u, 2)
    want = 3.0 * 1.0 * T * lat.h ** (-0.5 * (3 - 1) * 1) * (2 * norm) ** (3 - 1)
    assert picard_contraction_factor(u, params, T) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# warnings and reference solver


def test_focusing_high_power_2d_warns():
    lat = Lattice(2, 4)
    u = _smooth_grid(lat)
    config = EvolutionConfig(dt=1e-2, t_final=0.02)
    with pytest.warns(UserWarning):
        evolve(u, NlsParams(p=3, lam=-1), config)


def test_reference_reproduces_initial_data():
    f = wrapped_gaussian(1, 0.8)
    ref = reference_trajectory(f, NlsParams(p=3, lam=1), [0.0], resolution=128)[0.0]
    assert ref.l2_distance(f) <= 1e-12
    assert ref.self_distance <= 1e-12


def test_reference_free_flow_is_exact():
    f = wrapped_gaussian(1, 0.7)
    t = 0.4
    ref = reference_trajectory(f, NlsParams(p=3, lam=1, coupling=0.0), [t], resolution=128)[t]
    want = f.free_evolved(t)
    assert ref.l2_distance(want) <= 1e-12


def test_reference_tracks_nonlinear_plane_wave():
    # continuum oracle: A e^{i(k0 x - omega t)} with omega = |k0|^2 + lam |A|^{p-1}
    amp, k0 = 0.8, 1
    f = plane_wave(1, (k0,), amp)
    params = NlsParams(p=3, lam=1)
    t = 0.5
    ref = reference_trajectory(f, params, [t], resolution=128, dt=5e-4)[t]
    omega = k0**2 + amp**2
    want = f.scaled(np.exp(-1j * omega * t))
    assert ref.l2_distance(want) <= 1e-10
    assert ref.self_distance <= 1e-10


def test_reference_trajectory_validation():
    f = wrapped_gaussian(1, 0.8)
    params = NlsParams(p=3, lam=1)
    with pytest.raises(ValueError):
        reference_trajectory(f, params, [0.1], resolution=100)  # not a power of two
    g = wrapped_gaussian(2, 0.8)
    with pytest.raises(ValueError):
        reference_trajectory(g, params, [0.1], resolution=128)  # 2-d needs >= 256


def test_reference_self_check_failure_raises():
    f = wrapped_gaussian(1, 0.8)
    params = NlsParams(p=3, lam=1)
    with pytest.raises(NumericalAccuracyError, match="self-convergence"):
        reference_trajectory(f, params, [0.5], resolution=64, dt=0.1, tol=1e-14)
