"""Time integration: splitting, RK4, Picard iteration, reference solver.

Key oracles: the lattice plane wave A e^{i(k0.x - omega t)} with
omega = sigma(k0) + lam |A|^{p-1} solves the discrete equation exactly, the
linear flow is the exponential of the stencil matrix (``flow_oracle``), and
mass is preserved to machine precision by construction of the splitting.
"""
from __future__ import annotations

import decimal
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnls import dynamics
from lnls.continuum import plane_wave, random_low_modes, wrapped_gaussian
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
    recorded_steps,
    reference_trajectory,
    rk4_stability_dt,
    write_trajectory,
)
from lnls.lattice import (
    GridFunction,
    Lattice,
    NumericalAccuracyError,
    lebesgue_norm,
)
from lnls.spectral import Multiplier, apply_multiplier, forward, laplacian_symbol

from collocation_oracle import collocation_states
from continuum_oracle import l2_distance
from flow_oracle import linear_flow, nonlinear_phase_step, strang_step
from kernel_oracle import axis_symbol
from rk4_oracle import rk4_step

TWO_PI = 2.0 * math.pi
_SRC = Path(__file__).resolve().parent.parent / "src"


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


def _states(u, params, dt, times, integrator):
    """The states of ``integrator`` at ``times``, through the segment driver of every lattice run."""
    return list(dynamics._lattice_states(u, params, times, dt, integrator))


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite p > 1 required"):
            NlsParams(p=bad, lam=1)
        with pytest.raises(ValueError, match="coupling must be finite"):
            NlsParams(p=3, lam=1, coupling=bad)
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
    for dt, t_final in [(math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan),
                        (1e-310, 1e300)]:
        with pytest.raises(ValueError, match="finite|overflows"):
            EvolutionConfig(dt=dt, t_final=t_final)
    assert EvolutionConfig(dt=0.1, t_final=0.3).n_steps == 3
    assert EvolutionConfig(dt=0.1, t_final=0.0).n_steps == 0
    assert EvolutionConfig(dt=1e-9, t_final=2e-9).n_steps == 2
    assert set(INTEGRATORS) == {"strang", "rk4", "duhamel_picard"}


@pytest.mark.parametrize("dt, t_final", [(1e-9, 1.5e-9), (1.0, 1e-10)],
                         ids=["half-a-step-past-one", "below-one-step"])
def test_evolution_config_counts_the_slack_in_steps(dt, t_final):
    # an absolute slack of 1e-9 took 1.5 steps of 1e-9 for 2, and 1e-10 of a
    # step for a run of none: a run reaches t_final in n >= 1 whole steps
    with pytest.raises(ValueError, match=f"not an integer multiple of dt={dt}"):
        EvolutionConfig(dt=dt, t_final=t_final)


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
    for t in (t1, t2, t1 + t2):
        # the Fourier multiplier exp(-i t sigma_h) is the exponential of the stencil
        via_symbol = apply_multiplier(u, Multiplier(lat, np.exp(-1j * t * laplacian_symbol(lat))))
        assert np.max(np.abs(via_symbol.values - linear_flow(u, t).values)) <= 1e-13


# --------------------------------------------------------------------------
# nonlinear phase and splitting


def test_nonlinear_phase_step_modulus_and_phase():
    lat = Lattice(1, 4)
    c = 0.8 * np.exp(0.3j)
    u = GridFunction(lat, np.full(lat.shape, c))
    params = NlsParams(p=3, lam=1)
    dt = 0.17
    v = dynamics._rotate(u.values, params, dt)
    assert np.allclose(np.abs(v), abs(c), atol=1e-14)
    want = c * np.exp(-1j * dt * abs(c) ** 2)
    assert np.allclose(v, want, atol=1e-14)
    assert np.allclose(nonlinear_phase_step(u, params, dt).values, want, atol=1e-14)


def test_strang_tracks_nonlinear_plane_wave():
    # A e^{i(k0 x - omega t)} with omega = sigma(k0) + lam |A|^{p-1}
    lat = Lattice(1, 8)
    amp = 0.9
    k0 = 2
    params = NlsParams(p=3, lam=1)
    u = _plane_wave_grid(lat, (k0,), amp)
    sigma = axis_symbol(lat.h, k0)
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
        want = strang_step(want, params, dt)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_conserved_closed_form():
    lat = Lattice(1, 8)
    amp, k0 = 0.7, 3
    u = _plane_wave_grid(lat, (k0,), amp)
    params = NlsParams(p=3, lam=1)
    c = conserved(u, params)
    assert c.mass == pytest.approx(amp**2 * TWO_PI, rel=1e-12)
    sigma = axis_symbol(lat.h, k0)
    want_e = 0.5 * sigma * amp**2 * TWO_PI + 0.25 * amp**4 * TWO_PI
    assert c.energy == pytest.approx(want_e, rel=1e-12)
    # zero coupling removes the potential term
    free = conserved(u, NlsParams(p=3, lam=1, coupling=0.0))
    assert free.energy == pytest.approx(0.5 * sigma * amp**2 * TWO_PI, rel=1e-12)


def _conserved_oracle(u: GridFunction, params: NlsParams) -> tuple[float, float]:
    # the textbook form: centred spectrum from `forward`, the symbol in its cos
    # form, norms from `lebesgue_norm`
    lat = u.lattice
    spec = forward(u).values
    sigma = functools.reduce(np.add.outer, [axis_symbol(lat.h, lat.frequencies())] * lat.d)
    kinetic = 0.5 * np.sum(sigma * np.abs(spec) ** 2) / TWO_PI**lat.d
    r = params.p + 1.0
    potential = params.effective_lam / r * lebesgue_norm(u, r) ** r
    return lebesgue_norm(u, 2) ** 2, kinetic + potential


@pytest.mark.parametrize("d, m", [(1, 4), (1, 16), (2, 4), (2, 16)])
@pytest.mark.parametrize("p", [2.5, 3.0, 5.0])
@pytest.mark.parametrize("lam", [1, -1])
def test_conserved_matches_forward_oracle_in_either_layout(rng, d, m, p, lam):
    lat = Lattice(d, m)
    u = random_grid(lat, rng)
    params = NlsParams(p=p, lam=lam)
    mass, energy = _conserved_oracle(u, params)
    got = conserved(u, params)
    assert got.mass == pytest.approx(mass, rel=1e-13)
    assert got.energy == pytest.approx(energy, rel=1e-13)
    # the array helper is layout-free: the kernel's unshifted array gives the same
    unshifted = dynamics._conserved(np.fft.ifftshift(u.values), lat, params)
    assert unshifted.mass == pytest.approx(mass, rel=1e-13)
    assert unshifted.energy == pytest.approx(energy, rel=1e-13)


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
    (a,) = _states(u, params, dt, [500 * dt], "rk4")
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
        (_, got) = _states(u, params, dt, [0.0, dt], "rk4")
        assert got.values.tobytes() == want.tobytes()


def _single_step_loop(integrator, u, params, taus):
    """The states after each segment of ``taus`` (lists of equal steps), stepped one step at a time.

    RK4 and Picard loop over single calls of their private steppers: a fresh
    ``_Rk4Step`` per step on the centred values, and one ``_PicardStep.solve``
    per step on the unshifted values.  Strang's single step does not have the
    fused bits of a segment, so its oracle is one call of the kernel per
    segment on the unshifted values.
    """
    lat, out = u.lattice, []
    if integrator == "strang":
        step = dynamics._SplitStep(np.fft.ifftshift(laplacian_symbol(lat)), params)
        v = np.fft.ifftshift(u.values)
        for seg in taus:
            v = step(v, len(seg), seg[0])
            out.append(np.fft.fftshift(v))
        return out
    v = u.values
    for seg in taus:
        for tau in seg:
            if integrator == "rk4":
                v = dynamics._Rk4Step(lat, params)(v, 1, tau)
            else:
                picard = dynamics._PicardStep(lat, params, dynamics.PICARD_NODES)
                last, _ = picard.solve(np.fft.ifftshift(v), tau, dynamics.PICARD_ITERATIONS)
                v = np.fft.fftshift(last)
        out.append(v)
    return out


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_capture_equals_single_step_loop_bit_for_bit(integrator, d):
    # the second span, 2.5 dt, is not a whole number of steps: 3 steps of 2.5 dt / 3;
    # a dyadic dt makes every span exact, so the oracle's steps are those of the driver.
    # At Picard factor 0.7 the last iteration still moves the bits in d=1.
    lat = Lattice(d, 16 if d == 1 else 8)
    params = NlsParams(p=3, lam=1)
    dt = 2.0**-8
    u = _smooth_grid(lat)
    factor = dynamics._contraction_factor(lat, lebesgue_norm(u, 2), params, dt)
    u = GridFunction(lat, math.sqrt(0.7 / factor) * u.values)
    times = [0.0, 3 * dt, 5.5 * dt, 7.5 * dt]
    if integrator == "strang":
        got = evolve_capture(u, params, dt, times)
    else:
        got = _states(u, params, dt, times, integrator)
    taus = [[dt] * 3, [2.5 * dt / 3] * 3, [dt] * 2]
    want = [u.values] + _single_step_loop(integrator, u, params, taus)
    assert [g.values.tobytes() for g in got] == [w.tobytes() for w in want]


def test_rk4_diverges_above_stability_limit(rng):
    lat = Lattice(1, 32)
    u = random_grid(lat, rng)
    params = NlsParams(p=3, lam=1)
    dt = 50.0 * rk4_stability_dt(lat)
    with pytest.raises(IntegrationDivergedError):
        _states(u, params, dt, [200 * dt], "rk4")


# --------------------------------------------------------------------------
# evolve driver


def test_evolve_records():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    config = EvolutionConfig(dt=1e-2, t_final=0.1, record_stride=5)
    traj = evolve(u, params, config)
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
    config = EvolutionConfig(dt=1e-2, t_final=0.05)
    traj = evolve(u, params, config)
    write_trajectory(tmp_path / "run", lat, params, config,
                     zip(traj.times, traj.states, traj.conserved))
    back = Trajectory.load(tmp_path / "run")
    assert back.times == traj.times
    assert back.params == params
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.values, b.values)


def test_trajectory_load_gives_back_params_and_config(tmp_path):
    params = NlsParams(p=2.5, lam=-1, coupling=0.5)
    config = EvolutionConfig(dt=1e-2, t_final=0.04, integrator="rk4", record_stride=3)
    lat = Lattice(1, 8)
    write_trajectory(tmp_path / "run", lat, params, config,
                     recorded_steps(_smooth_grid(lat), params, config))
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["params"] == {"p": 2.5, "lam": -1, "coupling": 0.5}
    assert manifest["config"] == {"dt": 1e-2, "t_final": 0.04, "integrator": "rk4",
                                  "record_stride": 3}
    back = Trajectory.load(tmp_path / "run")
    assert (back.params, back.config) == (params, config)


def _tampered_run(tmp_path, edit):
    """A saved six-snapshot trajectory whose manifest ``edit`` has changed."""
    lat = Lattice(1, 8)
    run = tmp_path / "run"
    params, config = NlsParams(p=3, lam=1), EvolutionConfig(dt=1e-2, t_final=0.05)
    write_trajectory(run, lat, params, config, recorded_steps(_smooth_grid(lat), params, config))
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))
    return run


def test_trajectory_load_defaults_a_missing_coupling_to_one(tmp_path):
    run = _tampered_run(tmp_path, lambda m: m["params"].pop("coupling"))
    assert Trajectory.load(run).params == NlsParams(p=3, lam=1, coupling=1.0)


def test_trajectory_load_rejects_length_mismatch(tmp_path):
    run = _tampered_run(tmp_path, lambda m: m["times"].pop())
    with pytest.raises(ValueError, match="6 snapshots, 5 times and 6 conserved rows"):
        Trajectory.load(run)


def test_trajectory_load_rejects_snapshot_on_other_lattice(tmp_path):
    run = _tampered_run(tmp_path, lambda m: m["lattice"].update(M=16))
    with pytest.raises(ValueError, match=r"snapshot snap_000000.grid is on \(d=1, M=8\)"):
        Trajectory.load(run)


@pytest.mark.parametrize("table, edit, message", [
    ("params", lambda m: m["params"].update(extra=1), "manifest params has unknown key 'extra'"),
    ("config", lambda m: m["config"].update(stride=2), "manifest config has unknown key 'stride'"),
    ("config", lambda m: m["config"].pop("dt"), "manifest config lacks the key 'dt'"),
    ("lattice", lambda m: m["lattice"].update(h=0.1), "manifest lattice has unknown key 'h'"),
])
def test_trajectory_load_names_a_bad_manifest_key(tmp_path, table, edit, message):
    run = _tampered_run(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        Trajectory.load(run)


@pytest.mark.parametrize("edit, message", [
    *[(lambda m, key=key: m.pop(key), f"manifest lacks the key '{key}'")
      for key in ("lattice", "params", "config", "times", "snapshots", "conserved")],
    (lambda m: m["lattice"].pop("M"), "manifest lattice lacks the key 'M'"),
    (lambda m: m["conserved"][2].pop("mass"), "manifest conserved row 2 lacks the key 'mass'"),
    (lambda m: m["conserved"][0].pop("energy"), "manifest conserved row 0 lacks the key 'energy'"),
], ids=["lattice", "params", "config", "times", "snapshots", "conserved", "lattice-M",
        "row-mass", "row-energy"])
def test_trajectory_load_names_a_missing_manifest_key(tmp_path, edit, message):
    run = _tampered_run(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
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
    first, _ = _states(u, params, 1e-2, times, integrator)
    (alone,) = _states(u, params, 1e-2, times[:1], integrator)
    assert np.array_equal(u.values, before)
    assert np.array_equal(first.values, alone.values)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_evolve_steps_with_the_configured_integrator(integrator):
    # the config is the one place that chooses the integrator: every recorded
    # state has the bits of that integrator's segment driver, and no other's
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    config = EvolutionConfig(dt=1e-2, t_final=0.05, integrator=integrator, record_stride=2)
    traj = evolve(u, params, config)
    want = _states(u, params, 1e-2, traj.times, integrator)
    assert [s.values.tobytes() for s in traj.states] == [w.values.tobytes() for w in want]
    for other in INTEGRATORS:
        if other != integrator:
            (last,) = _states(u, params, 1e-2, traj.times[-1:], other)
            assert last.values.tobytes() != traj.states[-1].values.tobytes()


@pytest.mark.parametrize("d, p, lam", [(1, 3.0, 1), (1, 2.5, -1), (2, 3.0, -1), (2, 4.5, 1)])
def test_boundary_rotation_reuse_matches_explicit_composition(d, p, lam):
    # one segment per step: every step opens with the factor that closed the last
    lat = Lattice(d, 8 if d == 1 else 4)
    noise = random_grid(lat, np.random.default_rng(7)).values
    u = GridFunction(lat, noise / np.max(np.abs(noise)))
    params = NlsParams(p=p, lam=lam)
    dt, n = 2e-2, 25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        steps = evolve_capture(u, params, dt, [j * dt for j in range(1, n + 1)])
        (fused,) = evolve_capture(u, params, dt, [n * dt])
    want = u
    for got in steps:
        want = strang_step(want, params, dt)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert np.max(np.abs(steps[-1].values - fused.values)) <= 1e-12


def test_boundary_rotation_follows_changes_of_step_size():
    # segments alternate between whole steps and shorter spans; a kept factor
    # belongs to its own step size and must not open a segment of another
    lat = Lattice(1, 8)
    noise = random_grid(lat, np.random.default_rng(3)).values
    u = GridFunction(lat, noise / np.max(np.abs(noise)))
    params = NlsParams(p=3, lam=1)
    dt = 2e-2
    taus = [dt] * 4 + [0.5 * dt] * 3 + [dt] * 4 + [0.3 * dt, dt, dt]
    times = list(np.cumsum(taus))
    want, current = u, 0.0
    for got, t in zip(evolve_capture(u, params, dt, times), times):
        tau = t - current if abs((t - current) / dt - 1.0) > 1e-9 else dt
        current = t
        want = strang_step(want, params, tau)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_split_step_reopens_only_its_own_returned_array():
    # a returned state is never written again, and a foreign array of another
    # modulus is opened with its own rotation, not the kept factor
    lat = Lattice(2, 8)
    sym = np.fft.ifftshift(laplacian_symbol(lat))
    params = NlsParams(p=3, lam=1)
    v = np.fft.ifftshift(_smooth_grid(lat).values)
    step = dynamics._SplitStep(sym, params)
    first = step(v, 2, 1e-2)
    kept = first.copy()
    second = step(first, 2, 1e-2)
    assert second is not first and np.array_equal(first, kept)
    other = 2.0 * v
    fresh = dynamics._SplitStep(sym, params)(other, 2, 1e-2)
    assert np.array_equal(step(other, 2, 1e-2), fresh)


def test_split_step_without_kept_factor_gives_the_same_bits():
    # the reference solver keeps no closing factor between calls; its steps are
    # the same, and a segment boundary rotates afresh
    lat = Lattice(2, 8)
    sym = np.fft.ifftshift(laplacian_symbol(lat))
    params = NlsParams(p=3, lam=1)
    v = np.fft.ifftshift(_smooth_grid(lat).values)
    step = dynamics._SplitStep(sym, params, keep_closing=False)
    first = step(v, 2, 1e-2)
    assert step._closing is None
    assert np.array_equal(first, dynamics._SplitStep(sym, params)(v, 2, 1e-2))
    second = step(first, 2, 1e-2)
    assert np.max(np.abs(second - dynamics._SplitStep(sym, params)(v, 4, 1e-2))) <= 1e-13


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


BAD_STEPS_AND_TIMES = [
    pytest.param(-0.01, [0.1], "dt", id="dt-negative"),
    pytest.param(0.0, [0.1], "dt", id="dt-zero"),
    pytest.param(math.inf, [0.1], "dt", id="dt-inf"),
    pytest.param(math.nan, [0.1], "dt", id="dt-nan"),
    pytest.param(0.01, [math.nan], "times", id="times-nan"),
    pytest.param(0.01, [0.0, math.inf], "times", id="times-inf"),
]


@pytest.mark.parametrize("dt, times, field", BAD_STEPS_AND_TIMES)
def test_evolve_capture_rejects_bad_step_or_times(dt, times, field):
    u = _smooth_grid(Lattice(1, 8))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        evolve_capture(u, NlsParams(p=3, lam=1), dt, times)


def test_only_the_evolution_config_chooses_an_integrator():
    assert INTEGRATORS == tuple(dynamics._STEPPERS) == ("strang", "rk4", "duhamel_picard")
    message = "integrator must be one of ('strang', 'rk4', 'duhamel_picard'), got 'bogus'"
    with pytest.raises(ValueError, match=re.escape(message)):
        EvolutionConfig(dt=0.01, t_final=0.1, integrator="bogus")
    with pytest.raises(TypeError, match="integrator"):
        evolve_capture(_smooth_grid(Lattice(1, 8)), NlsParams(p=3, lam=1), 0.01, [0.1],
                       integrator="rk4")


@pytest.mark.parametrize("dt, times, field", BAD_STEPS_AND_TIMES)
def test_reference_trajectory_rejects_bad_step_or_times(dt, times, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        reference_trajectory(wrapped_gaussian(1, 0.8), NlsParams(p=3, lam=1), times,
                             resolution=64, dt=dt)


@pytest.mark.parametrize("span, n", [(1.49, 2), (1e-10, 1)])
def test_segment_steps_never_exceed_dt(monkeypatch, span, n):
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    dt = 1e-2
    taus = []

    step = dynamics._Rk4Step._step

    def recording_rk4(self, v, tau, before):
        taus.append(tau)
        return step(self, v, tau, before)

    monkeypatch.setattr(dynamics._Rk4Step, "_step", recording_rk4)
    _states(u, NlsParams(p=3, lam=1), dt, [span * dt], "rk4")
    assert taus == [pytest.approx(span * dt / n)] * n


def test_late_step_times_are_whole_steps():
    # j dt carries a rounding error of order j eps dt; at j = 5e7 it exceeds 1e-9 dt,
    # and a stream read at every step time must still take single steps of dt
    taus = []

    def advance(v, n, tau):
        taus.append((n, tau))
        return v

    dt, start = 1e-3, 50_000_000
    for _ in dynamics._drive(advance, None, (j * dt for j in range(start, start + 2000)), dt):
        pass
    assert taus[1:] == [(1, dt)] * 1999


# --------------------------------------------------------------------------
# Picard iteration


def test_picard_free_limit(rng):
    lat = Lattice(1, 8)
    u = random_grid(lat, rng)
    free = NlsParams(p=3, lam=1, coupling=0.0)
    got, _ = dynamics._PicardStep(lat, free, 64).solve(np.fft.ifftshift(u.values), 0.2, 2)
    want = linear_flow(u, 0.2)
    assert np.max(np.abs(np.fft.fftshift(got) - want.values)) <= 1e-12


def test_picard_residuals_decay_geometrically():
    lat = Lattice(1, 8)
    u = GridFunction(lat, 0.2 * _smooth_grid(lat).values)
    params = NlsParams(p=3, lam=1)
    T = 0.05
    factor = dynamics._contraction_factor(lat, lebesgue_norm(u, 2), params, T)
    assert factor < 1.0
    _, residuals = dynamics._PicardStep(lat, params, 64).solve(np.fft.ifftshift(u.values), T, 6)
    for a, b in zip(residuals, residuals[1:]):
        if a > 1e-13:
            assert b <= factor * a * 1.5
    assert residuals[-1] <= 1e-10


def test_picard_agrees_with_strang():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=-1)
    T = 0.01
    last, _ = dynamics._PicardStep(lat, params, 64).solve(np.fft.ifftshift(u.values), T, 8)
    via_picard = GridFunction(lat, np.fft.fftshift(last))
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
    T = 0.5 / dynamics._contraction_factor(lat, lebesgue_norm(u, 2), params, 1.0)
    got, residuals = dynamics._PicardStep(lat, params, 8).solve(np.fft.ifftshift(u.values), T, 6)
    want, want_residuals = _picard_per_node_oracle(u, params, T, 8, 6)
    assert np.fft.fftshift(got).tobytes() == want.tobytes()
    assert residuals == want_residuals


def test_picard_precondition_violation_names_admissible_horizon():
    lat = Lattice(1, 8)
    u = GridFunction(lat, 10.0 * _smooth_grid(lat).values)
    params = NlsParams(p=3, lam=1)
    assert dynamics._contraction_factor(lat, lebesgue_norm(u, 2), params, 5.0) >= 1.0
    with pytest.raises(ValueError, match="admissible T"):
        _states(u, params, 5.0, [5.0], "duhamel_picard")


def test_contraction_factor_formula():
    lat = Lattice(1, 8)
    u = _smooth_grid(lat)
    params = NlsParams(p=3, lam=1)
    T = 0.3
    norm = lebesgue_norm(u, 2)
    want = 3.0 * 1.0 * T * lat.h ** (-0.5 * (3 - 1) * 1) * (2 * norm) ** (3 - 1)
    assert dynamics._contraction_factor(lat, norm, params, T) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# warnings and reference solver


@pytest.mark.parametrize("d, p, warns", [
    (1, 5, True), (1, 3, False), (2, 3, True),
    (1, 4.5, False), (1, 6, True), (2, 2.5, False), (2, 5, True),
])
def test_focusing_warning_at_the_mass_critical_power(d, p, warns):
    # p = 1 + 4/d is the L^2-critical power, where a focusing flow can blow up
    u = _smooth_grid(Lattice(d, 4))
    config = EvolutionConfig(dt=1e-2, t_final=0.02)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve(u, NlsParams(p=p, lam=-1), config)
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    if warns:
        assert len(messages) == 1
        assert f"p={p} >= 1 + 4/d = {1 + 4 // d} (mass-critical) in d={d}" in messages[0]
    else:
        assert messages == []


@pytest.mark.parametrize("lam, coupling, warns", [(1, 1.0, False), (-1, 0.0, False), (-1, 0.5, True)])
def test_focusing_warning_needs_a_focusing_sign_and_a_coupling(lam, coupling, warns):
    u = _smooth_grid(Lattice(1, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve_capture(u, NlsParams(p=5, lam=lam, coupling=coupling), 1e-2, [0.02])
    assert len([w for w in caught if issubclass(w.category, UserWarning)]) == (1 if warns else 0)


@pytest.mark.parametrize("run", [
    pytest.param(lambda u, params: evolve(u, params, EvolutionConfig(dt=1e-2, t_final=0.02)),
                 id="evolve"),
    pytest.param(lambda u, params: evolve_capture(u, params, 1e-2, [0.02]), id="evolve_capture"),
])
def test_focusing_warning_points_at_the_caller(run):
    u = _smooth_grid(Lattice(1, 4))
    with pytest.warns(UserWarning, match="mass-critical") as caught:
        run(u, NlsParams(p=5, lam=-1))
    assert [Path(w.filename).name for w in caught] == [Path(__file__).name]


def test_reference_reproduces_initial_data():
    f = wrapped_gaussian(1, 0.8)
    states, certificates = reference_trajectory(f, NlsParams(p=3, lam=1), [0.0], resolution=128)
    ref = states[0.0]
    assert l2_distance(ref, f) <= 1e-12
    assert certificates[0.0].bound <= 1e-12


def test_reference_free_flow_is_exact():
    f = wrapped_gaussian(1, 0.7)
    t = 0.4
    ref = reference_trajectory(f, NlsParams(p=3, lam=1, coupling=0.0), [t], resolution=128)[0][t]
    want = f.free_evolved(t)
    assert l2_distance(ref, want) <= 1e-12


def test_reference_tracks_nonlinear_plane_wave():
    # continuum oracle: A e^{i(k0 x - omega t)} with omega = |k0|^2 + lam |A|^{p-1}
    amp, k0 = 0.8, 1
    f = plane_wave(1, (k0,), amp)
    params = NlsParams(p=3, lam=1)
    t = 0.5
    states, certificates = reference_trajectory(f, params, [t], resolution=128, dt=5e-4)
    ref = states[t]
    omega = k0**2 + amp**2
    want = f.scaled(np.exp(-1j * omega * t))
    assert l2_distance(ref, want) <= 1e-10
    assert certificates[t].bound <= 1e-10


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


# The failure cases raise at the default tol (1e-4); each test also shows that
# the part of the certificate not under test stays far below it.


def test_reference_certificate_time_part_fires_on_large_dt():
    f = wrapped_gaussian(1, 0.8)
    params = NlsParams(p=3, lam=1)
    with pytest.raises(NumericalAccuracyError, match="self-convergence"):
        reference_trajectory(f, params, [0.5], resolution=64, dt=0.1)
    # the same run read at a loose tol: its tail is far below 1e-4, its time part is not
    _, certificates = reference_trajectory(f, params, [0.5], resolution=64, dt=0.1, tol=1.0)
    assert certificates[0.5].tail <= 1e-8 and certificates[0.5].time >= 1e-3


def test_reference_certificate_tail_fires_past_dealias_band():
    # a plane wave is an exact fixed point of the Strang step, so the time part
    # is rounding; a mode past the 2/3 band R/3 leaves only the tail to fire
    params = NlsParams(p=3, lam=1)
    R = 64
    _, certificates = reference_trajectory(
        plane_wave(1, (R // 4,), 0.5), params, [0.1], resolution=R, dt=1e-3)
    assert certificates[0.1].bound <= 1e-12
    with pytest.raises(NumericalAccuracyError, match="self-convergence"):
        reference_trajectory(plane_wave(1, (R // 3 + 2,), 0.5), params, [0.1], resolution=R, dt=1e-3)


@pytest.mark.parametrize("p, working", [(3, 64), (2, 128)])
def test_reference_returns_the_working_resolution_run(p, working):
    # non-odd p cannot be dealiased, so its working resolution is doubled
    f = wrapped_gaussian(1, 0.8)
    params = NlsParams(p=p, lam=1)
    times = [0.0, 0.3]
    states, certificates = reference_trajectory(f, params, times, resolution=64, dt=1e-2)
    want = collocation_states(f, params, times, working, 1e-2)
    for t, w in zip(times, want):
        assert np.array_equal(states[t].coeffs, w.coeffs)
        assert all(np.array_equal(a, b) for a, b in zip(states[t].modes, w.modes))
        assert (certificates[t].resolution, certificates[t].dt) == (working, 1e-2)
    assert certificates[0.0].time == 0.0


def test_reference_bound_covers_refined_solve():
    # step doubling at (R, dt) must bound the distance to a (2R, dt/2) solve
    f = wrapped_gaussian(1, 0.8)
    params = NlsParams(p=3, lam=1)
    times = [0.25, 0.5, 1.0]
    states, certificates = reference_trajectory(f, params, times, resolution=128, dt=2e-3)
    finer = collocation_states(f, params, times, 256, 1e-3)
    for t, fine in zip(times, finer):
        assert certificates[t].bound >= l2_distance(states[t], fine) > 0


def _full_transform_steps(v, params, n, tau):
    # the Strang steps of the collocation solver with full fftn/ifftn passes and
    # the 2/3 mask multiplied into the phase
    fine = Lattice(v.ndim, v.shape[0] // 2)
    mesh = np.meshgrid(*[fine.frequencies()] * fine.d, indexing="ij")
    ks = [np.fft.ifftshift(k) for k in mesh]
    mask = np.all([np.abs(k) <= v.shape[0] // 3 for k in ks], axis=0)
    phase = np.exp(-1j * tau * sum(k.astype(float) ** 2 for k in ks)) * mask
    v = dynamics._rotate(v, params, tau / 2.0)
    for j in range(n):
        v = np.fft.ifftn(np.fft.fftn(v) * phase)
        if j < n - 1:
            v = dynamics._rotate(v, params, tau)
    return dynamics._rotate(v, params, tau / 2.0)


@pytest.mark.parametrize("R", [256, 512])
@pytest.mark.parametrize("n", [1, 3])
def test_band_only_transforms_give_the_full_transform_bits(R, n):
    rng = np.random.default_rng(R + n)
    v = 0.5 * (rng.standard_normal((R, R)) + 1j * rng.standard_normal((R, R)))
    before = v.copy()
    params = NlsParams(p=3, lam=-1)
    step = dynamics._collocation_stepper(2, params, R)
    assert step.slabs is not None
    got = step(v, n, 1e-3)
    assert np.array_equal(v, before)
    assert np.array_equal(got, _full_transform_steps(v, params, n, 1e-3))


@pytest.mark.parametrize("d, R, dt, times", [
    (1, 64, 1e-2, [0.0, 0.1, 0.3]),
    (2, 256, 5e-3, [0.02, 0.05]),
])
def test_certificate_time_part_is_the_distance_of_the_two_runs(d, R, dt, times):
    # the lockstep distance of the value arrays is, by Parseval, the distance
    # of the dt and 2 dt runs as trig polynomials
    f = random_low_modes(d, np.random.default_rng(4), max_mode=5, n_modes=12)
    params = NlsParams(p=3, lam=1)
    _, certificates = reference_trajectory(f, params, times, resolution=R, dt=dt, tol=1.0)
    fine = collocation_states(f, params, times, R, dt)
    coarse = collocation_states(f, params, times, R, 2.0 * dt)
    for t, a, b in zip(times, fine, coarse):
        want = l2_distance(a, b)
        assert certificates[t].time == pytest.approx(want, rel=1e-10, abs=1e-300)
        assert (want > 0) == (t > 0)


def test_reference_holds_few_reference_size_grids():
    # d=2 at R=256, two times: a grid is 1 MiB; the dt and 2 dt runs advance in
    # lockstep, transform only the 2/3 band, and keep no initial coefficients
    f = wrapped_gaussian(2, 0.8)
    params = NlsParams(p=3, lam=1)
    tracemalloc.start()
    try:
        reference_trajectory(f, params, [0.0625, 0.125], resolution=256, dt=0.0025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


def test_reference_runs_in_block_sized_scratch():
    # the rotation holds no full-grid factor, the collocation no second grid and
    # the two runs one band symbol: the same reference as above peaks lower
    f = wrapped_gaussian(2, 0.8)
    params = NlsParams(p=3, lam=1)
    tracemalloc.start()
    try:
        reference_trajectory(f, params, [0.0625, 0.125], resolution=256, dt=0.0025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6


@pytest.mark.parametrize("shape", [
    (1000,), (4096,), (10000,),  # d=1: below, at and above one block; 10000 is no multiple
    (32, 64), (64, 64), (256, 256), (300, 256), (130, 100),  # d=2: the same, then ragged blocks
])
@pytest.mark.parametrize("p", [3, 2.5])
def test_blockwise_rotation_gives_the_full_grid_bits(shape, p):
    rng = np.random.default_rng(sum(shape))
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    params = NlsParams(p=p, lam=-1)
    want = np.multiply(v, dynamics._rotation(v, params, 0.37)).tobytes()
    before = v.tobytes()
    assert dynamics._rotate(v, params, 0.37).tobytes() == want
    assert v.tobytes() == before
    assert dynamics._rotate(v, params, 0.37, out=v) is v
    assert v.tobytes() == want


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_rotation_bits_do_not_depend_on_the_block(monkeypatch, block):
    rng = np.random.default_rng(block)
    v = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    params = NlsParams(p=2.5, lam=1)
    want = dynamics._rotate(v, params, 0.2).tobytes()
    monkeypatch.setattr(dynamics, "_ROTATION_BLOCK", block)
    assert dynamics._rotate(v, params, 0.2).tobytes() == want
    assert dynamics._rotate(v[0], params, 0.2).tobytes() == want[:v[0].nbytes]


def _factor_and_angle(v, lam, tau):
    # the cubic's factor and the angle it is built from, by the same IEEE operations
    params = NlsParams(p=3, lam=lam)
    theta = (np.square(v.real) + np.square(v.imag)) * (-params.effective_lam * tau)
    return dynamics._rotation(v, params, tau), theta


def _ulp(r: decimal.Decimal) -> decimal.Decimal:
    # the spacing of the binade of doubles that holds the exact value r
    f = abs(float(r))
    m, e = math.frexp(f)
    if m == 0.5 and decimal.Decimal(f) > abs(r):
        e -= 1
    return decimal.Decimal(2.0 ** max(e - 53, -1074))


def _taylor(theta: float) -> tuple[decimal.Decimal, decimal.Decimal]:
    # cos and sin to 40 digits by their Taylor series
    with decimal.localcontext(decimal.Context(prec=40)):
        t = decimal.Decimal(theta)
        cos = sin = decimal.Decimal(0)
        term, k = decimal.Decimal(1), 0
        while term:
            cos += term
            term *= t / (k + 1)
            sin += term
            term *= -t / (k + 2)
            k += 2
            if abs(term) < decimal.Decimal(10) ** -80:
                break
        return +cos, +sin


def test_rotation_series_is_within_0_52_ulp():
    # the last addition of each series rounds once, and everything before it
    # errs by under 0.02 ulp, so the bound holds with room: 0.52 ulp, not 1
    angle = dynamics._SERIES_ANGLE
    magnitudes = np.concatenate([np.linspace(0.0, angle, 1201),
                                 [5e-324, 1e-310, 1e-300, 1e-160, 1e-20, np.nextafter(angle, 0.0)]])
    ulps = decimal.Decimal("0.52")
    v = np.sqrt(magnitudes) + 0j  # |v|^2 runs over [0, angle], ending at the angle itself
    assert np.square(v.real)[1200] == angle
    for lam in (1, -1):
        for tau in (1.0, -1.0):
            factor, theta = _factor_and_angle(v, lam, tau)
            for f, t in zip(factor, theta):
                cos, sin = _taylor(float(t))
                assert abs(decimal.Decimal(f.real) - cos) <= ulps * _ulp(cos), (t, f)
                if sin == 0:
                    assert f.imag == 0.0
                else:
                    assert abs(decimal.Decimal(f.imag) - sin) <= ulps * _ulp(sin), (t, f)


def test_rotation_above_the_series_angle_takes_the_libm_bits():
    # every block mixes both kinds of point, and each point's bits depend on
    # its own angle: a series point keeps the series bits, which differ from
    # libm's at a few angles
    angle = dynamics._SERIES_ANGLE
    rng = np.random.default_rng(11)
    small = np.sqrt(rng.uniform(0.0, angle, 20000)) + 0j
    series, _ = _factor_and_angle(small, -1, 1.0)
    v = np.empty(40000, dtype=np.complex128)
    v[0::2] = small
    v[1::2] = np.sqrt(rng.uniform(angle, 1.0, 20000))
    factor, theta = _factor_and_angle(v.reshape(200, 200), -1, 1.0)
    factor, theta = factor.ravel(), theta.ravel()
    assert np.all(np.abs(theta[1::2]) > angle) and np.all(np.abs(theta[0::2]) <= angle)
    assert factor[0::2].tobytes() == series.tobytes()
    assert np.any(series != np.cos(theta[0::2]) + 1j * np.sin(theta[0::2]))
    assert factor.real[1::2].tobytes() == np.cos(theta[1::2]).tobytes()
    assert factor.imag[1::2].tobytes() == np.sin(theta[1::2]).tobytes()


def test_rotation_of_nan_and_huge_angles():
    # a NaN angle gives a NaN factor; a huge one cannot overflow the series
    v = np.array([np.nan, 1e15, 1e100, 0.1, 0.0]) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor, theta = _factor_and_angle(v, 1, -1.0)
    assert theta[1] == 1e30 and theta[2] == 1e200
    assert np.isnan(factor[0].real) and np.isnan(factor[0].imag)
    assert factor.real[1:3].tobytes() == np.cos(theta[1:3]).tobytes()
    assert factor.imag[1:3].tobytes() == np.sin(theta[1:3]).tobytes()
    assert factor[3:].tobytes() == _factor_and_angle(v[3:], 1, -1.0)[0].tobytes()


@pytest.mark.parametrize("scale", [1.0, 0.05])
def test_rotation_factor_is_unimodular(scale):
    rng = np.random.default_rng(5)
    v = scale * (rng.standard_normal(20000) + 1j * rng.standard_normal(20000))
    factor, theta = _factor_and_angle(v, 1, 0.1)
    assert np.any(np.abs(theta) <= dynamics._SERIES_ANGLE)
    assert np.max(np.abs(np.square(factor.real) + np.square(factor.imag) - 1.0)) <= 4 * np.finfo(float).eps


_FACTOR_DIGEST = """
import hashlib, json
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as umath
from lnls import dynamics
rng = np.random.default_rng(9)
v = 0.1 * (rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
assert 0.1 * np.max(np.abs(v)) ** 2 < dynamics._SERIES_ANGLE
factor = dynamics._rotation(v, dynamics.NlsParams(p=3, lam=-1), 0.1)
dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps([dispatched, hashlib.sha256(factor.tobytes()).hexdigest()]))
"""


def _factor_digest(disabled: str | None) -> tuple[list[str], str]:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", _FACTOR_DIGEST], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_rotation_factor_does_not_depend_on_the_simd_level():
    # the cubic's factor (no power, every angle below the series angle) is
    # IEEE multiplies and adds only, so NumPy's baseline loops give its bits
    dispatched, full = _factor_digest(None)
    if not dispatched:
        pytest.skip("NumPy dispatches to no CPU feature beyond its baseline here")
    remaining, baseline = _factor_digest(" ".join(dispatched))
    assert remaining == []
    assert baseline == full


def test_kept_closing_factor_gives_the_blockwise_bits():
    # the kept factor is filled block by block into one array; the state it
    # closes is the one the blockwise rotation closes, bit for bit
    R = 256
    rng = np.random.default_rng(R)
    v = 0.5 * (rng.standard_normal((R, R)) + 1j * rng.standard_normal((R, R)))
    sym = dynamics._collocation_symbol(2, R, None)
    params = NlsParams(p=3, lam=1)
    kept = dynamics._SplitStep(sym, params)
    got = kept(v, 3, 1e-3)
    want = dynamics._SplitStep(sym, params, keep_closing=False)(v, 3, 1e-3)
    assert got.tobytes() == want.tobytes()
    assert kept._closing.shape == v.shape and kept._closed is got


def test_rotation_scratch_is_block_sized():
    # the kept factor is the one full-grid array a rotation allocates
    rng = np.random.default_rng(2)
    v = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    params = NlsParams(p=3, lam=1)
    tracemalloc.start()
    try:
        dynamics._rotate(v, params, 1e-3, out=v)
        in_place = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dynamics._rotation(v, params, 1e-3)
        factor = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert in_place <= 2**19
    assert factor <= v.nbytes + 2**19


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("R", [8, 256])
def test_collocated_gives_the_shifted_transform_bits(d, R):
    rng = np.random.default_rng(R + d)
    v = rng.standard_normal((R,) * d) + 1j * rng.standard_normal((R,) * d)
    before = v.tobytes()
    got = dynamics._collocated(v, R)
    want = np.fft.fftshift(np.fft.fftn(v) * (2.0 * math.pi / R) ** d)
    assert got.coeffs.tobytes() == want.tobytes()
    assert all(np.array_equal(m, np.arange(-(R // 2), R // 2)) for m in got.modes)
    assert v.tobytes() == before


def test_lockstep_collocation_steppers_share_one_band_symbol():
    params = NlsParams(p=3, lam=1)
    a = dynamics._collocation_stepper(2, params, 256)
    b = dynamics._collocation_stepper(2, params, 256)
    assert a.symbol is b.symbol
    assert a.symbol.shape == (171, 171) and not a.symbol.flags.writeable


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [3, 2.5])
def test_rk4_stepper_keeps_the_bits_of_fresh_arrays(d, p):
    # 2500 steps through the kept buffers against fresh arrays per stage
    lat = Lattice(d, 32 if d == 1 else 8)
    params = NlsParams(p=p, lam=1)
    dt = 0.5 * rk4_stability_dt(lat)
    v0 = np.fft.ifftshift(_smooth_grid(lat).values)
    want = v0
    for _ in range(2500):
        want = rk4_step(want, lat, params, dt)
    assert dynamics._Rk4Step(lat, params)(v0, 2500, dt).tobytes() == want.tobytes()
