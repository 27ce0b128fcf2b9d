"""Convergence studies, rate fits, sup-norm growth and conservation experiments."""
from __future__ import annotations

import concurrent.futures
import inspect
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from lnls import dynamics
from lnls.continuum import TrigPolynomial, wrapped_gaussian
from lnls.estimates import AdmissiblePair, StrichartzQuery, dispersive_uniformity, strichartz_sweep
from lnls.dynamics import EvolutionConfig, NlsParams, evolve, reference_trajectory
from lnls.harness import (
    DEFAULT_H_LIST,
    DEFAULT_TIMES,
    REFERENCE_MARGIN,
    ConvergenceStudy,
    conservation_drift,
    default_q_star,
    fit_rate,
    run_convergence,
    sup_norm_growth_study,
)
from lnls.lattice import Lattice, continuum_l2_error, discretize
from lnls.records import uniformity_factor, write_csv


def _study(**overrides) -> ConvergenceStudy:
    base = dict(
        u0=wrapped_gaussian(1, 0.8),
        params=NlsParams(p=3, lam=1),
        h_list=(math.pi / 8, math.pi / 16, math.pi / 32),
        times=(0.0, 0.25),
        dt=5e-3,
        reference_resolution=128,
        reference_dt=2.5e-3,
    )
    base.update(overrides)
    return ConvergenceStudy(**base)


# --------------------------------------------------------------------------
# fits


def test_fit_rate_recovers_synthetic_slope():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    errors = 3.0 * h**1.37
    fit = fit_rate(h, errors)
    assert fit.slope == pytest.approx(1.37, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.residual <= 1e-12
    assert fit.n_points == 4


@pytest.mark.parametrize("seed", range(6))
def test_fit_rate_agrees_with_polyfit(seed):
    # closed form against LAPACK least squares: noisy random lines and exact power laws
    rng = np.random.default_rng(seed)
    h = np.sort(rng.uniform(0.01, 1.0, size=3 + seed))[::-1]
    slope, scale = rng.uniform(0.3, 2.5), rng.uniform(0.1, 10.0)
    noisy = scale * h**slope * np.exp(0.2 * rng.standard_normal(h.size))
    exact = scale * h**slope
    for errors in (noisy, exact):
        fit = fit_rate(h, errors)
        want_slope, want_intercept = np.polyfit(np.log(h), np.log(errors), 1)
        want_resid = np.sqrt(np.mean((want_slope * np.log(h) + want_intercept - np.log(errors)) ** 2))
        assert fit.slope == pytest.approx(want_slope, rel=1e-12)
        assert fit.intercept == pytest.approx(want_intercept, rel=1e-12)
        assert fit.residual == pytest.approx(want_resid, rel=1e-12, abs=1e-14)
        assert fit.n_points == h.size


def test_run_convergence_fits_call_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK least-squares fit ran")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    result = run_convergence(_study())
    assert set(result.fits) == {0.0, 0.25}
    assert 0.9 <= result.fits[0.25].slope <= 1.2


def test_fit_rate_domain_errors():
    with pytest.raises(ValueError, match="3"):
        fit_rate([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05, 0.025], [1.0, 0.0, 0.5])


# --------------------------------------------------------------------------
# study configuration


def test_study_validation():
    with pytest.raises(ValueError, match="3 spacings"):
        _study(h_list=(math.pi / 8, math.pi / 16))
    with pytest.raises(ValueError):
        _study(h_list=(math.pi / 16, math.pi / 8, math.pi / 32))  # not decreasing
    with pytest.raises(ValueError):
        _study(h_list=(math.pi / 8, math.pi / 12, math.pi / 16))  # not pi / power of two
    with pytest.raises(ValueError, match=r"^times must be sorted, distinct, finite and >= 0"):
        _study(times=(0.5, 0.25))
    assert _study(times=(0, 0.25)).times == (0.0, 0.25)
    with pytest.raises(ValueError):
        _study(dt=-1e-3)
    with pytest.raises(TypeError, match="integrator"):
        _study(integrator="strang")  # the study always steps with Strang


def test_default_sweeps():
    assert DEFAULT_H_LIST == tuple(math.pi / 2**k for k in range(3, 8))
    assert DEFAULT_TIMES == (0.0, 0.25, 0.5, 1.0)
    assert 0 < REFERENCE_MARGIN < 1


def test_default_q_star():
    assert default_q_star(2.0) == 2.0
    assert default_q_star(3.0) == 3.0
    assert default_q_star(4.5) == 4.5
    # always strictly above p - 1 so the time-average bound is meaningful
    for p in (1.5, 2.0, 3.0, 5.0):
        assert default_q_star(p) > p - 1


# --------------------------------------------------------------------------
# convergence runs


def test_run_convergence_first_order(rng):
    result = run_convergence(_study())
    for t, fit in result.fits.items():
        assert 0.9 <= fit.slope <= 1.2, t
    errors = result.errors_at(0.25)
    assert [h for h, _ in errors] == sorted([h for h, _ in errors], reverse=True)
    values = [e for _, e in errors]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert {rec.metadata["integrator"] for rec in result.records} == {"strang"}
    for t, dist in result.reference_distances.items():
        top_error = max(e for _, e in result.errors_at(t))
        assert dist <= REFERENCE_MARGIN * max(top_error, 1e-300) or t == 0.0


def test_run_convergence_t0_is_interpolation_error():
    study = _study(times=(0.0,))
    result = run_convergence(study)
    for h, err in result.errors_at(0.0):
        lat = Lattice.from_spacing(1, h)
        u = discretize(study.u0, lat)
        direct = continuum_l2_error(u, study.u0)
        assert err == pytest.approx(direct, rel=1e-10)


def test_run_convergence_is_deterministic(tmp_path):
    study = _study(times=(0.25,))
    a = run_convergence(study)
    b = run_convergence(study)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a.records, pa)
    write_csv(b.records, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_run_convergence_2d_smoke():
    study = ConvergenceStudy(
        u0=wrapped_gaussian(2, 0.9),
        params=NlsParams(p=3, lam=1),
        h_list=(math.pi / 4, math.pi / 8, math.pi / 16),
        times=(0.0, 0.1),
        dt=5e-3,
        reference_resolution=256,
        reference_dt=5e-3,
        oversample=4,
    )
    result = run_convergence(study)
    assert result.fits[0.1].slope >= 0.8


def test_linear_study_sees_a_stepper_symbol_off_by_one_plus_h(monkeypatch):
    # the linear continuum-limit study (coupling 0) steps through the Strang
    # stepper like every run, so a stepper whose symbol is sigma_h (1 + h) must
    # fail its 0.45 slope gate, while the true stepper passes it
    study = ConvergenceStudy(
        u0=wrapped_gaussian(2, 0.8),
        params=NlsParams(p=3, lam=1, coupling=0.0),
        h_list=(math.pi / 4, math.pi / 8, math.pi / 16, math.pi / 32),
        times=(0.25, 0.5, 1.0, 2.0, 4.0),
        dt=5e-3,
        reference_resolution=256,
        reference_dt=2.5e-3,
    )

    def slopes():
        return [fit.slope for fit in run_convergence(study).fits.values()]

    assert min(slopes()) >= 0.45
    monkeypatch.setitem(dynamics._STEPPERS, "strang", lambda lat, params: dynamics._SplitStep(
        dynamics._fft_symbol(lat) * (1 + lat.h), params))
    assert min(slopes()) < 0.45


def test_run_convergence_and_dispersive_uniformity_start_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    study = _study(times=(0.25,))
    assert "threads" not in inspect.signature(run_convergence).parameters
    assert len(run_convergence(study).records) == len(study.h_list)
    assert "threads" not in inspect.signature(dispersive_uniformity).parameters
    assert dispersive_uniformity(1, [math.pi / 8, math.pi / 16], t_samples=2)


def test_strichartz_and_sup_norm_sweeps_start_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    h_list = (math.pi / 8, math.pi / 16)
    query = StrichartzQuery(AdmissiblePair(8.0, 8.0), h_sweep=h_list, t_nodes=17)
    assert "threads" not in inspect.signature(strichartz_sweep).parameters
    assert len(strichartz_sweep(query, [wrapped_gaussian(1, 0.8)])) == len(h_list)
    assert "threads" not in inspect.signature(sup_norm_growth_study).parameters
    recs = sup_norm_growth_study(wrapped_gaussian(1, 0.8), NlsParams(p=3, lam=1), h_list, t_final=0.05)
    assert len(recs) == len(h_list)


def test_trig_profile_paths_form_no_dense_product(monkeypatch):
    # cell averages, the reference's initial sample and the exact error all
    # evaluate trig polynomials by FFT; the dense evaluator must not run
    def refuse(self, *coords):
        raise AssertionError("dense evaluation on a trig-polynomial path")

    monkeypatch.setattr(TrigPolynomial, "__call__", refuse)
    params = NlsParams(p=3, lam=1)
    discretize(wrapped_gaussian(2, 0.8), Lattice(2, 8))
    reference_trajectory(wrapped_gaussian(1, 0.8), params, [0.0, 0.1], resolution=64, dt=1e-2)
    result = run_convergence(ConvergenceStudy(
        u0=wrapped_gaussian(2, 0.9),
        params=params,
        h_list=(math.pi / 4, math.pi / 8, math.pi / 16),
        times=(0.0, 0.05),
        dt=5e-3,
        reference_resolution=256,
        reference_dt=5e-3,
    ))
    assert set(result.fits) == {0.0, 0.05}


# --------------------------------------------------------------------------
# sup-norm growth and conservation


def test_sup_norm_growth_ratios_uniform():
    recs = sup_norm_growth_study(
        wrapped_gaussian(1, 0.8), NlsParams(p=3, lam=1),
        h_list=(math.pi / 8, math.pi / 16, math.pi / 32), t_final=2.0, dt=5e-3)
    assert len(recs) == 3
    assert all(r.experiment == "sup_norm_growth" for r in recs)
    assert uniformity_factor(recs) < 1.5
    assert all(r.q == 3.0 for r in recs)


def test_conservation_drift_values():
    lat = Lattice(1, 16)
    u0 = discretize(wrapped_gaussian(1, 0.8), lat)
    mass_drift, energy_drift = conservation_drift(u0, NlsParams(p=3, lam=1), 1e-2, 200)
    assert mass_drift <= 1e-12
    assert 0.0 < energy_drift < 1e-3
    half = conservation_drift(u0, NlsParams(p=3, lam=1), 5e-3, 400)
    assert 3.2 <= energy_drift / half[1] <= 4.8


def _drift_oracle(u0, params, dt, n_steps):
    # the retained-trajectory form: every state recorded, maxima taken at the end
    traj = evolve(u0, params, EvolutionConfig(dt=dt, t_final=dt * n_steps))
    c0 = traj.conserved[0]
    mass = max(abs(c.mass - c0.mass) for c in traj.conserved) / c0.mass
    return mass, max(abs(c.energy - c0.energy) for c in traj.conserved)


@pytest.mark.parametrize("d, m", [(1, 16), (2, 8)])
@pytest.mark.parametrize("p", [3.0, 2.5])
@pytest.mark.parametrize("lam", [1, -1])
def test_conservation_drift_matches_trajectory_oracle(d, m, p, lam):
    u0 = discretize(wrapped_gaussian(d, 0.8), Lattice(d, m))
    params = NlsParams(p=p, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # focusing cubic in d=2
        want = _drift_oracle(u0, params, 1e-2, 120)
        got = conservation_drift(u0, params, 1e-2, 120)
    assert got[0] == pytest.approx(want[0], abs=1e-13)
    assert got[1] == pytest.approx(want[1], rel=1e-8)
    assert got[1] > 0


def test_conservation_drift_memory_does_not_grow_with_steps():
    u0 = discretize(wrapped_gaussian(2, 0.8), Lattice(2, 16))
    params = NlsParams(p=3, lam=1)
    conservation_drift(u0, params, 1e-2, 2)  # build the cached symbols first
    peaks = []
    for n in (40, 160):
        tracemalloc.start()
        try:
            conservation_drift(u0, params, 1e-2, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_conservation_drift_rejects_bad_steps():
    u0 = discretize(wrapped_gaussian(1, 0.8), Lattice(1, 8))
    for dt, n in [(0.0, 10), (math.inf, 10), (math.nan, 10), (1e-2, -1)]:
        with pytest.raises(ValueError, match="positive finite dt"):
            conservation_drift(u0, NlsParams(p=3, lam=1), dt, n)
