"""Convergence studies, rate fits, error decomposition, growth experiments."""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lnls.continuum import TrigPolynomial, plane_wave, wrapped_gaussian
from lnls.corpus import random_grid
from lnls.dynamics import EvolutionConfig, NlsParams, evolve, evolve_capture, reference_trajectory
from lnls.harness import (
    DEFAULT_H_LIST,
    DEFAULT_TIMES,
    REFERENCE_MARGIN,
    ConvergenceStudy,
    boundedness_sweep,
    conservation_drift,
    decompose_error,
    default_q_star,
    _nonlinearity_exchange,
    fit_rate,
    run_convergence,
    sup_norm_growth_study,
)
from lnls.lattice import GridFunction, Lattice, continuum_l2_error, discretize
from lnls.records import uniformity_factor, write_csv

from interpolant_oracle import cell_rule_sum, gauss_legendre_rule, interpolant_at, midpoint_rule


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
    with pytest.raises(ValueError):
        _study(times=(0.5, 0.25))
    with pytest.raises(ValueError):
        _study(dt=-1e-3)
    with pytest.raises(ValueError, match="integrator must be one of"):
        _study(integrator="bogus")


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
# error decomposition


def test_decompose_error_collapses_at_t0():
    study = _study()
    dec = decompose_error(study, math.pi / 16, 0.0)
    assert dec.i2 == dec.i3 == dec.i4 == 0.0
    assert dec.nl_intensity == 0.0
    lat = Lattice(1, 16)
    u = discretize(study.u0, lat)
    direct = continuum_l2_error(u, study.u0)
    assert dec.i1 == pytest.approx(direct, rel=1e-2)


def test_decompose_error_components_finite():
    study = _study()
    dec = decompose_error(study, math.pi / 16, 0.25)
    for part in (dec.i1, dec.i2, dec.i3, dec.i4):
        assert part >= 0.0 and math.isfinite(part)
    assert dec.nl_intensity > 0.0
    assert dec.h == math.pi / 16
    assert dec.t == 0.25


def test_decompose_error_i3_integrates_the_exchange_term():
    study = _study()
    h, t = math.pi / 16, 0.25
    nodes = np.linspace(0.0, t, 5)
    u0_h = discretize(study.u0, Lattice.from_spacing(1, h))
    states = evolve_capture(u0_h, study.params, study.dt, list(nodes), study.integrator)
    want = np.trapezoid([_nonlinearity_exchange(s, study.params.p) for s in states], nodes)
    assert decompose_error(study, h, t).i3 == want


def _exchange_by_rule(u: GridFunction, p: float, tau: np.ndarray, w: np.ndarray) -> float:
    """``|p_h N(u) - N(p_h u)|_{L^2}`` by the per-cell tensor rule with offsets ``tau``, weights ``w``."""
    lat = u.lattice
    z = interpolant_at(u, tau)
    interp_nl = interpolant_at(GridFunction(lat, np.abs(u.values) ** (p - 1.0) * u.values), tau)
    gap = interp_nl - np.abs(z) ** (p - 1.0) * z
    return math.sqrt(cell_rule_sum(np.abs(gap) ** 2, w, lat.n_per_axis))


@pytest.mark.parametrize("d, M", [(1, 8), (2, 4)])
def test_nonlinearity_exchange_is_exact_for_the_cubic(rng, d, M):
    u = random_grid(Lattice(d, M), rng)
    h = u.lattice.h
    exact = _nonlinearity_exchange(u, 3.0)
    # the cubic's integrand has per-axis degree 6, within reach of 4 nodes
    assert _exchange_by_rule(u, 3.0, *gauss_legendre_rule(h, 4)) == pytest.approx(exact, rel=1e-13)
    # the midpoint rule approaches it at O(oversample^-2), 16x closer per 4x
    # refinement; in d=1 the gap vanishes at both cell ends, which makes it O(oversample^-4)
    gaps = [abs(_exchange_by_rule(u, 3.0, *midpoint_rule(h, os_)) - exact) for os_ in (16, 64)]
    assert gaps[0] >= 12.0 * gaps[1], gaps
    assert gaps[1] <= 1e-3 * exact


# --------------------------------------------------------------------------
# operator boundedness and growth


def test_boundedness_sweep_ratios_are_uniform():
    profiles = [wrapped_gaussian(1, 0.8), plane_wave(1, (2,), 0.5)]
    recs = boundedness_sweep(profiles, (math.pi / 8, math.pi / 16, math.pi / 32))
    assert len(recs) == 2 * 2 * 3
    names = {r.experiment for r in recs}
    assert names == {"discretize_bound", "interpolate_bound"}
    assert uniformity_factor(recs) < 3.0
    for r in recs:
        assert 0.0 < r.ratio <= 1.5


def test_boundedness_skips_zero_profile():
    zero = plane_wave(1, (1,), 0.0)
    recs = boundedness_sweep([zero], (math.pi / 8,))
    assert all(r.metadata.get("skipped") for r in recs)


def test_sup_norm_growth_ratios_uniform():
    recs = sup_norm_growth_study(
        wrapped_gaussian(1, 0.8), NlsParams(p=3, lam=1),
        h_list=(math.pi / 8, math.pi / 16, math.pi / 32), t_final=2.0, dt=5e-3)
    assert len(recs) == 3
    assert all(r.experiment == "sup_norm_growth" for r in recs)
    assert uniformity_factor(recs) < 1.5
    assert all(r.q == 3.0 for r in recs)


def test_sup_norm_growth_rejects_weak_exponent():
    with pytest.raises(ValueError):
        sup_norm_growth_study(
            wrapped_gaussian(1, 0.8), NlsParams(p=4, lam=1),
            h_list=(math.pi / 8, math.pi / 16, math.pi / 32),
            t_final=1.0, q_star=2.5)  # q* <= p - 1


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
