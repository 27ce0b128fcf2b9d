"""Discrete Fourier calculus: transform oracles, multipliers, dyadic scales.

The transform convention under test:  u_hat(k) = h^d sum_m u(x_m) e^{-ik.x_m}
with k ranging over {-M, ..., M-1}^d, inverted by (2 pi)^{-d} sum_k u_hat(k)
e^{ik.x_m}.  Every identity below is checked against direct summation or a
literal closed form.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnls import spectral
from lnls.corpus import random_grid
from lnls.lattice import (
    GridFunction,
    Lattice,
    discrete_laplacian_stencil,
    forward_difference,
    lebesgue_norm,
)
from lnls.spectral import (
    DyadicScale,
    INEQUALITY_KINDS,
    Multiplier,
    apply_multiplier,
    dyadic_scales,
    forward,
    inequality_exponent,
    inequality_records,
    inequality_sweep,
    inverse,
    laplacian_symbol,
    lp_project,
    sobolev_norm,
)

from lattice_oracle import lowpass_project

TWO_PI = 2.0 * math.pi


def _dft_direct(u: GridFunction) -> np.ndarray:
    """O(n**2) direct transform: h^d sum_m u(x_m) exp(-i k . x_m)."""
    lat = u.lattice
    k = lat.frequencies()
    x = lat.axis_coords()
    phase = np.exp(-1j * np.outer(k, x))  # (2M, 2M)
    if lat.d == 1:
        return lat.cell_volume * (phase @ u.values)
    return lat.cell_volume * (phase @ u.values @ phase.T)


# --------------------------------------------------------------------------
# transform correctness


def test_forward_matches_direct_dft(rng):
    for d in (1, 2):
        for m in (2, 4, 8, 16):
            lat = Lattice(d, m)
            u = random_grid(lat, rng)
            got = forward(u).values
            want = _dft_direct(u)
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 1e-12, (d, m, rel)


def test_inverse_roundtrip(rng):
    for d, m in ((1, 16), (2, 8)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        v = inverse(forward(u))
        assert np.allclose(v.values, u.values, atol=1e-13)
        w = forward(inverse(forward(u)))
        assert np.allclose(w.values, forward(u).values, atol=1e-13)


def test_single_mode_transform():
    # e^{i k0 x} -> (2 pi)^d at k = k0, zero elsewhere
    lat = Lattice(1, 8)
    x = lat.axis_coords()
    for k0 in (-8, -3, 0, 5, 7):
        u = GridFunction(lat, np.exp(1j * k0 * x))
        hat = forward(u).values
        idx = k0 + lat.M
        assert hat[idx] == pytest.approx(TWO_PI, rel=1e-12)
        rest = np.delete(hat, idx)
        assert np.max(np.abs(rest)) <= 1e-11


def test_single_mode_transform_2d():
    lat = Lattice(2, 4)
    xx, yy = lat.meshgrid()
    u = GridFunction(lat, np.exp(1j * (2 * xx - yy)))
    hat = forward(u).values
    assert hat[2 + lat.M, -1 + lat.M] == pytest.approx(TWO_PI**2, rel=1e-12)


def test_orthogonality_of_modes():
    # h sum_m e^{i(k-l)x_m} = 2 pi delta_{kl} for k, l in the frequency window
    lat = Lattice(1, 4)
    x = lat.axis_coords()
    for k in lat.frequencies():
        for l in lat.frequencies():
            s = lat.h * np.sum(np.exp(1j * (k - l) * x))
            want = TWO_PI if k == l else 0.0
            assert abs(s - want) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), dm=st.sampled_from([(1, 16), (2, 4)]))
def test_plancherel_identity(seed, dm):
    d, m = dm
    lat = Lattice(d, m)
    u = random_grid(lat, np.random.default_rng(seed))
    lhs = np.sum(np.abs(forward(u).values) ** 2) / TWO_PI**d
    rhs = lat.cell_volume * np.sum(np.abs(u.values) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _wrapped_freq_convolution(a: np.ndarray, b: np.ndarray, m: int, d: int) -> np.ndarray:
    """Direct frequency-domain convolution with aliasing wrap into {-M..M-1}.

    Slot s holds frequency s - M, and frequencies only matter mod 2M on the
    lattice, so the term a(j) b(k - j) lands at slot (k - j + M) mod n.
    """
    n = 2 * m
    shift = m
    out = np.zeros_like(a)
    if d == 1:
        for k in range(n):
            acc = 0.0 + 0.0j
            for j in range(n):
                acc += a[j] * b[(k - j + shift) % n]
            out[k] = acc
    else:
        for k1 in range(n):
            for k2 in range(n):
                acc = 0.0 + 0.0j
                for j1 in range(n):
                    for j2 in range(n):
                        acc += a[j1, j2] * b[(k1 - j1 + shift) % n, (k2 - j2 + shift) % n]
                out[k1, k2] = acc
    return out


def test_product_identity(rng):
    # (uv)^ = (2 pi)^{-d} u^ (*) v^ with (*) the aliased frequency convolution
    for d, m in ((1, 4), (2, 2)):
        lat = Lattice(d, m)
        u, v = random_grid(lat, rng), random_grid(lat, rng)
        prod = GridFunction(lat, u.values * v.values)
        got = forward(prod).values
        want = _wrapped_freq_convolution(forward(u).values, forward(v).values, m, d) / TWO_PI**d
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


# --------------------------------------------------------------------------
# symbols and multipliers


def test_laplacian_symbol_value():
    # sigma(k) = sum_j (4/h^2) sin^2(h k_j / 2);  at h = pi/2, k = 1:
    # (16/pi^2) sin^2(pi/4) = 8/pi^2
    lat = Lattice(1, 2)
    sym = laplacian_symbol(lat)
    k = lat.frequencies()
    idx = int(np.where(k == 1)[0][0])
    assert sym[idx] == pytest.approx(8.0 / math.pi**2, rel=1e-14)


def test_laplacian_symbol_taylor_remainder():
    # sigma(k) = k^2 - h^2 k^4 / 12 + O(h^4 k^6): remainder at k=1 within 10%
    for m in (8, 16, 32, 64):
        lat = Lattice(1, m)
        sym = laplacian_symbol(lat)
        idx = 1 + lat.M
        gap = abs(sym[idx] - 1.0)
        assert gap <= (lat.h**2 / 12.0) * 1.1
        assert gap >= (lat.h**2 / 12.0) * 0.9


def test_laplacian_symbol_band():
    # (2/pi)^2 k^2 <= sigma(k) <= k^2 over the frequency window
    for d, m in ((1, 16), (2, 8)):
        lat = Lattice(d, m)
        sym = laplacian_symbol(lat)
        if d == 1:
            ksq = lat.frequencies().astype(float) ** 2
        else:
            kx, ky = np.meshgrid(lat.frequencies(), lat.frequencies(), indexing="ij")
            ksq = kx.astype(float) ** 2 + ky.astype(float) ** 2
        assert np.all(sym <= ksq + 1e-12)
        assert np.all(sym >= (2.0 / math.pi) ** 2 * ksq - 1e-12)


def test_laplacian_symbol_is_cached_and_read_only():
    lat = Lattice(2, 4)
    sym = laplacian_symbol(lat)
    assert laplacian_symbol(Lattice(2, 4)) is sym
    with pytest.raises(ValueError):
        sym[0, 0] = 1.0
    with pytest.raises(ValueError):
        sym *= 2.0


def test_multiplier_laplacian_equals_stencil(rng):
    for d, m in ((1, 16), (2, 8)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        via_symbol = apply_multiplier(u, Multiplier(lat, -laplacian_symbol(lat)))
        via_stencil = discrete_laplacian_stencil(u)
        err = np.max(np.abs(via_symbol.values - via_stencil.values))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(via_stencil.values)))


# --------------------------------------------------------------------------
# Sobolev norms


def test_sobolev_norm_single_mode_closed_form():
    lat = Lattice(1, 8)
    x = lat.axis_coords()
    for k0 in (0, 1, 5):
        u = GridFunction(lat, np.exp(1j * k0 * x))
        for s in (0.0, 1.0, 2.5):
            want = (1.0 + k0**2) ** (s / 2.0) * math.sqrt(TWO_PI)
            assert sobolev_norm(u, s) == pytest.approx(want, rel=1e-12)


def test_sobolev_norm_s0_is_l2(rng):
    lat = Lattice(2, 8)
    u = random_grid(lat, rng)
    assert sobolev_norm(u, 0.0) == pytest.approx(lebesgue_norm(u, 2), rel=1e-12)


def test_h1_equivalence_band(rng):
    # |u|_{H^1} is equivalent to (|u|_2^2 + |D+ u|_2^2)^{1/2} with constants
    # coming from (2/pi)^2 k^2 <= sigma(k) <= k^2: ratio in [2/pi, 1]
    lo, hi = 2.0 / math.pi, 1.0
    for d, m in ((1, 16), (2, 8)):
        lat = Lattice(d, m)
        for _ in range(50):
            u = random_grid(lat, rng)
            diff_sq = lebesgue_norm(u, 2) ** 2 + sum(
                lebesgue_norm(forward_difference(u, ax), 2) ** 2 for ax in range(d))
            ratio = math.sqrt(diff_sq) / sobolev_norm(u, 1.0)
            assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_h1_equivalence_band_is_sharp():
    # constant functions meet the upper constant; the highest mode k = -M
    # pushes toward the lower constant as M grows
    lat = Lattice(1, 64)
    one = GridFunction(lat, np.ones(lat.shape))
    diff = math.sqrt(lebesgue_norm(one, 2) ** 2 + lebesgue_norm(forward_difference(one, 0), 2) ** 2)
    assert diff / sobolev_norm(one, 1.0) == pytest.approx(1.0, rel=1e-12)
    x = lat.axis_coords()
    top = GridFunction(lat, np.exp(-1j * lat.M * x))
    diff = math.sqrt(lebesgue_norm(top, 2) ** 2 + lebesgue_norm(forward_difference(top, 0), 2) ** 2)
    ratio = diff / sobolev_norm(top, 1.0)
    assert ratio == pytest.approx(2.0 / math.pi, rel=1e-3)


# --------------------------------------------------------------------------
# dyadic decomposition


def test_dyadic_scale_layout():
    lat = Lattice(1, 8)
    scales = dyadic_scales(lat)
    values = [s.value for s in scales]
    assert values[0] == 1.0 / (2 * lat.M)  # base scale h / (2 pi)
    assert values[-1] == 1.0
    assert all(b == 2 * a for a, b in zip(values, values[1:]))
    assert scales[0].is_base
    assert not scales[1].is_base
    assert scales[-1].mode_cutoff == lat.M


def test_lp_projections_sum_to_identity(rng):
    for d, m in ((1, 8), (2, 4)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        total = GridFunction.zeros(lat)
        for scale in dyadic_scales(lat):
            total = total + lp_project(u, scale)
        assert np.allclose(total.values, u.values, atol=1e-13)


def test_lp_projections_are_orthogonal_idempotent(rng):
    lat = Lattice(1, 16)
    u = random_grid(lat, rng)
    scales = dyadic_scales(lat)
    parts = [lp_project(u, s) for s in scales]
    for i, a in enumerate(parts):
        twice = lp_project(a, scales[i])
        assert np.allclose(twice.values, a.values, atol=1e-13)
        for j, b in enumerate(parts):
            if i != j:
                dot = lat.cell_volume * np.vdot(a.values, b.values)
                assert abs(dot) <= 1e-12


def test_lp_annulus_mode_selection():
    # P_N keeps exactly the modes with N M / 2 < max_j |k_j| <= N M
    lat = Lattice(1, 8)
    x = lat.axis_coords()
    scale_half = DyadicScale.of(lat, 0.5)  # annulus 2 < |k| <= 4
    for k0, kept in ((2, False), (3, True), (4, True), (5, False)):
        u = GridFunction(lat, np.exp(1j * k0 * x))
        proj = lp_project(u, scale_half)
        norm = lebesgue_norm(proj, 2)
        assert (norm > 1.0) == kept, (k0, norm)


def test_base_scale_keeps_only_the_mean(rng):
    for d, m in ((1, 8), (2, 4)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        base = dyadic_scales(lat)[0]
        proj = lp_project(u, base)
        mean = np.mean(u.values)
        assert np.allclose(proj.values, mean, atol=1e-13)


def test_lowpass_project(rng):
    lat = Lattice(1, 8)
    u = random_grid(lat, rng)
    # lowpass at the top scale is the identity
    top = dyadic_scales(lat)[-1]
    assert np.allclose(lowpass_project(u, top).values, u.values, atol=1e-13)
    # lowpass at N = 1/2 keeps |k| <= 4 only
    x = lat.axis_coords()
    u5 = GridFunction(lat, np.exp(1j * 5 * x))
    out = lowpass_project(u5, DyadicScale.of(lat, 0.5))
    assert lebesgue_norm(out, 2) <= 1e-12
    # the dyadic projections up to N sum to the low-pass projection at N
    for d, m in ((1, 8), (2, 4)):
        lat = Lattice(d, m)
        u = random_grid(lat, rng)
        total = GridFunction.zeros(lat)
        for scale in dyadic_scales(lat):
            total = total + lp_project(u, scale)
            want = lowpass_project(u, scale).values
            assert np.max(np.abs(total.values - want)) <= 1e-13 * np.max(np.abs(u.values))


# --------------------------------------------------------------------------
# inequality sweeps


def test_inequality_sweep_validation(rng):
    lat = Lattice(1, 8)
    corpus = [random_grid(lat, rng)]
    with pytest.raises(ValueError):
        inequality_sweep("nope", corpus)
    with pytest.raises(ValueError):
        inequality_sweep("sobolev", [])
    with pytest.raises(ValueError):
        inequality_sweep("sobolev", corpus)  # missing s
    with pytest.raises(ValueError):
        inequality_sweep("sobolev", corpus, s=0.8)  # s > d/2
    with pytest.raises(ValueError):
        inequality_sweep("gagliardo_nirenberg", corpus)  # missing theta
    with pytest.raises(ValueError):
        inequality_sweep("bernstein", corpus, s=-0.1)
    assert set(INEQUALITY_KINDS) == {"sobolev", "gagliardo_nirenberg", "bernstein"}


def test_inequality_sweep_records(rng):
    lat = Lattice(1, 16)
    corpus = [random_grid(lat, rng) for _ in range(3)]
    recs = inequality_sweep("sobolev", corpus, s=0.4)
    assert len(recs) == 3
    assert all(r.experiment == "ineq_sobolev" for r in recs)
    assert all(r.ratio is not None and r.ratio > 0 for r in recs)
    # 1/q = 1/2 - s/d
    assert recs[0].q == pytest.approx(1.0 / (0.5 - 0.4))
    gn = inequality_sweep("gagliardo_nirenberg", corpus, theta=0.5)
    assert all(r.experiment == "ineq_gagliardo_nirenberg" for r in gn)
    bern = inequality_sweep("bernstein", corpus, s=0.5)
    scales = dyadic_scales(lat)
    assert len(bern) == 3 * len(scales)


def test_bernstein_records_equal_lp_project_path(rng):
    s = 0.4
    for lat in (Lattice(1, 16), Lattice(2, 8)):
        corpus = [random_grid(lat, rng) for _ in range(2)]
        recs = inequality_sweep("bernstein", corpus, s=s)
        q = recs[0].q
        want = []
        for u in corpus:
            l2 = lebesgue_norm(u, 2)
            for scale in dyadic_scales(lat):
                lhs = lebesgue_norm(lp_project(u, scale), q)
                want.append((scale.value, lhs, lhs / ((scale.value / lat.h) ** s * l2)))
        assert [(r.N, r.value, r.ratio) for r in recs] == want


def test_inequality_sweep_skips_zero_input():
    lat = Lattice(1, 8)
    zero = GridFunction.zeros(lat)
    recs = inequality_sweep("sobolev", [zero], s=0.4)
    assert recs[0].metadata.get("skipped")
    assert recs[0].ratio is None


def _ratios_by_kind(u, s, theta, epsilon):
    """Each kind's (value, ratio) list for one element, every norm from its own transform."""
    d, h = u.lattice.d, u.lattice.h
    q_s = inequality_exponent("sobolev", d, s=s)
    q_gn = inequality_exponent("gagliardo_nirenberg", d, theta=theta)
    l2 = lebesgue_norm(u, 2)
    sob = lebesgue_norm(u, q_s)
    gn = lebesgue_norm(u, q_gn)
    bern = []
    for scale in dyadic_scales(u.lattice):
        lhs = lebesgue_norm(lp_project(u, scale), q_s)
        bern.append((lhs, lhs / ((scale.value / h) ** s * l2)))
    return [
        [(sob, sob / sobolev_norm(u, s + epsilon))],
        [(gn, gn / (l2 ** (1.0 - theta) * sobolev_norm(u, 1) ** theta))],
        bern,
    ]


@pytest.mark.parametrize("lat", [Lattice(1, 16), Lattice(2, 8)])
def test_inequality_records_share_one_transform_bit_for_bit(lat, rng, monkeypatch):
    s, theta, epsilon = 0.4 * lat.d, 0.5, 0.1
    u = random_grid(lat, rng)
    want = _ratios_by_kind(u, s, theta, epsilon)
    calls = []
    transform = spectral.forward
    monkeypatch.setattr(spectral, "forward", lambda v: calls.append(v) or transform(v))
    got = inequality_records(u, INEQUALITY_KINDS, s=s, theta=theta, epsilon=epsilon)
    assert len(calls) == 1
    assert [[(r.value, r.ratio) for r in recs] for recs in got] == want
    assert [recs[0].experiment for recs in got] == [f"ineq_{k}" for k in INEQUALITY_KINDS]
    # a repeated kind repeats its records
    twice = inequality_records(u, ("bernstein", "sobolev", "bernstein"), s=s, epsilon=epsilon)
    assert [[r.ratio for r in recs] for recs in twice] == [
        [r for _, r in want[2]], [want[0][0][1]], [r for _, r in want[2]]]


def test_inequality_records_skip_zero_input_for_every_kind():
    zero = GridFunction.zeros(Lattice(2, 4))
    got = inequality_records(zero, INEQUALITY_KINDS, s=0.8, theta=0.5)
    assert [len(recs) for recs in got] == [1, 1, 1]
    assert all(recs[0].ratio is None and recs[0].metadata == {"skipped": "zero input"}
               for recs in got)
