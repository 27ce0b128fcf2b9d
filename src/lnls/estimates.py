"""Measured dispersive and space-time (Strichartz) estimates for the free flow.

Everything here asserts nothing by itself: routines *measure* the constants
in the frequency-localized dispersive kernel bound and in the space-time
mixed-norm bound, emitting records whose uniformity in ``h`` is judged by
the caller (factor-of-3 spread policy).

The dispersive kernel at the lattice points is one inverse FFT of length
``2M`` of the per-mode terms folded to ``k mod 2M``; the dense sum over the
modes evaluates it at arbitrary points and is the tests' oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import spectral  # sigma_h is read as spectral._axis_symbol, its one definition
from .continuum import TrigPolynomial
from .lattice import GridFunction, Lattice, NumericalAccuracyError, discretize
from .records import ExperimentRecord
from .spectral import DyadicScale, dyadic_scales, sobolev_norm


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissiblePair:
    """Lattice-admissible exponent pair: ``3/q + d/r = d/2``."""

    q: float
    r: float

    def __post_init__(self) -> None:
        if self.q < 2 or self.r < 2:
            raise ValueError(f"admissible exponents need q, r >= 2, got ({self.q}, {self.r})")

    def validate_for(self, d: int) -> None:
        if d not in (1, 2):
            raise ValueError(f"lattice dimension must be 1 or 2, got d={d}")
        lhs = (0.0 if math.isinf(self.q) else 3.0 / self.q) + (
            0.0 if math.isinf(self.r) else d / self.r
        )
        if abs(lhs - d / 2.0) > 1e-12:
            raise ValueError(
                f"(q, r) = ({self.q}, {self.r}) violates the admissibility relation "
                f"3/q + d/r = d/2 for d = {d} (got {lhs} != {d / 2})"
            )


# ---------------------------------------------------------------------------
# Frequency-localized dispersive kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelQuery:
    """One dispersive-kernel cell: a dyadic scale plus sampling parameters.

    ``c`` bounds the time window ``|t| <= c h / N``; ``t_samples`` times are
    drawn geometrically from the window edge downwards.
    """

    scale: DyadicScale
    c: float = 0.1
    t_samples: int = 8

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError(f"window constant c must be positive, got {self.c}")
        if self.t_samples < 1:
            raise ValueError(f"t_samples must be >= 1, got {self.t_samples}")

    @property
    def lattice(self) -> Lattice:
        return self.scale.lattice

    @property
    def h(self) -> float:
        return self.lattice.h

    @property
    def t_window(self) -> float:
        return self.c * self.h / self.scale.value

    def check_time(self, t: float) -> None:
        if abs(t) > self.t_window * (1.0 + 1e-9):
            raise ValueError(
                f"|t|={abs(t)} outside the dispersive window |t| <= c h/N = {self.t_window:.3g}"
            )


def kernel_modes(scale: DyadicScale) -> np.ndarray:
    """Integer modes ``|k| <= pi N / h`` of one kernel axis (just ``{0}`` at ``N_*``)."""
    kmax = int(math.floor(scale.mode_cutoff + 1e-9))
    return np.arange(-kmax, kmax + 1)


def _axis_sum(query: KernelQuery, t: float, xs: np.ndarray) -> np.ndarray:
    """One-axis sums ``sum_k exp(i (x k - t (4/h^2) sin^2(h k / 2)))`` over points ``xs``.

    A dense sum over the modes at arbitrary points; at the lattice points
    :func:`_axis_sum_at_points` gives the same sums by one FFT.
    """
    k = kernel_modes(query.scale).astype(float)
    phase_t = t * spectral._axis_symbol(query.h, k)
    return np.exp(1j * (np.multiply.outer(np.asarray(xs, dtype=float), k) - phase_t)).sum(axis=-1)


def dispersive_kernel(query: KernelQuery, t: float, x) -> complex:
    """Band-limited free-propagator kernel ``K_{N,t}(x)`` (tensor product over axes)."""
    query.check_time(t)
    lat = query.lattice
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    if coords.shape != (lat.d,):
        raise ValueError(f"x must have {lat.d} coordinates, got shape {coords.shape}")
    out = 1.0 + 0.0j
    for j in range(lat.d):
        out *= _axis_sum(query, t, coords[j : j + 1])[0]
    return complex(out * (2.0 * math.pi) ** -lat.d)


def _axis_sum_at_points(query: KernelQuery, t: float) -> np.ndarray:
    """:func:`_axis_sum` at the lattice points ``x = h m``, ``m = -M..M-1``, by one FFT.

    There ``e^{ixk}`` depends on ``k`` only through ``k mod 2M``, so the
    terms ``e^{-i phi_t(k)}`` are folded to those bins (at the top scale the
    modes ``+-M`` share one) and one unscaled inverse FFT of length ``2M``
    sums them at every point.  Its slot ``m mod 2M`` is moved to ``m + M``.
    """
    n = query.lattice.n_per_axis
    k = kernel_modes(query.scale)
    phase_t = t * spectral._axis_symbol(query.h, k)
    folded = np.zeros(n, dtype=np.complex128)
    np.add.at(folded, k % n, np.exp(-1j * phase_t))
    return np.fft.fftshift(np.fft.ifft(folded, norm="forward"))


def kernel_sup(query: KernelQuery, t: float) -> float:
    """``sup_x |K_{N,t}(x)|`` over lattice points (exact by tensorization)."""
    query.check_time(t)
    lat = query.lattice
    axis_sup = float(np.max(np.abs(_axis_sum_at_points(query, t))))
    return (2.0 * math.pi) ** -lat.d * axis_sup**lat.d


def kernel_as_grid(query: KernelQuery, t: float) -> GridFunction:
    """``K_{N,t}`` sampled at the lattice points: the outer product of the per-axis sums."""
    query.check_time(t)
    lat = query.lattice
    vals = functools.reduce(np.multiply.outer, [_axis_sum_at_points(query, t)] * lat.d)
    return GridFunction(lat, vals * (2.0 * math.pi) ** -lat.d)


def dispersive_bound_sweep(query: KernelQuery) -> list[ExperimentRecord]:
    """Normalized sup ratios ``rho = |K|_sup (h|t|/N)^{d/3}`` over the time window.

    Times run geometrically down from the window edge ``c h / N``; one record
    per time carries ``value = sup_x |K|`` and ``ratio = rho``.
    """
    lat = query.lattice
    N = query.scale.value
    h = query.h
    records = []
    for i in range(query.t_samples):
        t = query.t_window * 2.0**-i
        sup = kernel_sup(query, t)
        rho = sup * (h * t / N) ** (lat.d / 3.0)
        records.append(
            ExperimentRecord(
                "dispersive", h, sup, rho, t=t, N=N, metadata={"d": lat.d, "c": query.c}
            )
        )
    return records


def dispersive_uniformity(
    d: int,
    h_list: Sequence[float],
    c: float = 0.1,
    t_samples: int = 8,
) -> list[ExperimentRecord]:
    """Kernel sweep over every ``(h, N)`` cell of an ``h`` sweep."""
    records = []
    for h in h_list:
        lat = Lattice.from_spacing(d, h)
        for scale in dyadic_scales(lat):
            records.extend(dispersive_bound_sweep(KernelQuery(scale, c=c, t_samples=t_samples)))
    return records


# ---------------------------------------------------------------------------
# Space-time mixed-norm (Strichartz) sweep
# ---------------------------------------------------------------------------


SIMPSON_SELF_CHECK_TOL = 1e-2  # relative change allowed when the Simpson nodes are halved
_BLOCK_POINTS = 1 << 15  # grid points per propagator time block: 512 KiB of complex128


@dataclass(frozen=True)
class StrichartzQuery:
    pair: AdmissiblePair
    h_sweep: tuple[float, ...]
    epsilon: float = 0.1
    time_interval: tuple[float, float] = (0.0, 1.0)
    t_nodes: int = 257

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if len(self.h_sweep) < 1:
            raise ValueError("h_sweep must not be empty")
        t0, t1 = self.time_interval
        if not t1 > t0:
            raise ValueError(f"empty time interval {self.time_interval}")
        if self.t_nodes < 3 or self.t_nodes % 2 == 0:
            raise ValueError(f"t_nodes must be odd and >= 3 (composite Simpson), got {self.t_nodes}")


def _mixed_norm(g: np.ndarray, times: np.ndarray, q: float) -> float:
    """``(int g^q dt)^{1/q}`` by composite Simpson; ``times`` equispaced, odd in count."""
    if math.isinf(q):
        return float(g.max())
    f = g**q
    dt = (times[-1] - times[0]) / (times.size - 1)
    integral = dt / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return float(integral ** (1.0 / q))


def _flow_space_norms(u0: GridFunction, times: np.ndarray, r: float) -> np.ndarray:
    """``|exp(i t Lap_h) u0|_{L^r}`` at each time, batched over blocks of ``_BLOCK_POINTS``.

    The symbol is a sum over axes, so the propagator phase is a product of
    per-axis factors ``exp(-i t (4/h^2) sin^2(h k_j / 2))``, broadcast onto
    the spectrum: ``d * 2M`` exponentials per time instead of ``(2M)^d``.
    One complex and one real block buffer are allocated per call; each block
    is transformed in place, and a last short block uses their leading rows.
    """
    lat = u0.lattice
    d = lat.d
    axes = tuple(range(d))
    sigma_axis = spectral._axis_symbol(lat.h, np.fft.ifftshift(lat.frequencies()))
    u_hat = np.fft.fftn(np.fft.ifftshift(u0.values, axes=axes), axes=axes)
    chunk = max(1, min(_BLOCK_POINTS // lat.n_points, times.size))
    spec_buf = np.empty((chunk,) + lat.shape, dtype=np.complex128)
    mag_buf = np.empty(spec_buf.shape)
    vol = lat.cell_volume
    out = np.empty(times.size)
    for start in range(0, times.size, chunk):
        ts = times[start : start + chunk]
        spec, mag_sq = spec_buf[: ts.size], mag_buf[: ts.size]
        factor = np.exp(-1j * np.multiply.outer(ts, sigma_axis))
        if d == 1:
            np.multiply(u_hat, factor, out=spec)
        else:
            np.multiply(u_hat, factor[:, :, None], out=spec)
            spec *= factor[:, None, :]
        np.fft.ifftn(spec, axes=tuple(a + 1 for a in axes), out=spec)
        np.square(spec.real, out=mag_sq)
        mag_sq += np.square(spec.imag, out=spec.imag)  # the block is spent: square in place
        mag_sq = mag_sq.reshape(ts.size, -1)
        if math.isinf(r):
            out[start : start + ts.size] = np.sqrt(mag_sq.max(axis=1))
        else:
            mag_sq **= r / 2.0
            out[start : start + ts.size] = (vol * np.sum(mag_sq, axis=1)) ** (1.0 / r)
    return out


def strichartz_sweep(
    query: StrichartzQuery,
    corpus: Sequence[TrigPolynomial],
) -> list[ExperimentRecord]:
    """Measure ``|flow u0|_{L_t^q L_h^r} / |<grad>^{2/q+eps} u0|_{L^2}`` over an h-sweep.

    Corpus profiles are continuum objects, transported to each lattice by
    cell averaging.  Time integration is composite Simpson on the doubled
    node set ``2 t_nodes - 1``, checked against the ``t_nodes`` value: the
    two must agree to ``SIMPSON_SELF_CHECK_TOL`` (relative).
    """
    if not corpus:
        raise ValueError("empty corpus")
    d = corpus[0].d
    query.pair.validate_for(d)
    q, r = query.pair.q, query.pair.r
    smoothness = (0.0 if math.isinf(q) else 2.0 / q) + query.epsilon
    t0, t1 = query.time_interval
    times = np.linspace(t0, t1, 2 * (query.t_nodes - 1) + 1)

    def run_cell(h: float, profile: TrigPolynomial) -> ExperimentRecord:
        lat = Lattice.from_spacing(d, h)
        u0 = discretize(profile, lat)
        g = _flow_space_norms(u0, times, r)
        value = _mixed_norm(g, times, q)
        coarse = _mixed_norm(g[::2], times[::2], q)
        if value > 0 and abs(value - coarse) > SIMPSON_SELF_CHECK_TOL * value:
            raise NumericalAccuracyError(
                f"Simpson node-doubling changed the mixed norm by "
                f"{abs(value - coarse) / value:.2%} (> {SIMPSON_SELF_CHECK_TOL:.0%}) "
                f"at h={h}, profile {profile.tag!r}"
            )
        rhs = sobolev_norm(u0, smoothness)
        ratio = None if rhs == 0 else value / rhs
        return ExperimentRecord(
            "strichartz", h, value, ratio, q=q, r=r, epsilon=query.epsilon,
            metadata={"profile": profile.tag},
        )

    return [run_cell(h, profile) for h in query.h_sweep for profile in corpus]
