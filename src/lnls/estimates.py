"""Measured dispersive and space-time (Strichartz) estimates for the free flow.

Everything here asserts nothing by itself: routines *measure* the constants
in the frequency-localized dispersive kernel bound and in the space-time
mixed-norm bound, emitting records whose uniformity in ``h`` is judged by
the caller (factor-of-3 spread policy).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .continuum import TrigPolynomial
from .lattice import GridFunction, Lattice, NumericalAccuracyError, discretize
from .records import ExperimentRecord
from .spectral import DyadicScale, dyadic_scales, sobolev_norm
from .util import map_parallel

logger = logging.getLogger(__name__)


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
    """One-axis sums ``sum_k exp(i (x k - (2t/h^2)(1 - cos(h k))))`` over points ``xs``."""
    h = query.h
    k = kernel_modes(query.scale).astype(float)
    phase_t = (2.0 * t / h**2) * (1.0 - np.cos(h * k))
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


def kernel_sup(query: KernelQuery, t: float) -> float:
    """``sup_x |K_{N,t}(x)|`` over lattice points (exact by tensorization)."""
    query.check_time(t)
    lat = query.lattice
    axis_sup = float(np.max(np.abs(_axis_sum(query, t, lat.axis_coords()))))
    return (2.0 * math.pi) ** -lat.d * axis_sup**lat.d


def kernel_as_grid(query: KernelQuery, t: float) -> GridFunction:
    """``K_{N,t}`` sampled at the lattice points, as a grid function."""
    query.check_time(t)
    lat = query.lattice
    s = _axis_sum(query, t, lat.axis_coords())
    vals = s if lat.d == 1 else np.multiply.outer(s, s)
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
    threads: int | None = None,
) -> list[ExperimentRecord]:
    """Kernel sweep over every ``(h, N)`` cell of an ``h`` sweep."""
    queries = []
    for h in h_list:
        lat = Lattice.from_spacing(d, h)
        for scale in dyadic_scales(lat):
            queries.append(KernelQuery(scale, c=c, t_samples=t_samples))
    chunks = map_parallel(dispersive_bound_sweep, queries, threads)
    return [rec for chunk in chunks for rec in chunk]


# ---------------------------------------------------------------------------
# Space-time mixed-norm (Strichartz) sweep
# ---------------------------------------------------------------------------


SIMPSON_SELF_CHECK_TOL = 1e-2  # relative change allowed when the Simpson nodes are halved
_BLOCK_POINTS = 1 << 15  # grid points per propagator time block: 512 KiB of complex128


def _default_h_sweep() -> list[float]:
    return [math.pi / M for M in (8, 16, 32, 64, 128, 256)]


@dataclass(frozen=True)
class StrichartzQuery:
    pair: AdmissiblePair
    epsilon: float = 0.1
    h_sweep: tuple[float, ...] = field(default_factory=lambda: tuple(_default_h_sweep()))
    time_interval: tuple[float, float] = (0.0, 1.0)
    t_nodes: int = 257
    self_check: bool = True

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
    """
    lat = u0.lattice
    d = lat.d
    h = lat.h
    axes = tuple(range(d))
    sigma_axis = (4.0 / h**2) * np.sin(h * np.fft.ifftshift(lat.frequencies()) / 2.0) ** 2
    u_hat = np.fft.fftn(np.fft.ifftshift(u0.values, axes=axes), axes=axes)
    chunk = max(1, _BLOCK_POINTS // lat.n_points)
    vol = lat.cell_volume
    out = np.empty(times.size)
    for start in range(0, times.size, chunk):
        ts = times[start : start + chunk]
        factor = np.exp(-1j * np.multiply.outer(ts, sigma_axis))
        if d == 1:
            spec = u_hat * factor
        else:
            spec = u_hat * factor[:, :, None]
            spec *= factor[:, None, :]
        block = np.fft.ifftn(spec, axes=tuple(a + 1 for a in axes))
        mag_sq = (block.real**2 + block.imag**2).reshape(ts.size, -1)
        if math.isinf(r):
            out[start : start + ts.size] = np.sqrt(mag_sq.max(axis=1))
        else:
            out[start : start + ts.size] = (vol * np.sum(mag_sq ** (r / 2.0), axis=1)) ** (1.0 / r)
    return out


def strichartz_sweep(
    query: StrichartzQuery,
    corpus: Sequence[TrigPolynomial],
    threads: int | None = None,
) -> list[ExperimentRecord]:
    """Measure ``|flow u0|_{L_t^q L_h^r} / |<grad>^{2/q+eps} u0|_{L^2}`` over an h-sweep.

    Corpus profiles are continuum objects, transported to each lattice by
    cell averaging.  Time integration is composite Simpson on ``t_nodes``
    nodes; with ``self_check`` on, the value is recomputed on the doubled
    node set and must agree to ``SIMPSON_SELF_CHECK_TOL`` (relative).
    """
    if not corpus:
        raise ValueError("empty corpus")
    d = corpus[0].d
    query.pair.validate_for(d)
    q, r = query.pair.q, query.pair.r
    smoothness = (0.0 if math.isinf(q) else 2.0 / q) + query.epsilon
    t0, t1 = query.time_interval
    n_fine = 2 * (query.t_nodes - 1) + 1 if query.self_check else query.t_nodes
    times = np.linspace(t0, t1, n_fine)

    def run_cell(cell: tuple[float, TrigPolynomial]) -> ExperimentRecord:
        h, profile = cell
        lat = Lattice.from_spacing(d, h)
        u0 = discretize(profile, lat)
        g = _flow_space_norms(u0, times, r)
        value = _mixed_norm(g, times, q)
        if query.self_check:
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

    cells = [(h, profile) for h in query.h_sweep for profile in corpus]
    return map_parallel(run_cell, cells, threads)
