"""Time integration of the lattice nonlinear Schroedinger equation.

The evolution equation is

    i du/dt + Lap_h u - lam * |u|^{p-1} u = 0,      p > 1, lam in {+1, -1},

with ``lam = +1`` defocusing and ``lam = -1`` focusing.  ``coupling``
scales the nonlinear term (1 by default; 0 gives the free flow and exists
as a diagnostic hook).

Integrators: exact free propagator (Fourier multiplier), exact nonlinear
phase rotation, their Strang composition (preserves mass exactly and
energy to O(dt^2)), a stencil-based RK4 cross-check, and Picard iteration
on the integral (Duhamel) form.  A Fourier collocation solver of the
continuum equation provides reference solutions, each with a
:class:`ReferenceCertificate` computed at the working resolution: a time
part from step doubling (the distance between the ``dt`` and ``2 dt`` runs,
about three times the time error of the second-order ``dt`` run that is
returned) and a space part, the spectral tail beyond a quarter of the
resolution.  No finer solve is needed; the certificate costs one extra run
at half the steps, which advances in lockstep with the ``dt`` run, so one
state of each is held and the ``2 dt`` states are compared as arrays (by
Parseval, their distance is that of the trig polynomials).

One Strang kernel, :class:`_SplitStep`, serves both the lattice flow
(symbol ``sigma_h``) and the reference solver (symbol ``|k|^2``, keeping
only the 2/3 dealias band, which in d=2 alone is transformed, with the bits
of the full transforms).  Adjacent nonlinear
half-steps are fused into one full rotation, which is exact because the
rotation preserves ``|u|``; the trailing half-step is closed only where a
state is returned or shown to an observer.  For the same reason the lattice
flow, which is observed step by step, keeps the factor ``cos theta + i sin
theta`` of that closing half-step and reuses it to open the next segment at
the same step size, so a segment boundary costs one rotation, not two; the
reference solver, which reopens only at its requested times, keeps no
factor and so holds one grid less.  Steps work in place: the first
half-step of a call writes a new array, so the caller's input (and a state
already returned) is never changed, and every transform, linear phase and
rotation after it overwrites that array; a step allocates only the
rotation's scratch.  One segment driver, :func:`_drive`, steps every
integrator to the requested times; a segment of length ``span`` takes
``ceil(span/dt)`` equal steps, so no step is longer than ``dt``.

A run is recorded in two parts: :func:`recorded_steps` yields each
recorded step ``(t, state, conserved)`` as it is reached, and
:func:`write_trajectory` writes each record's snapshot as it arrives and
the manifest last.  :func:`evolve` collects the records into a
:class:`Trajectory`; a caller that pipes the records straight into the
writer holds O(grid) memory whatever the number of snapshots.

The RK4 and Picard steps work on raw arrays.  The four RK4 stages pass
ndarrays through :func:`~lnls.lattice.laplacian_stencil_values`, the same
slice-based stencil that ``discrete_laplacian_stencil`` uses, and only the
stepped state becomes a ``GridFunction``; each step still checks for
non-finite values and for a norm growth beyond 10x.  Picard iteration
stacks its time nodes into one ``(n_nodes, *shape)`` array, so an
iteration makes one forward and one inverse transform over the spatial
axes; the trapezoid recurrence runs over the rows.  Both must give the
same bits as an ``np.roll`` stencil and a per-node loop, which the tests
check.  The Laplacian symbol is built once per lattice, centred
(:func:`laplacian_symbol`) and in FFT order (:func:`_fft_symbol`).

The conserved quantities are computed without a change of layout.  A
circular shift multiplies the DFT by a unimodular factor, so the kinetic
sum ``sum_k sigma(k) |fftn(v)(k)|^2``, with the symbol in FFT order, is the
same whether ``v`` is stored centred or in the kernel's unshifted layout;
one ``fftn`` of the values as stored serves, and ``|v|^2`` is formed once
for the mass and the potential.  :func:`conserved` takes a
``GridFunction``; :func:`_conserved` takes the bare array, which lets the
conservation check evaluate every Strang step in the kernel's own layout.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .continuum import TrigPolynomial
from .lattice import (
    GridFunction,
    Lattice,
    NumericalAccuracyError,
    laplacian_stencil_values,
    lebesgue_norm,
    read_grid,
    write_grid,
)
from .spectral import Multiplier, apply_multiplier, laplacian_symbol

logger = logging.getLogger(__name__)

INTEGRATORS = ("strang", "rk4", "duhamel_picard")


class IntegrationDivergedError(RuntimeError):
    """An explicit integrator left its stability region (norm blow-up)."""


@dataclass(frozen=True)
class NlsParams:
    """Nonlinearity parameters: power ``p > 1``, sign ``lam``, coupling hook."""

    p: float
    lam: float
    coupling: float = 1.0

    def __post_init__(self) -> None:
        if not 1 < self.p < math.inf:
            raise ValueError(f"finite p > 1 required, got p={self.p}")
        if self.lam not in (1.0, -1.0, 1, -1):
            raise ValueError(f"lam must be +1 or -1, got {self.lam}")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")

    @property
    def effective_lam(self) -> float:
        return float(self.lam) * self.coupling


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_final: float
    integrator: str = "strang"
    record_stride: int = 1

    def __post_init__(self) -> None:
        _check_dt(self.dt)
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final/dt overflows: t_final={self.t_final}, dt={self.dt}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if abs(self.n_steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(f"t_final={self.t_final} is not an integer multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt)) if self.t_final > 0 else 0


@dataclass(frozen=True)
class ConservedQuantities:
    mass: float
    energy: float


# ---------------------------------------------------------------------------
# Elementary flows
# ---------------------------------------------------------------------------


def linear_flow(u: GridFunction, t: float) -> GridFunction:
    """Free propagator ``exp(i t Lap_h)``: multiplier ``exp(-i t sigma_h(k))``."""
    lat = u.lattice
    phase = np.exp(-1j * t * laplacian_symbol(lat))
    return apply_multiplier(u, Multiplier(lat, phase))


@functools.cache
def _fft_symbol(lattice: Lattice) -> np.ndarray:
    """:func:`laplacian_symbol` in unshifted FFT order; built once per lattice, read-only."""
    sig = np.fft.ifftshift(laplacian_symbol(lattice))
    sig.flags.writeable = False
    return sig


def _rotation(v: np.ndarray, params: NlsParams, tau: float) -> np.ndarray:
    """The factor ``cos theta + i sin theta`` of :func:`_rotate`, ``theta = -lam tau |v|^{p-1}``."""
    theta = np.square(v.real)
    theta += np.square(v.imag)
    theta **= (params.p - 1.0) / 2.0
    theta *= -params.effective_lam * tau
    rotation = np.empty(v.shape, dtype=np.complex128)
    np.cos(theta, out=rotation.real)
    np.sin(theta, out=rotation.imag)
    return rotation


def _rotate(
    v: np.ndarray, params: NlsParams, tau: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact flow of ``i dv/dt = lam |v|^{p-1} v`` over ``tau``: a pointwise phase.

    The result goes to ``out`` (which may be ``v`` itself), else to a new array.
    """
    return np.multiply(v, _rotation(v, params, tau), out=out)


def nonlinear_phase_step(u: GridFunction, params: NlsParams, dt: float) -> GridFunction:
    """Exact solution of ``i du/dt = lam |u|^{p-1} u`` over ``dt`` (modulus preserved)."""
    return GridFunction(u.lattice, _rotate(u.values, params, dt))


class _SplitStep:
    """Strang steps ``N(tau/2) . L(tau) . N(tau/2)`` on arrays in unshifted FFT layout.

    ``L(tau)`` is the Fourier multiplier ``mask * exp(-i tau symbol)`` and
    ``N`` the exact phase rotation.  A call takes ``n`` steps and fuses each
    trailing half-step with the next leading one into a single ``N(tau)``.
    The first half-step writes a new array, so the caller's ``v`` is never
    changed; every later substep works in place on that array.

    Without ``band`` the mask is 1; with it, the mask keeps the modes with
    ``|k|_inf <= band`` (the 2/3 dealias rule).  In d=2 only the band is
    transformed, in the pass order of ``fftn`` and ``ifftn`` (axis 1, then
    axis 0), so the bits are those of the full transforms: the forward
    axis-0 pass runs on the band columns only, the phase is stored and
    applied on the band only, every other mode is set to 0, and the inverse
    axis-1 pass runs on the band rows only.  The band of an axis of length
    ``n`` is the two slabs ``[0, band]`` and ``[n - band, n)``.

    The factor of the closing half-step depends only on ``|v|``, which the
    rotation preserves, so it is also the factor of the next opening
    half-step.  With ``keep_closing`` it is kept, one grid held between
    calls, and a call that gets back the very array the last call returned,
    at the same ``tau``, opens with it instead of rotating afresh.  Callers
    must not write into a returned array.
    """

    def __init__(self, symbol: np.ndarray, params: NlsParams, band: int | None = None,
                 keep_closing: bool = True):
        self.params = params
        self.keep_closing = keep_closing
        self.mask = self.slabs = None
        if band is not None:
            n = symbol.shape[0]
            keep = np.abs(np.fft.ifftshift(np.arange(-(n // 2), n - n // 2))) <= band
            if symbol.ndim == 2:
                # (slab of the full axis, the same slab of the band-only axis)
                self.slabs = ((slice(0, band + 1), slice(0, band + 1)),
                              (slice(n - band, n), slice(band + 1, None)))
                symbol = symbol[np.ix_(keep, keep)]
            else:
                self.mask = keep
        self.symbol = symbol
        self.tau: float | None = None
        self._closed: np.ndarray | None = None  # the last returned array
        self._closing: np.ndarray | None = None  # its closing half-step factor

    def _linear(self, v: np.ndarray) -> None:
        """``L(tau)`` in place."""
        if self.slabs is None:
            np.fft.fftn(v, out=v)
            v *= self.phase
            np.fft.ifftn(v, out=v)
            return
        (low, _), (high, _) = self.slabs
        np.fft.fft(v, axis=1, out=v)
        for cols, _ in self.slabs:
            np.fft.fft(v[:, cols], axis=0, out=v[:, cols])
        v[low.stop:high.start] = 0
        v[:, low.stop:high.start] = 0
        for rows, band_rows in self.slabs:
            for cols, band_cols in self.slabs:
                v[rows, cols] *= self.phase[band_rows, band_cols]
        for rows, _ in self.slabs:
            np.fft.ifft(v[rows], axis=1, out=v[rows])
        np.fft.ifft(v, axis=0, out=v)

    def __call__(self, v: np.ndarray, n: int, tau: float) -> np.ndarray:
        if tau != self.tau:
            self.tau = tau
            self.phase = np.exp(-1j * tau * self.symbol)
            if self.mask is not None:
                self.phase *= self.mask
            self._closing = None
        if self._closing is not None and v is self._closed:
            v = v * self._closing
        else:
            v = _rotate(v, self.params, tau / 2.0)
        self._closed = self._closing = None
        for j in range(n):
            self._linear(v)
            if j < n - 1:
                _rotate(v, self.params, tau, out=v)
        if not self.keep_closing:
            return _rotate(v, self.params, tau / 2.0, out=v)
        self._closing = _rotation(v, self.params, tau / 2.0)
        v *= self._closing
        self._closed = v
        return v


def rk4_stability_dt(lattice: Lattice) -> float:
    """Documented stability threshold ``0.5 h^2 / d`` for the RK4 step."""
    return 0.5 * lattice.h**2 / lattice.d


def step_rk4(u: GridFunction, params: NlsParams, dt: float) -> GridFunction:
    """Classical RK4 on ``du/dt = i (Lap_h u - lam |u|^{p-1} u)`` (stencil Laplacian).

    Requires ``dt`` below roughly :func:`rk4_stability_dt`; a norm growth
    beyond 10x raises :class:`IntegrationDivergedError`.
    """

    h, lam, q = u.lattice.h, params.effective_lam, params.p - 1.0

    def rhs(v: np.ndarray) -> np.ndarray:
        return 1j * (laplacian_stencil_values(v, h) - lam * np.abs(v) ** q * v)

    v = u.values
    k1 = rhs(v)
    k2 = rhs(v + 0.5 * dt * k1)
    k3 = rhs(v + 0.5 * dt * k2)
    k4 = rhs(v + dt * k3)
    out = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationDivergedError(
            f"RK4 produced non-finite values at dt={dt} (threshold ~{rk4_stability_dt(u.lattice):.3g})"
        )
    before = float(np.linalg.norm(v))
    after = float(np.linalg.norm(out))
    if before > 0 and after > 10.0 * before:
        raise IntegrationDivergedError(
            f"RK4 norm grew by {after / before:.2f}x in one step; "
            f"dt={dt} exceeds the stability threshold ~{rk4_stability_dt(u.lattice):.3g}"
        )
    return GridFunction(u.lattice, out)


# ---------------------------------------------------------------------------
# Conserved quantities
# ---------------------------------------------------------------------------


def conserved(u: GridFunction, params: NlsParams) -> ConservedQuantities:
    """Mass ``|u|_2^2`` and energy ``1/2 |sqrt(-Lap_h) u|_2^2 + lam/(p+1) |u|_{p+1}^{p+1}``."""
    return _conserved(u.values, u.lattice, params)


def _conserved(v: np.ndarray, lattice: Lattice, params: NlsParams) -> ConservedQuantities:
    """:func:`conserved` of the values ``v`` on ``lattice``, stored centred or unshifted.

    The kinetic sum pairs the FFT-order symbol with ``|fftn(v)|^2``, which a
    circular shift of ``v`` leaves unchanged; ``|v|^{p+1}`` is ``(|v|^2)^{(p+1)/2}``.
    """
    vol = lattice.cell_volume
    density = np.square(v.real)
    density += np.square(v.imag)
    spec = np.fft.fftn(v)
    power = np.square(spec.real)
    power += np.square(spec.imag)
    power *= _fft_symbol(lattice)  # np.sum, not a BLAS dot, which runs threaded on large grids
    kinetic = 0.5 * vol**2 / (2.0 * math.pi) ** lattice.d * float(np.sum(power))
    potential = (params.effective_lam / (params.p + 1.0)) * vol * float(
        np.sum(density ** ((params.p + 1.0) / 2.0)))
    return ConservedQuantities(mass=vol * float(np.sum(density)), energy=kinetic + potential)


# ---------------------------------------------------------------------------
# Trajectory driver
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    params: NlsParams
    config: EvolutionConfig
    times: list[float]
    states: list[GridFunction]
    conserved: list[ConservedQuantities]

    @property
    def lattice(self) -> Lattice:
        return self.states[0].lattice

    def save(self, directory) -> None:
        """Write the snapshots and the manifest through :func:`write_trajectory`."""
        write_trajectory(directory, self.lattice, self.params, self.config,
                         zip(self.times, self.states, self.conserved))

    @classmethod
    def load(cls, directory) -> "Trajectory":
        directory = Path(directory)
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
        if manifest.get("schema_version") != 1:
            raise ValueError(f"unsupported trajectory schema {manifest.get('schema_version')!r}")
        params = NlsParams(
            p=manifest["params"]["p"],
            lam=manifest["params"]["lam"],
            coupling=manifest["params"].get("coupling", 1.0),
        )
        config = EvolutionConfig(**manifest["config"])
        names, times, rows = manifest["snapshots"], manifest["times"], manifest["conserved"]
        if not len(names) == len(times) == len(rows):
            raise ValueError(
                f"manifest lists {len(names)} snapshots, {len(times)} times "
                f"and {len(rows)} conserved rows"
            )
        lattice = Lattice(manifest["lattice"]["d"], manifest["lattice"]["M"])
        states = [read_grid(directory / name) for name in names]
        for name, state in zip(names, states):
            if state.lattice != lattice:
                raise ValueError(
                    f"snapshot {name} is on (d={state.lattice.d}, M={state.lattice.M}), "
                    f"the manifest says (d={lattice.d}, M={lattice.M})"
                )
        cons = [ConservedQuantities(row["mass"], row["energy"]) for row in rows]
        return cls(params, config, list(times), states, cons)


def _focusing_warning(params: NlsParams, lattice: Lattice, stacklevel: int = 3) -> None:
    if params.lam < 0 and params.coupling > 0 and lattice.d == 2 and params.p >= 3:
        warnings.warn(
            f"focusing nonlinearity with p={params.p} >= 3 in d=2: no global bound is "
            "guaranteed; results may blow up",
            stacklevel=stacklevel,
        )


def _sorted_times(times: Sequence[float]) -> list[float]:
    times = [float(t) for t in times]
    if (any(not 0 <= t < math.inf for t in times) or sorted(times) != times
            or len(set(times)) != len(times)):
        raise ValueError(f"times must be finite, sorted, distinct and >= 0, got {times}")
    return times


def _check_dt(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _drive(advance: Callable, v, times: Iterable[float], dt: float) -> Iterator:
    """Yield the state at each of ``times`` (sorted, >= 0), starting from ``v`` at 0.

    The segment from the previous time takes ``n = ceil(span/dt)`` steps
    through ``advance(v, n, tau)``, so no step is longer than ``dt``:
    ``tau = dt`` when the span is a whole number of steps (to 1e-9) and
    ``tau = span/n`` otherwise.
    """
    current = 0.0
    for t in times:
        span = t - current
        if span > 0:
            steps = span / dt
            n = max(1, math.ceil(steps - 1e-9))
            v = advance(v, n, dt if abs(steps - n) <= 1e-9 else span / n)
            current = t
        yield v


def _lattice_states(
    u0: GridFunction, params: NlsParams, times: Iterable[float], dt: float, integrator: str
) -> Iterator[GridFunction]:
    """Lattice states at ``times`` (see :func:`_drive`) under ``integrator``."""
    lat = u0.lattice
    if integrator == "strang":
        advance = _SplitStep(_fft_symbol(lat), params)
        for v in _drive(advance, np.fft.ifftshift(u0.values), times, dt):
            yield GridFunction(lat, np.fft.fftshift(v))
        return
    step_fn = step_rk4 if integrator == "rk4" else _step_picard

    def advance(u: GridFunction, n: int, tau: float) -> GridFunction:
        for _ in range(n):
            u = step_fn(u, params, tau)
        return u

    yield from _drive(advance, u0.copy(), times, dt)


def recorded_steps(
    u0: GridFunction,
    params: NlsParams,
    config: EvolutionConfig,
    observer: Callable[[float, GridFunction], None] | None = None,
) -> Iterator[tuple[float, GridFunction, ConservedQuantities]]:
    """Yield ``(t, state, conserved)`` at every recorded step, as it is reached.

    The initial and final states are always recorded, and every
    ``record_stride``-th step between them.  ``observer`` (if given) is
    called at every step with the current time and state.  The step times
    are produced lazily, so a run builds no list of its ``n_steps`` steps.
    """
    _focusing_warning(params, u0.lattice, stacklevel=4)
    dt, stride, n_steps = config.dt, config.record_stride, config.n_steps

    def shown() -> Iterable[int]:
        if observer is not None:
            return range(1, n_steps + 1)
        return itertools.chain(range(stride, n_steps + 1, stride),
                               [n_steps] if n_steps % stride else [])

    u = u0.copy()
    if observer is not None:
        observer(0.0, u)
    yield 0.0, u, conserved(u, params)
    flow = _lattice_states(u0, params, (j * dt for j in shown()), dt, config.integrator)
    for j, u in zip(shown(), flow):
        t = j * dt
        if observer is not None:
            observer(t, u)
        if j % stride == 0 or j == n_steps:
            yield t, u, conserved(u, params)


def write_trajectory(
    directory,
    lattice: Lattice,
    params: NlsParams,
    config: EvolutionConfig,
    records: Iterable[tuple[float, GridFunction, ConservedQuantities]],
) -> list[tuple[float, ConservedQuantities]]:
    """Write each record's state to ``snap_NNNNNN.grid`` as it arrives, then ``manifest.json``.

    Before the first record is drawn, any ``manifest.json`` and ``snap_*.grid``
    already in ``directory`` are deleted, and the manifest is written last:
    a shorter run leaves no stale snapshot behind, and a run that fails
    mid-way leaves no manifest that points at old or partial snapshots.
    Only the record in hand is held, so with :func:`recorded_steps` as the
    source memory is O(grid) whatever the number of snapshots.  Returns the
    ``(t, conserved)`` rows in order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    for stale in directory.glob("snap_*.grid"):
        stale.unlink()
    names, rows = [], []
    for i, (t, state, cons) in enumerate(records):
        name = f"snap_{i:06d}.grid"
        write_grid(state, directory / name)
        names.append(name)
        rows.append((t, cons))
    manifest = {
        "schema_version": 1,
        "lattice": {"d": lattice.d, "M": lattice.M},
        "params": {"p": params.p, "lam": params.lam, "coupling": params.coupling},
        "config": {
            "dt": config.dt,
            "t_final": config.t_final,
            "integrator": config.integrator,
            "record_stride": config.record_stride,
        },
        "times": [t for t, _ in rows],
        "snapshots": names,
        "conserved": [{"t": t, "mass": c.mass, "energy": c.energy} for t, c in rows],
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return rows


def evolve(
    u0: GridFunction,
    params: NlsParams,
    config: EvolutionConfig,
    observer: Callable[[float, GridFunction], None] | None = None,
) -> Trajectory:
    """Integrate to ``t_final`` and keep every record of :func:`recorded_steps`.

    The trajectory holds all its states in memory; to record a long run,
    pipe :func:`recorded_steps` into :func:`write_trajectory` instead.
    """
    times, states, cons = map(list, zip(*recorded_steps(u0, params, config, observer)))
    return Trajectory(params, config, times, states, cons)


def _step_picard(u: GridFunction, params: NlsParams, dt: float) -> GridFunction:
    return picard_iterate(u, params, dt, n_nodes=8, n_iter=6)


def evolve_capture(
    u0: GridFunction,
    params: NlsParams,
    dt: float,
    times: Sequence[float],
    integrator: str = "strang",
) -> list[GridFunction]:
    """States at the requested times (sorted, >= 0), stepping segment by segment.

    Segments are stepped as in :func:`_drive`; with ``coupling = 0`` and the
    Strang integrator the free flow is applied exactly instead.
    """
    times = _sorted_times(times)
    _check_dt(dt)
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}, got {integrator!r}")
    _focusing_warning(params, u0.lattice)
    if params.coupling == 0.0 and integrator == "strang":
        return [u0.copy() if t == 0 else linear_flow(u0, t) for t in times]
    return list(_lattice_states(u0, params, times, dt, integrator))


def time_averaged_sup_norm(times: Sequence[float], sup_values: Sequence[float], q: float) -> float:
    """``L_t^q`` quadrature ``(int |u(t)|_inf^q dt)^{1/q}`` from sampled sup norms."""
    t = np.asarray(times, dtype=float)
    g = np.asarray(sup_values, dtype=float)
    if t.shape != g.shape or t.size < 2:
        raise ValueError("need matching time and value arrays with at least two samples")
    if math.isinf(q):
        return float(g.max())
    return float(np.trapezoid(g**q, t) ** (1.0 / q))


# ---------------------------------------------------------------------------
# Picard iteration on the Duhamel form
# ---------------------------------------------------------------------------


def _contraction_factor(lat: Lattice, norm: float, params: NlsParams, T: float) -> float:
    return (
        params.p
        * params.coupling
        * T
        * lat.h ** (-lat.d * (params.p - 1.0) / 2.0)
        * (2.0 * norm) ** (params.p - 1.0)
    )


def picard_contraction_factor(u0: GridFunction, params: NlsParams, T: float) -> float:
    """Smallness quantity ``p T h^{-d(p-1)/2} (2|u0|_2)^{p-1}`` (coupling-scaled)."""
    return _contraction_factor(u0.lattice, lebesgue_norm(u0, 2), params, T)


def picard_factor_bound(f: TrigPolynomial, lattice: Lattice, params: NlsParams, T: float) -> float:
    """An upper bound of :func:`picard_contraction_factor` for ``discretize(f, lattice)``, with no grid.

    Cell averaging does not raise the ``L^2`` norm, so the profile's exact
    norm stands in for the lattice norm.  The factor grows as ``h``
    shrinks, so the finest lattice of a plan bounds all of them.
    """
    return _contraction_factor(lattice, f.l2_norm(), params, T)


def picard_iterate(
    u0: GridFunction,
    params: NlsParams,
    T: float,
    n_nodes: int = 64,
    n_iter: int = 8,
    return_residuals: bool = False,
):
    """Fixed-point iteration of the integral form on a trapezoid time grid.

    ``u^{m+1}(t) = e^{itLap} u0 - i lam int_0^t e^{i(t-s)Lap} |u^m|^{p-1} u^m(s) ds``
    with the integral discretized by the trapezoid rule on ``n_nodes``
    equispaced nodes.  The contraction precondition
    :func:`picard_contraction_factor` ``< 1`` is checked up front.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if n_nodes < 2 or n_iter < 1:
        raise ValueError("need n_nodes >= 2 and n_iter >= 1")
    lat = u0.lattice
    if T == 0:
        return (u0.copy(), []) if return_residuals else u0.copy()
    factor = picard_contraction_factor(u0, params, T)
    if factor >= 1.0:
        raise ValueError(
            f"contraction precondition violated: factor {factor:.3g} >= 1; "
            f"largest admissible T is about {T / factor:.3g}"
        )

    # The states at the n_nodes time nodes are the rows of one stacked array,
    # transformed together over the spatial axes.
    axes = tuple(range(1, lat.d + 1))
    sigma = _fft_symbol(lat)
    ds = T / (n_nodes - 1)
    nodes = np.arange(n_nodes) * ds
    u0_hat = np.fft.fftn(np.fft.ifftshift(u0.values))
    free_hats = u0_hat * np.exp(-1j * nodes.reshape((n_nodes,) + (1,) * lat.d) * sigma)
    step = np.exp(-1j * ds * sigma)
    coef = 1j * params.effective_lam * ds
    p = params.p

    current = np.fft.ifftn(free_hats, axes=axes)
    residuals: list[float] = []
    measure = lat.cell_volume
    for _ in range(n_iter):
        nl_hats = np.fft.fftn(np.abs(current) ** (p - 1.0) * current, axes=axes)
        # Trapezoid sum of step^(j-l) nl_hats[l] over l <= j by the recurrence
        # tail_j = step tail_{j-1} + nl_hats[j], tail_0 = nl_hats[0] / 2.
        acc = np.empty_like(nl_hats[1:])
        tail = 0.5 * nl_hats[0]
        for j in range(1, n_nodes):
            tail = step * tail + nl_hats[j]
            acc[j - 1] = tail - 0.5 * nl_hats[j]
        new = np.concatenate([current[:1], np.fft.ifftn(free_hats[1:] - coef * acc, axes=axes)])
        sq_dist = np.sum(np.abs(new - current).reshape(n_nodes, -1) ** 2, axis=1)
        residuals.append(math.sqrt(measure * float(sq_dist.max())))
        current = new
    final = GridFunction(lat, np.fft.fftshift(current[-1]))
    return (final, residuals) if return_residuals else final


# ---------------------------------------------------------------------------
# Continuum reference solver
# ---------------------------------------------------------------------------


# The certificate's tail: modes with |k|_inf > TAIL_FRACTION * resolution,
# the outer quarter of the 2/3 dealias band |k|_inf <= resolution / 3.
TAIL_FRACTION = 0.25


def _is_odd_integer(p: float) -> bool:
    return abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 1


def _collocation_stepper(d: int, params: NlsParams, resolution: int) -> _SplitStep:
    """The Strang kernel of the collocation solver: symbol ``|k|^2``, band ``resolution // 3``.

    The symbol is the sum of per-axis squares; the band (2/3 dealias rule)
    applies for odd integer ``p`` only.
    """
    square = np.fft.ifftshift(np.arange(-(resolution // 2), resolution // 2)).astype(float) ** 2
    symbol = square if d == 1 else np.add.outer(square, square)
    band = resolution // 3 if _is_odd_integer(params.p) else None
    return _SplitStep(symbol, params, band, keep_closing=False)


def _collocated(v: np.ndarray, resolution: int) -> TrigPolynomial:
    """The trig polynomial whose values at the points ``h p`` (unshifted layout) are ``v``."""
    fine = Lattice(v.ndim, resolution // 2)
    coeffs = np.fft.fftn(v)
    coeffs *= fine.cell_volume
    return TrigPolynomial([fine.frequencies()] * fine.d, np.fft.fftshift(coeffs), tag="reference")


# grid points per block of the step-doubling distance: 64 KiB of complex128
_DISTANCE_BLOCK = 1 << 12


def _grid_distance(a: np.ndarray, b: np.ndarray, vol: float) -> float:
    """``(vol sum |a - b|^2)^{1/2}``, summed in blocks of rows of ``_DISTANCE_BLOCK`` points.

    For the values of two collocated states at the points ``h p`` this is,
    by Parseval, the ``L^2`` distance of their trig polynomials.
    """
    rows = max(1, _DISTANCE_BLOCK * len(a) // a.size)
    total = 0.0
    for start in range(0, len(a), rows):
        diff = a[start:start + rows] - b[start:start + rows]
        total += float(np.sum(np.square(diff.real) + np.square(diff.imag)))
    return math.sqrt(vol * total)


def _doubled_collocation(
    u0: TrigPolynomial,
    params: NlsParams,
    times: Sequence[float],
    resolution: int,
    dt: float,
    cutoff: float,
) -> tuple[float, list[TrigPolynomial], list[float]]:
    """The ``dt`` run's states at ``times``, the distances to the ``2 dt`` run, the initial tail.

    The two runs advance together from one initial sample, so one state of
    each is held; the ``2 dt`` states stay arrays and are compared by
    :func:`_grid_distance`.  Of the collocated initial sample only its tail
    beyond ``cutoff`` is kept.
    """
    start = u0.on_uniform_grid(resolution)
    initial_tail = _collocated(start, resolution).tail_norm(cutoff)
    runs = [_drive(_collocation_stepper(u0.d, params, resolution), start, times, step)
            for step in (dt, 2.0 * dt)]
    del start
    vol = (2.0 * math.pi / resolution) ** u0.d
    states, time_parts = [], []
    for v, doubled in zip(*runs):
        states.append(_collocated(v, resolution))
        time_parts.append(_grid_distance(v, doubled, vol))
        del v, doubled  # so that the next steps do not keep these states alive
    return initial_tail, states, time_parts


def check_reference_plan(d: int, resolution: int, tol: float) -> None:
    """Reject a reference plan that :func:`reference_trajectory` cannot certify.

    ``resolution`` must be a power of two, at least 256 in d=2, and ``tol``
    must be positive.
    """
    if resolution & (resolution - 1) or resolution < 2:
        raise ValueError(f"reference resolution must be a power of two, got {resolution}")
    if d == 2 and resolution < 256:
        raise ValueError(f"reference resolution must be >= 256 for d=2, got {resolution}")
    if not tol > 0:
        raise ValueError(f"reference tol must be positive, got {tol}")


@dataclass(frozen=True)
class ReferenceCertificate:
    """Accuracy certificate of one reference state, computed at its own resolution.

    ``time`` is the ``L^2`` distance between the runs at ``dt`` and at
    ``2 dt``; for a second-order Strang step it is about three times the
    time error of the returned ``dt`` run.  ``tail`` is the larger of the
    ``L^2`` masses of the collocated initial sample and of the returned
    state on the modes with ``|k|_inf > TAIL_FRACTION * resolution``.
    ``resolution`` is the working resolution (doubled for non-odd ``p``).
    """

    time: float
    tail: float
    resolution: int
    dt: float

    @property
    def bound(self) -> float:
        return self.time + self.tail


def reference_trajectory(
    u0: TrigPolynomial,
    params: NlsParams,
    times: Sequence[float],
    resolution: int = 256,
    dt: float = 1e-3,
    tol: float = 1e-4,
) -> tuple[dict[float, TrigPolynomial], dict[float, ReferenceCertificate]]:
    """Reference continuum solution at several times, with a certificate per time.

    Returns the states of the collocation solver at ``(resolution, dt)``
    and a :class:`ReferenceCertificate` for each.  Its time part comes from
    step doubling, a second run at ``(resolution, 2 dt)``; its tail is the
    larger of the masses of the collocated initial sample and of the state
    beyond a quarter of the resolution, the outer quarter of the 2/3
    dealias band.  A bound (time part + tail) above ``tol`` times
    ``max(1, |u(t)|_2)`` raises :class:`NumericalAccuracyError`.  With
    ``coupling = 0`` the free flow is applied exactly in Fourier space to
    ``u0``, which is then the initial sample, and the time part is 0.

    For non-odd-integer ``p`` the pointwise nonlinearity cannot be
    dealiased by the 2/3 rule, so the working resolution is doubled instead.
    """
    times = _sorted_times(times)
    _check_dt(dt)
    check_reference_plan(u0.d, resolution, tol)
    if params.coupling != 0.0 and not _is_odd_integer(params.p):
        resolution *= 2
    cutoff = TAIL_FRACTION * resolution
    if params.coupling == 0.0:
        initial_tail = u0.tail_norm(cutoff)
        states = [u0.free_evolved(t) for t in times]
        time_parts = [0.0] * len(times)
    else:
        initial_tail, states, time_parts = _doubled_collocation(
            u0, params, times, resolution, dt, cutoff)

    certificates = {}
    for t, st, time_part in zip(times, states, time_parts):
        cert = ReferenceCertificate(
            time_part, max(initial_tail, st.tail_norm(cutoff)), resolution, dt)
        if cert.bound > tol * max(1.0, st.l2_norm()):
            raise NumericalAccuracyError(
                f"reference self-convergence failed at t={t}: bound {cert.bound:.3e} "
                f"(time part {cert.time:.3e}, tail {cert.tail:.3e}) exceeds tol {tol:.1e} "
                f"(resolution {resolution}, dt {dt})"
            )
        certificates[t] = cert
    return dict(zip(times, states)), certificates
