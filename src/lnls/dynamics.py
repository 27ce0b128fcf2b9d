"""Time integration of the lattice nonlinear Schroedinger equation.

The evolution equation is

    i du/dt + Lap_h u - lam * |u|^{p-1} u = 0,      p > 1, lam in {+1, -1},

with ``lam = +1`` defocusing and ``lam = -1`` focusing.  ``coupling``
scales the nonlinear term (1 by default; 0 gives the free flow and exists
as a diagnostic hook).

Integrators (:data:`INTEGRATORS`): Strang splitting of the exact free
propagator and the exact nonlinear phase rotation (mass exact, energy to
O(dt^2)), a stencil RK4 cross-check, and Picard iteration on the integral
(Duhamel) form.  A Fourier collocation solver of the continuum equation
provides reference solutions, each with a :class:`ReferenceCertificate`
computed at the working resolution: a time part from step doubling (the
distance to a ``2 dt`` run that advances in lockstep, about three times the
time error of the returned ``dt`` run) and a space part, the spectral tail
beyond a quarter of the resolution.

Every lattice run is one stream, :func:`_raw_states`.  ``_STEPPERS`` maps
each integrator to a stepper, :class:`_SplitStep`, :class:`_Rk4Step` or
:class:`_PicardStep`, that advances a raw array in unshifted FFT layout
(``ifftshift`` of the centred ``GridFunction`` values) by
``advance(v, n, tau)``, and the segment driver :func:`_drive` calls it to
reach each requested time; a segment of length ``span`` takes
``ceil(span/dt)`` equal steps, so no step is longer than ``dt``.  The layout
is decided here alone: :func:`_lattice_states` shifts back at its boundary,
into values the caller owns, while the conservation check and the sup-norm
study read the raw arrays.  A yielded array belongs to its stepper, which
may reopen from it (Strang's kept closing factor): read it, never write
into it.  The steppers give the bits they would give on centred
values: the multipliers use the symbol in FFT order (:func:`_fft_symbol`),
the rotation is pointwise, and the periodic stencil pairs the same
neighbours under a circular shift.  The public entry points
:func:`evolve`, :func:`evolve_capture` and :func:`recorded_steps` are the
only way into a stepper.  Only an :class:`EvolutionConfig` chooses the
integrator; :func:`evolve_capture` steps with Strang.

A run is recorded in two parts: :func:`recorded_steps` yields each
recorded ``(t, state, conserved)`` as it is reached, and
:func:`write_trajectory` writes each snapshot as it arrives and the
manifest last, so piping one into the other holds O(grid) memory;
:func:`evolve` collects the records into a :class:`Trajectory`.  The
conserved quantities need no change of layout: a circular shift multiplies
the DFT by a unimodular factor, so the kinetic sum
``sum_k sigma(k) |fftn(v)(k)|^2`` is the same for centred and unshifted
values (:func:`_conserved` takes either).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .continuum import TrigPolynomial
from .lattice import (
    GridFunction,
    Lattice,
    NumericalAccuracyError,
    _SUM_BLOCK,
    _Stencil,
    _row_blocks,
    read_grid,
    write_grid,
)
from .spectral import _half_shift, laplacian_symbol


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
        steps = self.t_final / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"t_final/dt overflows: t_final={self.t_final}, dt={self.dt}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        # whole steps to a slack counted in steps, as in _drive; a run takes at least one
        if self.t_final > 0 and not abs(steps - max(1, self.n_steps)) <= 1e-9 * max(1.0, steps):
            raise ValueError(f"t_final={self.t_final} is not an integer multiple of dt={self.dt} (n >= 1)")

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


@functools.cache
def _fft_symbol(lattice: Lattice) -> np.ndarray:
    """:func:`laplacian_symbol` in unshifted FFT order; built once per lattice, read-only."""
    sig = np.fft.ifftshift(laplacian_symbol(lattice))
    sig.flags.writeable = False
    return sig


# grid points per block of the phase rotation: 128 KiB of complex128 factor
# and four 64 KiB float64 scratch arrays
_ROTATION_BLOCK = 1 << 13

# On |theta| <= _SERIES_ANGLE the factor is a Taylor series in x = theta^2:
# cos = 1 + x C(x) through theta^10, sin = theta + theta x S(x) through
# theta^9.  Both series alternate with decreasing terms, so each remainder is
# below its first omitted term: theta^12/12! <= 2^-48/479001600 < 2^-76 and
# theta^11/11! <= 2^-44/39916800 < 2^-69, both below 2^-64.  The coefficients
# run from the highest power down.
_SERIES_ANGLE = 1.0 / 16
_COS_SERIES = tuple((-1.0) ** k / math.factorial(2 * k) for k in range(5, 0, -1))
_SIN_SERIES = tuple((-1.0) ** k / math.factorial(2 * k + 1) for k in range(4, 0, -1))


def _rotation_blocks(
    v: np.ndarray, params: NlsParams, tau: float, out: np.ndarray | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of rows of ``v`` with its factor ``cos theta + i sin theta``.

    ``theta = -lam tau |v|^{p-1}``.  The factor goes to ``out[block]``, else
    to block scratch that the next block overwrites.  Every point takes the
    series on ``min(|theta|, _SERIES_ANGLE)^2`` (a huge ``theta`` cannot
    overflow it), in contiguous scratch; a point with ``|theta| >
    _SERIES_ANGLE`` then takes ``np.cos``/``np.sin``.  So a point's bits
    depend on its own ``theta`` alone, a NaN ``theta`` gives a NaN factor,
    and the cubic's factor (no power) is IEEE multiplies and adds, whatever
    NumPy's SIMD level.
    """
    blocks = list(_row_blocks(v, _ROTATION_BLOCK))
    shape = v[blocks[0]].shape
    theta_s, x_s, cos_s, sin_s = np.empty((4,) + shape)
    big_s = np.empty(shape, dtype=bool)
    factor_s = np.empty(shape, dtype=np.complex128) if out is None else None
    power = (params.p - 1.0) / 2.0
    scale = -params.effective_lam * tau
    for block in blocks:
        vb = v[block]
        n = len(vb)
        theta, x, cos, sin, big = theta_s[:n], x_s[:n], cos_s[:n], sin_s[:n], big_s[:n]
        np.square(vb.real, out=theta)
        theta += np.square(vb.imag, out=x)
        if power != 1.0:  # x ** 1.0 is x, bit for bit
            theta **= power
        theta *= scale
        np.abs(theta, out=x)
        libm = np.greater(x, _SERIES_ANGLE, out=big).any()
        if libm:
            np.minimum(x, _SERIES_ANGLE, out=x)
        x *= x
        for series, coeffs in ((cos, _COS_SERIES), (sin, _SIN_SERIES)):
            np.multiply(x, coeffs[0], out=series)  # x C(x), x S(x) by Horner's rule
            for c in coeffs[1:]:
                series += c
                series *= x
        cos += 1.0
        sin *= theta
        sin += theta
        if libm:
            np.cos(theta, out=cos, where=big)
            np.sin(theta, out=sin, where=big)
        factor = factor_s[:n] if out is None else out[block]
        factor.real = cos
        factor.imag = sin
        yield block, factor


def _rotation(v: np.ndarray, params: NlsParams, tau: float) -> np.ndarray:
    """The factor of :func:`_rotate` on the whole grid: one new array, filled block by block."""
    rotation = np.empty(v.shape, dtype=np.complex128)
    for _ in _rotation_blocks(v, params, tau, out=rotation):
        pass
    return rotation


def _rotate(
    v: np.ndarray, params: NlsParams, tau: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact flow of ``i dv/dt = lam |v|^{p-1} v`` over ``tau``: a pointwise phase.

    The result goes to ``out`` (which may be ``v`` itself), else to a new
    array.  Each block of :func:`_rotation_blocks` is multiplied by its
    factor in block scratch, so a rotation holds no full-grid temporary; the
    factor is pointwise, so the bits are those of :func:`_rotation`.
    """
    out = np.empty_like(v) if out is None else out
    for block, factor in _rotation_blocks(v, params, tau):
        np.multiply(v[block], factor, out=out[block])
    return out


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
    ``n`` is the two slabs ``[0, band]`` and ``[n - band, n)``, and in d=2
    ``symbol`` is given on the band alone, ``(2 band + 1)^2`` values in that
    order, so steppers may share one read-only band symbol.

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
        if band is not None and symbol.ndim == 2:
            # (slab of the full axis, the same slab of the band-only axis)
            self.slabs = ((slice(0, band + 1), slice(0, band + 1)),
                          (slice(-band, None), slice(band + 1, None)))
        elif band is not None:
            n = symbol.shape[0]
            self.mask = np.abs(np.fft.ifftshift(np.arange(-(n // 2), n - n // 2))) <= band
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


class _Rk4Step:
    """RK4 steps on values (centred or unshifted) that keep their scratch between steps.

    A step runs the ops of ``k_i = 1j * (Lap_h w - lam |w|^{p-1} w)`` and of
    the RK4 combination in their order, each with its operands in their
    order, but into buffers held across steps: the stencil's
    (:class:`~lnls.lattice._Stencil`), the four stages, the stage argument
    and the modulus.  Only the result is a new array.  A non-finite result
    or a norm growth beyond 10x raises :class:`IntegrationDivergedError`;
    a step's closing norm opens the next step of the same call.
    """

    def __init__(self, lattice: Lattice, params: NlsParams):
        self.lattice, self.params = lattice, params
        self.laplacian = _Stencil(lattice.shape, lattice.h)
        self.k = [np.empty(lattice.shape, dtype=np.complex128) for _ in range(5)]
        self.modulus = np.empty(lattice.shape)

    def _rhs(self, w: np.ndarray, k: np.ndarray) -> None:
        """``k = 1j * (Lap_h w - lam |w|^{p-1} w)``, written into ``k``."""
        lap = self.laplacian(w)
        modulus = np.abs(w, out=self.modulus)
        modulus **= self.params.p - 1.0
        np.multiply(self.params.effective_lam, modulus, out=modulus)
        np.multiply(modulus, w, out=k)
        np.subtract(lap, k, out=k)
        np.multiply(1j, k, out=k)

    def _step(self, v: np.ndarray, dt: float, before: float | None) -> tuple[np.ndarray, float]:
        """One step from ``v`` (left unchanged) and the Euclidean norm of the result.

        ``before`` is the norm of ``v``, if known.
        """
        k1, k2, k3, k4, w = self.k
        self._rhs(v, k1)
        for k, scale, into in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
            self._rhs(np.add(v, np.multiply(scale, k, out=w), out=w), into)
        # v + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(k1, np.multiply(2.0, k2, out=w), out=w)
        np.add(w, np.multiply(2.0, k3, out=k2), out=w)
        out = np.add(v, np.multiply(dt / 6.0, np.add(w, k4, out=w), out=w))
        if not np.all(np.isfinite(out)):
            raise IntegrationDivergedError(
                f"RK4 produced non-finite values at dt={dt} "
                f"(threshold ~{rk4_stability_dt(self.lattice):.3g})"
            )
        before = float(np.linalg.norm(v)) if before is None else before
        after = float(np.linalg.norm(out))
        if before > 0 and after > 10.0 * before:
            raise IntegrationDivergedError(
                f"RK4 norm grew by {after / before:.2f}x in one step; "
                f"dt={dt} exceeds the stability threshold ~{rk4_stability_dt(self.lattice):.3g}"
            )
        return out, after

    def __call__(self, v: np.ndarray, n: int, tau: float) -> np.ndarray:
        norm = None
        for _ in range(n):
            v, norm = self._step(v, tau, norm)
        return v


# ---------------------------------------------------------------------------
# Picard iteration on the Duhamel form
# ---------------------------------------------------------------------------


PICARD_NODES = 8  # trapezoid nodes per step of the duhamel_picard integrator
PICARD_ITERATIONS = 6  # fixed-point iterations per step
PICARD_RESIDUAL_TOL = 1e-12  # a step's last residual must be <= this times |u|_2


def _contraction_factor(lat: Lattice, norm: float, params: NlsParams, T: float) -> float:
    """Smallness quantity ``p T h^{-d(p-1)/2} (2 norm)^{p-1}`` (coupling-scaled) of a Picard step."""
    return (params.p * params.coupling * T * lat.h ** (-lat.d * (params.p - 1.0) / 2.0)
            * (2.0 * norm) ** (params.p - 1.0))


class _PicardStep:
    """Picard steps on raw arrays in unshifted FFT layout, ``n_nodes`` trapezoid nodes each.

    The tables of a step size, the node phases ``exp(-i s_j sigma)`` and the
    one-node factor, are built when it changes.  A step checks the
    contraction precondition and proves that it converged: the last of its
    ``PICARD_ITERATIONS`` residuals must be at most ``PICARD_RESIDUAL_TOL``
    times the ``L^2`` norm of the precondition.  The residuals before it
    need not fall, since at roundoff they wiggle.
    """

    def __init__(self, lattice: Lattice, params: NlsParams, n_nodes: int = PICARD_NODES):
        self.lattice, self.params, self.n_nodes = lattice, params, n_nodes
        self.tau: float | None = None

    def solve(self, v: np.ndarray, tau: float, n_iter: int) -> tuple[np.ndarray, list[float]]:
        """The last node's state, ``tau`` after ``v``, from ``n_iter`` iterations, and their residuals."""
        lat, n_nodes = self.lattice, self.n_nodes
        if tau != self.tau:
            self.tau = tau
            sigma = _fft_symbol(lat)
            ds = tau / (n_nodes - 1)
            nodes = np.arange(n_nodes) * ds
            self.phases = np.exp(-1j * nodes.reshape((n_nodes,) + (1,) * lat.d) * sigma)
            self.step = np.exp(-1j * ds * sigma)
            self.coef = 1j * self.params.effective_lam * ds
        # the states at the nodes are the rows of one array, transformed together
        axes = tuple(range(1, lat.d + 1))
        free_hats = np.fft.fftn(v) * self.phases
        current = np.fft.ifftn(free_hats, axes=axes)
        residuals: list[float] = []
        for _ in range(n_iter):
            nl_hats = np.fft.fftn(np.abs(current) ** (self.params.p - 1.0) * current, axes=axes)
            # Trapezoid sum of step^(j-l) nl_hats[l] over l <= j by the recurrence
            # tail_j = step tail_{j-1} + nl_hats[j], tail_0 = nl_hats[0] / 2.
            acc = np.empty_like(nl_hats[1:])
            tail = 0.5 * nl_hats[0]
            for j in range(1, n_nodes):
                tail = self.step * tail + nl_hats[j]
                acc[j - 1] = tail - 0.5 * nl_hats[j]
            new = np.concatenate(
                [current[:1], np.fft.ifftn(free_hats[1:] - self.coef * acc, axes=axes)])
            sq_dist = np.sum(np.abs(new - current).reshape(n_nodes, -1) ** 2, axis=1)
            residuals.append(math.sqrt(lat.cell_volume * float(sq_dist.max())))
            current = new
        return current[-1].copy(), residuals

    def __call__(self, v: np.ndarray, n: int, tau: float) -> np.ndarray:
        lat = self.lattice
        for _ in range(n):
            norm = math.sqrt(lat.cell_volume * float(np.sum(np.abs(v) ** 2)))
            factor = _contraction_factor(lat, norm, self.params, tau)
            if factor >= 1.0:
                raise ValueError(
                    f"contraction precondition violated: factor {factor:.3g} >= 1; "
                    f"largest admissible T is about {tau / factor:.3g}"
                )
            v, residuals = self.solve(v, tau, PICARD_ITERATIONS)
            if not residuals[-1] <= PICARD_RESIDUAL_TOL * norm:
                raise IntegrationDivergedError(
                    f"Picard step at dt={tau} did not converge: residual {residuals[-1]:.3e} "
                    f"after {len(residuals)} iterations exceeds {PICARD_RESIDUAL_TOL:.0e} "
                    f"|u|_2 = {PICARD_RESIDUAL_TOL * norm:.3e}"
                )
        return v


# The stepper of each integrator, built from ``(lattice, params)``: ``advance(v, n, tau)``
# takes ``n`` steps of ``tau`` from the raw array ``v`` in unshifted FFT layout.
_STEPPERS: dict[str, Callable[[Lattice, NlsParams], Callable]] = {
    "strang": lambda lattice, params: _SplitStep(_fft_symbol(lattice), params),
    "rk4": _Rk4Step,
    "duhamel_picard": _PicardStep,
}
INTEGRATORS = tuple(_STEPPERS)


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
    spec = np.fft.fftn(v, out=np.empty(v.shape, dtype=np.complex128))
    power = np.square(spec.real)
    power += np.square(spec.imag, out=spec.imag)  # the spectrum is spent: square in place
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

    @classmethod
    def load(cls, directory) -> "Trajectory":
        directory = Path(directory)
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
        if manifest.get("schema_version") != 1:
            raise ValueError(f"unsupported trajectory schema {manifest.get('schema_version')!r}")
        params = _from_manifest(NlsParams, manifest, "params")
        config = _from_manifest(EvolutionConfig, manifest, "config")
        names, times, rows = (_entry(manifest, key, "manifest")
                              for key in ("snapshots", "times", "conserved"))
        if not len(names) == len(times) == len(rows):
            raise ValueError(
                f"manifest lists {len(names)} snapshots, {len(times)} times "
                f"and {len(rows)} conserved rows"
            )
        lattice = _from_manifest(Lattice, manifest, "lattice")
        states = [read_grid(directory / name) for name in names]
        for name, state in zip(names, states):
            if state.lattice != lattice:
                raise ValueError(
                    f"snapshot {name} is on (d={state.lattice.d}, M={state.lattice.M}), "
                    f"the manifest says (d={lattice.d}, M={lattice.M})"
                )
        cons = [ConservedQuantities(*(_entry(row, key, f"manifest conserved row {i}")
                                      for key in ("mass", "energy")))
                for i, row in enumerate(rows)]
        return cls(params, config, list(times), states, cons)


def _entry(table: dict, key: str, where: str):
    """``table[key]``; a missing key raises a ``ValueError`` naming it and ``where``."""
    if key not in table:
        raise ValueError(f"{where} lacks the key {key!r}")
    return table[key]


def _from_manifest(cls: type, manifest: dict, key: str):
    """``cls(**manifest[key])``; an unknown or missing key raises a ``ValueError`` naming it."""
    given, known = _entry(manifest, key, "manifest"), {field.name: field for field in fields(cls)}
    for name in given:
        if name not in known:
            raise ValueError(f"manifest {key} has unknown key {name!r}")
    for name, field in known.items():
        if field.default is MISSING:
            _entry(given, name, f"manifest {key}")
    return cls(**given)


def _focusing_warning(params: NlsParams, lattice: Lattice, stacklevel: int = 3) -> None:
    critical = 1.0 + 4.0 / lattice.d
    if params.lam < 0 and params.coupling > 0 and params.p >= critical:
        warnings.warn(
            f"focusing nonlinearity with p={params.p} >= 1 + 4/d = {critical:g} (mass-critical) "
            f"in d={lattice.d}: no global bound is guaranteed; results may blow up",
            stacklevel=stacklevel,
        )


def _sorted_times(times: Sequence[float]) -> list[float]:
    times = [float(t) for t in times]
    if (any(not 0 <= t < math.inf for t in times) or sorted(times) != times
            or len(set(times)) != len(times)):
        raise ValueError(f"times must be sorted, distinct, finite and >= 0, got {times}")
    return times


def _check_dt(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _drive(advance: Callable, v, times: Iterable[float], dt: float) -> Iterator:
    """Yield the state at each of ``times`` (sorted, >= 0), starting from ``v`` at 0.

    The segment from the previous time takes ``n = ceil(span/dt)`` steps
    through ``advance(v, n, tau)``, so no step is longer than ``dt``:
    ``tau = dt`` when the span is a whole number of steps and ``tau =
    span/n`` otherwise.  A time ``t`` carries a rounding error that grows
    with ``t``, so "whole" holds to ``1e-9 max(1, t/dt)`` steps: a run read
    at every step time ``j dt`` takes steps of ``dt`` whatever ``j`` is.
    """
    current = 0.0
    for t in times:
        span = t - current
        if span > 0:
            steps, slack = span / dt, 1e-9 * max(1.0, t / dt)
            n = max(1, math.ceil(steps - slack))
            v = advance(v, n, dt if abs(steps - n) <= slack else span / n)
            current = t
        yield v


def _raw_states(
    u0: GridFunction, params: NlsParams, times: Iterable[float], dt: float, integrator: str
) -> Iterator[np.ndarray]:
    """Raw arrays in unshifted FFT layout at ``times`` (see :func:`_drive`) under ``integrator``.

    Each yielded array belongs to the stepper: read it, never write into it.
    """
    advance = _STEPPERS[integrator](u0.lattice, params)
    return _drive(advance, np.fft.ifftshift(u0.values), times, dt)


def _lattice_states(
    u0: GridFunction, params: NlsParams, times: Iterable[float], dt: float, integrator: str
) -> Iterator[GridFunction]:
    """:func:`_raw_states` shifted back to centred values that the caller owns."""
    for v in _raw_states(u0, params, times, dt, integrator):
        yield GridFunction(u0.lattice, np.fft.fftshift(v))


def recorded_steps(
    u0: GridFunction, params: NlsParams, config: EvolutionConfig
) -> Iterator[tuple[float, GridFunction, ConservedQuantities]]:
    """Yield ``(t, state, conserved)`` at every recorded step, as it is reached.

    The initial and final states are always recorded, and every
    ``record_stride``-th step between them.  The step numbers are produced
    lazily, so a run builds no list of its ``n_steps`` steps.
    """
    _focusing_warning(params, u0.lattice, stacklevel=4)
    dt, stride, n_steps = config.dt, config.record_stride, config.n_steps

    def recorded() -> Iterable[int]:
        return itertools.chain(range(0, n_steps + 1, stride), [n_steps] if n_steps % stride else [])

    flow = _lattice_states(u0, params, (j * dt for j in recorded()), dt, config.integrator)
    for j, u in zip(recorded(), flow):
        yield j * dt, u, conserved(u, params)


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
    source memory is O(grid) whatever the number of snapshots.  The manifest
    holds ``lattice``, ``params`` and ``config`` as dataclass fields, which
    :meth:`Trajectory.load` reads back.  Returns the ``(t, conserved)`` rows.
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
        "lattice": asdict(lattice),
        "params": asdict(params),
        "config": asdict(config),
        "times": [t for t, _ in rows],
        "snapshots": names,
        "conserved": [{"t": t, "mass": c.mass, "energy": c.energy} for t, c in rows],
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return rows


def evolve(u0: GridFunction, params: NlsParams, config: EvolutionConfig) -> Trajectory:
    """Integrate to ``t_final`` and keep every record of :func:`recorded_steps`.

    The trajectory holds all its states in memory; to record a long run,
    pipe :func:`recorded_steps` into :func:`write_trajectory` instead.
    """
    times, states, cons = map(list, zip(*recorded_steps(u0, params, config)))
    return Trajectory(params, config, times, states, cons)


def evolve_capture(
    u0: GridFunction,
    params: NlsParams,
    dt: float,
    times: Sequence[float],
) -> list[GridFunction]:
    """Strang states at the requested times (sorted, >= 0), stepped as in :func:`_drive` at any coupling."""
    times = _sorted_times(times)
    _check_dt(dt)
    _focusing_warning(params, u0.lattice)
    return list(_lattice_states(u0, params, times, dt, "strang"))


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
# Continuum reference solver
# ---------------------------------------------------------------------------


# The certificate's tail: modes with |k|_inf > TAIL_FRACTION * resolution,
# the outer quarter of the 2/3 dealias band |k|_inf <= resolution / 3.
TAIL_FRACTION = 0.25


def _is_odd_integer(p: float) -> bool:
    return abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 1


@functools.lru_cache(maxsize=1)
def _collocation_symbol(d: int, resolution: int, band: int | None) -> np.ndarray:
    """``|k|^2`` in FFT order, read-only; in d=2 with a band, on the band's modes only.

    The symbol is the outer sum of the per-axis squares.  The last one is
    kept, so the two lockstep runs of a reference share it.
    """
    square = np.fft.ifftshift(np.arange(-(resolution // 2), resolution // 2)).astype(float) ** 2
    if d == 2 and band is not None:
        square = square[square <= band**2]
    symbol = functools.reduce(np.add.outer, [square] * d)
    symbol.flags.writeable = False
    return symbol


def _collocation_stepper(d: int, params: NlsParams, resolution: int) -> _SplitStep:
    """The Strang kernel of the collocation solver: symbol ``|k|^2``, band ``resolution // 3``.

    The band (2/3 dealias rule) applies for odd integer ``p`` only.
    """
    band = resolution // 3 if _is_odd_integer(params.p) else None
    return _SplitStep(_collocation_symbol(d, resolution, band), params, band, keep_closing=False)


def _collocated(v: np.ndarray, resolution: int) -> TrigPolynomial:
    """The trig polynomial whose values at the points ``h p`` (unshifted layout) are ``v``.

    Its coefficients are the one new array: ``fftn`` writes into it, and
    ``fftshift`` (even sides) centres it in place.
    """
    fine = Lattice(v.ndim, resolution // 2)
    coeffs = np.fft.fftn(v, out=np.empty(v.shape, dtype=np.complex128))
    coeffs *= fine.cell_volume
    _half_shift(coeffs)
    return TrigPolynomial([fine.frequencies()] * fine.d, coeffs, tag="reference")


def _grid_distance(a: np.ndarray, b: np.ndarray, vol: float) -> float:
    """``(vol sum |a - b|^2)^{1/2}``, summed in blocks of rows of ``_SUM_BLOCK`` points.

    For the values of two collocated states at the points ``h p`` this is,
    by Parseval, the ``L^2`` distance of their trig polynomials.
    """
    total = 0.0
    for block in _row_blocks(a, _SUM_BLOCK):
        diff = a[block] - b[block]
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
