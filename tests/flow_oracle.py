"""Test-side oracles for the lattice flows: free flow, nonlinear phase, Strang step, energy.

:func:`linear_flow` exponentiates the real-space stencil matrix, whose
columns are :func:`~lnls.lattice.discrete_laplacian_stencil` applied to unit
vectors, with ``scipy.linalg.expm``.  It never reads the symbol ``sigma_h``,
so a wrong symbol in ``lnls.spectral`` moves the Strang stepper and not this
oracle.  The matrix has ``(2M)^d`` rows, so keep to small lattices.
:func:`nonlinear_phase_step` multiplies by ``exp(-i lam dt |u|^{p-1})``
through ``np.exp``, not the library's Taylor series for the rotation.
:func:`energy` takes the kinetic part from forward differences, not from the
spectrum.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from lnls.dynamics import NlsParams
from lnls.lattice import (
    GridFunction,
    Lattice,
    discrete_laplacian_stencil,
    gradient_norm_sq,
    lebesgue_norm,
)


@functools.cache
def stencil_matrix(lattice: Lattice) -> np.ndarray:
    """The discrete Laplacian as a real ``n_points x n_points`` matrix on row-major values."""
    unit = np.eye(lattice.n_points)
    return np.stack([discrete_laplacian_stencil(GridFunction(lattice, e)).values.real.ravel()
                     for e in unit], axis=1)


@functools.lru_cache(maxsize=8)
def _propagator(lattice: Lattice, t: float) -> np.ndarray:
    return scipy.linalg.expm(1j * t * stencil_matrix(lattice))


def linear_flow(u: GridFunction, t: float) -> GridFunction:
    """Free propagator ``exp(i t Lap_h) u``."""
    lat = u.lattice
    return GridFunction(lat, (_propagator(lat, t) @ u.values.ravel()).reshape(lat.shape))


def nonlinear_phase_step(u: GridFunction, params: NlsParams, dt: float) -> GridFunction:
    """Exact solution of ``i du/dt = lam |u|^{p-1} u`` over ``dt``: ``u exp(-i lam dt |u|^{p-1})``."""
    modulus = np.abs(u.values) ** (params.p - 1.0)
    return GridFunction(u.lattice, u.values * np.exp(-1j * params.effective_lam * dt * modulus))


def strang_step(u: GridFunction, params: NlsParams, dt: float) -> GridFunction:
    """One Strang step ``N(dt/2) L(dt) N(dt/2)``, each substep a fresh grid function."""
    half = nonlinear_phase_step(u, params, dt / 2.0)
    return nonlinear_phase_step(linear_flow(half, dt), params, dt / 2.0)


def energy(u: GridFunction, params: NlsParams) -> float:
    """``1/2 sum_j |D+_j u|_2^2 + lam/(p+1) |u|_{p+1}^{p+1}``."""
    q = params.p + 1.0
    return 0.5 * gradient_norm_sq(u) + params.effective_lam / q * lebesgue_norm(u, q) ** q
