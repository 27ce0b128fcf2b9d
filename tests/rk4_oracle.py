"""Test-side oracle for the RK4 stepper: one step as plain array expressions.

:func:`rk4_step` is the classical RK4 step of the lattice equation written
with fresh arrays for every stage and every stencil pass, the form the
stepper :class:`lnls.dynamics._Rk4Step`, whose stencil pads its input in
kept buffers, must reproduce bit for bit.
"""
from __future__ import annotations

import numpy as np

from lnls.dynamics import NlsParams
from lnls.lattice import Lattice


def stencil(v: np.ndarray, h: float) -> np.ndarray:
    """``sum_j (v[i+1] + v[i-1] - 2 v[i]) / h^2``, each axis padded by one wrapped row at each end."""
    out = np.zeros(v.shape, dtype=np.complex128)
    two_v = 2.0 * v
    for j in range(v.ndim):
        lead = (slice(None),) * j
        first, last = lead + (slice(0, 1),), lead + (slice(-1, None),)
        padded = np.concatenate([v[last], v, v[first]], axis=j)
        pair = padded[lead + (slice(2, None),)] + padded[lead + (slice(None, -2),)]
        pair -= two_v
        out += pair
    out /= h**2
    return out


def rk4_step(v: np.ndarray, lattice: Lattice, params: NlsParams, dt: float) -> np.ndarray:
    """One RK4 step of ``dv/dt = i (Lap_h v - lam |v|^{p-1} v)`` from the values ``v``."""
    h, lam, q = lattice.h, params.effective_lam, params.p - 1.0

    def rhs(w: np.ndarray) -> np.ndarray:
        return 1j * (stencil(w, h) - lam * np.abs(w) ** q * w)

    k1 = rhs(v)
    k2 = rhs(v + 0.5 * dt * k1)
    k3 = rhs(v + 0.5 * dt * k2)
    k4 = rhs(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
