"""Test-side oracle for the reference solver: one plain collocation run.

:func:`collocation_states` is the Fourier collocation Strang solve that
:func:`lnls.dynamics.reference_trajectory` certifies, run once at a given
resolution and step with no step doubling and no certificate, so a test can
check the reference's states and its distances against it.
"""
from __future__ import annotations

from typing import Sequence

from lnls.continuum import TrigPolynomial
from lnls.dynamics import NlsParams, _collocated, _collocation_stepper, _drive


def collocation_states(
    u0: TrigPolynomial,
    params: NlsParams,
    times: Sequence[float],
    resolution: int,
    dt: float,
) -> list[TrigPolynomial]:
    """Fourier collocation Strang solve of the continuum equation (``|k|^2`` symbol).

    The initial sample comes from one inverse FFT at the points ``h p``,
    which is the kernel's unshifted layout already.
    """
    advance = _collocation_stepper(u0.d, params, resolution)
    return [_collocated(v, resolution)
            for v in _drive(advance, u0.on_uniform_grid(resolution), times, dt)]
