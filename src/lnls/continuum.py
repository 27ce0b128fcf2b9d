"""Continuum profiles on the periodic box ``[-pi, pi)^d``.

Every continuum profile is a trigonometric polynomial
``f(x) = (2 pi)^{-d} sum_k c_k exp(i k.x)`` with coefficients over a tensor
set of integer modes, matching the lattice transform normalization.  This
gives exact Sobolev norms, exact free Schroedinger evolution, exact cell
averages (the per-axis factor ``e^{ikh/2} sinc(kh/2)``, so ``discretize``
needs no quadrature) and the exact ``L^2`` distance to a lattice interpolant
(see :func:`~lnls.lattice.continuum_l2_error`).  On a uniform grid
``x0 + 2 pi p / n`` per axis, :meth:`TrigPolynomial.on_uniform_grid` folds
the modes to ``k mod n`` and finishes with one inverse FFT; cell averages,
the reference solver's initial sample and the sup norm use it.  Calling a
profile sums its modes densely at arbitrary points, the oracle that the
tests check the structured paths against.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .lattice import Lattice
    from .util import Draws

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_SUP_BLOCK_POINTS = 2**16  # grid points per column block of TrigPolynomial.sup_norm


class TrigPolynomial:
    """Trig polynomial with coefficients on a tensor grid of integer modes."""

    def __init__(self, modes: Sequence[np.ndarray], coeffs: np.ndarray, tag: str = ""):
        d = len(modes)
        if d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got d={d}")
        self.modes = tuple(np.asarray(m, dtype=np.int64) for m in modes)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        expected = tuple(len(m) for m in self.modes)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient shape {coeffs.shape} != mode grid shape {expected}")
        self.coeffs = coeffs
        self.d = d
        self.tag = tag

    # -- evaluation ---------------------------------------------------------

    def on_uniform_grid(
        self, n: int, x0: float = 0.0, weight: Callable[[np.ndarray], np.ndarray] | None = None
    ) -> np.ndarray:
        """Values at the points ``x0 + 2 pi p / n``, each mode weighted by ``prod_j w(k_j)``.

        The result has shape ``(n,) * d``, point ``p`` at slot ``p`` on every
        axis (``p = 0..n-1``).  On each axis the coefficients are scaled by ``w(k) e^{ik x0}``
        (``w = 1`` without ``weight``) and folded to ``k mod n``; the folds
        accumulate, since ``e^{ikx}`` and ``e^{i(k mod n)x}`` agree on the grid.
        One ``ifftn`` of the folded array, in place and scaled by
        ``n^d (2 pi)^{-d}``, then gives every point.  No dense product is
        formed.
        """
        scaled = self.coeffs
        slot = np.zeros((1,) * self.d, dtype=np.int64)
        for axis, m in enumerate(self.modes):
            factor = np.exp(1j * x0 * m)
            if weight is not None:
                factor *= weight(m)
            shape = [1] * self.d
            shape[axis] = len(m)
            scaled = scaled * factor.reshape(shape)
            slot = slot * n + (m % n).reshape(shape)
        folded = np.zeros((n,) * self.d, dtype=np.complex128)
        np.add.at(folded.reshape(-1), np.broadcast_to(slot, scaled.shape).ravel(), scaled.ravel())
        np.fft.ifftn(folded, out=folded)
        folded *= (n / TWO_PI) ** self.d
        return folded

    def cell_averages(self, lattice: Lattice) -> np.ndarray:
        """Exact cell averages: mode ``k`` gains ``(1/h) int_0^h e^{ik tau} dtau`` per axis.

        That factor is ``e^{ikh/2} sinc(kh/2)``, so the averages are the
        values at the cell midpoints ``-pi + h/2 + h p`` of the profile with
        each mode weighted by ``sinc(kh/2)``, which stays accurate as
        ``kh -> 0``; :meth:`on_uniform_grid` evaluates them.
        """
        h = lattice.h
        return self.on_uniform_grid(
            lattice.n_per_axis, -math.pi + 0.5 * h, lambda k: np.sinc(k * (h / TWO_PI)))

    def __call__(self, *coords: np.ndarray) -> np.ndarray:
        """Dense sum over the modes at arbitrary points; the coordinate arrays broadcast."""
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinate arrays, got {len(coords)}")
        mats = [np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), m))
                for x, m in zip(coords, self.modes)]
        scale = TWO_PI**-self.d
        if self.d == 1:
            return scale * np.einsum("...i,i->...", mats[0], self.coeffs)
        return scale * np.einsum("...i,...j,ij->...", *mats, self.coeffs, optimize=True)

    # -- exact functionals --------------------------------------------------

    def _bracket_sq(self) -> np.ndarray:
        """``<k>^2`` on the mode grid: the outer sum of 1 and the per-axis ``k_j^2``."""
        return functools.reduce(np.add.outer, [m.astype(float) ** 2 for m in self.modes], 1.0)

    def _abs_k_sq(self) -> np.ndarray:
        return self._bracket_sq() - 1.0

    def sobolev_norm(self, s: float) -> float:
        """Exact ``H^s`` norm ``((2 pi)^{-d} sum <k>^{2s} |c_k|^2)^{1/2}``."""
        total = np.sum(self._bracket_sq() ** s * np.abs(self.coeffs) ** 2)
        return float(math.sqrt(total * TWO_PI**-self.d))

    def l2_norm(self) -> float:
        return self.sobolev_norm(0.0)

    def tail_norm(self, cutoff: float) -> float:
        """Exact ``L^2`` norm of the part on modes with ``|k|_inf > cutoff``.

        Those modes are the outer "or" of the per-axis masks ``|k_j| > cutoff``.
        """
        far = functools.reduce(np.logical_or.outer, [np.abs(m) > cutoff for m in self.modes])
        return float(math.sqrt(np.sum(np.abs(self.coeffs[far]) ** 2) * TWO_PI**-self.d))

    def sup_norm(self, oversample: int = 4) -> float:
        """Max of ``|f|`` on a uniform grid resolving every mode ``oversample`` times.

        It is ``max |on_uniform_grid(n)|`` bit for bit, but in d=2 no grid of
        ``n^2`` points is built.  The passes run in ``ifftn``'s order: the
        axis-1 pass on the rows that hold folded coefficients (every other
        row of the grid is zero), then the axis-0 pass over blocks of
        columns, keeping the running max.
        """
        span = max(2 * (int(np.max(np.abs(m))) + 1) for m in self.modes)
        n = max(32, oversample * span)
        if self.d == 1:
            return float(np.max(np.abs(self.on_uniform_grid(n))))
        rows, row_of = np.unique(self.modes[0] % n, return_inverse=True)
        folded = np.zeros((len(rows), n), dtype=np.complex128)
        np.add.at(folded, (row_of[:, None], (self.modes[1] % n)[None, :]), self.coeffs)
        np.fft.ifft(folded, axis=1, out=folded)
        width = max(1, _SUP_BLOCK_POINTS // n)
        peak = 0.0
        for start in range(0, n, width):
            block = np.zeros((n, min(width, n - start)), dtype=np.complex128)
            block[rows] = folded[:, start:start + width]
            np.fft.ifft(block, axis=0, out=block)
            block *= (n / TWO_PI) ** 2
            peak = max(peak, float(np.max(np.abs(block))))
        return peak

    # -- algebra ------------------------------------------------------------

    def free_evolved(self, t: float) -> "TrigPolynomial":
        """Exact free evolution ``exp(i t Laplacian)``: phases ``exp(-i t |k|^2)``."""
        phased = self.coeffs * np.exp(-1j * t * self._abs_k_sq())
        return TrigPolynomial(self.modes, phased, tag=self.tag)

    def scaled(self, factor: complex) -> "TrigPolynomial":
        return TrigPolynomial(self.modes, factor * self.coeffs, tag=self.tag)

    def l2_distance(self, other: "TrigPolynomial") -> float:
        """Exact ``L^2`` distance, aligning the two mode grids."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        axes_ranges = []
        for ax in range(self.d):
            lo = min(self.modes[ax].min(), other.modes[ax].min())
            hi = max(self.modes[ax].max(), other.modes[ax].max())
            axes_ranges.append(np.arange(lo, hi + 1))
        shape = tuple(len(r) for r in axes_ranges)
        acc = np.zeros(shape, dtype=np.complex128)
        for poly, sign in ((self, 1.0), (other, -1.0)):
            idx = tuple(
                np.searchsorted(axes_ranges[ax], poly.modes[ax]) for ax in range(self.d)
            )
            acc[np.ix_(*idx)] += sign * poly.coeffs
        return float(math.sqrt(np.sum(np.abs(acc) ** 2) * TWO_PI**-self.d))


# ---------------------------------------------------------------------------
# Profile factories
# ---------------------------------------------------------------------------


def plane_wave(d: int, k0: Sequence[int], amplitude: complex = 1.0) -> TrigPolynomial:
    """``A exp(i k0 . x)`` as a single-mode trig polynomial."""
    k0 = tuple(int(k) for k in k0)
    if len(k0) != d:
        raise ValueError(f"k0 must have {d} components, got {len(k0)}")
    modes = [np.array([k], dtype=np.int64) for k in k0]
    coeffs = np.full((1,) * d, amplitude * TWO_PI**d, dtype=np.complex128)
    return TrigPolynomial(modes, coeffs, tag=f"plane_wave{k0}")


def wrapped_gaussian(
    d: int, width: float = 0.6, center: Sequence[float] | None = None
) -> TrigPolynomial:
    """Periodized Gaussian ``sum_n exp(-|x - c - 2 pi n|^2 / (2 w^2))``.

    Represented through its exact Fourier coefficients
    ``c_k = prod_j w sqrt(2 pi) exp(-w^2 k_j^2 / 2) exp(-i k_j c_j)``, the
    outer product of the per-axis vectors, truncated below relative
    magnitude 1e-18.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if center is None:
        center = (0.0,) * d
    if len(center) != d:
        raise ValueError(f"center must have {d} components")
    kmax = int(math.ceil(math.sqrt(2.0 * 18.0 * math.log(10.0)) / width)) + 1
    k = np.arange(-kmax, kmax + 1)
    axis_coeffs = [
        width * math.sqrt(TWO_PI) * np.exp(-0.5 * width**2 * k.astype(float) ** 2)
        * np.exp(-1j * k * c)
        for c in center
    ]
    coeffs = functools.reduce(np.multiply.outer, axis_coeffs)
    return TrigPolynomial([k] * d, coeffs, tag=f"wrapped_gaussian(w={width})")


def random_low_modes(
    d: int,
    rng: Draws | np.random.Generator,
    max_mode: int = 3,
    n_modes: int = 8,
) -> TrigPolynomial:
    """Sum of at most ``n_modes`` random modes with ``|k_j| <= max_mode``, unit ``H^1`` norm.

    ``rng`` is a :class:`~lnls.util.Draws` or a numpy ``Generator``.
    """
    if max_mode < 0:
        raise ValueError(f"max_mode must be >= 0, got {max_mode}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    k = np.arange(-max_mode, max_mode + 1)
    width = len(k)
    coeffs = np.zeros((width,) * d, dtype=np.complex128)
    flat_choices = rng.choice(width**d, size=min(n_modes, width**d), replace=False)
    amplitudes = rng.standard_normal(len(flat_choices)) + 1j * rng.standard_normal(len(flat_choices))
    coeffs.ravel()[flat_choices] = amplitudes * TWO_PI**d / math.sqrt(len(flat_choices))
    poly = TrigPolynomial([k] * d, coeffs, tag=f"random_low_modes(<= {max_mode})")
    norm = poly.sobolev_norm(1.0)
    if norm > 0:
        poly = poly.scaled(1.0 / norm)
        poly.tag += " H1-normalized"
    return poly


def box_sobolev_norm(f: TrigPolynomial, s: float, resolution: int = 256) -> float:
    """Exact continuum ``H^s`` norm; ``resolution`` is accepted for existing callers and ignored."""
    return f.sobolev_norm(s)
