"""Fourier calculus on the dual lattice.

Conventions: with points ``x = h*m`` and integer frequencies
``k in {-M, ..., M-1}^d`` (slot ``k + M``),

    forward:  (F u)(k) = h^d  sum_x u(x) exp(-i k.x)
    inverse:  u(x) = (2 pi)^{-d} sum_k (F u)(k) exp(i k.x)

so Plancherel reads ``(2 pi)^{-d} sum_k |Fu|^2 = h^d sum_x |u|^2``.  Both
sides are stored in centered layout; the FFT index bijection is handled by
``fftshift``/``ifftshift``.

On top of the transform pair: Fourier multipliers (in particular the
discrete Laplacian symbol), dyadic frequency projections down to the
coarsest scale ``N_* = h/(2 pi)``, Sobolev norms ``H_h^s``, fractional
derivatives ``<grad>^s``, and measured-constant sweeps for the discrete
Sobolev / Gagliardo-Nirenberg / frequency-localized norm inequalities.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lattice import GridFunction, Lattice, LatticeMismatchError, lebesgue_norm
from .records import ExperimentRecord

logger = logging.getLogger(__name__)

__all__ = [
    "SpectrumFunction",
    "Multiplier",
    "DyadicScale",
    "forward",
    "inverse",
    "laplacian_symbol",
    "apply_multiplier",
    "dyadic_scales",
    "lp_project",
    "lowpass_project",
    "sobolev_norm",
    "fractional_derivative",
    "inequality_exponent",
    "inequality_sweep",
]


class SpectrumFunction:
    """Function on the dual lattice ``{-M..M-1}^d``, slot ``k + M``."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: np.ndarray):
        v = np.asarray(values, dtype=np.complex128)
        if v.shape == (lattice.n_points,):
            v = v.reshape(lattice.shape)
        if v.shape != lattice.shape:
            raise ValueError(
                f"values shape {v.shape} incompatible with lattice shape {lattice.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum contains non-finite entries")
        self.lattice = lattice
        self.values = v

    def copy(self) -> "SpectrumFunction":
        return SpectrumFunction(self.lattice, self.values.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpectrumFunction(d={self.lattice.d}, M={self.lattice.M})"


def forward(u: GridFunction) -> SpectrumFunction:
    """Lattice Fourier transform ``(F u)(k) = h^d sum_x u(x) e^{-ik.x}``."""
    lat = u.lattice
    axes = tuple(range(lat.d))
    spec = np.fft.fftn(np.fft.ifftshift(u.values, axes=axes), axes=axes)
    return SpectrumFunction(lat, lat.cell_volume * np.fft.fftshift(spec, axes=axes))


def inverse(s: SpectrumFunction) -> GridFunction:
    """Inverse transform ``u(x) = (2 pi)^{-d} sum_k (F u)(k) e^{ik.x}``."""
    lat = s.lattice
    axes = tuple(range(lat.d))
    vals = np.fft.ifftn(np.fft.ifftshift(s.values, axes=axes), axes=axes)
    return GridFunction(lat, np.fft.fftshift(vals, axes=axes) / lat.cell_volume)


@dataclass(frozen=True)
class Multiplier:
    """Fourier multiplier: pointwise symbol on the dual lattice."""

    lattice: Lattice
    symbol: np.ndarray

    def __post_init__(self) -> None:
        sym = np.asarray(self.symbol)
        if sym.shape != self.lattice.shape:
            raise ValueError(
                f"symbol shape {sym.shape} incompatible with lattice shape {self.lattice.shape}"
            )
        object.__setattr__(self, "symbol", sym)


@functools.cache
def laplacian_symbol(lattice: Lattice) -> np.ndarray:
    """Positive symbol ``sigma_h(k) = sum_j (4/h^2) sin^2(h k_j / 2)`` of ``-Laplacian``.

    Built once per lattice; the cached array is read-only.
    """
    h = lattice.h
    sig = np.zeros(lattice.shape)
    for km in lattice.frequency_meshgrid():
        sig = sig + (4.0 / h**2) * np.sin(h * km / 2.0) ** 2
    sig.flags.writeable = False
    return sig


def apply_multiplier(u: GridFunction, m: Multiplier) -> GridFunction:
    if u.lattice != m.lattice:
        raise LatticeMismatchError("multiplier and grid function lattices differ")
    spec = forward(u)
    return inverse(SpectrumFunction(u.lattice, spec.values * m.symbol))


# ---------------------------------------------------------------------------
# Dyadic frequency decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicScale:
    """Dyadic frequency scale ``N = 2^level`` with ``N_* <= N <= 1``.

    ``N_* = h/(2 pi) = 2^{-(log2 M + 1)}`` is the coarsest scale; its
    projection keeps only the ``k = 0`` mode.  For ``N >= 2 N_*`` the
    projection keeps the annulus ``pi N/(2h) < max_j |k_j| <= pi N/h``.
    """

    lattice: Lattice
    level: int

    def __post_init__(self) -> None:
        if not self.base_level(self.lattice) <= self.level <= 0:
            raise ValueError(
                f"dyadic level {self.level} outside [{self.base_level(self.lattice)}, 0] "
                f"for M={self.lattice.M}"
            )

    @staticmethod
    def base_level(lattice: Lattice) -> int:
        # log2 of N_* = h/(2 pi) = 1/(2M); exact integer arithmetic.
        return -(lattice.M.bit_length() - 1) - 1

    @classmethod
    def of(cls, lattice: Lattice, N: float) -> "DyadicScale":
        level = round(math.log2(N))
        if abs(2.0**level - N) > 1e-12 * N:
            raise ValueError(f"N={N!r} is not a power of two")
        return cls(lattice, level)

    @property
    def value(self) -> float:
        return 2.0**self.level

    @property
    def is_base(self) -> bool:
        return self.level == self.base_level(self.lattice)

    @property
    def mode_cutoff(self) -> float:
        """Upper frequency edge ``pi N / h = N M`` (1/2 at the base scale)."""
        return self.value * self.lattice.M


def dyadic_scales(lattice: Lattice) -> list[DyadicScale]:
    """All scales from ``N_*`` up to 1, coarse to fine."""
    return [DyadicScale(lattice, lv) for lv in range(DyadicScale.base_level(lattice), 1)]


def _max_abs_frequency(lattice: Lattice) -> np.ndarray:
    mesh = lattice.frequency_meshgrid()
    out = np.abs(mesh[0])
    for km in mesh[1:]:
        out = np.maximum(out, np.abs(km))
    return out


def _annulus_mask(scale: DyadicScale) -> np.ndarray:
    maxk = _max_abs_frequency(scale.lattice)
    if scale.is_base:
        return maxk == 0
    cut = scale.mode_cutoff
    return (maxk > cut / 2.0) & (maxk <= cut)


def lp_project(u: GridFunction, scale: DyadicScale | float) -> GridFunction:
    """Dyadic frequency projection ``P_N u`` (sharp annulus cut-off)."""
    if not isinstance(scale, DyadicScale):
        scale = DyadicScale.of(u.lattice, float(scale))
    if scale.lattice != u.lattice:
        raise LatticeMismatchError("scale and grid function lattices differ")
    spec = forward(u)
    return inverse(SpectrumFunction(u.lattice, spec.values * _annulus_mask(scale)))


def lowpass_project(u: GridFunction, scale: DyadicScale | float) -> GridFunction:
    """Low-pass projection ``P_{<=N} u`` onto ``max_j |k_j| <= pi N / h``."""
    if not isinstance(scale, DyadicScale):
        scale = DyadicScale.of(u.lattice, float(scale))
    if scale.lattice != u.lattice:
        raise LatticeMismatchError("scale and grid function lattices differ")
    maxk = _max_abs_frequency(u.lattice)
    mask = maxk <= scale.mode_cutoff
    spec = forward(u)
    return inverse(SpectrumFunction(u.lattice, spec.values * mask))


# ---------------------------------------------------------------------------
# Sobolev calculus
# ---------------------------------------------------------------------------


def _bracket_sq(lattice: Lattice) -> np.ndarray:
    """``<k>^2 = 1 + |k|^2`` on the dual lattice."""
    out = np.ones(lattice.shape)
    for km in lattice.frequency_meshgrid():
        out = out + km.astype(float) ** 2
    return out


def sobolev_norm(u: GridFunction, s: float) -> float:
    """``H_h^s`` norm ``((2 pi)^{-d} sum_k <k>^{2s} |Fu(k)|^2)^{1/2}``."""
    lat = u.lattice
    spec = forward(u)
    weighted = _bracket_sq(lat) ** s * np.abs(spec.values) ** 2
    return float(math.sqrt(np.sum(weighted) / (2.0 * math.pi) ** lat.d))


def fractional_derivative(u: GridFunction, s: float) -> GridFunction:
    """Apply ``<grad>^s``, the multiplier with symbol ``<k>^s``."""
    lat = u.lattice
    return apply_multiplier(u, Multiplier(lat, _bracket_sq(lat) ** (s / 2.0)))


# ---------------------------------------------------------------------------
# Inequality sweeps (measured constants)
# ---------------------------------------------------------------------------

INEQUALITY_KINDS = ("sobolev", "gagliardo_nirenberg", "bernstein")


def _exponent_from_smoothness(s: float, d: int) -> float:
    """Solve ``1/q = 1/2 - s/d`` (``q = inf`` when s = d/2)."""
    inv = 0.5 - s / d
    return math.inf if inv <= 1e-15 else 1.0 / inv


def inequality_exponent(
    kind: str,
    d: int,
    *,
    s: float | None = None,
    theta: float | None = None,
    epsilon: float = 0.1,
) -> float:
    """Check the parameters of one :func:`inequality_sweep` kind in dimension ``d``.

    Returns the Lebesgue exponent of the left side: ``q`` with
    ``1/q = 1/2 - s/d`` for "sobolev" and "bernstein", ``p`` with
    ``1/p = 1/2 - theta/d`` for "gagliardo_nirenberg".
    """
    if kind not in INEQUALITY_KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}, expected one of {INEQUALITY_KINDS}")
    if kind == "gagliardo_nirenberg":
        if theta is None or not 0 < theta < 1:
            raise ValueError(f"gagliardo_nirenberg sweep requires 0 < theta < 1, got theta={theta}")
        if 0.5 - theta / d < -1e-15:
            raise ValueError(
                f"gagliardo_nirenberg sweep requires 1/p = 1/2 - theta/d >= 0, "
                f"got theta={theta}, d={d}"
            )
        return _exponent_from_smoothness(theta, d)
    if s is None or not 0 < s <= d / 2:
        raise ValueError(f"{kind} sweep requires 0 < s <= d/2 = {d / 2}, got s={s}")
    if kind == "sobolev" and epsilon < 0:
        raise ValueError(f"sobolev sweep requires epsilon >= 0, got {epsilon}")
    return _exponent_from_smoothness(s, d)


def inequality_sweep(
    kind: str,
    corpus: Sequence[GridFunction],
    *,
    s: float | None = None,
    theta: float | None = None,
    epsilon: float = 0.1,
) -> list[ExperimentRecord]:
    """Measure left/right ratios of a norm inequality over a corpus.

    kind = "sobolev":             |u|_{L^q}  vs  |u|_{H^{s+eps}},  1/q = 1/2 - s/d, 0 < s <= d/2
    kind = "gagliardo_nirenberg": |u|_{L^p}  vs  |u|_2^{1-th} |u|_{H^1}^th,  1/p = 1/2 - th/d
    kind = "bernstein":           |P_N u|_{L^q}  vs  (N/h)^s |u|_2 per dyadic N

    Each corpus element contributes one record (one per scale for
    "bernstein") with ``ratio`` = measured lhs/rhs; zero inputs are emitted
    with ``metadata["skipped"]`` set.
    """
    if not corpus:
        raise ValueError("empty corpus")
    exponents = {
        d: inequality_exponent(kind, d, s=s, theta=theta, epsilon=epsilon)
        for d in sorted({u.lattice.d for u in corpus})
    }
    records: list[ExperimentRecord] = []
    for u in corpus:
        h = u.lattice.h
        q = exponents[u.lattice.d]
        if kind == "sobolev":
            rhs = sobolev_norm(u, s + epsilon)
            if rhs == 0.0:
                records.append(
                    ExperimentRecord("ineq_sobolev", h, 0.0, None, q=q, epsilon=epsilon,
                                     metadata={"skipped": "zero input"})
                )
                continue
            lhs = lebesgue_norm(u, q)
            records.append(
                ExperimentRecord("ineq_sobolev", h, lhs, lhs / rhs, q=q, epsilon=epsilon,
                                 metadata={"s": s})
            )
        elif kind == "gagliardo_nirenberg":
            l2 = lebesgue_norm(u, 2)
            h1 = sobolev_norm(u, 1)
            if l2 == 0.0:
                records.append(
                    ExperimentRecord("ineq_gagliardo_nirenberg", h, 0.0, None, q=q,
                                     metadata={"skipped": "zero input"})
                )
                continue
            lhs = lebesgue_norm(u, q)
            rhs = l2 ** (1.0 - theta) * h1**theta
            records.append(
                ExperimentRecord("ineq_gagliardo_nirenberg", h, lhs, lhs / rhs, q=q,
                                 metadata={"theta": theta})
            )
        else:  # bernstein
            l2 = lebesgue_norm(u, 2)
            if l2 == 0.0:
                records.append(
                    ExperimentRecord("ineq_bernstein", h, 0.0, None, q=q,
                                     metadata={"skipped": "zero input"})
                )
                continue
            for scale in dyadic_scales(u.lattice):
                proj = lp_project(u, scale)
                lhs = lebesgue_norm(proj, q)
                rhs = (scale.value / h) ** s * l2
                records.append(
                    ExperimentRecord("ineq_bernstein", h, lhs, lhs / rhs, N=scale.value, q=q,
                                     metadata={"s": s})
                )
    return records
