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
coarsest scale ``N_* = h/(2 pi)``, Sobolev norms ``H_h^s``, and
measured-constant sweeps for the discrete Sobolev / Gagliardo-Nirenberg /
frequency-localized norm inequalities.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import GridFunction, Lattice, LatticeMismatchError, _lattice_array, lebesgue_norm
from .records import ExperimentRecord


class SpectrumFunction:
    """Function on the dual lattice ``{-M..M-1}^d``, slot ``k + M``."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: np.ndarray):
        self.lattice = lattice
        self.values = _lattice_array(lattice, values, "spectrum")

    def copy(self) -> "SpectrumFunction":
        return SpectrumFunction(self.lattice, self.values.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpectrumFunction(d={self.lattice.d}, M={self.lattice.M})"


def _half_shift(v: np.ndarray) -> None:
    """``fftshift`` of ``v`` in place: every axis has the same even length ``2M``.

    The shift by ``M`` on every axis swaps each block of the ``2^d`` half
    blocks with its opposite, through one block-sized copy; the shift is its
    own inverse, so it is ``ifftshift`` too.
    """
    halves = (slice(None, v.shape[0] // 2), slice(v.shape[0] // 2, None))
    for corner in itertools.product((0, 1), repeat=v.ndim - 1):
        low = (halves[0], *(halves[c] for c in corner))
        high = (halves[1], *(halves[1 - c] for c in corner))
        block = v[low].copy()
        v[low] = v[high]
        v[high] = block
        del block  # so that two blocks are never alive at once


def _to_space(v: np.ndarray, lattice: Lattice) -> np.ndarray:
    """:func:`inverse` of the centred spectrum ``v``, computed in ``v`` and returned."""
    _half_shift(v)
    np.fft.ifftn(v, out=v)
    _half_shift(v)
    return np.divide(v, lattice.cell_volume, out=v)


def _filtered(u: GridFunction, factor: np.ndarray) -> GridFunction:
    """``inverse(forward(u) * factor)``, computed in one owned array."""
    spec = forward(u).values
    return GridFunction(u.lattice, _to_space(np.multiply(spec, factor, out=spec), u.lattice))


def forward(u: GridFunction) -> SpectrumFunction:
    """Lattice Fourier transform ``(F u)(k) = h^d sum_x u(x) e^{-ik.x}``."""
    spec = u.values.copy()
    _half_shift(spec)
    np.fft.fftn(spec, out=spec)
    _half_shift(spec)
    return SpectrumFunction(u.lattice, np.multiply(u.lattice.cell_volume, spec, out=spec))


def inverse(s: SpectrumFunction) -> GridFunction:
    """Inverse transform ``u(x) = (2 pi)^{-d} sum_k (F u)(k) e^{ik.x}``."""
    return GridFunction(s.lattice, _to_space(s.values.copy(), s.lattice))


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


def _axis_symbol(h: float, k: np.ndarray) -> np.ndarray:
    """One axis ``(4/h^2) sin^2(h k / 2)`` of ``sigma_h`` at the modes ``k``.

    Every reader of the symbol calls this; ``(2/h^2)(1 - cos h k)`` cancels at small ``h k``.
    """
    return (4.0 / h**2) * np.sin(h * k / 2.0) ** 2


@functools.cache
def laplacian_symbol(lattice: Lattice) -> np.ndarray:
    """Positive symbol ``sigma_h(k) = sum_j (4/h^2) sin^2(h k_j / 2)`` of ``-Laplacian``.

    The outer sum of the per-axis vector over the ``d`` axes, built once per
    lattice; the cached array is read-only.
    """
    axis = _axis_symbol(lattice.h, lattice.frequencies())
    sig = functools.reduce(np.add.outer, [axis] * lattice.d)
    sig.flags.writeable = False
    return sig


def apply_multiplier(u: GridFunction, m: Multiplier) -> GridFunction:
    if u.lattice != m.lattice:
        raise LatticeMismatchError("multiplier and grid function lattices differ")
    return _filtered(u, m.symbol)


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


@functools.lru_cache(maxsize=4)
def _max_abs_frequency(lattice: Lattice) -> np.ndarray:
    """``|k|_inf`` on the dual lattice, kept for the last few lattices; read-only.

    The outer maximum of the per-axis ``|k_j|`` over the ``d`` axes.
    """
    out = functools.reduce(np.maximum.outer, [np.abs(lattice.frequencies())] * lattice.d)
    out.flags.writeable = False
    return out


def _annulus_mask(scale: DyadicScale) -> np.ndarray:
    maxk = _max_abs_frequency(scale.lattice)
    if scale.is_base:
        return maxk == 0
    cut = scale.mode_cutoff
    return (maxk > cut / 2.0) & (maxk <= cut)


def _scale_of(u: GridFunction, scale: DyadicScale) -> DyadicScale:
    """``scale``, checked to be on the lattice of ``u``."""
    if scale.lattice != u.lattice:
        raise LatticeMismatchError("scale and grid function lattices differ")
    return scale


def lp_project(u: GridFunction, scale: DyadicScale) -> GridFunction:
    """Dyadic frequency projection ``P_N u`` (sharp annulus cut-off)."""
    return _filtered(u, _annulus_mask(_scale_of(u, scale)))


# ---------------------------------------------------------------------------
# Sobolev calculus
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _bracket_sq(lattice: Lattice) -> np.ndarray:
    """``<k>^2 = 1 + |k|^2`` on the dual lattice, kept for the last few lattices; read-only.

    The outer sum of 1 and the per-axis ``k_j^2`` over the ``d`` axes.
    """
    out = functools.reduce(np.add.outer, [lattice.frequencies().astype(float) ** 2] * lattice.d, 1.0)
    out.flags.writeable = False
    return out


def _power_sobolev_norm(power: np.ndarray, lattice: Lattice, s: float) -> float:
    """:func:`sobolev_norm` from the power spectrum ``|Fu|^2``."""
    weighted = _bracket_sq(lattice) ** s
    weighted *= power
    return float(math.sqrt(np.sum(weighted) / (2.0 * math.pi) ** lattice.d))


def sobolev_norm(u: GridFunction, s: float) -> float:
    """``H_h^s`` norm ``((2 pi)^{-d} sum_k <k>^{2s} |Fu(k)|^2)^{1/2}``."""
    return _power_sobolev_norm(np.abs(forward(u).values) ** 2, u.lattice, s)


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
    with ``metadata["skipped"]`` set.  The records of each element come from
    :func:`inequality_records`, which measures every kind of one element.
    """
    if not corpus:
        raise ValueError("empty corpus")
    return [rec for u in corpus
            for rec in inequality_records(u, (kind,), s=s, theta=theta, epsilon=epsilon)[0]]


def inequality_records(
    u: GridFunction,
    kinds: Sequence[str],
    *,
    s: float | None = None,
    theta: float | None = None,
    epsilon: float = 0.1,
) -> list[list[ExperimentRecord]]:
    """The :func:`inequality_sweep` records of one element, per kind in ``kinds``.

    ``u`` is transformed once: its power spectrum gives the Sobolev norms
    of "sobolev" and "gagliardo_nirenberg" and is then dropped, and its
    spectrum gives every annulus of "bernstein".  The annuli are projected
    one after another into one buffer, each transformed in place, so a
    call holds a few grids beside ``u`` whatever the number of scales.
    The ``|k|_inf`` and ``<k>^2`` tables are built once per lattice.  So a
    corpus streamed one element at a time through all kinds gives the
    records of one sweep per kind, in the same order and with the same bits.
    """
    lat, h = u.lattice, u.lattice.h
    exponents = [inequality_exponent(kind, lat.d, s=s, theta=theta, epsilon=epsilon)
                 for kind in kinds]
    spec = forward(u).values
    power = np.abs(spec)
    power **= 2
    h_s = _power_sobolev_norm(power, lat, s + epsilon) if "sobolev" in kinds else None
    h_one = _power_sobolev_norm(power, lat, 1) if "gagliardo_nirenberg" in kinds else None
    del power
    l2 = lebesgue_norm(u, 2)
    projection = np.empty_like(spec) if "bernstein" in kinds else None
    out: list[list[ExperimentRecord]] = []
    for kind, q in zip(kinds, exponents):
        name = f"ineq_{kind}"
        if kind == "sobolev":
            if h_s == 0.0:
                out.append([ExperimentRecord(name, h, 0.0, None, q=q, epsilon=epsilon,
                                             metadata={"skipped": "zero input"})])
            else:
                lhs = lebesgue_norm(u, q)
                out.append([ExperimentRecord(name, h, lhs, lhs / h_s, q=q, epsilon=epsilon,
                                             metadata={"s": s})])
        elif l2 == 0.0:
            out.append([ExperimentRecord(name, h, 0.0, None, q=q,
                                         metadata={"skipped": "zero input"})])
        elif kind == "gagliardo_nirenberg":
            lhs = lebesgue_norm(u, q)
            rhs = l2 ** (1.0 - theta) * h_one ** theta
            out.append([ExperimentRecord(name, h, lhs, lhs / rhs, q=q,
                                         metadata={"theta": theta})])
        else:  # bernstein
            recs = []
            for scale in dyadic_scales(lat):
                np.multiply(spec, _annulus_mask(scale), out=projection)
                lhs = lebesgue_norm(GridFunction(lat, _to_space(projection, lat)), q)
                rhs = (scale.value / h) ** s * l2
                recs.append(ExperimentRecord(name, h, lhs, lhs / rhs, N=scale.value, q=q,
                                             metadata={"s": s}))
            out.append(recs)
    return out
