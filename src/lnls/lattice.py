"""Dense periodic lattices and the calculus that lives on them.

The spatial domain is the uniform grid ``T_h^d`` of spacing ``h = pi/M``
inside the periodic box ``[-pi, pi)^d`` (``d`` = 1 or 2, ``M`` a power of
two).  Grid points are ``x = h*m`` with integer coordinates
``m in {-M, ..., M-1}``; index ``m`` is stored at array slot ``m + M``,
row-major, axis 0 slowest.

This module provides grid functions and their Lebesgue calculus
(norms, forward differences, the Dirichlet energy and the five/three-point
Laplacian), the transfer operators between lattice and continuum, and a
simple binary serialization of grid data.  Every continuum
profile is a :class:`~lnls.continuum.TrigPolynomial`, so both transfers are
in closed form: ``discretize`` takes its exact cell averages, and
:func:`continuum_l2_error` is the exact ``L^2`` distance between the
piecewise-affine interpolant ``p_h u`` and the profile, summed over blocks
of the profile's modes so that a large reference costs no reference-size
temporaries.  The tests' oracles for this calculus (the Hoelder pairing,
backward differences and the direct wrapped convolution) live in
``tests/lattice_oracle.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .continuum import TrigPolynomial

GRID_MAGIC = b"LNLSGRID"
_HEADER = struct.Struct("<8sHHI")  # magic, d, reserved, M (little endian)


class LatticeMismatchError(ValueError):
    """An operation mixed grid functions living on different lattices."""


class NumericalAccuracyError(RuntimeError):
    """A quadrature or reference computation failed its accuracy check."""


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic grid with ``2M`` points per axis and spacing ``h = pi/M``."""

    d: int
    M: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"lattice dimension must be 1 or 2, got d={self.d}")
        if self.M < 1 or (self.M & (self.M - 1)) != 0:
            raise ValueError(f"M must be a positive power of two, got M={self.M}")

    @property
    def h(self) -> float:
        return math.pi / self.M

    @property
    def n_per_axis(self) -> int:
        return 2 * self.M

    @property
    def n_points(self) -> int:
        return self.n_per_axis**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_coords(self) -> np.ndarray:
        """Point coordinates ``h*m`` for ``m = -M..M-1`` (slot ``m + M``)."""
        return self.h * np.arange(-self.M, self.M)

    def frequencies(self) -> np.ndarray:
        """Integer dual-lattice frequencies ``-M..M-1`` (slot ``k + M``)."""
        return np.arange(-self.M, self.M)

    def meshgrid(self) -> list[np.ndarray]:
        c = self.axis_coords()
        return np.meshgrid(*([c] * self.d), indexing="ij")

    @classmethod
    def from_spacing(cls, d: int, h: float) -> "Lattice":
        """Build the lattice with spacing ``h``; ``h`` must equal ``pi/M`` exactly."""
        M = int(round(math.pi / h)) if h > 0 else 0
        if M < 1 or abs(M * h - math.pi) > 1e-12 * math.pi:
            raise ValueError(f"spacing {h!r} is not pi/M for integer M")
        return cls(d, M)


def _lattice_array(lattice: Lattice, values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as a finite complex array of ``lattice.shape`` (a flat one is reshaped)."""
    v = np.asarray(values, dtype=np.complex128)
    if v.shape == (lattice.n_points,):
        v = v.reshape(lattice.shape)
    if v.shape != lattice.shape:
        raise ValueError(f"values shape {v.shape} incompatible with lattice shape {lattice.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite entries")
    return v


class GridFunction:
    """Complex-valued function on a :class:`Lattice`, stored as a dense array."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: np.ndarray):
        self.lattice = lattice
        self.values = _lattice_array(lattice, values, "grid function")

    @classmethod
    def zeros(cls, lattice: Lattice) -> "GridFunction":
        return cls(lattice, np.zeros(lattice.shape, dtype=np.complex128))

    def copy(self) -> "GridFunction":
        return GridFunction(self.lattice, self.values.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        require_same_lattice(self, other)
        return GridFunction(self.lattice, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        require_same_lattice(self, other)
        return GridFunction(self.lattice, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.lattice, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.lattice, -self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lat = self.lattice
        return f"GridFunction(d={lat.d}, M={lat.M})"


def require_same_lattice(*fns: GridFunction) -> Lattice:
    lat = fns[0].lattice
    for g in fns[1:]:
        if g.lattice != lat:
            raise LatticeMismatchError(
                f"grid functions live on different lattices: {g.lattice} vs {lat}"
            )
    return lat


# ---------------------------------------------------------------------------
# Lebesgue calculus
# ---------------------------------------------------------------------------


def lebesgue_norm(u: GridFunction, r: float) -> float:
    """Lattice Lebesgue norm ``(h^d sum |u|^r)^(1/r)``; sup norm for ``r = inf``."""
    if not r >= 1:
        raise ValueError(f"Lebesgue exponent must satisfy r >= 1, got r={r}")
    a = np.abs(u.values)
    if math.isinf(r):
        return float(a.max())
    a **= r
    return float((u.lattice.cell_volume * np.sum(a)) ** (1.0 / r))


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------


def forward_difference(u: GridFunction, axis: int = 0) -> GridFunction:
    """Forward difference ``(u(x + h e_j) - u(x)) / h`` along ``axis``."""
    lat = u.lattice
    if not 0 <= axis < lat.d:
        raise ValueError(f"axis {axis} out of range for d={lat.d}")
    shifted = np.roll(u.values, -1, axis=axis)
    return GridFunction(lat, (shifted - u.values) / lat.h)


def gradient_norm_sq(u: GridFunction) -> float:
    """``sum_j |D+_j u|_{L^2}^2``, the discrete Dirichlet energy."""
    return sum(lebesgue_norm(forward_difference(u, j), 2) ** 2 for j in range(u.lattice.d))


class _Stencil:
    """Second differences ``sum_j (v[i+1] + v[i-1] - 2 v[i]) / h^2`` of periodic arrays.

    Each axis adds ``(v[i+1] + v[i-1]) - 2 v`` to a zero-initialised sum,
    which is then divided by ``h^2``.  The neighbours are slices of ``v``
    padded by one wrapped row at each end, so an axis of length 2 pairs
    each point with the other one twice.  The arrays have one shape, and
    the buffers are kept between calls: a call returns the sum buffer,
    which the next call overwrites.
    """

    def __init__(self, shape: tuple[int, ...], h: float):
        self.h = h
        self.out, self.two, self.pair = (np.empty(shape, dtype=np.complex128) for _ in range(3))
        # per axis: the views (v's slot, first row, last row, upper and lower
        # neighbours) of the padded array, and the indices of v's last and first rows
        self.axes = []
        for j in range(len(shape)):
            pad = np.empty(shape[:j] + (shape[j] + 2,) + shape[j + 1:], dtype=np.complex128)
            lead = (slice(None),) * j
            views = tuple(pad[lead + (cut,)] for cut in (
                slice(1, -1), slice(0, 1), slice(-1, None), slice(2, None), slice(None, -2)))
            self.axes.append((views, lead + (slice(-1, None),), lead + (slice(0, 1),)))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out, two, pair = self.out, self.two, self.pair
        out[...] = 0
        np.multiply(2.0, v, out=two)
        for (inner, first, last, upper, lower), v_last, v_first in self.axes:
            inner[...] = v
            first[...] = v[v_last]
            last[...] = v[v_first]
            np.add(upper, lower, out=pair)
            pair -= two
            out += pair
        out /= self.h**2
        return out


def discrete_laplacian_stencil(u: GridFunction) -> GridFunction:
    """Second-difference Laplacian ``sum_j (u(x+he_j) - 2u(x) + u(x-he_j)) / h^2``."""
    return GridFunction(u.lattice, _Stencil(u.lattice.shape, u.lattice.h)(u.values))


# ---------------------------------------------------------------------------
# Transfer operators between lattice and continuum
# ---------------------------------------------------------------------------


def discretize(f: TrigPolynomial, lattice: Lattice) -> GridFunction:
    """Cell-average discretization ``(d_h f)(x) = h^{-d} int_{x + [0,h)^d} f``, in closed form."""
    if f.d != lattice.d:
        raise LatticeMismatchError(f"profile dimension {f.d} != lattice dimension {lattice.d}")
    return GridFunction(lattice, f.cell_averages(lattice))


def interpolant_l2_norm(u: GridFunction) -> float:
    """Exact ``L^2([-pi,pi)^d)`` norm of the piecewise-affine interpolant.

    A cell with value ``a`` and slopes ``s_j = D+_j u`` holds ``h^d (|a|^2 + h Re(a* sum s_j)
    + (h^2/3) sum |s_j|^2 + (h^2/2) sum_{i<j} Re(s_i* s_j))``, the same formula in every ``d``.
    """
    lat = u.lattice
    h = lat.h
    a = u.values
    s = [forward_difference(u, j).values for j in range(lat.d)]
    cell = (np.abs(a) ** 2
            + h * np.real(np.conj(a) * functools.reduce(np.add, s))
            + (h**2 / 3.0) * functools.reduce(np.add, [np.abs(sj) ** 2 for sj in s]))
    for si, sj in itertools.combinations(s, 2):
        cell += (h**2 / 2.0) * np.real(np.conj(si) * sj)
    return float(math.sqrt(max(np.sum(lat.cell_volume * cell), 0.0)))


# |kh| below which the first cell moment is summed from its Taylor series;
# 18 terms reach rounding there, and the closed form loses at most a few ulps above.
_MOMENT_SERIES_BELOW = 0.5


def _first_moment_series(theta: np.ndarray) -> np.ndarray:
    """``int_0^1 s e^{-i theta s} ds = sum_n (-i theta)^n / (n! (n + 2))``."""
    term = np.ones(np.shape(theta), dtype=np.complex128)
    total = np.zeros(np.shape(theta), dtype=np.complex128)
    for n in range(18):
        total += term / (n + 2)
        term = term * (-1j * theta) / (n + 1)
    return total


def _first_moment_closed(theta: np.ndarray) -> np.ndarray:
    """``int_0^1 s e^{-i theta s} ds = i e^{-i theta} / theta - (1 - e^{-i theta}) / theta^2``."""
    e = np.exp(-1j * theta)
    return 1j * e / theta - (1.0 - e) / theta**2


def _cell_moments(k: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``I0(k) = int_0^h e^{-ik tau} dtau`` and ``I1(k) = int_0^h tau e^{-ik tau} dtau``."""
    theta = h * np.asarray(k, dtype=float)
    i0 = h * np.exp(-0.5j * theta) * np.sinc(theta / (2.0 * math.pi))
    small = np.abs(theta) < _MOMENT_SERIES_BELOW
    i1 = np.empty(theta.shape, dtype=np.complex128)
    i1[small] = _first_moment_series(theta[small])
    i1[~small] = _first_moment_closed(theta[~small])
    return i0, h**2 * i1


def _interpolant_factors(
    u: GridFunction, modes: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The lattice spectrum and, per axis, the slots ``k mod 2M`` and the factors ``I0``, ``J``.

    ``J(k) = (e^{ikh} - 1) / h * I1(k)`` is the factor that the slope term
    ``D+_j u`` of the interpolant gains on its own axis.
    """
    lat = u.lattice
    h, n = lat.h, lat.n_per_axis
    spectrum = np.fft.fftn(np.fft.ifftshift(u.values))  # slot k mod 2M in FFT order
    axes = []
    for k in modes:
        i0, i1 = _cell_moments(k, h)
        axes.append((k % n, i0, (np.exp(1j * h * k) - 1.0) / h * i1))
    return spectrum, axes


def _interpolant_block(
    spectrum: np.ndarray, axes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], rows: slice
) -> np.ndarray:
    """The interpolant's coefficients on the modes whose axis-0 index lies in ``rows``."""
    d = len(axes)
    whole = np.ones((1,) * d, dtype=np.complex128)
    slopes = np.zeros((1,) * d, dtype=np.complex128)
    slots = []
    for axis, (slot, i0, slope) in enumerate(axes):
        if axis == 0:
            slot, i0, slope = slot[rows], i0[rows], slope[rows]
        shape = [1] * d
        shape[axis] = len(slot)
        i0, slope = i0.reshape(shape), slope.reshape(shape)
        slopes = slopes * i0 + whole * slope
        whole = whole * i0
        slots.append(slot)
    return spectrum[np.ix_(*slots)] * (whole + slopes)


# points (or modes) per block of a blockwise sum: 64 KiB of complex128
_SUM_BLOCK = 1 << 12


def _row_blocks(a: np.ndarray, points: int) -> Iterator[slice]:
    """Consecutive slices of the rows of ``a``, of at most ``points`` points each (at least one row)."""
    rows = max(1, points * len(a) // max(a.size, 1))
    return (slice(start, start + rows) for start in range(0, len(a), rows))


def continuum_l2_error(u: GridFunction, f: TrigPolynomial, oversample: int = 8) -> float:
    """Exact ``|p_h u - f|_{L^2}`` for a trig polynomial ``f`` with distinct modes, by Plancherel.

    With ``K`` the modes of ``f`` and ``g`` the interpolant's coefficients on
    ``K``, the square splits as ``(|p_h u|^2 - |P_K p_h u|^2) + |P_K p_h u - f|^2``:
    the interpolant's mass outside ``K`` (from :func:`interpolant_l2_norm`)
    plus ``(2 pi)^{-d} sum_K |g - c|^2``.  Neither part subtracts ``|f|^2``
    from a cross term, so a small error is not lost to cancellation.  The
    lattice spectrum and the per-axis cell moments are computed once; both
    sums then run over blocks of rows of ``K`` of about ``_SUM_BLOCK``
    modes, so a call holds O(lattice + block) memory whatever the size of
    ``K``.  ``oversample`` is accepted for existing callers and ignored.
    """
    if f.d != u.lattice.d:
        raise LatticeMismatchError(f"profile dimension {f.d} != lattice dimension {u.lattice.d}")
    scale = (2.0 * math.pi) ** -u.lattice.d
    spectrum, axes = _interpolant_factors(u, f.modes)
    projected = inside = 0.0
    for block in _row_blocks(f.coeffs, _SUM_BLOCK):
        g = _interpolant_block(spectrum, axes, block)
        projected += float(np.sum(np.abs(g) ** 2))
        g -= f.coeffs[block]
        inside += float(np.sum(np.abs(g) ** 2))
    outside = interpolant_l2_norm(u) ** 2 - scale * projected
    return float(math.sqrt(max(outside, 0.0) + scale * inside))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_grid(u: GridFunction, path) -> None:
    """Write ``u`` as header + little-endian interleaved (re, im) float64."""
    header = _HEADER.pack(GRID_MAGIC, u.lattice.d, 0, u.lattice.M)
    payload = np.ascontiguousarray(u.values, dtype="<c16")  # no copy for native complex128
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)  # the buffer itself, not a tobytes() copy


def read_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"file {path} too short for header")
    magic, d, _reserved, M = _HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise ValueError(f"bad magic {magic!r} in {path}, expected {GRID_MAGIC!r}")
    lat = Lattice(int(d), int(M))
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    if data.size != lat.n_points:
        raise ValueError(
            f"payload has {data.size} entries, lattice needs {lat.n_points}"
        )
    return GridFunction(lat, data.reshape(lat.shape).astype(np.complex128))
