"""Dense periodic lattices and the calculus that lives on them.

The spatial domain is the uniform grid ``T_h^d`` of spacing ``h = pi/M``
inside the periodic box ``[-pi, pi)^d`` (``d`` = 1 or 2, ``M`` a power of
two).  Grid points are ``x = h*m`` with integer coordinates
``m in {-M, ..., M-1}``; index ``m`` is stored at array slot ``m + M``,
row-major, axis 0 slowest.

This module provides grid functions and their Lebesgue calculus
(norms, Hoelder pairing, periodic convolution, forward differences and the
five/three-point Laplacian), the transfer operators between lattice and
continuum (cell averaging ``discretize`` and piecewise-affine
``interpolate``), and a simple binary serialization of grid data.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

GRID_MAGIC = b"LNLSGRID"
_HEADER = struct.Struct("<8sHHI")  # magic, d, reserved, M (little endian)

# 8-point Gauss-Legendre rule mapped to [0, 1); exact for degree <= 15.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_X + 1.0)
_GL_WEIGHTS = 0.5 * _GL_W


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

    def frequency_meshgrid(self) -> list[np.ndarray]:
        k = self.frequencies()
        return np.meshgrid(*([k] * self.d), indexing="ij")

    @classmethod
    def from_spacing(cls, d: int, h: float) -> "Lattice":
        """Build the lattice with spacing ``h``; ``h`` must equal ``pi/M`` exactly."""
        M = int(round(math.pi / h)) if h > 0 else 0
        if M < 1 or abs(M * h - math.pi) > 1e-12 * math.pi:
            raise ValueError(f"spacing {h!r} is not pi/M for integer M")
        return cls(d, M)


class GridFunction:
    """Complex-valued function on a :class:`Lattice`, stored as a dense array."""

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
            raise ValueError("grid function contains non-finite entries")
        self.lattice = lattice
        self.values = v

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
    if r < 1:
        raise ValueError(f"Lebesgue exponent must satisfy r >= 1, got r={r}")
    a = np.abs(u.values)
    if math.isinf(r):
        return float(a.max())
    vol = u.lattice.cell_volume
    return float((vol * np.sum(a**r)) ** (1.0 / r))


def inner_product(u: GridFunction, v: GridFunction) -> complex:
    """Sesquilinear pairing ``h^d sum u * conj(v)``."""
    lat = require_same_lattice(u, v)
    return complex(lat.cell_volume * np.sum(u.values * np.conj(v.values)))


def holder_check(
    u: GridFunction, v: GridFunction, p: float, q: float, r: float
) -> tuple[float, float]:
    """Return ``(|uv|_r, |u|_p * |v|_q)`` for exponents with ``1/p + 1/q = 1/r``."""
    require_same_lattice(u, v)
    inv = (0.0 if math.isinf(p) else 1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q)
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    if abs(inv - inv_r) > 1e-12:
        raise ValueError(f"exponents violate 1/p + 1/q = 1/r: p={p}, q={q}, r={r}")
    prod = GridFunction(u.lattice, u.values * v.values)
    return lebesgue_norm(prod, r), lebesgue_norm(u, p) * lebesgue_norm(v, q)


def convolve(u: GridFunction, v: GridFunction) -> GridFunction:
    """Periodic lattice convolution ``(u*v)(x) = h^d sum_y u(x-y) v(y)``.

    The lattice transform maps it to the pointwise product ``Fu * Fv``.
    """
    from .spectral import SpectrumFunction, forward, inverse

    lat = require_same_lattice(u, v)
    return inverse(SpectrumFunction(lat, forward(u).values * forward(v).values))


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


def backward_difference(u: GridFunction, axis: int = 0) -> GridFunction:
    """Backward difference ``(u(x) - u(x - h e_j)) / h`` along ``axis``."""
    lat = u.lattice
    if not 0 <= axis < lat.d:
        raise ValueError(f"axis {axis} out of range for d={lat.d}")
    shifted = np.roll(u.values, 1, axis=axis)
    return GridFunction(lat, (u.values - shifted) / lat.h)


def gradient_norm_sq(u: GridFunction) -> float:
    """``sum_j |D+_j u|_{L^2}^2``, the discrete Dirichlet energy."""
    return sum(lebesgue_norm(forward_difference(u, j), 2) ** 2 for j in range(u.lattice.d))


def laplacian_stencil_values(v: np.ndarray, h: float) -> np.ndarray:
    """Second differences ``sum_j (v[i+1] + v[i-1] - 2 v[i]) / h^2`` of a periodic array.

    Each axis adds ``(v[i+1] + v[i-1]) - 2 v`` to a zero-initialised sum,
    which is then divided by ``h^2``.  The neighbours are slices of ``v``
    padded by one wrapped row at each end, so an axis of length 2 pairs
    each point with the other one twice.
    """
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


def discrete_laplacian_stencil(u: GridFunction) -> GridFunction:
    """Second-difference Laplacian ``sum_j (u(x+he_j) - 2u(x) + u(x-he_j)) / h^2``."""
    return GridFunction(u.lattice, laplacian_stencil_values(u.values, u.lattice.h))


# ---------------------------------------------------------------------------
# Continuum samplers and the transfer operators
# ---------------------------------------------------------------------------


class ContinuumSampler:
    """Function on the periodic box ``[-pi, pi)^d``, evaluable at arbitrary points.

    ``tag`` records how the profile was built (documentation of test corpora
    only).  ``on_tensor_grid`` is the bulk entry point used by the quadrature
    routines; subclasses override it when a faster structured evaluation
    exists.
    """

    def __init__(self, fn: Callable[..., np.ndarray], d: int, tag: str = ""):
        if d not in (1, 2):
            raise ValueError(f"sampler dimension must be 1 or 2, got d={d}")
        self.fn = fn
        self.d = d
        self.tag = tag

    def __call__(self, *coords: np.ndarray) -> np.ndarray:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinate arrays, got {len(coords)}")
        return np.asarray(self.fn(*coords), dtype=np.complex128)

    def on_tensor_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on the tensor grid spanned by the 1-d coordinate arrays."""
        if len(axes) != self.d:
            raise ValueError(f"expected {self.d} axes, got {len(axes)}")
        mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")
        return np.asarray(self(*mesh), dtype=np.complex128)


def discretize(f: ContinuumSampler, lattice: Lattice) -> GridFunction:
    """Cell-average discretization ``(d_h f)(x) = h^{-d} int_{x + [0,h)^d} f``.

    The per-cell integral uses a tensorized 8-point Gauss-Legendre rule, so
    it is exact for per-axis polynomial degree <= 15 and spectrally accurate
    for smooth profiles.
    """
    if f.d != lattice.d:
        raise LatticeMismatchError(f"sampler dimension {f.d} != lattice dimension {lattice.d}")
    h = lattice.h
    coords = lattice.axis_coords()
    # All quadrature nodes along one axis, cell-major: shape (2M * 8,).
    axis_nodes = (coords[:, None] + h * _GL_NODES[None, :]).ravel()
    vals = f.on_tensor_grid([axis_nodes] * lattice.d)
    n = lattice.n_per_axis
    if lattice.d == 1:
        cellwise = vals.reshape(n, 8)
        avg = cellwise @ _GL_WEIGHTS
    else:
        cellwise = vals.reshape(n, 8, n, 8)
        avg = np.einsum("aibj,i,j->ab", cellwise, _GL_WEIGHTS, _GL_WEIGHTS, optimize=True)
    return GridFunction(lattice, avg)


class InterpolantSampler(ContinuumSampler):
    """Piecewise-affine extension of a grid function.

    On the cell ``x0 + [0, h)^d`` the value is
    ``u(x0) + sum_j (D+_j u)(x0) * (x - x0)_j``; the extension is continuous
    in d = 1 but may jump across cell faces in d = 2.  Coordinates are
    wrapped periodically, and points within a relative ``1e-9`` of a cell
    face are snapped to it so lattice points reproduce grid values exactly.
    """

    _SNAP = 1e-9

    def __init__(self, u: GridFunction):
        self.u = u
        self.d = u.lattice.d
        self.tag = "interpolant"
        self._slopes = [forward_difference(u, j).values for j in range(self.d)]

    def _cells_and_offsets(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lat = self.u.lattice
        h = lat.h
        # Position in cell units relative to the box corner -pi.
        s = (np.asarray(x, dtype=float) + math.pi) / h
        s = np.mod(s, lat.n_per_axis)
        m = np.floor(s).astype(np.intp)
        frac = s - m
        snap = frac > 1.0 - self._SNAP
        m = np.where(snap, m + 1, m) % lat.n_per_axis
        frac = np.where(snap, 0.0, frac)
        return m, frac * h

    def __call__(self, *coords: np.ndarray) -> np.ndarray:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinate arrays, got {len(coords)}")
        cells = []
        offsets = []
        for x in coords:
            m, delta = self._cells_and_offsets(x)
            cells.append(m)
            offsets.append(delta)
        if self.d == 1:
            out = self.u.values[cells[0]] + self._slopes[0][cells[0]] * offsets[0]
        else:
            idx = tuple(np.broadcast_arrays(*cells))
            out = self.u.values[idx]
            for j in range(self.d):
                out = out + self._slopes[j][idx] * np.broadcast_to(offsets[j], idx[0].shape)
        return np.asarray(out, dtype=np.complex128)

    def on_tensor_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        if len(axes) != self.d:
            raise ValueError(f"expected {self.d} axes, got {len(axes)}")
        open_mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij", sparse=True)
        return self(*open_mesh)


def interpolate(u: GridFunction) -> InterpolantSampler:
    """Affine interpolation operator: grid function -> continuum sampler."""
    return InterpolantSampler(u)


def interpolant_l2_norm(u: GridFunction) -> float:
    """Exact ``L^2([-pi,pi)^d)`` norm of the piecewise-affine interpolant."""
    lat = u.lattice
    h = lat.h
    a = u.values
    s = [forward_difference(u, j).values for j in range(lat.d)]
    if lat.d == 1:
        cell = h * (
            np.abs(a) ** 2
            + h * np.real(np.conj(a) * s[0])
            + (h**2 / 3.0) * np.abs(s[0]) ** 2
        )
    else:
        cell = h**2 * (
            np.abs(a) ** 2
            + h * np.real(np.conj(a) * (s[0] + s[1]))
            + (h**2 / 3.0) * (np.abs(s[0]) ** 2 + np.abs(s[1]) ** 2)
            + (h**2 / 2.0) * np.real(np.conj(s[0]) * s[1])
        )
    return float(math.sqrt(max(np.sum(cell), 0.0)))


def interpolant_h1_norm(u: GridFunction) -> float:
    """Broken ``H^1`` norm of the interpolant (cell-wise gradients, exact integrals)."""
    lat = u.lattice
    grad_sq = lat.cell_volume * sum(
        float(np.sum(np.abs(forward_difference(u, j).values) ** 2)) for j in range(lat.d)
    )
    return float(math.sqrt(interpolant_l2_norm(u) ** 2 + grad_sq))


def refined_midpoint_axes(lattice: Lattice, oversample: int) -> list[np.ndarray]:
    """Midpoints of each cell's ``oversample``-fold subdivision, per axis."""
    if oversample < 4:
        raise ValueError(f"oversample must be >= 4, got {oversample}")
    n = lattice.n_per_axis * oversample
    step = lattice.h / oversample
    axis = -math.pi + (np.arange(n) + 0.5) * step
    return [axis] * lattice.d


def continuum_l2_error(
    u: GridFunction, f: ContinuumSampler, oversample: int = 8
) -> float:
    """``L^2`` distance between the interpolant of ``u`` and the sampler ``f``.

    Both are evaluated on the midpoint refinement of the lattice cells with
    spacing ``h/oversample`` and the difference is integrated by the midpoint
    rule.
    """
    lat = u.lattice
    if f.d != lat.d:
        raise LatticeMismatchError(f"sampler dimension {f.d} != lattice dimension {lat.d}")
    axes = refined_midpoint_axes(lat, oversample)
    diff = interpolate(u).on_tensor_grid(axes) - f.on_tensor_grid(axes)
    vol = (lat.h / oversample) ** lat.d
    return float(math.sqrt(vol * np.sum(np.abs(diff) ** 2)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_grid(u: GridFunction, path) -> None:
    """Write ``u`` as header + little-endian interleaved (re, im) float64."""
    header = _HEADER.pack(GRID_MAGIC, u.lattice.d, 0, u.lattice.M)
    payload = np.ascontiguousarray(u.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


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
