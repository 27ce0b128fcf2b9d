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
``interpolate``), the ``L^2`` distance between an interpolant and a
continuum profile (exact for trig polynomials), and a simple binary
serialization of grid data.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .continuum import TrigPolynomial

logger = logging.getLogger(__name__)

GRID_MAGIC = b"LNLSGRID"
_HEADER = struct.Struct("<8sHHI")  # magic, d, reserved, M (little endian)


@functools.cache
def _gauss_legendre_8() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 8-point Gauss-Legendre rule mapped to [0, 1).

    The rule is exact for degree <= 15.  It is built on first use, because
    ``numpy.polynomial`` is an import that only generic samplers need.
    """
    x, w = np.polynomial.legendre.leggauss(8)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    routines and ``cell_averages`` the one used by ``discretize``; subclasses
    override either when a faster or exact structured form exists.
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

    def cell_averages(self, lattice: Lattice) -> np.ndarray:
        """Averages ``h^{-d} int_{x + [0,h)^d} f`` over every cell, as a ``lattice.shape`` array.

        The per-cell integral uses a tensorized 8-point Gauss-Legendre rule, so
        it is exact for per-axis polynomial degree <= 15 and spectrally
        accurate for smooth profiles.  Subclasses override it when the
        averages have a closed form.
        """
        h = lattice.h
        gl_nodes, gl_weights = _gauss_legendre_8()
        # All quadrature nodes along one axis, cell-major: shape (2M * 8,).
        axis_nodes = (lattice.axis_coords()[:, None] + h * gl_nodes[None, :]).ravel()
        vals = self.on_tensor_grid([axis_nodes] * lattice.d)
        n = lattice.n_per_axis
        if lattice.d == 1:
            return vals.reshape(n, 8) @ gl_weights
        cellwise = vals.reshape(n, 8, n, 8)
        return np.einsum("aibj,i,j->ab", cellwise, gl_weights, gl_weights, optimize=True)


def discretize(f: ContinuumSampler, lattice: Lattice) -> GridFunction:
    """Cell-average discretization ``(d_h f)(x) = h^{-d} int_{x + [0,h)^d} f``.

    The averages come from ``f.cell_averages``: in closed form for a trig
    polynomial, by 8-point Gauss-Legendre quadrature for any other sampler.
    """
    if f.d != lattice.d:
        raise LatticeMismatchError(f"sampler dimension {f.d} != lattice dimension {lattice.d}")
    return GridFunction(lattice, f.cell_averages(lattice))


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


def _interpolant_coefficients(u: GridFunction, modes: Sequence[np.ndarray]) -> np.ndarray:
    """Fourier coefficients ``int p_h u e^{-ik.x} dx`` of the interpolant on a tensor mode set.

    On the cell ``x_m + [0, h)^d`` the interpolant is ``u_m + sum_j S_j(x_m) tau_j``
    with ``S_j = D+_j u``, so mode ``k`` collects
    ``U(k) prod_i I0(k_i) + sum_j S_j(k) I1(k_j) prod_{i != j} I0(k_i)``, where
    ``U`` and ``S_j`` are the sums ``sum_m (.)_m e^{-ik.x_m}``, periodic with
    period ``2M`` in each ``k_j``, and ``S_j(k) = U(k) (e^{ik_j h} - 1) / h``.
    """
    lat = u.lattice
    h, n = lat.h, lat.n_per_axis
    spectrum = np.fft.fftn(np.fft.ifftshift(u.values))  # slot k mod 2M in FFT order
    whole = np.ones((1,) * lat.d, dtype=np.complex128)
    slopes = np.zeros((1,) * lat.d, dtype=np.complex128)
    for axis, k in enumerate(modes):
        i0, i1 = _cell_moments(k, h)
        shape = [1] * lat.d
        shape[axis] = len(k)
        i0, slope = i0.reshape(shape), ((np.exp(1j * h * k) - 1.0) / h * i1).reshape(shape)
        slopes = slopes * i0 + whole * slope
        whole = whole * i0
    return spectrum[np.ix_(*[k % n for k in modes])] * (whole + slopes)


def _trig_polynomial_l2_error(u: GridFunction, f: TrigPolynomial) -> float:
    """Exact ``|p_h u - f|_{L^2}`` for a trig polynomial ``f`` with distinct modes, by Plancherel.

    With ``K`` the modes of ``f`` and ``g`` the interpolant's coefficients on
    ``K``, the square splits as ``(|p_h u|^2 - |P_K p_h u|^2) + |P_K p_h u - f|^2``:
    the interpolant's mass outside ``K`` (from :func:`interpolant_l2_norm`)
    plus ``(2 pi)^{-d} sum_K |g - c|^2``.  Neither part subtracts ``|f|^2``
    from a cross term, so a small error is not lost to cancellation.
    """
    scale = (2.0 * math.pi) ** -u.lattice.d
    g = _interpolant_coefficients(u, f.modes)
    outside = interpolant_l2_norm(u) ** 2 - scale * float(np.sum(np.abs(g) ** 2))
    inside = scale * float(np.sum(np.abs(g - f.coeffs) ** 2))
    return float(math.sqrt(max(outside, 0.0) + inside))


def continuum_l2_error(
    u: GridFunction, f: ContinuumSampler, oversample: int = 8
) -> float:
    """``L^2`` distance between the interpolant of ``u`` and the sampler ``f``.

    For a :class:`~lnls.continuum.TrigPolynomial` the distance is exact
    (Plancherel on the modes of ``f`` plus the interpolant's closed-form
    norm) and ``oversample`` is not used.  Any other sampler is compared on
    the midpoint refinement of the lattice cells with spacing
    ``h/oversample``, and the difference is integrated by the midpoint rule,
    which converges at ``O(oversample^-2)``.
    """
    from .continuum import TrigPolynomial

    lat = u.lattice
    if f.d != lat.d:
        raise LatticeMismatchError(f"sampler dimension {f.d} != lattice dimension {lat.d}")
    if isinstance(f, TrigPolynomial):
        return _trig_polynomial_l2_error(u, f)
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
