"""Periodic spectral substrate: grids, fields, DFT helpers.

The domain is the periodic box prod_i [-L_i, L_i) with n_i nodes per axis
(powers of two). All solvers use trigonometric interpolation on this box, so
everything downstream inherits the row-major layout fixed here.

Fields are real, so every Fourier multiplier (derivatives, convolutions, the
semigroups of ``kernels``) acts on the ``rfftn`` half-spectrum layout: FFT
order on the leading axes, the n_last//2 + 1 nonnegative frequencies on the
last.  The complex ``fftn`` is left to kernel diagnostics that read the
whole spectrum (``coupling``).  Hot transforms pass ``s=grid.shape`` along
with their axes: the transform is the same, but numpy then skips a shape
lookup that costs about half of a 64-node ``rfftn`` call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatchError,
    NonFiniteFieldError,
    UnsupportedOrderError,
)

_SHELL_FRACTION = 0.1  # outer share of each half-width in the boundary shell


def _as_tuple(value, dims: int, caster) -> tuple:
    if np.isscalar(value):
        return tuple(caster(value) for _ in range(dims))
    out = tuple(caster(v) for v in value)
    if len(out) != dims:
        raise ValueError(f"expected {dims} per-axis entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on prod_i [-L_i, L_i).

    Attributes:
        n: nodes per axis (each a power of two, >= 8).
        half_width: L_i per axis; axis i covers [-L_i, L_i).
    """

    n: tuple[int, ...]
    half_width: tuple[float, ...]

    def __init__(self, n, half_width, dims: int | None = None):
        if dims is None:
            dims = len(n) if not np.isscalar(n) else (
                len(half_width) if not np.isscalar(half_width) else 1)
        n_t = _as_tuple(n, dims, int)
        hw_t = _as_tuple(half_width, dims, float)
        if dims not in (1, 2):
            raise ValueError("only d in {1, 2} is supported")
        for ni in n_t:
            if ni < 8 or (ni & (ni - 1)) != 0:
                raise ValueError(f"n={ni} must be a power of two >= 8")
        for li in hw_t:
            if not li > 0:
                raise ValueError("half_width must be positive")
        object.__setattr__(self, "n", n_t)
        object.__setattr__(self, "half_width", hw_t)

    @property
    def dims(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(2.0 * L / ni for ni, L in zip(self.n, self.half_width))

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.dx:
            out *= h
        return out

    @property
    def node_count(self) -> int:
        out = 1
        for ni in self.n:
            out *= ni
        return out

    def axis(self, i: int) -> np.ndarray:
        """Node coordinates x_j = -L_i + j*dx_i along axis i."""
        return -self.half_width[i] + self.dx[i] * np.arange(self.n[i])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.axis(i) for i in range(self.dims)],
                                 indexing="ij"))

    def wavenumber(self, i: int) -> np.ndarray:
        """xi_k = pi*k/L_i in FFT storage order along axis i."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n[i], d=self.dx[i])

    def wavenumber_grids(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.wavenumber(i) for i in range(self.dims)],
                                 indexing="ij"))

    def nearest_index(self, point) -> tuple[int, ...]:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for i in range(self.dims):
            j = int(np.round((pt[i] + self.half_width[i]) / self.dx[i]))
            idx.append(j % self.n[i])
        return tuple(idx)


@dataclass(frozen=True)
class Field:
    """Real scalar field sampled on a Grid (row-major)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, fn(*grid.meshgrid()))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(c)))

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def integral(self) -> float:
        """Canonical quadrature dx^d * sum(values)."""
        return float(self.grid.cell_volume * np.sum(self.values))

    def __add__(self, other):
        if isinstance(other, Field):
            _require_same_grid(self, other)
            return Field(self.grid, self.values + other.values)
        return Field(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, Field):
            _require_same_grid(self, other)
            return Field(self.grid, self.values - other.values)
        return Field(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, Field):
            _require_same_grid(self, other)
            return Field(self.grid, self.values * other.values)
        return Field(self.grid, self.values * other)

    __rmul__ = __mul__


def _require_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def _require_finite(values: np.ndarray, what: str = "field") -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.sum(~np.isfinite(values)))
        raise NonFiniteFieldError(f"{what} has {bad} non-finite values")


def _require_finite_rows(rows: np.ndarray, what: str) -> None:
    """``_require_finite`` of each row in turn: the first bad row raises."""
    if not np.all(np.isfinite(rows)):
        for row in rows:
            _require_finite(row, what)


def _derivative_multiplier_half(grid: Grid, beta: tuple[int, ...]) -> np.ndarray:
    """(i*xi)^beta on the rfftn half-spectrum layout.

    Nyquist planes are zeroed on axes with odd beta (their sign is not
    representable for a real field), which keeps D skew-adjoint.
    """
    axes = [grid.wavenumber(i) for i in range(grid.dims - 1)]
    axes.append(2.0 * np.pi * np.fft.rfftfreq(grid.n[-1], d=grid.dx[-1]))
    mesh = np.meshgrid(*axes, indexing="ij")
    mult = np.ones(mesh[0].shape, dtype=complex)
    nyquist = np.pi / np.asarray(grid.dx)
    for i, b in enumerate(beta):
        if b:
            mult = mult * (1j * mesh[i]) ** b
            if b % 2 == 1:
                mult[np.abs(np.abs(mesh[i]) - nyquist[i]) < 1e-12] = 0.0
    return mult


def _normalize_beta(grid: Grid, beta) -> tuple[int, ...]:
    if np.isscalar(beta):
        bt = (int(beta),) + (0,) * (grid.dims - 1)
    else:
        bt = tuple(int(b) for b in beta)
    if len(bt) != grid.dims or any(b < 0 for b in bt):
        raise UnsupportedOrderError(f"bad multi-index {beta!r} for d={grid.dims}")
    if sum(bt) > 4:
        raise UnsupportedOrderError(f"|beta|={sum(bt)} exceeds the supported 4")
    return bt


def spectral_derivative(f: Field, beta) -> Field:
    """D^beta f via (i*xi)^beta in Fourier space.

    Uses the half-complex transform, so the result is exactly real.
    """
    _require_finite(f.values)
    bt = _normalize_beta(f.grid, beta)
    if sum(bt) == 0:
        return f
    spec = np.fft.rfftn(f.values) * _derivative_multiplier_half(f.grid, bt)
    out = np.fft.irfftn(spec, s=f.grid.shape, axes=tuple(range(f.grid.dims)))
    return Field(f.grid, out)


@functools.lru_cache(maxsize=16)
def _gradient_multipliers(grid: Grid) -> tuple[np.ndarray, ...]:
    """Half-spectrum multipliers of the first partials (cached, read-only)."""
    mults = []
    for i in range(grid.dims):
        beta = tuple(1 if j == i else 0 for j in range(grid.dims))
        mult = _derivative_multiplier_half(grid, beta)
        mult.setflags(write=False)
        mults.append(mult)
    return tuple(mults)


def _batch_gradient(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """First partials over the trailing grid axes (leading axes batch)."""
    axes = tuple(range(values.ndim - grid.dims, values.ndim))
    spec = np.fft.rfftn(values, s=grid.shape, axes=axes)
    return tuple(
        np.fft.irfftn(spec * m, s=grid.shape, axes=axes)
        for m in _gradient_multipliers(grid))


def _nyquist_shell_max(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Largest magnitude on the Nyquist planes (fftn or rfftn layout).

    Reduces over the trailing grid axes only: leading axes batch, with one
    value per row (a 0-d array for a single spectrum).
    """
    rest = tuple(range(1 - grid.dims, 0))
    mag = np.abs(spec)
    return np.max([np.max(np.take(mag, grid.n[ax] // 2, axis=ax - grid.dims),
                          axis=rest)
                   for ax in range(grid.dims)], axis=0)


def gradient(f: Field) -> list[Field]:
    """All first partials of f as a list of Fields."""
    _require_finite(f.values)
    return [Field(f.grid, g) for g in _batch_gradient(f.grid, f.values)]


def periodic_convolve(f: Field, g: Field) -> Field:
    """dx^d-normalized circular convolution (approximates integral conv).

    The grid origin sits at -L, so the raw DFT convolution theorem picks up
    a half-period shift; it is undone by rolling each axis by n_i/2. The
    spectral product is symmetrized (0.5*(FG + GF)) so that convolve(f, g)
    and convolve(g, f) are bitwise equal even when the complex multiply uses
    fused operations.
    """
    _require_same_grid(f, g)
    _require_finite(f.values, "left operand")
    _require_finite(g.values, "right operand")
    return Field(f.grid, _convolve_values(f.grid, f.values, g.values))


def _convolve_values(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``periodic_convolve`` on raw values over the trailing grid axes.

    Leading axes of either operand broadcast; a row of a batch equals its
    single-row convolution bitwise.
    """
    axes = tuple(range(-grid.dims, 0))
    return _convolve_spectrum(grid, np.fft.rfftn(f, s=grid.shape, axes=axes),
                              g)


def _convolve_spectrum(grid: Grid, fs: np.ndarray, g: np.ndarray
                       ) -> np.ndarray:
    """``_convolve_values`` with the left operand given by its half spectrum.

    ``fs`` is ``rfftn`` of the left operand over the trailing grid axes, so
    a caller that convolves with one fixed field transforms it once.
    """
    axes = tuple(range(-grid.dims, 0))
    gs = np.fft.rfftn(g, s=grid.shape, axes=axes)
    spec = 0.5 * (fs * gs + gs * fs)
    out = np.fft.irfftn(spec, s=grid.shape, axes=axes) * grid.cell_volume
    return np.roll(out, [ni // 2 for ni in grid.n], axis=axes)


def boundary_shell_mass(f: Field) -> float:
    """|f| mass in the outer shell (the outer tenth of each half-width).

    A diagnostic for callers: the periodic box is a stand-in for free
    space, so wrap-around is negligible only while this stays small (1e-6
    is a sensible flag level).  No solver calls it.
    """
    mask = np.zeros(f.grid.shape, dtype=bool)
    for i in range(f.grid.dims):
        x = np.abs(f.grid.axis(i))
        cut = (1.0 - _SHELL_FRACTION) * f.grid.half_width[i]
        axis_mask = x >= cut
        shape = [1] * f.grid.dims
        shape[i] = f.grid.n[i]
        mask |= axis_mask.reshape(shape)
    return float(f.grid.cell_volume * np.sum(np.abs(f.values[mask])))
