"""Periodic spectral substrate: grids, fields, DFT helpers.

The domain is the periodic box prod_i [-L_i, L_i) with n_i nodes per axis
(powers of two). All solvers use trigonometric interpolation on this box, so
everything downstream inherits the row-major layout fixed here.

Fields are real, so every Fourier multiplier (derivatives, convolutions, the
semigroups of ``kernels``) acts on the ``rfftn`` half-spectrum layout: FFT
order on the leading axes, the n_last//2 + 1 nonnegative frequencies on the
last.  The complex ``fftn`` is left to kernel diagnostics that read the
whole spectrum (``coupling``).  Every real transform of the package goes
through the grid's transform pair, ``_rfft`` and ``_irfft``, over the
trailing grid axes (leading axes batch), so the layout is decided here
alone.  The pair calls numpy's pocketfft kernels (the gufuncs of
``numpy.fft._pocketfft_umath``, numpy >= 2.0) into preallocated outputs,
with the normalization factor ``fct`` that ``np.fft`` passes them, so the
result is ``np.fft.rfft``/``irfft`` (1D) or ``rfftn``/``irfftn`` (2D) bit
for bit.  It skips their Python wrapper ``_raw_fft`` (array-function
dispatch, dtype and axis normalization, the output allocation), which
costs about as much as the kernel on the package's small grids.  Timeit,
min of 9 runs on one core of a shared 2-vCPU Xeon host, numpy 2.4, forward
and inverse through ``np.fft`` -> through the kernels: a 16-node row 4.7
-> 2.2 us and 4.9 -> 1.9 us, a 9x16 stack 5.6 -> 2.7 us and 5.7 -> 2.7 us,
a 33x64 stack 10.1 -> 7.9 us and 11.3 -> 8.4 us, a 16x16 grid 13.4 -> 5.6
us and 15.0 -> 6.2 us.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import NonFiniteFieldError, UnsupportedOrderError

_SHELL_FRACTION = 0.1  # outer share of each half-width in the boundary shell


def _check_integer(name: str, value) -> int:
    """``value`` as an int; a count that is not an integer is refused.

    numpy integers pass; a float or a string raises TypeError naming
    ``name`` rather than being truncated or parsed.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_real(name: str, value) -> float:
    """``value`` as a float; a value that is not a real number is refused.

    numpy reals pass; a string or a bool raises TypeError naming ``name``
    rather than being parsed or read as 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


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
        dims = _check_integer("dims", dims)
        n_t = _as_tuple(n, dims, functools.partial(_check_integer, "n"))
        hw_t = _as_tuple(half_width, dims,
                         functools.partial(_check_real, "half_width"))
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

    # dims, dx, cell_volume and node_count are computed on first read and
    # kept in the instance dict (cached_property writes it directly, past
    # the frozen __setattr__); equality and hashing read the fields alone.
    @functools.cached_property
    def dims(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @functools.cached_property
    def dx(self) -> tuple[float, ...]:
        return tuple(2.0 * L / ni for ni, L in zip(self.n, self.half_width))

    @functools.cached_property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.dx:
            out *= h
        return out

    @functools.cached_property
    def node_count(self) -> int:
        out = 1
        for ni in self.n:
            out *= ni
        return out

    def axis(self, i: int) -> np.ndarray:
        """Node coordinates x_j = -L_i + j*dx_i along axis i."""
        return -self.half_width[i] + self.dx[i] * np.arange(self.n[i])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis, each of the grid's shape.

        Built once per grid and kept: the arrays are read-only.
        """
        return _meshgrid(self)

    def wavenumber(self, i: int) -> np.ndarray:
        """xi_k = pi*k/L_i in FFT storage order along axis i."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n[i], d=self.dx[i])

    def wavenumber_grids(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.wavenumber(i) for i in range(self.dims)],
                                 indexing="ij"))

    def nearest_index(self, point) -> tuple[int, ...]:
        """Multi-index of the node nearest ``point`` (periodically wrapped).

        ``point`` has one coordinate per axis; a scalar on a 1D grid.
        """
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dims,):
            raise ValueError(f"point {point!r} does not have one coordinate "
                             f"per axis of a {self.dims}D grid")
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


class _Record:
    """The JSON-ready record format of every ``...Report`` dataclass.

    ``to_dict`` emits one key per field, in field order, under the field's
    name; ``passed`` is written ``"pass"`` and ``_record_keys`` renames
    others.  Arrays and tuples become lists, recursively (also inside
    lists and dicts), and numpy scalars Python numbers.  A field holding a
    ``Field`` is left out.
    """

    _record_keys: dict[str, str] = {}

    def to_dict(self) -> dict:
        keys = {"passed": "pass", **self._record_keys}
        return {keys.get(f.name, f.name): _plain(getattr(self, f.name))
                for f in fields(self)
                if not isinstance(getattr(self, f.name), Field)}


def _plain(value):
    """``value`` with arrays and tuples as lists, numpy scalars as numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


@functools.lru_cache(maxsize=16)
def _meshgrid(grid: Grid) -> tuple[np.ndarray, ...]:
    """``Grid.meshgrid`` (cached, read-only)."""
    mesh = np.meshgrid(*[grid.axis(i) for i in range(grid.dims)],
                       indexing="ij")
    for axis_values in mesh:
        axis_values.setflags(write=False)
    return tuple(mesh)


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
        bt = (_check_integer("beta", beta),) + (0,) * (grid.dims - 1)
    else:
        bt = tuple(_check_integer("beta", b) for b in beta)
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
    spec = _rfft(f.grid, f.values) * _derivative_multiplier_half(f.grid, bt)
    return Field(f.grid, _irfft(f.grid, spec))


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


@functools.lru_cache(maxsize=16)
def _value_gradient_rows(grid: Grid) -> np.ndarray:
    """Ones, then the ``_gradient_multipliers``, stacked (cached, read-only).

    One product of a half spectrum with this stack gives the spectra of
    the values and of their first partials.
    """
    mults = _gradient_multipliers(grid)
    rows = np.stack((np.ones(mults[0].shape),) + mults)
    rows.setflags(write=False)
    return rows


def _batch_gradient(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """First partials over the trailing grid axes (leading axes batch)."""
    spec = _rfft(grid, values)
    return tuple(_irfft(grid, spec * m) for m in _gradient_multipliers(grid))


def _nyquist_shell_max(grid: Grid, mag: np.ndarray) -> np.ndarray:
    """Largest of the spectral magnitudes ``mag`` (``np.abs`` of a
    spectrum in fftn or rfftn layout) on the Nyquist planes.

    Reduces over the trailing grid axes only: leading axes batch, with one
    value per row (a 0-d array for a single spectrum).
    """
    rest = tuple(range(1 - grid.dims, 0))
    return np.max([np.max(np.take(mag, grid.n[ax] // 2, axis=ax - grid.dims),
                          axis=rest)
                   for ax in range(grid.dims)], axis=0)


def gradient(f: Field) -> list[Field]:
    """All first partials of f as a list of Fields."""
    _require_finite(f.values)
    return [Field(f.grid, g) for g in _batch_gradient(f.grid, f.values)]


# The pocketfft kernels of the transform pair, read at call time (a test
# fixture counts the real ones).  Grid admits powers of two >= 8 only, so
# the last axis is always even and its forward kernel is the even-length
# one.  A gufunc's core axis is the last unless ``axes`` says otherwise.
_rfft_kernel = _pocketfft_umath.rfft_n_even
_irfft_kernel = _pocketfft_umath.irfft
_fft_kernel = _pocketfft_umath.fft
_ifft_kernel = _pocketfft_umath.ifft
_SECOND_TO_LAST = [(-2,), (), (-2,)]


def _rfft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half spectrum over the trailing grid axes; leading axes batch.

    ``np.fft.rfft(values, n)`` on a 1D grid and ``np.fft.rfftn`` over the
    last two axes on a 2D grid, bit for bit: the real kernel over the last
    axis with ``fct`` 1, then, in 2D, the complex kernel over axis -2 in
    place on that output.  ``values`` is a float64 array with the grid's
    trailing shape; the result is a new C-contiguous array.
    """
    out = np.empty(values.shape[:-1] + (grid.n[-1] // 2 + 1,), dtype=complex)
    _rfft_kernel(values, 1, out=out)
    if grid.dims == 2:
        _fft_kernel(out, 1, axes=_SECOND_TO_LAST, out=out)
    return out


def _irfft(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Inverse of ``_rfft``: real values over the trailing grid axes.

    ``np.fft.irfft(spec, n)`` on a 1D grid and ``np.fft.irfftn`` over the
    last two axes on a 2D grid, bit for bit: in 2D the complex inverse
    over axis -2 with ``fct`` 1/n_0 into a new array, then the real
    inverse over the last axis with ``fct`` 1/n_last.  ``1.0 / n`` is the
    ``np.reciprocal(n, dtype=float64)`` that ``np.fft`` passes.
    """
    if grid.dims == 2:
        half = np.empty(spec.shape, dtype=complex)
        _ifft_kernel(spec, 1.0 / grid.n[0], axes=_SECOND_TO_LAST, out=half)
        spec = half
    out = np.empty(spec.shape[:-1] + (grid.n[-1],))
    _irfft_kernel(spec, 1.0 / grid.n[-1], out=out)
    return out


def _half_period_shift(grid: Grid, values: np.ndarray) -> np.ndarray:
    """``np.roll`` of each trailing grid axis by n_i // 2, bit for bit.

    Each axis is moved by two slice copies (one ``np.concatenate``), which
    skips the index arithmetic of the general roll: 1.2 us against 6.9 us
    on a 16-node row.
    """
    for ax, ni in zip(range(-grid.dims, 0), grid.n):
        tail = (slice(None),) * (-1 - ax)
        h = ni - ni // 2
        values = np.concatenate((values[(Ellipsis, slice(h, None)) + tail],
                                 values[(Ellipsis, slice(None, h)) + tail]),
                                axis=ax)
    return values


def _convolve_spectra(grid: Grid, fs: np.ndarray, gs: np.ndarray
                      ) -> np.ndarray:
    """dx^d-normalized circular convolution (approximates integral conv).

    ``fs`` and ``gs`` are the ``_rfft`` of the operands over the trailing
    grid axes (leading axes broadcast; a row of a batch equals its
    single-row convolution bitwise), so a caller that convolves with one
    fixed field, or convolves one field with several, transforms each
    once.  The grid origin sits at -L, so the raw DFT convolution theorem
    picks up a half-period shift; the product goes back through the
    grid's transform pair and ``_half_period_shift`` undoes it.  The
    spectral product is symmetrized (0.5*(FG + GF)) so that swapping the
    operands gives the same values bitwise even when the complex multiply
    uses fused operations.
    """
    spec = 0.5 * (fs * gs + gs * fs)
    return _half_period_shift(grid, _irfft(grid, spec) * grid.cell_volume)


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
