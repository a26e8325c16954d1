"""Coupling maps between the population law and the cost fields.

Two concrete families plus the trivial one:

* ``Conv``: smoothing cost  F(x, m) = (phi * m)(x); its measure derivative
  is the translation kernel phi(x - y), independent of m.
* ``LocalComposite``: a local nonlinearity sandwiched between two
  convolutions, F(x, m) = Int phi2(x - z) Phi(z, (phi2 * m)(z)) dz, with
  measure derivative Int phi2(x - z) dPhi/ds(z, .) phi2(z - y) dz.
* ``Zero``: no coupling.

This module alone decides what each family does.  ``_derivative_kernel``
names the kernel a coupling convolves with (none for ``Zero``; any other
object has no measure-derivative action).  The solvers price, weight and
differentiate through this module's helpers and never test a family
themselves.

Validators decide the two monotonicity conditions used for uniqueness.
``check_M1`` decides the Lasry-Lions condition (M1), that F-increments
pair nonnegatively with measure increments, from the family alone: a
convolution's symbol off the zero mode (Bochner), and the sign of dPhi/ds
of a local composite over the levels the smoothed density can reach.
``check_M2`` tests the sign of the symmetrized measure-derivative kernel
at a given measure as a quadratic form.  The derivative is used raw by
default; an optional normalized variant subtracts the m-average per row,
which is exactly the convention under which odd smoothing kernels become
a counterexample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .grid import (Field, Grid, _Record, _convolve_spectra,
                   _nyquist_shell_max, _require_finite, _require_finite_rows,
                   _rfft)
from .measures import Measure, _density_rows

_MATRIX_AXIS_CAP = 256
_MATRIX_ELEMENT_CAP = 1 << 26
_M1_RTOL = 1e-12  # of the largest value the (M1) decision reads
_M1_LEVELS = 65  # levels of the smoothed density at which dPhi/ds is read
_M2_TOL = 1e-10
_SMOOTH_ORDER = 4  # derivatives a coupling kernel must resolve


# --------------------------------------------------------------------------
# coupling variants


@dataclass(frozen=True)
class Zero:
    """No coupling: F identically zero."""


@dataclass(frozen=True)
class Conv:
    """Smoothing coupling by convolution with a fixed even-or-not kernel."""

    phi: Field

    def __post_init__(self):
        peak = self.phi.max_norm
        if peak == 0.0:
            return
        edge = _boundary_magnitude(self.phi)
        if edge > 1e-8 * peak:
            raise ValueError(
                f"kernel not compactly supported on the grid: edge magnitude "
                f"{edge:.3e} vs peak {peak:.3e}"
            )

    @functools.cached_property
    def _kernel_terms(self) -> tuple[np.ndarray, float]:
        """The kernel's half spectrum and sup-norm, once it is checked finite.

        Taken on first use and kept, which is safe as ``phi``'s values are
        read-only: a pricing or derivative action then transforms the
        density side alone.
        """
        grid = self.phi.grid
        _require_finite(self.phi.values, "left operand")
        spectrum = _rfft(grid, self.phi.values)
        return spectrum, self.phi.max_norm


@dataclass(frozen=True)
class LocalComposite:
    """Local nonlinearity of the smoothed density, smoothed again."""

    phi2: Field
    Phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dPhi_ds: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = self.phi2.values
        if float(np.min(vals)) < 0.0:
            raise ValueError("inner kernel must be nonnegative")
        for ax in range(self.phi2.grid.dims):
            flipped = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
            if np.max(np.abs(vals - flipped)) > 1e-12 * max(float(np.max(vals)), 1e-300):
                raise ValueError("inner kernel must be even")

    @functools.cached_property
    def _kernel_terms(self) -> tuple[np.ndarray, float]:
        """``phi2``'s half spectrum and L1 norm, once it is checked finite.

        Kept from first use on, as ``Conv`` keeps its kernel's: both
        convolutions of a pricing or derivative action then transform the
        density side alone.
        """
        grid = self.phi2.grid
        _require_finite(self.phi2.values, "left operand")
        spectrum = _rfft(grid, self.phi2.values)
        return spectrum, grid.cell_volume * float(np.sum(np.abs(
            self.phi2.values)))


def _boundary_magnitude(f: Field) -> float:
    """Largest |value| on the two edge slices, 0 and n - 1, of every axis."""
    worst = 0.0
    for ax in range(f.grid.dims):
        edges = np.take(f.values, [0, -1], axis=ax)
        worst = max(worst, float(np.max(np.abs(edges))))
    return worst


# --------------------------------------------------------------------------
# evaluation


def eval_F(coupling, m: Measure) -> Field:
    """Cost field F(., m) on the measure's grid.

    The terminal slot of ``_price_path`` on the one-slice path m, which
    holds every check.
    """
    return Field(m.grid, _price_path(Zero(), coupling, m.grid,
                                     m.values[None])[1])


def _price_path(running, terminal, grid: Grid, path: np.ndarray
                ) -> tuple[np.ndarray | None, np.ndarray]:
    """Running cost of every slice of a path and terminal cost of its last.

    ``path`` has its slice axis first.  The running coupling's kernel is
    checked on ``grid``, then every slice is validated and clamped as
    ``Measure`` does, whatever the couplings, and the path is transformed
    once.  ``_price_spectra`` prices the running cost of every slice (None
    for ``Zero``), and only then is the terminal coupling's kernel checked
    and its cost priced from the last row of the same spectra.  Each slice
    keeps its own sup-norm budget, so every row equals ``eval_F`` of that
    slice's ``Measure`` bitwise, and a path with one bad slice raises what
    that slice raises alone.
    """
    running_kernel = _derivative_kernel(running, grid)
    rows, masses = _density_rows(grid, path)
    source = spectra = None
    if running_kernel is not None:
        spectra = _rfft(grid, rows)
        source = _price_spectra(running, grid, masses, spectra)
    if _derivative_kernel(terminal, grid) is not None and spectra is None:
        spectra = _rfft(grid, rows[-1:])
    last = None if spectra is None else spectra[-1:]
    return source, _price_spectra(terminal, grid, masses[-1:], last)[0]


def _price_spectra(coupling, grid: Grid, masses: np.ndarray,
                   spectra: np.ndarray | None) -> np.ndarray:
    """F(., m_k) of validated density slices from their half spectra.

    ``masses`` and ``spectra`` come from ``measures._density_rows`` and
    ``grid._rfft`` of the slices (``spectra`` is unused for ``Zero``).
    The kernel is checked finite on first use, as a convolution's left
    operand, and each slice keeps its own sup-norm budget.  ``Phi`` of
    a local composite is called slice by slice.
    """
    if isinstance(coupling, Zero):
        return np.zeros((len(masses),) + grid.shape)
    axes = tuple(range(1, 1 + grid.dims))
    if isinstance(coupling, Conv):
        spectrum, peak = coupling._kernel_terms
        out = _convolve_spectra(grid, spectrum, spectra)
        bound = peak * masses * (1.0 + 1e-12) + 1e-12
        if np.any(np.max(np.abs(out), axis=axes) > bound):
            raise AssertionError("convolution exceeded its sup-norm budget")
        return out
    spectrum, l1 = coupling._kernel_terms
    mesh = grid.meshgrid()
    inner = np.stack([
        np.asarray(coupling.Phi(mesh, s), dtype=float).reshape(grid.shape)
        for s in _convolve_spectra(grid, spectrum, spectra)])
    _require_finite_rows(inner, "right operand")
    out = _convolve_spectra(grid, spectrum, _rfft(grid, inner))
    bound = l1 * np.max(np.abs(inner), axis=axes) * (1.0 + 1e-12) + 1e-12
    if np.any(np.max(np.abs(out), axis=axes) > bound):
        raise AssertionError("composite coupling exceeded its sup-norm budget")
    return out


def _translation_matrix(grid: Grid, phi_vals: np.ndarray) -> np.ndarray:
    """Dense matrix T[i][j] = phi(x_i - x_j) with periodic wrapping."""
    index_axes = []
    for ax in range(grid.dims):
        idx = np.arange(grid.n[ax], dtype=np.int32)
        index_axes.append((idx[:, None] - idx[None, :] + grid.n[ax] // 2) % grid.n[ax])
    if grid.dims == 1:
        return phi_vals[index_axes[0]]
    d0 = index_axes[0]
    d1 = index_axes[1]
    n0, n1 = grid.n
    # flatten node pairs in C order: node (a, b) -> a * n1 + b
    big0 = np.repeat(np.repeat(d0, n1, axis=0), n1, axis=1)
    big1 = np.tile(d1, (n0, n0))
    return phi_vals[big0, big1]


def _guard_matrix(grid: Grid) -> None:
    if max(grid.n) > _MATRIX_AXIS_CAP or grid.node_count ** 2 > _MATRIX_ELEMENT_CAP:
        raise ValueError(
            f"derivative matrix for {grid.node_count} nodes exceeds the "
            "materialization guard"
        )


def apply_dmF(coupling, m: Measure, rho: Field) -> Field:
    """Action of the measure-derivative kernel on a signed density.

    Computes x -> integral of dF/dm(x, m, y) rho(y) dy.  Agrees with
    pairing the dense ``eval_dmF`` matrix against rho's node values times
    the cell volume, but uses the couplings' convolution structure so it
    carries no dense-matrix size guard.
    """
    grid = m.grid
    if rho.grid != grid:
        raise GridMismatchError("density lives on a different grid")
    kernel = _derivative_kernel(coupling, grid)
    if kernel is None:
        return Field.constant(grid, 0.0)
    _require_finite(kernel.values, "left operand")
    _require_finite(rho.values, "right operand")
    weight = _action_weights(coupling, grid, m.values[None])
    return Field(grid, _dmF_action(coupling, grid, weight,
                                   rho.values[None])[0])


def _derivative_kernel(coupling, grid: Grid | None = None) -> Field | None:
    """The kernel a coupling's pricing and derivative convolve with.

    ``phi`` of a ``Conv``, ``phi2`` of a ``LocalComposite``, None for
    ``Zero``; any other object has no derivative action.  Given ``grid``,
    the kernel must live on it.
    """
    if isinstance(coupling, Zero):
        return None
    if isinstance(coupling, Conv):
        kernel = coupling.phi
    elif isinstance(coupling, LocalComposite):
        kernel = coupling.phi2
    else:
        raise TypeError(f"coupling {type(coupling).__name__} has no "
                        "measure-derivative action")
    if grid is not None and kernel.grid != grid:
        raise GridMismatchError("coupling kernel lives on a different grid")
    return kernel


def _action_weights(coupling, grid: Grid,
                    path: np.ndarray) -> np.ndarray | None:
    """The measure-dependent factor of the derivative action at each slice.

    dPhi/ds of the smoothed density for a local composite; None for the
    other families, whose action does not read the measure.  ``path`` has
    its slice axis first; the slices are validated as ``_price_path``
    validates them and smoothed by one convolution over the stack, and
    ``dPhi_ds`` is called slice by slice.  Each row equals its one-slice
    weight bitwise.
    """
    if not isinstance(coupling, LocalComposite):
        return None
    _derivative_kernel(coupling, grid)
    rows, _ = _density_rows(grid, path)
    smoothed = _convolve_spectra(grid, coupling._kernel_terms[0],
                                 _rfft(grid, rows))
    mesh = grid.meshgrid()
    weights = np.stack([np.asarray(coupling.dPhi_ds(mesh, s), dtype=float)
                        for s in smoothed])
    # the weighted density is the right operand of the outer convolution
    _require_finite_rows(weights, "right operand")
    return weights


def _dmF_action(coupling, grid: Grid, weight: np.ndarray | None,
                rho: np.ndarray) -> np.ndarray | None:
    """``apply_dmF`` on raw values over the trailing grid axes.

    None for ``Zero``, whose action is zero; ``rho`` is then not read.
    Leading axes of ``rho`` batch, and ``weight`` (from ``_action_weights``)
    must broadcast against them; a row of a batch equals its single-row
    action bitwise.
    """
    if isinstance(coupling, Zero):
        return None
    spectrum = coupling._kernel_terms[0]
    smoothed = _convolve_spectra(grid, spectrum, _rfft(grid, rho))
    if weight is None:
        return smoothed
    return _convolve_spectra(grid, spectrum,
                             _rfft(grid, weight * smoothed))


def _check_derivative_couplings(grid: Grid, running, terminal) -> None:
    """Require derivative carriers with kernels on ``grid``."""
    _derivative_kernel(running, grid)
    _derivative_kernel(terminal, grid)


def eval_dmF(coupling, m: Measure) -> np.ndarray:
    """Measure-derivative kernel as a dense (x, y) matrix.

    Guarded to <= 256 nodes per axis and 2^26 matrix elements; beyond
    that ``apply_dmF`` gives the action without the matrix.
    """
    grid = m.grid
    _guard_matrix(grid)
    kernel = _derivative_kernel(coupling, grid)
    if kernel is None:
        return np.zeros((grid.node_count, grid.node_count))
    weight = _action_weights(coupling, grid, m.values[None])
    a = _translation_matrix(grid, kernel.values)
    if weight is None:
        return a
    return (a * (weight.ravel() * grid.cell_volume)[None, :]) @ a


# --------------------------------------------------------------------------
# monotonicity validators


@dataclass(frozen=True)
class M1Report(_Record):
    min_value: float
    max_abs: float
    passed: bool


@dataclass(frozen=True)
class M2Report(_Record):
    min_eig: float
    min_eig_operator: float
    passed: bool
    version: str


def check_M1(coupling) -> M1Report:
    """Decide the Lasry-Lions condition (M1) from the coupling's family.

    (M1) asks Int (F(m) - F(m')) d(m - m') >= 0 for probability densities
    m, m' on the kernel's grid.

    * ``Conv``: m - m' has no mass, so the pairing is a sum over xi != 0
      of Re phi-hat(xi) |m-hat - m'-hat|^2(xi), and a pair c +- eps
      cos(xi . x) excites one mode.  (M1) holds exactly when
      dx^d Re phi-hat >= 0 off xi = 0 (Bochner).  ``min_value`` is that
      smallest value, in ``check_M2``'s ``min_eig_operator`` units;
      ``max_abs`` is the largest dx^d |phi-hat|.
    * ``LocalComposite``: ``phi2`` is even and nonnegative, so the pairing
      is Int (Phi(z, s) - Phi(z, s')) (s - s') dz with s = phi2 * m, and
      0 <= s <= max phi2.  dPhi/ds >= 0 there suffices, but is not
      necessary: ``min_value`` and ``max_abs`` are the smallest and the
      largest |.| of dPhi/ds at every node and at ``_M1_LEVELS`` evenly
      spaced levels of s in that range.
    * ``Zero`` passes with both values 0.

    ``passed`` when ``min_value >= -1e-12 * max_abs``.  Any other object
    raises ``TypeError``.
    """
    kernel = _derivative_kernel(coupling)
    if kernel is None:
        return M1Report(min_value=0.0, max_abs=0.0, passed=True)
    grid = kernel.grid
    if isinstance(coupling, Conv):
        spectrum = coupling._kernel_terms[0]
        # (-1)^k per axis moves the kernel's origin from node n/2 to 0
        sign = (-1.0) ** sum(np.ix_(*map(np.arange, spectrum.shape)))
        values = grid.cell_volume * spectrum * sign
        min_value = float(np.min(values.real.ravel()[1:]))  # xi = 0 first
    else:
        mesh = grid.meshgrid()
        values = np.stack([
            np.asarray(coupling.dPhi_ds(mesh, np.full(grid.shape, s)),
                       dtype=float)
            for s in np.linspace(0.0, float(np.max(kernel.values)),
                                 _M1_LEVELS)])
        _require_finite_rows(values, "dPhi_ds")
        min_value = float(np.min(values))
    max_abs = float(np.max(np.abs(values)))
    return M1Report(min_value=min_value, max_abs=max_abs,
                    passed=min_value >= -_M1_RTOL * max_abs)


def check_M2(coupling, m: Measure, version: str = "as_provided") -> M2Report:
    """Eigenvalue sign of the symmetrized measure-derivative kernel.

    For a ``Conv`` in ``as_provided`` mode ``min_eig_operator`` is
    ``check_M1``'s ``min_value`` computed with a dense O(N^3) eigensolve
    (unless the zero mode holds the smallest eigenvalue).  What this
    check adds is the ``normalized`` convention below, and the
    m-dependent kernel of a ``LocalComposite``.

    ``as_provided`` tests the raw kernel.  ``normalized`` first subtracts
    the kernel's m-average in the y slot from each row, the convention under
    which an odd smoothing kernel probed at a point mass yields the strictly
    negative value phi(0) - phi(x0).
    """
    from scipy.linalg import eigh

    if version not in ("as_provided", "normalized"):
        raise ValueError("version must be 'as_provided' or 'normalized'")
    grid = m.grid
    matrix = eval_dmF(coupling, m)
    if version == "normalized":
        row_avg = matrix @ (m.values.ravel() * grid.cell_volume)
        matrix = matrix - row_avg[:, None]
    sym = 0.5 * (matrix + matrix.T)
    smallest = float(eigh(sym, eigvals_only=True, subset_by_index=[0, 0])[0])
    min_eig = smallest * grid.cell_volume ** 2
    min_eig_operator = smallest * grid.cell_volume
    return M2Report(
        min_eig=min_eig,
        min_eig_operator=min_eig_operator,
        passed=min_eig >= -_M2_TOL,
        version=version,
    )


# --------------------------------------------------------------------------
# smoothness budget


def resolved_derivatives(phi: Field) -> int:
    """Largest k <= 4 with a spectrally resolved k-th derivative.

    A derivative order counts as resolved when the Nyquist-shell content of
    xi^k phi-hat stays below 1e-6 of its peak, i.e. differentiating has not
    amplified unresolved tail modes into the result.
    """
    spec = np.fft.fftn(phi.values)
    budget = 0
    for order in range(1, _SMOOTH_ORDER + 1):
        weighted = spec.copy()
        for ax in range(phi.grid.dims):
            xi = phi.grid.wavenumber(ax)
            shape = [1] * phi.grid.dims
            shape[ax] = len(xi)
            weighted = weighted * (1.0 + np.abs(xi.reshape(shape)) ** order)
        mag = np.abs(weighted)
        peak = float(np.max(mag))
        tail = float(_nyquist_shell_max(phi.grid, mag))
        if peak == 0.0 or tail <= 1e-6 * peak:
            budget = order
        else:
            break
    return budget


def require_smooth(coupling) -> None:
    """Terminal couplings need four usable derivatives."""
    kernel = _derivative_kernel(coupling)
    if kernel is None:
        return
    have = resolved_derivatives(kernel)
    if have < _SMOOTH_ORDER:
        raise ValueError(
            f"coupling kernel resolves only {have} derivatives; "
            f"{_SMOOTH_ORDER} required"
        )
