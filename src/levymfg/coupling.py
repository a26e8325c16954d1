"""Coupling maps between the population law and the cost fields.

Two concrete families plus the trivial one:

* ``Conv``: smoothing cost  F(x, m) = (phi * m)(x); its measure derivative
  is the translation kernel phi(x - y), independent of m.
* ``LocalComposite``: a local nonlinearity sandwiched between two
  convolutions, F(x, m) = Int phi2(x - z) Phi(z, (phi2 * m)(z)) dz, with
  measure derivative Int phi2(x - z) dPhi/ds(z, .) phi2(z - y) dz.
* ``Zero``: no coupling.

Validators probe the two monotonicity conditions used for uniqueness: the
pairing of F-increments against measure increments (nonnegative for
positive-semidefinite smoothing kernels), and the sign of the symmetrized
measure-derivative kernel as a quadratic form.  The derivative is used raw
by default; an optional normalized variant subtracts the m-average per row,
which is exactly the convention under which odd smoothing kernels become a
counterexample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .grid import (Field, Grid, _convolve_spectrum, _convolve_values,
                   _nyquist_shell_max, _require_finite, _require_finite_rows)
from .measures import Measure, _density_rows, mollify

_MATRIX_AXIS_CAP = 256
_MATRIX_ELEMENT_CAP = 1 << 26
_M1_TOL = 1e-10
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
        spectrum = np.fft.rfftn(self.phi.values, s=grid.shape,
                                axes=tuple(range(-grid.dims, 0)))
        return spectrum, self.phi.max_norm

    @property
    def is_positive_semidefinite(self) -> bool:
        """Bochner criterion on the grid: real, nonnegative DFT."""
        grid = self.phi.grid
        # align the kernel origin with index 0 before transforming
        spec = np.fft.fftn(np.roll(self.phi.values, [-(ni // 2) for ni in grid.n],
                                   axis=tuple(range(grid.dims))))
        tol = 1e-12 * max(float(np.max(np.abs(spec))), 1e-300)
        return bool(
            np.max(np.abs(spec.imag)) <= tol and float(np.min(spec.real)) >= -tol
        )


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


def _boundary_magnitude(f: Field) -> float:
    worst = 0.0
    for ax in range(f.grid.dims):
        first = np.take(f.values, 0, axis=ax)
        worst = max(worst, float(np.max(np.abs(first))))
    return worst


# --------------------------------------------------------------------------
# evaluation


def eval_F(coupling, m: Measure) -> Field:
    """Cost field F(., m) on the measure's grid.

    The one-slice case of ``_eval_F_path``, which holds every check.
    """
    return Field(m.grid, _eval_F_path(coupling, m.grid, m.values[None])[0])


def _eval_F_path(coupling, grid: Grid, path: np.ndarray) -> np.ndarray:
    """Cost fields F(., m_k) of every density slice m_k of a path.

    ``path`` has its slice axis first.  Each slice is validated and
    clamped as ``Measure`` does, the convolutions run once over the whole
    stack, and each slice keeps its own sup-norm budget, so every row
    equals ``eval_F`` of that slice's ``Measure`` bitwise and a path with
    one bad slice raises what that slice raises alone.  ``Phi`` of a local
    composite is called slice by slice.
    """
    if isinstance(coupling, Zero):
        _density_rows(grid, path)
        return np.zeros(path.shape)
    axes = tuple(range(1, 1 + grid.dims))
    if isinstance(coupling, Conv):
        rows, masses = _kernel_rows(coupling.phi, grid, path)
        spectrum, peak = coupling._kernel_terms
        out = _convolve_spectrum(grid, spectrum, rows)
        bound = peak * masses * (1.0 + 1e-12) + 1e-12
        if np.any(np.max(np.abs(out), axis=axes) > bound):
            raise AssertionError("convolution exceeded its sup-norm budget")
        return out
    if isinstance(coupling, LocalComposite):
        phi2 = coupling.phi2
        rows, _ = _kernel_rows(phi2, grid, path)
        _require_finite(phi2.values, "left operand")
        mesh = grid.meshgrid()
        inner = np.stack([
            np.asarray(coupling.Phi(mesh, s), dtype=float).reshape(grid.shape)
            for s in _convolve_values(grid, phi2.values, rows)])
        _require_finite_rows(inner, "right operand")
        out = _convolve_values(grid, phi2.values, inner)
        l1 = grid.cell_volume * float(np.sum(np.abs(phi2.values)))
        bound = l1 * np.max(np.abs(inner), axis=axes) * (1.0 + 1e-12) + 1e-12
        if np.any(np.max(np.abs(out), axis=axes) > bound):
            raise AssertionError(
                "composite coupling exceeded its sup-norm budget")
        return out
    raise TypeError(f"unknown coupling variant {type(coupling).__name__}")


def _kernel_rows(kernel: Field, grid: Grid, path: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Density slices checked for convolution with a coupling kernel.

    Returns the slices clamped by ``measures._density_rows``, which
    rejects a non-finite slice, and their masses, once the kernel is on
    ``grid``.  The caller then checks the kernel finite, as
    ``periodic_convolve`` does: ``Conv._kernel_terms`` once per coupling.
    """
    if kernel.grid != grid:
        raise GridMismatchError("coupling kernel lives on a different grid")
    return _density_rows(grid, path)


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
    if rho.grid != m.grid:
        raise GridMismatchError("density lives on a different grid")
    if isinstance(coupling, Zero):
        return Field.constant(m.grid, 0.0)
    kern = _derivative_kernel(coupling)
    if kern.grid != m.grid:
        raise GridMismatchError("coupling kernel lives on a different grid")
    _require_finite(kern.values, "left operand")
    _require_finite(rho.values, "right operand")
    return Field(m.grid, _dmF_action(coupling, _action_weight(coupling, m),
                                     rho.values))


def _derivative_kernel(coupling) -> Field:
    if isinstance(coupling, Conv):
        return coupling.phi
    if isinstance(coupling, LocalComposite):
        return coupling.phi2
    raise TypeError(f"unknown coupling variant {type(coupling).__name__}")


def _action_weight(coupling, m: Measure) -> np.ndarray | None:
    """The measure-dependent factor of the derivative action at m.

    dPhi/ds of the smoothed density for a local composite
    (``_action_weights`` of one slice); None for a convolution, whose
    action does not depend on m.
    """
    if not isinstance(coupling, LocalComposite):
        return None
    return _action_weights(coupling, m.grid, m.values[None])[0]


def _action_weights(coupling: LocalComposite, grid: Grid,
                    path: np.ndarray) -> np.ndarray:
    """``_action_weight`` of every density slice of a path (slices first).

    The slices are validated as ``_eval_F_path`` validates them and
    smoothed by one convolution over the stack; ``dPhi_ds`` is called
    slice by slice.  Each row equals its one-slice weight bitwise.
    """
    rows, _ = _kernel_rows(coupling.phi2, grid, path)
    _require_finite(coupling.phi2.values, "left operand")
    mesh = grid.meshgrid()
    weights = np.stack([
        np.asarray(coupling.dPhi_ds(mesh, s), dtype=float)
        for s in _convolve_values(grid, coupling.phi2.values, rows)])
    # the weighted density is the right operand of the outer convolution
    _require_finite_rows(weights, "right operand")
    return weights


def _dmF_action(coupling, weight: np.ndarray | None,
                rho: np.ndarray) -> np.ndarray:
    """``apply_dmF`` on raw values over the trailing grid axes.

    Leading axes of ``rho`` batch, and ``weight`` (from ``_action_weight``)
    must broadcast against them; a row of a batch equals its single-row
    action bitwise.
    """
    kern = _derivative_kernel(coupling)
    if weight is None:
        return _convolve_spectrum(kern.grid, coupling._kernel_terms[0], rho)
    smoothed = _convolve_values(kern.grid, kern.values, rho)
    return _convolve_values(kern.grid, kern.values, weight * smoothed)


def _check_derivative_couplings(grid: Grid, owner: str, running,
                                terminal) -> None:
    """Require derivative carriers with kernels on ``owner``'s ``grid``."""
    for name, coupling in (("running", running), ("terminal", terminal)):
        if not isinstance(coupling, (Zero, Conv, LocalComposite)):
            raise TypeError(
                f"{name} coupling {type(coupling).__name__} has no "
                "measure-derivative action")
        if not isinstance(coupling, Zero) and \
                _derivative_kernel(coupling).grid != grid:
            raise GridMismatchError(f"{name} coupling kernel grid "
                                    f"!= {owner} grid")


def eval_dmF(coupling, m: Measure) -> np.ndarray:
    """Measure-derivative kernel as a dense (x, y) matrix.

    Guarded to <= 256 nodes per axis and 2^26 matrix elements; beyond
    that ``apply_dmF`` gives the action without the matrix.
    """
    grid = m.grid
    _guard_matrix(grid)
    if isinstance(coupling, Zero):
        return np.zeros((grid.node_count, grid.node_count))
    if isinstance(coupling, Conv):
        if coupling.phi.grid != grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        return _translation_matrix(grid, coupling.phi.values)
    if isinstance(coupling, LocalComposite):
        if coupling.phi2.grid != grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        weight = _action_weight(coupling, m).ravel()
        a = _translation_matrix(grid, coupling.phi2.values)
        return (a * (weight * grid.cell_volume)[None, :]) @ a
    raise TypeError(f"unknown coupling variant {type(coupling).__name__}")


# --------------------------------------------------------------------------
# monotonicity validators


@dataclass(frozen=True)
class M1Report:
    min_value: float
    max_abs: float
    passed: bool
    trials: int
    seed: int


@dataclass(frozen=True)
class M2Report:
    min_eig: float
    min_eig_operator: float
    passed: bool
    version: str


def _random_bump_mixture(grid: Grid, rng: np.random.Generator) -> Measure:
    mesh = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(int(rng.integers(2, 5))):
        center = [rng.uniform(-0.5 * w, 0.5 * w) for w in grid.half_width]
        width = rng.uniform(0.15, 0.5) * min(grid.half_width)
        r_sq = sum((x - c) ** 2 for x, c in zip(mesh, center))
        vals += rng.uniform(0.2, 1.0) * np.exp(-r_sq / (2.0 * width ** 2))
    vals += 1e-8
    m = Measure.normalized(Field(grid, vals))
    return mollify(m, 2.5 * max(grid.dx))


def check_M1(coupling, trials: int, seed: int = 0) -> M1Report:
    """Pair F-increments with measure increments over random measure pairs."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(coupling, Zero):
        return M1Report(min_value=0.0, max_abs=0.0, passed=True,
                        trials=trials, seed=seed)
    grid = _derivative_kernel(coupling).grid
    rng = np.random.default_rng(seed)
    worst = np.inf
    biggest = 0.0
    for _ in range(trials):
        m = _random_bump_mixture(grid, rng)
        m_prime = _random_bump_mixture(grid, rng)
        gap = eval_F(coupling, m_prime).values - eval_F(coupling, m).values
        pairing = float(
            grid.cell_volume * np.sum(gap * (m_prime.values - m.values))
        )
        worst = min(worst, pairing)
        biggest = max(biggest, abs(pairing))
    return M1Report(min_value=worst, max_abs=biggest, passed=worst >= -_M1_TOL,
                    trials=trials, seed=seed)


def check_M2(coupling, m: Measure, version: str = "as_provided") -> M2Report:
    """Eigenvalue sign of the symmetrized measure-derivative kernel.

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
    if grid.node_count <= 1:
        smallest = float(sym[0, 0])
    else:
        smallest = float(
            eigh(sym, eigvals_only=True, subset_by_index=[0, 0])[0]
        )
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
        peak = float(np.max(np.abs(weighted)))
        tail = float(_nyquist_shell_max(phi.grid, weighted))
        if peak == 0.0 or tail <= 1e-6 * peak:
            budget = order
        else:
            break
    return budget


def require_smooth(coupling) -> None:
    """Terminal couplings need four usable derivatives."""
    if isinstance(coupling, Zero):
        return
    have = resolved_derivatives(_derivative_kernel(coupling))
    if have < _SMOOTH_ORDER:
        raise ValueError(
            f"coupling kernel resolves only {have} derivatives; "
            f"{_SMOOTH_ORDER} required"
        )
