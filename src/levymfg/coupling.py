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

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .errors import GridMismatchError
from .grid import (Field, Grid, _nyquist_shell_max, load_field,
                   periodic_convolve)
from .measures import Measure, mollify

_MATRIX_AXIS_CAP = 256
_MATRIX_ELEMENT_CAP = 1 << 26
_M1_TOL = 1e-10
_M2_TOL = 1e-10


# --------------------------------------------------------------------------
# coupling variants


@dataclass(frozen=True)
class Zero:
    """No coupling: F identically zero."""


@dataclass(frozen=True)
class Conv:
    """Smoothing coupling by convolution with a fixed even-or-not kernel."""

    phi: Field
    smoothness: int = 4

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
    smoothness: int = 4

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
    """Cost field F(., m) on the measure's grid."""
    if isinstance(coupling, Zero):
        return Field.constant(m.grid, 0.0)
    if isinstance(coupling, Conv):
        if coupling.phi.grid != m.grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        out = periodic_convolve(coupling.phi, m.density)
        bound = coupling.phi.max_norm * m.mass * (1.0 + 1e-12) + 1e-12
        if out.max_norm > bound:
            raise AssertionError("convolution exceeded its sup-norm budget")
        return out
    if isinstance(coupling, LocalComposite):
        if coupling.phi2.grid != m.grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        mesh = m.grid.meshgrid()
        smoothed = periodic_convolve(coupling.phi2, m.density)
        inner = Field(m.grid, np.asarray(coupling.Phi(mesh, smoothed.values), dtype=float))
        out = periodic_convolve(coupling.phi2, inner)
        l1 = m.grid.cell_volume * float(np.sum(np.abs(coupling.phi2.values)))
        bound = l1 * inner.max_norm * (1.0 + 1e-12) + 1e-12
        if out.max_norm > bound:
            raise AssertionError("composite coupling exceeded its sup-norm budget")
        return out
    raise TypeError(f"unknown coupling variant {type(coupling).__name__}")


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


def _centred_on(grid: Grid, phi_vals: np.ndarray, i: int) -> np.ndarray:
    """phi moved to centre on node i: phi(x_j - x_i) over the nodes x_j."""
    shift = [p - ni // 2 for p, ni in zip(np.unravel_index(i, grid.shape), grid.n)]
    return np.roll(phi_vals, shift, axis=tuple(range(grid.dims)))


def _guard_matrix(grid: Grid, lazy: bool) -> None:
    if lazy:
        return
    if max(grid.n) > _MATRIX_AXIS_CAP or grid.node_count ** 2 > _MATRIX_ELEMENT_CAP:
        raise ValueError(
            f"derivative matrix for {grid.node_count} nodes exceeds the "
            f"materialization guard; request lazy row evaluation"
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
    if isinstance(coupling, Conv):
        if coupling.phi.grid != m.grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        return periodic_convolve(coupling.phi, rho)
    if isinstance(coupling, LocalComposite):
        if coupling.phi2.grid != m.grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        mesh = m.grid.meshgrid()
        smoothed_m = periodic_convolve(coupling.phi2, m.density)
        weight = np.asarray(
            coupling.dPhi_ds(mesh, smoothed_m.values), dtype=float)
        smoothed_rho = periodic_convolve(coupling.phi2, rho)
        return periodic_convolve(
            coupling.phi2, Field(m.grid, weight * smoothed_rho.values))
    raise TypeError(f"unknown coupling variant {type(coupling).__name__}")


def _check_derivative_couplings(grid: Grid, owner: str, running,
                                terminal) -> None:
    """Require derivative carriers with kernels on ``owner``'s ``grid``."""
    for name, coupling in (("running", running), ("terminal", terminal)):
        if not isinstance(coupling, (Zero, Conv, LocalComposite)):
            raise TypeError(
                f"{name} coupling {type(coupling).__name__} has no "
                "measure-derivative action")
        kern = getattr(coupling, "phi", None) or \
            getattr(coupling, "phi2", None)
        if kern is not None and kern.grid != grid:
            raise GridMismatchError(f"{name} coupling kernel grid "
                                    f"!= {owner} grid")


def eval_dmF(coupling, m: Measure, lazy: bool = False):
    """Measure-derivative kernel as a dense (x, y) matrix or a row callable.

    The dense form is guarded to <= 256 nodes per axis and 2^26 matrix
    elements; pass ``lazy=True`` to get ``row(i) -> ndarray`` instead.
    """
    grid = m.grid
    _guard_matrix(grid, lazy)
    if isinstance(coupling, Zero):
        if lazy:
            return lambda i: np.zeros(grid.node_count)
        return np.zeros((grid.node_count, grid.node_count))
    if isinstance(coupling, Conv):
        if coupling.phi.grid != grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        if lazy:
            return lambda i: _centred_on(grid, coupling.phi.values, i).ravel()
        return _translation_matrix(grid, coupling.phi.values)
    if isinstance(coupling, LocalComposite):
        if coupling.phi2.grid != grid:
            raise GridMismatchError("coupling kernel lives on a different grid")
        mesh = grid.meshgrid()
        smoothed = periodic_convolve(coupling.phi2, m.density)
        weight = np.asarray(
            coupling.dPhi_ds(mesh, smoothed.values), dtype=float
        ).ravel()
        if lazy:
            def row(i: int) -> np.ndarray:
                shifted = _centred_on(grid, coupling.phi2.values, i)
                # contract against phi2(z - y) by one convolution pass
                zfield = Field(grid, shifted * weight.reshape(grid.shape))
                return periodic_convolve(zfield, coupling.phi2).values.ravel()
            return row
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
    grid = coupling.phi.grid if isinstance(coupling, Conv) else coupling.phi2.grid
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


def resolved_derivatives(phi: Field, max_order: int = 4) -> int:
    """Largest k <= max_order with a spectrally resolved k-th derivative.

    A derivative order counts as resolved when the Nyquist-shell content of
    xi^k phi-hat stays below 1e-6 of its peak, i.e. differentiating has not
    amplified unresolved tail modes into the result.
    """
    spec = np.fft.fftn(phi.values)
    budget = 0
    for order in range(1, max_order + 1):
        weighted = spec.copy()
        for ax in range(phi.grid.dims):
            xi = phi.grid.wavenumber(ax)
            shape = [1] * phi.grid.dims
            shape[ax] = len(xi)
            weighted = weighted * (1.0 + np.abs(xi.reshape(shape)) ** order)
        peak = float(np.max(np.abs(weighted)))
        tail = _nyquist_shell_max(phi.grid, weighted)
        if peak == 0.0 or tail <= 1e-6 * peak:
            budget = order
        else:
            break
    return budget


def require_smooth(coupling, order: int = 4) -> None:
    """Terminal couplings need the stated number of usable derivatives."""
    if isinstance(coupling, Zero):
        return
    phi = coupling.phi if isinstance(coupling, Conv) else coupling.phi2
    have = resolved_derivatives(phi, order)
    if have < order:
        raise ValueError(
            f"coupling kernel resolves only {have} derivatives; {order} required"
        )


# --------------------------------------------------------------------------
# config builders


def _parse_phi(spec, grid: Grid) -> Field:
    if isinstance(spec, str):
        match = re.fullmatch(r"gauss\(([^)]+)\)", spec.strip())
        if match:
            sigma = float(match.group(1))
            if sigma <= 0:
                raise ValueError("gaussian width must be positive")
            mesh = grid.meshgrid()
            r_sq = sum(x ** 2 for x in mesh)
            return Field(grid, np.exp(-r_sq / (2.0 * sigma ** 2)))
        match = re.fullmatch(r"odd_sine\(([^)]+)\)", spec.strip())
        if match:
            # compactly supported odd kernel: sin scaled under a bump window
            width = float(match.group(1))
            mesh = grid.meshgrid()
            r_sq = sum(x ** 2 for x in mesh) / width ** 2
            window = np.where(r_sq < 1.0, np.exp(-1.0 / np.maximum(1.0 - r_sq, 1e-300)), 0.0)
            return Field(grid, np.sin(np.pi * mesh[0] / width) * window)
        return load_field(spec)
    raise TypeError("kernel spec must be a string")


def _parse_Phi(spec: str):
    match = re.fullmatch(r"power\(([^)]+)\)", spec.strip())
    if not match:
        raise ValueError(f"unknown local nonlinearity {spec!r}")
    p = float(match.group(1))
    if p < 1:
        raise ValueError("power must be >= 1 to keep the derivative bounded")

    def Phi(mesh, s):
        return np.sign(s) * np.abs(s) ** p / p

    def dPhi_ds(mesh, s):
        return np.abs(s) ** (p - 1.0)

    return Phi, dPhi_ds


def build_coupling(cfg: dict, grid: Grid):
    """Construct a coupling from its config dictionary."""
    kind = cfg.get("type")
    if kind == "zero":
        return Zero()
    if kind == "conv":
        return Conv(phi=_parse_phi(cfg["phi"], grid))
    if kind == "local":
        phi_fns = _parse_Phi(cfg["Phi"])
        return LocalComposite(
            phi2=_parse_phi(cfg["phi2"], grid),
            Phi=phi_fns[0],
            dPhi_ds=phi_fns[1],
        )
    raise ValueError(f"unknown coupling type {kind!r}")
