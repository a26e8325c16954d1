"""Linear forward-backward systems and the measure derivative of the value.

The system pairs a backward transport equation for a scalar z,

    -dz/dt - L z + V . Dz = <dF/dm(x, m(t)), rho(t)> + b(t, x),
    z(T, x) = <dG/dm(x, m(T)), rho(T)> + z_T(x),

with the forward divergence-form equation its duality pairing singles out,

    d(rho)/dt = L* rho + div(rho V) + div(m Gamma Dz + c),
    rho(t0, x) = rho0(x),

and resolves the two-way coupling by damped alternation: freeze rho, solve
z backward; freeze z, rebuild rho forward; blend.  Around a converged MFG
solution (V the optimal drift, Gamma the momentum curvature of the
Hamiltonian, the couplings the measure derivatives of the running and
terminal costs) the solution map rho0 -> z(t0, .) is the derivative of the
equilibrium value in its initial measure; with rho0 a mollified grid delta
at y, z(t0, x) is the derivative kernel J(t0, x, m0, y).

Both legs run the shared mild marches: z the backward march of the
``hjb`` module with the integrand b + <dF/dm, rho> - V . Dz, rho the
forward march of the ``fp`` module with its trapezoid Picard sweeps.  The
forward leg needs the sweeps because the duality pairing of the two legs
only closes at O(dt^2) when both sides are integrated at matching order;
the plain first-order march leaves an O(dt) energy defect that no
affordable step count brings under the certification tolerances.

The y-batch assembling the full kernel is embarrassingly parallel in y but
runs sequentially here; each (z, rho) alternation is inherently ordered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .coupling import Zero, _check_derivative_couplings, apply_dmF
from .errors import (
    BudgetError,
    DivergenceError,
    GridMismatchError,
    InstabilityError,
)
from .fp import _march_forward
from .grid import Field, Grid, _batch_gradient
from .hjb import Trajectory, _check_operand, _march_backward
from .kernels import KernelCache
from .measures import Measure, mollifier_field, path_metric, \
    signed_dual_norm
from .mfg import MfgSolution, optimal_drift

_SYMMETRY_TOL = 1e-12
_ELLIPTICITY_TOL = 1e-9
_DENSITY_NEG_TOL = 1e-12
_DENSITY_MASS_TOL = 1e-9
_BATCH_NODE_CAP = 128
_JKERNEL_FORMAT = "levymfg-jkernel"


# --------------------------------------------------------------------------
# the system container


@dataclass(frozen=True)
class LinSystem:
    """Data of one linear forward-backward system on a shared time slab.

    ``curvature`` holds the matrix weight of the forward flux (the momentum
    Hessian along the base trajectory in applications) with one (d, d)
    matrix per slice and node, axes (time, row, column, *grid); it must be
    symmetric and have eigenvalues inside [1/ellipticity, ellipticity].
    ``forcing``/``flux_forcing`` are the inhomogeneities b and c (None means
    zero); ``rho0`` may carry a grid delta.  ``density`` is the base
    probability path the coupling derivatives are evaluated along.
    """

    kernel: KernelCache
    drift: Trajectory
    curvature: np.ndarray = dc_field(repr=False)
    ellipticity: float
    forcing: Trajectory | None
    flux_forcing: Trajectory | None
    terminal: Field
    rho0: Field
    density: Trajectory
    running_coupling: object
    terminal_coupling: object

    def __post_init__(self):
        grid = self.kernel.grid
        n = self.drift.n_steps
        slab = (grid, self.drift.t0, self.drift.T, n)
        _check_operand("drift", self.drift, *slab, vector=True)
        _check_operand("density", self.density, *slab, vector=False)
        dens = self.density.values
        if float(np.min(dens)) < -_DENSITY_NEG_TOL:
            raise ValueError("density path has negative slices")
        masses = grid.cell_volume * np.sum(
            dens, axis=tuple(range(1, 1 + grid.dims)))
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > _DENSITY_MASS_TOL:
            raise ValueError(
                f"density slice mass off by {worst:.3e}; not a measure path")

        gamma = np.ascontiguousarray(np.asarray(self.curvature, dtype=float))
        d = grid.dims
        want = (n + 1, d, d) + grid.shape
        if gamma.shape != want:
            raise ValueError(
                f"curvature shape {gamma.shape} != expected {want}")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("curvature contains NaN/Inf entries")
        skew = float(np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))))
        if skew > _SYMMETRY_TOL:
            raise ValueError(f"curvature slices asymmetric by {skew:.3e}")
        c = float(self.ellipticity)
        if not c >= 1.0:
            raise ValueError("ellipticity constant must be >= 1")
        eigs = np.linalg.eigvalsh(np.moveaxis(gamma, (1, 2), (-2, -1)))
        lo, hi = float(np.min(eigs)), float(np.max(eigs))
        if lo < 1.0 / c - _ELLIPTICITY_TOL or hi > c + _ELLIPTICITY_TOL:
            raise ValueError(
                f"curvature eigenvalues [{lo:.6g}, {hi:.6g}] violate the "
                f"declared ellipticity band [{1.0 / c:.6g}, {c:.6g}]")
        gamma.setflags(write=False)
        object.__setattr__(self, "curvature", gamma)
        object.__setattr__(self, "ellipticity", c)

        if self.forcing is not None:
            _check_operand("forcing", self.forcing, *slab, vector=False)
        if self.flux_forcing is not None:
            _check_operand("flux_forcing", self.flux_forcing, *slab,
                           vector=True)
        if self.terminal.grid != grid:
            raise GridMismatchError("terminal data grid != kernel grid")
        if self.rho0.grid != grid:
            raise GridMismatchError("initial data grid != kernel grid")
        _check_derivative_couplings(grid, "system", self.running_coupling,
                                    self.terminal_coupling)

    @property
    def grid(self) -> Grid:
        return self.kernel.grid

    @property
    def t0(self) -> float:
        return self.drift.t0

    @property
    def T(self) -> float:
        return self.drift.T

    @property
    def n_steps(self) -> int:
        return self.drift.n_steps

    @property
    def rho0_mass(self) -> float:
        return self.rho0.integral()

    @property
    def one_way(self) -> bool:
        """True when z never sees rho: both coupling derivatives vanish."""
        return isinstance(self.running_coupling, Zero) and \
            isinstance(self.terminal_coupling, Zero)


# --------------------------------------------------------------------------
# assembly helpers


def _coupling_actions(system: LinSystem, rho_values: np.ndarray | None
                      ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Derivative actions of the running (per slice) and terminal couplings.

    Returns <dF/dm(x, m(t)), rho(t)> over all slices and <dG/dm(x, m(T)),
    rho(T)>, each None when its coupling is Zero (rho is then not read).
    """
    grid = system.grid
    running = terminal = None
    if not isinstance(system.running_coupling, Zero):
        running = np.empty_like(rho_values)
        for k in range(rho_values.shape[0]):
            m_k = Measure.from_values(grid, system.density.values[k])
            running[k] = apply_dmF(system.running_coupling, m_k,
                                   Field(grid, rho_values[k])).values
    if not isinstance(system.terminal_coupling, Zero):
        m_T = Measure.from_values(grid, system.density.values[-1])
        terminal = apply_dmF(system.terminal_coupling, m_T,
                             Field(grid, rho_values[-1])).values
    return running, terminal


def _backward_data(system: LinSystem, rho_values: np.ndarray | None
                   ) -> tuple[np.ndarray | None, Field]:
    """Source array and terminal field of the z-equation given rho."""
    running, terminal = _coupling_actions(system, rho_values)
    source = None if system.forcing is None else system.forcing.values
    if running is not None:
        source = running if source is None else source + running
    if terminal is None:
        return source, system.terminal
    return source, Field(system.grid, system.terminal.values + terminal)


def _forward_flux(system: LinSystem, z_values: np.ndarray) -> Trajectory:
    """Vector source m Gamma Dz + c of the forward equation."""
    grid = system.grid
    grads = np.stack(_batch_gradient(grid, z_values), axis=1)
    flux = np.einsum("tij...,tj...->ti...", system.curvature, grads)
    flux = system.density.values[:, None] * flux
    if system.flux_forcing is not None:
        flux = flux + system.flux_forcing.values
    return Trajectory(grid, system.t0, system.T, flux)


def _data_norm(system: LinSystem) -> float:
    """Size of the system data: |z_T|_inf + |rho0|_dual + sup|b| + int |c|."""
    total = system.terminal.max_norm + signed_dual_norm(system.rho0)
    if system.forcing is not None:
        total += float(np.max(np.abs(system.forcing.values)))
    if system.flux_forcing is not None:
        mag = np.sqrt(np.sum(system.flux_forcing.values ** 2, axis=1))
        axes = tuple(range(1, 1 + system.grid.dims))
        per_slice = np.max(mag, axis=axes)
        total += float(np.trapezoid(per_slice, dx=system.drift.dt))
    return total


# --------------------------------------------------------------------------
# the damped alternation


@dataclass(frozen=True)
class LinearReport:
    """Record of one alternation run.

    ``data_norm`` is |z_T|_inf + |rho0|_dual + sup_t|b|_inf + int |c|_inf dt
    and ``output_norm`` is sup_t|z|_inf + sup_t|rho|_dual, so
    ``apriori_ratio`` is the constant the linear well-posedness bound would
    need to cover this run.
    """

    converged: bool
    iterations: int
    gap_history: tuple
    damping: float
    data_norm: float
    output_norm: float
    apriori_ratio: float
    one_way: bool

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "gap_history": [float(g) for g in self.gap_history],
            "damping": self.damping,
            "data_norm": self.data_norm,
            "output_norm": self.output_norm,
            "apriori_ratio": self.apriori_ratio,
            "one_way": self.one_way,
        }


def _sup_dual(grid: Grid, values: np.ndarray) -> float:
    """Largest bounded-Lipschitz dual norm over the slices of a path."""
    return float(np.max(path_metric(grid, values)))


def _wrap_inner(exc, iteration: int):
    raise type(exc)(f"alternation iteration {iteration}: {exc}") from exc


def solve_linear_system(system: LinSystem, damping: float = 0.5,
                        max_iters: int = 40, tol: float = 1e-9,
                        initial_rho: Trajectory | None = None,
                        picard_sweeps: int = 2
                        ) -> tuple[Trajectory, Trajectory, LinearReport]:
    """Damped alternation between the backward and forward legs.

    Starting from ``initial_rho`` (default: the forward flow of rho0 with
    the z-feedback flux dropped), each pass solves z backward against the
    frozen rho, rebuilds rho forward against that z, and blends with the
    damping weight.  Stops when sup over slices of the bounded-Lipschitz
    dual norm of the iterate difference falls below ``tol``; the blended
    difference is damping times the response difference exactly (the dual
    norm is positively homogeneous), so the response gap is what is
    measured.  On convergence the returned pair is the last raw response
    (a consistent backward/forward pair); a one-way system (both coupling
    derivatives zero) is solved in a single undamped pass.  Both legs run
    the shared marches ``hjb._march_backward`` and ``fp._march_forward``
    with ``picard_sweeps`` trapezoid sweeps each.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iters < 1:
        raise ValueError("need at least one alternation")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    grid = system.grid
    kernel, V = system.kernel, system.drift.values
    t0, T, n = system.t0, system.T, system.n_steps

    def legs(rho_values: np.ndarray | None, it: int
             ) -> tuple[Trajectory, Trajectory]:
        """z backward against a frozen rho, then rho forward against z."""
        source, terminal = _backward_data(system, rho_values)

        def drive(values: np.ndarray, phys) -> np.ndarray:
            grads = _batch_gradient(grid, values)
            adv = V[phys, 0] * grads[0]
            for i in range(1, grid.dims):
                adv = adv + V[phys, i] * grads[i]
            return -adv if source is None else source[phys] - adv

        try:
            z = _march_backward(kernel, terminal, t0, T, n, picard_sweeps,
                                drive)
            rho = _march_forward(kernel, system.drift,
                                 _forward_flux(system, z.values),
                                 system.rho0, t0, T, n, picard_sweeps)
        except (DivergenceError, InstabilityError) as exc:
            _wrap_inner(exc, it)
        return z, rho

    if system.one_way:
        # zero coupling derivatives: the z-equation never reads rho
        z, rho = legs(None, 1)
        damping, gaps, converged = 1.0, [0.0], True
    else:
        if initial_rho is None:
            try:
                rho_path = _march_forward(
                    kernel, system.drift, system.flux_forcing, system.rho0,
                    t0, T, n, picard_sweeps).values.copy()
            except (DivergenceError, InstabilityError) as exc:
                _wrap_inner(exc, 0)
        else:
            _check_operand("warm-start path", initial_rho, grid, t0, T, n,
                           vector=False)
            rho_path = initial_rho.values.copy()

        gaps = []
        converged = False
        for it in range(1, max_iters + 1):
            z, rho = legs(rho_path, it)
            gaps.append(damping * _sup_dual(grid, rho.values - rho_path))
            if gaps[-1] < tol:
                converged = True
                break
            rho_path = (1.0 - damping) * rho_path + damping * rho.values

    data = _data_norm(system)
    out = float(np.max(np.abs(z.values))) + _sup_dual(grid, rho.values)
    report = LinearReport(
        converged=converged, iterations=len(gaps), gap_history=tuple(gaps),
        damping=damping, data_norm=data, output_norm=out,
        apriori_ratio=(out / data if data > 0.0 else 0.0),
        one_way=system.one_way)
    return z, rho, report


# --------------------------------------------------------------------------
# duality identity


@dataclass(frozen=True)
class DualityReport:
    """Two independent evaluations of the energy identity.

    ``lhs`` is the time quadrature of int Dz . Gamma Dz dm; ``rhs`` pairs
    the data against the outputs:  <z(t0), rho0> - <z_T, rho(T)>
    - int <b, rho> - int <Dz, c> - quad_running - quad_terminal, where the
    two quadratic coupling terms are nonnegative for monotone couplings.
    """

    lhs: float
    rhs: float
    rel_gap: float
    pairing_initial: float
    pairing_terminal: float
    forcing_term: float
    flux_term: float
    quad_running: float
    quad_terminal: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rel_gap": self.rel_gap,
            "pairing_initial": self.pairing_initial,
            "pairing_terminal": self.pairing_terminal,
            "forcing_term": self.forcing_term,
            "flux_term": self.flux_term,
            "quad_running": self.quad_running,
            "quad_terminal": self.quad_terminal,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def duality_report(system: LinSystem, z: Trajectory, rho: Trajectory,
                   tol: float = 1e-4) -> DualityReport:
    """Evaluate both sides of the energy identity for a solved pair.

    The left side integrates the Gamma quadratic form of Dz against the
    base density; the right side only touches pairings of data and outputs.
    Exact solutions make them equal; the mild discretization leaves a
    relative gap that must stay within ``tol``.
    """
    grid = system.grid
    if z.grid != grid or rho.grid != grid:
        raise GridMismatchError("solution pair lives on a different grid")
    vol = grid.cell_volume
    dt = z.dt
    axes = tuple(range(1, 1 + grid.dims))
    grads = np.stack(_batch_gradient(grid, z.values), axis=1)

    quad_form = np.einsum("ti...,tij...,tj...->t...", grads,
                          system.curvature, grads)
    lhs_series = vol * np.sum(quad_form * system.density.values, axis=axes)
    lhs = float(np.trapezoid(lhs_series, dx=dt))

    pairing_initial = vol * float(np.sum(z.values[0] * system.rho0.values))
    pairing_terminal = vol * float(
        np.sum(system.terminal.values * rho.values[-1]))

    forcing_term = 0.0
    if system.forcing is not None:
        series = vol * np.sum(system.forcing.values * rho.values, axis=axes)
        forcing_term = float(np.trapezoid(series, dx=dt))
    flux_term = 0.0
    if system.flux_forcing is not None:
        series = vol * np.sum(grads * system.flux_forcing.values,
                              axis=(1,) + tuple(a + 1 for a in axes))
        flux_term = float(np.trapezoid(series, dx=dt))

    running, terminal = _coupling_actions(system, rho.values)
    quad_running = quad_terminal = 0.0
    if running is not None:
        series = vol * np.sum(running * rho.values, axis=axes)
        quad_running = float(np.trapezoid(series, dx=dt))
    if terminal is not None:
        quad_terminal = vol * float(np.sum(terminal * rho.values[-1]))

    rhs = (pairing_initial - pairing_terminal - forcing_term - flux_term
           - quad_running - quad_terminal)
    denom = max(abs(lhs), abs(rhs))
    rel_gap = 0.0 if denom == 0.0 else abs(lhs - rhs) / denom
    return DualityReport(
        lhs=lhs, rhs=rhs, rel_gap=rel_gap,
        pairing_initial=pairing_initial, pairing_terminal=pairing_terminal,
        forcing_term=forcing_term, flux_term=flux_term,
        quad_running=quad_running, quad_terminal=quad_terminal,
        tolerance=tol, passed=bool(rel_gap <= tol))


# --------------------------------------------------------------------------
# linearization around a converged MFG solution


def linearize(solution: MfgSolution, rho0: Field, *,
              forcing: Trajectory | None = None,
              flux_forcing: Trajectory | None = None,
              terminal: Field | None = None,
              running_coupling=None, terminal_coupling=None) -> LinSystem:
    """Assemble the linear system around a converged MFG solution.

    The drift is the optimal feedback of the solved value, the curvature its
    momentum Hessian along the trajectory, and the couplings default to the
    measure derivatives of the problem's own costs.  The ellipticity
    constant comes from the Hamiltonian's declared convexity bound; when
    none is declared it is inferred from the realized eigenvalue range.
    """
    if not solution.converged:
        raise ValueError("linearization requires a converged MFG solution")
    problem = solution.problem
    grid = problem.grid
    if rho0.grid != grid:
        raise GridMismatchError("initial perturbation grid != problem grid")
    ham = problem.hamiltonian

    drift = optimal_drift(ham, solution.u)
    mesh = grid.meshgrid()
    grads = _batch_gradient(grid, solution.u.values)
    curv = ham.curvature(mesh, solution.u.values, grads)
    if curv is None:
        raise ValueError(
            "the Hamiltonian supplies no momentum curvature; the forward "
            "flux of the linear system cannot be formed")
    curv = np.asarray(curv, dtype=float)
    curvature = np.ascontiguousarray(np.moveaxis(curv, (-2, -1), (1, 2)))

    c = float(getattr(ham, "convexity_bound", np.inf))
    if not np.isfinite(c):
        eigs = np.linalg.eigvalsh(curv)
        lo, hi = float(np.min(eigs)), float(np.max(eigs))
        if lo <= 0.0:
            raise ValueError(
                f"momentum curvature degenerates (min eigenvalue {lo:.3e}); "
                "no ellipticity constant exists")
        c = max(hi, 1.0 / lo, 1.0)

    return LinSystem(
        kernel=problem.kernel,
        drift=drift,
        curvature=curvature,
        ellipticity=c,
        forcing=forcing,
        flux_forcing=flux_forcing,
        terminal=terminal if terminal is not None
        else Field.constant(grid, 0.0),
        rho0=rho0,
        density=solution.m,
        running_coupling=running_coupling if running_coupling is not None
        else problem.running_cost,
        terminal_coupling=terminal_coupling if terminal_coupling is not None
        else problem.terminal_cost,
    )


# --------------------------------------------------------------------------
# the derivative kernel J


def mollified_delta(grid: Grid, y) -> Field:
    """Unit-mass grid delta at the node nearest y, smoothed to width 2*dx.

    All derivative-kernel claims are stated at this fixed mollification,
    with refinement understood jointly (the width shrinks with the grid).
    """
    eta = mollifier_field(grid, 2.0 * max(grid.dx))
    idx = grid.nearest_index(y)
    shift = tuple(int(idx[i]) - grid.n[i] // 2 for i in range(grid.dims))
    vals = np.roll(eta.values, shift, axis=tuple(range(grid.dims)))
    return Field(grid, vals)


def j_field(solution: MfgSolution, couplings, y, *, damping: float = 0.5,
            max_iters: int = 40, tol: float = 1e-9) -> Field:
    """Derivative of the equilibrium value at t0 in the direction delta_y.

    Solves the linear system around ``solution`` with a mollified grid
    delta at ``y`` as the initial perturbation and returns the backward
    component at t0.  ``couplings`` is a (running, terminal) pair of
    derivative carriers or None to reuse the solution's own costs.
    """
    if couplings is None:
        running = terminal = None
    else:
        running, terminal = couplings
    rho0 = mollified_delta(solution.problem.grid, y)
    system = linearize(solution, rho0, running_coupling=running,
                       terminal_coupling=terminal)
    try:
        z, _, report = solve_linear_system(
            system, damping=damping, max_iters=max_iters, tol=tol)
    except (DivergenceError, InstabilityError) as exc:
        raise type(exc)(f"derivative solve at y={y}: {exc}") from exc
    if not report.converged:
        raise InstabilityError(
            f"derivative solve at y={y}: alternation stalled at gap "
            f"{report.gap_history[-1]:.3e} after {report.iterations} "
            "iterations")
    return z.initial


@dataclass(frozen=True)
class JKernel:
    """Derivative kernel J(t0, x, m0, y) tabulated on grid nodes.

    ``values`` carries the y axes first and the x axes last:
    values[iy][ix] = J(t0, x_ix, m0, y_iy).  The recorded mollifier width
    is the smoothing applied to each delta before it entered the system.
    """

    grid: Grid
    t0: float
    values: np.ndarray = dc_field(repr=False)
    mollifier_width: float

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != self.grid.shape + self.grid.shape:
            raise ValueError(
                f"kernel shape {vals.shape} != y-then-x grid axes "
                f"{self.grid.shape + self.grid.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def field_at(self, y) -> Field:
        """The x-slice at the node nearest y."""
        return Field(self.grid, self.values[self.grid.nearest_index(y)])

    def y_gradient(self) -> np.ndarray:
        """Central differences along the y axes (spacing dx, periodic).

        Differencing the tabulated kernel is quieter than re-solving with
        derivative-of-delta data; returns shape (d, *y_shape, *x_shape).
        """
        comps = []
        for ax in range(self.grid.dims):
            ahead = np.roll(self.values, -1, axis=ax)
            behind = np.roll(self.values, 1, axis=ax)
            comps.append((ahead - behind) / (2.0 * self.grid.dx[ax]))
        return np.stack(comps, axis=0)


def _j_rows(solution: MfgSolution, couplings, y_grid: Grid,
            **solve_options) -> np.ndarray:
    """J rows at every node of ``y_grid``: y axes first, x axes last."""
    out = np.empty(y_grid.shape + solution.problem.grid.shape)
    axes = y_grid.meshgrid()
    for iy in np.ndindex(y_grid.shape):
        y = tuple(float(ax[iy]) for ax in axes)
        out[iy] = j_field(solution, couplings, y, **solve_options).values
    return out


def j_field_batch(solution: MfgSolution, couplings=None, *,
                  damping: float = 0.5, max_iters: int = 40,
                  tol: float = 1e-9) -> JKernel:
    """Tabulate J(t0, x, m0, y) for every grid node y.

    Each y is an independent linear solve (the loop is trivially
    parallelizable; it runs sequentially here).  Refuses grids beyond 128
    nodes per axis, where the batch would run for hours.
    """
    grid = solution.problem.grid
    if any(ni > _BATCH_NODE_CAP for ni in grid.n):
        raise BudgetError(
            f"y-batch over {grid.n} nodes exceeds the "
            f"{_BATCH_NODE_CAP}-per-axis budget")
    out = _j_rows(solution, couplings, grid, damping=damping,
                  max_iters=max_iters, tol=tol)
    return JKernel(grid=grid, t0=solution.u.t0, values=out,
                   mollifier_width=2.0 * max(grid.dx))


def save_j_kernel(path, jk: JKernel) -> None:
    """Raw little-endian float64 matrix plus a JSON sidecar of axes."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(jk.values, dtype="<f8").tobytes())
    sidecar = {
        "format": _JKERNEL_FORMAT,
        "version": 1,
        "axis_roles": ["y"] * jk.grid.dims + ["x"] * jk.grid.dims,
        "shape": list(jk.values.shape),
        "n": list(jk.grid.n),
        "half_width": [float(h) for h in jk.grid.half_width],
        "t0": jk.t0,
        "mollifier_width": jk.mollifier_width,
        "dtype": "<f8",
        "order": "C",
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_j_kernel(path) -> JKernel:
    path = Path(path)
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("format") != _JKERNEL_FORMAT or sidecar.get("version") != 1:
        raise ValueError("not a derivative-kernel file")
    grid = Grid(tuple(sidecar["n"]), tuple(sidecar["half_width"]))
    raw = np.fromfile(path, dtype="<f8")
    want = grid.node_count ** 2
    if raw.size != want:
        raise ValueError(
            f"kernel payload holds {raw.size} values, expected {want}")
    return JKernel(grid=grid, t0=float(sidecar["t0"]),
                   values=raw.reshape(grid.shape + grid.shape),
                   mollifier_width=float(sidecar["mollifier_width"]))
