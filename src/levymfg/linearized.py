"""Linear forward-backward systems and the measure derivative of the value.

The system pairs a backward transport equation for a scalar z,

    -dz/dt - L z + V . Dz = <dF/dm(x, m(t)), rho(t)> + b(t, x),
    z(T, x) = <dG/dm(x, m(T)), rho(T)> + z_T(x),

with the forward divergence-form equation its duality pairing singles out,

    d(rho)/dt = L* rho + div(rho V) + div(m Gamma Dz + c),
    rho(t0, x) = rho0(x),

and resolves the two-way coupling by alternation: freeze rho, solve z
backward; freeze z, rebuild rho forward, in the Anderson-mixed loop of
the MFG solve (``mfg._fixed_point``).  Around a converged MFG solution (V
the optimal drift, Gamma the momentum curvature of the Hamiltonian, the
couplings the measure derivatives of the running and terminal costs) the
solution map rho0 -> z(t0, .) is the derivative of the equilibrium value
in its initial measure; with rho0 a mollified grid delta at y, z(t0, x)
is the derivative kernel J(t0, x, m0, y).

Both legs run the one mild march of the ``hjb`` module, exponential Euler
plus two trapezoid Picard sweeps: z in the reversed clock with the
integrand b + <dF/dm, rho> - V . Dz, rho forward with the adjoint kernel
and the integrand div(rho V + m Gamma Dz + c).  The forward leg needs the
sweeps as much as the backward one: the duality pairing of the two legs
only closes at O(dt^2) when both sides are integrated at matching order,
and the plain first-order pass leaves an O(dt) energy defect that no
affordable step count brings under the certification tolerances.

A solve takes one initial datum rho0.  A pairing of J with a fixed
zero-mass direction is, by superposition, one solve with the direction
(mollified) as rho0, so neither the derivative kernel nor the master
residual needs more than one datum per alternation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .coupling import (_action_weights, _check_derivative_couplings,
                       _dmF_action)
from .errors import (
    BudgetError,
    DivergenceError,
    GridMismatchError,
    InstabilityError,
)
from .fp import _forward_values
from .grid import Field, Grid, _Record, _batch_gradient
# both legs take solve_hjb's trapezoid Picard sweeps: the duality pairing
# needs matching order (see above)
from .hjb import _PICARD_SWEEPS, Trajectory, _check_operand, _march_backward
from .kernels import KernelCache
from .measures import _density_rows, mollifier_field, signed_dual_norm
from .mfg import IterationPolicy, MfgSolution, _fixed_point, optimal_drift

_SYMMETRY_TOL = 1e-12
_ELLIPTICITY_TOL = 1e-9
_BATCH_NODE_CAP = 128  # y nodes per axis of a full J batch


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
        _density_rows(grid, self.density.values)

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
        _check_derivative_couplings(grid, self.running_coupling,
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


# --------------------------------------------------------------------------
# assembly helpers


def _coupling_weights(system: LinSystem
                      ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Measure-dependent factors of the running and terminal actions.

    They depend on the base path only, so a solve computes them once, not
    on every alternation, with one smoothing convolution over all slices;
    None where the action does not read the measure.  The terminal weight
    keeps a slice axis of length one.
    """
    grid, dens = system.grid, system.density.values
    return (_action_weights(system.running_coupling, grid, dens),
            _action_weights(system.terminal_coupling, grid, dens[-1:]))


def _coupling_actions(system: LinSystem, weights: tuple,
                      rho_values: np.ndarray
                      ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Derivative actions of the running (per slice) and terminal couplings.

    Returns <dF/dm(x, m(t)), rho(t)> over all slices and <dG/dm(x, m(T)),
    rho(T)> with a slice axis of length one, each None when its coupling
    is Zero.  ``rho_values`` has its time axis first; ``weights`` comes
    from ``_coupling_weights``.
    """
    grid = system.grid
    running_weight, terminal_weight = weights
    return (_dmF_action(system.running_coupling, grid, running_weight,
                        rho_values),
            _dmF_action(system.terminal_coupling, grid, terminal_weight,
                        rho_values[-1:]))


def _backward_data(system: LinSystem, weights: tuple,
                   rho_values: np.ndarray
                   ) -> tuple[np.ndarray | None, np.ndarray]:
    """Source array (time axis first) and terminal values of the
    z-equation given rho."""
    running, terminal = _coupling_actions(system, weights, rho_values)
    source = None if system.forcing is None else system.forcing.values
    if running is not None:
        source = running if source is None else source + running
    end = system.terminal.values
    if terminal is not None:
        end = end + terminal[0]
    return source, end


def _flux_values(system: LinSystem, z_values: np.ndarray) -> np.ndarray:
    """Vector source m Gamma Dz + c of the forward equation.

    ``z_values`` has its time axis first, and the flux gets its vector
    axis right after it.
    """
    grid = system.grid
    grads = _batch_gradient(grid, z_values)
    gamma, density = system.curvature, system.density.values
    comps = []
    for i in range(grid.dims):
        acc = gamma[:, i, 0] * grads[0]
        for j in range(1, grid.dims):
            acc = acc + gamma[:, i, j] * grads[j]
        comps.append(density * acc)
    flux = np.stack(comps, axis=1)
    if system.flux_forcing is not None:
        flux = flux + system.flux_forcing.values
    return flux


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
# the alternation


@dataclass(frozen=True)
class LinearReport(_Record):
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


def solve_linear_system(system: LinSystem, damping: float = 0.5,
                        max_iters: int = 40, tol: float = 1e-9
                        ) -> tuple[Trajectory, Trajectory, LinearReport]:
    """Anderson-mixed alternation between the backward and forward legs.

    The fixed-point loop of ``mfg._fixed_point`` on rho, with mixing
    weight ``damping``, budget ``max_iters`` and stopping gap ``tol``
    (checked as an ``mfg.IterationPolicy``): each pass solves z backward
    against the frozen rho, then rebuilds rho forward against that z.  The
    start is the forward flow of rho0 with the z-feedback flux dropped,
    and the steps are not projected (rho is a signed perturbation).  A
    leg's DivergenceError or InstabilityError is raised again tagged
    "alternation iteration k", k counting from 1, with 0 for the initial
    flow.  The returned pair is the raw response of the pass of smallest
    gap (a consistent backward/forward pair), the last pass of a converged
    solve, where the dual-norm sup of its rho, the measure part of
    ``output_norm``, joins the gaps' one closing chain-program call.  Both
    legs run the one mild march ``hjb._mild_march``, z through
    ``_march_backward`` and rho through ``fp._forward_values``, with two
    trapezoid Picard sweeps each.
    """
    policy = IterationPolicy(damping, max_iters, tol)
    grid = system.grid
    kernel, drift, rho0 = system.kernel, system.drift.values, system.rho0.values
    t0, T, n = system.t0, system.T, system.n_steps
    weights = _coupling_weights(system)
    # the backward leg's drive reads its operands in march order
    marched_drift = drift[::-1]

    def legs(rho_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z backward against a frozen rho, then rho forward against z."""
        source, terminal = _backward_data(system, weights, rho_values)
        marched = None if source is None else source[::-1]

        def drive(values: np.ndarray, grads: tuple, k) -> np.ndarray:
            """Source b + <dF/dm, rho> - V . Dz from the march's Dz."""
            adv = marched_drift[k, 0] * grads[0]
            for i in range(1, grid.dims):
                adv = adv + marched_drift[k, i] * grads[i]
            return -adv if marched is None else marched[k] - adv

        z = _march_backward(kernel, terminal, t0, T, n, _PICARD_SWEEPS,
                            drive)
        rho = _forward_values(kernel, drift, _flux_values(system, z),
                              rho0, t0, T, n, _PICARD_SWEEPS)
        return rho, z

    flux = system.flux_forcing
    try:
        start = _forward_values(
            kernel, drift, None if flux is None else flux.values, rho0,
            t0, T, n, _PICARD_SWEEPS)
    except (DivergenceError, InstabilityError) as exc:
        raise type(exc)(f"alternation iteration 0: {exc}") from exc
    passes, best, sups, converged, _ = _fixed_point(
        legs, start, policy, grid, lambda k: f"alternation iteration {k + 1}")

    rho, z = (Trajectory._marched(grid, t0, T, values)
              for values in passes[best])
    rho_sup = sups.add(rho.values)
    gaps = tuple(damping * sups.sup(k) for k in range(rho_sup))
    data = _data_norm(system)
    out = float(np.max(np.abs(z.values))) + sups.sup(rho_sup)
    report = LinearReport(
        converged=converged, iterations=len(gaps), gap_history=gaps,
        damping=damping, data_norm=data, output_norm=out,
        apriori_ratio=(out / data if data > 0.0 else 0.0))
    return z, rho, report


# --------------------------------------------------------------------------
# duality identity


@dataclass(frozen=True)
class DualityReport(_Record):
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

    running, terminal = _coupling_actions(
        system, _coupling_weights(system), rho.values)
    quad_running = quad_terminal = 0.0
    if running is not None:
        series = vol * np.sum(running * rho.values, axis=axes)
        quad_running = float(np.trapezoid(series, dx=dt))
    if terminal is not None:
        quad_terminal = vol * float(np.sum(terminal[0] * rho.values[-1]))

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
    running, terminal = (None, None) if couplings is None else couplings
    rho0 = mollified_delta(solution.problem.grid, y)
    system = linearize(solution, rho0, running_coupling=running,
                       terminal_coupling=terminal)
    return _solved_initial(system, f"derivative solve at y={y}", damping,
                           max_iters, tol)


def _solved_initial(system: LinSystem, label: str, damping: float = 0.5,
                    max_iters: int = 40, tol: float = 1e-9) -> Field:
    """z(t0) of ``solve_linear_system``, failures tagged with ``label``.

    A leg's error gets the label in front; a stall raises InstabilityError.
    """
    try:
        z, _, report = solve_linear_system(system, damping, max_iters, tol)
    except (DivergenceError, InstabilityError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc
    if not report.converged:
        raise InstabilityError(
            f"{label}: alternation stalled at gap "
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


def j_field_batch(solution: MfgSolution, *, damping: float = 0.5) -> JKernel:
    """Tabulate J(t0, x, m0, y) for every grid node y.

    Each row is one ``j_field`` solve with the solution's own costs, taken
    at the nodes in row-major order.  Refuses grids beyond 128 nodes per
    axis: the table holds node_count^2 values (2 GiB at 128x128), and the
    step budget dt <= 0.5*dx^alpha lengthens every row's march as the grid
    refines.
    """
    grid = solution.problem.grid
    if any(ni > _BATCH_NODE_CAP for ni in grid.n):
        raise BudgetError(
            f"y-batch over {grid.n} nodes exceeds the "
            f"{_BATCH_NODE_CAP}-per-axis budget")
    axes = grid.meshgrid()
    rows = [j_field(solution, None, tuple(float(ax[iy]) for ax in axes),
                    damping=damping).values
            for iy in np.ndindex(grid.shape)]
    out = np.stack(rows).reshape(grid.shape + grid.shape)
    return JKernel(grid=grid, t0=solution.u.t0, values=out,
                   mollifier_width=2.0 * max(grid.dx))
