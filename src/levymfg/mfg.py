"""Coupled mean field game solve by damped best-response iteration.

The equilibrium pair is found by iterating on the density path: given a
guess for the crowd's evolution, the backward value solve prices it, the
value's momentum gradient yields the optimal control drift, and the forward
density solve transports the initial crowd under that drift.  The new path
is blended with the old one (damping) and the loop stops once consecutive
paths agree uniformly in time under the bounded-Lipschitz metric.

Convergence is monitored, never assumed: a run that exhausts its iteration
budget returns a report carrying the best iterate and the full gap history
instead of raising.  Diagnostics for uniqueness (cross-monotonicity
integrals) and initial-data stability (perturbation-ratio probes) operate
on pairs of computed solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .coupling import Zero, eval_F
from .errors import DivergenceError, GridMismatchError, InstabilityError
from .grid import Grid, _batch_gradient
from .hjb import Trajectory, _check_operand, solve_hjb
from .fp import _project_slices, solve_fp
from .kernels import KernelCache
from .measures import Measure, d0_distance, path_metric

_SLICE_MASS_TOL = 1e-9
_DEGENERATE_D0 = 1e-12
_GAP_RISE_STREAK = 5


# --------------------------------------------------------------------------
# problem / solution containers


@dataclass(frozen=True)
class IterationPolicy:
    """Outer-loop controls: blend weight, budget, and stopping gap."""

    damping: float = 0.5
    max_iters: int = 40
    tol_d0: float = 1e-6
    picard_sweeps: int = 2

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping {self.damping!r} outside (0, 1]")
        if self.max_iters < 1:
            raise ValueError("need at least one outer iteration")
        if not self.tol_d0 > 0.0:
            raise ValueError("stopping gap tol_d0 must be positive")
        if self.picard_sweeps < 0:
            raise ValueError("picard_sweeps must be nonnegative")


@dataclass(frozen=True)
class MfgProblem:
    """Data for one coupled solve.

    ``running_cost`` maps the current crowd density to the source term of
    the backward value equation; ``terminal_cost`` maps the final density
    to the terminal value.  Either may be ``coupling.Zero`` for a system
    that ignores the crowd on that channel.
    """

    kernel: KernelCache
    hamiltonian: object
    running_cost: object
    terminal_cost: object
    m0: Measure
    t0: float
    T: float
    n_steps: int
    policy: IterationPolicy = field(default_factory=IterationPolicy)

    def __post_init__(self):
        if self.m0.grid != self.kernel.grid:
            raise GridMismatchError(
                "initial measure lives on a different grid than the kernel")
        if not self.T > self.t0:
            raise ValueError("degenerate time slab: need T > t0")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def grid(self) -> Grid:
        return self.kernel.grid

    @property
    def decoupled(self) -> bool:
        return isinstance(self.running_cost, Zero) and isinstance(
            self.terminal_cost, Zero)


@dataclass(frozen=True)
class MfgSolution:
    """Equilibrium candidate plus the full iteration record.

    ``m`` holds unit-mass nonnegative density slices; ``u`` is the value
    trajectory computed against the path that generated ``m``, so the pair
    is an exactly consistent backward/forward solve.  ``gap_history[k]``
    is the damped path update's sup-in-time bounded-Lipschitz size at
    outer iteration k, and ``damping_history[k]`` the blend weight used.
    """

    u: Trajectory
    m: Trajectory
    converged: bool
    iterations: int
    gap_history: tuple[float, ...]
    damping_history: tuple[float, ...]
    diagnostics: dict
    problem: MfgProblem

    def __post_init__(self):
        if self.u.is_vector or self.m.is_vector:
            raise ValueError("solution trajectories must be scalar")
        if (self.u.t0, self.u.T, self.u.n_steps) != (
                self.m.t0, self.m.T, self.m.n_steps):
            raise ValueError("value and density trajectories disagree in time")
        if float(np.min(self.m.values)) < 0.0:
            raise ValueError("density path has a negative slice")
        vol = self.m.grid.cell_volume
        masses = vol * self.m.values.reshape(self.m.values.shape[0], -1).sum(axis=1)
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > _SLICE_MASS_TOL:
            raise ValueError(f"density slice mass off by {worst:.3e}")
        if self.iterations < 1:
            raise ValueError("at least one iteration must be recorded")
        if len(self.gap_history) != self.iterations:
            raise ValueError("gap history must have one entry per iteration")
        if len(self.damping_history) != self.iterations:
            raise ValueError("damping history must match the gap history")

    def measure_at(self, k: int) -> Measure:
        return Measure.from_values(self.m.grid, self.m.values[k])


# --------------------------------------------------------------------------
# best response machinery


def optimal_drift(hamiltonian, u: Trajectory) -> Trajectory:
    """Control drift: the Hamiltonian's momentum gradient along ``u``.

    Returns the vector trajectory whose slice k is D_pH(x, u_k, Du_k),
    the velocity field the forward density solve transports against.
    """
    if u.is_vector:
        raise ValueError("optimal drift needs a scalar value trajectory")
    grid = u.grid
    mesh = grid.meshgrid()
    grads = _batch_gradient(grid, u.values)
    comps = hamiltonian.grad_p(mesh, u.values, grads)
    stacked = np.stack(
        [np.broadcast_to(np.asarray(c, dtype=float), u.values.shape)
         for c in comps], axis=1)
    return Trajectory(grid, u.t0, u.T, stacked)


def _source_trajectory(coupling, grid: Grid, path: np.ndarray, t0: float,
                       T: float) -> Trajectory | None:
    if isinstance(coupling, Zero):
        return None
    slices = np.stack([
        eval_F(coupling, Measure.from_values(grid, path[k])).values
        for k in range(path.shape[0])])
    return Trajectory(grid, t0, T, slices)


def _best_response(problem: MfgProblem, path: np.ndarray
                   ) -> tuple[Trajectory, np.ndarray, float, float, float]:
    """One sweep of the fixed-point map: price the path, transport against it."""
    grid = problem.grid
    source = _source_trajectory(
        problem.running_cost, grid, path, problem.t0, problem.T)
    terminal = eval_F(
        problem.terminal_cost, Measure.from_values(grid, path[-1]))
    u = solve_hjb(problem.kernel, problem.hamiltonian, source, terminal,
                  problem.t0, problem.T, problem.n_steps,
                  picard_sweeps=problem.policy.picard_sweeps)
    drift = optimal_drift(problem.hamiltonian, u)
    rho = solve_fp(problem.kernel, drift, problem.m0.density, None,
                   problem.t0, problem.T, problem.n_steps)
    cleaned, defect, neg_clip = _project_slices(grid, rho.values)
    drift_sup = float(np.max(np.abs(drift.values)))
    return u, cleaned, defect, neg_clip, drift_sup


def _path_gap(grid: Grid, new: np.ndarray, old: np.ndarray) -> float:
    """sup over time slices of the bounded-Lipschitz distance."""
    return float(np.max(path_metric(grid, new, old)))


def next_damping(gap_history: Sequence[float], damping: float,
                 streak: int) -> tuple[float, int, bool]:
    """Damping schedule: halve after a persistent gap increase.

    ``streak`` counts consecutive iterations whose gap grew; once it
    reaches five the blend weight is halved and the streak resets.
    Returns (new damping, new streak, whether a halving fired).
    """
    if len(gap_history) >= 2 and gap_history[-1] > gap_history[-2]:
        streak += 1
    else:
        streak = 0
    if streak >= _GAP_RISE_STREAK:
        return 0.5 * damping, 0, True
    return damping, streak, False


def diffused_initial_path(kernel: KernelCache, m0: Measure, t0: float,
                          T: float, n_steps: int) -> Trajectory:
    """Drift-free evolution of ``m0``: a cheap non-constant initial guess."""
    rho = solve_fp(kernel, None, m0.density, None, t0, T, n_steps)
    cleaned, _, _ = _project_slices(kernel.grid, rho.values)
    return Trajectory(kernel.grid, t0, T, cleaned)


# --------------------------------------------------------------------------
# the coupled solve


def solve_mfg(problem: MfgProblem,
              initial_path: Trajectory | None = None) -> MfgSolution:
    """Damped fixed-point iteration on the crowd's density path.

    Starting from a constant-in-time path at ``m0`` (or the supplied
    guess), each iteration computes the best response — backward value
    solve with crowd-dependent source and terminal data, then forward
    transport under the optimal drift — and blends it into the current
    path with weight ``policy.damping``.  The loop stops when the blended
    update is uniformly smaller than ``policy.tol_d0`` in the
    bounded-Lipschitz metric; exhausting ``max_iters`` returns the best
    iterate with ``converged=False`` rather than raising.  Solver
    blow-ups inside an iteration propagate with the iterate index
    prefixed.

    A crowd-independent system (both couplings ``Zero``) is recognized
    and solved in a single undamped iteration, so its value trajectory is
    bit-identical to a standalone backward solve.
    """
    grid = problem.grid
    n_slices = problem.n_steps + 1
    if initial_path is None:
        path = np.broadcast_to(
            problem.m0.values, (n_slices,) + grid.shape).copy()
    else:
        _check_operand("initial path", initial_path, grid, problem.t0,
                       problem.T, problem.n_steps, vector=False)
        path, _, _ = _project_slices(grid, initial_path.values)

    policy = problem.policy
    damping = 1.0 if problem.decoupled else policy.damping
    streak = 0
    gap_history: list[float] = []
    damping_history: list[float] = []
    damping_events: list[dict] = []
    best: tuple[float, Trajectory, np.ndarray] | None = None
    diagnostics: dict = {"decoupled": problem.decoupled}
    converged = False
    u = None
    response = path

    for k in range(policy.max_iters):
        try:
            u, response, defect, neg_clip, drift_sup = _best_response(
                problem, path)
        except (DivergenceError, InstabilityError) as exc:
            raise type(exc)(f"outer iteration {k}: {exc}") from exc
        # The metric is positively homogeneous in the signed difference,
        # so the damped update's gap is exactly damping * (response gap).
        response_gap = _path_gap(grid, response, path)
        gap = damping * response_gap
        gap_history.append(gap)
        damping_history.append(damping)
        diagnostics.update(
            renorm_defect_max=defect, negative_clip_max=neg_clip,
            drift_sup=drift_sup, response_gap=response_gap)
        if best is None or gap < best[0]:
            best = (gap, u, response)
            diagnostics["best_iteration"] = k
        path = path + damping * (response - path)
        if problem.decoupled or gap < policy.tol_d0:
            converged = True
            break
        damping, streak, halved = next_damping(gap_history, damping, streak)
        if halved:
            damping_events.append({"iteration": k, "new_damping": damping})

    diagnostics["damping_events"] = tuple(
        (e["iteration"], e["new_damping"]) for e in damping_events)
    if converged:
        final_u, final_m = u, response
    else:
        _, final_u, final_m = best
    return MfgSolution(
        u=final_u,
        m=Trajectory(grid, problem.t0, problem.T, final_m),
        converged=converged,
        iterations=len(gap_history),
        gap_history=tuple(gap_history),
        damping_history=tuple(damping_history),
        diagnostics=diagnostics,
        problem=problem,
    )


# --------------------------------------------------------------------------
# cross-monotonicity (uniqueness mechanism) diagnostics


@dataclass(frozen=True)
class CrossMonotonicityReport:
    """Two-solution convexity/monotonicity balance.

    ``cross_term`` is the time-space integral of both Bregman gaps of the
    Hamiltonian weighted by the other solution's density — nonnegative
    for convex Hamiltonians.  ``rhs`` is the initial-pairing bound it
    must stay under: the plain value/measure pairing at the start time
    for momentum-only Hamiltonians, or the positive/negative-part
    bracket (plus its value-slope time integral) when the Hamiltonian
    depends on the value itself.
    """

    cross_term: float
    rhs: float
    variant: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "cross_term": self.cross_term,
            "rhs": self.rhs,
            "variant": self.variant,
            "pass": self.passed,
        }


def _bregman_gap(ham, mesh, u_vals, p_first, p_second):
    """H(x, u, p1) - H(x, u, p2) - D_pH(x, u, p2) . (p1 - p2)."""
    gap = ham.value(mesh, u_vals, p_first) - ham.value(mesh, u_vals, p_second)
    grad = ham.grad_p(mesh, u_vals, p_second)
    for gi, ai, bi in zip(grad, p_first, p_second):
        gap = gap - gi * (ai - bi)
    return gap


def lasry_lions_check(sol1: MfgSolution, sol2: MfgSolution,
                      upper_slack: float = 1e-7,
                      lower_slack: float = 1e-8) -> CrossMonotonicityReport:
    """Evaluate the two-solution monotonicity inequality on computed runs.

    Both solutions must share the grid, the time slab, and the
    Hamiltonian object.  The value-dependent variant is evaluated in its
    explicit integral form — bracket at the start time plus the
    value-slope bound times the bracket's time integral — so both sides
    are directly computable.
    """
    p1, p2 = sol1.problem, sol2.problem
    if p1.grid != p2.grid:
        raise GridMismatchError("solutions live on different grids")
    if (p1.t0, p1.T, p1.n_steps) != (p2.t0, p2.T, p2.n_steps):
        raise ValueError("solutions discretize different time slabs")
    if p1.hamiltonian is not p2.hamiltonian and p1.hamiltonian != p2.hamiltonian:
        raise ValueError("solutions were priced with different Hamiltonians")
    ham = p1.hamiltonian
    grid = p1.grid
    mesh = grid.meshgrid()
    vol = grid.cell_volume
    dt = sol1.u.dt

    u1, u2 = sol1.u.values, sol2.u.values
    m1, m2 = sol1.m.values, sol2.m.values
    du1 = _batch_gradient(grid, u1)
    du2 = _batch_gradient(grid, u2)

    tail = tuple(range(1, 1 + grid.dims))
    gap_against_m2 = _bregman_gap(ham, mesh, u2, du1, du2)
    gap_against_m1 = _bregman_gap(ham, mesh, u1, du2, du1)
    per_slice = vol * (
        np.sum(gap_against_m2 * m2, axis=tail)
        + np.sum(gap_against_m1 * m1, axis=tail))
    cross = float(np.trapezoid(per_slice, dx=dt))

    slope_fn = getattr(ham, "u_slope", None)
    if not callable(slope_fn):
        rhs = vol * float(np.sum((u1[0] - u2[0]) * (m1[0] - m2[0])))
        variant = "gradient-only"
    else:
        w = u1 - u2
        dm = m1 - m2
        bracket = vol * (
            np.sum(np.maximum(w, 0.0) * np.maximum(dm, 0.0), axis=tail)
            + np.sum(np.maximum(-w, 0.0) * np.maximum(-dm, 0.0), axis=tail))
        slope = max(
            float(np.max(np.abs(slope_fn(mesh, u1, du1)))),
            float(np.max(np.abs(slope_fn(mesh, u2, du2)))))
        rhs = float(bracket[0]) + slope * float(np.trapezoid(bracket, dx=dt))
        variant = "split-positive-part"

    passed = (cross <= rhs + upper_slack) and (cross >= -lower_slack)
    return CrossMonotonicityReport(
        cross_term=cross, rhs=rhs, variant=variant, passed=passed)


# --------------------------------------------------------------------------
# initial-data stability probe


@dataclass(frozen=True)
class StabilityProbeReport:
    """Perturbation response of one solve pair.

    ``ratio`` is (sup-in-time density gap + sup-in-time value gap) over
    the initial bounded-Lipschitz perturbation size; a ladder of probes
    with shrinking perturbations should keep it in a bounded band.
    """

    d0_initial: float
    sup_d0_gap: float
    sup_u_gap: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "d0_initial": self.d0_initial,
            "sup_d0_gap": self.sup_d0_gap,
            "sup_u_gap": self.sup_u_gap,
            "ratio": self.ratio,
        }


def lipschitz_stability_probe(problem: MfgProblem,
                              m0_prime: Measure) -> StabilityProbeReport:
    """Solve twice (original and perturbed start) and size the response.

    Restricted to momentum-only Hamiltonians: the value-dependent
    monotonicity inequality splits the initial measure difference into
    positive and negative parts and is too weak to control the response
    by the full perturbation distance.
    """
    if callable(getattr(problem.hamiltonian, "u_slope", None)):
        raise ValueError(
            "stability probe is restricted to gradient-only Hamiltonians "
            "(no value dependence)")
    base = d0_distance(problem.m0.density, m0_prime.density)
    if base < _DEGENERATE_D0:
        raise ValueError(
            f"degenerate probe: initial perturbation {base:.3e} below "
            f"{_DEGENERATE_D0:g}")
    sol1 = solve_mfg(problem)
    sol2 = solve_mfg(replace(problem, m0=m0_prime))
    if not (sol1.converged and sol2.converged):
        raise ValueError("stability probe needs both solves to converge")
    grid = problem.grid
    sup_d0 = _path_gap(grid, sol1.m.values, sol2.m.values)
    sup_u = float(np.max(np.abs(sol1.u.values - sol2.u.values)))
    return StabilityProbeReport(
        d0_initial=base, sup_d0_gap=sup_d0, sup_u_gap=sup_u,
        ratio=(sup_d0 + sup_u) / base)
