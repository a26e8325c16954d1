"""Coupled mean field game solve by Anderson-mixed best-response iteration.

The equilibrium pair is found by iterating on the density path: given a
guess for the crowd's evolution, the backward value solve prices it, the
value's momentum gradient yields the optimal control drift, and the forward
density solve transports the initial crowd under that drift.  The next path
is an Anderson mix (Walker & Ni, SIAM J. Numer. Anal. 2011) of the recent
paths and best responses with one mixing weight, ``damping``, for the whole
solve, and the loop stops once the best response and the path it answered
agree uniformly in time under the bounded-Lipschitz metric.  The same
loop, ``_fixed_point``, solves the linear forward-backward system of
``linearized``.

Convergence is monitored, never assumed: a run that exhausts its iteration
budget returns a report carrying the best iterate and the full gap history
instead of raising.  Diagnostics for uniqueness (cross-monotonicity
integrals) and initial-data stability (perturbation-ratio probes) operate
on pairs of computed solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .coupling import _check_derivative_couplings, _price_path
from .errors import DivergenceError, GridMismatchError, InstabilityError
from .grid import Field, Grid, _Record, _batch_gradient, _check_integer
from .hjb import Trajectory, _check_operand, solve_hjb
from .fp import _project_slices, solve_fp
from .kernels import KernelCache
from .measures import Measure, _PathSups, d0_distance, path_metric

_SLICE_MASS_TOL = 1e-9
_DEGENERATE_D0 = 1e-12
_ANDERSON_DEPTH = 5  # residual differences in one Anderson least squares
_LL_UPPER_SLACK = 1e-7  # float slack of the Lasry-Lions inequality
_LL_LOWER_SLACK = 1e-8


# --------------------------------------------------------------------------
# problem / solution containers


@dataclass(frozen=True)
class IterationPolicy:
    """Controls of ``_fixed_point``: mixing weight, budget, stopping gap.

    ``damping`` is the mixing weight of every Anderson step of the solve;
    with no history the step is the damped update
    path + damping * (response - path).  The loop stops once damping
    times the response gap falls below ``tol_d0``.
    """

    damping: float = 0.5
    max_iters: int = 40
    tol_d0: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping {self.damping!r} outside (0, 1]")
        _check_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if not self.tol_d0 > 0.0:
            raise ValueError("stopping gap tol_d0 must be positive")


@dataclass(frozen=True)
class MfgProblem:
    """Data for one coupled solve.

    ``running_cost`` maps the current crowd density to the source term of
    the backward value equation; ``terminal_cost`` maps the final density
    to the terminal value.  Either may be ``coupling.Zero`` for a system
    that ignores the crowd on that channel.  Both are checked at
    construction (``coupling._check_derivative_couplings``).
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
        _check_integer("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
        _check_derivative_couplings(self.grid, self.running_cost,
                                    self.terminal_cost)

    @property
    def grid(self) -> Grid:
        return self.kernel.grid


@dataclass(frozen=True)
class MfgSolution:
    """Equilibrium candidate plus the full iteration record.

    ``m`` holds unit-mass nonnegative density slices; ``u`` is the value
    trajectory computed against the path that generated ``m``, so the pair
    is an exactly consistent backward/forward solve.  ``gap_history[k]``
    is the gap of pass k of ``_fixed_point``, made exact.  ``diagnostics``
    holds the seven keys ``solve_mfg`` writes: the projection counters of
    ``_fixed_point`` (``extrapolation_clip_max`` and ``anderson_resets``),
    ``best_iteration`` (the pass of smallest gap, whose pair is returned)
    and, of that pass's best response, ``renorm_defect_max`` and
    ``negative_clip_max`` (the worst slice mass defect and deepest
    negative value its clamp removed), ``drift_sup`` (sup |drift|) and
    ``response_gap`` (the undamped sup-in-time gap to its path).
    """

    u: Trajectory
    m: Trajectory
    converged: bool
    iterations: int
    gap_history: tuple[float, ...]
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


def _best_response(problem: MfgProblem, path: np.ndarray
                   ) -> tuple[Trajectory, np.ndarray, float, float, float]:
    """One sweep of the fixed-point map: price the path, transport against it.

    Both costs are priced from one validated transform of the path
    (``coupling._price_path``).
    """
    grid = problem.grid
    source, terminal = _price_path(problem.running_cost,
                                   problem.terminal_cost, grid, path)
    if source is not None:
        source = Trajectory(grid, problem.t0, problem.T, source)
    u = solve_hjb(problem.kernel, problem.hamiltonian, source,
                  Field(grid, terminal), problem.t0, problem.T,
                  problem.n_steps)
    drift = optimal_drift(problem.hamiltonian, u)
    rho = solve_fp(problem.kernel, drift, problem.m0.density, None,
                   problem.t0, problem.T, problem.n_steps)
    cleaned, defect, neg_clip = _project_slices(grid, rho.values)
    drift_sup = float(np.max(np.abs(drift.values)))
    return u, cleaned, defect, neg_clip, drift_sup


# --------------------------------------------------------------------------
# the Anderson-mixed fixed point of both coupled systems


def _anderson(x: np.ndarray, f: np.ndarray, xs: list, fs: list,
              weight: float) -> np.ndarray:
    """One Anderson (type II) step of mixing weight ``weight``.

    ``x`` is the current iterate and ``f`` its residual (map value minus
    iterate); ``xs`` and ``fs`` hold the previous iterates and residuals,
    oldest first.  The coefficients gamma minimize |f - dF gamma| over the
    differences dF of consecutive residuals, and the step is
    x + weight * f - (dX + weight * dF) gamma, with dX the differences of
    the iterates; an empty history leaves x + weight * f.  The step then
    appends ``x`` and ``f`` to the history and keeps its last
    ``_ANDERSON_DEPTH`` entries; the caller must not mutate them later.
    """
    step = x + weight * f
    if xs:
        dx = np.diff(np.stack(xs + [x]).reshape(len(xs) + 1, -1), axis=0).T
        df = np.diff(np.stack(fs + [f]).reshape(len(fs) + 1, -1), axis=0).T
        gamma = np.linalg.lstsq(df, f.reshape(-1), rcond=None)[0]
        step = step - ((dx + weight * df) @ gamma).reshape(x.shape)
    xs.append(x)
    fs.append(f)
    del xs[:-_ANDERSON_DEPTH], fs[:-_ANDERSON_DEPTH]
    return step


def _fixed_point(respond: Callable, start: np.ndarray,
                 policy: IterationPolicy, grid: Grid,
                 tag: Callable[[int], str], project: Callable | None = None
                 ) -> tuple[list, int, _PathSups, bool, dict]:
    """Anderson-mixed fixed point of ``respond`` from the path ``start``.

    Pass k calls ``respond(path) -> (response, extra)`` and records its
    gap, ``policy.damping`` times the sup over the slices of the
    bounded-Lipschitz dual norm of response - path (the size of a plain
    damped update), as a certified bracket in a ``measures._PathSups``.
    The loop stops once the gap lies below ``policy.tol_d0``; the exact
    chain program runs only when the bracket straddles the bound.
    Otherwise the next path is one ``_anderson`` step of mixing weight
    ``policy.damping``.  ``project``, if given, maps the step to the next
    path or raises InstabilityError to refuse it: a refused step becomes
    the plain damped step path + damping * (response - path) and clears
    the history.  A DivergenceError or InstabilityError of ``respond`` is
    raised again prefixed with ``tag(k)``; a non-finite response raises
    ValueError in its own stop test.

    Returns every pass's ``(response, extra)``, the first pass of smallest
    gap (the last of a converged loop, which stops there, so its brackets
    stay open for the caller's closing call), the ``_PathSups``, whether
    the loop converged, and the counters ``extrapolation_clip_max`` (the
    deepest negative entry of a step before ``project``) and
    ``anderson_resets`` (the refused steps).
    """
    damping = policy.damping
    gaps = _PathSups(grid)
    passes, paths, residuals = [], [], []
    counters = {"extrapolation_clip_max": 0.0, "anderson_resets": 0}
    path = start
    for k in range(policy.max_iters):
        try:
            response, extra = respond(path)
        except (DivergenceError, InstabilityError) as exc:
            raise type(exc)(f"{tag(k)}: {exc}") from exc
        passes.append((response, extra))
        residual = response - path
        if gaps.less(gaps.add(residual, scale=damping), bound=policy.tol_d0):
            return passes, k, gaps, True, counters
        step = _anderson(path, residual, paths, residuals, damping)
        if project is not None:
            counters["extrapolation_clip_max"] = max(
                counters["extrapolation_clip_max"], -float(np.min(step)))
            try:
                step = project(step)
            except InstabilityError:
                # of two densities, the plain damped step is a convex mix
                step = path + damping * residual
                paths.clear()
                residuals.clear()
                counters["anderson_resets"] += 1
        path = step
    best = min(range(len(passes)), key=lambda j: damping * gaps.sup(j))
    return passes, best, gaps, False, counters


# --------------------------------------------------------------------------
# the coupled solve


def solve_mfg(problem: MfgProblem,
              initial_path: Trajectory | None = None) -> MfgSolution:
    """Best-response iteration on the crowd's density path (``_fixed_point``).

    A pass prices the path by the backward value solve, then transports
    m0 forward under the optimal drift.  The start is the constant path at
    ``m0``, or the supplied guess projected onto densities, and each step
    is projected the same way (``fp._project_slices``, which refuses a
    clip of more mass than its renormalization budget).  Blow-ups are
    tagged "outer iteration k", k from 0.  The returned pair is the best
    response of the pass of smallest gap, so a solve that exhausts
    ``max_iters`` returns with ``converged=False`` rather than raising.
    The closing call makes every gap exact: ``gap_history`` is bitwise
    ``damping * np.max(path_metric(grid, response, path))``, in one
    program call on a converged 64-node solve.

    The master layer (``master.py``) passes m0's free flow, the
    Fokker-Planck march of m0 with zero drift, as ``initial_path``, which
    saves it an outer iteration per solve.  The default start stays the
    constant path: on a 64-node 1D problem the free-flow start cuts 6
    iterations to 4 but stops with a larger final response gap (3.5e-7
    to 4.3e-7 against about 4e-8).
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

    def respond(path: np.ndarray) -> tuple[np.ndarray, tuple]:
        out = _best_response(problem, path)
        return out[1], out

    passes, best, gaps, converged, diagnostics = _fixed_point(
        respond, path, problem.policy, grid,
        lambda k: f"outer iteration {k}",
        lambda step: _project_slices(grid, step)[0])
    u, m, defect, neg_clip, drift_sup = passes[best][1]
    damping = problem.policy.damping
    gap_history = tuple(damping * gaps.sup(k) for k in range(len(passes)))
    diagnostics.update(renorm_defect_max=defect, negative_clip_max=neg_clip,
                       drift_sup=drift_sup, response_gap=gaps.sup(best),
                       best_iteration=best)
    return MfgSolution(
        u=u,
        m=Trajectory(grid, problem.t0, problem.T, m),
        converged=converged,
        iterations=len(gap_history),
        gap_history=gap_history,
        diagnostics=diagnostics,
        problem=problem,
    )


def _require_converged(solution: MfgSolution, label: str) -> MfgSolution:
    """``solution`` itself, or DivergenceError tagged with ``label``.

    The one rule for a coupled solve a certificate cannot use: one that
    exhausted its iteration budget.
    """
    if not solution.converged:
        raise DivergenceError(
            f"{label} stalled at gap {solution.gap_history[-1]:.3e} after "
            f"{solution.iterations} iterations")
    return solution


# --------------------------------------------------------------------------
# cross-monotonicity (uniqueness mechanism) diagnostics


@dataclass(frozen=True)
class CrossMonotonicityReport(_Record):
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


def _bregman_gap(ham, mesh, u_vals, p_first, p_second):
    """H(x, u, p1) - H(x, u, p2) - D_pH(x, u, p2) . (p1 - p2)."""
    gap = ham.value(mesh, u_vals, p_first) - ham.value(mesh, u_vals, p_second)
    grad = ham.grad_p(mesh, u_vals, p_second)
    for gi, ai, bi in zip(grad, p_first, p_second):
        gap = gap - gi * (ai - bi)
    return gap


def lasry_lions_check(sol1: MfgSolution, sol2: MfgSolution
                      ) -> CrossMonotonicityReport:
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

    passed = (cross <= rhs + _LL_UPPER_SLACK) and (cross >= -_LL_LOWER_SLACK)
    return CrossMonotonicityReport(
        cross_term=cross, rhs=rhs, variant=variant, passed=passed)


# --------------------------------------------------------------------------
# initial-data stability probe


@dataclass(frozen=True)
class StabilityProbeReport(_Record):
    """Perturbation response of one solve pair.

    ``ratio`` is (sup-in-time density gap + sup-in-time value gap) over
    the initial bounded-Lipschitz perturbation size; a ladder of probes
    with shrinking perturbations should keep it in a bounded band.
    """

    d0_initial: float
    sup_d0_gap: float
    sup_u_gap: float
    ratio: float


def lipschitz_stability_probe(problem: MfgProblem,
                              m0_prime: Measure) -> StabilityProbeReport:
    """Solve twice (original and perturbed start) and size the response.

    Restricted to momentum-only Hamiltonians: the value-dependent
    monotonicity inequality splits the initial measure difference into
    positive and negative parts and is too weak to control the response
    by the full perturbation distance.  A solve that exhausts its budget
    raises DivergenceError (``_require_converged``) before the next runs.
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
    sol1 = _require_converged(solve_mfg(problem), "stability probe base solve")
    sol2 = _require_converged(solve_mfg(replace(problem, m0=m0_prime)),
                              "stability probe perturbed solve")
    grid = problem.grid
    sup_d0 = float(np.max(path_metric(grid, sol1.m.values, sol2.m.values)))
    sup_u = float(np.max(np.abs(sol1.u.values - sol2.u.values)))
    return StabilityProbeReport(
        d0_initial=base, sup_d0_gap=sup_d0, sup_u_gap=sup_u,
        ratio=(sup_d0 + sup_u) / base)
