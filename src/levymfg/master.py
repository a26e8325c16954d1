"""Master value field over (time, measure) and its certification checks.

The field is only ever touched through its defining property: evaluated at
``(t0, m0)`` it is the initial value slice of the converged coupled solve
started there.  Everything in this module is therefore a statement about
families of full solves — the scenario object fixes the data that all of
them share (generator, costs, horizon, step policy), and each check runs
the solves it needs afresh.  Each of these solves starts from m0's
free flow, the Fokker-Planck march of m0 with zero drift, as the linear
solve starts from rho0's forward flow with the feedback dropped: the
constant path at m0 lies far from the equilibrium, and a run started there
takes an outer iteration more to stop.

Three certificates are offered: the difference-quotient check that the
linearized solve is the actual measure derivative (superlinear defect
decay), the residual of the full evolution equation in ``(t, x, m)``
assembled from fresh solves and the derivative kernel, and the
flow-consistency (restart) gap behind uniqueness.  A coupled solve that
does not converge fails each of them with ``DivergenceError``.  The
terminal condition U(T) = G is data, not a certificate: it is how
``eval_U`` defines the field at t0 = T, and the equation residual is taken
for t0 < T only.  The equation
residual combines five pieces: a centered time quotient, the generator and
the Hamiltonian acting in the state variable, the running coupling, and
the equation's two measure integrals of the derivative kernel (its
generator in the probe variable and its probe gradient against the
equilibrium drift) as one pairing of the kernel with m0's Fokker-Planck
velocity L*m0 + div(m0 D_pH), the derivative of the field along m0's own
flow.  Neither certificate tabulates the kernel: by superposition, a
pairing of the kernel with a fixed zero-mass direction is one linear solve
with that direction as initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .coupling import _check_derivative_couplings, eval_F
from .errors import GridMismatchError, SpectralResidueError
from .fp import solve_fp
from .grid import Field, Grid, _Record, _batch_gradient
from .hjb import _check_step
from .kernels import KernelCache
from .linearized import _solved_initial, linearize, mollified_delta
from .measures import Measure, path_metric
from .mfg import IterationPolicy, MfgProblem, MfgSolution, \
    _drift_values, _require_converged, solve_mfg

_TERMINAL_TIME_TOL = 1e-12
_SLOPE_THRESHOLD = 1.2
_DEFECT_FLOOR = 1e-13   # quotient defects below this are float noise
_CONSTANT_KILL_TOL = 1e-12


# --------------------------------------------------------------------------
# scenario: the (t0, m0)-independent data of a family of coupled problems


@dataclass(frozen=True, eq=False)
class Scenario:
    """Shared data of every solve the master field is probed with.

    ``dt_cap`` is the largest admissible time step: a solve from t0 uses
    ceil((T - t0)/dt_cap) steps, so slabs whose length is an exact multiple
    of the cap all march with the same dt and their time lattices nest.
    The scenario holds data only: every call that needs a solve runs it.
    Every solve starts from m0's free flow (``_solve_from_free_flow``), as
    the linear solve starts from rho0's: on a 16-node scenario the first
    response gap from the constant path at m0 is about 0.12, which
    Anderson's first step, a plain damped one, only halves; from the free
    flow it is about 2.5e-4, and each solve takes 3 outer iterations
    instead of 4.
    """

    kernel: KernelCache
    hamiltonian: object
    running_cost: object
    terminal_cost: object
    T: float
    dt_cap: float
    policy: IterationPolicy = dc_field(default_factory=IterationPolicy)

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError("horizon T must be positive and finite")
        _check_step(self.kernel, self.dt_cap)
        _check_derivative_couplings(self.grid, self.running_cost,
                                    self.terminal_cost)

    @property
    def grid(self) -> Grid:
        return self.kernel.grid

    def steps_for(self, t0: float) -> int:
        span = self.T - t0
        if not span > 0.0:
            raise ValueError(f"start time {t0!r} leaves no slab before "
                             f"T={self.T!r}")
        return max(1, int(math.ceil(span / self.dt_cap - 1e-12)))

    def problem(self, t0: float, m0: Measure) -> MfgProblem:
        return MfgProblem(
            kernel=self.kernel, hamiltonian=self.hamiltonian,
            running_cost=self.running_cost, terminal_cost=self.terminal_cost,
            m0=m0, t0=t0, T=self.T, n_steps=self.steps_for(t0),
            policy=self.policy)


def _solve_from_free_flow(problem: MfgProblem, label: str) -> MfgSolution:
    """``solve_mfg`` started from m0's free flow instead of a constant path.

    The start is the Fokker-Planck march of m0 with zero drift, passed as
    ``initial_path``: the first best response then answers a path that
    already carries the generator's spreading, and only the control's
    transport is left to the iteration.  A stalled solve raises
    DivergenceError tagged with ``label``.
    """
    free = solve_fp(problem.kernel, None, problem.m0.density, None,
                    problem.t0, problem.T, problem.n_steps)
    return _require_converged(solve_mfg(problem, initial_path=free), label)


def solve_scenario(scenario: Scenario, t0: float, m0: Measure
                   ) -> MfgSolution:
    """Converged coupled solve from (t0, m0)."""
    if m0.grid != scenario.grid:
        raise GridMismatchError("initial measure grid != scenario grid")
    return _solve_from_free_flow(scenario.problem(t0, m0),
                                 f"coupled solve from t0={t0:g}")


def eval_U(scenario: Scenario, t0: float, m0: Measure) -> Field:
    """The master value field at (t0, ., m0).

    The initial slice of the converged value trajectory; at t0 = T no solve
    is needed — the field IS the terminal cost of the measure.
    """
    if m0.grid != scenario.grid:
        raise GridMismatchError("initial measure grid != scenario grid")
    if abs(scenario.T - t0) <= _TERMINAL_TIME_TOL:
        return eval_F(scenario.terminal_cost, m0)
    return solve_scenario(scenario, t0, m0).u.initial


# --------------------------------------------------------------------------
# difference-quotient certification of the derivative kernel


@dataclass(frozen=True)
class DerivativeCheckReport(_Record):
    """Defect table of U((1-h)m + h m') against its linearization in h.

    ``rows`` holds (h, defect) pairs; ``slope`` is the log-log fit over the
    rows whose defect clears the float-noise floor (infinite when fewer
    than two do, i.e. the quotient is exact).  Superlinear decay — slope
    at or above the threshold — certifies the kernel as the derivative.
    """

    rows: tuple[tuple[float, float], ...]
    slope: float
    threshold: float
    pairing_sup: float
    passed: bool


def derivative_check(scenario: Scenario, t0: float, m0: Measure,
                     m0_prime: Measure, h_list) -> DerivativeCheckReport:
    """Check the measure derivative against finite mixture quotients.

    For each h the base measure is blended toward the probe measure and
    the field re-evaluated by a full solve; the defect is the sup distance
    to the first-order prediction through the derivative pairing.  The
    pairing against the signed difference is the linearized solve with
    that difference as initial perturbation — by superposition that is
    exactly the kernel integrated against the difference, computed without
    first tabulating the kernel at mollified point masses (node quadrature
    against such a tabulation smears the pairing by the mollifier width,
    an h-independent bias that caps the observable decay rate at one).
    """
    grid = scenario.grid
    if m0.grid != grid or m0_prime.grid != grid:
        raise GridMismatchError("measure grid != scenario grid")
    hs = [float(h) for h in h_list]
    if len(hs) < 2:
        raise ValueError("need at least two quotient sizes to fit a slope")
    if any(not 0.0 < h <= 1.0 for h in hs):
        raise ValueError("quotient sizes must lie in (0, 1]")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("quotient sizes must decrease strictly")
    if np.array_equal(m0.values, m0_prime.values):
        raise ValueError("probe measure equals the base measure; the "
                         "difference quotient is degenerate")

    base = solve_scenario(scenario, t0, m0)
    diff = m0_prime.values - m0.values
    paired = _solved_initial(
        linearize(base, Field(grid, diff)), "derivative pairing solve",
        damping=scenario.policy.damping,
        max_iters=scenario.policy.max_iters).values
    u0 = base.u.initial.values

    rows = []
    for h in hs:
        mix = Measure.from_values(
            grid, (1.0 - h) * m0.values + h * m0_prime.values)
        u_h = eval_U(scenario, t0, mix).values
        defect = float(np.max(np.abs(u_h - u0 - h * paired)))
        rows.append((h, defect))

    hs_arr = np.array([r[0] for r in rows])
    defects = np.array([r[1] for r in rows])
    live = defects > _DEFECT_FLOOR
    if int(np.sum(live)) < 2:
        slope = float("inf")  # defects are float noise: quotient is exact
    else:
        slope = float(np.polyfit(np.log(hs_arr[live]),
                                 np.log(defects[live]), 1)[0])
    return DerivativeCheckReport(
        rows=tuple(rows), slope=slope, threshold=_SLOPE_THRESHOLD,
        pairing_sup=float(np.max(np.abs(paired))),
        passed=slope >= _SLOPE_THRESHOLD)


# --------------------------------------------------------------------------
# residual of the full evolution equation


def _measure_terms(scenario: Scenario, base: MfgSolution, m0: Measure
                   ) -> np.ndarray:
    """The residual's measure integrals, from one linear solve.

    With w = m0 * cell_volume, b the drift at t0, D the central
    difference and L^T the adjoint generator, the two integrals sum to
    <w, L_y J(x, .)> - <b w, D_y J(x, .)> = <v, J(x, .)> for
    v = L^T w + D(b w), the right side of the Fokker-Planck equation at
    (t0, m0), so the sum is the derivative of U along m0's own flow.
    J(x, y) is z(t0, x) of the linear system whose initial data is the
    mollified delta at y, so by superposition the pairing is z(t0) for
    the initial data sum_y v(y) mollified_delta(y), one solve with the
    scenario policy's damping and iteration budget, and J is never
    tabulated.  v carries no mass, so J's additive normalization cancels,
    provided the generator annihilates constants (asserted here).
    """
    grid, kernel = scenario.grid, scenario.kernel
    killed = float(np.max(np.abs(kernel.apply_generator(
        np.ones(grid.shape)))))
    if killed > _CONSTANT_KILL_TOL:
        raise SpectralResidueError(
            f"probe-variable generator moves constants by {killed:.3e}; "
            "the kernel's additive normalization would leak into the "
            "residual")
    weights = m0.values * grid.cell_volume
    drift0 = _drift_values(scenario.hamiltonian, grid, base.u.values[:1])[0]
    velocity = kernel.apply_generator(weights, adjoint=True)
    for ax in range(grid.dims):
        flow = weights * drift0[ax]
        velocity += (np.roll(flow, -1, axis=ax)
                     - np.roll(flow, 1, axis=ax)) / (2.0 * grid.dx[ax])
    # mollified_delta(y) is this corner profile rolled by the index of y
    corner = mollified_delta(grid, [-h for h in grid.half_width]).values
    rho0 = np.zeros(grid.shape)
    axes = tuple(range(grid.dims))
    for shift in zip(*np.nonzero(corner)):
        rho0 += corner[shift] * np.roll(velocity, shift, axis=axes)
    return _solved_initial(linearize(base, Field(grid, rho0)),
                           "measure flow solve", scenario.policy.damping,
                           scenario.policy.max_iters).values


@dataclass(frozen=True)
class MasterResidualReport(_Record):
    """Signed sum of the five equation terms on the grid, at t0 < T.

    ``term_sups`` records the sup of each assembled piece so a large
    residual can be traced; ``measure_flow`` is the sum of the two
    measure integrals, the only form in which the equation has them.
    ``delta_t`` is the (positive) half-width of the centred time quotient.
    ``mode`` is always "interior" and ``y_stride`` always 1 (the measure
    terms need no y-lattice); the benchmark's master check reads both.
    ``solve_iterations`` holds the outer-iteration counts of the base,
    t0 + delta_t and t0 - delta_t solves, as recorded on the solutions.
    """

    mode: str
    residual: Field
    samples: tuple[tuple[tuple[float, ...], float], ...]
    sup_sampled: float
    sup_grid: float
    delta_t: float
    y_stride: int
    term_sups: dict
    solve_iterations: tuple[int, ...]


def master_residual(scenario: Scenario, t0: float, m0: Measure,
                    sample_points, time_probe_steps: int = 4
                    ) -> MasterResidualReport:
    """Residual of the evolution equation in (t, x, m) at one probe point.

    The time slope is a centered quotient over t0 +- time_probe_steps*dt
    via fresh solves with the same m0 (the equation must hold off the flow,
    so interior slices of one solve would prove too little).  The two
    measure integrals pair the derivative kernel's probe-variable
    generator image and its probe gradient against the equilibrium drift
    with m0 under the grid quadrature; ``_measure_terms`` moves both
    operators onto m0, where they sum to m0's Fokker-Planck velocity, and
    gets the pairing from one linear solve, without tabulating the
    kernel.  The equation is posed for t0 < T only: at t0 = T (where
    ``eval_U`` returns the terminal cost by definition) the base solve's
    step count raises ValueError before anything is solved.
    """
    grid = scenario.grid
    if m0.grid != grid:
        raise GridMismatchError("initial measure grid != scenario grid")
    if time_probe_steps < 1:
        raise ValueError("time probe needs at least one step")

    # the base solve's step, known before it runs
    dt = (scenario.T - t0) / scenario.steps_for(t0)
    delta_t = time_probe_steps * dt
    if t0 - delta_t < -1e-12 or not t0 + delta_t < scenario.T:
        raise ValueError(
            f"centered time probe t0 +- {delta_t:g} leaves [0, T); shrink "
            "time_probe_steps or move t0 inward")
    # a point without one coordinate per axis is refused before any solve
    points = [tuple(float(c) for c in np.atleast_1d(
        np.asarray(point, dtype=float))) for point in sample_points]
    nodes = [grid.nearest_index(pt) for pt in points]
    base = solve_scenario(scenario, t0, m0)
    plus = solve_scenario(scenario, t0 + delta_t, m0)
    minus = solve_scenario(scenario, t0 - delta_t, m0)
    time_term = (plus.u.initial.values - minus.u.initial.values) / (
        2.0 * delta_t)

    u0 = base.u.initial.values
    gen_term = scenario.kernel.apply_generator(u0)
    grads = np.stack(_batch_gradient(grid, u0))
    ham_term = np.asarray(
        scenario.hamiltonian.value(grid.meshgrid(), u0, grads), dtype=float)

    measure_term = _measure_terms(scenario, base, m0)
    coupling_term = eval_F(scenario.running_cost, m0).values

    residual = (time_term + gen_term - ham_term + measure_term
                + coupling_term)
    samples = [(pt, float(residual[node]))
               for pt, node in zip(points, nodes)]
    return MasterResidualReport(
        mode="interior", residual=Field(grid, residual),
        samples=tuple(samples),
        sup_sampled=max((abs(v) for _, v in samples), default=0.0),
        sup_grid=float(np.max(np.abs(residual))), delta_t=delta_t,
        y_stride=1, term_sups={
            "time": float(np.max(np.abs(time_term))),
            "generator": float(np.max(np.abs(gen_term))),
            "hamiltonian": float(np.max(np.abs(ham_term))),
            "measure_flow": float(np.max(np.abs(measure_term))),
            "coupling": float(np.max(np.abs(coupling_term))),
        }, solve_iterations=tuple(
            sol.iterations for sol in (base, plus, minus)))


# --------------------------------------------------------------------------
# flow consistency (the uniqueness mechanism)


@dataclass(frozen=True)
class FlowConsistencyReport(_Record):
    """Restart gap between the base flow and a fresh solve from inside it.

    ``gap`` is the sup over shared time slices of the value sup-distance
    plus the bounded-Lipschitz distance of the densities; uniqueness of
    the coupled solve makes it a fixed-point-tolerance quantity.
    """

    restart_time: float
    restart_index: int
    value_gap: float
    measure_gap: float
    gap: float
    tolerance: float
    passed: bool


def flow_consistency(scenario: Scenario, t0: float, m0: Measure,
                     s: float) -> FlowConsistencyReport:
    """Restart the scenario from the flow at time s and compare.

    The restart inherits the base solve's time lattice (s snaps to the
    nearest slice), so the two trajectories are compared slice by slice
    with no interpolation.  The restart solve starts, like every solve of
    the scenario, from the free flow of its own initial measure, the base
    density at the restart slice.  Passes when the gap stays within twenty
    times the fixed-point stopping tolerance.
    """
    if not (t0 - 1e-12 <= s < scenario.T):
        raise ValueError(f"restart time {s!r} outside [t0, T)")
    base = solve_scenario(scenario, t0, m0)
    n, dt = base.u.n_steps, base.u.dt
    k = min(max(int(round((s - t0) / dt)), 0), n - 1)
    s_snap = t0 + k * dt

    fresh = _solve_from_free_flow(
        replace(base.problem, m0=base.measure_at(k), t0=s_snap,
                n_steps=n - k), f"restart solve from s={s_snap:g}")

    value_gaps = np.max(np.abs(fresh.u.values - base.u.values[k:]),
                        axis=tuple(range(1, fresh.u.values.ndim)))
    measure_gaps = path_metric(scenario.grid, fresh.m.values,
                               base.m.values[k:])
    value_gap = float(np.max(value_gaps))
    measure_gap = float(np.max(measure_gaps))
    gap = float(np.max(value_gaps + measure_gaps))
    tolerance = 20.0 * scenario.policy.tol_d0
    return FlowConsistencyReport(
        restart_time=s_snap, restart_index=k, value_gap=value_gap,
        measure_gap=measure_gap, gap=gap, tolerance=tolerance,
        passed=gap <= tolerance)
