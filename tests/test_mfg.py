"""Coupled-solve tests: fixed point, monotonicity balance, stability probes.

The workhorse configuration is a 64-node box of half-width 2 with a pure
jump generator of order 1.5, quadratic momentum costs, and smoothing
convolution couplings; T = 0.25 with 32 steps sits exactly on the step
budget.  Expected values below were measured once on this configuration
and frozen; comments record the raw measurements.
"""

import numpy as np
import pytest
from dataclasses import replace

from levymfg.coupling import Conv, LocalComposite, Zero, _price_path, check_M1
from levymfg.errors import (DivergenceError, GridMismatchError,
                             NonFiniteFieldError)
from levymfg.fp import solve_fp, tightness_report
from levymfg.grid import Field, Grid
from levymfg.hjb import (GeneralHamiltonian, QuadraticHamiltonian,
                         Trajectory, solve_hjb)
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet
from levymfg.measures import (Measure, TightnessFn, d0_distance,
                              path_metric, verify_psi_jump_moment)
from levymfg import measures, mfg
from levymfg.mfg import (_ANDERSON_DEPTH, IterationPolicy, MfgProblem,
                         _anderson, _project_slices, lasry_lions_check,
                         lipschitz_stability_probe, optimal_drift, solve_mfg)
from oracles import (constant_trajectory, diffused_initial_path,
                     zero_trajectory)

GRID = Grid(64, 2.0)
TRIPLET = LevyTriplet(jumps=(FractionalLaplacian(1.5),))
T_END = 0.25
N_STEPS = 32  # dt = 0.0078125 == step_budget(1.5, GRID)


@pytest.fixture(scope="module")
def kernel():
    return KernelCache(TRIPLET, GRID)


@pytest.fixture(scope="module")
def standard_solution(kernel):
    # reruns are bitwise identical, so one shared solve is safe
    return solve_mfg(standard_problem(kernel))


def bump_measure(shift: float = 0.0) -> Measure:
    return Measure.normalized(Field.from_function(
        GRID, lambda x: np.exp(-4.0 * (x - shift) ** 2)))


def smoothing_coupling(weight: float) -> Conv:
    return Conv(Field.from_function(
        GRID, lambda x: weight * np.exp(-8.0 * x * x)))


def standard_problem(kernel, **overrides) -> MfgProblem:
    base = dict(
        kernel=kernel,
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=smoothing_coupling(0.4),
        terminal_cost=smoothing_coupling(0.3),
        m0=bump_measure(),
        t0=0.0,
        T=T_END,
        n_steps=N_STEPS,
    )
    base.update(overrides)
    return MfgProblem(**base)


def state_cost_hamiltonian() -> GeneralHamiltonian:
    """|p|^2 minus a fixed congestion-free state cost near the origin."""

    def h(x, u, p):
        return sum(pi * pi for pi in p) - 0.5 * np.exp(-4.0 * x[0] ** 2)

    def grad(x, u, p):
        return tuple(2.0 * pi for pi in p)

    def hess(x, u, p):
        batch = np.broadcast(u, *p).shape
        return np.broadcast_to(2.0 * np.eye(len(p)), batch + (len(p), len(p)))

    return GeneralHamiltonian(h, grad, hess=hess, uniformly_convex=True,
                              convexity_bound=2.0)


def value_coupled_hamiltonian() -> GeneralHamiltonian:
    """0.5|p|^2 + u: unit value slope, for the split-bracket variant."""
    return GeneralHamiltonian(
        h=lambda x, u, p: 0.5 * sum(pi * pi for pi in p) + u,
        grad=lambda x, u, p: tuple(pi for pi in p),
        du=lambda x, u, p: 1.0 + 0.0 * u,
        monotone_rate=1.0)


def sup_path_gap(a: np.ndarray, b: np.ndarray) -> float:
    return max(d0_distance(Field(GRID, a[k]), Field(GRID, b[k]))
               for k in range(a.shape[0]))


# --------------------------------------------------------------------------


class TestContainers:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="damping"):
            IterationPolicy(damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            IterationPolicy(damping=1.2)
        with pytest.raises(ValueError, match="tol_d0"):
            IterationPolicy(tol_d0=0.0)
        with pytest.raises(ValueError, match="iteration"):
            IterationPolicy(max_iters=0)
        with pytest.raises(TypeError, match=r"^max_iters must be an integer, "
                                            r"got 2\.5$"):
            IterationPolicy(max_iters=2.5)

    def test_problem_validation(self, kernel):
        with pytest.raises(ValueError, match="time slab"):
            standard_problem(kernel, T=0.0)
        with pytest.raises(ValueError, match="^need at least one time step$"):
            standard_problem(kernel, n_steps=0)
        with pytest.raises(TypeError, match=r"^n_steps must be an integer, "
                                            r"got 4\.0$"):
            standard_problem(kernel, n_steps=4.0)
        other = Measure.normalized(Field.from_function(
            Grid(32, 2.0), lambda x: np.exp(-4.0 * x * x)))
        with pytest.raises(GridMismatchError):
            standard_problem(kernel, m0=other)

    def test_numpy_integer_counts_solve_as_ints(self, kernel,
                                                standard_solution):
        solution = solve_mfg(standard_problem(
            kernel, n_steps=np.int64(N_STEPS),
            policy=IterationPolicy(max_iters=np.int64(40))))
        assert np.array_equal(solution.u.values, standard_solution.u.values)
        assert np.array_equal(solution.m.values, standard_solution.m.values)
        assert solution.gap_history == standard_solution.gap_history

    @pytest.mark.parametrize("slot", ["running_cost", "terminal_cost"])
    def test_problem_checks_its_couplings(self, kernel, slot):
        # both are caught at construction, not in the first best response
        with pytest.raises(TypeError,
                           match="has no measure-derivative action"):
            standard_problem(kernel, **{slot: object()})
        coarse = Conv(Field.from_function(
            Grid(32, 2.0), lambda x: 0.4 * np.exp(-8.0 * x * x)))
        with pytest.raises(GridMismatchError, match="coupling kernel"):
            standard_problem(kernel, **{slot: coarse})

    def test_solution_invariants_enforced(self, kernel):
        sol = solve_mfg(standard_problem(
            kernel, policy=IterationPolicy(max_iters=2, tol_d0=1e-1)))
        negative = sol.m.values.copy()
        negative[1, 7] = -1e-3
        cases = [
            (dict(u=zero_trajectory(GRID, 0.0, T_END, N_STEPS, vector=True)),
             "trajectories must be scalar"),
            (dict(u=zero_trajectory(GRID, 0.0, T_END, N_STEPS // 2)),
             "value and density trajectories disagree in time"),
            (dict(m=Trajectory(GRID, 0.0, T_END, negative)),
             "density path has a negative slice"),
            (dict(m=Trajectory(GRID, 0.0, T_END, 1.5 * sol.m.values)),
             "density slice mass off by"),
            (dict(iterations=0, gap_history=()),
             "at least one iteration must be recorded"),
            (dict(gap_history=sol.gap_history + (0.0,)),
             "gap history must have one entry per iteration")]
        for changes, message in cases:
            # replace reruns the constructor's checks
            with pytest.raises(ValueError, match=message):
                replace(sol, **changes)

    def test_measure_at(self, kernel):
        sol = solve_mfg(standard_problem(
            kernel, policy=IterationPolicy(max_iters=2, tol_d0=1e-1)))
        m = sol.measure_at(N_STEPS)
        assert abs(m.density.integral() - 1.0) <= 1e-9


class TestOptimalDrift:
    def test_quadratic_drift_is_scaled_gradient(self):
        u = constant_trajectory(
            Field.from_function(GRID, lambda x: np.sin(np.pi * x / 2.0)),
            0.0, 1.0, 4)
        drift = optimal_drift(QuadraticHamiltonian(0.7), u)
        assert drift.is_vector and drift.values.shape == (5, 1, 64)
        expected = 1.4 * (np.pi / 2.0) * np.cos(np.pi * GRID.axis(0) / 2.0)
        assert np.max(np.abs(drift.values[2, 0] - expected)) <= 1e-12

    def test_2d_components(self):
        grid = Grid(32, 4.0, dims=2)
        u = constant_trajectory(
            Field.from_function(grid, lambda x, y:
                                np.sin(np.pi * x / 4.0) * np.cos(np.pi * y / 4.0)),
            0.0, 0.5, 2)
        drift = optimal_drift(QuadraticHamiltonian(0.5), u)
        x, y = grid.meshgrid()
        dx_u = (np.pi / 4.0) * np.cos(np.pi * x / 4.0) * np.cos(np.pi * y / 4.0)
        dy_u = -(np.pi / 4.0) * np.sin(np.pi * x / 4.0) * np.sin(np.pi * y / 4.0)
        assert np.max(np.abs(drift.values[0, 0] - dx_u)) <= 1e-12
        assert np.max(np.abs(drift.values[0, 1] - dy_u)) <= 1e-12

    def test_vector_input_rejected(self):
        vec = zero_trajectory(GRID, 0.0, 1.0, 2, vector=True)
        with pytest.raises(ValueError, match="scalar"):
            optimal_drift(QuadraticHamiltonian(), vec)

    def test_nonfinite_callback_drift_rejected(self):
        # a drift built from callback output keeps the finite scan
        ham = GeneralHamiltonian(
            h=lambda x, u, p: np.zeros(np.shape(u)),
            grad=lambda x, u, p: (np.where(u > 0.5, np.nan, 0.0),))
        u = Trajectory(GRID, 0.0, 1.0, np.linspace(0.0, 1.0, 3 * 64)
                       .reshape(3, 64))
        with pytest.raises(NonFiniteFieldError):
            optimal_drift(ham, u)


class TestSolveMfg:
    def test_converges_with_full_record(self, standard_solution):
        sol = standard_solution
        assert sol.converged
        assert sol.gap_history[-1] < 1e-6
        assert len(sol.gap_history) == sol.iterations
        assert sol.problem.policy.damping == 0.5
        # measured: 6 iterations under Anderson mixing at weight 0.5 (18
        # under plain damping), gaps falling by 0.48x at worst
        assert 5 <= sol.iterations <= 7
        ratios = [sol.gap_history[k + 1] / sol.gap_history[k]
                  for k in range(sol.iterations - 1)]
        assert max(ratios) < 1.0

    @pytest.mark.parametrize("case", ["coupled", "decoupled", "stalled"])
    def test_diagnostic_keys(self, kernel, standard_solution, case):
        if case == "coupled":
            sol = standard_solution
        elif case == "decoupled":
            sol = solve_mfg(standard_problem(
                kernel, running_cost=Zero(), terminal_cost=Zero()))
        else:
            sol = solve_mfg(standard_problem(
                kernel, policy=IterationPolicy(max_iters=1, tol_d0=1e-15)))
            assert not sol.converged
        assert set(sol.diagnostics) == {
            "extrapolation_clip_max", "anderson_resets", "best_iteration",
            "renorm_defect_max", "negative_clip_max", "drift_sup",
            "response_gap"}
        # the per-iteration entries describe the returned best iteration
        best = sol.diagnostics["best_iteration"]
        assert sol.diagnostics["response_gap"] * sol.problem.policy.damping \
            == sol.gap_history[best]

    def test_mixing_diagnostics_on_the_standard_solve(self, standard_solution):
        # measured: every extrapolated path stays nonnegative, so nothing
        # is clipped and the history is never cleared
        diag = standard_solution.diagnostics
        assert diag["extrapolation_clip_max"] == 0.0
        assert diag["anderson_resets"] == 0

    @pytest.mark.parametrize("scale, most", [(10.0, 8), (40.0, 10)])
    def test_strong_coupling_converges(self, kernel, scale, most):
        # measured: 8 and 10 iterations; plain damping at 0.5 needs 16 and
        # 15, and the undamped map needs 19 at x10 and blows up at x40
        sol = solve_mfg(standard_problem(
            kernel, running_cost=smoothing_coupling(0.4 * scale),
            terminal_cost=smoothing_coupling(0.3 * scale)))
        assert sol.converged
        assert sol.gap_history[-1] < sol.problem.policy.tol_d0
        assert sol.iterations <= most
        assert sol.diagnostics["anderson_resets"] == 0

    def test_slices_are_probability_densities(self, standard_solution):
        sol = standard_solution
        vol = GRID.cell_volume
        masses = vol * sol.m.values.sum(axis=1)
        assert np.max(np.abs(masses - 1.0)) <= 1e-12
        assert float(np.min(sol.m.values)) >= 0.0

    def test_decoupled_solve_lands_on_the_third_pass_bitwise(self, kernel):
        # the best response ignores the path, so the map is constant: the
        # Anderson step lands on it at weight 0.5, and the third response,
        # like every one, is bitwise the standalone marches
        ham = state_cost_hamiltonian()
        prob = standard_problem(kernel, hamiltonian=ham,
                                running_cost=Zero(), terminal_cost=Zero())
        sol = solve_mfg(prob)
        assert sol.problem.policy.damping == 0.5
        assert sol.converged and sol.iterations == 3
        ref_u = solve_hjb(kernel, ham, None, Field.constant(GRID, 0.0),
                          0.0, T_END, N_STEPS)
        assert np.array_equal(sol.u.values, ref_u.values)
        ref_rho = solve_fp(kernel, optimal_drift(ham, ref_u),
                           bump_measure().density, None, 0.0, T_END, N_STEPS)
        cleaned, _, _ = _project_slices(GRID, ref_rho.values)
        assert np.array_equal(sol.m.values, cleaned)

    def test_rerun_is_bitwise_identical(self, kernel):
        prob = standard_problem(kernel)
        a, b = solve_mfg(prob), solve_mfg(prob)
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(a.m.values, b.m.values)
        assert a.gap_history == b.gap_history

    def test_mirror_symmetry(self, standard_solution):
        # even initial density, |p|^2 momentum cost, even convolution
        # kernels: the reflected run solves the identical problem, so the
        # computed pair must be even in x.  measured asymmetry ~8e-17.
        sol = standard_solution
        for vals in (sol.u.values, sol.m.values):
            reflected = np.roll(vals[:, ::-1], 1, axis=1)
            assert np.max(np.abs(vals - reflected)) <= 1e-9

    def test_damping_choice_does_not_move_fixed_point(self, kernel, standard_solution):
        sol_half = standard_solution
        sol_full = solve_mfg(standard_problem(
            kernel, policy=IterationPolicy(damping=1.0)))
        # measured: m-gap 4.0e-8, u-gap 2.7e-7 between the two limits
        assert sup_path_gap(sol_half.m.values, sol_full.m.values) <= 1e-5
        assert np.max(np.abs(sol_half.u.values - sol_full.u.values)) <= 1e-5

    def test_initial_guess_independence(self, kernel, standard_solution):
        # uniqueness under monotone couplings: constant-path guess and
        # drift-free-flow guess converge to the same equilibrium.
        # measured final path gap 5.5e-9 at tol_d0 1e-6.
        assert check_M1(smoothing_coupling(0.4)).passed
        prob = standard_problem(kernel)
        sol_const = standard_solution
        guess = diffused_initial_path(kernel, bump_measure(), 0.0, T_END,
                                      N_STEPS)
        sol_flow = solve_mfg(prob, initial_path=guess)
        assert sol_flow.converged
        gap = sup_path_gap(sol_const.m.values, sol_flow.m.values)
        assert gap <= 10.0 * prob.policy.tol_d0

    def test_tightness_budget_along_solution(self, standard_solution):
        sol = standard_solution
        psi = TightnessFn.on_grid(GRID)
        # big-jump mass of |z|^(-2.5) beyond radius 1 is 2/1.5
        nu_tail = verify_psi_jump_moment(TRIPLET) + 0.7 * (2.0 / 1.5)
        report = tightness_report(
            sol.m, psi, nu_tail, triplet=TRIPLET,
            drift_sup=sol.diagnostics["drift_sup"])
        assert report.passed

    def test_nonconvergence_returns_report(self, kernel):
        prob = standard_problem(
            kernel, policy=IterationPolicy(max_iters=3, tol_d0=1e-15))
        sol = solve_mfg(prob)
        assert not sol.converged
        assert sol.iterations == 3
        assert len(sol.gap_history) == 3
        assert sol.diagnostics["best_iteration"] == 2
        vol = GRID.cell_volume
        assert np.max(np.abs(vol * sol.m.values.sum(axis=1) - 1.0)) <= 1e-9

    def test_stalled_solve_returns_its_pass_of_smallest_gap(self, kernel):
        # gaps fall to rounding, then wander: measured smallest at pass 12
        # of 16; a re-run stopped right after that pass ends on it
        def stalled(max_iters):
            return solve_mfg(standard_problem(kernel, policy=IterationPolicy(
                max_iters=max_iters, tol_d0=1e-300)))

        sol = stalled(16)
        best = int(np.argmin(sol.gap_history))
        assert not sol.converged and best < sol.iterations - 1
        assert sol.diagnostics["best_iteration"] == best
        rerun = stalled(best + 1)
        assert not rerun.converged and rerun.iterations == best + 1
        assert sol.u.values.tobytes() == rerun.u.values.tobytes()
        assert sol.m.values.tobytes() == rerun.m.values.tobytes()
        for key in ("renorm_defect_max", "negative_clip_max", "drift_sup",
                    "response_gap", "best_iteration"):
            assert sol.diagnostics[key] == rerun.diagnostics[key]

    def test_nonconvergence_reports_the_returned_pair(self, kernel,
                                                      monkeypatch):
        # a small first gap, then a response far from its path: the best
        # iteration is the first, and its pair and diagnostics come back
        problem = standard_problem(kernel, policy=IterationPolicy(
            max_iters=2, tol_d0=1e-15))
        x0 = np.broadcast_to(bump_measure().values, (N_STEPS + 1,) + GRID.shape)
        far = np.broadcast_to(bump_measure(1.0).values, x0.shape)
        responses = [0.9 * x0 + 0.1 * far, far]
        value_paths = [zero_trajectory(GRID, 0.0, T_END, N_STEPS),
                       constant_trajectory(Field.constant(GRID, 1.0), 0.0,
                                           T_END, N_STEPS)]
        scripted = [(1e-12, 2e-13, 0.5), (3e-12, 4e-13, 0.7)]
        calls = iter(zip(value_paths, responses, scripted))

        def fake(prob, path):
            u, response, record = next(calls)
            return (u.values, response) + record

        monkeypatch.setattr(mfg, "_best_response", fake)
        sol = solve_mfg(problem)
        assert not sol.converged and sol.iterations == 2
        assert sol.gap_history[0] < sol.gap_history[1]
        diag = sol.diagnostics
        assert diag["best_iteration"] == 0
        assert (diag["renorm_defect_max"], diag["negative_clip_max"],
                diag["drift_sup"]) == scripted[0]
        assert diag["response_gap"] * sol.problem.policy.damping \
            == sol.gap_history[0]
        assert np.array_equal(sol.m.values, responses[0])
        assert np.all(sol.u.values == 0.0)

    def test_inner_divergence_carries_iterate_index(self, kernel):
        # value slope -lam with lam*dt = 2.5 makes the backward solve grow
        # by 3.5x per step from the terminal coupling's nonzero data.
        lam = 2.5 * N_STEPS / T_END
        ham = GeneralHamiltonian(
            h=lambda x, u, p: 0.0 * p[0] - lam * u,
            grad=lambda x, u, p: tuple(0.0 * pi for pi in p),
            du=lambda x, u, p: -lam + 0.0 * u)
        prob = standard_problem(kernel, hamiltonian=ham)
        with pytest.raises(DivergenceError, match="outer iteration 0"):
            solve_mfg(prob)

    def test_initial_path_validation(self, kernel):
        prob = standard_problem(kernel)
        wrong_slab = constant_trajectory(bump_measure().density, 0.0, T_END,
                                          N_STEPS // 2)
        with pytest.raises(ValueError, match="time slab"):
            solve_mfg(prob, initial_path=wrong_slab)
        vec = zero_trajectory(GRID, 0.0, T_END, N_STEPS, vector=True)
        with pytest.raises(ValueError, match="scalar"):
            solve_mfg(prob, initial_path=vec)


@pytest.mark.parametrize("kind, calls", [("conv", 3), ("composite", 7)])
def test_pricing_transform_calls_do_not_grow_with_slices(
        kernel, transform_calls, kind, calls):
    # a best response prices both costs from one transform of the path:
    # the running cost inverts the whole stack, the terminal cost its last
    # row, and the composite convolves twice; both couplings keep their
    # kernel's spectrum from their first pricing on (one call more then)
    if kind == "conv":
        coupling = smoothing_coupling(0.4)
    else:
        coupling = LocalComposite(
            Field.from_function(GRID, lambda x: np.exp(-8.0 * x * x)),
            lambda mesh, s: s * s, lambda mesh, s: 2.0 * s)
    for n_steps in (32, 64, 128):
        path = diffused_initial_path(kernel, bump_measure(), 0.0, T_END,
                                     n_steps).values
        transform_calls["n"] = 0
        source, terminal = _price_path(coupling, coupling, GRID, path)
        assert source.shape == path.shape and terminal.shape == GRID.shape
        assert transform_calls["n"] == calls + (n_steps == 32)


def test_stop_test_runs_the_exact_program_on_few_slices(kernel, monkeypatch,
                                                         chain_sup_rows):
    # every stop and best-iterate decision is taken on certified
    # brackets, and one closing call makes every gap exact
    pairs, best_response = [], mfg._best_response

    def recorded(problem, path):
        out = best_response(problem, path)
        pairs.append((path.copy(), out[1].copy()))
        return out

    monkeypatch.setattr(mfg, "_best_response", recorded)
    sol = solve_mfg(standard_problem(kernel))
    monkeypatch.undo()
    # measured: the closing call runs 6 rows, 1 of 33 per stop test
    assert sol.converged and sol.iterations == len(pairs) == 6
    assert chain_sup_rows == [6]
    for k, (path, response) in enumerate(pairs):
        assert path.shape[0] == N_STEPS + 1
        want = sol.problem.policy.damping * np.max(
            path_metric(GRID, response, path))
        assert np.float64(sol.gap_history[k]).tobytes() \
            == np.float64(want).tobytes()


def test_open_brackets_take_every_decision_on_the_exact_program(
        kernel, standard_solution, monkeypatch, chain_sup_rows):
    # with [0, inf] for every gap each stop test must run the program:
    # the solve is the same, bit for bit, at one call per iteration
    bracket = measures._sup_bracket

    def open_bracket(grid, path):
        _, _, rows = bracket(grid, path)
        # every path of this solve takes the bounds, so it has rows
        assert len(rows) > 0
        return 0.0, np.inf, rows

    monkeypatch.setattr(measures, "_sup_bracket", open_bracket)
    sol = solve_mfg(standard_problem(kernel))
    monkeypatch.undo()
    want = standard_solution
    assert len(chain_sup_rows) == sol.iterations == want.iterations
    assert (sol.converged, sol.iterations) == (want.converged,
                                               want.iterations)
    for got, expected in ((sol.u.values, want.u.values),
                          (sol.m.values, want.m.values),
                          (sol.gap_history, want.gap_history)):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert sol.diagnostics == want.diagnostics


def test_non_finite_response_raises_at_its_own_iteration(kernel,
                                                         monkeypatch):
    # the stop test of the poisoned iteration raises, before another best
    # response runs
    calls, best_response = [], mfg._best_response

    def poisoned(problem, path):
        calls.append(path)
        u, response, *rest = best_response(problem, path)
        if len(calls) == 3:
            response = response.copy()
            response[5, 7] = np.nan
        return (u, response, *rest)

    monkeypatch.setattr(mfg, "_best_response", poisoned)
    with pytest.raises(ValueError, match="weights must be finite"):
        solve_mfg(standard_problem(kernel))
    assert len(calls) == 3


def responder_problem(grid: Grid, n_steps: int, T: float) -> MfgProblem:
    """Smoothing couplings and a bell m0 on ``grid``; the couplings are
    narrower than the standard problem's, to fit the 8x8 box."""
    def bell(rate, weight=1.0):
        return lambda *xs: weight * np.exp(-rate * sum(x * x for x in xs))
    return MfgProblem(
        kernel=KernelCache(LevyTriplet(dims=grid.dims,
                                       jumps=(FractionalLaplacian(1.5),)),
                           grid),
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=Conv(Field.from_function(grid, bell(10.0, 0.4))),
        terminal_cost=Conv(Field.from_function(grid, bell(10.0, 0.3))),
        m0=Measure.normalized(Field.from_function(grid, bell(4.0))),
        t0=0.0, T=T, n_steps=n_steps)


# dense first pass at 64 nodes, spectral at 128, and 2D (dense at 8x8,
# where no bell is resolved to the terminal check's 1e-6); every step
# count sits within the step budget
@pytest.mark.parametrize("grid, n_steps, T", [
    (Grid(64, 2.0), 32, 0.25), (Grid(128, 2.0), 32, 0.0625),
    pytest.param(Grid(8, 2.0, dims=2), 4, 0.25, marks=pytest.mark.
                 filterwarnings("ignore:terminal data is marginally"))],
    ids=["1d-64", "1d-128", "2d-8x8"])
def test_best_response_is_the_public_chain(grid, n_steps, T):
    # the responder runs the march adapters on arrays; the public solvers
    # check and wrap the same legs, bit for bit
    problem = responder_problem(grid, n_steps, T)
    path = np.broadcast_to(problem.m0.values,
                           (n_steps + 1,) + grid.shape).copy()
    u, m, defect, clip, drift_sup = mfg._best_response(problem, path)
    source, terminal = _price_path(problem.running_cost,
                                   problem.terminal_cost, grid, path)
    want_u = solve_hjb(problem.kernel, problem.hamiltonian,
                       Trajectory(grid, 0.0, T, source),
                       Field(grid, terminal), 0.0, T, n_steps)
    drift = optimal_drift(problem.hamiltonian, want_u)
    rho = solve_fp(problem.kernel, drift, problem.m0.density, None, 0.0, T,
                   n_steps)
    want_m, want_defect, want_clip = _project_slices(grid, rho.values)
    assert np.ascontiguousarray(u).tobytes() == want_u.values.tobytes()
    assert m.tobytes() == want_m.tobytes()
    assert (defect, clip, drift_sup) == (
        want_defect, want_clip, float(np.max(np.abs(drift.values))))


def test_a_stalled_solve_steps_once_fewer_than_it_passes(kernel,
                                                          monkeypatch):
    # the step after the last pass is never read, so it is not taken
    steps, anderson = [], mfg._anderson

    def counted(*args):
        steps.append(args[0])
        return anderson(*args)

    monkeypatch.setattr(mfg, "_anderson", counted)
    sol = solve_mfg(standard_problem(kernel, policy=IterationPolicy(
        max_iters=3, tol_d0=1e-300)))
    assert not sol.converged and sol.iterations == 3
    assert len(steps) == 2


class TestAndersonStep:
    def test_empty_history_is_the_damped_update(self):
        rng = np.random.default_rng(1)
        x, f = rng.random((5, 7)), rng.standard_normal((5, 7))
        xs, fs = [], []
        step = _anderson(x, f, xs, fs, 0.3)
        assert np.array_equal(step, x + 0.3 * f)
        assert xs[0] is x and fs[0] is f

    def test_affine_contraction_reaches_its_fixed_point(self):
        # x -> a x + b on R^4 with spectral radius 0.53; measured: 5 steps
        # to 3e-16 (a depth of at least 4 spans the space), where the
        # plain damped update at 0.5 needs 59 steps to 1e-12
        assert _ANDERSON_DEPTH >= 4
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        a = 0.9 * m / np.linalg.norm(m, 2)
        b = rng.standard_normal(4)
        fixed = np.linalg.solve(np.eye(4) - a, b)
        x, xs, fs = np.zeros(4), [], []
        for k in range(5):
            x = _anderson(x, a @ x + b - x, xs, fs, 0.5)
            assert len(xs) == k + 1
        assert np.max(np.abs(x - fixed)) <= 1e-12
        _anderson(x, a @ x + b - x, xs, fs, 0.5)
        assert len(xs) == len(fs) == _ANDERSON_DEPTH

    def test_clip_over_budget_takes_the_plain_step(self, kernel, monkeypatch):
        # Hand-built responses along one direction d = (B - x0) / 2: the
        # secant through them puts the fixed point at x0 + 5 d, which is
        # negative wherever B < 0.6 x0, so the second step must fall back
        # to the plain damped step and clear the history.
        problem = standard_problem(kernel, policy=IterationPolicy(
            max_iters=4, tol_d0=1e-15))
        x0 = np.broadcast_to(bump_measure().values, (N_STEPS + 1,) + GRID.shape)
        far = np.broadcast_to(bump_measure(1.0).values, x0.shape)
        responses = [0.5 * x0 + 0.5 * far, 0.3 * x0 + 0.7 * far, far, far]
        seen = []
        u = np.zeros((N_STEPS + 1,) + GRID.shape)

        def fake(prob, path):
            seen.append(path)
            return u, responses[len(seen) - 1], 0.0, 0.0, 0.0

        monkeypatch.setattr(mfg, "_best_response", fake)
        sol = solve_mfg(problem)
        assert sol.iterations == 4
        # measured: the extrapolation dips to -1.64
        assert sol.diagnostics["extrapolation_clip_max"] > 1.0
        assert sol.diagnostics["anderson_resets"] == 1
        assert np.array_equal(seen[2], seen[1] + 0.5 * (responses[1] - seen[1]))
        # an empty history again: the next step is the damped update
        plain, _, _ = _project_slices(
            GRID, seen[2] + 0.5 * (responses[2] - seen[2]))
        assert np.array_equal(seen[3], plain)


class TestCrossMonotonicity:
    def test_identical_solutions_vanish(self, standard_solution):
        sol = standard_solution
        rep = lasry_lions_check(sol, sol)
        assert rep.cross_term == 0.0
        assert rep.rhs == 0.0
        assert rep.passed
        assert rep.variant == "gradient-only"
        assert rep.to_dict()["pass"]

    def test_shifted_start_convexity_balance(self, standard_solution):
        sol1 = standard_solution
        sol2 = solve_mfg(replace(sol1.problem, m0=bump_measure(0.5)))
        rep = lasry_lions_check(sol1, sol2)
        assert rep.passed
        # measured: cross 7.71e-4, rhs 2.92e-2 (margin 2.8e-2)
        assert rep.cross_term >= -1e-8
        assert rep.cross_term > 1e-4
        assert rep.cross_term <= rep.rhs + 1e-7

    def test_value_dependent_split_bracket(self, kernel):
        ham = value_coupled_hamiltonian()
        prob = standard_problem(kernel, hamiltonian=ham)
        sol1 = solve_mfg(prob)
        sol2 = solve_mfg(replace(prob, m0=bump_measure(0.5)))
        rep = lasry_lions_check(sol1, sol2)
        assert rep.variant == "split-positive-part"
        # measured: cross 6.36e-4, rhs 2.91e-2
        assert rep.passed
        assert rep.cross_term > 1e-4
        assert rep.cross_term <= rep.rhs + 1e-7

    def test_incompatible_runs_rejected(self, kernel):
        ham = state_cost_hamiltonian()
        fast = standard_problem(kernel, hamiltonian=ham,
                                running_cost=Zero(), terminal_cost=Zero())
        sol = solve_mfg(fast)
        other_steps = solve_mfg(replace(fast, n_steps=N_STEPS * 2))
        with pytest.raises(ValueError, match="time slab"):
            lasry_lions_check(sol, other_steps)
        other_ham = solve_mfg(replace(fast, hamiltonian=state_cost_hamiltonian()))
        with pytest.raises(ValueError, match="Hamiltonian"):
            lasry_lions_check(sol, other_ham)
        coarse = Grid(32, 2.0)
        other_grid = replace(sol, problem=replace(
            fast, kernel=KernelCache(TRIPLET, coarse),
            m0=Measure.normalized(Field.constant(coarse, 1.0))))
        with pytest.raises(GridMismatchError,
                           match="^solutions live on different grids$"):
            lasry_lions_check(sol, other_grid)


class TestStabilityProbe:
    def test_shift_ladder_stays_in_band(self, kernel):
        prob = standard_problem(kernel)
        ratios = []
        for a in (0.2, 0.1, 0.05):
            rep = lipschitz_stability_probe(prob, bump_measure(a))
            assert rep.sup_d0_gap >= rep.d0_initial - 1e-12  # attained at t0
            ratios.append(rep.ratio)
        # measured ratios: 1.08353, 1.08395, 1.08407 (1.0835-1.0841 under
        # plain damping) -- the Lipschitz constant of the ladder
        assert all(1.083 <= r <= 1.085 for r in ratios)
        assert max(ratios) / min(ratios) <= 1.001

    def test_decoupled_probe_has_zero_value_part(self, kernel):
        prob = standard_problem(kernel, running_cost=Zero(),
                                terminal_cost=Zero())
        rep = lipschitz_stability_probe(prob, bump_measure(0.2))
        assert rep.sup_u_gap == 0.0
        assert rep.ratio == rep.sup_d0_gap / rep.d0_initial

    def test_degenerate_perturbation_rejected(self, kernel):
        prob = standard_problem(kernel)
        with pytest.raises(ValueError, match="degenerate"):
            lipschitz_stability_probe(prob, bump_measure())

    def test_stalled_solve_is_a_divergence(self, kernel):
        prob = standard_problem(kernel, policy=IterationPolicy(max_iters=1))
        with pytest.raises(DivergenceError,
                           match=r"^stability probe base solve stalled at "
                                 r"gap .* after 1 iterations$"):
            lipschitz_stability_probe(prob, bump_measure(0.2))

    def test_value_dependent_hamiltonian_rejected(self, kernel):
        prob = standard_problem(kernel,
                                hamiltonian=value_coupled_hamiltonian())
        with pytest.raises(ValueError, match="gradient-only"):
            lipschitz_stability_probe(prob, bump_measure(0.2))
