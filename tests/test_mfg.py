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

from levymfg.coupling import Conv, LocalComposite, Zero, check_M1
from levymfg.errors import DivergenceError, GridMismatchError
from levymfg.fp import solve_fp, tightness_report
from levymfg.grid import Field, Grid
from levymfg.hjb import (GeneralHamiltonian, QuadraticHamiltonian,
                         Trajectory, solve_hjb)
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet
from levymfg.measures import (Measure, TightnessFn, d0_distance,
                              verify_psi_jump_moment)
from levymfg import mfg
from levymfg.mfg import (_ANDERSON_DEPTH, IterationPolicy, MfgProblem,
                         MfgSolution, _anderson, _project_slices,
                         _source_trajectory, lasry_lions_check,
                         lipschitz_stability_probe, next_damping,
                         optimal_drift, solve_mfg)
from oracles import diffused_initial_path

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

    def test_problem_validation(self, kernel):
        with pytest.raises(ValueError, match="time slab"):
            standard_problem(kernel, T=0.0)
        other = Measure.normalized(Field.from_function(
            Grid(32, 2.0), lambda x: np.exp(-4.0 * x * x)))
        with pytest.raises(GridMismatchError):
            standard_problem(kernel, m0=other)

    def test_solution_invariants_enforced(self, kernel):
        sol = solve_mfg(standard_problem(
            kernel, policy=IterationPolicy(max_iters=2, tol_d0=1e-1)))
        bad = sol.m.values.copy()
        bad[1] *= 1.5
        with pytest.raises(ValueError, match="mass"):
            MfgSolution(sol.u, Trajectory(GRID, 0.0, T_END, bad),
                        sol.converged, sol.iterations, sol.gap_history,
                        sol.damping_history, sol.diagnostics, sol.problem)
        with pytest.raises(ValueError, match="history"):
            MfgSolution(sol.u, sol.m, sol.converged, sol.iterations,
                        sol.gap_history + (0.0,), sol.damping_history,
                        sol.diagnostics, sol.problem)

    def test_measure_at(self, kernel):
        sol = solve_mfg(standard_problem(
            kernel, policy=IterationPolicy(max_iters=2, tol_d0=1e-1)))
        m = sol.measure_at(N_STEPS)
        assert abs(m.mass - 1.0) <= 1e-9


class TestOptimalDrift:
    def test_quadratic_drift_is_scaled_gradient(self):
        u = Trajectory.constant(
            Field.from_function(GRID, lambda x: np.sin(np.pi * x / 2.0)),
            0.0, 1.0, 4)
        drift = optimal_drift(QuadraticHamiltonian(0.7), u)
        assert drift.is_vector and drift.values.shape == (5, 1, 64)
        expected = 1.4 * (np.pi / 2.0) * np.cos(np.pi * GRID.axis(0) / 2.0)
        assert np.max(np.abs(drift.values[2, 0] - expected)) <= 1e-12

    def test_2d_components(self):
        grid = Grid(32, 4.0, dims=2)
        u = Trajectory.constant(
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
        vec = Trajectory.zero(GRID, 0.0, 1.0, 2, vector=True)
        with pytest.raises(ValueError, match="scalar"):
            optimal_drift(QuadraticHamiltonian(), vec)


class TestSolveMfg:
    def test_converges_with_full_record(self, standard_solution):
        sol = standard_solution
        assert sol.converged
        assert sol.gap_history[-1] < 1e-6
        assert len(sol.gap_history) == sol.iterations
        assert len(sol.damping_history) == sol.iterations
        assert sol.diagnostics["damping_events"] == ()
        # measured: 6 iterations under Anderson mixing at weight 0.5 (18
        # under plain damping), gaps falling by 0.48x at worst
        assert 5 <= sol.iterations <= 7
        ratios = [sol.gap_history[k + 1] / sol.gap_history[k]
                  for k in range(sol.iterations - 1)]
        assert max(ratios) < 1.0

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

    def test_decoupled_single_iteration_bitwise(self, kernel):
        ham = state_cost_hamiltonian()
        prob = standard_problem(kernel, hamiltonian=ham,
                                running_cost=Zero(), terminal_cost=Zero())
        sol = solve_mfg(prob)
        assert sol.converged and sol.iterations == 1
        ref_u = solve_hjb(kernel, ham, None, Field.constant(GRID, 0.0),
                          0.0, T_END, N_STEPS)
        assert np.array_equal(sol.u.values, ref_u.values)
        ref_rho = solve_fp(kernel, optimal_drift(ham, ref_u),
                           bump_measure().density, None, 0.0, T_END, N_STEPS)
        cleaned, _, _ = _project_slices(GRID, ref_rho.values)
        assert np.array_equal(sol.m.values, cleaned)
        assert sol.diagnostics["decoupled"]

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
        assert check_M1(smoothing_coupling(0.4), trials=8).passed
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
        wrong_slab = Trajectory.constant(bump_measure().density, 0.0, T_END,
                                         N_STEPS // 2)
        with pytest.raises(ValueError, match="time slab"):
            solve_mfg(prob, initial_path=wrong_slab)
        vec = Trajectory.zero(GRID, 0.0, T_END, N_STEPS, vector=True)
        with pytest.raises(ValueError, match="scalar"):
            solve_mfg(prob, initial_path=vec)


@pytest.mark.parametrize("kind, calls", [("conv", 2), ("composite", 6)])
def test_pricing_transform_calls_do_not_grow_with_slices(
        kernel, transform_calls, kind, calls):
    # one convolution is two forward transforms and one inverse, but a
    # Conv keeps its kernel's spectrum from its first pricing on (that
    # pricing makes one call more); the composite convolves twice
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
        source = _source_trajectory(coupling, GRID, path, 0.0, T_END)
        assert source.n_steps == n_steps
        first_conv = kind == "conv" and n_steps == 32
        assert transform_calls["n"] == calls + first_conv


class TestDampingSchedule:
    def test_halves_after_five_consecutive_rises(self):
        lam, streak, events = 0.5, 0, []
        gaps = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
        for k in range(1, len(gaps) + 1):
            lam, streak, halved = next_damping(gaps[:k], lam, streak)
            if halved:
                events.append(k)
        assert events == [6]
        assert lam == 0.25

    def test_decrease_resets_the_streak(self):
        lam, streak, events = 0.5, 0, []
        gaps = [1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        for k in range(1, len(gaps) + 1):
            lam, streak, halved = next_damping(gaps[:k], lam, streak)
            if halved:
                events.append(k)
        assert events == [9]
        assert lam == 0.25


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
        u = Trajectory.zero(GRID, 0.0, T_END, N_STEPS)

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

    def test_value_dependent_hamiltonian_rejected(self, kernel):
        prob = standard_problem(kernel,
                                hamiltonian=value_coupled_hamiltonian())
        with pytest.raises(ValueError, match="gradient-only"):
            lipschitz_stability_probe(prob, bump_measure(0.2))
