"""Linearized forward-backward system: alternation, duality, derivative kernel.

Same workhorse configuration as the coupled-solve tests (64-node box of
half-width 2, order-1.5 jumps, quadratic momentum cost, smoothing
convolution couplings, T = 0.25 in 32 steps).  The semigroup-quadrature
oracle runs on a 16-node box with 8 steps, where dt = 0.03125 sits under
that grid's 0.0625 budget.  Expected values were measured once and frozen;
comments record the raw measurements.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from levymfg import measures, mfg
from levymfg.coupling import (Conv, LocalComposite, Zero, apply_dmF,
                              check_M1, eval_dmF, eval_F, require_smooth)
from levymfg.errors import (BudgetError, DivergenceError, GridMismatchError,
                            InstabilityError)
from levymfg.fp import _forward_values, mass_series, solve_fp
from levymfg.grid import Field, Grid, gradient
from levymfg.hjb import (GeneralHamiltonian, QuadraticHamiltonian,
                         Trajectory, solve_hjb)
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet
from levymfg.linearized import (JKernel, LinSystem, _coupling_actions,
                                _coupling_weights, _flux_values,
                                duality_report, j_field, j_field_batch,
                                linearize, mollified_delta,
                                solve_linear_system)
from levymfg.measures import Measure
from levymfg.mfg import MfgProblem, MfgSolution, optimal_drift, solve_mfg
from oracles import (constant_trajectory, drift_hamiltonian, semigroup_apply,
                     zero_trajectory)

GRID = Grid(64, 2.0)
TRIPLET = LevyTriplet(jumps=(FractionalLaplacian(1.5),))
T_END = 0.25
N_STEPS = 32  # dt = 0.0078125 == step_budget(1.5, GRID)


@pytest.fixture(scope="module")
def kernel():
    return KernelCache(TRIPLET, GRID)


def smoothing_coupling(weight: float) -> Conv:
    return Conv(Field.from_function(
        GRID, lambda x: weight * np.exp(-8.0 * x * x)))


def standard_problem(kernel) -> MfgProblem:
    return MfgProblem(
        kernel=kernel,
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=smoothing_coupling(0.4),
        terminal_cost=smoothing_coupling(0.3),
        m0=Measure.normalized(Field.from_function(
            GRID, lambda x: np.exp(-4.0 * x * x))),
        t0=0.0,
        T=T_END,
        n_steps=N_STEPS,
    )


@pytest.fixture(scope="module")
def standard_solution(kernel):
    return solve_mfg(standard_problem(kernel))


@pytest.fixture(scope="module")
def delta_system(standard_solution):
    return linearize(standard_solution, mollified_delta(GRID, (0.5,)))


@pytest.fixture(scope="module")
def delta_solved(delta_system):
    return solve_linear_system(delta_system)


def forcing_trajectory(n_steps: int = N_STEPS) -> Trajectory:
    return constant_trajectory(
        Field.from_function(GRID, lambda x: 0.2 * np.cos(np.pi * x / 2.0)),
        0.0, T_END, n_steps)


def constant_vector_trajectory(row: Field, n_steps: int = N_STEPS
                               ) -> Trajectory:
    vals = np.broadcast_to(
        row.values[None, None],
        (n_steps + 1, 1) + row.grid.shape).copy()
    return Trajectory(row.grid, 0.0, T_END, vals)


def flux_trajectory(n_steps: int = N_STEPS) -> Trajectory:
    return constant_vector_trajectory(
        Field.from_function(
            GRID, lambda x: 0.1 * np.sin(np.pi * x / 2.0) * np.exp(-x * x)),
        n_steps)


def terminal_bump() -> Field:
    return Field.from_function(GRID, lambda x: 0.15 * np.exp(-4.0 * x * x))


@pytest.fixture(scope="module")
def full_system(standard_solution):
    # every data slot populated: delta rho0 plus b, c, and z_T
    return linearize(
        standard_solution, mollified_delta(GRID, (0.5,)),
        forcing=forcing_trajectory(), flux_forcing=flux_trajectory(),
        terminal=terminal_bump())


@pytest.fixture(scope="module")
def full_solved(full_system):
    return solve_linear_system(full_system)


def one_way_system(kernel) -> LinSystem:
    drift = constant_vector_trajectory(Field.from_function(
        GRID, lambda x: 0.3 * np.sin(np.pi * x / 2.0)))
    density = Trajectory(GRID, 0.0, T_END, np.broadcast_to(
        Measure.normalized(Field.from_function(
            GRID, lambda x: np.exp(-4.0 * x * x))).values,
        (N_STEPS + 1,) + GRID.shape).copy())
    return LinSystem(
        kernel=kernel,
        drift=drift,
        curvature=np.ones((N_STEPS + 1, 1, 1) + GRID.shape),
        ellipticity=1.0,
        forcing=forcing_trajectory(),
        flux_forcing=flux_trajectory(),
        terminal=terminal_bump(),
        rho0=mollified_delta(GRID, (0.5,)),
        density=density,
        running_coupling=Zero(),
        terminal_coupling=Zero(),
    )


@pytest.fixture(scope="module")
def one_way_solved(kernel):
    system = one_way_system(kernel)
    return system, solve_linear_system(system)


# -- coarse configuration for the semigroup-quadrature oracle --------------

CGRID = Grid(16, 2.0)
CN_STEPS = 8  # dt = 0.03125 < 0.0625 budget


def coarse_bump_kernel() -> Field:
    # exactly compactly supported; a Gaussian tail trips the Conv edge guard
    def bump(x):
        inside = x * x < 1.0
        return np.where(
            inside, 0.25 * np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)),
            0.0)
    return Field.from_function(CGRID, bump)


@pytest.fixture(scope="module")
def coarse_solution():
    ckernel = KernelCache(TRIPLET, CGRID)
    problem = MfgProblem(
        kernel=ckernel,
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=Conv(coarse_bump_kernel()),
        terminal_cost=Zero(),
        m0=Measure.normalized(Field.from_function(
            CGRID, lambda x: np.exp(-2.0 * x * x))),
        t0=0.0,
        T=T_END,
        n_steps=CN_STEPS,
    )
    return solve_mfg(problem)


# -- construction and validation --------------------------------------------


class TestLinSystem:
    def test_linearize_assembles_equilibrium_coefficients(
            self, standard_solution, delta_system):
        sys = delta_system
        assert sys.grid == GRID
        assert (sys.t0, sys.T, sys.n_steps) == (0.0, T_END, N_STEPS)
        assert sys.ellipticity == 1.0  # max(2w, 1/(2w)) at w = 0.5
        assert sys.curvature.shape == (N_STEPS + 1, 1, 1) + GRID.shape
        assert np.all(sys.curvature == 1.0)  # constant Hessian 2w = 1
        want_drift = optimal_drift(
            standard_solution.problem.hamiltonian, standard_solution.u)
        assert np.array_equal(sys.drift.values, want_drift.values)
        assert np.array_equal(sys.density.values, standard_solution.m.values)
        assert abs(sys.rho0.integral() - 1.0) <= 1e-12
        assert sys.running_coupling is standard_solution.problem.running_cost

    @pytest.mark.parametrize("kind", ["conv", "composite"])
    @pytest.mark.parametrize("side", ["running", "terminal"])
    def test_coupling_actions_read_their_own_slices(self, delta_system,
                                                    kind, side):
        # the running action pairs m(t) with rho(t) at every slice, the
        # terminal one m(T) with rho(T) alone, each as apply_dmF does
        coupling = smoothing_coupling(0.3) if kind == "conv" else \
            LocalComposite(Field.from_function(
                GRID, lambda x: np.exp(-12.5 * x * x)),
                lambda mesh, s: s * s / 2.0, lambda mesh, s: s)
        couplings = {"running_coupling": Zero(), "terminal_coupling": Zero(),
                     f"{side}_coupling": coupling}
        system = replace(delta_system, **couplings)
        x = GRID.axis(0)
        signed = np.sin(np.pi * x) * np.exp(-4.0 * x * x)
        rho = np.stack([(k + 1.0) * signed for k in range(N_STEPS + 1)])
        actions = dict(zip(("running", "terminal"), _coupling_actions(
            system, _coupling_weights(system), rho)))
        dens = system.density.values
        slices = range(N_STEPS + 1) if side == "running" else [N_STEPS]
        want = np.stack([
            apply_dmF(coupling, Measure.from_values(GRID, dens[k]),
                      Field(GRID, rho[k])).values for k in slices])
        assert np.array_equal(actions[side], want)
        assert all(action is None for name, action in actions.items()
                   if name != side)

    def test_rejects_curvature_outside_declared_band(self, delta_system):
        with pytest.raises(ValueError, match="ellipticity band"):
            replace(delta_system,
                    curvature=3.0 * np.asarray(delta_system.curvature))

    def test_rejects_misshaped_curvature(self, delta_system):
        with pytest.raises(ValueError, match="curvature shape"):
            replace(delta_system,
                    curvature=np.ones((N_STEPS + 1, 1) + GRID.shape))

    @pytest.mark.parametrize("field, value, error, message", [
        ("curvature", np.full((N_STEPS + 1, 1, 1) + GRID.shape, np.nan),
         ValueError, "curvature contains NaN/Inf entries"),
        ("ellipticity", 0.5, ValueError, "ellipticity constant must be >= 1"),
        ("terminal", Field.constant(Grid(32, 2.0), 0.0), GridMismatchError,
         "terminal data grid != kernel grid"),
        ("rho0", Field.constant(Grid(32, 2.0), 0.0), GridMismatchError,
         "initial data grid != kernel grid"),
    ], ids=["nan-curvature", "ellipticity-below-1", "terminal-grid",
            "rho0-grid"])
    def test_rejects_bad_data(self, delta_system, field, value, error,
                              message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            replace(delta_system, **{field: value})

    def test_rejects_asymmetric_curvature(self):
        grid2 = Grid((8, 8), (1.0, 1.0))
        kernel2 = KernelCache(
            LevyTriplet(dims=2, jumps=(FractionalLaplacian(1.5),)), grid2)
        n2 = 2
        gamma = np.tile(
            np.eye(2).reshape(1, 2, 2, 1, 1), (n2 + 1, 1, 1) + grid2.shape)
        gamma[:, 0, 1] = 0.1  # [1, 0] stays zero
        with pytest.raises(ValueError, match="asymmetric"):
            LinSystem(
                kernel=kernel2,
                drift=zero_trajectory(grid2, 0.0, 0.1, n2, vector=True),
                curvature=gamma,
                ellipticity=2.0,
                forcing=None,
                flux_forcing=None,
                terminal=Field.constant(grid2, 0.0),
                rho0=Field.constant(grid2, 0.0),
                density=Trajectory(grid2, 0.0, 0.1, np.full(
                    (n2 + 1,) + grid2.shape, 0.25)),
                running_coupling=Zero(),
                terminal_coupling=Zero(),
            )

    def test_rejects_density_on_wrong_slab(self, delta_system):
        stretched = Trajectory(GRID, 0.0, 2.0 * T_END,
                               delta_system.density.values.copy())
        with pytest.raises(ValueError, match="share the time slab"):
            replace(delta_system, density=stretched)

    def test_rejects_non_probability_density(self, delta_system):
        doubled = Trajectory(GRID, 0.0, T_END,
                             2.0 * delta_system.density.values)
        with pytest.raises(ValueError, match="deviates from 1"):
            replace(delta_system, density=doubled)
        # one slice dips to -1e-6 at a node, its mass kept at 1
        dipped = delta_system.density.values.copy()
        shift = dipped[5, 10] + 1e-6
        dipped[5, [10, 11]] += (-shift, shift)
        with pytest.raises(ValueError, match="negative values"):
            replace(delta_system,
                    density=Trajectory(GRID, 0.0, T_END, dipped))

    def test_rejects_coupling_without_derivative_action(self, delta_system):
        with pytest.raises(TypeError, match="measure-derivative action"):
            replace(delta_system, running_coupling=object())

    @pytest.mark.parametrize("call", [
        lambda sol, c: eval_F(c, sol.problem.m0),
        lambda sol, c: apply_dmF(c, sol.problem.m0, sol.problem.m0.density),
        lambda sol, c: eval_dmF(c, sol.problem.m0),
        lambda sol, c: check_M1(c),
        lambda sol, c: require_smooth(c),
        lambda sol, c: linearize(sol, mollified_delta(GRID, (0.5,)),
                                 running_coupling=c),
    ], ids=["eval_F", "apply_dmF", "eval_dmF", "check_M1", "require_smooth",
            "linearize"])
    def test_object_of_no_coupling_family_has_no_action(
            self, standard_solution, call):
        with pytest.raises(TypeError,
                           match="has no measure-derivative action"):
            call(standard_solution, object())

    def test_linearize_rejects_unconverged_solution(self, standard_solution):
        stalled = replace(standard_solution, converged=False)
        with pytest.raises(ValueError, match="converged MFG solution"):
            linearize(stalled, mollified_delta(GRID, (0.5,)))

    def test_linearize_rejects_foreign_perturbation_grid(
            self, standard_solution):
        other = mollified_delta(Grid(32, 2.0), (0.5,))
        with pytest.raises(GridMismatchError, match="perturbation grid"):
            linearize(standard_solution, other)

    def test_linearize_needs_a_momentum_curvature(self, standard_solution):
        ham = GeneralHamiltonian(
            h=lambda x, u, p: 0.5 * p[0] ** 2, grad=lambda x, u, p: (p[0],))
        solution = replace(standard_solution, problem=replace(
            standard_solution.problem, hamiltonian=ham))
        with pytest.raises(ValueError, match=re.escape(
                "the Hamiltonian supplies no momentum curvature; the forward "
                "flux of the linear system cannot be formed")):
            linearize(solution, mollified_delta(GRID, (0.5,)))

    @staticmethod
    def undeclared(solution: MfgSolution, weight) -> MfgSolution:
        """``solution`` re-posed under H = weight(x) |p|^2 / 2, which has a
        momentum curvature but declares no convexity bound."""
        ham = GeneralHamiltonian(
            h=lambda x, u, p: 0.5 * weight(x[0]) * p[0] ** 2,
            grad=lambda x, u, p: (weight(x[0]) * p[0],),
            hess=lambda x, u, p: np.broadcast_to(
                weight(x[0]), np.shape(u))[..., None, None])
        return replace(solution,
                       problem=replace(solution.problem, hamiltonian=ham))

    @pytest.mark.parametrize("weight, want", [
        # the realized curvatures on the grid span [0.5 + cos(2) / 4, 0.75]
        (lambda x: 0.5 + 0.25 * np.cos(x), 1.0 / (0.5 + 0.25 * np.cos(2.0))),
        (lambda x: 3.0 + 0.0 * x, 3.0),
        (lambda x: 0.25 + 0.0 * x, 4.0),
        (lambda x: 1.0 + 0.0 * x, 1.0)], ids=["wavy", "hi", "1/lo", "unit"])
    def test_undeclared_ellipticity_comes_from_the_realized_curvature(
            self, standard_solution, weight, want):
        # c = max(hi, 1/lo, 1); measured: 2.5254866374606686 for "wavy",
        # the grid holding x = -2 exactly
        system = linearize(self.undeclared(standard_solution, weight),
                           mollified_delta(GRID, (0.5,)))
        assert system.ellipticity == want

    @pytest.mark.parametrize("weight, lo", [
        (lambda x: 0.0 * x, "0.000e+00"), (np.cos, "-4.161e-01")],
        ids=["zero", "indefinite"])
    def test_degenerate_curvature_has_no_ellipticity(
            self, standard_solution, weight, lo):
        with pytest.raises(ValueError, match=re.escape(
                f"momentum curvature degenerates (min eigenvalue {lo}); "
                "no ellipticity constant exists")):
            linearize(self.undeclared(standard_solution, weight),
                      mollified_delta(GRID, (0.5,)))


# -- one-way transport (both coupling derivatives zero) ---------------------


class TestOneWayTransport:
    def test_backward_leg_bitwise_matches_nonlinear_solver(
            self, kernel, one_way_solved):
        # the backward leg IS the value solver run on the advection
        # Hamiltonian b.p: same exponential Euler march, same sweeps
        system, (z, _, _) = one_way_solved
        u = solve_hjb(
            kernel,
            drift_hamiltonian((lambda x: 0.3 * np.sin(np.pi * x / 2.0),)),
            forcing_trajectory(), terminal_bump(), 0.0, T_END, N_STEPS)
        assert np.array_equal(z.values, u.values)

    def test_forward_leg_bitwise_matches_module_march(self, one_way_solved):
        # the flux m Gamma Dz + c is assembled here from the system's parts,
        # so this pins the solver's flux assembly as well as its march call
        system, (z, rho, _) = one_way_solved
        dz = np.stack([[g.values for g in gradient(z.slice_field(k))]
                       for k in range(N_STEPS + 1)])
        gamma_dz = np.sum(system.curvature * dz[:, None], axis=2)
        flux = (system.density.values[:, None] * gamma_dz
                + system.flux_forcing.values)
        standalone = _forward_values(
            system.kernel, system.drift.values, flux, system.rho0.values,
            0.0, T_END, N_STEPS, 2)
        assert np.array_equal(rho.values, standalone)

    def test_forward_leg_tracks_divergence_form_march(
            self, kernel, one_way_solved):
        # same equation, first-order quadrature on the other side; the
        # sweeps only move the path by O(dt)
        system, (z, rho, _) = one_way_solved
        direct = solve_fp(kernel, system.drift, system.rho0,
                          Trajectory(GRID, 0.0, T_END,
                                     _flux_values(system, z.values)),
                          0.0, T_END, N_STEPS)
        gap = float(np.max(np.abs(rho.values - direct.values)))
        assert gap <= 5e-3  # measured: 2.36e-3

    def test_one_way_report_converges_on_the_third_pass(self, one_way_solved):
        # z never reads rho, so every pass returns the same pair: the
        # Anderson step at weight 0.5 lands on it in its second step.
        # measured gaps 7.89e-3, 3.95e-3 (half the first) and 3.97e-17
        _, (_, _, report) = one_way_solved
        assert report.converged
        assert report.iterations == 3
        assert report.damping == 0.5
        gaps = report.gap_history
        assert 7e-3 < gaps[0] < 9e-3
        assert gaps[1] == pytest.approx(0.5 * gaps[0], rel=1e-12)
        assert gaps[2] < 1e-15
        assert report.data_norm > 0.0
        assert report.apriori_ratio == report.output_norm / report.data_norm

    def test_forward_march_conserves_mass_exactly(self, one_way_solved):
        _, (_, rho, _) = one_way_solved
        masses = mass_series(rho)
        # divergences are mean-free mode by mode; measured drift 5.6e-16
        assert float(np.max(np.abs(masses - masses[0]))) <= 1e-13


# -- damped alternation ------------------------------------------------------


class TestSolveLinearSystem:
    def test_zero_data_returns_zero_in_one_pass(self, standard_solution):
        system = linearize(standard_solution, Field.constant(GRID, 0.0))
        z, rho, report = solve_linear_system(system)
        assert not np.any(z.values)
        assert not np.any(rho.values)
        assert report.converged
        assert report.iterations == 1
        assert report.data_norm == 0.0
        assert report.apriori_ratio == 0.0

    def test_alternation_contracts_and_converges(self, delta_solved):
        z, rho, report = delta_solved
        assert report.converged
        assert report.damping == 0.5
        # measured: 6 under Anderson mixing at weight 0.5 (23 under plain
        # damping)
        assert 5 <= report.iterations <= 7
        gaps = np.asarray(report.gap_history)
        assert gaps[-1] < 1e-9
        # measured contraction 0.48 on the first pass, below 0.023 after
        assert np.all(gaps[1:] / gaps[:-1] < 0.7)
        # delta data: dual norm of a unit-mass bump is its mass
        assert abs(report.data_norm - 1.0) <= 1e-7
        assert 1.0 < report.apriori_ratio < 1.3  # measured: 1.1283
        assert report.output_norm == pytest.approx(
            report.apriori_ratio * report.data_norm)
        assert float(np.max(np.abs(z.values))) > 0.05

    def test_solution_independent_of_damping(self, delta_system,
                                             delta_solved):
        z_half, rho_half, _ = delta_solved
        z_one, rho_one, report = solve_linear_system(delta_system,
                                                     damping=1.0)
        assert report.converged
        assert report.iterations <= 10  # measured: 7 (response map ~0.09)
        # measured: 1.8e-10 / 4.8e-11
        assert float(np.max(np.abs(z_one.values - z_half.values))) <= 1e-8
        assert float(np.max(np.abs(rho_one.values - rho_half.values))) <= 1e-8

    def test_stop_tests_and_output_norm_share_one_program_call(
            self, delta_system, chain_sup_rows):
        solve_linear_system(delta_system)
        # measured: the closing call runs the 13 rows the 6 stop tests kept
        # and the 33 of rho; the 1-row call is rho0's dual norm (data_norm)
        assert chain_sup_rows == [46, 1]

    def test_stalled_solve_returns_its_pass_of_smallest_gap(self,
                                                            delta_system):
        # gaps fall to rounding, then wander: measured smallest at pass 12
        # of 14; a re-run stopped right after that pass ends on it
        z, rho, report = solve_linear_system(delta_system, max_iters=14,
                                             tol=1e-300)
        best = int(np.argmin(report.gap_history))
        assert not report.converged and best < report.iterations - 1
        z_best, rho_best, rerun = solve_linear_system(
            delta_system, max_iters=best + 1, tol=1e-300)
        assert not rerun.converged and rerun.iterations == best + 1
        assert z.values.tobytes() == z_best.values.tobytes()
        assert rho.values.tobytes() == rho_best.values.tobytes()
        assert report.output_norm == rerun.output_norm

    def test_a_stalled_alternation_steps_once_fewer_than_it_passes(
            self, delta_system, monkeypatch):
        # the step after the last pass is never read, so it is not taken
        steps, anderson = [], mfg._anderson

        def counted(*args):
            steps.append(args[0])
            return anderson(*args)

        monkeypatch.setattr(mfg, "_anderson", counted)
        _, _, report = solve_linear_system(delta_system, max_iters=3,
                                           tol=1e-300)
        assert not report.converged and report.iterations == 3
        assert len(steps) == 2

    def test_open_brackets_take_every_decision_on_the_exact_program(
            self, delta_system, delta_solved, monkeypatch, chain_sup_rows):
        # with [0, inf] for every sup each stop test must run the program:
        # the solve is the same, bit for bit, at one call per alternation
        bracket = measures._sup_bracket

        def open_bracket(grid, path):
            _, _, rows = bracket(grid, path)
            # every path of this solve takes the bounds, so it has rows
            assert len(rows) > 0
            return 0.0, np.inf, rows

        monkeypatch.setattr(measures, "_sup_bracket", open_bracket)
        z, rho, report = solve_linear_system(delta_system)
        want_z, want_rho, want = delta_solved
        # one call per stop test, then rho's and rho0's
        assert len(chain_sup_rows) == report.iterations + 2
        assert z.values.tobytes() == want_z.values.tobytes()
        assert rho.values.tobytes() == want_rho.values.tobytes()
        assert report == want

    def test_rerun_is_bitwise_reproducible(self, delta_system, delta_solved):
        z, rho, report = delta_solved
        z2, rho2, report2 = solve_linear_system(delta_system)
        assert np.array_equal(z.values, z2.values)
        assert np.array_equal(rho.values, rho2.values)
        assert report.gap_history == report2.gap_history

    def test_output_scales_exactly_with_data(self, full_system):
        # fixed iteration count, tolerance out of reach: every float op in
        # the alternation is linear, so doubling all data doubles the output
        def scaled(s: float) -> LinSystem:
            return replace(
                full_system,
                rho0=Field(GRID, s * full_system.rho0.values),
                forcing=Trajectory(GRID, 0.0, T_END,
                                   s * full_system.forcing.values),
                flux_forcing=Trajectory(GRID, 0.0, T_END,
                                        s * full_system.flux_forcing.values),
                terminal=Field(GRID, s * full_system.terminal.values))

        base_z, base_rho, _ = solve_linear_system(
            scaled(1.0), max_iters=4, tol=1e-300)
        for s in (2.0, 4.0):
            z_s, rho_s, _ = solve_linear_system(
                scaled(s), max_iters=4, tol=1e-300)
            # contract allows 1e-9; powers of two scale bitwise
            assert np.array_equal(z_s.values, s * base_z.values)
            assert np.array_equal(rho_s.values, s * base_rho.values)

    def test_parameter_validation(self, delta_system):
        with pytest.raises(ValueError, match="damping"):
            solve_linear_system(delta_system, damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            solve_linear_system(delta_system, damping=1.5)
        with pytest.raises(ValueError, match="at least one"):
            solve_linear_system(delta_system, max_iters=0)
        with pytest.raises(TypeError, match=r"^max_iters must be an integer, "
                                            r"got 2\.5$"):
            solve_linear_system(delta_system, max_iters=2.5)
        with pytest.raises(ValueError, match="tol"):
            solve_linear_system(delta_system, tol=0.0)

    @pytest.mark.parametrize("slot, error", [
        ("terminal", DivergenceError), ("rho0", InstabilityError)])
    def test_nonfinite_data_raises_from_a_leg(self, delta_system, slot,
                                               error):
        # both returns wrap march output without a finite scan: the z leg
        # rejects a non-finite terminal slice in alternation 1, the rho leg
        # a non-finite rho0 already in the initial flow (alternation 0)
        tag = {"terminal": 1, "rho0": 0}[slot]
        values = getattr(delta_system, slot).values.copy()
        values[7] = np.nan
        bad = replace(delta_system, **{slot: Field(GRID, values)})
        with np.errstate(all="ignore"), \
                pytest.raises(error, match=f"^alternation iteration {tag}: "):
            solve_linear_system(bad)

    def test_inner_failures_carry_the_iteration_tag(self, delta_system):
        # the runaway drift already breaks the initial forward flow
        runaway = constant_vector_trajectory(Field.constant(GRID, 1.0e4))
        bad = replace(delta_system, drift=runaway)
        with pytest.raises(InstabilityError,
                           match="^alternation iteration 0: "):
            solve_linear_system(bad)

    def test_one_way_failure_is_tagged_as_the_first_pass(self, kernel):
        system = one_way_system(kernel)
        values = system.terminal.values.copy()
        values[7] = np.nan
        bad = replace(system, terminal=Field(GRID, values))
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError,
                              match="^alternation iteration 1: "):
            solve_linear_system(bad)


# -- energy identity ---------------------------------------------------------


class TestDualityReport:
    def test_identity_on_equilibrium_linearization(self, full_system,
                                                   full_solved):
        z, rho, _ = full_solved
        report = duality_report(full_system, z, rho)
        assert report.passed
        assert report.rel_gap <= 1e-4  # measured: 6.6e-5
        assert report.lhs > 0.0
        # both couplings are positive kernels; measured 4.6e-2 / 8.5e-2
        assert report.quad_running >= -1e-8
        assert report.quad_terminal >= -1e-8

    def test_identity_sharpens_under_step_refinement(self, kernel):
        def hand_system(n_steps: int) -> LinSystem:
            density = Trajectory(GRID, 0.0, T_END, np.broadcast_to(
                Measure.normalized(Field.from_function(
                    GRID, lambda x: np.exp(-4.0 * x * x))).values,
                (n_steps + 1,) + GRID.shape).copy())
            return LinSystem(
                kernel=kernel,
                drift=constant_vector_trajectory(
                    Field.from_function(
                        GRID, lambda x: 0.3 * np.sin(np.pi * x / 2.0)),
                    n_steps),
                curvature=np.ones((n_steps + 1, 1, 1) + GRID.shape),
                ellipticity=1.0,
                forcing=forcing_trajectory(n_steps),
                flux_forcing=flux_trajectory(n_steps),
                terminal=terminal_bump(),
                rho0=Field.from_function(
                    GRID,
                    lambda x: np.exp(-6.0 * x * x) * np.sin(np.pi * x)),
                density=density,
                running_coupling=smoothing_coupling(0.4),
                terminal_coupling=Zero(),
            )

        gaps = {}
        for n_steps in (N_STEPS, 2 * N_STEPS):
            system = hand_system(n_steps)
            z, rho, _ = solve_linear_system(system, damping=1.0)
            gaps[n_steps] = duality_report(system, z, rho).rel_gap
        assert gaps[N_STEPS] <= 1e-4  # measured: 5.9e-5
        assert gaps[2 * N_STEPS] < gaps[N_STEPS]  # both legs march at O(dt^2)

    def test_quadratic_terms_nonnegative_for_signed_data(
            self, standard_solution):
        signed = Field.from_function(
            GRID, lambda x: np.sin(np.pi * x) * np.exp(-4.0 * x * x))
        system = linearize(standard_solution, signed)
        z, rho, _ = solve_linear_system(system, damping=1.0)
        report = duality_report(system, z, rho, tol=1e-3)
        # measured: 3.0e-3 and 2.9e-3 (Bochner-positive kernels)
        assert report.quad_running >= -1e-8
        assert report.quad_terminal >= -1e-8
        # the response to near-zero-mass data is small, so the relative
        # defect is read against a tiny lhs; measured 4.0e-4 at lhs 1.8e-4
        assert report.passed
        assert report.rel_gap <= 1e-3

    def test_zero_system_reports_zero_defect(self, standard_solution):
        system = linearize(standard_solution, Field.constant(GRID, 0.0))
        z, rho, _ = solve_linear_system(system)
        report = duality_report(system, z, rho)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.rel_gap == 0.0
        assert report.passed

    @pytest.mark.parametrize("foreign", ["z", "rho"])
    def test_pair_on_another_grid_is_refused(self, delta_system, foreign):
        pair = {side: zero_trajectory(
            Grid(32, 2.0) if side == foreign else GRID, 0.0, T_END, N_STEPS)
            for side in ("z", "rho")}
        with pytest.raises(GridMismatchError,
                           match="^solution pair lives on a different grid$"):
            duality_report(delta_system, pair["z"], pair["rho"])

    def test_report_serializes(self, full_system, full_solved):
        z, rho, _ = full_solved
        payload = duality_report(full_system, z, rho).to_dict()
        assert payload["pass"] is True
        for key in ("lhs", "rhs", "rel_gap", "tolerance", "quad_running",
                    "quad_terminal", "pairing_initial", "pairing_terminal"):
            assert isinstance(payload[key], float)


# -- mollified point mass ----------------------------------------------------


class TestMollifiedDelta:
    def test_unit_mass_nonnegative_peak_at_nearest_node(self):
        bump = mollified_delta(GRID, (0.5,))
        assert abs(bump.integral() - 1.0) <= 1e-12
        assert float(np.min(bump.values)) >= 0.0
        assert int(np.argmax(bump.values)) == GRID.nearest_index((0.5,))[0]

    def test_point_needs_one_coordinate_per_axis(self):
        # j_field's y: an extra coordinate used to be dropped
        with pytest.raises(ValueError, match="^point \\(0.5, 0.1\\) does not "
                                             "have one coordinate per axis "
                                             "of a 1D grid$"):
            mollified_delta(GRID, (0.5, 0.1))

    def test_translation_is_a_grid_roll(self):
        at_half = mollified_delta(GRID, (0.5,))
        at_zero = mollified_delta(GRID, (0.0,))
        shift = GRID.nearest_index((0.5,))[0] - GRID.nearest_index((0.0,))[0]
        assert np.array_equal(at_half.values,
                              np.roll(at_zero.values, shift))


# -- derivative of the value field in the measure direction ------------------


class TestDerivativeField:
    def test_decoupled_solution_has_zero_derivative(self, kernel):
        problem = replace(standard_problem(kernel), running_cost=Zero(),
                          terminal_cost=Zero())
        solution = solve_mfg(problem)
        j = j_field(solution, None, (0.5,))
        assert not np.any(j.values)

    def test_first_iterate_tracks_semigroup_quadrature_oracle(
            self, coarse_solution):
        # hand route: push the bump forward without z-feedback, convolve
        # each slice with the running kernel, and integrate the backward
        # semigroup over the slab by the trapezoid; the only dropped term
        # is the advection of z itself (sup |drift| = 0.0089 here)
        problem = coarse_solution.problem
        ckernel = problem.kernel
        rho0 = mollified_delta(CGRID, (0.5,))
        drift = optimal_drift(problem.hamiltonian, coarse_solution.u)
        flow = solve_fp(ckernel, drift, rho0, None, 0.0, T_END, CN_STEPS)
        dt = T_END / CN_STEPS
        oracle = np.zeros(CGRID.shape)
        for k in range(CN_STEPS + 1):
            weight = dt * (0.5 if k in (0, CN_STEPS) else 1.0)
            source = apply_dmF(problem.running_cost,
                               coarse_solution.measure_at(k),
                               flow.slice_field(k))
            if k == 0:
                oracle += weight * source.values
            else:
                oracle += weight * semigroup_apply(
                    ckernel, k * dt, source).values

        system = linearize(coarse_solution, rho0)
        z1, _, _ = solve_linear_system(system, damping=1.0, max_iters=1,
                                       tol=1e-300)
        gap = float(np.max(np.abs(z1.initial.values - oracle)))
        assert float(np.max(np.abs(oracle))) > 1e-3  # signal, not noise
        assert gap <= 5e-3  # measured: 7.4e-6 against sup 0.0154

    def test_superposes_over_initial_data(self, standard_solution):
        opts = dict(damping=1.0, max_iters=60, tol=1e-12)
        deltas = [mollified_delta(GRID, (0.5,)),
                  mollified_delta(GRID, (-0.75,))]
        mix = Field(GRID, 0.5 * (deltas[0].values + deltas[1].values))
        z_mix, _, _ = solve_linear_system(
            linearize(standard_solution, mix), **opts)
        parts = [solve_linear_system(
            linearize(standard_solution, d), **opts)[0] for d in deltas]
        averaged = 0.5 * (parts[0].initial.values + parts[1].initial.values)
        gap = float(np.max(np.abs(z_mix.initial.values - averaged)))
        assert gap <= 1e-10  # measured: ~6e-15

    def test_mirror_symmetric_costs_give_mirror_symmetric_derivative(
            self, standard_solution):
        j_plus = j_field(standard_solution, None, (0.5,), damping=1.0)
        j_minus = j_field(standard_solution, None, (-0.5,), damping=1.0)
        # node reflection x -> -x on the periodic grid
        reflected = np.roll(j_minus.values[::-1], 1)
        gap = float(np.max(np.abs(j_plus.values - reflected)))
        assert gap <= 1e-8  # measured: 1.3e-16
        assert 0.05 < float(np.max(np.abs(j_plus.values))) < 0.5  # 0.128

    @pytest.mark.parametrize("solution, y, message", [
        ("standard_solution", 0.5, "derivative solve at y="),
        # the first node of the coarse table
        ("coarse_solution", -2.0,
         r"derivative solve at y=\(-2\.0,\): alternation stalled"),
    ], ids=["standard", "coarse"])
    def test_stall_is_tagged_with_the_probe_point(self, request, solution, y,
                                                  message):
        with pytest.raises(InstabilityError, match=message):
            j_field(request.getfixturevalue(solution), None, (y,),
                    max_iters=1, tol=1e-300)


# -- tabulated derivative kernel ---------------------------------------------


@pytest.fixture(scope="module")
def batch(coarse_solution):
    return j_field_batch(coarse_solution, damping=1.0)


class TestDerivativeKernelBatch:
    def test_rows_bitwise_match_single_solves(self, coarse_solution, batch):
        assert batch.values.shape == CGRID.shape + CGRID.shape
        assert batch.t0 == 0.0
        assert batch.mollifier_width == 2.0 * CGRID.dx[0]
        nodes = CGRID.meshgrid()[0]
        for iy in (4, 11):
            y = (float(nodes[iy]),)
            single = j_field(coarse_solution, None, y, damping=1.0)
            assert np.array_equal(batch.values[iy], single.values)

    def test_batch_leg_failure_is_the_sequential_one(self, coarse_solution):
        # an oversized coupling makes the solve at the first node blow up
        # at alternation 20; the leg's error carries the probe point and
        # the alternation (at x1e4 the mixed alternation stalls instead:
        # gap 5.3e-4 after 40 legs)
        loud = (Conv(Field(CGRID, 3e5 * coarse_bump_kernel().values)),
                Zero())
        with pytest.raises((DivergenceError, InstabilityError)) as single:
            j_field(coarse_solution, loud, (-2.0,))
        assert str(single.value).startswith(
            "derivative solve at y=(-2.0,): alternation iteration 20: ")

    def test_kernel_shape_is_validated(self):
        with pytest.raises(ValueError, match="kernel shape"):
            JKernel(grid=CGRID, t0=0.0, values=np.zeros((16, 8)),
                    mollifier_width=0.5)

    def test_batch_refuses_oversized_grids(self):
        big = Grid(256, 2.0)
        m0 = Measure.normalized(Field.from_function(
            big, lambda x: np.exp(-x * x)))
        problem = MfgProblem(
            kernel=KernelCache(TRIPLET, big),
            hamiltonian=QuadraticHamiltonian(0.5),
            running_cost=Zero(), terminal_cost=Zero(),
            m0=m0, t0=0.0, T=5e-4, n_steps=1)
        fabricated = MfgSolution(
            u=zero_trajectory(big, 0.0, 5e-4, 1),
            m=Trajectory(big, 0.0, 5e-4, np.broadcast_to(
                m0.values, (2,) + big.shape).copy()),
            converged=True, iterations=1, gap_history=(0.0,),
            diagnostics={}, problem=problem)
        with pytest.raises(BudgetError, match="per-axis budget"):
            j_field_batch(fabricated)


# -- a 2D derivative batch ---------------------------------------------------

SGRID = Grid(8, 2.0, dims=2)


def square_bump(x, y):
    r2 = x * x + y * y
    return np.where(
        r2 < 1.0, 0.25 * np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)


@pytest.fixture(scope="module")
def square_solution():
    problem = MfgProblem(
        kernel=KernelCache(
            LevyTriplet(dims=2, jumps=(FractionalLaplacian(1.5),)), SGRID),
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=Conv(Field.from_function(SGRID, square_bump)),
        terminal_cost=Zero(),
        m0=Measure.normalized(Field.from_function(
            SGRID, lambda x, y: np.exp(-2.0 * ((x - 0.3) ** 2 + y * y)))),
        t0=0.0,
        T=T_END,
        n_steps=2,  # dt = 0.125 < 0.177 budget
    )
    return solve_mfg(problem)


class TestDerivativeKernel2D:
    def test_rows_bitwise_match_single_solves(self, square_solution):
        # a 2x2 lattice of probe points; a full 64-node table would spend
        # most of its time in the 2D metric programs
        ys = [(a, b) for a in (-0.5, 0.5) for b in (-1.0, 0.5)]
        rows = np.stack([j_field(square_solution, None, y, damping=1.0).values
                         for y in ys])
        assert rows.shape == (4,) + SGRID.shape
        for row, y in zip(rows, ys):
            z, _, _ = solve_linear_system(linearize(
                square_solution, mollified_delta(SGRID, y)), damping=1.0)
            assert np.array_equal(row, z.initial.values)
        # signal, not noise; measured sups 8.953e-3 .. 8.957e-3
        assert float(np.min(np.abs(rows).max(axis=(1, 2)))) > 5e-3
        assert not np.array_equal(rows[0], rows[3])
