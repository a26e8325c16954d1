"""Linearized forward-backward system: alternation, duality, derivative kernel.

Same workhorse configuration as the coupled-solve tests (64-node box of
half-width 2, order-1.5 jumps, quadratic momentum cost, smoothing
convolution couplings, T = 0.25 in 32 steps).  The semigroup-quadrature
oracle runs on a 16-node box with 8 steps, where dt = 0.03125 sits under
that grid's 0.0625 budget.  Expected values were measured once and frozen;
comments record the raw measurements.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from levymfg.coupling import Conv, Zero, apply_dmF
from levymfg.errors import BudgetError, GridMismatchError, InstabilityError
from levymfg.fp import _march_forward, mass_series, solve_fp
from levymfg.grid import Field, Grid, gradient
from levymfg.hjb import (QuadraticHamiltonian, Trajectory, drift_hamiltonian,
                         solve_hjb)
from levymfg.kernels import KernelCache, semigroup_apply
from levymfg.levy import FractionalLaplacian, LevyTriplet
from levymfg.linearized import (JKernel, LinSystem, _forward_flux,
                                duality_report, j_field, j_field_batch,
                                linearize, load_j_kernel, mollified_delta,
                                save_j_kernel, solve_linear_system)
from levymfg.measures import Measure
from levymfg.mfg import MfgProblem, MfgSolution, optimal_drift, solve_mfg

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
    return Trajectory.constant(
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
        assert abs(sys.rho0_mass - 1.0) <= 1e-12
        assert sys.running_coupling is standard_solution.problem.running_cost
        assert not sys.one_way

    def test_one_way_flag_requires_both_derivatives_zero(self, delta_system):
        both = replace(delta_system, running_coupling=Zero(),
                       terminal_coupling=Zero())
        assert both.one_way
        half = replace(delta_system, terminal_coupling=Zero())
        assert not half.one_way

    def test_rejects_curvature_outside_declared_band(self, delta_system):
        with pytest.raises(ValueError, match="ellipticity band"):
            replace(delta_system,
                    curvature=3.0 * np.asarray(delta_system.curvature))

    def test_rejects_misshaped_curvature(self, delta_system):
        with pytest.raises(ValueError, match="curvature shape"):
            replace(delta_system,
                    curvature=np.ones((N_STEPS + 1, 1) + GRID.shape))

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
                drift=Trajectory.zero(grid2, 0.0, 0.1, n2, vector=True),
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
        with pytest.raises(ValueError, match="not a measure path"):
            replace(delta_system, density=doubled)

    def test_rejects_coupling_without_derivative_action(self, delta_system):
        with pytest.raises(TypeError, match="measure-derivative action"):
            replace(delta_system, running_coupling=object())

    def test_linearize_rejects_unconverged_solution(self, standard_solution):
        stalled = replace(standard_solution, converged=False)
        with pytest.raises(ValueError, match="converged MFG solution"):
            linearize(stalled, mollified_delta(GRID, (0.5,)))

    def test_linearize_rejects_foreign_perturbation_grid(
            self, standard_solution):
        other = mollified_delta(Grid(32, 2.0), (0.5,))
        with pytest.raises(GridMismatchError, match="perturbation grid"):
            linearize(standard_solution, other)


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
        standalone = _march_forward(
            system.kernel, system.drift, Trajectory(GRID, 0.0, T_END, flux),
            system.rho0, 0.0, T_END, N_STEPS, 2)
        assert np.array_equal(rho.values, standalone.values)

    def test_forward_leg_tracks_divergence_form_march(
            self, kernel, one_way_solved):
        # same equation, first-order quadrature on the other side; the
        # sweeps only move the path by O(dt)
        system, (z, rho, _) = one_way_solved
        direct = solve_fp(kernel, system.drift, system.rho0,
                          _forward_flux(system, z.values),
                          0.0, T_END, N_STEPS)
        gap = float(np.max(np.abs(rho.values - direct.values)))
        assert gap <= 5e-3  # measured: 2.36e-3

    def test_single_pass_report(self, one_way_solved):
        _, (_, _, report) = one_way_solved
        assert report.one_way
        assert report.converged
        assert report.iterations == 1
        assert report.gap_history == (0.0,)
        assert report.damping == 1.0
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
        assert not report.one_way
        assert report.damping == 0.5
        assert 15 <= report.iterations <= 30  # measured: 23
        gaps = np.asarray(report.gap_history)
        assert gaps[-1] < 1e-9
        # measured contraction ~0.48 per pass
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

    def test_warm_start_validation(self, delta_system):
        good_vals = np.zeros((N_STEPS + 1,) + GRID.shape)
        with pytest.raises(GridMismatchError, match="warm-start"):
            solve_linear_system(delta_system, initial_rho=Trajectory(
                Grid(32, 2.0), 0.0, T_END,
                np.zeros((N_STEPS + 1, 32))))
        with pytest.raises(ValueError, match="must be scalar"):
            solve_linear_system(delta_system, initial_rho=Trajectory(
                GRID, 0.0, T_END, good_vals[:, None]))
        with pytest.raises(ValueError, match="share the time slab"):
            solve_linear_system(delta_system, initial_rho=Trajectory(
                GRID, 0.0, 2.0 * T_END, good_vals))

    def test_parameter_validation(self, delta_system):
        with pytest.raises(ValueError, match="damping"):
            solve_linear_system(delta_system, damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            solve_linear_system(delta_system, damping=1.5)
        with pytest.raises(ValueError, match="at least one"):
            solve_linear_system(delta_system, max_iters=0)
        with pytest.raises(ValueError, match="tol"):
            solve_linear_system(delta_system, tol=0.0)

    def test_inner_failures_carry_the_iteration_tag(self, delta_system):
        runaway = constant_vector_trajectory(Field.constant(GRID, 1.0e4))
        bad = replace(delta_system, drift=runaway)
        with pytest.raises(InstabilityError, match="alternation iteration"):
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

    def test_stall_is_tagged_with_the_probe_point(self, standard_solution):
        with pytest.raises(InstabilityError, match="derivative solve at y="):
            j_field(standard_solution, None, (0.5,), max_iters=1,
                    tol=1e-300)


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
            assert np.array_equal(batch.field_at(y).values, single.values)

    def test_y_gradient_is_central_differencing(self, batch):
        grad = batch.y_gradient()
        assert grad.shape == (1,) + CGRID.shape + CGRID.shape
        manual = (np.roll(batch.values, -1, axis=0)
                  - np.roll(batch.values, 1, axis=0)) / (2.0 * CGRID.dx[0])
        assert np.array_equal(grad[0], manual)

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
            u=Trajectory.zero(big, 0.0, 5e-4, 1),
            m=Trajectory(big, 0.0, 5e-4, np.broadcast_to(
                m0.values, (2,) + big.shape).copy()),
            converged=True, iterations=1, gap_history=(0.0,),
            damping_history=(1.0,), diagnostics={}, problem=problem)
        with pytest.raises(BudgetError, match="per-axis budget"):
            j_field_batch(fabricated)

    def test_save_load_roundtrip_with_sidecar(self, batch, tmp_path):
        target = tmp_path / "derivative.jker"
        save_j_kernel(target, batch)
        sidecar = json.loads((tmp_path / "derivative.jker.json").read_text())
        assert sidecar["format"] == "levymfg-jkernel"
        assert sidecar["version"] == 1
        assert sidecar["axis_roles"] == ["y", "x"]
        assert sidecar["n"] == [16]
        assert sidecar["half_width"] == [2.0]
        assert sidecar["shape"] == [16, 16]
        assert sidecar["dtype"] == "<f8"
        loaded = load_j_kernel(target)
        assert loaded.grid == CGRID
        assert loaded.t0 == batch.t0
        assert loaded.mollifier_width == batch.mollifier_width
        assert np.array_equal(loaded.values, batch.values)

    def test_load_rejects_foreign_and_truncated_files(self, batch, tmp_path):
        target = tmp_path / "derivative.jker"
        save_j_kernel(target, batch)
        sidecar_path = tmp_path / "derivative.jker.json"
        sidecar = json.loads(sidecar_path.read_text())

        foreign = dict(sidecar, format="levymfg-field")
        sidecar_path.write_text(json.dumps(foreign))
        with pytest.raises(ValueError, match="not a derivative-kernel"):
            load_j_kernel(target)

        sidecar_path.write_text(json.dumps(sidecar))
        raw = target.read_bytes()
        target.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_j_kernel(target)
