"""Master-field certificates on a 16-node coupled scenario.

Order-1.5 jumps on a box of half-width 2, quadratic momentum cost of
weight 0.5, a compactly supported bump convolution as running cost, no
terminal cost, T = 0.5 and dt_cap = 0.03125 (half the 0.0625 budget of
this grid).  One scenario is shared by the whole module; the refinement
check builds a 32-node copy with half the step, the decoupled check drops
the running cost, and one check runs the mixed generator on a 2D 8x8
grid.
Expected values were measured once and frozen; comments record the raw
measurements.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from levymfg import master
from levymfg.coupling import Conv, Zero, eval_F
from levymfg.errors import (BudgetError, DivergenceError, GridMismatchError,
                            InstabilityError, SpectralResidueError)
from levymfg.grid import Field, Grid
from levymfg.hjb import QuadraticHamiltonian
from levymfg.kernels import KernelCache
from levymfg.levy import CGMY, FractionalLaplacian, LevyTriplet, RieszFeller
from levymfg.master import (Scenario, _measure_terms, derivative_check,
                            eval_U, flow_consistency, master_residual,
                            solve_scenario)
from levymfg.measures import Measure, path_metric
from levymfg.mfg import IterationPolicy, solve_mfg
from oracles import tabulated_measure_terms

GRID = Grid(16, 2.0)
TRIPLET = LevyTriplet(jumps=(FractionalLaplacian(1.5),))
T_END = 0.5
DT_CAP = 0.03125
SAMPLES = [(0.0,), (0.5,), (-1.0,)]


def bump_kernel(grid: Grid = GRID) -> Field:
    # exactly compactly supported; a Gaussian tail trips the Conv edge guard
    def bump(x):
        inside = x * x < 1.0
        return np.where(
            inside, 0.25 * np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)),
            0.0)
    return Field.from_function(grid, bump)


def gaussian(grid: Grid, centre: float) -> Measure:
    return Measure.normalized(Field.from_function(
        grid, lambda x: np.exp(-2.0 * (x - centre) ** 2)))


def make_scenario(**overrides) -> Scenario:
    data = dict(
        kernel=KernelCache(TRIPLET, GRID),
        hamiltonian=QuadraticHamiltonian(0.5),
        running_cost=Conv(bump_kernel()),
        terminal_cost=Zero(),
        T=T_END,
        dt_cap=DT_CAP,
    )
    data.update(overrides)
    return Scenario(**data)


@pytest.fixture(scope="module")
def scenario():
    return make_scenario()


@pytest.fixture(scope="module")
def m0():
    return gaussian(GRID, 0.0)


@pytest.fixture(scope="module")
def shifted():
    return gaussian(GRID, 0.5)


@pytest.fixture(scope="module")
def interior(scenario, m0):
    return master_residual(scenario, 0.25, m0, SAMPLES)


@pytest.fixture
def coupled_solves(monkeypatch):
    """Problems of every ``solve_mfg`` call the master layer makes from now
    on, the calls that raise included."""
    problems, solve = [], master.solve_mfg

    def counted(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(master, "solve_mfg", counted)
    return problems


class TestTerminalIdentity:
    def test_field_at_horizon_is_the_terminal_cost(self, scenario, m0):
        u_T = eval_U(scenario, T_END, m0)
        g_T = eval_F(scenario.terminal_cost, m0)
        assert float(np.max(np.abs(u_T.values - g_T.values))) == 0.0

    def test_residual_is_not_posed_at_the_horizon(self, scenario, m0,
                                                  coupled_solves):
        # U(T) = G is eval_U's definition, not an equation to certify
        with pytest.raises(ValueError, match="leaves no slab before T"):
            master_residual(scenario, T_END, m0, SAMPLES)
        assert coupled_solves == []


class TestInteriorResidual:
    def test_full_batch_residual(self, interior):
        assert interior.mode == "interior"
        assert interior.y_stride == 1
        assert interior.delta_t == pytest.approx(4 * DT_CAP)
        assert 3.7e-4 < interior.sup_grid < 3.85e-4  # measured: 3.7729e-4
        assert interior.sup_sampled <= interior.sup_grid
        assert set(interior.term_sups) == {
            "time", "generator", "hamiltonian", "measure_flow", "coupling"}
        # base, t0 + delta_t and t0 - delta_t, each from m0's free flow
        assert interior.solve_iterations == (3, 3, 3)
        assert interior.to_dict()["solve_iterations"] == [3, 3, 3]

    @pytest.mark.parametrize("triplet", [
        TRIPLET, LevyTriplet(jumps=RieszFeller(1.6))],
        ids=["frac", "riesz_feller"])
    def test_measure_terms_match_the_tabulated_kernel(self, triplet, m0):
        scenario = make_scenario(kernel=KernelCache(triplet, GRID))
        report = master_residual(scenario, 0.25, m0, SAMPLES)
        base = solve_scenario(scenario, 0.25, m0)
        got = _measure_terms(scenario, base, m0)
        nonlocal_term, transport_term = tabulated_measure_terms(
            scenario, base, m0)
        # measured: 2.8e-13 (frac, sup 1.26e-2) and 5.2e-14 (riesz_feller,
        # sup 1.65e-2), every alternation stopping at 1e-9
        assert float(np.max(np.abs(
            got - (nonlocal_term - transport_term)))) <= 6e-13
        assert report.term_sups["measure_flow"] == float(np.max(np.abs(got)))

    def test_generator_that_moves_constants_is_refused(
            self, scenario, m0, monkeypatch):
        # the coupled solves march without apply_generator, so only the
        # residual's own generator applications see the offset
        original = scenario.kernel.apply_generator
        monkeypatch.setattr(
            scenario.kernel, "apply_generator",
            lambda values, adjoint=False: original(values, adjoint) + 1e-9)
        with pytest.raises(SpectralResidueError,
                           match="moves constants by 1.000e-09"):
            master_residual(scenario, 0.25, m0, SAMPLES)

    def test_measure_flow_solve_takes_the_policy(self, m0):
        # one alternation cannot close the measure flow solve, which
        # converges under the default budget of 40; measured gap 5.416e-4
        # after that iteration
        stalling = make_scenario(policy=IterationPolicy(max_iters=1,
                                                        tol_d0=1.0))
        with pytest.raises(InstabilityError,
                           match=r"^measure flow solve: alternation "
                                 r"stalled at gap"):
            master_residual(stalling, 0.25, m0, SAMPLES)


class TestStalledSolves:
    def test_coupled_solve_stall_is_a_divergence(self, m0):
        # one best response cannot reach tol_d0 = 1e-12
        stalling = make_scenario(policy=IterationPolicy(max_iters=1,
                                                        tol_d0=1e-12))
        with pytest.raises(DivergenceError,
                           match=r"^coupled solve from t0=0\.25 stalled at "
                                 r"gap .* after 1 iterations$"):
            solve_scenario(stalling, 0.25, m0)

    def test_restart_stall_is_a_divergence(self, scenario, m0,
                                           monkeypatch):
        solve = master.solve_mfg

        def stall_restarts(problem, **kwargs):
            solution = solve(problem, **kwargs)
            if problem.t0 == 0.0:
                return solution
            return replace(solution, converged=False)

        monkeypatch.setattr(master, "solve_mfg", stall_restarts)
        with pytest.raises(DivergenceError,
                           match=r"^restart solve from s=0\.25 stalled at "
                                 r"gap .* after \d+ iterations$"):
            flow_consistency(scenario, 0.0, m0, 0.25)


class TestFreeFlowStart:
    def test_reaches_the_fixed_point_of_the_constant_start(
            self, scenario, m0):
        free = solve_scenario(scenario, 0.25, m0)
        constant = solve_mfg(scenario.problem(0.25, m0))
        assert free.converged and constant.converged
        # measured: 7.68e-10 and 6.65e-11, against tol_d0 = 1e-6
        assert float(np.max(np.abs(
            free.u.initial.values - constant.u.initial.values))) <= 4e-9
        assert float(np.max(path_metric(
            GRID, free.m.values, constant.m.values))) <= 4e-10
        # measured gaps: 2.6e-4, 1.3e-4, 3.4e-8 against 1.2e-1, 6.0e-2,
        # 2.9e-5, 1.1e-8
        assert (free.iterations, constant.iterations) == (3, 4)


class TestRefinement:
    def test_residual_at_32_nodes(self, interior):
        # twice the nodes and half the step of the module scenario
        grid = Grid(32, 2.0)
        fine = make_scenario(kernel=KernelCache(TRIPLET, grid),
                             running_cost=Conv(bump_kernel(grid)),
                             dt_cap=DT_CAP / 2)
        report = master_residual(fine, 0.25, gaussian(grid, 0.0), SAMPLES)
        assert report.mode == "interior"
        assert report.y_stride == 1
        assert 9.6e-5 < report.sup_grid < 1.01e-4  # measured: 9.8770e-5
        ratio = interior.sup_grid / report.sup_grid
        assert 3.7 < ratio < 3.95  # measured: 3.820


class TestPaperOperators:
    """The module scenario under the asymmetric and mixed generators.

    The asymmetric symbols are projected on the Nyquist bin, so their
    solves and residuals run as for the symmetric case.
    """

    drift_frac = LevyTriplet(drift=(0.3,), jumps=(FractionalLaplacian(1.5),))

    @pytest.mark.parametrize("triplet, low, high", [
        # measured: 4.4800e-4
        (drift_frac, 4.35e-4, 4.6e-4),
        # measured: 5.5586e-4
        (LevyTriplet(jumps=RieszFeller(1.6)), 5.4e-4, 5.7e-4),
        # measured: 3.4205e-4
        (LevyTriplet(jumps=CGMY(0.7, 3.0, 6.0, 1.5)), 3.3e-4, 3.5e-4),
        # measured: 4.5043e-4
        (LevyTriplet(diffusion=np.eye(1), jumps=FractionalLaplacian(1.5)),
         4.35e-4, 4.65e-4),
    ], ids=["drift_frac", "riesz_feller", "cgmy", "mix"])
    def test_interior_residual(self, triplet, low, high, m0):
        report = master_residual(make_scenario(
            kernel=KernelCache(triplet, GRID)), 0.25, m0, SAMPLES)
        assert report.mode == "interior"
        assert report.y_stride == 1
        assert low < report.sup_grid < high
        assert report.sup_sampled <= report.sup_grid

    def test_drift_residual_refines(self, m0):
        coarse = master_residual(make_scenario(
            kernel=KernelCache(self.drift_frac, GRID)), 0.25, m0, SAMPLES)
        grid = Grid(32, 2.0)
        fine = master_residual(
            make_scenario(kernel=KernelCache(self.drift_frac, grid),
                          running_cost=Conv(bump_kernel(grid)),
                          dt_cap=DT_CAP / 2),
            0.25, gaussian(grid, 0.0), SAMPLES)
        assert fine.mode == "interior"
        assert 1.25e-4 < fine.sup_grid < 1.31e-4  # measured: 1.2808e-4
        ratio = coarse.sup_grid / fine.sup_grid
        assert 3.4 < ratio < 3.6  # measured: 3.498


class TestMixed2D:
    """The paper's mixed generator, Brownian plus order-1.5 jumps, in 2D.

    An 8x8 grid of half-width 2 with the radius-1 bump convolution of the
    module scenario as running cost, the same horizon and step cap.
    """

    def test_interior_residual(self):
        grid = Grid(8, 2.0, dims=2)

        def bump(x, y):
            r2 = x * x + y * y
            return np.where(r2 < 1.0, 0.25 * np.exp(
                -1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)

        scenario = make_scenario(
            kernel=KernelCache(LevyTriplet(
                dims=2, diffusion=np.eye(2),
                jumps=FractionalLaplacian(1.5)), grid),
            running_cost=Conv(Field.from_function(grid, bump)))
        m0 = Measure.normalized(Field.from_function(
            grid, lambda x, y: np.exp(-2.0 * (x * x + y * y))))
        report = master_residual(scenario, 0.25, m0,
                                 [(0.0, 0.0), (0.5, -0.5)])
        assert report.mode == "interior"
        assert report.y_stride == 1
        # measured: 4.3030e-3 (4.2705e-3 without the Brownian part)
        assert 4.2e-3 < report.sup_grid < 4.4e-3
        assert report.sup_sampled <= report.sup_grid
        # the Brownian part shows in both variables; measured: 1.9744e-2
        # and 1.3397e-2 (1.5376e-2 and 1.0197e-2 without it)
        assert 1.9e-2 < report.term_sups["generator"] < 2.05e-2
        assert 1.3e-2 < report.term_sups["measure_flow"] < 1.38e-2


class TestDecoupled:
    def test_field_ignores_the_measure_and_quotients_are_exact(
            self, m0, shifted):
        free = make_scenario(running_cost=Zero())
        u_a = eval_U(free, 0.0, m0).values
        u_b = eval_U(free, 0.0, shifted).values
        assert float(np.max(np.abs(u_a - u_b))) == 0.0  # measured: 0.0
        report = derivative_check(free, 0.0, m0, shifted,
                                  [0.2, 0.1, 0.05, 0.025])
        assert report.passed
        assert report.slope == float("inf")
        assert [defect for _, defect in report.rows] == [0.0] * 4


class TestDerivativeCheck:
    def test_mixture_quotients_decay_superlinearly(self, scenario, m0,
                                                   shifted):
        report = derivative_check(scenario, 0.0, m0, shifted,
                                  [0.2, 0.1, 0.05, 0.025])
        assert report.passed
        assert 1.45 < report.slope < 1.65  # measured: 1.5355
        defects = [defect for _, defect in report.rows]
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert 1.5e-7 < defects[0] < 1.8e-7  # measured: 1.65e-7
        assert 6e-9 < defects[-1] < 7.5e-9  # measured: 6.8e-9

    def test_pairing_stall_is_an_instability(self, m0, shifted):
        # one alternation cannot close the pairing solve; measured gap
        # 5.091e-4 after that iteration
        stalling = make_scenario(policy=IterationPolicy(max_iters=1,
                                                        tol_d0=1.0))
        with pytest.raises(InstabilityError,
                           match=r"^derivative pairing solve: alternation "
                                 r"stalled at gap"):
            derivative_check(stalling, 0.0, m0, shifted, [0.2, 0.1])


class TestFlowConsistency:
    def test_restart_from_the_midpoint_reproduces_the_flow(
            self, scenario, m0):
        report = flow_consistency(scenario, 0.0, m0, 0.25)
        assert report.passed
        assert report.restart_index == 8
        assert report.tolerance == pytest.approx(2e-5)
        assert report.gap <= 1e-7  # measured: 1.72e-9


class TestValidation:
    def test_time_probe_needs_a_step(self, scenario, m0):
        with pytest.raises(ValueError, match="at least one step"):
            master_residual(scenario, 0.25, m0, SAMPLES, time_probe_steps=0)

    def test_time_probe_must_stay_inside_the_horizon(self, scenario, m0):
        # 8 steps of 0.03125 from t0 = 0.25 reach T itself
        with pytest.raises(ValueError, match=r"leaves \[0, T\)"):
            master_residual(scenario, 0.25, m0, SAMPLES, time_probe_steps=8)

    def test_bad_time_probe_solves_nothing(self, scenario, m0,
                                           coupled_solves):
        with pytest.raises(ValueError, match=r"leaves \[0, T\)"):
            master_residual(scenario, 0.25, m0, SAMPLES, time_probe_steps=8)
        assert coupled_solves == []

    def test_misshapen_sample_point_solves_nothing(self, scenario, m0,
                                                   coupled_solves):
        message = ("point (0.1, 5.0) does not have one coordinate per axis "
                   "of a 1D grid")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            master_residual(scenario, 0.25, m0, SAMPLES + [(0.1, 5.0)])
        assert coupled_solves == []

    @pytest.mark.parametrize("s", [-0.1, T_END])
    def test_bad_restart_time_solves_nothing(self, scenario, m0, s,
                                             coupled_solves):
        with pytest.raises(ValueError, match=r"outside \[t0, T\)"):
            flow_consistency(scenario, 0.0, m0, s)
        assert coupled_solves == []

    @pytest.mark.parametrize("dt_cap", [0.1, 0.0])
    def test_dt_cap_outside_the_budget(self, dt_cap):
        with pytest.raises(BudgetError, match="stepping budget"):
            make_scenario(dt_cap=dt_cap)

    def test_coupling_without_derivative_action(self):
        with pytest.raises(TypeError, match="measure-derivative action"):
            make_scenario(running_cost=object())

    @pytest.mark.parametrize("T", [0.0, -0.5, np.inf, np.nan])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError,
                           match="^horizon T must be positive and finite$"):
            make_scenario(T=T)

    @pytest.mark.parametrize("t0", [T_END, 0.75])
    def test_start_at_or_after_the_horizon_solves_nothing(
            self, scenario, m0, t0, coupled_solves):
        with pytest.raises(ValueError, match=re.escape(
                f"start time {t0!r} leaves no slab before T={T_END!r}")):
            solve_scenario(scenario, t0, m0)
        assert coupled_solves == []

    @pytest.mark.parametrize("call, message", [
        (lambda s, m, other: solve_scenario(s, 0.0, other),
         "initial measure grid != scenario grid"),
        (lambda s, m, other: eval_U(s, 0.0, other),
         "initial measure grid != scenario grid"),
        (lambda s, m, other: derivative_check(s, 0.0, other, m, [0.2, 0.1]),
         "measure grid != scenario grid"),
        (lambda s, m, other: derivative_check(s, 0.0, m, other, [0.2, 0.1]),
         "measure grid != scenario grid"),
        (lambda s, m, other: master_residual(s, 0.25, other, SAMPLES),
         "initial measure grid != scenario grid"),
    ], ids=["solve_scenario", "eval_U", "derivative_check-m0",
            "derivative_check-m0_prime", "master_residual"])
    def test_foreign_grid_measure_solves_nothing(self, scenario, m0, call,
                                                 message, coupled_solves):
        with pytest.raises(GridMismatchError, match=f"^{re.escape(message)}$"):
            call(scenario, m0, gaussian(Grid(32, 2.0), 0.0))
        assert coupled_solves == []

    @pytest.mark.parametrize("h_list, message", [
        ([0.2], "need at least two quotient sizes to fit a slope"),
        ([0.2, 0.0], "quotient sizes must lie in (0, 1]"),
        ([1.5, 0.1], "quotient sizes must lie in (0, 1]"),
        ([0.1, 0.2], "quotient sizes must decrease strictly"),
        ([0.2, 0.1, 0.1], "quotient sizes must decrease strictly"),
    ], ids=["one", "zero", "above-one", "increasing", "repeated"])
    def test_bad_quotient_sizes_solve_nothing(self, scenario, m0, shifted,
                                              h_list, message,
                                              coupled_solves):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derivative_check(scenario, 0.0, m0, shifted, h_list)
        assert coupled_solves == []

    def test_probe_equal_to_the_base_solves_nothing(self, scenario, m0,
                                                    coupled_solves):
        same = gaussian(GRID, 0.0)
        with pytest.raises(ValueError, match=re.escape(
                "probe measure equals the base measure; the difference "
                "quotient is degenerate")):
            derivative_check(scenario, 0.0, m0, same, [0.2, 0.1])
        assert coupled_solves == []
