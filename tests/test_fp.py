"""Forward solver tests: shifted-heat, single-mode and duality oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymfg.errors import (
    BudgetError,
    GridMismatchError,
    InstabilityError,
    QuadratureError,
)
from levymfg.fp import (
    TightnessSeriesReport,
    _project_slices,
    mass_series,
    small_jump_second_moment,
    solve_fp,
    tightness_report,
    weak_residual,
)
from levymfg.grid import Field, Grid
from levymfg.hjb import Trajectory, solve_hjb, step_budget
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet, NumericDensity
from levymfg.measures import (
    Measure,
    TightnessFn,
    d0_distance,
    verify_psi_jump_moment,
)
from oracles import (drift_hamiltonian, generalized_moment, laplacian_triplet,
                     mollify, point_mass, zero_trajectory)

# ---------------------------------------------------------------------------
# oracles and builders


def heat_density(x, t, a):
    """Heat flow of the unit-mass Gaussian with variance parameter a."""
    return np.exp(-(x**2) / (4.0 * (a + t))) / np.sqrt(4.0 * np.pi * (a + t))


def vector_drift(grid, t0, T, n_steps, components):
    """Time-constant vector drift from per-axis constants or callables."""
    vals = np.empty((n_steps + 1, grid.dims) + grid.shape)
    mesh = grid.meshgrid()
    for i, comp in enumerate(components):
        vi = comp(*mesh) if callable(comp) else np.full(grid.shape, float(comp))
        vals[:, i] = vi
    return Trajectory(grid, t0, T, vals)


GAUSS_A = 0.1


# ---------------------------------------------------------------------------
# solver against closed forms


class TestSolveFp:
    def test_pure_heat_flow_matches_closed_form(self):
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        T, n_steps = 0.05, 128
        rho = solve_fp(cache, None, rho0, None, 0.0, T, n_steps)
        x = grid.axis(0)
        worst = max(
            float(np.max(np.abs(rho.values[k] - heat_density(x, t, GAUSS_A))))
            for k, t in enumerate(rho.times))
        assert worst <= 1e-8

    def test_constant_drift_is_a_shift(self):
        # d=1 benchmark at n=512, 400 steps; the first-order-in-time error
        # measured 6.8e-7 at dt=3e-5, so dt=2e-5 leaves a 3x margin
        grid = Grid(512, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        n_steps = 400
        dt = 2e-5
        T, v0 = n_steps * dt, 1.0
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        drift = vector_drift(grid, 0.0, T, n_steps, [v0])
        rho = solve_fp(cache, drift, rho0, None, 0.0, T, n_steps)
        x = grid.axis(0)
        worst = max(
            float(np.max(np.abs(
                rho.values[k] - heat_density(x + v0 * t, t, GAUSS_A))))
            for k, t in enumerate(rho.times))
        assert worst <= 1e-6

    def test_probability_mass_and_positivity(self):
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        T, n_steps = 0.05, 128
        drift = vector_drift(grid, 0.0, T, n_steps,
                             [lambda x: 0.5 * np.sin(np.pi * x / 4.0)])
        rho = solve_fp(cache, drift, rho0, None, 0.0, T, n_steps)
        masses = mass_series(rho)
        assert float(np.max(np.abs(masses - 1.0))) <= 1e-10
        assert float(np.min(rho.values)) >= -1e-7 * float(np.max(rho.values))

    def test_2d_heat_flow(self):
        grid = Grid(64, 5.0, dims=2)
        cache = KernelCache(laplacian_triplet(2), grid)
        a = 0.15
        rho0 = Field.from_function(
            grid, lambda x, y: heat_density(x, 0.0, a) * heat_density(y, 0.0, a))
        T, n_steps = 0.1, 16
        rho = solve_fp(cache, None, rho0, None, 0.0, T, n_steps)
        x, y = grid.meshgrid()
        ref = heat_density(x, T, a) * heat_density(y, T, a)
        assert float(np.max(np.abs(rho.values[-1] - ref))) <= 1e-8
        assert float(np.max(np.abs(mass_series(rho) - 1.0))) <= 1e-10

    def test_superposition(self):
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        T, n_steps = 0.02, 64
        drift = vector_drift(grid, 0.0, T, n_steps,
                             [lambda x: 0.3 * np.sin(np.pi * x / 2.0)])
        x = grid.axis(0)
        rho_a = Field(grid, np.exp(-4.0 * x**2))
        rho_b = Field(grid, x * np.exp(-2.0 * x**2))  # signed data
        c_a = vector_drift(grid, 0.0, T, n_steps,
                           [lambda x: 0.2 * np.exp(-2.0 * x**2)])
        c_b = vector_drift(grid, 0.0, T, n_steps,
                           [lambda x: -0.1 * np.sin(np.pi * x / 2.0)])
        a, b = 0.7, -0.4
        mixed0 = Field(grid, a * rho_a.values + b * rho_b.values)
        mixed_c = Trajectory(grid, 0.0, T,
                             a * c_a.values + b * c_b.values)
        lhs = solve_fp(cache, drift, mixed0, mixed_c, 0.0, T, n_steps)
        ra = solve_fp(cache, drift, rho_a, c_a, 0.0, T, n_steps)
        rb = solve_fp(cache, drift, rho_b, c_b, 0.0, T, n_steps)
        gap = lhs.values - (a * ra.values + b * rb.values)
        assert float(np.max(np.abs(gap))) <= 1e-11

    @given(a=st.floats(min_value=-2.0, max_value=2.0),
           b=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=10, deadline=None)
    def test_superposition_any_coefficients(self, a, b):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        T, n_steps = 0.01, 16
        x = grid.axis(0)
        rho_a = Field(grid, np.exp(-4.0 * x**2))
        rho_b = Field(grid, np.sin(np.pi * x / 2.0))
        mixed = Field(grid, a * rho_a.values + b * rho_b.values)
        lhs = solve_fp(cache, None, mixed, None, 0.0, T, n_steps)
        ra = solve_fp(cache, None, rho_a, None, 0.0, T, n_steps)
        rb = solve_fp(cache, None, rho_b, None, 0.0, T, n_steps)
        gap = lhs.values - (a * ra.values + b * rb.values)
        assert float(np.max(np.abs(gap))) <= 1e-11

    def test_instability_guard(self):
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        n_steps = 128
        T = n_steps * step_budget(2.0, grid)
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        drift = vector_drift(grid, 0.0, T, n_steps, [300.0])
        with pytest.raises(InstabilityError, match="smaller dt"):
            solve_fp(cache, drift, rho0, None, 0.0, T, n_steps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_initial_density_raises_from_the_march(self, bad):
        # ``solve_fp`` wraps its march output without a finite scan: the
        # march's monitor rejects the slice a non-finite rho0 spreads to
        grid = Grid(32, 1.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = np.full(grid.shape, 0.5)
        rho0[3] = bad
        with np.errstate(all="ignore"), \
                pytest.raises(InstabilityError, match="smaller dt"):
            solve_fp(cache, None, Field(grid, rho0), None, 0.0, 0.01, 8)

    def test_budget_error(self):
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.constant(grid, 1.0 / 8.0)
        with pytest.raises(BudgetError, match="n_steps"):
            solve_fp(cache, None, rho0, None, 0.0, 1.0, 10)

    def test_drift_validation(self):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.constant(grid, 0.25)
        scalar_drift = zero_trajectory(grid, 0.0, 0.01, 16)
        with pytest.raises(ValueError, match="vector"):
            solve_fp(cache, scalar_drift, rho0, None, 0.0, 0.01, 16)
        wrong_slab = zero_trajectory(grid, 0.0, 0.02, 16, vector=True)
        with pytest.raises(ValueError, match="time slab"):
            solve_fp(cache, wrong_slab, rho0, None, 0.0, 0.01, 16)
        other = Field.constant(Grid(32, 2.0), 0.25)
        with pytest.raises(GridMismatchError):
            solve_fp(cache, None, other, None, 0.0, 0.01, 16)

    @pytest.mark.parametrize("T, n_steps, message", [
        (0.0, 16, "need T > t0"), (-0.01, 16, "need T > t0"),
        (0.01, 0, "need at least one step")],
        ids=["T-at-t0", "T-before-t0", "no-steps"])
    def test_slab_and_step_count_rejected(self, T, n_steps, message):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_fp(cache, None, Field.constant(grid, 0.25), None, 0.0, T,
                     n_steps)

    @pytest.mark.parametrize("n_steps", [16.0, "16"], ids=["float", "str"])
    def test_step_count_must_be_an_integer(self, n_steps):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        with pytest.raises(TypeError, match=f"^n_steps must be an integer, "
                                            f"got {n_steps!r}$"):
            solve_fp(cache, None, Field.constant(grid, 0.25), None, 0.0,
                     0.01, n_steps)

    def test_numpy_integer_step_count_solves_as_int(self):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.from_function(
            grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        got = solve_fp(cache, None, rho0, None, 0.0, 0.01, np.int64(16))
        want = solve_fp(cache, None, rho0, None, 0.0, 0.01, 16)
        assert np.array_equal(got.values, want.values)

    def test_slice_measure_clamps_within_budget(self):
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        rho = solve_fp(cache, None, rho0, None, 0.0, 0.02, 64)
        vals, defect, _ = _project_slices(grid, rho.values[32][None])
        m = Measure.from_values(grid, vals[0])
        assert isinstance(m, Measure)
        assert defect <= 1e-8
        assert m.density.integral() == pytest.approx(1.0, abs=1e-12)

    def test_slice_measure_rejects_corrupted_mass(self):
        grid = Grid(64, 2.0)
        tr = Trajectory(grid, 0.0, 1.0, np.full((3, 64), 0.9 * 0.25))
        with pytest.raises(InstabilityError, match="defect"):
            _project_slices(grid, tr.values[1][None])


# ---------------------------------------------------------------------------
# weak identity


class TestWeakResidual:
    def setup_method(self):
        self.grid = Grid(256, 4.0)
        self.cache = KernelCache(laplacian_triplet(), self.grid)
        self.T, self.n_steps = 0.05, 128
        self.rho0 = Field.from_function(
            self.grid, lambda x: heat_density(x, 0.0, GAUSS_A))

    def test_constant_test_function_sees_mass_defect(self):
        drift = vector_drift(self.grid, 0.0, self.T, self.n_steps,
                             [lambda x: 0.4 * np.sin(np.pi * x / 4.0)])
        rho = solve_fp(self.cache, drift, self.rho0, None,
                       0.0, self.T, self.n_steps)
        res = weak_residual(self.cache, rho, drift, None,
                            Field.constant(self.grid, 1.0), self.T)
        assert res <= 1e-10

    def test_cosine_mode_matches_decay_identity(self):
        # For rho0 = (1 + cos(w x))/2L under pure heat flow the pairing
        # <cos, rho(s)> is exactly exp(-s w^2)/2, so the residual equals the
        # trapezoid defect of that one-mode integral, computable in closed
        # form.
        L = self.grid.half_width[0]
        w = 4.0 * np.pi / L  # mode index 8 of the 256-node grid
        rho0 = Field.from_function(
            self.grid, lambda x: (1.0 + np.cos(w * x)) / (2.0 * L))
        rho = solve_fp(self.cache, None, rho0, None, 0.0, self.T, self.n_steps)
        phi = Field.from_function(self.grid, lambda x: np.cos(w * x))
        res = weak_residual(self.cache, rho, None, None, phi, self.T)
        s = rho.times
        pair = np.exp(-s * w**2) / 2.0
        exact = abs((pair[-1] - pair[0])
                    - np.trapezoid(-(w**2) * pair, dx=rho.dt))
        assert abs(res - exact) <= 1e-8
        assert exact > 1e-7  # the oracle itself is nontrivial

    # An odd flux source: against cos an even one pairs to zero by symmetry
    # and leaves the residual as it is without it.  measured with the
    # source: 1.32e-5 -> 6.62e-6; dropping it from the residual reads 0.031
    @pytest.mark.parametrize("flux", [
        None, lambda x: 0.2 * np.sin(np.pi * x / 4.0)],
        ids=["no-source", "odd-source"])
    def test_residual_shrinks_under_refinement(self, flux):
        residuals = {}
        for n, n_steps in ((128, 64), (256, 128)):
            grid = Grid(n, 4.0)
            cache = KernelCache(laplacian_triplet(), grid)
            rho0 = Field.from_function(
                grid, lambda x: heat_density(x, 0.0, GAUSS_A))
            drift = vector_drift(grid, 0.0, self.T, n_steps,
                                 [lambda x: 0.4 * np.sin(np.pi * x / 4.0)])
            source = None if flux is None else vector_drift(
                grid, 0.0, self.T, n_steps, [flux])
            rho = solve_fp(cache, drift, rho0, source, 0.0, self.T, n_steps)
            phi = Field.from_function(grid, lambda x: np.cos(np.pi * x / 4.0))
            residuals[n] = weak_residual(cache, rho, drift, source, phi,
                                         self.T)
        assert residuals[128] / residuals[256] >= 1.8
        if source is not None:
            unpaired = weak_residual(cache, rho, drift, None, phi, self.T)
            assert unpaired > 1e3 * residuals[256]

    def test_duality_with_backward_linear_equation(self):
        # phi solved backward with H = b.p pairs invariantly with the
        # forward density driven by the same b.
        grid = Grid(256, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        T, n_steps = 0.05, 768  # pairing drift is O(dt): 1.1e-6 at 256 steps
        b_fn = lambda x: 0.3 * np.sin(np.pi * x / 4.0)
        drift = vector_drift(grid, 0.0, T, n_steps, [b_fn])
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        rho = solve_fp(cache, drift, rho0, None, 0.0, T, n_steps)
        phi_T = Field.from_function(grid, lambda x: np.exp(-((x - 0.5) ** 2)))
        phi = solve_hjb(cache, drift_hamiltonian([b_fn]), None, phi_T,
                        0.0, T, n_steps)
        vol = grid.cell_volume
        pair = vol * np.sum(phi.values * rho.values, axis=1)
        assert float(np.max(np.abs(pair - pair[0]))) <= 1e-6

    def test_residual_at_the_start_time_is_exactly_zero(self):
        rho = solve_fp(self.cache, None, self.rho0, None, 0.0, 0.02, 64)
        assert weak_residual(self.cache, rho, None, None,
                             Field.constant(self.grid, 1.0), 0.0) == 0.0

    def test_time_mesh_validation(self):
        rho = solve_fp(self.cache, None, self.rho0, None, 0.0, 0.02, 64)
        with pytest.raises(ValueError, match="not a slice"):
            weak_residual(self.cache, rho, None, None,
                          Field.constant(self.grid, 1.0), 0.0173)


# ---------------------------------------------------------------------------
# d0 time continuity


class TestTimeContinuity:
    def holder_constant(self, n_steps):
        grid = Grid(128, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        T = 0.05
        b_sup = 0.5
        drift = vector_drift(grid, 0.0, T, n_steps,
                             [lambda x: b_sup * np.sin(np.pi * x / 4.0)])
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        rho = solve_fp(cache, drift, rho0, None, 0.0, T, n_steps)
        slices, _, _ = _project_slices(grid, rho.values)
        m0 = Measure.from_values(grid, slices[0])
        c0 = 0.0
        for k in (1, 2, 4, n_steps // 4, n_steps // 2, n_steps):
            mk = Measure.from_values(grid, slices[k])
            gap = d0_distance(m0, mk)
            c0 = max(c0, gap / ((1.0 + b_sup) * np.sqrt(k * rho.dt)))
        return c0

    def test_holder_fit_stable_under_refinement(self):
        c_coarse = self.holder_constant(64)
        c_fine = self.holder_constant(128)
        assert c_coarse <= 2.0  # sane magnitude for a spread-out density
        assert abs(c_coarse - c_fine) <= 0.25 * c_fine


# ---------------------------------------------------------------------------
# tightness series


class TestTightness:
    def test_pure_diffusion_series_increasing_and_bounded(self):
        grid = Grid(256, 4.0)
        trip = laplacian_triplet()
        cache = KernelCache(trip, grid)
        m0 = mollify(point_mass(grid, 0.0), 3.0 * grid.dx[0])
        T, n_steps = 0.05, 128
        rho = solve_fp(cache, None, Field(grid, m0.values), None,
                       0.0, T, n_steps)
        psi = TightnessFn.on_grid(grid)
        rep = tightness_report(rho, psi, 0.0, triplet=trip)
        assert isinstance(rep, TightnessSeriesReport)
        assert np.all(np.diff(rep.series) >= -1e-12)
        assert rep.passed
        assert rep.series[0] == generalized_moment(m0, psi)

    def test_fractional_series_finite_and_within_budget(self):
        grid = Grid(256, 4.0)
        trip = LevyTriplet(dims=1, jumps=FractionalLaplacian(1.5))
        cache = KernelCache(trip, grid)
        rho0 = Field.from_function(grid, lambda x: heat_density(x, 0.0, GAUSS_A))
        n_steps = 64
        T = n_steps * step_budget(1.5, grid)
        rho = solve_fp(cache, None, rho0, None, 0.0, T, n_steps)
        psi = TightnessFn.on_grid(grid)
        tail_moment = verify_psi_jump_moment(trip)
        tail_mass = 2.0 / 1.5  # int_{|z|>=1} |z|^{-2.5} dz, both sides
        nu_tail = tail_moment + 0.7 * tail_mass
        rep = tightness_report(rho, psi, nu_tail, triplet=trip)
        assert np.all(np.isfinite(rep.series))
        assert rep.passed
        # independent per-slice quadrature of the same weight
        psi_vals = psi.psi.values
        for k in (0, n_steps // 2, n_steps):
            direct = float(np.dot(psi_vals, rho.values[k])) * grid.dx[0]
            assert rep.series[k] == pytest.approx(direct, rel=1e-12)

    def test_small_jump_second_moment_closed_form(self):
        # unnormalized |z|^{-1-alpha}: int_{|z|<=1} z^2 nu(dz) = 2/(2-alpha)
        trip = LevyTriplet(dims=1, jumps=FractionalLaplacian(1.5))
        assert small_jump_second_moment(trip) == pytest.approx(4.0, rel=1e-8)

    def test_divergent_second_moment_raises(self):
        # int_0^1 z^2 |z|^{-3.5} dz diverges; quad flags it only with an
        # IntegrationWarning, beside a finite value of -4 and a small
        # error estimate
        trip = LevyTriplet(jumps=NumericDensity(lambda z: abs(z) ** -3.5,
                                                alpha_low=1.5))
        with pytest.raises(QuadratureError, match="^small-jump second "
                                  "moment failed to converge$"):
            small_jump_second_moment(trip)

    def test_drift_budget_enters_slope(self):
        grid = Grid(64, 4.0)
        tr = Trajectory(grid, 0.0, 1.0,
                        np.full((3, 64), 1.0 / 8.0))
        psi = TightnessFn.on_grid(grid)
        rep0 = tightness_report(tr, psi, 0.0)
        rep1 = tightness_report(tr, psi, 0.0, drift_sup=2.0)
        assert rep1.slope_budget > rep0.slope_budget
        assert rep1.slope_budget == pytest.approx(
            rep0.slope_budget + 2.0 * psi.grad_bound)


# ---------------------------------------------------------------------------
# diagnostics refuse what they cannot pair


class TestDiagnosticArguments:
    grid = Grid(16, 2.0)

    def test_vector_trajectories_rejected(self):
        vector = zero_trajectory(self.grid, 0.0, 0.1, 2, vector=True)
        cache = KernelCache(laplacian_triplet(), self.grid)
        with pytest.raises(ValueError, match="^mass series is for scalar "
                                             "trajectories$"):
            mass_series(vector)
        with pytest.raises(ValueError, match="^weak residual needs a "
                                             "scalar trajectory$"):
            weak_residual(cache, vector, None, None,
                          Field.constant(self.grid, 1.0), 0.1)
        with pytest.raises(ValueError, match="^tightness series needs a "
                                             "scalar trajectory$"):
            tightness_report(vector, TightnessFn.on_grid(self.grid), 0.0)

    def test_weights_on_another_grid_rejected(self):
        scalar = zero_trajectory(self.grid, 0.0, 0.1, 2)
        cache = KernelCache(laplacian_triplet(), self.grid)
        other = Grid(32, 2.0)
        with pytest.raises(GridMismatchError, match="^test function grid "
                                  "!= trajectory grid$"):
            weak_residual(cache, scalar, None, None,
                          Field.constant(other, 1.0), 0.1)
        with pytest.raises(GridMismatchError, match="^tightness weight "
                                  "sampled on another grid$"):
            tightness_report(scalar, TightnessFn.on_grid(other), 0.0)
