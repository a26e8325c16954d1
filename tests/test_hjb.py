"""Backward solver tests against closed-form and log-transform oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymfg.errors import (
    BudgetError,
    DivergenceError,
    GridMismatchError,
    InstabilityError,
    NonFiniteFieldError,
    UnsupportedOrderError,
)
from levymfg.fp import _forward_values
from levymfg.grid import Field, Grid, _batch_gradient, _gradient_multipliers
from levymfg.hjb import (
    GeneralHamiltonian,
    GradientBoundReport,
    QuadraticHamiltonian,
    Trajectory,
    _march_backward,
    _mild_march,
    _value_drive,
    gradient_bound_report,
    probe_hamiltonian,
    solve_hjb,
    step_budget,
)
from levymfg import hjb, kernels
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet, NumericDensity
from oracles import (allocating_sweep_spectra, constant_trajectory,
                     drift_hamiltonian, laplacian_triplet, semigroup_apply,
                     stacked_dense_first_pass, zero_hamiltonian,
                     zero_trajectory)

# ---------------------------------------------------------------------------
# oracles


def heat_of_gaussian(x, t, a):
    """Closed form of the heat flow e^{t*Laplace} applied to exp(-x^2/(4a))."""
    return np.sqrt(a / (a + t)) * np.exp(-(x**2) / (4.0 * (a + t)))


def log_transform_oracle(cache, terminal, t0, T, n_slices):
    """Backward quadratic-cost solution via the exponential substitution.

    For the classical Laplacian and H = |Du|^2 the substitution w = e^{-u}
    linearizes the equation to the backward heat flow, so
    u(t) = -log(K_{T-t} * e^{-g}) slice by slice.
    """
    w0 = np.exp(-terminal.values)
    dt = (T - t0) / n_slices
    out = np.empty((n_slices + 1,) + terminal.grid.shape)
    for k in range(n_slices + 1):
        s = T - (t0 + k * dt)
        out[k] = -np.log(cache.apply_array(s, w0))
    return out


GAUSS_WIDTH = 0.5  # the "a" in exp(-x^2/(4a))


# ---------------------------------------------------------------------------
# Hamiltonian probes


class TestHamiltonianProbes:
    def test_quadratic_probe_passes(self):
        rep = probe_hamiltonian(QuadraticHamiltonian(), dims=1)
        assert rep.passed
        assert rep.max_grad_gap <= 1e-6
        lo, hi = rep.curvature_eig_range
        assert abs(lo - 2.0) < 1e-12 and abs(hi - 2.0) < 1e-12

    def test_quadratic_probe_2d(self):
        rep = probe_hamiltonian(QuadraticHamiltonian(weight=0.7), dims=2)
        assert rep.passed
        lo, hi = rep.curvature_eig_range
        assert abs(lo - 1.4) < 1e-12 and abs(hi - 1.4) < 1e-12

    def test_wrong_gradient_detected(self):
        bad = GeneralHamiltonian(
            h=lambda x, u, p: p[0] ** 2,
            grad=lambda x, u, p: (1.95 * p[0],),
        )
        rep = probe_hamiltonian(bad, dims=1)
        assert not rep.passed
        assert rep.max_grad_gap > 1e-3

    def test_convexity_violation_detected(self):
        flat = GeneralHamiltonian(
            h=lambda x, u, p: 0.05 * p[0] ** 2,
            grad=lambda x, u, p: (0.1 * p[0],),
            hess=lambda x, u, p: np.broadcast_to(
                0.1 * np.eye(1), np.broadcast(u, *p).shape + (1, 1)),
            uniformly_convex=True,
            convexity_bound=2.0,
        )
        rep = probe_hamiltonian(flat, dims=1)
        assert not rep.passed  # 0.1 < 1/2
        assert rep.curvature_eig_range[0] == pytest.approx(0.1)

    def test_separable_monotone_rate_certified(self):
        ham = GeneralHamiltonian(
            h=lambda x, u, p: p[0] ** 2 + 0.8 * u,
            grad=lambda x, u, p: (2.0 * p[0],),
            du=lambda x, u, p: np.full(np.shape(u), 0.8),
            monotone_rate=0.8,
        )
        rep = probe_hamiltonian(ham, dims=1)
        assert rep.passed
        assert rep.min_u_slope == pytest.approx(0.8)

    def test_overclaimed_monotone_rate_fails(self):
        ham = GeneralHamiltonian(
            h=lambda x, u, p: np.zeros(np.shape(p[0])) + 0.8 * u,
            grad=lambda x, u, p: (np.zeros(np.shape(p[0])),),
            du=lambda x, u, p: np.full(np.shape(u), 0.8),
            monotone_rate=1.3,
        )
        assert not probe_hamiltonian(ham, dims=1).passed

    def test_drift_hamiltonian_gradient_exact(self):
        ham = drift_hamiltonian([lambda x, y: np.sin(x), 0.5])
        rep = probe_hamiltonian(ham, dims=2)
        assert rep.passed
        assert rep.max_grad_gap < 1e-9

    @given(w=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_probe_passes_for_any_quadratic_weight(self, w):
        assert probe_hamiltonian(QuadraticHamiltonian(weight=w), dims=1).passed

    def test_argument_checks(self):
        with pytest.raises(ValueError,
                           match="^quadratic weight must be positive$"):
            QuadraticHamiltonian(0.0)
        with pytest.raises(ValueError, match=r"^only d in \{1, 2\}$"):
            probe_hamiltonian(QuadraticHamiltonian(), 3)

    def test_declared_bounds_need_their_callbacks(self):
        square = dict(h=lambda x, u, p: p[0] ** 2,
                      grad=lambda x, u, p: (2.0 * p[0],))
        with pytest.raises(ValueError, match="^uniformly_convex declared "
                                             "without a curvature callback$"):
            probe_hamiltonian(GeneralHamiltonian(
                **square, uniformly_convex=True, convexity_bound=2.0), 1)
        with pytest.raises(ValueError, match="^monotone_rate declared "
                                             "without a u_slope callback$"):
            probe_hamiltonian(GeneralHamiltonian(
                **square, monotone_rate=0.5), 1)

    def test_report_dict_keys(self):
        d = probe_hamiltonian(QuadraticHamiltonian(), dims=1).to_dict()
        assert set(d) == {"max_grad_gap", "curvature_eig_range",
                          "min_u_slope", "pass", "trials", "seed"}


# ---------------------------------------------------------------------------
# Trajectory container


class TestTrajectory:
    def setup_method(self):
        self.grid = Grid(16, 1.0)

    def test_time_mesh(self):
        tr = zero_trajectory(self.grid, 0.25, 1.25, 8)
        assert tr.n_steps == 8
        assert tr.dt == pytest.approx(0.125)
        assert np.allclose(tr.times, 0.25 + 0.125 * np.arange(9))
        assert tr.times[-1] == pytest.approx(tr.T)

    def test_from_fields_roundtrip(self):
        fields = [Field.constant(self.grid, float(k)) for k in range(4)]
        tr = Trajectory(self.grid, 0.0, 0.3,
                        np.stack([f.values for f in fields]))
        assert tr.n_steps == 3
        assert np.array_equal(tr.slice_field(2).values, fields[2].values)
        assert np.array_equal(tr.initial.values, fields[0].values)
        assert np.array_equal(tr.slice_field(tr.n_steps).values,
                              fields[3].values)

    def test_constant_in_time(self):
        f = Field.from_function(self.grid, np.cos)
        tr = constant_trajectory(f, 0.0, 1.0, 5)
        assert tr.values.shape == (6, 16)
        assert np.array_equal(tr.values[3], f.values)

    def test_vector_trajectory(self):
        g2 = Grid(16, 1.0, dims=2)
        tr = zero_trajectory(g2, 0.0, 1.0, 4, vector=True)
        assert tr.is_vector
        assert tr.values.shape == (5, 2, 16, 16)
        with pytest.raises(ValueError, match="index values\\[k, i\\]"):
            tr.slice_field(0)

    def test_nonfinite_rejected(self):
        vals = np.zeros((3, 16))
        vals[1, 4] = np.nan
        with pytest.raises(NonFiniteFieldError):
            Trajectory(self.grid, 0.0, 1.0, vals)

    def test_march_constructor_skips_the_finite_scan_alone(self):
        # ``_marched`` wraps march output, whose check has vetted every
        # slice, so it skips the whole-stack finite scan and nothing else
        vals = np.arange(48.0).reshape(3, 16)
        public = Trajectory(self.grid, 0, 1, vals[::-1])
        marched = Trajectory._marched(self.grid, 0, 1, vals[::-1])
        for tr in (public, marched):
            assert np.array_equal(tr.values, vals[::-1])
            assert tr.values.flags.c_contiguous
            assert not tr.values.flags.writeable
            assert type(tr.t0) is float and type(tr.T) is float
            assert not tr.is_vector
        assert Trajectory._marched(self.grid, 0, 1,
                                   np.zeros((3, 1, 16))).is_vector
        with pytest.raises(GridMismatchError):
            Trajectory._marched(self.grid, 0.0, 1.0, np.zeros((3, 32)))
        with pytest.raises(ValueError, match="do not match"):
            Trajectory._marched(self.grid, 0.0, 1.0, np.zeros((3, 4, 16)))
        with pytest.raises(ValueError, match="two time slices"):
            Trajectory._marched(self.grid, 0.0, 1.0, np.zeros((1, 16)))
        with pytest.raises(ValueError, match="T > t0"):
            Trajectory._marched(self.grid, 1.0, 1.0, np.zeros((3, 16)))
        bad = np.zeros((3, 16))
        bad[2, 7] = np.inf
        assert np.isinf(Trajectory._marched(self.grid, 0.0, 1.0, bad)
                        .values[2, 7])
        with pytest.raises(NonFiniteFieldError):
            Trajectory(self.grid, 0.0, 1.0, bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            Trajectory(self.grid, 0.0, 1.0, np.zeros((3, 32)))
        with pytest.raises(ValueError, match="do not match"):
            Trajectory(self.grid, 0.0, 1.0, np.zeros((3, 4, 16)))

    def test_degenerate_slab_rejected(self):
        with pytest.raises(ValueError, match="T > t0"):
            zero_trajectory(self.grid, 1.0, 1.0, 4)

    def test_index_of(self):
        tr = zero_trajectory(self.grid, 0.0, 1.0, 8)
        assert tr.index_of(0.375) == 3
        with pytest.raises(ValueError, match="not a slice"):
            tr.index_of(0.4)

    def test_slices_read_only(self):
        tr = zero_trajectory(self.grid, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            tr.values[0, 0] = 1.0


# ---------------------------------------------------------------------------
# solver against oracles


def march_sweeps(cache, hamiltonian, source, terminal, T, n_steps, sweeps):
    """The march of ``solve_hjb`` on [0, T] with ``sweeps`` Picard sweeps."""
    return Trajectory(cache.grid, 0.0, T, _march_backward(
        cache, terminal.values, 0.0, T, n_steps, sweeps,
        _value_drive(cache.grid, hamiltonian, source)))


class TestSolveHjb:
    def setup_method(self):
        self.grid = Grid(256, 8.0)
        self.cache = KernelCache(laplacian_triplet(), self.grid)
        self.g = Field.from_function(
            self.grid, lambda x: np.exp(-(x**2) / (4.0 * GAUSS_WIDTH)))

    def test_pure_semigroup_matches_closed_form(self):
        T, n_steps = 0.1, 64
        u = solve_hjb(self.cache, zero_hamiltonian(), None, self.g,
                      0.0, T, n_steps)
        x = self.grid.axis(0)
        worst = 0.0
        for k, t in enumerate(u.times):
            worst = max(worst, float(np.max(np.abs(
                u.values[k] - heat_of_gaussian(x, T - t, GAUSS_WIDTH)))))
        assert worst <= 1e-8

    @pytest.mark.parametrize("sweeps", [0, 2])
    def test_constant_source_exact(self, sweeps):
        T, n_steps, c = 0.1, 64, 0.37
        src = constant_trajectory(Field.constant(self.grid, c), 0.0, T,
                                  n_steps)
        u = march_sweeps(self.cache, zero_hamiltonian(), src, self.g,
                         T, n_steps, sweeps)
        worst = 0.0
        for k, t in enumerate(u.times):
            ref = semigroup_apply(self.cache, T - t, self.g).values + c * (T - t)
            worst = max(worst, float(np.max(np.abs(u.values[k] - ref))))
        assert worst <= 1e-10

    @pytest.mark.parametrize("sweeps", [0, 1, 2])
    def test_time_dependent_source_is_read_in_physical_time(self, sweeps):
        # f(t) = t with zero terminal value: u(t) = (T^2 - t^2)/2 exactly.
        # L kills constants, so the march is pure quadrature of f: the
        # trapezoid sweeps are exact on a linear f, and exponential Euler
        # alone takes the left point of the reversed clock, f at t + dt,
        # an excess of dt (T - t)/2.  A march reading f at the mirrored
        # index would miss both.
        grid = Grid(32, 2.0)
        cache = KernelCache(LevyTriplet(jumps=(FractionalLaplacian(1.5),)),
                            grid)
        T, n_steps = 0.25, 16
        dt = T / n_steps
        times = dt * np.arange(n_steps + 1)
        src = Trajectory(grid, 0.0, T, np.broadcast_to(
            times[:, None], (n_steps + 1,) + grid.shape))
        u = march_sweeps(cache, zero_hamiltonian(), src,
                         Field.constant(grid, 0.0), T, n_steps, sweeps)
        want = 0.5 * (T ** 2 - times ** 2)
        if sweeps == 0:
            want = want + 0.5 * dt * (T - times)
        # measured: 0.0 for each sweep count
        assert np.max(np.abs(u.values - want[:, None])) <= 1e-15

    def test_terminal_slice_is_exact(self):
        u = solve_hjb(self.cache, QuadraticHamiltonian(), None, self.g,
                      0.0, 0.05, 32)
        assert np.array_equal(u.values[-1], self.g.values)

    def test_quadratic_log_transform_bound(self):
        # d=1 benchmark at n=512, 400 steps; T saturates the step budget.
        grid = Grid(512, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        n_steps = 400
        dt = step_budget(2.0, grid)
        T = n_steps * dt
        g = Field.from_function(grid, lambda x: 0.8 * np.exp(-8.0 * x**2))
        u = solve_hjb(cache, QuadraticHamiltonian(), None, g, 0.0, T, n_steps)
        ref = log_transform_oracle(cache, g, 0.0, T, n_steps)
        err = float(np.max(np.abs(u.values - ref)))
        assert err <= 1e-3

    def test_first_order_in_time_without_sweeps(self):
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: 0.8 * np.exp(-4.0 * x**2))
        T = 0.05
        errs = {}
        for n_steps in (128, 256):
            u = march_sweeps(cache, QuadraticHamiltonian(), None, g,
                             T, n_steps, 0)
            ref = log_transform_oracle(cache, g, 0.0, T, n_steps)
            errs[n_steps] = float(np.max(np.abs(u.values - ref)))
        ratio = errs[128] / errs[256]
        assert 1.6 <= ratio <= 2.4

    def test_picard_sweeps_improve_accuracy(self):
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: 0.8 * np.exp(-4.0 * x**2))
        T, n_steps = 0.05, 128
        ref = log_transform_oracle(cache, g, 0.0, T, n_steps)
        errs = []
        for sweeps in (0, 2):
            u = march_sweeps(cache, QuadraticHamiltonian(), None, g,
                             T, n_steps, sweeps)
            errs.append(float(np.max(np.abs(u.values - ref))))
        assert errs[1] < 0.25 * errs[0]

    def test_comparison_principle(self):
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        T, n_steps = 0.05, 128
        g1 = Field.from_function(grid, lambda x: 0.5 * np.exp(-4.0 * x**2))
        g2 = Field(grid, g1.values
                   + 0.3 * np.exp(-8.0 * (grid.axis(0) - 0.5) ** 2))
        f2 = constant_trajectory(
            Field.from_function(grid, lambda x: 0.2 * np.exp(-4.0 * x**2)),
            0.0, T, n_steps)
        u1 = solve_hjb(cache, QuadraticHamiltonian(), None, g1, 0.0, T, n_steps)
        u2 = solve_hjb(cache, QuadraticHamiltonian(), f2, g2, 0.0, T, n_steps)
        assert float(np.min(u2.values - u1.values)) >= -1e-8

    def test_value_monotone_damping(self):
        # H2(x, u) = 0.8 u damps but never reorders terminal comparisons.
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        ham = GeneralHamiltonian(
            h=lambda x, u, p: np.zeros(np.shape(p[0])) + 0.8 * u,
            grad=lambda x, u, p: (np.zeros(np.shape(p[0])),),
            du=lambda x, u, p: np.full(np.shape(u), 0.8),
            monotone_rate=0.8,
        )
        T, n_steps, c = 0.25, 512, 0.4
        g = Field.from_function(grid, lambda x: 0.5 * np.exp(-4.0 * x**2))
        u_lo = solve_hjb(cache, ham, None, g, 0.0, T, n_steps)
        u_hi = solve_hjb(cache, ham, None, g.with_values(g.values + c),
                         0.0, T, n_steps)
        gap = u_hi.values - u_lo.values
        assert float(np.min(gap)) >= -1e-12
        assert float(np.max(gap)) <= c + 1e-12

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="n_steps"):
            solve_hjb(self.cache, zero_hamiltonian(), None, self.g,
                      0.0, 1.0, 10)

    # a NumericDensity's declared order is that of its own jump part
    @pytest.mark.parametrize("jumps, alpha", [
        (FractionalLaplacian(0.9), "0.9"),
        (NumericDensity(
            density=lambda z: np.exp(-np.abs(z)) / np.abs(z) ** 1.8,
            alpha_low=0.8), "0.8")], ids=["fractional", "numeric"])
    def test_supercritical_order_rejected(self, jumps, alpha):
        cache = KernelCache(LevyTriplet(dims=1, jumps=jumps), self.grid)
        with pytest.raises(UnsupportedOrderError, match=f"alpha={alpha} "):
            solve_hjb(cache, zero_hamiltonian(), None, self.g, 0.0, 0.01, 64)

    def test_divergence_guard_reports_last_stable_slice(self):
        grid = Grid(32, 1.0)
        cache = KernelCache(laplacian_triplet(), grid)
        n_steps = 32
        dt = 0.05 / n_steps
        lam = 2.0 / dt
        runaway = GeneralHamiltonian(
            h=lambda x, u, p: -lam * u,
            grad=lambda x, u, p: (np.zeros(np.shape(u)),),
        )
        g = Field.constant(grid, 1.0)
        with pytest.raises(DivergenceError, match="last stable"):
            solve_hjb(cache, runaway, None, g, 0.0, 0.05, n_steps)

    def test_rough_terminal_warns(self):
        grid = Grid(32, 1.0)
        cache = KernelCache(laplacian_triplet(), grid)
        rng = np.random.default_rng(3)
        g = Field(grid, rng.standard_normal(32))
        with pytest.warns(UserWarning, match="resolved"):
            solve_hjb(cache, zero_hamiltonian(), None, g, 0.0, 0.01, 16)

    def test_smooth_terminal_does_not_warn(self):
        # a few resolved modes leave the Nyquist shell empty to rounding
        grid = Grid(32, 1.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: 0.3 + np.cos(np.pi * x)
                                - 0.2 * np.sin(3.0 * np.pi * x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = solve_hjb(cache, QuadraticHamiltonian(), None, g, 0.0, 0.01,
                          16)
        assert np.array_equal(u.values[-1], g.values)

    def test_source_mesh_mismatch_rejected(self):
        src = zero_trajectory(self.grid, 0.0, 0.1, 32)
        with pytest.raises(ValueError, match="time slab"):
            solve_hjb(self.cache, zero_hamiltonian(), src, self.g,
                      0.0, 0.1, 64)

    @pytest.mark.parametrize("T, n_steps, message", [
        (0.0, 64, "need T > t0"), (-0.1, 64, "need T > t0"),
        (0.1, 0, "need at least one step")],
        ids=["T-at-t0", "T-before-t0", "no-steps"])
    def test_slab_and_step_count_rejected(self, T, n_steps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_hjb(self.cache, zero_hamiltonian(), None, self.g,
                      0.0, T, n_steps)

    def test_terminal_grid_mismatch_rejected(self):
        other = Field.constant(Grid(64, 8.0), 0.0)
        with pytest.raises(GridMismatchError):
            solve_hjb(self.cache, zero_hamiltonian(), None, other,
                      0.0, 0.1, 64)

    def test_source_grid_mismatch_rejected(self):
        src = zero_trajectory(Grid(64, 8.0), 0.0, 0.1, 64)
        with pytest.raises(GridMismatchError,
                           match="^source grid != kernel grid$"):
            solve_hjb(self.cache, zero_hamiltonian(), src, self.g,
                      0.0, 0.1, 64)

    @pytest.mark.parametrize("n_steps", [64.0, "64"], ids=["float", "str"])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(TypeError, match=f"^n_steps must be an integer, "
                                            f"got {n_steps!r}$"):
            solve_hjb(self.cache, zero_hamiltonian(), None, self.g,
                      0.0, 0.1, n_steps)

    def test_numpy_integer_step_count_solves_as_int(self):
        ham = zero_hamiltonian()
        got = solve_hjb(self.cache, ham, None, self.g, 0.0, 0.1, np.int64(64))
        want = solve_hjb(self.cache, ham, None, self.g, 0.0, 0.1, 64)
        assert np.array_equal(got.values, want.values)

    @given(c=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_constant_source_exact_for_any_level(self, c):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: np.exp(-4.0 * x**2))
        T, n_steps = 0.02, 16
        src = constant_trajectory(Field.constant(grid, c), 0.0, T, n_steps)
        u = solve_hjb(cache, zero_hamiltonian(), src, g, 0.0, T, n_steps)
        ref = semigroup_apply(cache, T, g).values + c * T
        assert np.max(np.abs(u.values[0] - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# spectral Picard sweeps


def divergence(grid, vec_values):
    """Spectral divergence of a (..., d, *grid.shape) vector sample."""
    d = grid.dims
    axes = tuple(range(vec_values.ndim - d, vec_values.ndim))
    spec = np.fft.rfftn(vec_values, s=grid.shape, axes=axes)
    spec = np.moveaxis(spec, -1 - d, 0)
    mults = _gradient_multipliers(grid)
    acc = mults[0] * spec[0]
    for i in range(1, d):
        acc = acc + mults[i] * spec[i]
    return np.fft.irfftn(acc, s=grid.shape, axes=tuple(a - 1 for a in axes))


def stepped_march(kernel, start, T, n_steps, sweeps, drive, adjoint=False):
    """The mild march on [0, T] with every step taken through apply_array.

    The integrand N of the march ``drive`` is built in physical space:
    with L the drive's source, read from the gradient of
    ``_batch_gradient``, and with L* the ``divergence`` of its flux, or 0
    when it returns None.  Exponential Euler, then each
    trapezoid sweep one slice at a time:
    w[k+1] = S_dt (w[k] + dt/2 N[k]) + dt/2 N[k+1].
    """
    grid = kernel.grid
    dt = T / n_steps

    def integrand(values, k):
        if not adjoint:
            return drive(values, _batch_gradient(grid, values), k)
        flux = drive(values, (), k)
        return np.zeros(values.shape) if flux is None else divergence(
            grid, flux)

    w = np.empty((n_steps + 1,) + start.shape)
    w[0] = start
    for k in range(n_steps):
        w[k + 1] = kernel.apply_array(dt, w[k] + dt * integrand(w[k], k),
                                      adjoint)
    for _ in range(sweeps):
        n_all = integrand(w, slice(None))
        fresh = np.empty_like(w)
        fresh[0] = start
        for k in range(n_steps):
            fresh[k + 1] = kernel.apply_array(
                dt, fresh[k] + 0.5 * dt * n_all[k], adjoint) \
                + 0.5 * dt * n_all[k + 1]
        w = fresh
    return w


def skewed_triplet(dims):
    # a drift makes L* differ from L, so the adjoint leg is exercised
    return LevyTriplet(dims=dims, drift=[0.3] * dims,
                       jumps=(FractionalLaplacian(1.5),))


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


def backward_case(dims, sweeps):
    """The value march with a source, and its stepped oracle."""
    grid = Grid(64, 2.0) if dims == 1 else Grid(32, 2.0, dims=2)
    cache = KernelCache(skewed_triplet(dims), grid)
    T, n_steps = 0.125, 16
    mesh = grid.meshgrid()
    g = Field(grid, 0.8 * np.exp(-4.0 * sum(x * x for x in mesh)))
    times = np.linspace(0.0, T, n_steps + 1)
    src = Trajectory(grid, 0.0, T, np.stack([
        (1.0 + t) * np.cos(np.pi * mesh[0] / 2.0) for t in times]))
    drive = _value_drive(grid, QuadraticHamiltonian(), src)
    got = _march_backward(cache, g.values, 0.0, T, n_steps, sweeps, drive)
    # the drive reads its source in march order, as _march_backward calls it
    want = stepped_march(cache, g.values, T, n_steps, sweeps, drive)[::-1]
    assert np.array_equal(got[-1], g.values)
    return got, want


def forward_case(sweeps, with_flux):
    """Three densities under a shared drift (and a flux), one march each,
    and the oracle; both stacked with the density axis after time."""
    grid = Grid(32, 2.0)
    cache = KernelCache(skewed_triplet(1), grid)
    T, n_steps = 0.125, 16
    x = grid.axis(0)
    times = np.linspace(0.0, T, n_steps + 1)
    drift = np.stack([[0.5 * np.sin(np.pi * x / 2.0) * (1.0 + t)]
                      for t in times])
    got, want = [], []
    for c in (-0.5, 0.0, 0.4):
        rho0 = np.exp(-8.0 * (x - c) ** 2)
        rho0 /= grid.cell_volume * rho0.sum()
        flux = None
        if with_flux:
            flux = np.stack([[0.2 * (1.0 - t) * np.exp(-4.0 * (x + c) ** 2)]
                             for t in times])
        got.append(_forward_values(cache, drift, flux, rho0, 0.0, T, n_steps,
                                   sweeps))
        assert np.array_equal(got[-1][0], rho0)

        def drive(rho, grads, k, flux=flux):
            vec = drift[k] * np.expand_dims(rho, -2)
            return vec if flux is None else vec + flux[k]

        want.append(stepped_march(cache, rho0, T, n_steps, sweeps, drive,
                                  adjoint=True))
    return np.stack(got, axis=1), np.stack(want, axis=1)


class TestSpectralSweep:
    """The spectral march against the per-step apply_array march."""

    @pytest.mark.parametrize("dims", [1, 2])
    def test_backward_matches_stepped_sweep(self, dims):
        got, want = backward_case(dims, 2)
        # measured: 5.7e-16 (1D), 4.2e-16 (2D); the sweeps move the path
        # by 4e-3 relative, so a wrong recurrence cannot hide under this
        assert relative_gap(got, want) <= 2e-15

    def test_forward_adjoint_leg_with_columns(self):
        got, want = forward_case(2, with_flux=False)
        # measured: 5.9e-16 (the adjoint and plain marches differ by 6e-2)
        assert relative_gap(got, want) <= 2e-15

    @pytest.mark.parametrize("dims", [1, 2])
    def test_backward_first_pass_matches_stepped_march(self, dims):
        got, want = backward_case(dims, 0)
        # measured: 6.2e-16 (1D), 4.5e-16 (2D)
        assert relative_gap(got, want) <= 2e-15

    def test_forward_first_pass_with_columns_drift_and_flux(self):
        got, want = forward_case(0, with_flux=True)
        # measured: 7.0e-16
        assert relative_gap(got, want) <= 2e-15


# a horizon that 8 steps cover within the budget 0.5 * dx^1.5 of a
# skewed_triplet on Grid(256, 2.0), a grid the first pass steps spectrally
SPECTRAL_T = 0.0075


def march_transform_calls(transform_calls, march):
    """Transform calls and inverted rows of ``march(n_steps, sweeps)``.

    Both dicts are keyed by (n_steps, sweeps) for 8 and 16 steps.
    """
    counts, rows = {}, {}
    for n_steps in (8, 16):
        for sweeps in (0, 2):
            transform_calls["n"] = transform_calls["rows"] = 0
            march(n_steps, sweeps)
            counts[n_steps, sweeps] = transform_calls["n"]
            rows[n_steps, sweeps] = transform_calls["rows"]
    return counts, rows


def test_sweep_transform_calls_do_not_grow_with_steps(transform_calls):
    # A first-pass step makes 2 calls: one inverse transform of the
    # carried spectrum gives the slice and its gradient (1 + d rows), one
    # forward transform gives the spectrum of f - H.  Each sweep makes 2
    # calls whatever the step count: one forward transform of the whole
    # stack's integrand and one inverse transform of the new stack.  At
    # n = 256 the first pass steps spectrally.
    grid = Grid(256, 2.0)
    cache = KernelCache(skewed_triplet(1), grid)
    g = np.exp(-4.0 * grid.axis(0) ** 2)
    drive = _value_drive(grid, QuadraticHamiltonian(), None)
    counts, rows = march_transform_calls(transform_calls, lambda n, sweeps: (
        _march_backward(cache, g, 0.0, SPECTRAL_T, n, sweeps, drive)))
    assert rows[16, 0] - rows[8, 0] == 8 * (1 + grid.dims)
    assert counts[16, 2] - counts[8, 2] == 8 * 2
    assert counts[8, 2] - counts[8, 0] == 2 * 2
    assert counts[16, 2] - counts[16, 0] == 2 * 2


def test_forward_transform_calls_do_not_grow_with_steps(transform_calls):
    # With a drift and a flux the forward drive still only forms the
    # vector b rho + c: its divergence costs no transform of its own, and
    # as it reads no gradient a first-pass step inverts the values only.
    grid = Grid(256, 2.0)
    cache = KernelCache(skewed_triplet(1), grid)
    x = grid.axis(0)
    rho0 = np.exp(-4.0 * x ** 2)
    rho0 /= grid.cell_volume * rho0.sum()

    def march(n_steps, sweeps):
        drift = np.broadcast_to(0.5 * np.sin(np.pi * x / 2.0),
                                (n_steps + 1, 1) + grid.shape)
        flux = np.broadcast_to(0.2 * np.exp(-4.0 * x ** 2),
                               (n_steps + 1, 1) + grid.shape)
        _forward_values(cache, drift, flux, rho0, 0.0, SPECTRAL_T, n_steps,
                        sweeps)

    counts, rows = march_transform_calls(transform_calls, march)
    assert rows[16, 0] - rows[8, 0] == 8 * 1
    assert counts[16, 2] - counts[8, 2] == 8 * 2
    assert counts[8, 2] - counts[8, 0] == 2 * 2
    assert counts[16, 2] - counts[16, 0] == 2 * 2


def test_dense_step_makes_no_transform_call(transform_calls):
    # At n = 32 the first pass steps with the memoized dense operator: once
    # it is built, a step makes no transform call, and a sweep still makes
    # 2.  A march with a memoized (dt, adjoint) key reuses its
    # operator, and the memo holds at most its cap.
    grid = Grid(32, 2.0)
    cache = KernelCache(skewed_triplet(1), grid)
    g = np.exp(-4.0 * grid.axis(0) ** 2)
    drive = _value_drive(grid, QuadraticHamiltonian(), None)

    def march(n_steps, sweeps):
        _march_backward(cache, g, 0.0, 0.125, n_steps, sweeps, drive)

    for n_steps in (8, 16):
        march(n_steps, 0)
    built = dict(cache._steps)
    assert len(built) == 2
    counts, rows = march_transform_calls(transform_calls, march)
    assert all(cache._steps[key] is op for key, op in built.items())
    assert counts[16, 0] == counts[8, 0]
    assert rows[16, 0] == rows[8, 0]
    assert counts[8, 2] - counts[8, 0] == 2 * 2
    assert counts[16, 2] - counts[16, 0] == 2 * 2
    for n_steps in range(17, 17 + kernels._STEP_MEMO_LIMIT):
        march(n_steps, 0)
        assert len(cache._steps) <= kernels._STEP_MEMO_LIMIT
    assert len(cache._steps) == kernels._STEP_MEMO_LIMIT


def dense_case_march(monkeypatch, dense, kernel, form, adjoint, start):
    """``_mild_march`` with its first pass forced dense or spectral.

    ``form`` picks the drive of ``dense_case_drive``: "source" with L (the
    HJB shape), "flux" or "free" with L* (the FP shape, and the free flow).
    """
    monkeypatch.setattr(hjb, "_DENSE_STEP_NODES",
                        1 << 62 if dense else 0)
    grid = kernel.grid
    n_steps = 8
    T = n_steps * step_budget(1.5, grid)
    return _mild_march(kernel, start, 0.0, T, n_steps, 2,
                       dense_case_drive(grid, form),
                       lambda values: None, adjoint)


def dense_case_drive(grid, form):
    """A drive of ``form``: "source" reads the gradient and returns a
    source (an L drive), "flux" reads the values and returns a flux, and
    "free" returns None (both L* drives)."""
    mesh = grid.meshgrid()
    d = grid.dims
    bump = np.cos(np.pi * mesh[0] / 2.0)
    wind = np.stack([0.5 * np.sin(np.pi * x / 2.0) for x in mesh])

    def drive(values, grads, k):
        if form == "source":
            return 0.5 * bump - sum(gi * gi for gi in grads)
        if form == "flux":
            return wind * np.expand_dims(values, -1 - d)
        return None

    return drive


def dense_case_start(grid, r):
    mesh = grid.meshgrid()
    return (np.exp(np.cos(np.pi * (mesh[0] - 0.3 * r) / 2.0))
            * (1.0 + 0.1 * r))


DENSE_GRIDS = [Grid(64, 2.0), Grid(8, 2.0, dims=2)]


@pytest.mark.parametrize("grid", DENSE_GRIDS, ids=["1d64", "2d8x8"])
@pytest.mark.parametrize("adjoint, form", [
    (False, "source"), (True, "flux"), (True, "free")])
@pytest.mark.parametrize("generator", ["frac", "skewed"])
def test_dense_and_spectral_steps_agree(monkeypatch, grid, adjoint, form,
                                        generator):
    kernel = KernelCache(
        skewed_triplet(grid.dims) if generator == "skewed" else
        LevyTriplet(dims=grid.dims, jumps=FractionalLaplacian(1.5)), grid)
    got, want = [], []
    for r in range(5):
        start = dense_case_start(grid, r)
        got.append(dense_case_march(monkeypatch, True, kernel, form,
                                    adjoint, start))
        want.append(dense_case_march(monkeypatch, False, kernel, form,
                                     adjoint, start))
    got, want = np.stack(got, axis=1), np.stack(want, axis=1)
    assert got.shape == want.shape == (9, 5) + grid.shape
    # measured: at most 7.6e-16 relative over the 12 cases (1D skewed, free
    # flow); with a drive the two sweeps move the path by 5e-4 to 0.15
    # relative, and the free flow is the step operator alone, so a wrong
    # step operator cannot hide under this bound
    assert relative_gap(got, want) <= 2e-15


@pytest.mark.parametrize("case", ["1d64-source", "2d8x8-source",
                                  "1d64-flux", "2d8x8-flux",
                                  "1d64-free", "2d8x8-free"])
def test_dense_first_pass_matches_stacked_matmul_bitwise(case):
    # the flattened operator and the contiguous semigroup block give the
    # stacked matmul of each step bit for bit: a source drive reading the
    # gradient rows (the HJB shape, with L; two partials in 2D), a flux
    # drive (the FP shape, with L*), a 2D flux of two components, and the
    # L* free flow
    grid = Grid(64, 2.0) if case.startswith("1d") else Grid(8, 2.0, dims=2)
    form = case.split("-")[1]
    adjoint = form != "source"
    kernel = KernelCache(skewed_triplet(grid.dims), grid)
    drive = dense_case_drive(grid, form)
    n_steps = 8
    stack = np.zeros((1 if adjoint else 1 + grid.dims, n_steps + 1)
                     + grid.shape)
    stack[0, 0] = dense_case_start(grid, 1)
    if not adjoint:
        stack[1:, 0] = _batch_gradient(grid, stack[0, 0])
    want = stack.copy()
    dt = step_budget(1.5, grid)
    hjb._dense_first_pass(kernel, stack, dt, drive, adjoint)
    stacked_dense_first_pass(kernel, want, dt, drive, adjoint)
    assert np.all(np.isfinite(want)) and np.ptp(want[0, -1]) > 0.0
    assert np.array_equal(stack, want)


@pytest.mark.parametrize("grid", DENSE_GRIDS, ids=["1d64", "2d8x8"])
def test_step_operator_shape_follows_the_direction(grid):
    # L maps w + dt s to the values and d partials; L* maps the rows
    # (w, dt c_1, ..., dt c_d) to the values; each is memoized on (dt, L*)
    kernel = KernelCache(skewed_triplet(grid.dims), grid)
    size, d = grid.node_count, grid.dims
    dt = step_budget(1.5, grid)
    forward = kernel.step_operator(dt, False)
    adjoint = kernel.step_operator(dt, True)
    assert forward.shape == (1 + d, size, size)
    assert adjoint.shape == (1, size, (1 + d) * size)
    assert kernel.step_operator(dt, False) is forward
    assert kernel.step_operator(dt, True) is adjoint
    assert set(kernel._steps) == {(dt, False), (dt, True)}
    assert not forward.flags.writeable and not adjoint.flags.writeable


@pytest.mark.parametrize("grid", DENSE_GRIDS + [Grid((8, 16), (2.0, 2.0))],
                         ids=["1d64", "2d8x8", "2d8x16"])
@pytest.mark.parametrize("generator", ["frac", "skewed"])
def test_step_operators_are_transposes_of_each_other(grid, generator):
    # Under the plain node sum S*_t is the transpose of S_t and div the
    # negative transpose of the gradient, so the L* operator's value block
    # is S_t^T and its block for c_i is -(d_i S_t)^T: the two directions'
    # operators, built apart, must agree.  The skewed generator is not
    # symmetric (S_t and S_t^T differ by 5% to 16%), and a flux block of
    # the wrong sign is off by 2.  The 8x16 grid has unequal axes and steps,
    # so a mixed-up axis order shows too.
    kernel = KernelCache(
        skewed_triplet(grid.dims) if generator == "skewed" else
        LevyTriplet(dims=grid.dims, jumps=FractionalLaplacian(1.5)), grid)
    size, d = grid.node_count, grid.dims
    dt = step_budget(1.5, grid)
    forward = kernel.step_operator(dt, False)
    blocks = kernel.step_operator(dt, True)[0].reshape(size, 1 + d, size)
    for row in range(1 + d):
        want = forward[row].T if row == 0 else -forward[row].T
        # measured: at most 3.3e-16 relative over the 6 cases (2D skewed,
        # the y flux block)
        assert relative_gap(blocks[:, row], want) <= 2e-15


@pytest.mark.parametrize("case", ["1d64", "1d64-batch", "2d8x16"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_sweep_spectra_match_allocating_recurrence_bitwise(case, adjoint):
    # the three ufunc calls into preallocated rows are the allocating
    # recurrence bit for bit, on the half spectra of a 1D slice, a batch
    # of 1D slices and a 2D slice, with L and with its adjoint
    grid = Grid(64, 2.0) if case.startswith("1d") else Grid(
        (8, 16), (2.0, 2.0))
    lead = (3,) if case.endswith("batch") else ()
    mult = KernelCache(skewed_triplet(grid.dims), grid).multiplier(
        step_budget(1.5, grid), adjoint)
    rng = np.random.default_rng(7)
    shape = lead + mult.shape

    def spectra(*lead_axes):
        return (rng.standard_normal(lead_axes + shape)
                + 1j * rng.standard_normal(lead_axes + shape))

    n_hat, spec0 = spectra(9), spectra()
    want = allocating_sweep_spectra(mult, n_hat, spec0)
    start = spec0.copy()
    got = hjb._sweep_spectra(mult, n_hat.copy(), spec0)
    assert np.array_equal(spec0, start)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_check_vets_each_pass_stack_once():
    # The first pass and each sweep hand their whole stack over at once.
    grid = Grid(32, 2.0)
    cache = KernelCache(skewed_triplet(1), grid)
    g = np.exp(-4.0 * grid.axis(0) ** 2)
    drive = _value_drive(grid, QuadraticHamiltonian(), None)
    seen = []

    def check(values):
        seen.append(values.copy())

    w = _mild_march(cache, g, 0.0, 0.125, 8, 2, drive, check)
    assert [len(v) for v in seen] == [8, 8, 8]
    assert np.array_equal(seen[-1], w[1:])


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "spectral"])
def test_first_pass_blowup_names_its_first_bad_slice(monkeypatch, dense):
    # The integrand spikes at march index 2 on the first pass only, so
    # slice 3 and every later one fail; the stack is vetted after the
    # pass has run on, and the guard still names slice 3.
    monkeypatch.setattr(hjb, "_DENSE_STEP_NODES", 1 << 62 if dense else 0)
    grid = Grid(32, 1.0)
    cache = KernelCache(laplacian_triplet(), grid)
    n_steps, T = 8, 0.01
    dt = T / n_steps

    def drive(values, grads, k):
        out = np.zeros(values.shape)
        if k == 2:
            out[...] = 1e10
        return out

    g = np.zeros(grid.shape)
    with pytest.raises(DivergenceError, match=(
            f"at t={T - 3 * dt:.6g}; last stable physical slice index 6 ")):
        _march_backward(cache, g, 0.0, T, n_steps, 0, drive)


def test_sweep_blowup_names_its_first_bad_slice():
    # Only a sweep sees the spike the integrand puts on march slice 3, and
    # slices 3..8 of its stack all fail: the guard names slice 3.
    grid = Grid(32, 1.0)
    cache = KernelCache(laplacian_triplet(), grid)
    n_steps, T = 8, 0.01
    dt = T / n_steps

    def drive(values, grads, k):
        out = np.zeros(values.shape)
        if isinstance(k, slice):
            out[3] = 1e10
        return out

    g = np.zeros(grid.shape)
    _march_backward(cache, g, 0.0, T, n_steps, 0, drive)
    with pytest.raises(DivergenceError, match=(
            f"at t={T - 3 * dt:.6g}; last stable physical slice index 6 ")):
        _march_backward(cache, g, 0.0, T, n_steps, 1, drive)


def test_sweep_instability_names_its_first_bad_slice():
    # A sweep adds dt/2 of the raw flux divergence to the flux's own slice;
    # the first pass adds dt of it to the next slice after S*_dt, which
    # damps this near-Nyquist mode about 40-fold.  So only the sweep
    # passes the 1e6 sup-norm, on slice 3 of its 8, and is named there.
    grid = Grid(32, 1.0)
    cache = KernelCache(laplacian_triplet(), grid)
    n_steps = 8
    T = n_steps * step_budget(2.0, grid)
    flux = np.zeros((n_steps + 1, 1) + grid.shape)
    flux[3, 0] = 1e8 * np.sin(15 * np.pi * grid.axis(0))
    rho0 = np.full(grid.shape, 0.5)
    _forward_values(cache, None, flux, rho0, 0.0, T, n_steps, 0)
    with pytest.raises(InstabilityError, match="at step 3/8 "):
        _forward_values(cache, None, flux, rho0, 0.0, T, n_steps, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["terminal", "hamiltonian"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "spectral"])
def test_nonfinite_slice_raises_from_the_backward_march(monkeypatch, bad,
                                                        where, dense):
    # ``solve_hjb`` wraps its march output without a finite scan: the
    # march's guard rejects a non-finite slice, one from the terminal data
    # (slice 0, which spreads to slice 1) or from the Hamiltonian alike
    monkeypatch.setattr(hjb, "_DENSE_STEP_NODES", 1 << 62 if dense else 0)
    grid = Grid(32, 1.0)
    cache = KernelCache(laplacian_triplet(), grid)
    g = np.zeros(grid.shape)
    ham = QuadraticHamiltonian()
    if where == "terminal":
        g[5] = bad
    else:
        ham = GeneralHamiltonian(
            h=lambda x, u, p: np.full(np.shape(u), bad),
            grad=lambda x, u, p: (np.zeros(np.shape(u)),))
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError, match="blew up"):
        solve_hjb(cache, ham, None, Field(grid, g), 0.0, 0.01, 8)


# ---------------------------------------------------------------------------
# smoothness diagnostics


class TestGradientBounds:
    def test_constant_terminal_is_flat(self):
        grid = Grid(64, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        u = solve_hjb(cache, QuadraticHamiltonian(), None,
                      Field.constant(grid, 0.7), 0.0, 0.02, 16)
        rep = gradient_bound_report(u)
        assert float(np.max(rep.sup_du)) <= 1e-13
        assert rep.sup_C1 == pytest.approx(0.7, abs=1e-12)

    def test_heat_flow_gradient_monotone_backward(self):
        grid = Grid(128, 4.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: np.exp(-2.0 * x**2))
        u = solve_hjb(cache, zero_hamiltonian(), None, g, 0.0, 0.1, 64)
        rep = gradient_bound_report(u)
        # earlier physical slices have flowed longer: gradients only shrink
        assert np.all(rep.sup_du[:-1] <= rep.sup_du[1:] + 1e-12)

    def test_sup_c1_stable_under_time_refinement(self):
        grid = Grid(128, 2.0)
        cache = KernelCache(laplacian_triplet(), grid)
        g = Field.from_function(grid, lambda x: 0.8 * np.exp(-4.0 * x**2))
        vals = []
        for n_steps in (128, 256):
            u = solve_hjb(cache, QuadraticHamiltonian(), None, g,
                          0.0, 0.05, n_steps)
            vals.append(gradient_bound_report(u).sup_C1)
        assert abs(vals[0] - vals[1]) <= 0.01 * vals[1]

    def test_vector_trajectory_rejected(self):
        tr = zero_trajectory(Grid(32, 1.0), 0.0, 1.0, 4, vector=True)
        with pytest.raises(ValueError, match="^gradient bounds are for "
                                             "scalar trajectories$"):
            gradient_bound_report(tr)

    def test_report_shape_and_dict(self):
        grid = Grid(32, 1.0)
        tr = zero_trajectory(grid, 0.0, 1.0, 4)
        rep = gradient_bound_report(tr)
        assert isinstance(rep, GradientBoundReport)
        assert rep.sup_u.shape == (5,)
        d = rep.to_dict()
        assert set(d) == {"times", "sup_u", "sup_du", "sup_d2u", "sup_d3u",
                          "sup_C1"}
        assert d["sup_C1"] == 0.0

    def test_2d_report_orders(self):
        grid = Grid(32, 2.0, dims=2)
        f = Field.from_function(
            grid, lambda x, y: np.sin(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0))
        tr = Trajectory(grid, 0.0, 1.0, np.stack([f.values, f.values]))
        rep = gradient_bound_report(tr)
        k = np.pi / 2.0
        assert rep.sup_u[0] == pytest.approx(1.0, abs=1e-6)
        # mixed second derivative peaks at k^2 on the diagonal nodes
        assert rep.sup_d2u[0] == pytest.approx(k**2, rel=1e-6)
        assert rep.sup_d3u[0] == pytest.approx(k**3, rel=1e-6)
