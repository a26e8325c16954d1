"""Forward divergence-form transport-diffusion solver with the adjoint kernel.

The equation marched here is

    d(rho)/dt = L* rho + div(b rho + c),    rho(t0) = rho0,

for the adjoint L* of the generator held by a KernelCache, a vector drift b
and an optional vector source c.  One step of ``_march_forward`` smooths
both the state and the flux with the adjoint kernel and adds the spectral
divergence of the flux:

    rho_{k+1} = S*_dt rho_k + dt * div( S*_dt (b_k rho_k + c_k) ).

``solve_fp`` runs this first-order march alone; the forward leg of the
linearized system adds whole-interval trapezoid Picard sweeps to it.  The
divergence carries no mean, so total mass is conserved for every input;
negative undershoots are reported but never clipped inside the march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import GridMismatchError, InstabilityError, QuadratureError
from .grid import Field, Grid, _divergence, gradient
from .hjb import Trajectory, _check_operand, _check_step
from .kernels import KernelCache
from .levy import _jump_densities
from .measures import Measure, TightnessFn

_MASS_DRIFT_TOL = 1e-6
_BLOWUP_SUP = 1e6
_RENORM_BUDGET = 1e-8


# --------------------------------------------------------------------------
# solver


def _march_forward(kernel: KernelCache, drift: Trajectory | None,
                   flux: Trajectory | None, rho0: Field, t0: float, T: float,
                   n_steps: int, picard_sweeps: int) -> Trajectory:
    """March d(rho)/dt = L* rho + div(b rho + c) from rho(t0) = rho0.

    ``drift`` b and ``flux`` c are vector trajectories on the slab (None
    means zero).  The first pass is the one-step divergence-form march;
    each Picard sweep then rebuilds the path with the flux divergence of
    the previous pass under the composite trapezoid.  With neither drift
    nor flux the first pass is the adjoint semigroup itself, exact in time,
    and no sweep runs.  Raises InstabilityError when the running mass
    drifts past 1e-6, a slice stops being finite, or its sup-norm passes
    1e6 (all symptoms of an oversized step).
    """
    grid = kernel.grid
    dt = (T - t0) / n_steps
    _check_step(kernel, dt, T - t0)
    vol = grid.cell_volume
    mass0 = vol * float(np.sum(rho0.values))
    scale = max(1.0, abs(mass0))

    def monitor(values: np.ndarray, k: int) -> None:
        sup = float(np.max(np.abs(values)))
        mass = vol * float(np.sum(values))
        if not np.isfinite(sup) or sup > _BLOWUP_SUP or \
                not np.isfinite(mass) or abs(mass - mass0) > _MASS_DRIFT_TOL * scale:
            raise InstabilityError(
                f"forward march destabilized at step {k}/{n_steps} "
                f"(sup {sup:.3e}, mass drift {mass - mass0:.3e}); "
                "use a smaller dt")

    def total_flux(k, rho: np.ndarray) -> np.ndarray | None:
        """b rho + c at slice k (an index, or slice(None) for every slice)."""
        out = None
        if drift is not None:
            out = drift.values[k] * np.expand_dims(rho, -1 - grid.dims)
        if flux is not None:
            out = flux.values[k] if out is None else out + flux.values[k]
        return out

    w = np.empty((n_steps + 1,) + grid.shape)
    w[0] = rho0.values
    for k in range(n_steps):
        vec = total_flux(k, w[k])
        if vec is None:
            w[k + 1] = kernel.apply_array(dt, w[k], adjoint=True)
        else:
            stack = np.concatenate([w[k][None], vec], axis=0)
            smooth = kernel.apply_array(dt, stack, adjoint=True)
            w[k + 1] = smooth[0] + dt * _divergence(grid, smooth[1:])
        monitor(w[k + 1], k + 1)

    half = 0.5 * dt
    for _ in range(picard_sweeps):
        vec_all = total_flux(slice(None), w)
        if vec_all is None:
            break
        h_all = _divergence(grid, vec_all)
        fresh = np.empty_like(w)
        fresh[0] = rho0.values
        for k in range(n_steps):
            propagated = kernel.apply_array(
                dt, fresh[k] + half * h_all[k], adjoint=True)
            fresh[k + 1] = propagated + half * h_all[k + 1]
            monitor(fresh[k + 1], k + 1)
        w = fresh

    return Trajectory(grid, t0, T, w)


def solve_fp(kernel: KernelCache, drift: Trajectory | None, rho0: Field,
             source: Trajectory | None, t0: float, T: float,
             n_steps: int) -> Trajectory:
    """March the forward equation; returns the scalar density trajectory.

    Runs the first-order pass of ``_march_forward``.  Probability inputs
    with zero source keep unit mass to 1e-10 and stay above -1e-7 of their
    peak.  Raises InstabilityError when the running mass drifts past 1e-6,
    a slice stops being finite, or its sup-norm passes 1e6 (all symptoms
    of an oversized step).
    """
    grid = kernel.grid
    if rho0.grid != grid:
        raise GridMismatchError("initial data grid != kernel grid")
    if not T > t0:
        raise ValueError("need T > t0")
    if n_steps < 1:
        raise ValueError("need at least one step")
    for name, tr in (("drift", drift), ("source", source)):
        if tr is not None:
            _check_operand(name, tr, grid, t0, T, n_steps, vector=True)
    return _march_forward(kernel, drift, source, rho0, t0, T, n_steps, 0)


def mass_series(rho: Trajectory) -> np.ndarray:
    """Grid mass of every slice (scalar trajectories only)."""
    if rho.is_vector:
        raise ValueError("mass series is for scalar trajectories")
    axes = tuple(range(1, 1 + rho.grid.dims))
    return rho.grid.cell_volume * np.sum(rho.values, axis=axes)


def _project_slices(grid: Grid, values: np.ndarray,
                    budget: float = _RENORM_BUDGET, first: int = 0
                    ) -> tuple[np.ndarray, float, float]:
    """Clamp each slice to a probability density; returns defects too.

    Negative undershoot is clipped, each slice renormalized to unit mass,
    and a clamp that moves more than ``budget`` mass rejects the path as
    corrupted; the message numbers the slices from ``first``.  Returns the
    projected slices, the worst defect and the deepest clipped value.
    """
    clipped = np.maximum(values, 0.0)
    neg_clip = max(0.0, -float(np.min(values)))
    masses = grid.cell_volume * clipped.reshape(clipped.shape[0], -1).sum(axis=1)
    defects = np.abs(masses - 1.0)
    worst = int(np.argmax(defects))
    if defects[worst] > budget:
        raise InstabilityError(
            f"slice {first + worst} clamps to mass {float(masses[worst])!r}; "
            f"renormalization defect {defects[worst]:.3e} exceeds the "
            f"{budget:g} budget")
    shape = (values.shape[0],) + (1,) * grid.dims
    return clipped / masses.reshape(shape), float(defects[worst]), neg_clip


def slice_measure(rho: Trajectory, k: int,
                  budget: float = _RENORM_BUDGET) -> tuple[Measure, float]:
    """Clamp one slice to a probability measure; returns (measure, defect).

    The defect records how much mass the clamp-and-renormalize step moved;
    it must stay within ``budget`` or the slice is rejected as corrupted.
    """
    vals, defect, _ = _project_slices(rho.grid, rho.values[k][None], budget,
                                      first=k)
    return Measure.from_values(rho.grid, vals[0]), defect


# --------------------------------------------------------------------------
# distributional identity


def weak_residual(kernel: KernelCache, rho: Trajectory,
                  drift: Trajectory | None, source: Trajectory | None,
                  phi: Field, t: float) -> float:
    """Defect of the time-integrated pairing identity against a static phi.

    Computes | <phi, rho(t)> - <phi, rho(t0)>
              - int_{t0}^t [ <L phi, rho> - <D phi, b rho + c> ] ds |
    with trapezoidal time quadrature; the exact solution makes it vanish,
    the march leaves O(dt + dx^2).
    """
    if rho.is_vector:
        raise ValueError("weak residual needs a scalar trajectory")
    grid = rho.grid
    if phi.grid != grid:
        raise GridMismatchError("test function grid != trajectory grid")
    k_end = rho.index_of(t)
    if k_end == 0:
        return 0.0
    lphi = kernel.apply_generator(phi.values)
    dphi = [g.values for g in gradient(phi)]
    vol = grid.cell_volume
    axes = tuple(range(1, 1 + grid.dims))

    hist = rho.values[: k_end + 1]
    pair = vol * np.sum(lphi * hist, axis=axes)
    for i in range(grid.dims):
        adv = np.zeros_like(pair)
        if drift is not None:
            adv = adv + vol * np.sum(
                dphi[i] * drift.values[: k_end + 1, i] * hist, axis=axes)
        if source is not None:
            adv = adv + vol * np.sum(
                dphi[i] * source.values[: k_end + 1, i], axis=axes)
        pair = pair - adv
    integral = float(np.trapezoid(pair, dx=rho.dt))
    lhs = vol * float(np.sum(phi.values * (hist[k_end] - hist[0])))
    return abs(lhs - integral)


# --------------------------------------------------------------------------
# tightness along the flow


@dataclass(frozen=True)
class TightnessSeriesReport:
    """Tightness-weight moments along a trajectory vs. an affine budget.

    ``slope_budget`` bounds d/dt of the moment through the generator and
    drift magnitudes; ``excess`` is the worst overshoot of slice moments
    above the line  series[0] + slope_budget * (t - t0).
    """

    times: np.ndarray
    series: np.ndarray
    slope_budget: float
    excess: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "times": [float(v) for v in self.times],
            "series": [float(v) for v in self.series],
            "slope_budget": self.slope_budget,
            "excess": self.excess,
            "pass": self.passed,
        }


def small_jump_second_moment(triplet) -> float:
    """Quadrature of |z|^2 over |z| <= 1 against each jump density.

    Symbol-only stable families fall back to the unnormalized density
    |z|^{-1-alpha}, which overestimates the true constant and keeps the
    resulting budgets on the safe side.
    """
    total = 0.0
    for dens in _jump_densities(triplet):
        val, err = quad(
            lambda z: z * z * dens(z),
            0.0, 1.0, epsabs=1e-10, epsrel=1e-8, limit=200)
        if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(
                "small-jump second moment failed to converge")
        total += val
    return total


def tightness_report(rho: Trajectory, psi: TightnessFn, nu_tail: float,
                     *, triplet=None, drift_sup: float = 0.0,
                     tol: float = 1e-9) -> TightnessSeriesReport:
    """Moment series t -> int psi d(rho(t)) with an affine growth budget.

    ``nu_tail`` is the caller's allowance for the big jumps (the psi tail
    moment plus subadditivity slack times the tail mass); the drift,
    diffusion and small-jump pieces are assembled from ``triplet`` and
    ``drift_sup``.  The flagged bound is

        series(t) <= series(t0) + slope_budget * (t - t0) + tol.
    """
    if rho.is_vector:
        raise ValueError("tightness series needs a scalar trajectory")
    if psi.psi.grid != rho.grid:
        raise GridMismatchError("tightness weight sampled on another grid")
    axes = tuple(range(1, 1 + rho.grid.dims))
    series = rho.grid.cell_volume * np.sum(psi.psi.values * rho.values,
                                           axis=axes)
    slope = psi.grad_bound * drift_sup + float(nu_tail)
    if triplet is not None:
        B = triplet.drift_vector
        A = triplet.diffusion_matrix
        slope += psi.grad_bound * float(np.linalg.norm(B))
        slope += psi.hess_bound * triplet.dims * float(
            np.linalg.norm(A, ord=2))
        slope += 0.5 * psi.hess_bound * small_jump_second_moment(triplet)
    times = rho.times
    line = series[0] + slope * (times - times[0])
    excess = float(np.max(series - line))
    return TightnessSeriesReport(
        times=times, series=series, slope_budget=float(slope),
        excess=excess, passed=bool(excess <= tol))
