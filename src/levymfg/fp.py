"""Forward divergence-form transport-diffusion solver with the adjoint kernel.

The equation marched here is

    d(rho)/dt = L* rho + div(b rho + c),    rho(t0) = rho0,

for the adjoint L* of the generator held by a KernelCache, a vector drift b
and an optional vector source c.  ``_forward_values`` runs the mild march
of the ``hjb`` module with the adjoint kernel, and the adjoint fixes the
shape of its Duhamel integrand: a divergence div(b rho + c).  Its drive
forms the flux b rho + c from the values alone, and the march takes the
divergence inside the transform pair of its step, so no gradient is
transformed and each inverse transform carries the values row alone.
One exponential-Euler step reads

    rho_{k+1} = S*_dt ( rho_k + dt * div(b_k rho_k + c_k) ),

the step the backward march takes with a source in place of the
divergence.  ``solve_fp`` runs this
first-order pass alone; the forward leg of the linearized system adds the
march's whole-interval trapezoid Picard sweeps, each one recurrence on the
Fourier coefficients of the whole path (see ``hjb._mild_march``).  The
divergence carries no mean and S*_dt keeps the mean, so total mass is
conserved for every input; negative undershoots are reported but never
clipped inside the march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InstabilityError
from .grid import Field, Grid, _Record, _check_integer, gradient
from .hjb import _BLOWUP_SUP, Trajectory, _check_operand, _mild_march
from .kernels import KernelCache
from .levy import _jump_integral
from .measures import TightnessFn

_MASS_DRIFT_TOL = 1e-6
_RENORM_BUDGET = 1e-8
_TIGHTNESS_TOL = 1e-9


# --------------------------------------------------------------------------
# solver


def _forward_values(kernel: KernelCache, drift: np.ndarray | None,
                    flux: np.ndarray | None, rho0: np.ndarray, t0: float,
                    T: float, n_steps: int, picard_sweeps: int
                    ) -> np.ndarray:
    """March d(rho)/dt = L* rho + div(b rho + c) from rho(t0) = rho0.

    Works on raw values, time axis first: ``rho0`` is one density, the
    drift b and the flux c have shape (n_steps+1, d, *grid), and None
    means zero for either.  Runs ``hjb._mild_march`` with the adjoint
    kernel and a drive that reads the values only (no gradient is
    transformed) and returns the flux b rho + c, so the integrand is
    div(b rho + c), taken spectrally by the march; with neither drift nor
    flux the drive returns None and the march is the adjoint semigroup
    itself.  Raises
    InstabilityError when the running mass drifts past 1e-6, a slice
    stops being finite, or its sup-norm passes 1e6 (all symptoms of an
    oversized step).
    """
    grid = kernel.grid
    vol = grid.cell_volume
    axes = tuple(range(-grid.dims, 0))
    # insert the vector component axis of a flux before the grid axes
    component = (Ellipsis, None) + (slice(None),) * grid.dims
    mass0 = vol * np.sum(rho0)
    limit = _MASS_DRIFT_TOL * max(1.0, abs(mass0))

    def monitor(values: np.ndarray) -> None:
        """Raise for the first slice that blew up or drifted in mass."""
        shift = vol * values.sum(axis=axes) - mass0
        steady = abs(shift) <= limit
        if np.abs(values).max() <= _BLOWUP_SUP and steady.all():
            return
        sups = np.abs(values).reshape(len(values), -1).max(axis=1)
        j = int(np.argmax(~((sups <= _BLOWUP_SUP) & steady)))
        raise InstabilityError(
            f"forward march destabilized at step {1 + j}/{n_steps} "
            f"(sup {float(sups[j]):.3e}, mass drift {shift[j]:.3e}); "
            "use a smaller dt")

    def drive(rho: np.ndarray, grads: tuple, k) -> np.ndarray | None:
        """The flux b rho + c at slice k (or slice(None)), None for zero."""
        vec = None
        if drift is not None:
            vec = drift[k] * rho[component]
        if flux is not None:
            vec = flux[k] if vec is None else vec + flux[k]
        return vec

    return _mild_march(kernel, rho0, t0, T, n_steps, picard_sweeps, drive,
                       monitor, adjoint=True)


def solve_fp(kernel: KernelCache, drift: Trajectory | None, rho0: Field,
             source: Trajectory | None, t0: float, T: float,
             n_steps: int) -> Trajectory:
    """March the forward equation; returns the scalar density trajectory.

    Runs the exponential-Euler pass of ``_forward_values`` alone, the
    one-step march rho_{k+1} = S*_dt (rho_k + dt div(b_k rho_k + c_k)).
    Probability inputs with zero source keep unit mass to 1e-10 and stay
    above -1e-7 of their peak.  Raises InstabilityError when the running
    mass drifts past 1e-6, a slice stops being finite, or its sup-norm
    passes 1e6 (all symptoms of an oversized step).
    """
    grid = kernel.grid
    if rho0.grid != grid:
        raise GridMismatchError("initial data grid != kernel grid")
    if not T > t0:
        raise ValueError("need T > t0")
    _check_integer("n_steps", n_steps)
    if n_steps < 1:
        raise ValueError("need at least one step")
    for name, tr in (("drift", drift), ("source", source)):
        if tr is not None:
            _check_operand(name, tr, grid, t0, T, n_steps, vector=True)
    return Trajectory(grid, t0, T, _forward_values(
        kernel, None if drift is None else drift.values,
        None if source is None else source.values, rho0.values, t0, T,
        n_steps, 0))


def mass_series(rho: Trajectory) -> np.ndarray:
    """Grid mass of every slice (scalar trajectories only)."""
    if rho.is_vector:
        raise ValueError("mass series is for scalar trajectories")
    axes = tuple(range(1, 1 + rho.grid.dims))
    return rho.grid.cell_volume * np.sum(rho.values, axis=axes)


def _project_slices(grid: Grid, values: np.ndarray
                    ) -> tuple[np.ndarray, float, float]:
    """Clamp each slice to a probability density; returns defects too.

    Negative undershoot is clipped, each slice renormalized to unit mass,
    and a clamp that moves more than 1e-8 mass rejects the path as
    corrupted.  Returns the projected slices, the worst defect and the
    deepest clipped value.
    """
    clipped = np.maximum(values, 0.0)
    neg_clip = max(0.0, -float(np.min(values)))
    masses = grid.cell_volume * clipped.reshape(clipped.shape[0], -1).sum(axis=1)
    defects = np.abs(masses - 1.0)
    worst = int(np.argmax(defects))
    if defects[worst] > _RENORM_BUDGET:
        raise InstabilityError(
            f"slice {worst} clamps to mass {float(masses[worst])!r}; "
            f"renormalization defect {defects[worst]:.3e} exceeds the "
            f"{_RENORM_BUDGET:g} budget")
    shape = (values.shape[0],) + (1,) * grid.dims
    return clipped / masses.reshape(shape), float(defects[worst]), neg_clip


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
class TightnessSeriesReport(_Record):
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


def small_jump_second_moment(triplet) -> float:
    """Quadrature of |z|^2 over |z| <= 1 against each jump density.

    Symbol-only stable families fall back to the unnormalized density
    |z|^{-1-alpha}, which overestimates the true constant and keeps the
    resulting budgets on the safe side.
    """
    return _jump_integral(triplet, lambda z: z * z, 0.0, 1.0, 200,
                          "small-jump second moment failed to converge")


def tightness_report(rho: Trajectory, psi: TightnessFn, nu_tail: float,
                     *, triplet=None, drift_sup: float = 0.0
                     ) -> TightnessSeriesReport:
    """Moment series t -> int psi d(rho(t)) with an affine growth budget.

    ``nu_tail`` is the caller's allowance for the big jumps (the psi tail
    moment plus subadditivity slack times the tail mass); the drift,
    diffusion and small-jump pieces are assembled from ``triplet`` and
    ``drift_sup``.  The flagged bound is

        series(t) <= series(t0) + slope_budget * (t - t0) + 1e-9.
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
        excess=excess, passed=bool(excess <= _TIGHTNESS_TOL))
