"""Backward Hamilton-Jacobi solver by time reversal and mild stepping.

The equation is posed terminally,

    -du/dt - L u + H(x, u, Du) = f(t, x),   u(T, x) = g(x),

with L the generator held by a KernelCache.  Internally the solver runs
forward in the reversed clock s = T - t, where the mild (Duhamel) form

    v(s) = K_s * g + int_0^s K_{s-r} * [f(T-r) - H(x, v(r), Dv(r))] dr

is discretized by exponential Euler and then corrected by whole-interval
Picard sweeps with a trapezoidal quadrature of the integral.  The
semigroup is diagonal in Fourier space.  The first pass is nonlinear and
steps slice by slice.  On small grids a step is one memoized dense real
operator applied in physical space, which maps a slice and its integrand
to the next slice and its gradient with no transform call.  On larger
grids the march carries the Fourier coefficients of the path, at two
transform calls a step: one inverse transform gives a slice's values,
together with its gradient when the integrand reads one, and one forward
transform gives the spectrum of its integrand.  A sweep is linear in the
slices once its integrand is fixed, so it runs as one recurrence on the
coefficients of the whole path, two transform calls however many steps.

That scheme, ``_mild_march``, is the one march of the package, run with
the generator here and with its adjoint in the ``fp`` module.  It takes
the Duhamel integrand as a callback that does pointwise algebra only, and
the direction fixes its shape.  With L the callback reads the values and
the gradient and returns the integrand itself, a source: ``solve_hjb``
passes f - H(x, u, Du) through ``_march_backward``, which adapts the march
to the reversed clock, and the backward leg of the linearized system
passes its source minus the transport term V . Dz.  With L* the callback
reads the values alone and returns a flux c, the integrand being div c:
the forward march of ``fp``, whose inverse transforms carry the values
row alone.  All public trajectories are indexed in physical time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (
    BudgetError,
    DivergenceError,
    GridMismatchError,
    NonFiniteFieldError,
    UnsupportedOrderError,
)
from .grid import (Field, Grid, _Record, _batch_gradient, _check_integer,
                   _derivative_multiplier_half, _gradient_multipliers, _irfft,
                   _nyquist_shell_max, _rfft, _value_gradient_rows)
from .kernels import KernelCache
from .levy import order_alpha

_BLOWUP_SUP = 1e6
_DT_SAFETY = 0.5
_TERMINAL_TAIL_TOL = 1e-6
_PROBE_GRAD_TOL = 1e-6
_PROBE_EIG_TOL = 1e-8
_FD_STEP = 1e-5
_PROBE_SEED = 0
_PROBE_TRIALS = 64
_PROBE_BOX = 2.0
# trapezoid Picard sweeps of solve_hjb: second order in time
_PICARD_SWEEPS = 2
# grids of at most this many nodes take the dense first-pass step (see
# _mild_march).  measured per step, one core, warm memo, best of three
# alternations; dense vs spectral, gradient-source drive / flux drive, us:
#   1D n=16   11 vs 37 / 11 vs 37
#   1D n=32    9 vs 37 / 12 vs 27
#   1D n=64   10 vs 27 / 11 vs 32
#   1D n=128  18 vs 39 / 16 vs 40
#   2D 8x8    14 vs 49 / 20 vs 48
_DENSE_STEP_NODES = 64


# --------------------------------------------------------------------------
# Hamiltonians
#
# All callbacks are numpy-vectorized: ``x`` is a tuple of d coordinate
# arrays, ``u`` an array broadcastable against them, ``p`` a tuple of d
# arrays (one per gradient component).  ``value`` returns H(x, u, p) and
# ``grad_p`` its momentum gradient as a d-tuple.  ``curvature`` (second
# momentum derivative, shape (..., d, d)) may return None; the probe
# checks below and ``linearized.linearize`` read it.  ``u_slope`` is None
# or the callback (x, u, p) -> dH/du; the probe checks and the
# Lasry-Lions check of ``mfg`` read it.  ``QuadraticHamiltonian`` is the
# one closed form; every other H, value-dependent ones included, is a
# ``GeneralHamiltonian`` of callbacks.


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H(x, u, p) = weight * |p|^2 (state- and value-independent)."""

    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0.0:
            raise ValueError("quadratic weight must be positive")

    uniformly_convex = True
    monotone_rate = None

    @property
    def convexity_bound(self) -> float:
        w = 2.0 * self.weight
        return max(w, 1.0 / w)

    def value(self, x, u, p):
        out = p[0] * p[0]
        for pi in p[1:]:
            out = out + pi * pi
        return self.weight * out

    def grad_p(self, x, u, p):
        return tuple(2.0 * self.weight * pi for pi in p)

    def curvature(self, x, u, p):
        d = len(p)
        batch = np.broadcast(u, *p).shape
        eye = 2.0 * self.weight * np.eye(d)
        return np.broadcast_to(eye, batch + (d, d))

    u_slope = None


@dataclass(frozen=True)
class GeneralHamiltonian:
    """Fully general H via callbacks (x, u, p) -> array.

    ``grad`` must return a d-tuple of arrays; ``hess`` (optional) an
    (..., d, d) array of momentum curvatures; ``du`` (optional) dH/du.
    """

    h: Callable
    grad: Callable
    hess: Callable | None = None
    du: Callable | None = None
    uniformly_convex: bool = False
    convexity_bound: float = math.inf
    monotone_rate: float | None = None

    def value(self, x, u, p):
        return self.h(x, u, p)

    def grad_p(self, x, u, p):
        return tuple(self.grad(x, u, p))

    def curvature(self, x, u, p):
        if self.hess is None:
            return None
        return self.hess(x, u, p)

    @property
    def u_slope(self):
        return self.du


# --------------------------------------------------------------------------
# probe checks tying declared structure to the supplied callbacks


@dataclass(frozen=True)
class HamiltonianProbeReport(_Record):
    """Finite-difference and spectral probes of a Hamiltonian's callbacks.

    ``max_grad_gap`` is the worst |grad_p - central difference of value|
    over the probes, relative to max(1, sup |grad_p|).  The curvature range
    and value-slope minimum are None when the Hamiltonian does not supply
    the corresponding callback.
    """

    max_grad_gap: float
    curvature_eig_range: tuple[float, float] | None
    min_u_slope: float | None
    passed: bool
    trials: int
    seed: int


def probe_hamiltonian(hamiltonian, dims: int) -> HamiltonianProbeReport:
    """Check grad_p against finite differences and any declared bounds.

    64 probes drawn with seed 0 are uniform in [-2, 2] for each
    coordinate, value and momentum component.  A Hamiltonian flagged
    ``uniformly_convex`` must have curvature eigenvalues inside [1/c, c]
    for c = convexity_bound; a declared ``monotone_rate`` gamma requires
    u_slope >= gamma everywhere.
    """
    if dims not in (1, 2):
        raise ValueError("only d in {1, 2}")
    rng = np.random.default_rng(_PROBE_SEED)
    box, trials = _PROBE_BOX, _PROBE_TRIALS
    x = tuple(rng.uniform(-box, box, size=trials) for _ in range(dims))
    u = rng.uniform(-box, box, size=trials)
    p = tuple(rng.uniform(-box, box, size=trials) for _ in range(dims))

    supplied = hamiltonian.grad_p(x, u, p)
    sup_grad = max(float(np.max(np.abs(np.asarray(gi)))) for gi in supplied)
    denom = max(1.0, sup_grad)
    gap = 0.0
    for i in range(dims):
        shift = tuple(np.asarray(pj, dtype=float).copy() for pj in p)
        shift[i][:] = p[i] + _FD_STEP
        hi = hamiltonian.value(x, u, shift)
        shift[i][:] = p[i] - _FD_STEP
        lo = hamiltonian.value(x, u, shift)
        fd = (np.asarray(hi, dtype=float) - lo) / (2.0 * _FD_STEP)
        gap = max(gap, float(np.max(np.abs(fd - supplied[i]))))
    max_gap = gap / denom
    ok = max_gap <= _PROBE_GRAD_TOL

    eig_range = None
    if getattr(hamiltonian, "uniformly_convex", False):
        curv = hamiltonian.curvature(x, u, p)
        if curv is None:
            raise ValueError(
                "uniformly_convex declared without a curvature callback")
        eigs = np.linalg.eigvalsh(np.asarray(curv, dtype=float))
        eig_range = (float(np.min(eigs)), float(np.max(eigs)))
        c1 = float(hamiltonian.convexity_bound)
        ok = ok and (eig_range[0] >= 1.0 / c1 - _PROBE_EIG_TOL)
        ok = ok and (eig_range[1] <= c1 + _PROBE_EIG_TOL)

    min_slope = None
    rate = getattr(hamiltonian, "monotone_rate", None)
    if rate is not None:
        slope_fn = hamiltonian.u_slope
        if slope_fn is None:
            raise ValueError(
                "monotone_rate declared without a u_slope callback")
        slopes = np.broadcast_to(np.asarray(slope_fn(x, u, p), dtype=float),
                                 u.shape)
        min_slope = float(np.min(slopes))
        ok = ok and (min_slope >= float(rate) - _PROBE_EIG_TOL)

    return HamiltonianProbeReport(
        max_grad_gap=max_gap,
        curvature_eig_range=eig_range,
        min_u_slope=min_slope,
        passed=bool(ok),
        trials=trials,
        seed=_PROBE_SEED,
    )


# --------------------------------------------------------------------------
# time slabs


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced time slices of a scalar or vector field.

    ``values`` has shape (n_steps+1, *grid.shape) for scalars and
    (n_steps+1, d, *grid.shape) for vector fields (e.g. drifts); slice 0
    sits at t0 and slice n_steps at T.
    """

    grid: Grid
    t0: float
    T: float
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        self._settle(scan_finite=True)

    @classmethod
    def _marched(cls, grid: Grid, t0: float, T: float, values: np.ndarray
                 ) -> "Trajectory":
        """A trajectory of march output, skipping the whole-stack finite scan.

        For ``_mild_march`` output only: its ``check`` has vetted every
        slice after the first (a NaN fails the sup-norm's ``<=``), and a
        non-finite first slice makes the second one non-finite.  The
        shape, slab, contiguity and read-only handling are the public
        constructor's.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "grid", grid)
        object.__setattr__(out, "t0", t0)
        object.__setattr__(out, "T", T)
        object.__setattr__(out, "values", values)
        out._settle(scan_finite=False)
        return out

    def _settle(self, scan_finite: bool) -> None:
        """Validate the fields and store them contiguous and read-only."""
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        gdims = self.grid.dims
        if v.ndim == 1 + gdims:
            vec = False
        elif v.ndim == 2 + gdims and v.shape[1] == gdims:
            vec = True
        else:
            raise ValueError(
                f"trajectory values of shape {v.shape} do not match a "
                f"scalar or d-vector history on a {self.grid.shape} grid")
        if v.shape[-gdims:] != self.grid.shape:
            raise GridMismatchError(
                f"slice shape {v.shape[-gdims:]} != grid {self.grid.shape}")
        if v.shape[0] < 2:
            raise ValueError("a trajectory needs at least two time slices")
        if scan_finite and not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("trajectory contains NaN/Inf entries")
        if not self.T > self.t0:
            raise ValueError("need T > t0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "_vector", vec)

    @property
    def is_vector(self) -> bool:
        return self._vector

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def slice_field(self, k: int) -> Field:
        if self.is_vector:
            raise ValueError("slice_field is for scalar trajectories; "
                             "index values[k, i] for component i")
        return Field(self.grid, self.values[k])

    @property
    def initial(self) -> Field:
        return self.slice_field(0)

    def check_slab(self, what: str, t0: float, T: float, n_steps: int
                   ) -> None:
        """Raise ValueError unless the slices discretize [t0, T] in n_steps."""
        if self.n_steps != n_steps or abs(self.t0 - t0) > 1e-12 or \
                abs(self.T - T) > 1e-12:
            raise ValueError(f"{what} must share the time slab")

    def index_of(self, t: float) -> int:
        """Nearest slice index to physical time t (must be on the slab)."""
        k = int(round((t - self.t0) / self.dt))
        if k < 0 or k > self.n_steps or abs(self.t0 + k * self.dt - t) > 1e-9:
            raise ValueError(f"time {t} is not a slice of [{self.t0}, {self.T}]")
        return k


def _check_operand(name: str, tr: Trajectory, grid: Grid, t0: float,
                   T: float, n_steps: int, vector: bool) -> None:
    """Raise unless ``tr`` is a vector (or scalar) history on grid and slab."""
    if tr.grid != grid:
        raise GridMismatchError(f"{name} grid != kernel grid")
    tr.check_slab(f"{name} trajectory", t0, T, n_steps)
    if tr.is_vector != vector:
        kind, other = ("vector", "scalar") if vector else ("scalar", "vector")
        raise ValueError(f"{name} must be {kind}, not a {other} trajectory")


# --------------------------------------------------------------------------
# solver


def step_budget(triplet_order: float, grid: Grid) -> float:
    """Largest admissible dt for mild stepping: 0.5 * min(dx)^alpha."""
    return _DT_SAFETY * min(grid.dx) ** triplet_order


def _check_step(kernel: KernelCache, dt: float, span: float | None = None
                ) -> None:
    """Raise BudgetError unless 0 < dt <= step_budget for the kernel.

    ``span`` is the slab length of a march, and the error then names the
    step count that fits; without it ``dt`` is a step cap (``dt_cap``).
    """
    alpha = _solver_order(kernel)
    budget = step_budget(alpha, kernel.grid)
    if 0.0 < dt <= budget * (1.0 + 1e-12):
        return
    rule = f"the stepping budget {budget:.3e} (0.5*dx^alpha, alpha={alpha:g})"
    if span is None:
        raise BudgetError(f"dt_cap={dt:.3e} outside {rule}")
    need = int(math.ceil(span / budget))
    raise BudgetError(f"dt={dt:.3e} exceeds {rule}; use n_steps >= {need}")


def _solver_order(cache: KernelCache) -> float:
    alpha = order_alpha(cache.triplet)
    if alpha <= 1.0:
        raise UnsupportedOrderError(
            f"generator order alpha={alpha:g} <= 1: gradient transport "
            "dominates the smoothing and the mild stepping is not supported")
    return alpha


def _nyquist_fraction(grid: Grid, spectrum: np.ndarray) -> float:
    """Spectral mass fraction on the Nyquist shell (resolution indicator).

    ``spectrum`` is the ``grid._rfft`` of one slice.
    """
    spec = np.abs(spectrum)
    peak = float(np.max(spec))
    return float(_nyquist_shell_max(grid, spec)) / peak if peak > 0.0 else 0.0


def _mild_march(kernel: KernelCache, start: np.ndarray, t0: float, T: float,
                n_steps: int, picard_sweeps: int, drive: Callable,
                check: Callable, adjoint: bool = False, *,
                spectrum: np.ndarray | None = None) -> np.ndarray:
    """Mild march of dw/ds = L w + N(s, w) from w(0) = start.

    s is the marching clock and ``adjoint`` swaps L for L*.  ``start``
    holds the raw values of one slice.  ``drive(values, grads, k)``
    sees the values at march index k, or of the whole stack (time axis
    first) when k is ``slice(None)``, and ``adjoint`` fixes the rest:

    * With L, ``grads`` is the d-tuple of first partials of the values,
      and the drive returns the source N itself, always an array.
    * With L*, ``grads`` is the empty tuple, as no partial is transformed,
      and the drive returns a flux c with its vector axis right before
      the grid axes, so N = div c, or None for N = 0 (the free flow).

    A drive does pointwise algebra only: the march owns every transform.
    A caller that has taken the half spectrum of ``start`` passes it as
    ``spectrum``; otherwise the march takes it where it reads it.

    On the half spectrum S_dt is the multiplier M, and the first pass is
    exponential Euler,

        f[k+1] = M (f[k] + dt N^[k]),   N^ = s^  or  sum_i (i xi_i) c^_i.

    The step is one fixed real linear map: with L from w[k] + dt s to
    w[k+1] and its partials, with L* from the rows (w[k], dt c_1, ...,
    dt c_d) to w[k+1].  It takes one of two forms, chosen by the grid
    alone:

    * Dense, on grids of at most ``_DENSE_STEP_NODES`` = 64 nodes (1D
      n <= 64, 2D 8x8).  The map is the matrix
      ``KernelCache.step_operator`` builds by pushing the identity through
      M and the partial multipliers, so it is the spectral step up to
      rounding, Nyquist rules and adjoint included.  ``_dense_first_pass``
      applies it, flattened to one matrix, with one BLAS matrix-vector
      product a step and makes no transform call.  The spectrum of
      ``start`` is taken only when the partials of slice 0 or a sweep
      read it.
    * Spectral otherwise: the march carries the half spectrum of the path,
      and a step makes two calls to the grid's transform pair.  One
      inverse transform gives the slice the drive reads: of the rows
      [1, d_1, ..., d_d] times f[k] with L, of f[k] alone with L*.  One
      forward transform of the source or flux gives N^[k].  It is the
      only form that fits large grids: at 1D n = 16384 a dense step would
      take 4 GB.

    As the grid alone picks the form, each linearized leg equals the
    nonlinear march it mirrors, bitwise.  A dense step costs O(N^2), a
    spectral one O(N log N) plus a call overhead of about 10 us, and the
    dense step runs faster on every measured grid up to the bound
    (measurements at the constant).

    Each Picard sweep then rebuilds the path under the composite
    trapezoid,

        w[k+1] = S_dt (w[k] + dt/2 N[k]) + dt/2 N[k+1],

    with the integrand of the previous pass: one forward transform of the
    whole stack's integrand, the linear recurrence ``_sweep_spectra`` on
    n = dt/2 N^, and one inverse transform of the new stack, of the rows
    when a later sweep reads its gradient, of the values row otherwise
    (both through the grid's transform pair).  Slice 0 is then reset to
    ``start`` and its spectrum exactly.  A sweep thus makes two transform
    calls, whatever ``n_steps`` and on either form.  When an L* drive
    returns no flux, the first pass is the semigroup itself, exact in
    time, and no sweep runs.
    ``check(values)`` vets the new slices, march indices 1 to
    ``n_steps``, time axis first: the first pass and each sweep hand
    over their finished stack in one call, so a first-pass
    ``drive`` may see a slice that failed, but no sweep and no caller
    does, and the check names the first failing slice.  Returns the values
    in marching order, time axis first; raises BudgetError when dt exceeds
    the 0.5*dx^alpha budget.
    """
    dt = (T - t0) / n_steps
    _check_step(kernel, dt, T - t0)
    grid = kernel.grid
    d = grid.dims
    mults = _gradient_multipliers(grid)
    rows = _value_gradient_rows(grid)
    mult = kernel.multiplier(dt, adjoint)
    # component i of a flux spectrum: its vector axis sits before the grid
    components = [(Ellipsis, i) + (slice(None),) * d for i in range(d)]

    def integrand(term) -> np.ndarray | None:
        """Half spectrum of N: the source with L, div of the flux with L*."""
        if term is None:
            return None
        part = _rfft(grid, term)
        if not adjoint:
            return part
        out = mults[0] * part[components[0]]
        for i in range(1, d):
            out += mults[i] * part[components[i]]
        return out

    dense = grid.node_count <= _DENSE_STEP_NODES
    # a dense first pass with no sweep never reads the start's spectrum
    spec0 = spectrum
    if spec0 is None and (not adjoint or picard_sweeps or not dense):
        spec0 = _rfft(grid, start)
    # row 0 holds the values, rows 1..d the partials an L drive reads
    stack = np.empty((1 if adjoint else 1 + d, n_steps + 1) + start.shape)
    w, grads = stack[0], stack[1:]
    w[0] = start
    if not adjoint:
        grads[:, 0] = _irfft(grid, rows[1:] * spec0)
    if dense:
        _dense_first_pass(kernel, stack, dt, drive, adjoint)
    else:
        spec = np.empty((n_steps + 1,) + spec0.shape, dtype=complex)
        spec[0] = spec0
        for k in range(n_steps):
            n_hat = integrand(drive(w[k], tuple(grads[:, k]), k))
            if n_hat is None:
                np.multiply(mult, spec[k], out=spec[k + 1])
            else:
                n_hat *= dt
                n_hat += spec[k]
                np.multiply(mult, n_hat, out=spec[k + 1])
            if adjoint:
                w[k + 1] = _irfft(grid, spec[k + 1])
            else:
                stack[:, k + 1] = _irfft(grid, rows * spec[k + 1])
        spec = None
    check(w[1:])

    grads = tuple(grads)
    for sweep in range(picard_sweeps):
        n_hat = integrand(drive(w, grads, slice(None)))
        if n_hat is None:
            break
        n_hat *= 0.5 * dt
        spec = _sweep_spectra(mult, n_hat, spec0)
        stack = w = grads = n_hat = None  # free the old stacks first
        if not adjoint and sweep + 1 < picard_sweeps:
            stack = _irfft(grid, rows[:, None] * spec)
            w, grads = stack[0], tuple(stack[1:])
        else:
            w, grads = _irfft(grid, spec), ()
        spec = None
        w[0] = start
        check(w[1:])
    return w


def _sweep_spectra(mult: np.ndarray, n_hat: np.ndarray, spec0: np.ndarray
                   ) -> np.ndarray:
    """The spectra of one Picard sweep of ``_mild_march``.

    ``n_hat`` holds n = dt/2 N^ per slice, time axis first, and ``spec0``
    the start's spectrum; returns the stack f with f[0] = ``spec0`` and
    f[k+1] = M (f[k] + n[k]) + n[k+1] for the multiplier M = ``mult``.  A
    step is three ufunc calls into preallocated rows: f[k+1] = M c, then
    f[k+1] += n[k+1], then the carry c = f[k+1] + n[k+1].  Row 0 of
    ``n_hat`` is spent as the first carry f[0] + n[0].
    """
    carry = n_hat[0]
    carry += spec0
    path = np.empty_like(n_hat)
    path[0] = spec0
    for f, n in zip(path[1:], n_hat[1:]):
        np.multiply(mult, carry, out=f)
        np.add(f, n, out=f)
        np.add(f, n, out=carry)
    return path


def _dense_first_pass(kernel: KernelCache, stack: np.ndarray, dt: float,
                      drive: Callable, adjoint: bool) -> None:
    """The first pass of ``_mild_march`` on the dense step.

    ``stack`` holds the values row, then with L the partials, each with
    the time axis first; slice 0 is set and this fills the rest.  A step
    applies the memoized ``KernelCache.step_operator``, flattened to one
    matrix, with one BLAS matrix-vector product.  With L it maps w + dt s
    to a buffer of the values and partials, which is copied into the
    stack.  With L* it maps the rows (w, dt c_1, ..., dt c_d) straight
    into the values row, or, for a drive that returns no flux, its
    semigroup block, copied contiguous once, maps w alone.
    """
    grid = kernel.grid
    size = grid.node_count
    op = kernel.step_operator(dt, adjoint)
    full = op.reshape(-1, op.shape[2])
    # the input rows: w + dt s with L, (w, dt c_1, ..., dt c_d) with L*
    inputs = np.empty((op.shape[2] // size, size))
    packed = inputs.reshape(-1)
    # row 0, as a slice for the drive's arrays
    head, fluxes = inputs[0].reshape(grid.shape), inputs[1:]
    # out[o, k] is output row o at slice k, flattened
    out = stack.reshape(stack.shape[:2] + (size,))
    w = stack[0]
    if not adjoint:
        buffer = np.empty(op.shape[:2])
        flat = buffer.reshape(-1)
        for k, grads in zip(range(stack.shape[1] - 1), zip(*stack[1:])):
            np.multiply(drive(w[k], grads, k), dt, out=head)
            np.add(w[k], head, out=head)
            np.dot(full, packed, out=flat)
            out[:, k + 1] = buffer
        return
    block = None
    for k in range(stack.shape[1] - 1):
        flux = drive(w[k], (), k)
        head[...] = w[k]
        if flux is None:
            if block is None:
                block = np.ascontiguousarray(op[0, :, :size])
            np.dot(block, inputs[0], out=out[0, k + 1])
        else:
            np.multiply(flux.reshape(grid.dims, size), dt, out=fluxes)
            np.dot(full, packed, out=out[0, k + 1])


def _march_backward(kernel: KernelCache, terminal: np.ndarray, t0: float,
                    T: float, n_steps: int, picard_sweeps: int,
                    drive: Callable) -> np.ndarray:
    """Mild march of -du/dt - Lu = N(t, u) from u(T) = terminal.

    ``_mild_march`` with L in the reversed clock s = T - t, handed
    ``drive`` as it is: ``drive(values, grads, k)`` returns the Duhamel
    integrand N at march index k, physical index ``n_steps - k``, or of
    the whole stack in march order when k is ``slice(None)``.  A drive
    with operands in physical time therefore reads them through reversed
    views, ``operand[::-1][k]``.  Returns the values in physical time
    order, time axis first.  Raises BudgetError when dt exceeds the
    0.5*dx^alpha budget and DivergenceError when a slice's sup-norm
    passes 1e6.
    """
    dt = (T - t0) / n_steps
    grid = kernel.grid
    spectrum = _rfft(grid, terminal)
    if _nyquist_fraction(grid, spectrum) > _TERMINAL_TAIL_TOL:
        warnings.warn(
            "terminal data is marginally resolved: Nyquist spectral "
            "fraction exceeds 1e-6; expect degraded accuracy", stacklevel=3)

    def guard(values: np.ndarray) -> None:
        """Raise for the first slice whose sup-norm is not within 1e6."""
        if np.abs(values).max() <= _BLOWUP_SUP:
            return
        sups = np.abs(values).reshape(len(values), -1).max(axis=1)
        j = int(np.argmax(~(sups <= _BLOWUP_SUP)))
        k = 1 + j
        raise DivergenceError(
            f"backward solve blew up (sup {float(sups[j]):.3e}) at t="
            f"{T - k * dt:.6g}; last stable physical slice "
            f"index {n_steps - (k - 1)} of {n_steps}")

    return _mild_march(kernel, terminal, t0, T, n_steps, picard_sweeps,
                       drive, guard, spectrum=spectrum)[::-1]


def _value_drive(grid: Grid, hamiltonian, source: Trajectory | None
                 ) -> Callable:
    """The Duhamel integrand f - H(x, u, Du) of ``solve_hjb``.

    A ``drive`` for ``_march_backward``: one slice at a march index, or
    the whole stack for ``slice(None)``, with f read in march order.  It
    evaluates H on the values and gradient the march hands over and
    returns f - H.
    """
    mesh = grid.meshgrid()
    marched = None if source is None else source.values[::-1]

    def drive(values: np.ndarray, grads: tuple, k) -> np.ndarray:
        ham = hamiltonian.value(mesh, values, grads)
        if marched is None:
            return -np.asarray(ham, dtype=float)
        return marched[k] - ham

    return drive


def solve_hjb(kernel: KernelCache, hamiltonian, source: Trajectory | None,
              terminal: Field, t0: float, T: float, n_steps: int
              ) -> Trajectory:
    """Solve the terminal-value problem -du/dt - Lu + H(x,u,Du) = f.

    Runs ``_march_backward`` with the integrand f - H(x, u, Du) and two
    Picard sweeps.  Raises BudgetError when dt exceeds the 0.5*dx^alpha
    budget and DivergenceError when a slice's sup-norm passes 1e6.
    """
    grid = kernel.grid
    if terminal.grid != grid:
        raise GridMismatchError("terminal data grid != kernel grid")
    if not T > t0:
        raise ValueError("need T > t0")
    _check_integer("n_steps", n_steps)
    if n_steps < 1:
        raise ValueError("need at least one step")
    if source is not None:
        _check_operand("source", source, grid, t0, T, n_steps, vector=False)
    return Trajectory._marched(grid, t0, T, _march_backward(
        kernel, terminal.values, t0, T, n_steps, _PICARD_SWEEPS,
        _value_drive(grid, hamiltonian, source)))


# --------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class GradientBoundReport(_Record):
    """Per-slice grid sup-norms of a value trajectory and its derivatives.

    ``sup_du`` uses the pointwise Euclidean norm of the gradient;
    ``sup_d2u``/``sup_d3u`` take the worst multi-index of that order.
    ``sup_C1`` is the largest per-slice sup|u| + sup|Du|.
    """

    times: np.ndarray
    sup_u: np.ndarray
    sup_du: np.ndarray
    sup_d2u: np.ndarray
    sup_d3u: np.ndarray
    sup_C1: float


def _multi_indices(dims: int, order: int) -> list[tuple[int, ...]]:
    if dims == 1:
        return [(order,)]
    return [(k, order - k) for k in range(order, -1, -1)]


def gradient_bound_report(u: Trajectory) -> GradientBoundReport:
    """Sup-norms of u, Du, D^2 u, D^3 u per slice (smoothness diagnostic)."""
    if u.is_vector:
        raise ValueError("gradient bounds are for scalar trajectories")
    grid = u.grid
    axes = tuple(range(1, 1 + grid.dims))
    spec = _rfft(grid, u.values)

    def sup_of(beta: tuple[int, ...]) -> np.ndarray:
        mult = _derivative_multiplier_half(grid, beta)
        der = _irfft(grid, spec * mult)
        return np.max(np.abs(der), axis=axes)

    sup_u = np.max(np.abs(u.values), axis=axes)
    mag = np.sqrt(sum(g * g for g in _batch_gradient(grid, u.values)))
    sup_du = np.max(mag, axis=axes)
    sup_d2 = np.max([sup_of(b) for b in _multi_indices(grid.dims, 2)], axis=0)
    sup_d3 = np.max([sup_of(b) for b in _multi_indices(grid.dims, 3)], axis=0)
    return GradientBoundReport(
        times=u.times, sup_u=sup_u, sup_du=sup_du,
        sup_d2u=sup_d2, sup_d3u=sup_d3,
        sup_C1=float(np.max(sup_u + sup_du)))
