"""Spectral heat kernels for Levy generators on the periodic box.

The semigroup e^{tL} acts diagonally in Fourier space through the multiplier
e^{-t Psi(xi)} on the ``rfftn`` half-spectrum layout of ``grid``, taken
directly for each time (no composition step).  The adjoint semigroup uses
the conjugate symbol, which in physical space is the reflected kernel.

A real generator has Psi(-xi) = conj Psi(xi) except on the Nyquist planes,
where xi = -pi/dx stands for both signs.  There the symbol is replaced by
its Hermitian part (Psi(k) + conj Psi(-k))/2, the rule that
``grid._derivative_multiplier_half`` applies to odd derivatives, so every
multiplier and the generator are real operators that agree on every bin.
The symbols of symmetric generators are kept bitwise.

Kernel fields are only handed out when the multiplier has decayed below
1e-12 at the Nyquist shell; otherwise the grid cannot represent the kernel
and a ``ResolutionError`` reports the resolution that would suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteFieldError, ResolutionError,
                     SpectralResidueError)
from .grid import (Field, Grid, _Record, _check_integer,
                   _gradient_multipliers, _half_period_shift, _irfft,
                   _nyquist_shell_max, _rfft, spectral_derivative)
from .levy import LevyTriplet, UnsupportedOrderError, order_alpha, symbol_eval

_NYQUIST_TOL = 1e-12
_MASS_TOL = 1e-10
_RINGING_TOL = 1e-9
_MEMO_LIMIT = 64
# dense step operators are up to 96 KB each (see hjb._DENSE_STEP_NODES)
_STEP_MEMO_LIMIT = 8


class KernelCache:
    """Cached half-spectrum multipliers of e^{tL} for one generator on one grid.

    ``multiplier`` memoizes up to 64 multipliers, keyed by (t, adjoint).
    ``step_operator`` memoizes, apart from them, up to 8 dense step
    operators of the mild march, keyed by (t, adjoint): the march only
    builds them on grids of at most 64 nodes, where one holds at most
    12,288 entries (96 KB, 2D 8x8 in either direction), so the memo holds
    at most 768 KB.  Both memos drop their oldest entry when full.
    """

    def __init__(self, triplet: LevyTriplet, grid: Grid):
        if triplet.dims != grid.dims:
            raise ValueError(
                f"triplet dimension {triplet.dims} != grid dimension {grid.dims}"
            )
        self.triplet = triplet
        self.grid = grid
        full = symbol_eval(triplet, grid)
        full[(0,) * grid.dims] = 0.0  # conserved mass: DC multiplier stays exactly 1
        axes = tuple(range(grid.dims))
        half = (Ellipsis, slice(0, grid.n[-1] // 2 + 1))
        mirror = np.conj(np.roll(np.flip(full), 1, axis=axes))[half]  # conj Psi(-k)
        symbol = np.ascontiguousarray(full[half])
        on_plane = np.zeros(symbol.shape, dtype=bool)
        for ax in axes:
            np.moveaxis(on_plane, ax, 0)[grid.n[ax] // 2] = True
        skew = on_plane & (symbol != mirror)
        symbol[skew] = 0.5 * (symbol[skew] + mirror[skew])
        self.symbol = symbol
        self._memo: dict[tuple[float, bool], np.ndarray] = {}
        self._steps: dict[tuple[float, bool], np.ndarray] = {}

    def multiplier(self, t: float, adjoint: bool = False) -> np.ndarray:
        """Half-spectrum multiplier of e^{tL} (or its adjoint) at time t >= 0."""
        if t < 0.0:
            raise ValueError("semigroup time must be nonnegative")
        key = (float(t), bool(adjoint))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if adjoint:
            mult = np.conj(self.multiplier(t, False))
        else:
            mult = np.exp(-t * self.symbol)
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = mult
        return mult

    def step_operator(self, t: float, adjoint: bool) -> np.ndarray:
        """One exponential Euler step of length t as a dense real operator.

        Each row in or out is a flattened grid slice, and the operator is
        the step's multipliers pushed through the identity, so the Nyquist
        rules are those of the spectral step.  With L it maps w + t s to
        S_t (w + t s) and its d first partials (the multipliers of
        ``grid._gradient_multipliers``): shape (1 + d, N, N) for N grid
        nodes.  With L* it maps the rows (w, t c_1, ..., t c_d),
        concatenated, to S*_t (w + t div c): shape (1, N, (1 + d) N).  A
        read-only array is memoized per (t, adjoint).
        """
        key = (float(t), bool(adjoint))
        hit = self._steps.get(key)
        if hit is not None:
            return hit
        grid = self.grid
        size = grid.node_count
        step = self.multiplier(t, adjoint)
        mults = _gradient_multipliers(grid)
        outs = (np.ones(step.shape),)
        if adjoint:
            ins = (step,) + tuple(step * m for m in mults)
        else:
            outs, ins = outs + mults, (step,)
        outs, ins = np.stack(outs), np.stack(ins)
        basis = _rfft(grid, np.eye(size).reshape((size,) + grid.shape))
        # resp[o, i, m]: output row o of the unit vector m of input row i
        resp = _irfft(grid, outs[:, None, None] * ins[:, None] * basis)
        op = np.ascontiguousarray(
            resp.reshape(len(outs), len(ins), size, size).transpose(0, 3, 1, 2)
        ).reshape(len(outs), size, len(ins) * size)
        op.setflags(write=False)
        if len(self._steps) >= _STEP_MEMO_LIMIT:
            self._steps.pop(next(iter(self._steps)))
        self._steps[key] = op
        return op

    def apply_array(self, t: float, values: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Smooth raw values (grid axes last; leading axes broadcast)."""
        return self._apply(self.multiplier(t, adjoint), values)

    def apply_generator(self, values: np.ndarray, adjoint: bool = False
                        ) -> np.ndarray:
        """L (or its adjoint, through the conjugate symbol) applied to values.

        Grid axes last; leading axes broadcast.  The adjoint is the
        transpose under the plain node sum, as for ``multiplier``.
        """
        return self._apply(-(np.conj(self.symbol) if adjoint else self.symbol),
                           values)

    def _apply(self, mult: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Values times ``mult`` through the grid's transform pair."""
        return _irfft(self.grid, _rfft(self.grid, values) * mult)

    def nyquist_tail(self, t: float, adjoint: bool = False) -> float:
        """Largest multiplier magnitude on the Nyquist shell."""
        return float(_nyquist_shell_max(
            self.grid, np.abs(self.multiplier(t, adjoint))))

    def _required_n(self, t: float, tail: float) -> int:
        """Estimate a power-of-two n that would push the tail below tolerance."""
        try:
            alpha = order_alpha(self.triplet)
        except UnsupportedOrderError:
            alpha = 1.0
        target = -np.log(_NYQUIST_TOL)
        current = -np.log(max(tail, 1e-300))
        n_max = max(self.grid.n)
        if current <= 0.0:
            factor = 16.0
        else:
            factor = (target / current) ** (1.0 / alpha)
        need = n_max * max(factor, 1.0)
        n_req = 8
        while n_req < need:
            n_req *= 2
        return max(2 * n_max, n_req)


def kernel_field(cache: KernelCache, t: float, adjoint: bool = False) -> Field:
    """Real-space transition kernel K_t centered at the origin.

    Raises ``ResolutionError`` when the multiplier has not decayed below
    1e-12 at the Nyquist shell, naming a grid size that would resolve it.
    """
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    grid = cache.grid
    tail = cache.nyquist_tail(t, adjoint)
    if tail >= _NYQUIST_TOL:
        raise ResolutionError(
            f"kernel at t={t:g} unresolved: Nyquist multiplier {tail:.3e} "
            f">= {_NYQUIST_TOL:g}; need n >= {cache._required_n(t, tail)} per axis"
        )
    impulse = np.zeros(grid.shape)
    impulse[(0,) * grid.dims] = 1.0
    vals = cache.apply_array(t, impulse, adjoint)
    vals = _half_period_shift(grid, vals) / grid.cell_volume
    if not np.all(np.isfinite(vals)):
        raise NonFiniteFieldError("kernel synthesis produced non-finite values")
    peak = float(np.max(vals))
    trough = float(np.min(vals))
    if trough < -_RINGING_TOL * peak:
        raise ResolutionError(
            f"kernel ringing {trough:.3e} below -{_RINGING_TOL:g} * peak {peak:.3e}"
        )
    field = Field(grid, vals)
    mass = field.integral()
    if abs(mass - 1.0) > _MASS_TOL:
        raise SpectralResidueError(f"kernel mass {mass!r} deviates from 1")
    return field


@dataclass(frozen=True)
class KernelDecayReport(_Record):
    """L1 decay certification of a derivative of the heat kernel."""

    alpha: float
    beta: tuple[int, ...]
    times: tuple[float, ...]
    norms: tuple[float, ...]
    k_hat: float
    slope: float
    target_slope: float
    per_decade_slopes: tuple[float, ...]
    passed: bool

    _record_keys = {"norms": "l1_norms", "k_hat": "K_hat"}


def verify_K_assumption(
    triplet: LevyTriplet,
    grid: Grid,
    beta,
    times,
) -> KernelDecayReport:
    """Certify ||D^beta K_t||_L1 ~ t^{-|beta|/alpha} over a ladder of times.

    The L1 norms are computed by grid quadrature of the synthesized kernels;
    the decay exponent comes from a log-log least-squares fit and must land
    within 0.02 of -|beta|/alpha.  K_hat is the largest rescaled norm
    ||D^beta K_t||_L1 * t^{|beta|/alpha} over the ladder.
    """
    if np.isscalar(beta):
        if grid.dims != 1:
            raise ValueError("beta must give one order per axis in d > 1")
        beta = (beta,)
    beta = tuple(_check_integer("beta", b) for b in beta)
    if len(beta) != grid.dims or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonnegative multi-index, one entry per axis")
    times = tuple(sorted(float(t) for t in times))
    if len(times) < 2:
        raise ValueError("need at least two times to fit a decay slope")
    if times[0] <= 0.0:
        raise ValueError("kernel times must be positive")

    alpha = order_alpha(triplet)
    weight = sum(beta)
    cache = KernelCache(triplet, grid)
    norms = []
    for t in times:
        kernel = kernel_field(cache, t)
        if weight:
            kernel = spectral_derivative(kernel, beta)
        norms.append(float(grid.cell_volume * np.sum(np.abs(kernel.values))))
    log_t = np.log(np.asarray(times))
    log_n = np.log(np.asarray(norms))
    slope = float(np.polyfit(log_t, log_n, 1)[0])
    per_decade = tuple(
        float((log_n[i + 1] - log_n[i]) / (log_t[i + 1] - log_t[i]))
        for i in range(len(times) - 1)
    )
    target = -weight / alpha
    k_hat = max(n * t ** (weight / alpha) for n, t in zip(norms, times))
    passed = abs(slope - target) <= 0.02
    return KernelDecayReport(
        alpha=alpha,
        beta=beta,
        times=times,
        norms=tuple(norms),
        k_hat=float(k_hat),
        slope=slope,
        target_slope=float(target),
        per_decade_slopes=per_decade,
        passed=passed,
    )
