"""Grid probability measures, the bounded-Lipschitz metric, and tightness.

The metric pairs signed densities with test functions bounded by 1 and
1-Lipschitz in the node positions.  On a 1D grid the Lipschitz constraints
between adjacent nodes imply all others, and a dynamic program over the
finitely many values an optimal test function can take solves the chain
exactly on every grid, batched over the slices of a path (``path_metric``).
A stopping test reads only the sup over the slices.  An upper bound by
summation by parts and the pairing with a greedy feasible test function,
each widened by its rounding slack, bracket that sup and rule out the
slices that cannot hold it (``_sup_bracket``); the program runs on the
rest, so the sup is the maximum of ``path_metric`` bit for bit.  A
stopping loop compares its sups through ``_PathSups``, which decides each
comparison on the brackets and runs the program, batched over every
pending slice of every path, only when two brackets overlap, and once more
when the loop ends.  The linear program serves only 2D.  There it is exact
while the grid is small enough (every node pair closer than the cap 2
contributes a constraint); on finer grids we report a certified bracket
instead: a lower bound from a coarse-grid optimizer lifted by clamped (not
periodic) linear interpolation and re-certified on the fine grid, and an
upper bound from the adjacent-difference relaxation capped by twice the
total variation.  The callers of the linear program only choose which node
pairs it constrains.

The tightness weight psi(x) = log(1 + sqrt(1 + |x|^2)) - log 2 is a smooth
stand-in for log(1 + |x|): nonnegative, zero at the origin, radially
nondecreasing, and subadditive up to an additive slack of 0.7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ResolutionError
from .grid import Field, Grid, _require_finite_rows
from .levy import _jump_integral

_CLAMP_TOL = 1e-14
_NEGATIVITY_TOL = 1e-12
_MASS_TOL = 1e-9
_MASS_MATCH_TOL = 1e-8
_PSI_EPS = 1.0
SUBADDITIVITY_SLACK = 0.7
_EXACT_LP_NODES_2D = 32 * 32
_PHI_CAP = 1.0  # test functions bounded by 1, so any d0 value is <= 2
# nodes whose chain gains _chain_sup forms in one product
_CHAIN_BLOCK = 16
# (slices - 1) x nodes x lattice points of a 1D path from which
# ``_sup_bracket`` bounds its slices; below it a path takes the chain
# program at once.  For the sup of one path alone the bounds lose at 17k,
# 64 nodes x 9 slices and 32 x 33, and save 10% at 34k, 64 x 17, and 30%
# at 68k, 64 x 33.  Replaying a solve's stop tests through ``_PathSups``
# (one Xeon core), the brackets cost 12-21% more at 16 nodes (1.2k to
# 4.6k) and save 21% at 8.7k (32 x 17), 26% at 17k (32 x 33) and 62%
# at 68k; the threshold is set by the single calls, and no benchmark path
# lies between 4.6k and 32k (master16's reach 2.3k, mfg1d's are 68k)
_BOUNDS_WORK = 1 << 15
_EPS = np.finfo(float).eps


# --------------------------------------------------------------------------
# probability measures


@dataclass(frozen=True)
class Measure:
    """Nonnegative grid density with unit mass."""

    density: Field

    def __post_init__(self):
        rows = self.density.values[None]
        clamped, _ = _density_rows(self.grid, rows)
        if clamped is not rows:
            object.__setattr__(self, "density",
                               self.density.with_values(clamped[0]))

    @property
    def grid(self) -> Grid:
        return self.density.grid

    @property
    def values(self) -> np.ndarray:
        return self.density.values

    @classmethod
    def from_values(cls, grid: Grid, values) -> "Measure":
        return cls(Field(grid, values))

    @classmethod
    def normalized(cls, field: Field) -> "Measure":
        """Scale a nonnegative field to unit mass."""
        total = field.integral()
        if total <= 0.0:
            raise ValueError("cannot normalize a field with nonpositive mass")
        return cls(field.with_values(field.values / total))


def _density_rows(grid: Grid, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of grid densities as ``Measure`` validates one.

    ``rows`` has one leading axis of densities before the grid axes.
    The first row with a NaN or infinite entry raises NonFiniteFieldError.
    Entries below 1e-14 in magnitude are set to zero (``rows`` itself is
    returned when none is); then the first row with a value below -1e-12
    or a mass off 1 by more than 1e-9 raises ValueError.  Returns the
    clamped rows and their masses, each bitwise what ``Measure`` and the
    ``integral`` of its density give for that row alone.
    """
    _require_finite_rows(rows, "density")
    tiny = np.abs(rows) < _CLAMP_TOL
    if np.any(tiny):
        rows = np.where(tiny, 0.0, rows)
    flat = rows.reshape(len(rows), -1)
    lows = np.min(flat, axis=1)
    masses = grid.cell_volume * np.sum(flat, axis=1)
    bad = (lows < -_NEGATIVITY_TOL) | (np.abs(masses - 1.0) > _MASS_TOL)
    if np.any(bad):
        k = int(np.argmax(bad))
        if lows[k] < -_NEGATIVITY_TOL:
            raise ValueError(
                f"density has negative values down to {float(lows[k]):.3e}")
        raise ValueError(f"density mass {float(masses[k])!r} deviates from "
                         f"1 beyond {_MASS_TOL}")
    return rows, masses


# --------------------------------------------------------------------------
# tightness weight


def psi_profile(r):
    """Radial profile log(1 + sqrt(1 + r^2)) - log 2 of the tightness weight."""
    r = np.asarray(r, dtype=float)
    return np.log1p(np.sqrt(_PSI_EPS ** 2 + r ** 2)) - np.log1p(_PSI_EPS)


@dataclass(frozen=True)
class TightnessFn:
    """Sampled tightness weight with gradient/Hessian magnitude bounds."""

    psi: Field
    grad_bound: float
    hess_bound: float

    @classmethod
    def on_grid(cls, grid: Grid) -> "TightnessFn":
        mesh = grid.meshgrid()
        radius = np.sqrt(sum(x ** 2 for x in mesh))
        psi = Field(grid, psi_profile(radius))
        # The radial profile is monotone with derivative r/(s(1+s)),
        # s = sqrt(1+r^2); bounds from a dense radial sample.
        r = np.linspace(0.0, 200.0, 400001)
        dpsi = np.gradient(psi_profile(r), r)
        d2psi = np.gradient(dpsi, r)
        return cls(
            psi=psi,
            grad_bound=float(np.max(np.abs(dpsi)) * (1.0 + 1e-6)),
            hess_bound=float(np.max(np.abs(d2psi)) * (1.0 + 1e-3)),
        )


def verify_psi_jump_moment(triplet) -> float:
    """Numeric check that the big-jump part integrates the tightness weight.

    Returns the (unnormalized for stable families) value of the integral of
    psi over |z| >= 1 against each jump measure, summed over jump parts.
    Raises ``QuadratureError`` when a tail fails to converge.
    """
    return _jump_integral(
        triplet, psi_profile, 1.0, np.inf, 400,
        "tightness weight is not integrable against the big jumps")


# --------------------------------------------------------------------------
# bounded-Lipschitz metric


def _as_values(m) -> tuple[Grid, np.ndarray]:
    if isinstance(m, (Measure, Field)):
        return m.grid, m.values
    raise TypeError("expected a Measure or Field")


def _check_pair(m, m_prime) -> tuple[Grid, np.ndarray]:
    """The grid and weights cell_volume * (m' - m), once the masses match."""
    grid, a = _as_values(m)
    grid_b, b = _as_values(m_prime)
    if grid != grid_b:
        raise GridMismatchError("measures live on different grids")
    mass_gap = abs(float(np.sum(a - b))) * grid.cell_volume
    if mass_gap > _MASS_MATCH_TOL:
        raise ValueError(f"total masses differ by {mass_gap:.3e}; "
                         "metric undefined")
    return grid, grid.cell_volume * (b - a)


def _objective_scale(weights: np.ndarray) -> float:
    # The feasible set is objective-independent, so the optimum is exactly
    # positively homogeneous in the weights.  Normalizing protects tiny
    # differences (e.g. fixed-point gaps near a stopping tolerance) from
    # being swallowed by the LP solver's dual feasibility tolerance, which
    # otherwise certifies phi = 0 as optimal.
    return float(np.max(np.abs(weights)))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _adjacent_pairs(grid: Grid) -> tuple[np.ndarray, ...]:
    """(higher, lower, dx) for non-wrapping neighbours along each axis.

    On a 2D grid these relax the Euclidean constraints (path metric >=
    Euclidean) to an upper bound.  Cached, read-only.
    """
    idx = np.arange(grid.node_count).reshape(grid.shape)
    higher, lower, dist = [], [], []
    for ax, n in enumerate(grid.n):
        higher.append(idx.take(range(1, n), axis=ax).ravel())
        lower.append(idx.take(range(n - 1), axis=ax).ravel())
        dist.append(np.full(higher[-1].size, grid.dx[ax]))
    return _frozen(*(np.concatenate(a) for a in (higher, lower, dist)))


@functools.lru_cache(maxsize=4)
def _near_pairs(grid: Grid) -> tuple[np.ndarray, ...]:
    """(first, second, distance) for node pairs closer than the cap 2.

    Farther pairs are already covered by the box bound |phi| <= 1, so the
    program is exact in any dimension.  Pairs come in ``triu`` order.
    Cached, read-only (a 32x32 grid holds about half a million pairs).
    """
    pts = np.stack([m.ravel() for m in grid.meshgrid()], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    d = dist[iu, ju]
    keep = d < 2.0 * _PHI_CAP
    return _frozen(iu[keep], ju[keep], d[keep])


def _lipschitz_lp(grid: Grid, weights: np.ndarray,
                  pairs: tuple[np.ndarray, ...]) -> tuple[float, np.ndarray]:
    """Maximize w.phi over |phi| <= 1 and |phi_p - phi_q| <= d on ``pairs``.

    Returns the optimum and the optimizer shaped like the grid.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    scale = _objective_scale(weights)
    if scale == 0.0:
        return 0.0, np.zeros(grid.shape)
    first, second, dist = pairs
    m_rows = dist.size
    rows = np.repeat(np.arange(2 * m_rows), 2)
    cols = np.stack([first, second, first, second], axis=1).ravel()
    data = np.tile([1.0, -1.0, -1.0, 1.0], m_rows)
    a_ub = coo_matrix((data, (rows, cols)), shape=(2 * m_rows, grid.node_count))
    res = linprog(
        -weights.ravel() / scale,
        A_ub=a_ub.tocsr(),
        b_ub=np.repeat(dist, 2),
        bounds=(-_PHI_CAP, _PHI_CAP),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return scale * float(-res.fun), res.x.reshape(grid.shape)


@functools.lru_cache(maxsize=16)
def _chain_lattice(dx: float) -> tuple[np.ndarray, int]:
    """The sorted lattice of ``_chain_sup`` and its window reach.

    The lattice is {1 - k dx} u {-1 + k dx} inside [-1, 1], about 4/dx
    points.  When the two sub-lattices are bitwise equal (every dyadic
    dx), it is one copy, and the points within dx of a lattice point are
    its neighbours, a reach of 1.  Otherwise the sorted sub-lattices
    alternate and the points within dx are the two on either side, a
    reach of 2.  Cached, read-only.
    """
    k = np.arange(int(2.0 / dx) + 1)
    rising = np.minimum(-1.0 + k * dx, 1.0)
    falling = np.maximum(1.0 - k[::-1] * dx, -1.0)
    if np.array_equal(rising, falling):
        return _frozen(rising)[0], 1
    return _frozen(np.stack((rising, falling), axis=1).ravel())[0], 2


def _chain_sup(weights: np.ndarray, dx: float) -> np.ndarray:
    """Maximize w.phi over |phi_j| <= 1 and |phi_{j+1} - phi_j| <= dx.

    One value per row of ``weights`` (shape (slices, nodes)).  At a vertex
    of this program every phi_j is joined by tight Lipschitz constraints to
    a node at +-1, so it lies on the lattice {1 - k dx} u {-1 + k dx}
    inside [-1, 1], and a max-plus dynamic program over that lattice is
    exact; ``_chain_lattice`` builds the lattice and says which lattice
    points lie within dx of each other.  Both copies of a value in the
    interleaved lattice see the same window {v - dx, v, v + dx}, so a
    one-copy and an interleaved lattice give the same value bitwise.

    The prefix values are held lattice-major, shape (lattice + 2 reach,
    slices), so every shifted window is one contiguous block, a view made
    once.  The gains w_j * lattice come from one product per block of
    ``_CHAIN_BLOCK`` nodes, so a node costs 1 + reach maximum calls and
    one add (three ufunc calls on one lattice copy, four on two), and
    memory stays O(slices x lattice).
    Rows only meet in elementwise operations: a row of a batch equals its
    single-row call bitwise.
    """
    if not np.all(np.isfinite(weights)):
        raise ValueError("bounded-Lipschitz weights must be finite")
    nodes = np.ascontiguousarray(weights.T)
    lattice, reach = _chain_lattice(dx)
    size = lattice.size
    lattice = lattice[:, None]
    # value of the best prefix ending at each lattice point, padded by
    # reach -inf rows per side so the window needs no edge cases
    best = np.full((size + 2 * reach, nodes.shape[1]), -np.inf)
    core = best[reach:reach + size]
    pair = np.empty((size + 2 * reach - 1, nodes.shape[1]))
    window = np.empty((size, nodes.shape[1]))
    # window of lattice point i: best[i .. i + 2 reach], padded index
    lower, upper, last = best[:-1], best[1:], best[2 * reach:]
    spans = [pair[2 * s:2 * s + size] for s in range(reach)]
    gains = np.empty((min(_CHAIN_BLOCK, len(nodes)),) + window.shape)
    for first in range(0, len(nodes), _CHAIN_BLOCK):
        block = gains[:len(nodes) - first]
        np.multiply(nodes[first:first + len(block), None], lattice, out=block)
        if first == 0:
            core[...] = block[0]
            block = block[1:]
        for gain in block:
            np.maximum(lower, upper, out=pair)
            np.maximum(spans[0], last, out=window)
            for span in spans[1:]:
                np.maximum(window, span, out=window)
            np.add(window, gain, out=core)
    return core.max(axis=0)


def _upper_or_exact(grid: Grid, weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Supremum of the metric program per slice, flagged True where exact.

    ``weights`` carries a leading slice axis.  Exact programs: the chain
    dynamic program on every 1D grid (one call for all slices), the near
    pairs on 2D grids up to 32x32.  Elsewhere the adjacent-difference
    relaxation capped by the L1 norm gives an upper bound, flagged False.
    """
    if grid.dims == 1:
        return _chain_sup(weights, grid.dx[0]), True
    if grid.node_count <= _EXACT_LP_NODES_2D:
        return np.array([_lipschitz_lp(grid, w, _near_pairs(grid))[0]
                         for w in weights]), True
    return np.array([
        min(_lipschitz_lp(grid, w, _adjacent_pairs(grid))[0],
            float(np.sum(np.abs(w)))) for w in weights]), False


def _coarsen(values: np.ndarray, factor: tuple[int, ...]) -> np.ndarray:
    out = values
    for ax, f in enumerate(factor):
        if f == 1:
            continue
        shape = list(out.shape)
        shape[ax] //= f
        shape.insert(ax + 1, f)
        out = out.reshape(shape).sum(axis=ax + 1)
    return out


def _certified_lower_2d(grid: Grid, weights: np.ndarray) -> float:
    # Solve on a pooled coarse grid, lift the optimizer by clamped linear
    # interpolation (the metric is not periodic, so the lift must not ramp
    # across the wrap cell), then rescale until it verifiably satisfies the
    # fine-grid constraints: the resulting functional value is a true lower
    # bound.  16 nodes per axis keeps the pooled program well under a second.
    # Coarse node i pools fine nodes i*f .. i*f + f - 1, so the lift places
    # it at their centre, (f - 1)/2 fine cells past fine node i*f.
    factor = tuple(max(1, n // 16) for n in grid.n)
    coarse = Grid(tuple(n // f for n, f in zip(grid.n, factor)), grid.half_width)
    _, lifted = _lipschitz_lp(coarse, _coarsen(weights, factor),
                              _near_pairs(coarse))
    for ax in range(grid.dims):
        fine_x = grid.axis(ax)
        coarse_x = coarse.axis(ax) + 0.5 * (factor[ax] - 1) * grid.dx[ax]
        lifted = np.apply_along_axis(
            lambda v: np.interp(fine_x, coarse_x, v), ax, lifted)
    scale = max(1.0, float(np.max(np.abs(lifted))) / _PHI_CAP)
    for ax in range(grid.dims):
        diffs = np.abs(np.diff(lifted, axis=ax)) / grid.dx[ax]
        if diffs.size:
            scale = max(scale, float(np.max(diffs)))
    lifted = lifted / scale
    lower = float(np.sum(lifted * weights))
    return max(lower, 0.0)


def d0_interval(m, m_prime) -> tuple[float, float]:
    """Bracket [lower, upper] for the bounded-Lipschitz metric.

    Exact configurations return a degenerate bracket.  Fine 2D grids return
    a certified interval: interpolated coarse optimizer below, the
    adjacent-difference relaxation capped by 2 TV above.
    """
    grid, weights = _check_pair(m, m_prime)
    uppers, exact = _upper_or_exact(grid, weights[None])
    upper = float(uppers[0])
    if exact:
        return upper, upper
    lower = _certified_lower_2d(grid, weights)
    return lower, max(upper, lower)


def d0_distance(m, m_prime) -> float:
    """Bounded-Lipschitz distance between equal-mass signed grid densities.

    Exact on every 1D grid, by the chain dynamic program, and on 2D grids up
    to 32x32, by the linear program; beyond that the certified upper bound
    of ``d0_interval`` is returned, which is the conservative choice for
    every tolerance check in this package.
    """
    grid, weights = _check_pair(m, m_prime)
    return float(_upper_or_exact(grid, weights[None])[0][0])


def signed_dual_norm(f: Field) -> float:
    """Bounded-Lipschitz dual norm of a signed grid density.

    Supremum of the pairing against test functions bounded by 1 and
    1-Lipschitz, with no mass-matching requirement: the norm of a field of
    total mass mu is at least |mu| (take phi constant).  For two densities
    of equal mass, the norm of their difference is ``d0_distance``.  Exact
    where the metric is exact; otherwise the adjacent-difference
    relaxation capped by the L1 norm, an upper bound.
    """
    grid, values = _as_values(f)
    return float(_upper_or_exact(grid, grid.cell_volume * values[None])[0][0])


def _path_weights(grid: Grid, path) -> np.ndarray:
    """The metric's weights, slice by slice, as ``path_metric`` takes them."""
    path = np.asarray(path, dtype=float)
    if path.shape[1:] != grid.shape:
        raise GridMismatchError("measures live on different grids")
    return grid.cell_volume * path


def path_metric(grid: Grid, path) -> np.ndarray:
    """The dual norm slice by slice along the leading axis of ``path``.

    Entry k is ``signed_dual_norm(path[k])``, so on the differences
    ``b - a`` of two equal-mass paths it is the ``d0_distance`` of each
    pair of slices, bit for bit.  Values equal the single-slice calls; a
    1D path costs one dynamic-program call over every slice.  A caller
    that needs only the sup over the slices records the path in a
    ``_PathSups``, which runs the program on fewer slices.
    """
    return _upper_or_exact(grid, _path_weights(grid, path))[0]


def _sup_bracket(grid: Grid, path) -> tuple[float, float, np.ndarray]:
    """Certified bracket [lo, hi] of ``np.max(path_metric(grid, path))``
    and the weight rows the exact program must see.

    The maximum of ``_chain_sup`` over the returned rows is that sup, bit
    for bit, and it lies in [lo, hi].  With C the prefix sums of a 1D
    slice's weights w, summation by parts against |phi| <= 1 and
    |phi_{j+1} - phi_j| <= dx bounds the slice's value by

        U = min(sum |w|, dx sum_{j<n-1} |C_j| + |C_{n-1}|),

    and the greedy potential with steps -dx sign(C_j), centred and
    clipped to [-1, 1], is feasible, so its pairing L is a lower bound.
    Each side is widened by a slack, a multiple of n eps (n dx + 2)
    sum |w| of its own slice, that covers the rounding of U, L and the
    program: lo = max(0, max(L - slack)) and hi = max(U + slack).  A
    slice with U + slack < lo cannot hold the maximum and is dropped
    from the rows; as rows of ``_chain_sup`` are bitwise independent, the
    maximum over the kept rows is the maximum over all.  A path too small
    for the bounds to pay (``_BOUNDS_WORK``), a path with a non-finite
    entry (which raises what ``path_metric`` raises) and a 2D grid take
    the exact value at once: lo = hi and no rows.
    """
    weights = _path_weights(grid, path)
    if grid.dims != 1:
        sup = float(np.max(_upper_or_exact(grid, weights)[0]))
        return sup, sup, weights[:0]
    n, dx = weights.shape[1], grid.dx[0]
    if (len(weights) - 1) * n * _chain_lattice(dx)[0].size < _BOUNDS_WORK \
            or not np.all(np.isfinite(weights)):
        sup = float(np.max(_chain_sup(weights, dx)))
        return sup, sup, weights[:0]
    sums = weights.cumsum(axis=1)
    mags = np.abs(sums)
    l1 = np.abs(weights).sum(axis=1)
    slack = 4.0 * _EPS * n * (n * dx + 2.0) * l1
    upper = np.minimum(l1, dx * mags[:, :-1].sum(axis=1) + mags[:, -1]) + slack
    # the greedy potential in units of -dx: integer steps, exact
    steps = np.zeros(weights.shape)
    np.sign(sums[:, :-1]).cumsum(axis=1, out=steps[:, 1:])
    steps -= 0.5 * (steps.max(axis=1) + steps.min(axis=1))[:, None]
    phi = np.clip(-dx * steps, -_PHI_CAP, _PHI_CAP)
    lo = max(0.0, float(((weights * phi).sum(axis=1) - slack).max()))
    return lo, float(upper.max()), weights[~(upper < lo)]


class _PathSups:
    """Path sups that a stopping loop compares, made exact on demand.

    ``add`` records a path's ``_sup_bracket`` times a positive ``scale``
    (a mixing weight).  Rounding is monotone, so scale * lo <= scale * sup
    <= scale * hi, and ``less`` decides a comparison with a bound on the
    bracket whenever the bound lies outside it.  Only when it does not
    does it ``resolve``: one ``_chain_sup`` call over every pending row of
    every recorded path, after which each of those brackets is its exact
    sup.  Rows of the program are bitwise independent, so ``sup(i)`` is
    bitwise ``np.max(path_metric(...))`` of path i, and every decision is
    the one the exact values give.
    """

    def __init__(self, grid: Grid):
        self._grid = grid
        self._scales: list[float] = []
        self._lo: list[float] = []
        self._hi: list[float] = []
        self._pending: list[tuple[int, np.ndarray]] = []

    def add(self, path, scale: float = 1.0) -> int:
        """Record the sup of ``path``'s dual norms; its index."""
        lo, hi, rows = _sup_bracket(self._grid, path)
        index = len(self._lo)
        self._scales.append(scale)
        self._lo.append(lo)
        self._hi.append(hi)
        if len(rows):
            self._pending.append((index, rows))
        return index

    def resolve(self) -> None:
        """Make every recorded sup exact, in one chain-program call."""
        if not self._pending:
            return
        sups = _chain_sup(np.concatenate([r for _, r in self._pending]),
                          self._grid.dx[0])
        start = 0
        for index, rows in self._pending:
            self._lo[index] = self._hi[index] = float(
                np.max(sups[start:start + len(rows)]))
            start += len(rows)
        self._pending.clear()

    def less(self, index: int, bound: float) -> bool:
        """scale * sup of path ``index`` < ``bound``, exactly."""
        scale = self._scales[index]
        if scale * self._lo[index] < bound <= scale * self._hi[index]:
            self.resolve()
        return scale * self._hi[index] < bound

    def sup(self, index: int) -> float:
        """The exact sup of path ``index`` (unscaled)."""
        self.resolve()
        return self._lo[index]


# --------------------------------------------------------------------------
# mollification


def mollifier_field(grid: Grid, eps: float) -> Field:
    """Normalized compactly supported radial bump of radius eps.

    A NaN or infinite radius raises ValueError, one below 2*dx
    ResolutionError.
    """
    if not np.isfinite(eps):
        raise ValueError(f"mollifier radius {eps!r} is not finite")
    if eps < 2.0 * max(grid.dx):
        raise ResolutionError(
            f"mollifier radius {eps:g} below 2*dx = {2.0 * max(grid.dx):g}"
        )
    mesh = grid.meshgrid()
    r_sq = sum(x ** 2 for x in mesh) / eps ** 2
    vals = np.zeros(grid.shape)
    inside = r_sq < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r_sq[inside]))
    total = float(np.sum(vals)) * grid.cell_volume
    return Field(grid, vals / total)
