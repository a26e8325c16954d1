"""Grid probability measures, the bounded-Lipschitz metric, and tightness.

The metric pairs signed densities with test functions bounded by 1 and
1-Lipschitz in the node positions.  On a 1D grid the Lipschitz constraints
between adjacent nodes imply all others, and a dynamic program over the
finitely many values an optimal test function can take solves the chain
exactly on every grid, batched over the slices of a path (``path_metric``).
The linear program serves only 2D.  There it is exact while the grid is
small enough (every node pair closer than the cap 2 contributes a
constraint); on finer grids we report a certified bracket instead: a lower
bound from a coarse-grid optimizer lifted by clamped (not periodic) linear
interpolation and re-certified on the fine grid, and an upper bound from
the adjacent-difference relaxation capped by twice the total variation.
The callers of the linear program only choose which node pairs it
constrains.

The tightness weight psi(x) = log(1 + sqrt(1 + |x|^2)) - log 2 is a smooth
stand-in for log(1 + |x|): nonnegative, zero at the origin, radially
nondecreasing, and subadditive up to an additive slack of 0.7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, QuadratureError, ResolutionError
from .grid import Field, Grid, _require_finite_rows, periodic_convolve
from .levy import _jump_densities

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

    @property
    def mass(self) -> float:
        return self.density.integral()

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

    @classmethod
    def delta(cls, grid: Grid, point) -> "Measure":
        """Unit mass concentrated on the grid node nearest to ``point``."""
        vals = np.zeros(grid.shape)
        vals[grid.nearest_index(point)] = 1.0 / grid.cell_volume
        return cls(Field(grid, vals))

    @classmethod
    def uniform(cls, grid: Grid, lo: float, hi: float) -> "Measure":
        """Uniform probability on nodes with every coordinate in [lo, hi)."""
        mesh = grid.meshgrid()
        inside = np.ones(grid.shape, dtype=bool)
        for axis_vals in mesh:
            inside &= (axis_vals >= lo) & (axis_vals < hi)
        count = int(np.sum(inside))
        if count == 0:
            raise ValueError("no grid nodes inside the requested box")
        vals = np.where(inside, 1.0 / (count * grid.cell_volume), 0.0)
        return cls(Field(grid, vals))


def _density_rows(grid: Grid, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of grid densities as ``Measure`` validates one.

    ``rows`` has one leading axis of densities before the grid axes.
    The first row with a NaN or infinite entry raises NonFiniteFieldError.
    Entries below 1e-14 in magnitude are set to zero (``rows`` itself is
    returned when none is); then the first row with a value below -1e-12
    or a mass off 1 by more than 1e-9 raises ValueError.  Returns the
    clamped rows and their masses, each bitwise what ``Measure`` and
    ``Measure.mass`` give for that row alone.
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
    from scipy.integrate import quad

    total = 0.0
    for dens in _jump_densities(triplet):
        val, err = quad(
            lambda z: psi_profile(z) * dens(z),
            1.0,
            np.inf,
            epsabs=1e-10,
            epsrel=1e-8,
            limit=400,
        )
        if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(
                "tightness weight is not integrable against the big jumps"
            )
        total += val
    return total


# --------------------------------------------------------------------------
# bounded-Lipschitz metric


def _as_values(m) -> tuple[Grid, np.ndarray]:
    if isinstance(m, Measure):
        return m.grid, m.values
    if isinstance(m, Field):
        return m.grid, m.values
    raise TypeError("expected a Measure or Field")


def _check_pair(m, m_prime) -> tuple[Grid, np.ndarray]:
    grid_a, a = _as_values(m)
    grid_b, b = _as_values(m_prime)
    if grid_a != grid_b:
        raise GridMismatchError("measures live on different grids")
    return grid_a, _matched_weights(grid_a, a[None], b[None])[0]


def _matched_weights(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weights cell_volume * (b - a) per slice, once every mass matches."""
    axes = tuple(range(1, a.ndim))
    mass_gaps = np.abs(np.sum(a - b, axis=axes)) * grid.cell_volume
    for mass_gap in mass_gaps:
        if mass_gap > _MASS_MATCH_TOL:
            raise ValueError(
                f"total masses differ by {mass_gap:.3e}; metric undefined")
    return grid.cell_volume * (b - a)


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
def _chain_lattice(dx: float, nodes: int
                   ) -> tuple[np.ndarray, int, np.ndarray | None]:
    """The sorted lattice of ``_chain_sup``, its window reach, its holes.

    A vertex value 1 - k dx or -1 + k dx is joined to its node at +-1 by a
    chain of at most ``nodes`` - 1 tight steps, so only k <= nodes - 1 is
    kept: at most 2 ``nodes`` points, against about 4/dx uncapped.  When
    the two sub-lattices are bitwise equal (every dyadic dx), the lattice
    is one copy, and the points within dx of a lattice point are its
    neighbours, a reach of 1.  Otherwise the sorted sub-lattices alternate
    and the points within dx are the two on either side, a reach of 2.

    Where the cap binds, a kept point of one sub-lattice can lose the
    partner the interleaving gives it, and the two ends of the lattice
    stop interleaving or, farther apart, stop meeting.  The lattice keeps
    the uncapped layout there with a hole in each dropped slot, and a run
    of slots with no kept point shrinks to one row of holes, which leaves
    the points either side of it more than the reach apart.  Returns the
    holes as a boolean mask of the slots, None when there are none: the
    lattice is then the uncapped one.  Cached, read-only.
    """
    k = np.arange(int(2.0 / dx) + 1)
    rising = np.minimum(-1.0 + k * dx, 1.0)
    falling = np.maximum(1.0 - k[::-1] * dx, -1.0)
    # rising[i] lies i steps from -1, falling[i] k.size - 1 - i from +1
    near = (k <= nodes - 1, k[::-1] <= nodes - 1)
    if np.array_equal(rising, falling):
        slots, kept, reach = rising[:, None], (near[0] | near[1])[:, None], 1
    else:
        slots, kept, reach = (np.stack((rising, falling), axis=1),
                              np.stack(near, axis=1), 2)
    filled = kept.any(axis=1)
    rows = filled.copy()
    rows[1:] |= filled[:-1]
    lattice, holes = _frozen(slots[rows].ravel(), ~kept[rows].ravel())
    return lattice, reach, (holes if holes.any() else None)


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
    ``_CHAIN_BLOCK`` nodes, with -inf in the lattice's holes, so a node
    costs 1 + reach maximum calls and one add (three ufunc calls on one
    lattice copy, four on two), and memory stays O(slices x lattice).
    Rows only meet in elementwise operations: a row of a batch equals its
    single-row call bitwise.
    """
    if not np.all(np.isfinite(weights)):
        raise ValueError("bounded-Lipschitz weights must be finite")
    nodes = np.ascontiguousarray(weights.T)
    lattice, reach, holes = _chain_lattice(dx, len(nodes))
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
        if holes is not None:
            block[:, holes] = -np.inf
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


def path_metric(grid: Grid, path, reference=None) -> np.ndarray:
    """The metric slice by slice along the leading axis of ``path``.

    With ``reference`` (same shape), entry k is ``d0_distance`` between
    ``path[k]`` and ``reference[k]``, and every pair must match in mass;
    without it, entry k is ``signed_dual_norm(path[k])``.  Values equal
    the single-slice calls; a 1D path costs one dynamic-program call.
    """
    path = np.asarray(path, dtype=float)
    if path.shape[1:] != grid.shape or (
            reference is not None and np.shape(reference) != path.shape):
        raise GridMismatchError("measures live on different grids")
    if reference is None:
        weights = grid.cell_volume * path
    else:
        weights = _matched_weights(grid, path,
                                   np.asarray(reference, dtype=float))
    return _upper_or_exact(grid, weights)[0]


# --------------------------------------------------------------------------
# mollification


def mollifier_field(grid: Grid, eps: float) -> Field:
    """Normalized compactly supported radial bump of radius eps."""
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


def mollify(m: Measure, eps: float) -> Measure:
    """Convolve with the radius-eps bump; moves mass at most eps + dx in d0."""
    eta = mollifier_field(m.grid, eps)
    smoothed = periodic_convolve(m.density, eta)
    vals = smoothed.values.copy()
    vals[np.abs(vals) < _CLAMP_TOL] = 0.0
    np.maximum(vals, 0.0, out=vals)
    return Measure(Field(m.grid, vals))
