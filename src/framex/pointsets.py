"""Finite-window density estimation for discrete point sets.

The density of an infinite set is defined through window counts as the
window radius grows without bound.  Finite samples cannot take that limit,
so the estimator here scans a ladder of radii, reports the inf/sup count
densities per radius, and quotes the values at the largest window.  The
full curve stays in the result for convergence inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .linalg import _times_pow2, _top_exponents

__all__ = [
    "PointSet",
    "DensityEstimate",
    "ball_volume",
    "density",
    "uniformly_discrete",
    "union_density",
    "STEP_DIVISOR",
]

# default center grid step is radius / STEP_DIVISOR
STEP_DIVISOR = 20

_EDGE_TOL = 1e-12
# pairs expanded at once, and about the groups of one column-scan block; bounds
# the scans' scratch memory.  The per-pair window scan of 8,192 uniform random
# points (d = 2, r = 20, step 1, 2 CPUs) takes 15.5 ms at this size and 20.1 ms
# at 2^15, whose temporaries peak at 5.3 MiB instead of 1.1 MiB
_PAIR_BATCH = 1 << 12
# the window scan's difference array must be addressable: its bytes fit in an intp
_MAX_CENTRES = np.iinfo(np.intp).max // 8
# the column scan's tables each hold at most this many times (distinct
# points + centres) entries; past that the per-pair scan runs
_TABLE_FACTOR = 16
_FLOAT_MAX = float(np.finfo(float).max)


class PointSet:
    """Finite sample of a point configuration, faithful inside a ball.

    declared_extent is the radius R of the ball around the origin inside
    which the sample is complete; density windows must stay inside it.
    """

    __slots__ = ("_points", "_extent", "_order")

    def __init__(self, points, declared_extent: float, ambient_dim: int | None = None):
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            # one coordinate per point; an empty list takes the declared dimension
            p = p.reshape(0, int(ambient_dim)) if p.size == 0 and ambient_dim is not None else p[:, None]
        if p.ndim != 2 or p.shape[1] == 0:
            raise PreconditionError(f"expected (count, dim) coordinates, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise PreconditionError("point coordinates must be finite")
        if ambient_dim is not None and p.shape[1] != int(ambient_dim):
            raise DimensionMismatchError(
                f"points live in dim {p.shape[1]}, declared {ambient_dim}"
            )
        extent = float(declared_extent)
        if not math.isfinite(extent) or extent <= 0:
            raise PreconditionError(f"declared extent must be positive and finite, got {extent}")
        if p.shape[0]:
            worst = float(np.max(_radii(p)))
            if worst > extent * (1.0 + _EDGE_TOL):
                raise PreconditionError(
                    f"point at radius {worst:.6g} escapes the declared extent {extent:.6g}"
                )
        p.setflags(write=False)
        self._points = p
        self._extent = extent
        self._order = None

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def ambient_dim(self) -> int:
        return self._points.shape[1]

    @property
    def declared_extent(self) -> float:
        return self._extent

    def __len__(self) -> int:
        return self._points.shape[0]

    def _lex_order(self) -> np.ndarray:
        """Stable lexicographic order of the rows, sorted once: density and uniformly_discrete share it."""
        if self._order is None:
            self._order = np.lexsort(self._points.T[::-1])
        return self._order

    def __repr__(self):
        return (
            f"PointSet(count={len(self)}, dim={self.ambient_dim}, "
            f"extent={self._extent:.6g})"
        )


@dataclass(frozen=True)
class DensityEstimate:
    """Window-count densities: quoted values plus the full radius curve.

    per_window holds one (radius, lower, upper) triple per scanned radius;
    lower and upper are the entries of the largest radius.
    """

    lower: float
    upper: float
    window_radii: tuple
    per_window: tuple


def _radii(p: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, sized by a power of two so squares cannot overflow.

    A norm above the float range reads inf.
    """
    e = _top_exponents(p)
    with np.errstate(over="ignore"):
        return _times_pow2(np.linalg.norm(_times_pow2(p, -e[:, None]), axis=1), e)


def ball_volume(dim: int, radius: float) -> float:
    """Euclidean ball volume pi^(k/2) r^k / Gamma(k/2 + 1); PreconditionError if not finite."""
    k = int(dim)
    if k < 1:
        raise PreconditionError(f"dimension must be at least 1, got {k}")
    r = float(radius)
    if r < 0:
        raise PreconditionError(f"negative radius {r}")
    try:
        volume = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * r**k
    except OverflowError:
        volume = math.inf
    if not math.isfinite(volume):
        raise PreconditionError(
            f"the volume of the {k}-ball of radius {r:.6g} is beyond the float range"
        )
    return volume


def _center_axis(half: float, step: float) -> np.ndarray:
    """Centre coordinates along one axis; the centre grid is their d-fold product."""
    axis = np.arange(-half, half + step / 2.0, step)
    return axis if axis.size else np.zeros(1)


def _first(end, m, holds):
    """Step each end[i] to the least j in [0, m] with holds(j, i); holds stays true from there on.

    Each direction's first test covers the whole arrays, so only the ends
    that move are gathered.  An index past the axis reads its nearest end,
    whose test is then ignored.
    """
    for edge, offset, want, delta in ((0, -1, True, -1), (m, 0, False, 1)):
        sel = np.flatnonzero((end != edge) & (holds(end + offset, slice(None)) == want))
        while sel.size:
            end[sel] += delta
            sel = sel[end[sel] != edge]
            sel = sel[holds(end[sel] + offset, sel) == want]


def _runs(axis, x, partial, cap):
    """Per pair, the index run [lo, hi) of grid points a with partial + (a - x)**2 <= cap.

    Every rounded operation is monotone, so t = fl(a - x) rises along the
    sorted axis and the sum depends on |t| alone: lo is the first grid
    point with t >= 0 or inside the window, hi the first with t >= 0 and
    outside it, and each test holds from there on.  The grid's arithmetic,
    axis[0] and its step, guesses both ends; each then steps with the exact
    test until it is fixed.  partial <= cap.
    """
    m = axis.size
    step = axis[1] - axis[0] if m > 1 else 1.0
    at = (x - axis[0]) / step
    reach = np.sqrt(cap - partial) / step

    def start(j, i):
        t = axis.take(j, mode="clip") - x[i]
        return (t >= 0.0) | (partial[i] + t * t <= cap)

    def stop(j, i):
        t = axis.take(j, mode="clip") - x[i]
        return (t >= 0.0) & (partial[i] + t * t > cap)

    lo = np.ceil(at - reach).clip(0, m).astype(np.intp)
    hi = (at + reach + 1.0).clip(0, m).astype(np.intp)  # floor(at + reach) + 1
    _first(lo, m, start)
    _first(hi, m, stop)
    return lo, hi


def _batches(lo, hi):
    """(run index, grid index) for every index of every run [lo, hi), in batches of about _PAIR_BATCH."""
    width = hi - lo
    ends = np.cumsum(width)
    start = 0
    while start < ends.size:
        prior = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, prior + _PAIR_BATCH, side="right")))
        if ends[stop - 1] > prior:
            w = width[start:stop]
            offset = np.repeat(ends[start:stop] - w - lo[start:stop], w)
            yield np.repeat(np.arange(start, stop), w), np.arange(prior, ends[stop - 1]) - offset
        start = stop


def _distinct(ps: PointSet):
    """(distinct rows in lexicographic order, float multiplicities): rows equal as floats, so +0.0 and -0.0 alike, merge."""
    rows = ps.points[ps._lex_order()]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = np.flatnonzero(new)
    return rows[first], np.diff(np.r_[first, rows.shape[0]]).astype(float)


def _leading(lead, axis, cap):
    """Batches of (row, owner, partial): each leading centre row within cap of lead[owner].

    The centre coordinates are fixed one axis at a time.  row is the flat
    index of the leading coordinates on the grid axis^k, k = lead.shape[1],
    and partial their fl((c_0 - x_0)^2) + ... added left to right.  With no
    leading axis there is one batch: row 0 and partial 0 for every owner.
    """
    m = axis.size

    def descend(k, row, owner, partial):
        if k == lead.shape[1]:
            yield row, owner, partial
            return
        x = lead[owner, k]
        lo, hi = _runs(axis, x, partial, cap)
        for pick, j in _batches(lo, hi):
            yield from descend(k + 1, row[pick] * m + j, owner[pick], partial[pick] + (axis[j] - x[pick]) ** 2)

    n = lead.shape[0]
    yield from descend(0, np.zeros(n, dtype=np.intp), np.arange(n), np.zeros(n))


def _pair_diff(points, axis, cap, weights, size):
    """Per (centre row, point) pair, the weight at both ends of its last-axis run, in a difference array."""
    diff = np.zeros(size)
    for row, owner, partial in _leading(points[:, :-1], axis, cap):
        lo, hi = _runs(axis, points[owner, -1], partial, cap)
        base = row * (axis.size + 1)
        w = weights[owner]
        diff += np.bincount(base + lo, w, size)
        diff -= np.bincount(base + hi, w, size)
    return diff


def _column_diff(points, axis, cap, weights, size, limit):
    """_pair_diff's difference array from the columns, or None if one of its tables passes limit entries.

    A column is a run of consecutive points with equal leading coordinates,
    so lexicographically sorted points give one column per distinct tuple.
    The leading scan (_leading) runs once per column.  A pair's run along
    the last axis depends only on its partial sum and the point's last
    coordinate, so both are coded by their distinct values and each
    (partial, coordinate) run is settled once, by the same exact test.
    The weight of each (row, partial, coordinate) group is the product of
    the 0/1 (row * partial, column) incidence and the (column, coordinate)
    weight table, formed for a block of centre rows at a time; every sum
    is an integer below 2^53, so the product is exact in any order.
    """
    lead = points[:, :-1]
    new = np.ones(points.shape[0], dtype=bool)
    new[1:] = np.any(lead[1:] != lead[:-1], axis=1)
    starts = np.flatnonzero(new)
    ys, ycode = np.unique(points[:, -1], return_inverse=True)
    ncol, ny = starts.size, ys.size
    if ncol * ny > limit:
        return None
    table = np.bincount((np.cumsum(new) - 1) * ny + ycode, weights, ncol * ny).reshape(ncol, ny)
    batches, total = [], 0
    for batch in _leading(lead[starts], axis, cap):
        total += batch[0].size
        if total > limit:
            return None
        batches.append(batch)
    if not batches:
        return np.zeros(size)
    row, col, partial = (np.concatenate(arrays) for arrays in zip(*batches))
    sums, pcode = np.unique(partial, return_inverse=True)
    stride = axis.size + 1
    rows = size // stride
    if rows * sums.size * max(ncol, ny) > limit:
        return None
    lo, hi = _runs(axis, np.tile(ys, sums.size), sums.repeat(ny), cap)
    order = np.argsort(row, kind="stable")
    row, col, pcode = row[order], col[order], pcode[order]
    # centre rows per block, whose incidence and groups hold about _PAIR_BATCH entries
    per = max(1, _PAIR_BATCH // (sums.size * max(ncol, ny)))
    cut = np.searchsorted(row, np.arange(0, rows + per, per))
    diff = np.zeros(size)
    for first, i, j in zip(range(0, rows, per), cut[:-1], cut[1:]):
        k = min(per, rows - first)
        incidence = np.zeros((k * sums.size, ncol))
        incidence[(row[i:j] - first) * sums.size + pcode[i:j], col[i:j]] = 1.0
        weight = (incidence @ table).ravel()
        base = np.arange(0, k * stride, stride)[:, None]
        block = diff[first * stride : (first + k) * stride]
        block += np.bincount((base + lo).ravel(), weight, k * stride)
        block -= np.bincount((base + hi).ravel(), weight, k * stride)
    return diff


def _window_counts(points: np.ndarray, axis: np.ndarray, cap: float, weights) -> np.ndarray:
    """Weighted point count of every window of squared radius cap centred on the grid axis^d.

    Point i adds weights[i], an integer multiplicity.  It is counted when
    fl((c_0 - p_0)^2) + ... + fl((c_{d-1} - p_{d-1})^2), added left to right
    in axis order, is at most cap; for d <= 7 this is exactly the sum
    np.sum(..., axis=-1) forms.  Fixing the leading centre coordinates one
    axis at a time (_leading) keeps only the (row, point) pairs whose
    partial sum stays within cap; along the last axis each pair then covers
    one run of centres, whose ends add and remove the weight in a
    difference array.  Every sum is an integer below 2^53, so the float
    accumulation is exact and the two paths below count alike.

    For d >= 2 the column scan (_column_diff) runs when each of its tables
    has at most _TABLE_FACTOR * (n + centres) entries, which holds for
    lattices and their subsets at centre steps that keep partial sums
    repeating.  Its work is about columns * (2r / step)^(d-1) entries, one
    run per distinct (partial sum, last coordinate) key, and a product and
    two bincounts over its (row, partial sum, last coordinate) groups.
    Otherwise, as for points whose coordinates do not repeat, the per-pair
    scan (_pair_diff) does about n * (2r / step)^(d-1) pairs, expanded
    _PAIR_BATCH at a time.  Memory is O(n + centres) on either path.
    """
    m = axis.size
    dim = points.shape[1]
    size = m ** (dim - 1) * (m + 1)
    diff = None
    if dim > 1:
        diff = _column_diff(points, axis, cap, weights, size, _TABLE_FACTOR * (points.shape[0] + size))
    if diff is None:
        diff = _pair_diff(points, axis, cap, weights, size)
    return np.cumsum(diff.reshape(-1, m + 1)[:, :m], axis=1).astype(np.int64)


def _window_extrema(points, weights, extent: float, radius: float, step: float):
    dim = points.shape[1]
    vol = ball_volume(dim, radius)
    half = extent - radius
    per_axis = (half + step / 2.0 + half) / step  # np.arange's length before its ceil
    m = math.ceil(min(per_axis, _MAX_CENTRES + 1.0))
    if m ** (dim - 1) * (m + 1) > _MAX_CENTRES:
        raise PreconditionError(
            f"the centre grid of step {step:.6g} at radius {radius:.6g} has about "
            f"{per_axis:.6g}^{dim} centres, more than an array can index"
        )
    cap = radius * radius * (1.0 + _EDGE_TOL)
    if not math.isfinite(cap):
        raise PreconditionError(f"radius {radius:.6g} squares beyond the float range")
    axis = _center_axis(half, step)
    if points.shape[0] == 0:
        return radius, 0.0, 0.0
    try:
        counts = _window_counts(points, axis, cap, weights)
    except MemoryError as exc:
        raise PreconditionError(
            f"the centre grid of step {step:.6g} at radius {radius:.6g} has "
            f"{m}^{dim} centres, more than memory can hold"
        ) from exc
    return radius, int(counts.min()) / vol, int(counts.max()) / vol


def density(ps: PointSet, radii, center_grid_step: float | None = None) -> DensityEstimate:
    """Scan window centers inside the faithful region at each radius.

    Windows must fit twice into the declared extent so that the center grid
    retains room to move.  The default grid step is radius / STEP_DIVISOR.
    Coinciding points are counted once, with their multiplicity.  A centre
    grid too large to index or allocate raises PreconditionError.
    """
    rads = sorted(float(r) for r in radii)
    if not rads:
        raise PreconditionError("need at least one window radius")
    if not all(math.isfinite(r) for r in rads):
        raise PreconditionError(f"window radii must be finite, got {rads}")
    if rads[0] <= 0:
        raise PreconditionError(f"window radii must be positive, got {rads[0]}")
    if rads[-1] > ps.declared_extent / 2.0 * (1.0 + _EDGE_TOL):
        raise PreconditionError(
            f"radius {rads[-1]:.6g} exceeds half the declared extent "
            f"{ps.declared_extent:.6g}; the window escapes the faithful region"
        )
    points, weights = _distinct(ps)

    def scan(r: float):
        step = center_grid_step if center_grid_step is not None else r / STEP_DIVISOR
        if not (math.isfinite(step) and step > 0):
            raise PreconditionError(f"grid step must be finite and positive, got {step}")
        return _window_extrema(points, weights, ps.declared_extent, r, step)

    curve = [scan(r) for r in rads]
    return DensityEstimate(
        lower=curve[-1][1],
        upper=curve[-1][2],
        window_radii=tuple(rads),
        per_window=tuple(curve),
    )


def _cells(x: np.ndarray, side: float) -> np.ndarray:
    """Integer cell of each coordinate: floor(fl(x - x0) / side) within a run, runs 2 cells apart.

    Sorted coordinates break into runs wherever the computed gap between
    neighbours exceeds side; x0 is the first coordinate of a run.  Cells
    stay O(n) however wide the span, and nothing overflows: a gap beyond the
    float range reads inf, a break.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cut = np.flatnonzero(np.diff(xs) > side) + 1
    run = np.zeros(xs.size, dtype=np.intp)
    run[cut] = 1
    run = np.cumsum(run)
    first = np.r_[0, cut]
    pos = np.floor((xs - xs[first][run]) / side).astype(np.int64)
    width = pos[np.r_[cut, xs.size] - 1] + 2
    cells = np.empty_like(pos)
    cells[order] = pos + (np.cumsum(width) - width)[run]
    return cells


def _grid_min(pts: np.ndarray, best: float, dist2) -> float:
    """min(best, dist2 over all pairs), from the pairs in equal or adjacent grid cells.

    The cells are squares of side s over the two axes with the most
    distinct coordinates (_cells); each point meets the rest of its own
    cell, the cell above it, and the three cells of the next column, which
    are contiguous in the sorted cell keys.

    Rounding.  With u = 2^-53, a pair can lower best only if its computed
    squared distance is below beta = min(best, float max).  A rounded sum
    of non-negative terms is never below a term, so each axis term
    fl(t^2), t = fl(a - b), is at most beta: t^2 <= beta / (1 - u) +
    2^-1075 (the last for a square that underflows), and |a - b| <= |t| /
    (1 - u).  With r = fl(sqrt(beta)), which is at least (1 - u)
    sqrt(beta), every such pair has |a - b| <= rho = (r + 2^-537) /
    (1 - u)^3 on each axis.  The side s = (r + 2^-537)(1 + (n + 1) 2^-49),
    rounded three times, is at least rho (1 + 8 u (n + 1)).  A gap that
    breaks a run is above s / (1 + u) >= rho, so the pair is in one run.
    There a <= b lie at most (n - 1) s / (1 - u) above x0, and the two
    computed quotients fl(fl(a - x0) / s), fl(fl(b - x0) / s) differ by at
    most rho / s + (4 u + u^2)(n - 1) / (1 - u) + 2^-1074 < 1 for
    n < 2^45, so their floors differ by at most 1.
    """
    n = pts.shape[0]
    side = (math.sqrt(min(best, _FLOAT_MAX)) + 2.0**-537) * (1.0 + (n + 1) * 2.0**-49)
    distinct = [np.unique(column).size for column in pts.T]
    ax, ay = np.argsort(distinct, kind="stable")[::-1][:2]
    cx, cy = _cells(pts[:, ax], side), _cells(pts[:, ay], side)
    stride = int(cy.max()) + 3
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    key = key[order]
    lo = np.r_[np.arange(1, n + 1), np.searchsorted(key, key + stride - 1)]
    hi = np.r_[np.searchsorted(key, key + 1, "right"), np.searchsorted(key, key + stride + 1, "right")]
    owner = np.r_[order, order]
    for pick, j in _batches(lo, hi):
        best = min(best, float(dist2(owner[pick], order[j]).min()))
    return best


def uniformly_discrete(ps: PointSet):
    """Minimum pairwise separation; zero or fewer than two points count as discrete.

    Returns (separated, delta) where delta is the minimum distance
    (infinite for at most one point) and separated says delta > 0.  A
    duplicated point yields (False, 0.0), and so does a pair whose squared
    distance underflows.  Lexicographic neighbours give an upper bound,
    which in one dimension is already the minimum: rounding is monotone.
    Otherwise a grid of cells about as wide as the bound (_grid_min)
    evaluates only pairs in equal or adjacent cells.  Squared distances
    above the float range read inf; if every pair's does, no separation
    can be reported and PreconditionError is raised.  The pruning is exact:
    delta equals the all-pairs minimum.  Memory is O(n + _PAIR_BATCH).
    """
    n = len(ps)
    if n <= 1:
        return True, math.inf
    pts = ps.points

    def dist2(a, b):
        return np.sum((pts[a] - pts[b]) ** 2, axis=-1)

    with np.errstate(over="ignore"):
        lex = ps._lex_order()
        best = float(dist2(lex[1:], lex[:-1]).min())
        if best > 0.0 and pts.shape[1] > 1:
            best = _grid_min(pts, best, dist2)
    if best == math.inf:
        raise PreconditionError("every pairwise squared distance exceeds the float range")
    delta = math.sqrt(best)
    return delta > 0.0, delta


def union_density(sets, radii, center_grid_step: float | None = None) -> DensityEstimate:
    """Density of the multiset union; points keep their multiplicity.

    The faithful region of the union is the smallest declared extent;
    points beyond it are unreachable by any admissible window and are
    dropped from the scan (the multiset inside the region is unchanged).
    """
    group = list(sets)
    if not group:
        raise PreconditionError("need at least one point set")
    dim = group[0].ambient_dim
    for ps in group[1:]:
        if ps.ambient_dim != dim:
            raise DimensionMismatchError(
                f"ambient dims differ: {ps.ambient_dim} vs {dim}"
            )
    extent = min(ps.declared_extent for ps in group)
    stacked = np.vstack([ps.points for ps in group]) if group else np.zeros((0, dim))
    if stacked.shape[0]:
        keep = _radii(stacked) <= extent * (1.0 + _EDGE_TOL)
        stacked = stacked[keep]
    merged = PointSet(stacked, extent, ambient_dim=dim)
    return density(merged, radii, center_grid_step)
