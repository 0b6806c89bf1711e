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
# (centre row, point) pairs expanded at once; bounds the scan's scratch memory
_PAIR_BATCH = 1 << 16


class PointSet:
    """Finite sample of a point configuration, faithful inside a ball.

    declared_extent is the radius R of the ball around the origin inside
    which the sample is complete; density windows must stay inside it.
    """

    __slots__ = ("_points", "_extent")

    def __init__(self, points, declared_extent: float, ambient_dim: int | None = None):
        p = np.asarray(points, dtype=np.float64)
        if p.size == 0:
            if ambient_dim is None:
                ambient_dim = p.shape[1] if p.ndim == 2 else 1
            p = np.zeros((0, int(ambient_dim)))
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2:
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
            worst = float(np.max(np.linalg.norm(p, axis=1)))
            if worst > extent * (1.0 + _EDGE_TOL):
                raise PreconditionError(
                    f"point at radius {worst:.6g} escapes the declared extent {extent:.6g}"
                )
        p.setflags(write=False)
        self._points = p
        self._extent = extent

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

    def __post_init__(self):
        if self.lower < 0 or self.upper < 0:
            raise PreconditionError("densities cannot be negative")
        if self.lower > self.upper:
            raise PreconditionError(
                f"lower estimate {self.lower} exceeds upper {self.upper}"
            )
        if len(self.window_radii) != len(self.per_window):
            raise PreconditionError("one curve entry per radius is required")


def ball_volume(dim: int, radius: float) -> float:
    """Euclidean ball volume pi^(k/2) r^k / Gamma(k/2 + 1)."""
    k = int(dim)
    if k < 1:
        raise PreconditionError(f"dimension must be at least 1, got {k}")
    r = float(radius)
    if r < 0:
        raise PreconditionError(f"negative radius {r}")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * r**k


def _center_axis(half: float, step: float) -> np.ndarray:
    """Centre coordinates along one axis; the centre grid is their d-fold product."""
    axis = np.arange(-half, half + step / 2.0, step)
    return axis if axis.size else np.zeros(1)


def _walk(end, bound, offset, want, delta, inside):
    """Step end[i] by delta while end[i] != bound[i] and inside(end[i] + offset, i) == want."""
    sel = np.flatnonzero(end != bound)
    while sel.size:
        sel = sel[inside(end[sel] + offset, sel) == want]
        end[sel] += delta
        sel = sel[end[sel] != bound[sel]]


def _runs(axis, x, partial, cap):
    """Per pair, the index run [lo, hi) of grid points a with partial + (a - x)**2 <= cap.

    Every rounded operation is monotone, so along the sorted axis the sum
    falls up to the first grid point >= x (the split) and rises after it:
    below the split the predicate turns true once, above it turns false
    once.  searchsorted on the square root guesses both ends and each end
    then steps with the exact predicate until it is fixed.  partial <= cap.
    """
    split = np.searchsorted(axis, x)
    reach = np.sqrt(cap - partial)
    lo = np.minimum(np.searchsorted(axis, x - reach), split)
    hi = np.maximum(np.searchsorted(axis, x + reach, side="right"), split)

    def inside(j, sel):
        return partial[sel] + (axis[j] - x[sel]) ** 2 <= cap

    _walk(lo, np.zeros_like(lo), -1, True, -1, inside)
    _walk(lo, split, 0, False, 1, inside)
    _walk(hi, np.full_like(hi, axis.size), 0, True, 1, inside)
    _walk(hi, split, -1, False, -1, inside)
    return lo, hi


def _expand(lo, hi):
    """(pair index, grid index) for every grid index of every run [lo, hi)."""
    width = hi - lo
    pick = np.repeat(np.arange(width.size), width)
    j = np.arange(pick.size) - np.repeat(np.cumsum(width) - width - lo, width)
    return pick, j


def _window_counts(points: np.ndarray, axis: np.ndarray, cap: float) -> np.ndarray:
    """Point count of every window of squared radius cap centred on the grid axis^d.

    A point is counted when fl((c_0 - p_0)^2) + ... + fl((c_{d-1} - p_{d-1})^2),
    added left to right in axis order, is at most cap; for d <= 7 this is
    exactly the sum np.sum(..., axis=-1) forms.  Fixing the leading centre
    coordinates one axis at a time keeps only the (row, point) pairs whose
    partial sum stays within cap; along the last axis each pair then covers
    one run of centres, added into a difference array.  Work is about
    n * (2r / step)^(d-1) pairs and memory is O(n + centres).
    """
    m = axis.size
    dim = points.shape[1]
    size = m ** (dim - 1) * (m + 1)
    diff = np.zeros(size, dtype=np.int64)

    def descend(k, row, owner, partial):
        x = points[owner, k]
        lo, hi = _runs(axis, x, partial, cap)
        if k == dim - 1:
            base = row * (m + 1)
            diff[:] += np.bincount(base + lo, minlength=size)
            diff[:] -= np.bincount(base + hi, minlength=size)
            return
        ends = np.cumsum(hi - lo)
        start = 0
        while start < ends.size:
            prior = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, prior + _PAIR_BATCH, side="right")))
            pick, j = _expand(lo[start:stop], hi[start:stop])
            pick += start
            nxt = partial[pick] + (axis[j] - x[pick]) ** 2
            descend(k + 1, row[pick] * m + j, owner[pick], nxt)
            start = stop

    n = points.shape[0]
    descend(0, np.zeros(n, dtype=np.intp), np.arange(n), np.zeros(n))
    return np.cumsum(diff.reshape(-1, m + 1)[:, :m], axis=1)


def _window_extrema(ps: PointSet, radius: float, step: float):
    vol = ball_volume(ps.ambient_dim, radius)
    axis = _center_axis(ps.declared_extent - radius, step)
    if len(ps) == 0:
        return radius, 0.0, 0.0
    counts = _window_counts(ps.points, axis, radius * radius * (1.0 + _EDGE_TOL))
    return radius, int(counts.min()) / vol, int(counts.max()) / vol


def density(
    ps: PointSet,
    radii,
    center_grid_step: float | None = None,
    *,
    step_divisor: int = STEP_DIVISOR,
) -> DensityEstimate:
    """Scan window centers inside the faithful region at each radius.

    Windows must fit twice into the declared extent so that the center grid
    retains room to move.  The default grid step is radius / step_divisor.
    """
    if step_divisor < 1:
        raise PreconditionError(f"step divisor must be at least 1, got {step_divisor}")
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

    def scan(r: float):
        step = center_grid_step if center_grid_step is not None else r / step_divisor
        if not (math.isfinite(step) and step > 0):
            raise PreconditionError(f"grid step must be finite and positive, got {step}")
        return _window_extrema(ps, r, step)

    curve = [scan(r) for r in rads]
    return DensityEstimate(
        lower=curve[-1][1],
        upper=curve[-1][2],
        window_radii=tuple(rads),
        per_window=tuple(curve),
    )


def uniformly_discrete(ps: PointSet):
    """Minimum pairwise separation; zero or fewer than two points count as discrete.

    Returns (separated, delta) where delta is the minimum distance
    (infinite for at most one point) and separated says delta > 0.  A
    duplicated point yields (False, 0.0).  Lexicographic neighbours give an
    upper bound; a sweep over the points sorted along the axis with the
    most distinct coordinates then evaluates only pairs whose term on that
    axis alone stays within the bound.  A sum of non-negative floats is
    never below one of its terms, so the pruning is exact and delta equals
    the all-pairs minimum.
    """
    n = len(ps)
    if n <= 1:
        return True, math.inf
    pts = ps.points

    def dist2(a, b):
        return np.sum((pts[a] - pts[b]) ** 2, axis=-1)

    lex = np.lexsort(pts.T[::-1])
    best = float(dist2(lex[1:], lex[:-1]).min())
    sweep = int(np.argmax([np.unique(column).size for column in pts.T]))
    order = np.argsort(pts[:, sweep], kind="stable")
    x = pts[order, sweep]
    starts = np.arange(n)
    k = 1
    while best > 0.0 and starts.size:
        starts = starts[: np.searchsorted(starts, n - k)]
        starts = starts[(x[starts + k] - x[starts]) ** 2 <= best]
        if starts.size:
            best = min(best, float(dist2(order[starts + k], order[starts]).min()))
        k += 1
    delta = math.sqrt(max(best, 0.0))
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
        keep = np.linalg.norm(stacked, axis=1) <= extent * (1.0 + _EDGE_TOL)
        stacked = stacked[keep]
    merged = PointSet(stacked, extent, ambient_dim=dim)
    return density(merged, radii, center_grid_step)
