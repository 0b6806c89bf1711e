"""Tests for window-count density estimation on finite point samples."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from framex import PointSet, ball_volume, density, pointsets, uniformly_discrete, union_density
from framex.errors import DimensionMismatchError, PreconditionError
from framex.pointsets import STEP_DIVISOR, _center_axis, _window_counts


def lattice(spacing, extent):
    n = int(math.floor(extent / spacing))
    return PointSet(np.arange(-n, n + 1) * spacing, extent)


def test_ball_volume_low_dims():
    assert ball_volume(1, 3.0) == pytest.approx(6.0)
    assert ball_volume(2, 2.0) == pytest.approx(math.pi * 4.0)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 / 3.0 * math.pi)
    assert ball_volume(2, 0.0) == 0.0


def test_ball_volume_guards():
    with pytest.raises(PreconditionError):
        ball_volume(0, 1.0)
    with pytest.raises(PreconditionError):
        ball_volume(2, -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ball_volume_beyond_the_float_range():
    with pytest.raises(PreconditionError, match="2-ball of radius 1e\\+200"):
        ball_volume(2, 1e200)
    # r^2 is finite here, pi r^2 is not
    with pytest.raises(PreconditionError, match="2-ball of radius"):
        ball_volume(2, 1.3e154)
    with pytest.raises(PreconditionError, match="3-ball of radius 1e\\+120"):
        ball_volume(3, 1e120)
    assert ball_volume(2, 1e150) == pytest.approx(math.pi * 1e300)


def test_pointset_shapes():
    ps = PointSet([1.0, 2.0], 3.0)
    assert ps.ambient_dim == 1
    assert len(ps) == 2
    empty = PointSet([], 1.0, ambient_dim=2)
    assert empty.ambient_dim == 2
    assert len(empty) == 0


def test_pointset_guards():
    with pytest.raises(PreconditionError):
        PointSet([1.0], 0.0)
    with pytest.raises(PreconditionError):
        PointSet([5.0], 2.0)  # point escapes the declared extent
    with pytest.raises(DimensionMismatchError):
        PointSet([[1.0, 0.0]], 2.0, ambient_dim=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pointset_rejects_non_finite(bad):
    with pytest.raises(PreconditionError):
        PointSet([[0.0, bad]], 2.0)
    with pytest.raises(PreconditionError):
        PointSet([[0.0, 1.0]], bad)


def test_integer_lattice_density():
    est = density(lattice(1.0, 30.0), radii=[5.0, 10.0])
    # windows of length 20 hold 20 or 21 integers
    assert est.lower == pytest.approx(1.0)
    assert est.upper == pytest.approx(21.0 / 20.0)
    assert est.window_radii == (5.0, 10.0)
    assert est.per_window[-1] == (10.0, est.lower, est.upper)


def test_scaled_lattice_densities():
    est = density(lattice(2.0, 30.0), radii=[10.0])
    assert est.lower == pytest.approx(0.5)
    assert est.upper == pytest.approx(11.0 / 20.0)

    est = density(lattice(0.5, 15.0), radii=[6.0])
    assert est.lower == pytest.approx(2.0)
    assert est.upper <= 2.0 * 1.05


def test_empty_set_density():
    est = density(PointSet([], 4.0, ambient_dim=1), radii=[1.0, 2.0])
    assert est.lower == 0.0
    assert est.upper == 0.0


def test_density_guards():
    ps = lattice(1.0, 10.0)
    with pytest.raises(PreconditionError):
        density(ps, radii=[])
    with pytest.raises(PreconditionError):
        density(ps, radii=[-1.0])
    with pytest.raises(PreconditionError):
        density(ps, radii=[6.0])  # window escapes the faithful region
    with pytest.raises(PreconditionError):
        density(ps, radii=[2.0], center_grid_step=0.0)


def test_density_half_extent_radius_allowed():
    est = density(lattice(1.0, 10.0), radii=[5.0])
    assert est.upper >= est.lower > 0


def test_union_density_interleaved():
    a = lattice(1.0, 20.0)
    b = PointSet(np.arange(-20, 20) * 1.0 + 0.5, 20.0)
    est = union_density([a, b], radii=[8.0])
    assert est.lower == pytest.approx(2.0)
    assert est.upper <= 2.0 * 1.05


def test_union_density_trims_to_smallest_extent():
    wide = lattice(1.0, 20.0)
    narrow = PointSet(np.arange(-10, 10) * 1.0 + 0.5, 10.0)
    est = union_density([wide, narrow], radii=[5.0])
    assert est.lower == pytest.approx(2.0)
    with pytest.raises(PreconditionError):
        union_density([wide, narrow], radii=[6.0])


def test_union_density_guards():
    with pytest.raises(PreconditionError):
        union_density([], radii=[1.0])
    with pytest.raises(DimensionMismatchError):
        union_density(
            [PointSet([0.0], 2.0), PointSet([[0.0, 0.0]], 2.0)], radii=[1.0]
        )


def test_uniformly_discrete():
    assert uniformly_discrete(lattice(1.0, 10.0)) == (True, pytest.approx(1.0))
    dup = PointSet([0.0, 0.0, 1.0], 2.0)
    assert uniformly_discrete(dup) == (False, 0.0)
    assert uniformly_discrete(PointSet([0.5], 1.0)) == (True, math.inf)


def gabor_shift_set():
    """Z_64^2 centred on the origin, taken twice: the construct45 shift multiset at L=64."""
    a, b = np.meshgrid(np.arange(64) - 32.0, np.arange(64) - 32.0, indexing="ij")
    grid = np.column_stack([a.ravel(), b.ravel()])
    return PointSet(np.vstack([grid, grid]), 46.0)


def battery_set(rng, dim, kind, extent):
    count = int(rng.integers(1, 80 if dim > 1 else 200))
    if kind == "reals":
        pts = rng.uniform(-extent, extent, size=(count, dim))
    elif kind == "halves":
        pts = rng.integers(-2 * int(extent), 2 * int(extent) + 1, size=(count, dim)) / 2.0
    else:  # integer lattice points with duplicates
        pts = rng.integers(-int(extent), int(extent) + 1, size=(count, dim)).astype(float)
        pts = np.vstack([pts, pts[: count // 3 + 1]])
    return PointSet(pts[np.linalg.norm(pts, axis=1) <= extent], extent, ambient_dim=dim)


def assert_scans_match_oracle(ps, radius, step):
    assert density(ps, [radius], step).per_window == (helpers.brute_window_extrema(ps, radius, step),)
    assert uniformly_discrete(ps) == helpers.brute_uniformly_discrete(ps)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_sum_order_is_left_to_right(dim):
    # the window scan adds squared axis differences left to right; for
    # d <= 7 that is the order of np.sum over the last axis, so its counts
    # equal the brute-force counts exactly
    rng = np.random.default_rng(dim)
    terms = rng.random((50, 40, dim)) ** 8 * 10.0 ** rng.integers(-8, 8, size=(50, 40, dim))
    acc = np.zeros(terms.shape[:-1])
    for k in range(dim):
        acc = acc + terms[..., k]
    assert np.array_equal(np.sum(terms, axis=-1), acc)


def test_density_matches_brute_force_oracle():
    # whole radius ladders: every per_window entry equals the oracle's
    rng = np.random.default_rng(2024)
    for dim in (1, 2, 3):
        for kind in ("reals", "halves", "lattice"):
            for _ in range(10 if dim < 3 else 5):
                extent = float(rng.integers(4, 11))
                ps = battery_set(rng, dim, kind, extent)
                radii = sorted({1.0, float(rng.choice([2.5, extent / 3.0, extent / 2.0]))})
                # 0.3 and 0.7 do not divide 2(R - r) for most radii drawn here;
                # None is the default radius / STEP_DIVISOR, too fine for a
                # brute force in 3-d
                step = rng.choice([None, 0.3, 0.5, 0.7, 1.0][dim // 3 :])
                est = density(ps, radii, center_grid_step=step)
                want = tuple(
                    helpers.brute_window_extrema(ps, r, r / STEP_DIVISOR if step is None else step)
                    for r in radii
                )
                assert est.per_window == want
                assert uniformly_discrete(ps) == helpers.brute_uniformly_discrete(ps)


def test_density_oracle_on_exact_boundary_hits():
    # Z^2 with r = 5 puts lattice points exactly on many window boundaries
    z2 = [(x, y) for x in range(-12, 13) for y in range(-12, 13) if x * x + y * y <= 144]
    ps = PointSet(z2, 12.0)
    for step in (1.0, 0.5, 0.25, 0.3):
        assert_scans_match_oracle(ps, 5.0, step)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_window_counts_on_points_ulps_from_the_edge(dim):
    # points a few ulps inside and outside the window edge of some grid
    # centre, where the square-root guess of a run's end can be off by one
    rng = np.random.default_rng(dim)
    radius, half, step = 3.0, 4.0, 0.5
    cap = radius * radius * (1.0 + 1e-12)
    direction = rng.normal(size=(400, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    lead = direction[:, :-1] * radius
    last = np.sqrt(np.maximum(cap - np.sum(lead**2, axis=1), 0.0)) * np.sign(direction[:, -1])
    last += rng.integers(-4, 5, size=400) * np.spacing(last)
    offsets = np.column_stack([lead, last])
    points = rng.integers(-2, 3, size=(400, dim)) * step + offsets
    counts = _window_counts(points, _center_axis(half, step), cap, np.ones(len(points)))
    want = helpers.brute_window_counts(points, half, step, cap)
    assert np.array_equal(counts.ravel(), want)


def test_density_oracle_on_tiny_sets():
    for dim in (1, 2, 3):
        assert_scans_match_oracle(PointSet([], 6.0, ambient_dim=dim), 2.0, 0.5)
        assert_scans_match_oracle(PointSet([[0.25] * dim], 6.0), 2.0, 0.5)
        assert_scans_match_oracle(PointSet([[0.25] * dim], 6.0), 3.0, 7.0)
    # every point on one vertical line: the separation sweep runs along y
    line = np.column_stack([np.zeros(41), np.linspace(-4.0, 4.0, 41) ** 3 / 16.0])
    assert_scans_match_oracle(PointSet(line, 6.0), 2.0, 0.5)


def test_density_oracle_on_gabor_shift_set(monkeypatch):
    ps = gabor_shift_set()
    # smaller oracle chunks keep the brute force at a few tens of MB
    monkeypatch.setattr(helpers, "_CENTER_BATCH", 128)
    assert density(ps, [20.0], 1.0).per_window == (helpers.brute_window_extrema(ps, 20.0, 1.0),)
    assert uniformly_discrete(ps) == (False, 0.0)
    distinct = PointSet(ps.points[: len(ps) // 2], 46.0)
    monkeypatch.setattr(helpers, "_CENTER_BATCH", 512)
    assert uniformly_discrete(distinct) == helpers.brute_uniformly_discrete(distinct)


def test_density_memory_is_bounded():
    ps = gabor_shift_set()
    tracemalloc.start()
    try:
        density(ps, radii=[20.0], center_grid_step=1.0)
        uniformly_discrete(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    halves=st.lists(st.integers(-16, 16), min_size=0, max_size=60),
    jitter=st.floats(0.0, 1.0),
    radius=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
    step=st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.1]),
)
def test_scans_match_oracle_property(dim, halves, jitter, radius, step):
    count = len(halves) // dim
    pts = np.array(halves[: count * dim], dtype=float).reshape(count, dim) / 2.0 + jitter
    pts = pts[np.linalg.norm(pts, axis=1) <= 8.0] if count else np.zeros((0, dim))
    assert_scans_match_oracle(PointSet(pts, 8.0, ambient_dim=dim), radius, step)


def spread_on_edges(h, x0, a, b):
    """A pair (a, 5), (b, 5) closer than h whose quotients (x - x0) / h round more than one apart.

    (x0, 0), (x0, h) set the lexicographic bound h^2, and filler points on
    rows y = 10, 20, 30 keep the x coordinates one run from x0 on and put
    a point between a and b, so the pair is no lexicographic neighbour.
    """
    fill = np.arange(x0 + h / 2, b, h / 2)
    rows = np.column_stack([fill, 10.0 + 10.0 * (np.arange(fill.size) % 3)])
    return PointSet(np.vstack([[[x0, 0.0], [x0, h], [a, 5.0], [b, 5.0]], rows]), 40.0)


@pytest.mark.parametrize(
    "h,x0,a,b",
    [
        (0.1, -1.0, -0.3, -0.2),
        (1 / 3, -1.0, 0.33333333333333315, 0.6666666666666664),
        (1e-3, -0.1, -0.029000000000000012, -0.028000000000000014),
    ],
)
def test_separation_grid_margin_covers_pairs_split_by_rounding(h, x0, a, b):
    # fl((b - a)^2) < fl(h^2), yet floor(fl(fl(b - x0) / h)) and
    # floor(fl(fl(a - x0) / h)) differ by 2: cells of side exactly h would
    # never compare the closest pair
    assert (b - a) ** 2 < h * h
    assert math.floor((b - x0) / h) - math.floor((a - x0) / h) == 2
    ps = spread_on_edges(h, x0, a, b)
    assert uniformly_discrete(ps) == helpers.brute_uniformly_discrete(ps) == (True, b - a)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("spacing", [0.1, 1 / 3, 1e-3])
def test_scans_on_awkward_lattices(dim, spacing):
    # lattice points sit on cell edges: the lexicographic bound is the
    # spacing, so every coordinate is a multiple of the cell side
    rng = np.random.default_rng(dim)
    count = 200 if dim < 4 else 60
    steps = rng.integers(-3, 4, size=(count, dim))
    distinct = np.unique(steps, axis=0) * spacing
    extent = 4.0 * spacing * math.sqrt(dim)
    ps = PointSet(distinct, extent)
    assert uniformly_discrete(ps) == helpers.brute_uniformly_discrete(ps)
    jittered = distinct + rng.normal(size=distinct.shape) * spacing * 1e-6
    jps = PointSet(jittered[np.linalg.norm(jittered, axis=1) <= extent], extent)
    assert uniformly_discrete(jps) == helpers.brute_uniformly_discrete(jps)
    # a step that does not divide the centre range; window counts stay exact
    # for integer lattices in every dim, whatever order the squares add in
    radius, step = 1.5 * spacing * math.sqrt(dim), 1.3 * spacing
    if dim <= 3:
        assert_scans_match_oracle(ps, radius, step)
    near = steps[np.linalg.norm(steps, axis=1) <= 4.0].astype(float)
    assert_scans_match_oracle(PointSet(near, 4.0, ambient_dim=dim), 2.0, 1.0)


def test_separation_with_every_point_in_one_cell():
    # the first two axes (those the grid uses) spread over 1e-9 while the
    # lexicographic bound is about 1, so all points share one cell and
    # every pair is compared, in several batches
    rng = np.random.default_rng(11)
    n = 600
    pts = np.column_stack([rng.random(n) * 1e-9, rng.random(n) * 1e-9, rng.permutation(n) * 1.0])
    pts[-1, 2] = pts[0, 2] + 0.5  # the one pair closer than 1
    ps = PointSet(pts, float(n))
    assert n * (n - 1) // 2 > 2 * pointsets._PAIR_BATCH
    assert uniformly_discrete(ps) == helpers.brute_uniformly_discrete(ps)
    assert uniformly_discrete(ps)[1] == pytest.approx(0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_separation_over_huge_spans():
    far = [[1e300, 0.0], [-1e300, 5.0], [0.0, -1e300]]
    # a pair 1e-300 apart: its squared distance underflows to 0
    ps = PointSet(far + [[0.0, 0.0], [1e-300, 0.0]], 1e300)
    assert uniformly_discrete(ps) == (False, 0.0)
    # a pair 1e-150 apart with a point between them in lexicographic order:
    # the grid's cells are 1e-150 wide over a span of 2e300
    ps = PointSet(far + [[0.0, 0.0], [0.5e-150, 1.0], [1e-150, 0.0]], 1e300)
    with np.errstate(over="ignore"):  # the brute force squares 2e300
        want = helpers.brute_uniformly_discrete(ps)
    assert uniformly_discrete(ps) == want == (True, 1e-150)
    # nothing closer than the float range can square
    with pytest.raises(PreconditionError, match="exceeds the float range"):
        uniformly_discrete(PointSet([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]], 1e300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pointset_radius_check_does_not_overflow():
    ps = PointSet([[1e200, 0.0], [0.0, 0.0]], 1e300)
    assert len(ps) == 2
    with pytest.raises(PreconditionError, match="radius 1.41421e\\+200 escapes"):
        PointSet([[1e200, 1e200]], 1e200)
    with pytest.raises(PreconditionError, match="radius inf escapes"):
        PointSet([[1.5e308, 1.5e308]], 1.7e308)
    # the union drops the point beyond the smaller extent without squaring it
    est = union_density([ps, PointSet([[1.0, 0.0]], 4.0)], radii=[2.0], center_grid_step=1.0)
    assert est == density(PointSet([[0.0, 0.0], [1.0, 0.0]], 4.0), radii=[2.0], center_grid_step=1.0)


def test_multiset_window_counts_equal_the_expanded_set():
    # repeated points, with +0.0 and -0.0 for the same coordinate, count
    # with their multiplicity
    rng = np.random.default_rng(5)
    base = rng.integers(-4, 5, size=(40, 2)) / 2.0
    base[:8, 0] = 0.0
    signed = base.copy()
    signed[:8, 0] = -0.0
    expanded = np.vstack([base, signed, base[::3], signed[::5]])
    points, weights = pointsets._distinct(expanded)
    assert weights.sum() == len(expanded)
    assert len(points) == len(np.unique(base, axis=0))
    half, step, cap = 3.0, 0.5, 2.0 * (1.0 + 1e-12)
    counts = _window_counts(points, _center_axis(half, step), cap, weights)
    assert np.array_equal(counts.ravel(), helpers.brute_window_counts(expanded, half, step, cap))
    ps = PointSet(expanded, 6.0)
    for radius, step in ((1.0, 0.25), (2.5, 0.3), (3.0, 0.7)):
        assert_scans_match_oracle(ps, radius, step)
    assert uniformly_discrete(ps) == (False, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_rejects_a_radius_beyond_the_float_range():
    # r^2 would be inf, and every window would count every point
    ps = PointSet([[0.0], [1e299], [-1e299], [5e299]], 1e300)
    with pytest.raises(PreconditionError, match="radius 2e\\+299 squares beyond"):
        density(ps, [2e299], 1e299)
    with pytest.raises(PreconditionError, match="2-ball of radius 2e\\+299"):
        density(PointSet([[0.0, 0.0], [1e299, 0.0]], 1e300), [2e299])
    # r^2 is finite, the window's cap r^2 (1 + 1e-12) is not
    radius = math.sqrt(1.797693134862e308)
    with pytest.raises(PreconditionError, match="radius 1.34078e\\+154 squares beyond"):
        density(PointSet([[0.0]], 1e155), [radius], 1e153)
    # r^2 is finite, r^3 is not
    with pytest.raises(PreconditionError, match="3-ball of radius 1e\\+120"):
        density(PointSet([[0.0, 0.0, 0.0]], 1e300), [1e120])
    # the largest radius whose square is finite still scans
    est = density(PointSet([[0.0], [1e150]], 4e150), [1e150], 1e149)
    assert est.upper == pytest.approx(2.0 / 2e150)


def test_density_rejects_a_centre_grid_too_large_to_index():
    ps = PointSet([0.0, 1e150, 2e150], 1e300)
    with pytest.raises(PreconditionError, match="8e\\+140\\^1 centres"):
        density(ps, [1e160], 2.5e159)
    with pytest.raises(PreconditionError, match="more than an array can index"):
        density(PointSet([[0.0] * 40], 10.0), [1.0], 1.0)
