"""Tests for window-count density estimation on finite point samples."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from framex import PointSet, ball_volume, density, uniformly_discrete, union_density
from framex.errors import DimensionMismatchError, PreconditionError
from framex.pointsets import STEP_DIVISOR, _center_axis, _window_counts, _window_extrema


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
    assert _window_extrema(ps, radius, step) == helpers.brute_window_extrema(ps, radius, step)
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
    counts = _window_counts(points, _center_axis(half, step), cap)
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
    assert _window_extrema(ps, 20.0, 1.0) == helpers.brute_window_extrema(ps, 20.0, 1.0)
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
