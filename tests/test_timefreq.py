"""Tests for cyclic-group time-frequency systems and the density amplifier."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import reference_densify_gabor_frame, reference_gabor_duals, roll_gabor_rows

from framex import (
    CyclicSignal,
    ExponentialSpec,
    GaborSpec,
    VectorFamily,
    densify_gabor_frame,
    exponential_family,
    frame_bounds,
    frame_operator,
    full_lattice_shifts,
    gabor_family,
    gaussian_window,
    modulate,
    timefreq,
    translate,
)
from framex.errors import (
    GridTooCoarseError,
    NotAFrameError,
    PreconditionError,
)

L = 16


def impulse(length, at=0):
    v = np.zeros(length)
    v[at] = 1.0
    return v


def quadrupled_spec(length=L, cluster_count=3):
    """Four lattice copies with the cluster leads moved to the front."""
    window = gaussian_window(length)
    leads = [(length // 2, (k * length) // cluster_count) for k in range(cluster_count)]
    lattice = list(full_lattice_shifts(length))
    rest = [p for p in lattice if p not in set(leads)]
    return GaborSpec(window, leads + rest + lattice * 3)


def test_cyclic_signal_basics():
    f = CyclicSignal([1.0, 2.0, 3.0])
    assert len(f) == 3
    assert f.norm == pytest.approx(math.sqrt(14.0))
    with pytest.raises(PreconditionError):
        CyclicSignal([])
    with pytest.raises(PreconditionError):
        CyclicSignal([[1.0, 2.0]])


@pytest.mark.parametrize("scale", [*range(470, 601, 13), 600, *range(-600, -469, 13), -470])
def test_cyclic_signal_norm_is_scale_equivariant(rng, scale):
    """The norm of a window times 2^scale is the window's norm times 2^scale, exactly.

    Its samples are sized by a power of two before they are squared, so the
    squares near 2^-1200 do not underflow to 0 and those near 2^1200 do not
    overflow (with a RuntimeWarning, which fails the test).
    """
    for _ in range(20):
        window = rng.integers(-8, 9, size=(int(rng.integers(1, 65)), 2)) @ [1.0, 1j] / 8
        window[rng.integers(window.size)] += 1.0
        assert CyclicSignal(window * 2.0**scale).norm == math.ldexp(CyclicSignal(window).norm, scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_cyclic_signal_rejects_non_finite(bad):
    with pytest.raises(PreconditionError, match="finite"):
        CyclicSignal([1.0, bad, 0.0])


def test_translate_modulate_unitary(rng):
    f = rng.normal(size=L) + 1j * rng.normal(size=L)
    norm = float(np.linalg.norm(f))
    assert translate(f, 5).norm == pytest.approx(norm)
    assert modulate(f, 3).norm == pytest.approx(norm)
    # round trips undo exactly up to one unimodular product per sample
    back = translate(translate(f, 5), -5).samples
    assert np.array_equal(back, np.asarray(f, dtype=complex))
    again = modulate(modulate(f, 3), L - 3).samples
    assert np.allclose(again, f, atol=1e-12)


def test_commutation_relation(rng):
    """M_b T_a = e^{2 pi i ab / L} T_a M_b, with the exponent ab reduced mod L."""
    f = rng.normal(size=L) + 1j * rng.normal(size=L)
    for a, b in [(1, 1), (3, 7), (10, 13)]:
        left = modulate(translate(f, a), b).samples
        right = np.exp(2j * np.pi * ((a * b) % L) / L) * translate(modulate(f, b), a).samples
        assert np.allclose(left, right, atol=1e-12)


def test_commutation_phase_is_exact_root(rng):
    # shifts reduce mod L as integers, so huge parameters cannot drift
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    a, b = 5 + 7 * 12, 9 - 3 * 12
    left = modulate(translate(f, a), b).samples
    assert np.array_equal(left, modulate(translate(f, 5), 9).samples)
    phase = np.exp(2j * np.pi * ((a * b) % 12) / 12)
    assert np.allclose(left, phase * translate(modulate(f, b), a).samples, atol=1e-12)
    # ab = 4 on Z_8 gives the root of unity -1
    g = rng.normal(size=8)
    left = modulate(translate(g, 2), 2).samples
    assert np.allclose(left, -translate(modulate(g, 2), 2).samples, atol=1e-12)


def test_gabor_spec_reduces_shifts():
    spec = GaborSpec(gaussian_window(8), [(9, -1), (0, 0), (0, 0)])
    assert spec.shifts == ((1, 7), (0, 0), (0, 0))
    assert len(spec) == 3
    fam = gabor_family(spec)
    # duplicate pairs mean repeated vectors
    assert np.array_equal(fam.vectors[1], fam.vectors[2])
    assert fam.labels[0] == "1,7"
    with pytest.raises(PreconditionError):
        GaborSpec(gaussian_window(8), [])
    with pytest.raises(PreconditionError):
        gabor_family(GaborSpec(np.zeros(8), [(0, 0)]))


def test_gabor_spec_takes_integral_shifts_only():
    window = gaussian_window(8)
    spec = GaborSpec(window, [(np.int64(9), 2.0), (Fraction(3), np.float64(-1.0)), (-(10**30), 1)])
    assert spec.shifts == ((1, 2), (3, 7), (0, 1))
    assert all(type(v) is int for pair in spec.shifts for v in pair)
    for bad in [2.7, 0.5, True, np.bool_(False), "3", math.nan, math.inf, 1 + 0j, Fraction(5, 2), None]:
        with pytest.raises(PreconditionError, match="not an integer"):
            GaborSpec(window, [(0, 0), (bad, 1)])
        with pytest.raises(PreconditionError, match="not an integer"):
            GaborSpec(window, [(1, bad)])


@pytest.mark.parametrize(
    "dtype,pairs",
    [
        (np.int32, [(9, -1), (0, 0), (0, 0), (-17, 2**31 - 1)]),
        (np.int64, [(9, -1), (0, 0), (0, 0), (-(2**63), 2**63 - 1)]),
        (np.uint8, [(9, 255), (0, 0), (0, 0), (200, 7)]),
        (np.uint64, [(9, 2**64 - 1), (0, 0), (2**63, 0)]),
        (np.float64, [(9.0, -1.0), (3.0, 16.0)]),
    ],
)
def test_gabor_spec_reads_shift_arrays_as_the_pair_list(dtype, pairs):
    """An integer array is reduced as a whole, a float array pair by pair; both give the list's spec."""
    window = gaussian_window(8)
    from_array = GaborSpec(window, np.array(pairs, dtype=dtype))
    from_pairs = GaborSpec(window, pairs)
    assert from_array.shifts == from_pairs.shifts == tuple((a % 8, b % 8) for a, b in pairs)
    assert all(type(v) is int for pair in from_array.shifts for v in pair)
    assert len(from_array) == len(pairs)
    family, oracle = gabor_family(from_array), gabor_family(from_pairs)
    assert family.vectors.tobytes() == oracle.vectors.tobytes()
    assert family.labels == oracle.labels


@pytest.mark.parametrize(
    "shifts,message",
    [
        (np.array([[True, False]]), r"shift np.True_ is a bool, not an integer"),
        (np.array([[0.0, 1.0], [2.5, 3.0]]), r"shift np.float64\(2.5\) is not an integer"),
        (np.zeros((3, 3), dtype=np.int64), r"shift pairs must form an \(m, 2\) array, got shape \(3, 3\)"),
        (np.zeros((0, 2), dtype=np.int64), "a Gabor spec needs at least one shift pair"),
    ],
    ids=["bool", "non-integral-float", "wrong-shape", "empty"],
)
def test_gabor_spec_refuses_shift_arrays_that_are_not_integer_pairs(shifts, message):
    with pytest.raises(PreconditionError, match=message):
        GaborSpec(gaussian_window(8), shifts)


def test_translate_and_modulate_take_integral_shifts_only(rng):
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    for shift in (translate, modulate):
        for bad in [2.7, 0.5, True]:
            with pytest.raises(PreconditionError, match="not an integer"):
                shift(f, bad)
        assert np.array_equal(shift(f, np.float64(3.0)).samples, shift(f, 3).samples)


@pytest.mark.parametrize(
    "read,args,message",
    [
        (ExponentialSpec, (8.9, [0, 1], [1.0]), "length 8.9 is not an integer"),
        (ExponentialSpec, (8, [0.5, 2], [1.0]), "mask point 0.5 is not an integer"),
        (ExponentialSpec, (8, [2.7], [1.0]), "mask point 2.7 is not an integer"),
        (ExponentialSpec, (8, [0, True], [1.0]), "mask point True is a bool, not an integer"),
        (ExponentialSpec, (True, [0], [1.0]), "length True is a bool, not an integer"),
        (gaussian_window, (4.7,), "length 4.7 is not an integer"),
        (gaussian_window, ("8",), "length '8' is not an integer"),
        (full_lattice_shifts, (2.5,), "length 2.5 is not an integer"),
        (full_lattice_shifts, (math.nan,), "length nan is not an integer"),
    ],
)
def test_lengths_and_mask_points_are_read_as_integers(read, args, message):
    """int() would truncate each of these; the integer reader refuses them."""
    with pytest.raises(PreconditionError, match=message):
        read(*args)


def test_integral_floats_are_read_as_lengths_and_mask_points():
    spec = ExponentialSpec(np.float64(8.0), [Fraction(6), 2.0, np.int64(2)], [1.0])
    assert (spec.length, spec.mask) == (8, (2, 6))
    assert all(type(v) is int for v in (spec.length, *spec.mask))
    assert np.array_equal(gaussian_window(8.0).samples, gaussian_window(8).samples)
    assert full_lattice_shifts(np.int64(2)) == full_lattice_shifts(2) == ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("length", [1, 2, 7, 16, 33, 64])
def test_gabor_family_equals_per_row_roll_oracle(rng, length):
    window = rng.normal(size=length) + 1j * rng.normal(size=length)
    lattice = list(full_lattice_shifts(length))
    # duplicates, and pairs that only land on the grid after reduction mod L
    extra = [(0, 0), (0, 0), (-1, length), (3 * length + 2, -5), (-(10**12), 10**12 + 1)]
    spec = GaborSpec(window, extra + lattice + lattice[::-3])
    fam = gabor_family(spec)
    oracle = roll_gabor_rows(spec)
    assert fam.vectors.shape == oracle.shape
    assert fam.vectors.tobytes() == oracle.tobytes()
    assert fam.labels == tuple(f"{a},{b}" for a, b in spec.shifts)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 97), seed=st.integers(0, 2**32 - 1))
def test_gabor_rows_equal_the_roll_oracle_property(length, seed):
    """A Gabor family's rows, formed on first read, are the per-row np.roll oracle's bits.

    Windows are complex with zeros, shift lists random with repeats.  The
    rows are read-only and the same array on every read; the labels are
    the pairs as "a,b".
    """
    rng = np.random.default_rng(seed)
    window = rng.normal(size=length) + 1j * rng.normal(size=length)
    window[rng.random(length) < 0.3] = 0.0
    window[rng.integers(length)] += 1.0
    shifts = rng.integers(0, length, size=(int(rng.integers(1, 3 * length + 1)), 2))
    spec = GaborSpec(window, np.concatenate([shifts, shifts[: rng.integers(0, len(shifts) + 1)]]))
    family = gabor_family(spec)
    rows = family.vectors
    assert family.vectors is rows and not rows.flags.writeable
    assert_same_bits_and_layout(rows, roll_gabor_rows(spec))
    assert family.labels == tuple(f"{a},{b}" for a, b in spec.shifts)


def test_gabor_family_forms_no_rows_for_its_shape_and_frame(monkeypatch):
    """len, dim, field, repr, frame_bounds and frame_operator come from the window and the shifts."""
    realized = []
    monkeypatch.setattr(timefreq, "_gabor_rows", lambda *args: realized.append(args))
    family = gabor_family(GaborSpec(gaussian_window(16), lattice_shifts(16, 2)))
    assert (len(family), family.dim, family.field) == (64, 16, "complex")
    assert repr(family) == "VectorFamily(count=64, dim=16, field=complex)"
    assert frame_bounds(family).is_frame
    assert frame_operator(family).matrix.shape == (16, 16)
    assert realized == [] and family._vectors is None and family._labels is None


def test_full_lattice_is_tight(rng):
    windows = [
        gaussian_window(L).samples,
        impulse(L),
        rng.normal(size=L) + 1j * rng.normal(size=L),
    ]
    for w in windows:
        spec = GaborSpec(w, full_lattice_shifts(L))
        rep = frame_bounds(gabor_family(spec))
        target = L * float(np.linalg.norm(w)) ** 2
        assert rep.lower == pytest.approx(target, rel=1e-8)
        assert rep.upper == pytest.approx(target, rel=1e-8)


def test_coarse_sublattice_bounds():
    pairs = [(a, b) for a in range(0, L, 2) for b in range(0, L, 2)]
    rep = frame_bounds(gabor_family(GaborSpec(gaussian_window(L), pairs)))
    assert rep.is_frame
    assert 3.5 < rep.lower <= rep.upper < 4.5
    assert rep.upper - rep.lower > 1e-3  # redundancy 4 but not tight


def lattice_shifts(length, step):
    a, b = np.meshgrid(np.arange(0, length, step), np.arange(0, length, step), indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_critical_even_step_lattice_degenerates(n):
    """At critical density with an even step, a = b = n on L = n^2, the Gaussian lattice is no frame."""
    rep = frame_bounds(gabor_family(GaborSpec(gaussian_window(n * n), lattice_shifts(n * n, n))))
    assert not rep.is_frame


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_critical_gaussian_lattice_degrades_like_one_over_l(n):
    """At critical density, a = b = n on L = n^2, A / B falls like 1 / L for odd n.

    The finite sections of the paper's corollary: no Gabor system of
    critical density with a window in the Feichtinger algebra is an
    unconditional Schauder frame, so none is a frame, and the condition
    number of these finite frames grows with L (A / B L lies in
    [1.7128, 1.7188] for n = 3..21).
    """
    rep = frame_bounds(gabor_family(GaborSpec(gaussian_window(n * n), lattice_shifts(n * n, n))))
    assert rep.is_frame
    assert 1.70 <= rep.lower / rep.upper * n * n <= 1.73


@pytest.mark.parametrize("n", range(4, 23, 2))
def test_fourfold_dense_gaussian_lattice_stays_well_conditioned(n):
    """At four times the critical density, a = b = n / 2, A / B stays near 1 (0.9852..0.9889)."""
    rep = frame_bounds(gabor_family(GaborSpec(gaussian_window(n * n), lattice_shifts(n * n, n // 2))))
    assert rep.lower / rep.upper >= 0.98


def walnut_bound(length, total):
    """The frame_bounds docstring's bound on a Gabor family's operator, total = sum ||x_n||^2."""
    u = np.finfo(float).eps / 2
    log = math.ceil(math.log2(length))
    return math.sqrt(length) * (32 * log + 8) * u * total + 8 * length**2 * 2.0**-1074


def gram_bound(count, dim, total):
    """The frame_bounds docstring's bound on the Gram product of count complex vectors."""
    u = np.finfo(float).eps / 2
    return (count + 3) * u / (1 - (count + 3) * u) * total + dim * (count + 1) * 2.0**-1074


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(1, 97) | st.sampled_from([2, 3, 5, 7, 31, 61, 89, 97]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(470, 600) | st.integers(-600, -470),
)
def test_walnut_operator_equals_the_gram_property(length, seed, scale):
    """A Gabor family's operator, from its shift histogram, against the Gram of its rows.

    Windows are complex, with zeros, of entries in (1/8) Z; shift lists are
    random, with repeats.  The two operators differ by at most the sum of
    the frame_bounds docstring's bounds for the two paths, plus the rows'
    own rounding against the exact Gabor vectors (characters within 21 u,
    products within 3 u, so their operator within 50 u sum ||x_n||^2).  The
    window times 2^scale is bounded through the scaling branch, so its
    bounds are exactly 4^scale times the window's, or a bound leaves the
    float range and PreconditionError says so.
    """
    rng = np.random.default_rng(seed)
    window = rng.integers(-8, 9, size=(length, 2)) @ [1.0, 1j] / 8
    window[rng.random(length) < 0.3] = 0.0
    window[rng.integers(length)] += 1.0
    count = int(rng.integers(1, 3 * length + 1))
    shifts = rng.integers(0, length, size=(count, 2))
    shifts = np.concatenate([shifts, shifts[: rng.integers(0, count + 1)]])
    family = gabor_family(GaborSpec(window, shifts))
    total = len(shifts) * np.linalg.norm(window) ** 2
    u = np.finfo(float).eps / 2
    bound = walnut_bound(length, total) + gram_bound(len(shifts), length, total) + 50 * u * total
    gap = frame_operator(family).matrix - frame_operator(VectorFamily(family.vectors)).matrix
    assert np.linalg.norm(gap, ord=2) <= bound
    base = frame_bounds(family)
    try:
        scaled = frame_bounds(gabor_family(GaborSpec(window * 2.0**scale, shifts)))
    except PreconditionError as exc:
        assert re.fullmatch(r"frame bound .* \* 4\^-?\d+ (overflows the|underflows the normal) float range", str(exc))
        return
    assert scaled.upper == math.ldexp(base.upper, 2 * scale)
    assert scaled.lower == math.ldexp(base.lower, 2 * scale)
    assert (scaled.is_frame, scaled.is_tight) == (base.is_frame, base.is_tight)


def test_exponential_family_full_and_half_mask():
    full = exponential_family(ExponentialSpec(L, range(L), range(L)))
    rep = frame_bounds(full)
    assert rep.lower == pytest.approx(L, rel=1e-9)
    assert rep.upper == pytest.approx(L, rel=1e-9)
    # all characters on half the circle still sum to L times the identity
    half = exponential_family(ExponentialSpec(L, range(L // 2), range(L)))
    rep_h = frame_bounds(half)
    assert rep_h.lower == pytest.approx(L, rel=1e-9)
    assert rep_h.upper == pytest.approx(L, rel=1e-9)


def test_exponential_family_fractional_frequency():
    fam = exponential_family(ExponentialSpec(8, range(8), [0.5]))
    assert fam.vectors.shape == (1, 8)
    assert np.linalg.norm(fam.vectors[0]) == pytest.approx(math.sqrt(8.0))
    assert not frame_bounds(fam).is_frame


def test_exponential_family_entries_oracle(rng):
    """Row k is e^{2 pi i lambda_k t / L} on the mask, deduplicated and sorted."""
    freqs = rng.uniform(-20.0, 20.0, size=5)
    spec = ExponentialSpec(L, [9, 2, 9, 14, 0], freqs)
    fam = exponential_family(spec)
    assert spec.mask == (0, 2, 9, 14)
    t = np.array(spec.mask, dtype=float)
    np.testing.assert_allclose(fam.vectors, np.exp(2j * np.pi * np.outer(freqs, t) / L), atol=1e-12)
    assert fam.labels == tuple(repr(float(lam)) for lam in freqs)


def test_exponential_spec_guards():
    with pytest.raises(PreconditionError, match="length must be at least 1"):
        ExponentialSpec(0, [0], [0])
    with pytest.raises(PreconditionError):
        ExponentialSpec(8, [], [0])
    with pytest.raises(PreconditionError):
        ExponentialSpec(8, [8], [0])
    with pytest.raises(PreconditionError):
        ExponentialSpec(8, [0], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frequencies_must_be_finite(bad):
    with pytest.raises(PreconditionError, match=f"frequency {bad!r} is not finite"):
        ExponentialSpec(8, range(8), [1.0, bad])


def test_gaussian_window_shape():
    g = gaussian_window(L)
    assert g.norm == pytest.approx(1.0)
    peak = int(np.argmax(np.abs(g.samples)))
    assert peak == L // 2
    assert g.samples[L // 2 - 3] == pytest.approx(g.samples[L // 2 + 3])
    with pytest.raises(PreconditionError):
        gaussian_window(0)


def test_densify_trivial_clusters():
    spec = quadrupled_spec()
    fam, rep = densify_gabor_frame(spec, (1, 1, 1), seed=0)
    # single-copy clusters reuse the base points themselves
    assert rep.operator_deviation <= 1e-9
    assert rep.vector_distances == (0.0, 0.0, 0.0)
    assert rep.parameter_distances == (0.0, 0.0, 0.0)
    assert rep.emitted_count == len(spec) == 1024
    assert frame_bounds(fam).is_frame


def test_densify_growing_clusters():
    spec = quadrupled_spec()
    fam, rep = densify_gabor_frame(spec, (1, 2, 4), seed=0)
    assert rep.emitted_count == 1028
    assert rep.operator_deviation == pytest.approx(0.0035074058005659064, rel=1e-6)
    assert rep.operator_deviation < 1.0
    assert rep.parameter_caps == pytest.approx((4.0, 2.0, 4.0 / 3.0))
    assert rep.vector_caps == pytest.approx((16.0, 4.0, 1.0))
    assert rep.dual_norm_sup == pytest.approx(1.0 / 64.0)
    assert rep.weights_nonzero
    # realized distances stay strictly under their caps
    for dist, cap in zip(rep.parameter_distances, rep.parameter_caps):
        assert dist < cap
    for dist, cap in zip(rep.vector_distances, rep.vector_caps):
        assert dist < cap
    # cluster weights are 1/K_n, tail weight 1
    assert rep.weights[:7] == (1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)
    assert rep.weights[7] == 1.0
    assert frame_bounds(fam).is_frame
    # cluster shift pairs are pairwise distinct
    cluster = rep.shifts[:7]
    assert len(set(cluster)) == 7


def construct45_spec(length, clusters, copies):
    """The base system of the construct45 command: leads first, then the lattice."""
    leads = [(length // 2, (k * length) // clusters) for k in range(clusters)]
    lattice = list(full_lattice_shifts(length))
    rest = [p for p in lattice if p not in set(leads)]
    return GaborSpec(gaussian_window(length), leads + rest + lattice * (copies - 1))


def shuffled_spec(length, copies, seed):
    """copies shuffled lattices, then a random tail of repeated pairs."""
    rng = np.random.default_rng(seed)
    lattice = list(full_lattice_shifts(length)) * copies
    shifts = [lattice[i] for i in rng.permutation(len(lattice))]
    shifts += [lattice[i] for i in rng.integers(0, len(lattice), size=length)]
    return GaborSpec(gaussian_window(length), shifts)


def float_bits(a):
    """The bit patterns of a float or complex array; a view, so strides are kept."""
    a = np.asarray(a)
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return [p.view(np.uint64) for p in parts]


def assert_same_bits_and_layout(actual, expected):
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    assert actual.flags.f_contiguous == expected.flags.f_contiguous
    for a, e in zip(float_bits(actual), float_bits(expected)):
        assert np.array_equal(a, e)


def dual_tolerance(spec):
    """Relative bound on the gap between S^-1 b through inv and through solve.

    A backward-stable solve has relative forward error at most about
    L cond(S) u, and a product with a computed inverse at most about
    L cond(S)^2 u (Higham, Accuracy and Stability of Numerical Algorithms,
    chapters 7 and 14); 4 L cond(S)^2 u covers both and their constants.
    """
    operator = frame_operator(gabor_family(spec)).matrix
    return 4 * spec.length * np.linalg.cond(operator) ** 2 * np.finfo(float).eps


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("length", [8, 16, 32, 48, 64])
def test_distinct_duals_equal_a_full_solve(length, copies):
    for spec in (construct45_spec(length, 4, copies), shuffled_spec(length, copies, length + copies)):
        norms, inverse = timefreq._dual_norms(spec)
        # the distinct pairs in increasing a L + b, and each element's place among them
        codes, index = np.unique(np.array(spec.shifts) @ [length, 1], return_inverse=True)
        assert norms.shape == codes.shape
        assert_same_bits_and_layout(inverse, np.linalg.inv(frame_operator(gabor_family(spec)).matrix))
        # the duals densify_gabor_frame forms, inverse @ x_n, within the bound of a full solve over all rows
        reference = reference_gabor_duals(spec)
        reference_norms = np.linalg.norm(reference, axis=1)
        bound = dual_tolerance(spec) * reference_norms
        duals = (inverse @ gabor_family(spec).vectors.T).T
        assert np.all(np.linalg.norm(duals - reference, axis=1) <= bound)
        # the norms of the distinct pairs are the full solve's row norms
        assert np.all(np.abs(norms[index] - reference_norms) <= bound)


@pytest.mark.parametrize(
    "spec,counts,seed",
    [
        (quadrupled_spec(), (1, 2, 4), 0),
        (quadrupled_spec(), (1, 1, 1), 3),
        (construct45_spec(32, 3, 2), (1, 2, 4), 7),
        (construct45_spec(64, 4, 2), (1, 2, 4, 8), 8),
        (shuffled_spec(16, 3, 1), (1, 2), 2),
    ],
    ids=["L16-x4", "L16-trivial", "L32-x2", "L64-x2", "L16-shuffled"],
)
def test_densify_equals_the_reference_run(spec, counts, seed):
    """Equal to the run with a full solve, within dual_tolerance where S^-1 enters.

    The dual norms, and through them the vector caps, differ from the
    reference by at most dual_tolerance relative.  The mixed operator, an
    O(1) matrix, sums about as many products as the family has rows, so
    its distance to the identity moves by at most dual_tolerance times the
    family size over L, absolutely.
    """
    family, report = densify_gabor_frame(spec, counts, seed=seed)
    ref_family, ref_report = reference_densify_gabor_frame(spec, counts, seed=seed)
    bound = dual_tolerance(spec)
    close = {
        "dual_norm_sup": bound * ref_report.dual_norm_sup,
        "vector_caps": bound * np.array(ref_report.vector_caps),
        "operator_deviation": bound * len(spec) / spec.length,
    }
    for field in dataclasses.fields(report):
        value, expected = getattr(report, field.name), getattr(ref_report, field.name)
        assert type(value) is type(expected), field.name
        if field.name in close:
            assert np.all(np.abs(np.subtract(value, expected)) <= close[field.name]), field.name
        else:
            assert value == expected, field.name
    assert_same_bits_and_layout(family.vectors, ref_family.vectors)
    assert family.labels == ref_family.labels
    # the emitted family is the Gabor family of the window over the report's shift pairs
    oracle = gabor_family(GaborSpec(spec.window, report.shifts))
    assert_same_bits_and_layout(family.vectors, oracle.vectors)
    assert family.labels == oracle.labels


def test_densify_is_deterministic():
    spec = quadrupled_spec()
    first = densify_gabor_frame(spec, (1, 2, 4), seed=5)[1]
    second = densify_gabor_frame(spec, (1, 2, 4), seed=5)[1]
    assert first.shifts == second.shifts
    other = densify_gabor_frame(spec, (1, 2, 4), seed=6)[1]
    assert other.operator_deviation < 1.0


def test_densify_skips_a_shift_an_earlier_cluster_took():
    """Two leads share a shift: the first cluster takes it, the second moves on to a free one."""
    lattice = list(full_lattice_shifts(8))
    lead = (4, 0)
    spec = GaborSpec(gaussian_window(8), [lead, lead] + [p for p in lattice if p != lead] + lattice)
    family, rep = densify_gabor_frame(spec, (1, 1))
    assert rep.shifts[:2] == ((4, 0), (4, 1))
    assert rep.operator_deviation < 1.0 and frame_bounds(family).is_frame


def test_densify_refuses_a_mixed_operator_far_from_the_identity(monkeypatch):
    """A forged S^-1, three times too large, puts the mixed operator near 3 I."""
    dual_norms = timefreq._dual_norms

    def tripled(spec):
        norms, inverse = dual_norms(spec)
        return norms, 3.0 * inverse

    monkeypatch.setattr(timefreq, "_dual_norms", tripled)
    with pytest.raises(PreconditionError, match="mixed operator strays .* from the identity"):
        densify_gabor_frame(quadrupled_spec(), (1, 1, 1))


def test_densify_grid_too_coarse_for_the_default_caps():
    spec = GaborSpec(gaussian_window(4), full_lattice_shifts(4))
    with pytest.raises(GridTooCoarseError):
        densify_gabor_frame(spec, (1, 2))


def test_densify_validation():
    spec = quadrupled_spec()
    with pytest.raises(PreconditionError):
        densify_gabor_frame(spec, ())
    with pytest.raises(PreconditionError):
        densify_gabor_frame(spec, (2, 1))
    with pytest.raises(PreconditionError):
        densify_gabor_frame(spec, (0, 1))
    small = GaborSpec(gaussian_window(4), [(0, 0), (1, 1)])
    with pytest.raises(PreconditionError):
        densify_gabor_frame(small, (1, 1, 1))


def test_densify_refuses_non_integral_cluster_sizes():
    # int() would run these as cluster sizes (1, 2)
    spec = quadrupled_spec()
    with pytest.raises(PreconditionError, match="cluster size 1.7 is not an integer"):
        densify_gabor_frame(spec, [1.7, 2.2])
    # read before any work: the base family is not built
    assert spec._family is None


def test_densify_refuses_bool_cluster_sizes_and_seeds():
    spec = quadrupled_spec()
    with pytest.raises(PreconditionError, match="cluster size True is a bool, not an integer"):
        densify_gabor_frame(spec, [True, 2])
    with pytest.raises(PreconditionError, match="seed True is a bool, not an integer"):
        densify_gabor_frame(spec, [1, 2], seed=True)
    assert spec._family is None


def test_densify_refuses_a_negative_seed():
    spec = quadrupled_spec()
    with pytest.raises(PreconditionError, match="seed must be non-negative, got -1"):
        densify_gabor_frame(spec, [1, 2], seed=-1)
    assert spec._family is None


def test_densify_requires_frame_base():
    lonely = GaborSpec(gaussian_window(8), [(0, 0)])
    with pytest.raises(NotAFrameError):
        densify_gabor_frame(lonely, (1,))
