"""Tests for frame extraction from rescalable families."""

import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framex import (
    COLLINEARITY_TOL,
    VectorFamily,
    canonical_dual,
    equivalence_a_to_d,
    equivalence_b_to_a,
    equivalence_c_check,
    extract,
    frame_bounds,
    rank_one,
)
import framex.extraction as extraction
import framex.frames as frames
from framex.errors import DimensionMismatchError, FramexError, NotAFrameError, PreconditionError
from framex.extraction import (
    _SNAP_TOL,
    ENVELOPE_SLACK,
    _multiplicity_bound,
    _snap_weight,
    _threshold,
    _within_cap,
    plan,
)

from helpers import (
    reference_plan,
    reference_snap_weight,
    reference_threshold,
    reference_within_cap,
    rescalable_fixture,
)


def complex_integer_weight_family(rng, dim, extras=3, kmax=4):
    vecs = np.concatenate(
        [np.eye(dim, dtype=complex), rng.normal(size=(extras, dim)) + 1j * rng.normal(size=(extras, dim))]
    )
    norms = np.linalg.norm(vecs, axis=1)
    ks = rng.integers(1, kmax + 1, size=len(vecs))
    return VectorFamily(vecs, scalars=np.sqrt(ks) / norms)


def test_snap_weight():
    assert _snap_weight(4.0 - 4e-16, beta=3) == Fraction(4)
    assert _snap_weight(1.0, beta=2) == Fraction(1)
    # off-grid values pass through as the exact binary float
    assert _snap_weight(0.3, beta=3) == Fraction(0.3)
    assert _snap_weight(1e-20, beta=5) == Fraction(1e-20)


@pytest.mark.parametrize("grid_value,beta", [(0.25, 2), (3.0, 2), (1000.5, 1), (5 * 2.0**-20, 20)])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_snap_weight_on_both_sides_of_its_tolerance(grid_value, beta, side):
    """Half the tolerance _SNAP_TOL max(1, v) from the 2^-beta grid snaps; twice it passes through."""
    width = _SNAP_TOL * max(1.0, grid_value)
    inside, outside = grid_value + side * 0.5 * width, grid_value + side * 2.0 * width
    assert _snap_weight(inside, beta) == grid_value
    assert _snap_weight(outside, beta) == outside != grid_value


# positive weights, some on or within rounding of a coarse dyadic grid
_weights = st.one_of(
    st.floats(min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False),
    st.builds(
        lambda k, e, ulps: math.ldexp(k, -e) * (1.0 + ulps * 2.0**-52),
        st.integers(1, 2**20),
        st.integers(0, 45),
        st.integers(-8, 8),
    ),
)


@settings(max_examples=300, deadline=None)
@example(value=3 * 2.0**-41, beta=45, j=0, times=0)  # halfway: rounds up to even
@example(value=5 * 2.0**-41, beta=45, j=1, times=0)  # halfway: rounds down to even
@given(value=_weights, beta=st.integers(-3, 60), j=st.integers(0, 40), times=st.integers(0, 2**70))
def test_integer_comparisons_match_the_fraction_oracle(value, beta, j, times):
    snapped = _snap_weight(value, beta)
    assert type(snapped) is float
    assert Fraction(snapped) == reference_snap_weight(value, beta, _SNAP_TOL)
    epsilon = min(value, 0.99)
    assert _threshold(j, epsilon) == reference_threshold(j, epsilon)
    for t in (times, math.floor(value * 37.5), math.floor(value * 37.5) + 1):
        assert _within_cap(t, 37.5, value) == reference_within_cap(t, 37.5, value)
        assert _within_cap(t, value, value) == reference_within_cap(t, value, value)


def test_plan_orthonormal_basis():
    layout = plan(VectorFamily(np.eye(4)), 1.0, 1.0)
    assert layout.blocks == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 4))
    assert layout.scale.value == 2
    assert layout.epsilon == pytest.approx(1.0 / 3.0)
    assert layout.trace_cap == 1.0
    assert layout.thresholds[0] == 0.0
    for j, cap in enumerate(layout.thresholds[1:], start=1):
        assert cap == pytest.approx(layout.epsilon**2 / (36 * 4**j))
    assert all(g <= c * (1 + 1e-9) + 1e-12 for g, c in zip(layout.gammas, layout.thresholds))
    assert layout.identity_defect <= 1e-9
    assert len(layout.subspaces) == len(layout.blocks) + 1


def test_plan_rejects_bad_bounds():
    fam = VectorFamily(np.eye(3))
    with pytest.raises(NotAFrameError):
        plan(fam, 0.0, 1.0)
    with pytest.raises(NotAFrameError):
        plan(fam, 2.0, 1.0)


def near_duplicate_family(rng, dim, extras, complex_field, offsets):
    """Rescalable family plus, per offset t, a copy of an earlier member moved by t."""
    vecs = np.vstack([np.eye(dim), rng.normal(size=(extras, dim))])
    if complex_field:
        vecs = vecs + 1j * np.vstack([np.zeros((dim, dim)), rng.normal(size=(extras, dim))])
    vecs = vecs @ np.linalg.qr(rng.normal(size=(dim, dim)))[0].T
    for t in offsets:
        v = vecs[int(rng.integers(len(vecs)))]
        step = rng.normal(size=dim)
        vecs = np.vstack([vecs, v + t * np.linalg.norm(v) * step / np.linalg.norm(step)])
    ks = rng.integers(1, 5, size=len(vecs))
    return VectorFamily(vecs, scalars=np.sqrt(ks) / np.linalg.norm(vecs, axis=1))


@given(
    dim=st.integers(2, 8),
    extras=st.integers(0, 4),
    complex_field=st.booleans(),
    offsets=st.lists(st.sampled_from([0.0, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_plan_equals_the_rescanning_planner(dim, extras, complex_field, offsets, seed):
    fam = near_duplicate_family(np.random.default_rng(seed), dim, extras, complex_field, offsets)
    rep = frame_bounds(fam)
    try:
        want = reference_plan(fam, rep.lower, rep.upper)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            plan(fam, rep.lower, rep.upper)
        return
    got = plan(fam, rep.lower, rep.upper)
    assert got.blocks == want["blocks"]
    assert got.thresholds == want["thresholds"]
    # the blocked and the column-by-column passes round differently: a kept
    # column of residual norm rho moves by about d u / rho, and so does each
    # projection built on it; a gamma sums sum_n w_n / B <= d such moves.
    # Measured at most 2 d u / rho and 0.04 d^2 u / rho over 1,500 families.
    tol = 16 * fam.dim * np.finfo(float).eps / 2 / want["min_residual"]
    assert len(got.gammas) == len(want["gammas"])
    for mine, theirs in zip(got.gammas, want["gammas"]):
        assert abs(mine - theirs) <= tol * fam.dim
    assert len(got.subspaces) == len(want["subspaces"])
    for mine, theirs in zip(got.subspaces + got.block_subspaces, want["subspaces"] + want["block_subspaces"]):
        assert mine.basis.dtype == theirs.basis.dtype and mine.rank == theirs.rank
        assert np.abs(mine.matrix - theirs.matrix).max() <= tol


@given(
    dim=st.integers(2, 8),
    extras=st.integers(0, 4),
    complex_field=st.booleans(),
    offsets=st.lists(st.sampled_from([0.0, 1e-6, 1e-9]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_plan_gammas_are_the_per_member_vdot_sums(dim, extras, complex_field, offsets, seed):
    """Each block's gamma is sum_n w_n max(<u_n, R_j u_n>, 0) / B, a vdot of R_j @ u_n per member, bit for bit."""
    fam = near_duplicate_family(np.random.default_rng(seed), dim, extras, complex_field, offsets)
    rep = frame_bounds(fam)
    try:
        got = plan(fam, rep.lower, rep.upper)
    except PreconditionError:
        return
    _, weights, units, active = extraction._family_data(fam)
    for (start, end), ref, gamma in zip(got.blocks, got.block_subspaces, got.gammas):
        total = 0.0
        for n in range(start, end):
            if active[n]:
                total += weights[n] * max(float(np.real(np.vdot(units[n], ref.matrix @ units[n]))), 0.0) / rep.upper
        assert gamma == total


@given(
    dim=st.integers(2, 8),
    extras=st.integers(0, 4),
    complex_field=st.booleans(),
    offsets=st.lists(st.sampled_from([0.0, 1e-6, 1e-9]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_plan_subspaces_are_orthonormal(dim, extras, complex_field, offsets, seed):
    """A plan's bases are orthonormal within the 1e-8 the public Projection checks, a check plans skip.

    The chain, which spans the space, each pair of consecutive chain
    entries, the references and the references' complements, which sample
    takes."""
    fam = near_duplicate_family(np.random.default_rng(seed), dim, extras, complex_field, offsets)
    rep = frame_bounds(fam)
    try:
        got = plan(fam, rep.lower, rep.upper)
    except PreconditionError:
        return
    chain, refs = got.subspaces, got.block_subspaces
    bases = [p.basis for p in chain + refs] + [r.complement().basis for r in refs]
    bases += [np.hstack([a.basis, b.basis]) for a, b in zip(chain, chain[1:])]
    assert sum(p.rank for p in chain) == dim
    for q in bases:
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) <= 1e-8


def test_extract_reads_the_family_data_once(rng, monkeypatch):
    """extract plans on the energies and unit vectors it computed; the plan equals plan()'s."""
    fam = rescalable_fixture(rng, 5)
    calls = []
    family_data = extraction._family_data

    def counted(family):
        calls.append(family)
        return family_data(family)

    monkeypatch.setattr(extraction, "_family_data", counted)
    result = extract(fam)
    assert len(calls) == 1
    rep = frame_bounds(fam)
    again = plan(fam, rep.lower, rep.upper)
    assert result.plan.blocks == again.blocks and result.plan.gammas == again.gammas
    assert result.plan.identity_defect == again.identity_defect


def test_plan_orthogonalizes_each_member_once(rng, monkeypatch):
    fed = {}  # the span under construction (one per plan build) -> members fed
    extend = extraction._extend_span

    def counted(cols, candidates, dtype, threshold):
        fed.setdefault(id(cols), [cols, 0])[1] += len(candidates)
        return extend(cols, candidates, dtype, threshold)

    monkeypatch.setattr(extraction, "_extend_span", counted)
    for fam in (
        rescalable_fixture(rng, 6, extras=3),
        near_duplicate_family(rng, 5, 2, True, [0.0, 1e-8]),
        VectorFamily(np.vstack([np.eye(3), np.zeros((1, 3)), np.ones((1, 3))])),
    ):
        fed.clear()
        rep = frame_bounds(fam)
        plan(fam, rep.lower, rep.upper)
        active = int(np.count_nonzero(np.linalg.norm(fam.vectors, axis=1)))
        assert fed and all(count == active for _, count in fed.values())


def test_plan_raises_naming_a_block_over_its_threshold(monkeypatch):
    # a chain that loses x_0 leaves block 0's member outside the pair of
    # subspaces it is compressed against, so its energy exceeds threshold 0
    extend = extraction._extend_span
    calls = []

    def drop_x0(cols, candidates, dtype, threshold):
        calls.append(len(candidates))
        if len(calls) == 1:  # the chain's first step feeds x_0 alone
            candidates = candidates[1:]
        return extend(cols, candidates, dtype, threshold)

    monkeypatch.setattr(extraction, "_extend_span", drop_x0)
    with pytest.raises(PreconditionError, match="block 0 energy"):
        plan(VectorFamily(np.eye(3)), 1.0, 1.0)


def test_extract_orthonormal_basis():
    res = extract(VectorFamily(np.eye(4)))
    assert res.sigma.multiplicity == {0: 4, 1: 4, 2: 4, 3: 4}
    assert res.report.lower == pytest.approx(4.0)
    assert res.report.upper == pytest.approx(4.0)
    assert res.mult_bound_L == pytest.approx(9.0)
    assert res.mult_ok
    assert res.total_deviation <= 1e-12
    assert res.envelope == pytest.approx((4.0 / 3.0, 12.0))
    assert res.plan.identity_defect <= 1e-12


def test_extract_doubles_the_constant_for_a_large_upper_bound(monkeypatch):
    # B = 10^6: the selector constant 38.01 leaves no admissible exponent
    # until it has doubled twice
    refused = []
    exponent = extraction.scale_exponent

    def counted(epsilon, constant, delta):
        try:
            return exponent(epsilon, constant, delta)
        except extraction.NoAdmissibleExponentError:
            refused.append(constant)
            raise

    monkeypatch.setattr(extraction, "scale_exponent", counted)
    result = extract(VectorFamily(1000.0 * np.eye(2)))
    base = extraction.selector_constant(1e-6, extraction.natural_max_order(1e-6))
    assert base == pytest.approx(38.011, abs=1e-3)
    assert refused == [base, 2.0 * base]
    assert result.mult_ok


def test_extract_rescalable_family(rng):
    fam = rescalable_fixture(rng, 5)
    res = extract(fam)
    rep_in = frame_bounds(fam)

    out = res.report
    assert out.is_frame and out.lower > 0
    scale = 2.0**res.plan.scale.value
    assert out.lower >= scale * rep_in.lower / 3.0 * (1 - ENVELOPE_SLACK)
    assert out.upper <= 3.0 * scale * rep_in.upper * (1 + ENVELOPE_SLACK)

    # recompute the stacked deviation from sigma alone
    norms = np.linalg.norm(fam.vectors, axis=1)
    weights = np.abs(fam.scalars) ** 2 * norms**2
    units = fam.vectors / norms[:, None]
    b = rep_in.upper
    target = sum(w * rank_one(u / math.sqrt(b)).matrix for w, u in zip(weights, units))
    achieved = sum(
        (times / scale) * rank_one(units[n] / math.sqrt(b)).matrix
        for n, times in res.sigma.multiplicity.items()
    )
    dev = np.max(np.abs(np.linalg.eigvalsh(achieved - target)))
    assert dev == pytest.approx(res.total_deviation, abs=1e-12)
    assert dev <= 2.0 * res.plan.epsilon + 1e-8

    # multiplicity bound, checked in exact rationals
    c = res.plan.scale.constant
    bound = max(144.0 * c * c * b / rep_in.lower**2, 64.0 * c**4 / (b * b))
    assert res.mult_bound_L == pytest.approx(bound)
    for n, times in res.sigma.multiplicity.items():
        assert Fraction(times) <= Fraction(bound) * Fraction(float(weights[n]))
    assert all(cert is None or cert.sandwich_ok for cert in res.certificates)


def test_extract_complex_family(rng):
    fam = complex_integer_weight_family(rng, 4)
    res = extract(fam)
    assert res.report.is_frame
    assert res.normalized.field == "complex"
    assert res.total_deviation <= 2.0 * res.plan.epsilon + 1e-8
    assert res.mult_ok


def test_extract_is_deterministic(rng):
    fam = rescalable_fixture(rng, 4)
    first = extract(fam)
    second = extract(fam)
    assert first.sigma.multiplicity == second.sigma.multiplicity
    assert first.report.lower == second.report.lower


def assert_certified(fam, res):
    """mult_ok, every block sandwich and the output bounds inside the envelope."""
    assert res.mult_ok
    assert all(cert is None or (cert.sandwich_ok and cert.mult_ok) for cert in res.certificates)
    lo, hi = res.envelope
    assert res.report.lower >= lo * (1 - ENVELOPE_SLACK)
    assert res.report.upper <= hi * (1 + ENVELOPE_SLACK)
    assert res.total_deviation <= res.deviation_cap + 1e-8
    rep_in = frame_bounds(fam)
    scale = 2.0**res.plan.scale.value
    assert res.envelope == pytest.approx((scale * rep_in.lower / 3.0, 3.0 * scale * rep_in.upper))


@pytest.mark.parametrize("scalars,levels", [([1.0, 0.7], 26), ([1.0, 0.9], 28)])
def test_extract_generic_two_vector_weights(scalars, levels):
    # the second block's reference subspace has rank 0, so gamma = 0 keeps
    # the dyadic expansion of c^2 deep and the split runs over many levels
    fam = VectorFamily(np.eye(2), scalars=scalars)
    res = extract(fam)
    assert_certified(fam, res)
    assert max(cert.levels for cert in res.certificates if cert) == levels
    assert set(res.sigma.multiplicity) == {0, 1}


@given(
    dim=st.integers(2, 6),
    extra=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_extract_random_real_weights(dim, extra, seed, data):
    count = min(dim + extra, 16)
    vectors = np.random.default_rng(seed).normal(size=(count, dim))
    scalars = data.draw(st.lists(st.floats(0.3, 1.5), min_size=count, max_size=count))
    fam = VectorFamily(vectors, scalars=scalars)
    assert_certified(fam, extract(fam))


def test_extract_multiplicity_total_past_sys_maxsize():
    # a family test_extract_random_real_weights can draw: A is about 8.1e-7
    # and B about 34, so beta is 60 and the total multiplicity is about 2^65
    vectors = np.random.default_rng(1596626).normal(size=(4, 4))
    fam = VectorFamily(vectors, scalars=[1.5, 1.0, 1.0, 1.0])
    res = extract(fam)
    assert_certified(fam, res)
    assert res.plan.scale.value == 60
    assert res.sigma.total == sum(res.sigma.multiplicity.values())
    assert res.sigma.total > sys.maxsize


@pytest.mark.xfail(
    strict=True,
    raises=PreconditionError,
    reason="the selector certificate constant is 0 at order 1, so a block's sandwich bound is 0",
)
def test_extract_order_one_block_certificate():
    # a family test_extract_random_real_weights can draw
    vectors = np.random.default_rng(362073).normal(size=(4, 2))
    fam = VectorFamily(vectors, scalars=[1.0, 0.3046875, 1.0, 1.0])
    assert_certified(fam, extract(fam))


def test_extract_refuses_a_frame_whose_exponent_window_is_past_the_scan(monkeypatch):
    """B/A near 8e9: epsilon^2 / (4 C^2 delta) starts below 2^-64, and doubling C only lowers it."""
    calls = []
    exponent = extraction.scale_exponent

    def counted(epsilon, constant, delta):
        calls.append(constant)
        return exponent(epsilon, constant, delta)

    monkeypatch.setattr(extraction, "scale_exponent", counted)
    fam = VectorFamily([[1.0, 0.0], [0.0, 1.1e-5]])
    assert frame_bounds(fam).is_frame
    with pytest.raises(PreconditionError, match="the exponent window lies past the 64-step exponent scan"):
        extract(fam)
    assert len(calls) == 1


def test_extract_keeps_doubling_the_constant_past_64_steps():
    # A = B = 2^200: the window ratio A^2 / (36 B C^2) starts near 2^195 and
    # falls fourfold per doubling, so it takes more than 64 doublings to reach 2
    result = extract(VectorFamily(2.0**100 * np.eye(2)))
    assert result.mult_ok and result.report.is_frame
    assert result.plan.scale.constant > 2.0**64 * extraction._CONSTANT_FLOOR


@pytest.mark.parametrize("k", [72, 100, 200, 254, 256, 300, 500, 508, 510])
def test_extract_at_large_scales_selects_or_raises_a_precondition_error(k):
    # past k = 254, C^4 and A^2 leave the float range while the multiplicity
    # bound does not; only a frame bound past it is refused (the Gaussian
    # family's B exceeds 4^510)
    rng = np.random.default_rng(0)
    for base in (np.eye(3), rng.standard_normal((12, 4))):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = extract(VectorFamily(2.0**k * base))
            except PreconditionError as exc:
                assert k == 510 and base.shape == (12, 4), exc
                assert "overflows the float range" in str(exc)
            else:
                assert result.mult_ok and math.isfinite(result.mult_bound_L)
                if k >= 100 and base.shape == (3, 3):
                    assert result.mult_bound_L == 2.25  # 144 C^2 B / A^2 with A = B = 4^k, C = 2^(k-3)


def test_multiplicity_bound_equals_the_plain_formula():
    """Bit for bit where the plain formula's intermediates are normal floats; else the exact value."""
    rng = np.random.default_rng(11)
    normal = sys.float_info.min
    compared = 0
    for _ in range(8000):
        a, b = sorted(math.ldexp(rng.uniform(0.5, 1.0), int(e)) for e in rng.integers(-600, 600, 2))
        c = math.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-300, 300)))
        exact = max(Fraction(144) * Fraction(c) ** 2 * Fraction(b) / Fraction(a) ** 2,
                    Fraction(64) * Fraction(c) ** 4 / Fraction(b) ** 2)
        if exact > sys.float_info.max:
            with pytest.raises(OverflowError):
                _multiplicity_bound(a, b, c)
            continue
        got = _multiplicity_bound(a, b, c)
        assert abs(Fraction(got) - exact) <= exact * 2.0**-50 + Fraction(2.0**-1074), (a, b, c)  # subnormals lose bits
        if not 2.0**-255 <= c < 2.0**256:  # C^4 from C's mantissa, not c**4
            continue
        c4 = c**4
        steps = [144.0 * c, 144.0 * c * c, 144.0 * c * c * b, a * a, c4, 64.0 * c4, b * b]
        if all(normal <= x < math.inf for x in steps) and exact >= normal:
            compared += 1
            assert got == max(144.0 * c * c * b / (a * a), 64.0 * c4 / (b * b)), (a, b, c)
    assert compared > 3000
    # 2^256 I_3: A = B = 2^512 and C = 2^253, where A^2 and C^4 overflow
    assert _multiplicity_bound(2.0**512, 2.0**512, 2.0**253) == 2.25


def _sized(rng, shape, complex_field):
    """Entries of magnitude 1/2 to 2 in each part, so that 2^-1000 times one is a normal float."""
    def part():
        return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    return part() + 1j * part() if complex_field else part()


@given(
    dim=st.integers(1, 3),
    extra=st.integers(0, 3),
    complex_field=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-1000, 1000),
)
@settings(max_examples=30, deadline=None)
@example(dim=2, extra=1, complex_field=False, seed=0, k=532)  # 10^160 is about 2^531.5
def test_extract_depends_only_on_the_rescaled_vectors(dim, extra, complex_field, seed, k):
    """2^k x_n with scalars 2^-k c_n: the same c_n x_n, so the same selection, bit for bit."""
    rng = np.random.default_rng(seed)
    vectors = _sized(rng, (dim + extra, dim), complex_field)
    scalars = _sized(rng, dim + extra, complex_field)

    def outcome(fam):
        try:
            res = extract(fam)
        except FramexError as exc:
            return type(exc), str(exc)
        return res.sigma.multiplicity, res.plan.scale.value, res.report.lower, res.report.upper

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = outcome(VectorFamily(2.0**k * vectors, scalars=2.0**-k * scalars))
    assert scaled == outcome(VectorFamily(vectors, scalars=scalars))


# each forged selection of extract(eye(4)), whose blocks each select their
# one member 4 times at beta = 2, and the check that must refuse it
_FORGED_SELECTIONS = {
    "nothing": (lambda block, mult: {}, NotAFrameError, "sampling selected nothing"),
    "one-index": (lambda block, mult: mult if block == 0 else {}, NotAFrameError, "selected multiset does not span"),
    "hundredfold": (lambda block, mult: {n: 100 * t for n, t in mult.items()}, PreconditionError, "escape the envelope"),
    # bounds [4, 7] stay inside [4/3, 12], but |7/4 - 1| exceeds 2 epsilon = 2/3
    "seven-of-one": (lambda block, mult: {n: 7 if block == 0 else t for n, t in mult.items()}, PreconditionError, "stacked deviation 0.75 exceeds"),
}


@pytest.mark.parametrize("forge", sorted(_FORGED_SELECTIONS))
def test_extract_refuses_a_forged_selection(monkeypatch, forge):
    change, error, message = _FORGED_SELECTIONS[forge]
    blocks, sampled = itertools.count(), extraction._sample

    def forged(*args, **kwargs):
        sigma, cert = sampled(*args, **kwargs)
        return extraction.SamplingFunction(change(next(blocks), sigma.multiplicity)), cert

    monkeypatch.setattr(extraction, "_sample", forged)
    with pytest.raises(error, match=message):
        extract(VectorFamily(np.eye(4)))


@pytest.mark.parametrize("dim, generic, limit_mib", [(160, False, 16), (64, True, 24)])
def test_extract_memory_is_bounded(dim, generic, limit_mib):
    """Pads are held as factor rows, so extract's memory grows as n d, not n d^2.

    3d unit Gaussian vectors in R^d: with unit scalars every block stays at
    level 0; scalars drawn from [0.3, 3] reach the split levels.  With every
    pad formed as a d x d matrix the traced peaks were 191 MiB at d = 160
    and 31.1 MiB at d = 64; held as rows they are 6.0 and 14.5 MiB.
    """
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(3 * dim, dim))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    family = VectorFamily(rows, scalars=rng.uniform(0.3, 3.0, size=3 * dim) if generic else None)
    extract(VectorFamily(rows[:8, :2]))  # lazy imports and caches are not counted
    tracemalloc.start()
    try:
        result = extract(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.mult_ok and result.report.is_frame
    assert peak < limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_extract_rejects_non_spanning():
    with pytest.raises(NotAFrameError):
        extract(VectorFamily(np.eye(3)[:2]))


def test_equivalence_b_to_a_plain():
    out = equivalence_b_to_a(VectorFamily([[2.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(out.vectors, [[0.5, 0.0], [0.0, 1.0]])


def test_equivalence_b_to_a_with_scalars():
    # scalars fold into the coefficient duals so reconstruction uses x_n itself
    out = equivalence_b_to_a(VectorFamily(np.eye(2), scalars=[2.0, 1.0]))
    assert np.allclose(out.vectors, np.eye(2))


def test_equivalence_b_to_a_forms_one_gram(monkeypatch):
    shapes = []
    gram = frames._gram
    monkeypatch.setattr(frames, "_gram", lambda w: (shapes.append(w.shape), gram(w))[1])
    out = equivalence_b_to_a(VectorFamily(np.eye(2), scalars=[2.0, 1.0]))
    assert np.allclose(out.vectors, np.eye(2))
    assert shapes == [(2, 2)]


def test_equivalence_b_to_a_refuses_duals_that_fail_reconstruction(monkeypatch):
    dual = extraction.canonical_dual
    monkeypatch.setattr(extraction, "canonical_dual", lambda fam: VectorFamily(2.0 * dual(fam).vectors))
    with pytest.raises(PreconditionError, match="coefficient duals failed reconstruction"):
        equivalence_b_to_a(VectorFamily(np.eye(2)))


def test_equivalence_c_check():
    fam = VectorFamily(np.eye(2))
    duals = canonical_dual(fam)
    assert equivalence_c_check(fam, duals)
    assert not equivalence_c_check(fam, VectorFamily([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatchError, match="2 vectors against 3 duals"):
        equivalence_c_check(fam, VectorFamily(np.eye(3)))
    with pytest.raises(DimensionMismatchError, match="dim 2 against dual dim 3"):
        equivalence_c_check(fam, VectorFamily(np.eye(3)[:2]))


def test_equivalence_checks_pass_exact_duals_of_a_large_ill_conditioned_family():
    """n d = 800,000 and B/A near 10^5: the proven bound's rounding part, about
    n u ||abs(Y)^T abs(X)||_F, exceeds NUMERIC_TOL here, so a fixed tolerance would
    refuse the canonical duals; scaled by that size the checks pass them and still
    refuse duals off by 10^-6."""
    rng = np.random.default_rng(5)
    fam = VectorFamily(rng.normal(size=(20000, 40)) * np.geomspace(1.0, 300.0, 40))
    report = frame_bounds(fam)
    assert report.upper / report.lower > 5e4
    duals = canonical_dual(fam)
    bound, _ = frames.reconstruction_residual(duals.vectors, fam.vectors)
    assert bound > extraction.NUMERIC_TOL
    assert equivalence_c_check(fam, duals)
    assert not equivalence_c_check(fam, VectorFamily((1 - 1e-6) * duals.vectors))
    assert len(equivalence_b_to_a(fam)) == 20000


@given(
    dim=st.integers(1, 5),
    extra=st.integers(0, 4),
    complex_field=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_equivalence_b_to_a_and_c_oracle(dim, extra, complex_field, seed):
    """Coefficient duals reproduce x = sum <x, out_n> x_n and x = sum <x, x_n> out_n."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(dim + extra, dim))
    scalars = rng.uniform(0.3, 2.0, size=dim + extra) * rng.choice([-1.0, 1.0], size=dim + extra)
    if complex_field:
        vecs = vecs + 1j * rng.normal(size=vecs.shape)
        scalars = scalars * np.exp(2j * np.pi * rng.uniform(size=dim + extra))
    vecs[:dim] += 3.0 * np.eye(dim)  # keeps the family spanning with tame bounds
    fam = VectorFamily(vecs, scalars=scalars)
    out = equivalence_b_to_a(fam)
    # closed form: out_n = |c_n|^2 S_c^{-1} x_n with S_c the rescaled frame operator
    s_c = (np.abs(scalars) ** 2 * vecs.T) @ vecs.conj()
    expect = (np.abs(scalars) ** 2)[:, None] * np.linalg.solve(s_c, vecs.T).T
    np.testing.assert_allclose(out.vectors, expect, atol=1e-9)
    for _ in range(5):
        x = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_field else 0.0)
        np.testing.assert_allclose(vecs.T @ (out.vectors.conj() @ x), x, atol=1e-9)
        np.testing.assert_allclose(out.vectors.T @ (vecs.conj() @ x), x, atol=1e-9)
    assert equivalence_c_check(fam, out)
    assert equivalence_c_check(fam, canonical_dual(VectorFamily(vecs)))
    # a dual family that misses one direction fails the transposed reconstruction
    assert not equivalence_c_check(fam, VectorFamily(0.5 * out.vectors))


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_collinearity_tolerance_decides_the_rays(side):
    """Unit vectors with 1 - cos(theta) = COLLINEARITY_TOL (1 -+ 10^-3) are one ray just inside it, two outside."""
    cos = 1.0 - COLLINEARITY_TOL * (1.0 - side * 1e-3)
    fam = VectorFamily([[1.0, 0.0], [cos, math.sqrt(1.0 - cos * cos)], [0.0, 1.0]])
    selection = equivalence_a_to_d(fam)
    assert selection.classes == (((0, 1), (2,)) if side > 0 else ((0,), (1,), (2,)))
    assert selection.extraction.mult_ok


@given(
    dim=st.integers(1, 4),
    extra_rays=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_equivalence_a_to_d_oracle(dim, extra_rays, seed):
    """Rays are grouped exactly by collinearity; the chosen representatives span."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        extra_rays = 0  # the line has one ray only
    rays = np.vstack([np.eye(dim) + 0.2 * rng.normal(size=(dim, dim)), rng.normal(size=(extra_rays, dim))])
    members = [(r, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for r in range(len(rays))
               for _ in range(int(rng.integers(1, 4)))]
    order = rng.permutation(len(members))
    vecs = np.vstack([members[k][1] * rays[members[k][0]] for k in order] + [np.zeros(dim)])
    ray_of = [members[k][0] for k in order]
    sel = equivalence_a_to_d(VectorFamily(vecs))

    expected = {}
    for n, r in enumerate(ray_of):
        expected.setdefault(r, []).append(n)
    expected = sorted(tuple(cls) for cls in expected.values())
    assert sel.classes == tuple(expected)
    assert sel.representatives == tuple(cls[0] for cls in expected)
    assert sel.class_weights == tuple(float(len(cls)) for cls in expected)
    assert set(sel.indices) <= set(sel.representatives)
    assert len({ray_of[n] for n in sel.indices}) == len(sel.indices)
    units = vecs[list(sel.indices)] / np.linalg.norm(vecs[list(sel.indices)], axis=1)[:, None]
    assert np.linalg.matrix_rank(units) == dim
    assert sel.extraction.report.is_frame


def test_equivalence_a_to_d_collinear_classes():
    fam = VectorFamily([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    sel = equivalence_a_to_d(fam)
    assert sel.representatives == (0, 2)
    assert sel.classes == ((0, 1, 3), (2,))
    assert sel.class_weights == (3.0, 1.0)
    assert sel.indices == (0, 2)
    assert sel.extraction.report.is_frame
    # selected rays stay pairwise non-collinear by construction
    u = fam.vectors[list(sel.indices)]
    gram = np.abs(u @ u.T)
    assert np.all(gram - np.eye(len(u)) < 1.0 - 1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equivalence_a_to_d_keeps_members_at_any_entry_scale():
    # each member's unit vector is taken after dividing by its largest entry,
    # so no norm overflows to inf or underflows to 0 and drops the member
    want = equivalence_a_to_d(VectorFamily([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert want.representatives == (0, 1, 2) and want.classes == ((0,), (1,), (2,))
    for vectors in ([[1e200, 0], [0, 1], [1, 1]], [[1e-170, 0], [0, 1], [1, 1]],
                    [[1e-200, 0], [0, 1], [1, 1]], [[1e-300, 0], [0, 1e300], [1, 1]]):
        sel = equivalence_a_to_d(VectorFamily(vectors))
        assert sel.representatives == want.representatives and sel.classes == want.classes
        assert sel.indices == want.indices
        assert sel.extraction.report.lower == want.extraction.report.lower


def test_collinearity_overlap_is_symmetric_bit_for_bit():
    """|vdot(a, b)| == |vdot(b, a)| exactly, so the representatives, admitted by
    their overlap with each earlier one, need no re-check in the other order."""
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3, 7, 16, 33, 100, 257, 1000):
        for complex_field in (False, True):
            pairs = rng.normal(size=(40, 2, dim))
            if complex_field:
                pairs = pairs + 1j * rng.normal(size=(40, 2, dim))
            units = pairs / np.linalg.norm(pairs, axis=2)[:, :, None]
            for a, b in units:
                assert abs(complex(np.vdot(a, b))) == abs(complex(np.vdot(b, a)))


def test_equivalence_a_to_d_rejects_non_spanning():
    with pytest.raises(NotAFrameError):
        equivalence_a_to_d(VectorFamily([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(NotAFrameError):
        equivalence_a_to_d(VectorFamily([[0.0, 0.0]]))
