"""Frame bounds, duals, reconstruction, and the spanning hierarchy."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framex import (
    FRAME_TOL_FACTOR,
    DimensionMismatchError,
    NotAFrameError,
    PreconditionError,
    VectorFamily,
    canonical_dual,
    classify,
    equivalence_b_to_a,
    equivalence_c_check,
    frame_bounds,
    frame_operator,
)
import framex.frames as frames
from helpers import random_family

MERCEDES = np.array(
    [[0.0, 1.0], [-np.sqrt(3.0) / 2.0, -0.5], [np.sqrt(3.0) / 2.0, -0.5]]
)


def test_mercedes_is_tight():
    """Three unit vectors at 120 degrees give the frame operator (3/2) I."""
    fam = VectorFamily(MERCEDES)
    op = frame_operator(fam)
    np.testing.assert_allclose(op.matrix, 1.5 * np.eye(2), atol=1e-12)
    rep = frame_bounds(fam)
    assert rep.lower == pytest.approx(1.5)
    assert rep.upper == pytest.approx(1.5)
    assert rep.is_tight and rep.is_frame and not rep.is_riesz_basis


def test_duplicated_basis_vector():
    fam = VectorFamily(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(frame_operator(fam).matrix, np.diag([2.0, 1.0]))
    rep = frame_bounds(fam)
    assert (rep.lower, rep.upper) == (pytest.approx(1.0), pytest.approx(2.0))
    assert not rep.is_riesz_basis


def test_onb_is_riesz_basis():
    rep = frame_bounds(VectorFamily(np.eye(4)))
    assert rep.lower == pytest.approx(1.0)
    assert rep.upper == pytest.approx(1.0)
    assert rep.is_riesz_basis and rep.is_tight


def test_bounds_accept_raw_arrays(rng):
    vecs = rng.normal(size=(6, 3))
    assert frame_bounds(vecs).upper == pytest.approx(frame_bounds(VectorFamily(vecs)).upper)


def test_raw_integer_arrays_are_read_as_float_families():
    """An int64 Gram product of 2^32 wraps to 0; VectorFamily casts to float64 first."""
    raw = np.array([[2**32, 0], [0, 1]])
    fam = VectorFamily(raw.astype(np.float64))
    assert np.array_equal(frame_operator(raw).matrix, frame_operator(fam).matrix)
    assert frame_operator(raw).matrix[0, 0] == 2.0**64
    assert frame_bounds(raw) == frame_bounds(fam)
    assert classify(raw) == classify(fam)


@pytest.mark.parametrize("read", [frame_operator, frame_bounds, canonical_dual, classify])
def test_raw_arrays_with_a_nan_entry_are_refused(read):
    with pytest.raises(PreconditionError, match="vectors must have finite entries"):
        read(np.array([[1.0, 0.0], [0.0, math.nan]]))


def test_scalars_change_bounds():
    fam = VectorFamily(np.eye(2), scalars=[2.0, 1.0])
    rep = frame_bounds(fam)
    assert rep.lower == pytest.approx(1.0)
    assert rep.upper == pytest.approx(4.0)
    plain = frame_bounds(VectorFamily(fam.vectors))
    assert plain.upper == pytest.approx(1.0)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_frame_tolerance_factor_decides_is_frame(side):
    """A lower bound of FRAME_TOL_FACTOR * B (1 +- 10^-6) is a frame just above it, not just below."""
    t = math.sqrt(FRAME_TOL_FACTOR * (1.0 + side * 1e-6))
    fam = VectorFamily([[1.0, 0.0], [0.0, t]])
    report = frame_bounds(fam)
    assert report.upper == 1.0 and report.lower == pytest.approx(t * t, rel=1e-12)
    assert report.is_frame == (side > 0)
    assert classify(fam).label == ("riesz_basis" if side > 0 else "rescalable")


def test_family_guards():
    with pytest.raises(PreconditionError):
        VectorFamily(np.eye(2), scalars=[1.0 + 1j, 1.0])  # complex over real
    with pytest.raises(PreconditionError):
        VectorFamily(np.eye(2), scalars=[1.0])
    with pytest.raises(PreconditionError, match=r"expected a \(count, dim\) array, got shape \(3,\)"):
        VectorFamily(np.ones(3))
    with pytest.raises(PreconditionError, match="at least one vector in dim >= 1"):
        VectorFamily(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError, match="1 labels for 2 vectors"):
        VectorFamily(np.eye(2), labels=["a"])
    real = VectorFamily(np.eye(2), scalars=[2.0 + 0j, 1.0 + 0j])  # complex scalars with no imaginary part
    assert real.scalars.dtype == np.float64 and real.scalars.tolist() == [2.0, 1.0]
    fam = VectorFamily(np.eye(2), labels=[10, 20])
    assert fam.labels == ("10", "20")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_family_rejects_non_finite_entries(bad):
    with pytest.raises(PreconditionError, match="finite"):
        VectorFamily([[bad, 1.0]])
    with pytest.raises(PreconditionError, match="finite"):
        VectorFamily([[1.0 + 0j, complex(0.0, bad)]])
    with pytest.raises(PreconditionError, match="finite"):
        VectorFamily(np.eye(2), scalars=[1.0, bad])


def test_overflowing_frame_operator_is_rejected():
    huge = VectorFamily([[1e308, 0.0], [0.0, 1e308]])
    for fn in (frame_operator, frame_bounds, classify, canonical_dual):
        with pytest.raises(PreconditionError, match="overflow"):
            fn(huge)
    # scalars alone can carry the overflow
    with pytest.raises(PreconditionError, match="overflow"):
        frame_bounds(VectorFamily(np.eye(2), scalars=[1e200, 1.0]))


def _family_of_kind(rng, kind):
    dim = int(rng.integers(2, 5))
    if kind == "riesz_basis":
        vecs = rng.normal(size=(dim, dim))
    elif kind == "frame":
        vecs = rng.normal(size=(dim + 2, dim))
    elif kind == "rescalable":
        vecs = np.eye(dim)
        vecs[-1] *= 1e-7  # lower bound 1e-14, below the frame tolerance
    else:
        vecs = rng.normal(size=(dim + 1, dim))
        vecs[:, -1] = 0.0
    if rng.integers(0, 2):
        vecs = vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, size=vecs.shape))
    return vecs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["riesz_basis", "frame", "rescalable", "non_spanning"]),
    k=st.integers(-250, 250),
)
def test_bounds_and_labels_are_scale_equivariant(seed, kind, k):
    """Scaling a family by 2^k scales both bounds by exactly 4^k."""
    vecs = _family_of_kind(np.random.default_rng(seed), kind)
    base = classify(VectorFamily(vecs))
    scaled = classify(VectorFamily(vecs * 2.0**k))
    assert base.label == kind
    assert scaled.label == base.label
    assert scaled.spanning == base.spanning
    assert scaled.report.lower == math.ldexp(base.report.lower, 2 * k)
    assert scaled.report.upper == math.ldexp(base.report.upper, 2 * k)
    for name in ("is_frame", "is_tight", "is_riesz_basis"):
        assert getattr(scaled.report, name) == getattr(base.report, name)


@pytest.mark.parametrize("k", [-500, 460])
def test_extreme_family_is_scaled_before_its_squares(k):
    # squares near 2^-1000 or 2^920 lie outside the range where the frame
    # operator is formed from the vectors as given
    verdict = classify(VectorFamily(2.0**k * MERCEDES))
    plain = frame_bounds(VectorFamily(MERCEDES))
    assert verdict.label == "frame"
    assert verdict.report.is_tight
    assert verdict.report.lower == math.ldexp(plain.lower, 2 * k)
    assert verdict.report.upper == math.ldexp(plain.upper, 2 * k)


def test_bounds_below_the_normal_range_are_rejected():
    tiny = VectorFamily(1e-200 * np.eye(2))
    for fn in (frame_bounds, classify, canonical_dual):
        with pytest.raises(PreconditionError, match="underflow"):
            fn(tiny)


def test_frame_operator_of_an_underflowing_family_is_formed_without_raising():
    tiny = VectorFamily(1e-200 * np.eye(2))
    expected = tiny.vectors.T @ tiny.vectors
    np.testing.assert_array_equal(frame_operator(tiny).matrix, expected)
    # errors are not cached: every frame_bounds call raises again
    for _ in range(2):
        with pytest.raises(PreconditionError, match="underflow"):
            frame_bounds(tiny)
        np.testing.assert_array_equal(frame_operator(tiny).matrix, expected)


def test_frame_is_cached_once_for_the_scaled_family(monkeypatch):
    grams = []
    gram = frames._gram
    monkeypatch.setattr(frames, "_gram", lambda w: grams.append(w.shape) or gram(w))
    fam = VectorFamily(MERCEDES, scalars=[1.0, 2.0, 3.0])
    weighted = frame_bounds(fam)
    assert not weighted.is_tight
    w = fam.weighted_vectors()
    np.testing.assert_allclose(frame_operator(fam).matrix, w.T @ w, atol=1e-12)
    np.testing.assert_allclose(w.T @ canonical_dual(fam).vectors, np.eye(2), atol=1e-12)
    assert classify(fam).report is weighted and frame_bounds(fam) is weighted
    # one Gram product served all four
    assert grams == [(3, 2)]
    # the raw vectors are a family of their own
    raw = VectorFamily(fam.vectors)
    assert frame_bounds(raw).is_tight
    np.testing.assert_allclose(canonical_dual(raw).vectors, MERCEDES / 1.5, atol=1e-12)
    assert grams == [(3, 2), (3, 2)]


@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 4),
    complex_field=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_a_family_with_scalars_is_its_rescaled_vectors(count, dim, complex_field, seed):
    """VectorFamily(v, scalars=c) and VectorFamily(c v) agree bit for bit in every frames function."""
    rng = np.random.default_rng(seed)
    count += dim  # enough members to span, most draws
    v = rng.normal(size=(count, dim))
    c = rng.uniform(0.25, 4.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    if complex_field:
        v = v + 1j * rng.normal(size=v.shape)
        c = c * np.exp(2j * np.pi * rng.uniform(size=count))
    scaled, product = VectorFamily(v, scalars=c), VectorFamily(v * c[:, None])
    assert frame_bounds(scaled) == frame_bounds(product)
    assert np.array_equal(frame_operator(scaled).matrix, frame_operator(product).matrix)
    assert classify(scaled) == classify(product)
    if frame_bounds(product).is_frame:
        assert np.array_equal(canonical_dual(scaled).vectors, canonical_dual(product).vectors)


def test_bounds_dual_and_classify_form_one_gram(monkeypatch):
    grams = []
    gram = frames._gram
    monkeypatch.setattr(frames, "_gram", lambda w: grams.append(w.shape) or gram(w))
    fam = VectorFamily(MERCEDES)
    rep = frame_bounds(fam)
    duals = canonical_dual(fam)
    assert classify(fam).report is rep
    assert rep.is_tight
    np.testing.assert_allclose(duals.vectors, MERCEDES / 1.5, atol=1e-12)
    assert grams == [(3, 2)]


def test_weighted_vectors():
    fam = VectorFamily(np.eye(2), scalars=[3.0, -1.0])
    np.testing.assert_allclose(fam.weighted_vectors(), np.diag([3.0, -1.0]))
    bare = VectorFamily(np.eye(2))
    np.testing.assert_allclose(bare.weighted_vectors(), np.eye(2))


def test_canonical_dual_involution(rng):
    fam = random_family(rng, 4, 7)
    duals = canonical_dual(fam)
    back = canonical_dual(duals)
    np.testing.assert_allclose(back.vectors, fam.vectors, atol=1e-9)


def test_canonical_dual_reconstructs(rng):
    fam = random_family(rng, 5, 9)
    duals = canonical_dual(fam)
    for _ in range(20):
        x = rng.normal(size=5)
        # synthesis sum <x, y_n> x_n
        value = fam.vectors.T @ (duals.vectors.conj() @ x)
        assert np.linalg.norm(value - x) < 1e-9 * np.linalg.norm(x)


def test_dual_requires_frame():
    with pytest.raises(NotAFrameError):
        canonical_dual(VectorFamily(np.array([[1.0, 0.0], [2.0, 0.0]])))


def test_classify_hierarchy():
    assert classify(VectorFamily(np.eye(3))).label == "riesz_basis"
    assert classify(VectorFamily(MERCEDES)).label == "frame"
    nearly_flat = VectorFamily(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1e-6]]))
    verdict = classify(nearly_flat)
    assert verdict.label == "rescalable"
    assert verdict.spanning and verdict.rescaling_recommended
    short = classify(VectorFamily(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))
    assert short.label == "non_spanning"
    assert not short.spanning


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_frame_inequality_property(seed, dim):
    """Spectral bounds really do sandwich the analysis energy of probes."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(dim, 3 * dim))
    fam = VectorFamily(rng.normal(size=(count, dim)))
    rep = frame_bounds(fam)
    for _ in range(10):
        x = rng.normal(size=dim)
        energy = float(np.sum(np.abs(fam.vectors @ x) ** 2))
        nsq = float(x @ x)
        assert rep.lower * nsq <= energy * (1 + 1e-8) + 1e-12
        assert energy <= rep.upper * nsq * (1 + 1e-8) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_complex_dual_property(seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    fam = VectorFamily(vecs)
    duals = canonical_dual(fam)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    value = fam.vectors.T @ (duals.vectors.conj() @ x)
    assert np.linalg.norm(value - x) < 1e-8 * np.linalg.norm(x)


def test_classify_spanning_test_is_scale_free():
    """A basis with members 1e150 and 1e-150 spans, so it is rescalable.

    The spanning test runs on the unit vectors of the nonzero members, so
    no member's length decides it; normalizing gives the identity.
    """
    verdict = classify(VectorFamily([[1e150, 0.0], [0.0, 1e-150]]))
    assert verdict.label == "rescalable"
    assert verdict.spanning and verdict.rescaling_recommended
    assert classify(VectorFamily([[1e150, 0.0], [0.0, 1e-150], [0.0, 0.0]])).spanning
    # a zero member and an all-zero family do not span
    assert not classify(VectorFamily([[1.0, 0.0], [0.0, 0.0]])).spanning
    assert classify(VectorFamily(np.zeros((3, 2)))).label == "non_spanning"
    # a residual of 1e-9 on a unit vector is below RANK_DROP_TOL at any scale
    for scale in (1e-150, 1.0, 1e150):
        assert not classify(VectorFamily(scale * np.array([[1.0, 0.0], [1.0, 1e-9]]))).spanning


def _inertia(matrix):
    """(positive, negative, zero) eigenvalue counts of a symmetric Fraction matrix.

    Congruence by 1x1 pivots, or by a 2x2 pivot [[0, b], [b, 0]] (one
    positive and one negative eigenvalue) when the remaining diagonal is
    zero; Sylvester's law of inertia makes the counts exact.
    """
    a = [list(row) for row in matrix]
    live = list(range(len(a)))
    pos = neg = 0
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is not None:
            pos, neg = (pos + 1, neg) if a[p][p] > 0 else (pos, neg + 1)
            live.remove(p)
            for i in live:
                f = a[i][p] / a[p][p]
                for j in live:
                    a[i][j] -= f * a[p][j]
            continue
        pair = next(((i, j) for i in live for j in live if i < j and a[i][j] != 0), None)
        if pair is None:
            break
        i, j = pair
        b = a[i][j]
        pos, neg = pos + 1, neg + 1
        live = [r for r in live if r not in pair]
        for r in live:
            for c in live:
                a[r][c] -= (a[r][i] * a[j][c] + a[r][j] * a[i][c]) / b
    return pos, neg, len(a) - pos - neg


def test_inertia_oracle():
    F = Fraction
    assert _inertia([[F(1), F(0), F(0)], [F(0), F(-2), F(0)], [F(0), F(0), F(0)]]) == (1, 1, 1)
    assert _inertia([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert _inertia([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(3)]]) == (2, 1, 0)
    assert _inertia([[F(2), F(1)], [F(1), F(2)]]) == (2, 0, 0)


def _gamma(k):
    u = 2.0**-53
    return k * u / (1 - k * u)


def _integer_families():
    rng = np.random.default_rng(2024)
    families = []
    for d in (1, 2, 3, 5, 8, 12, 16):
        count = d + int(rng.integers(0, 2 * d + 1))
        families.append(rng.integers(-3, 4, size=(count, d)))
        families.append(rng.integers(-3, 4, size=(count, d)) + 1j * rng.integers(-3, 4, size=(count, d)))
    families.append(np.vstack([np.eye(4, dtype=int)] * 3))  # tight
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    families.append(hadamard * (1 + 1j))  # tight, complex
    deficient = rng.integers(-2, 3, size=(9, 6))
    deficient[:, 4] = deficient[:, 0] + deficient[:, 1]  # rank-deficient
    families.append(deficient)
    families.append(np.zeros((3, 4), dtype=int))
    return families


@pytest.mark.parametrize("vectors", _integer_families(), ids=lambda v: f"{v.dtype.kind}{v.shape}")
def test_certified_bounds_hold_for_the_exact_operator(vectors):
    """No exact eigenvalue of S lies outside [A - w, B + w] for the certificate's w.

    w = tol + c_d + the Gram rounding width, as frame_bounds documents, at
    the scale 4^-k it works at.  S of an integer family is an integer (or
    Gaussian-integer) matrix, so the inertia of S - xI at the rational
    points x = A - w and x = B + w is exact; a complex S is checked through
    its real form [[Re, -Im], [Im, Re]], whose eigenvalues are those of S,
    each twice.
    """
    report = frame_bounds(VectorFamily(vectors))
    count, dim = vectors.shape
    complex_field = np.iscomplexobj(vectors)
    exact = [[sum((complex(x[i]) * complex(x[j]).conjugate() for x in vectors.tolist()), 0j)
              for j in range(dim)] for i in range(dim)]
    if complex_field:
        exact = [[z.real for z in row] + [-z.imag for z in row] for row in exact] + [
            [z.imag for z in row] + [z.real for z in row] for row in exact
        ]
    else:
        exact = [[z.real for z in row] for row in exact]
    exact = [[Fraction(int(v)) for v in row] for row in exact]
    n = len(exact)
    top = max(float(exact[i][i]) for i in range(n))
    k = (math.frexp(top)[1] + 1) // 2
    upper = report.upper * 4.0**-k
    tol = frames.NUMERIC_TOL * max(upper, 1.0)
    c_d = 3 * n * _gamma(n + 1) * (upper + 1) + n * (n + 1) * 2.0**-1074
    gram = _gamma(count + (3 if complex_field else 1)) * float(np.sum(np.abs(vectors) ** 2)) * 4.0**-k
    width = Fraction(tol + c_d + gram) * Fraction(4) ** k
    for x, sign in ((Fraction(report.lower) - width, 1), (Fraction(report.upper) + width, -1)):
        shifted = [[sign * (v - (x if i == j else 0)) for j, v in enumerate(row)] for i, row in enumerate(exact)]
        assert _inertia(shifted)[1] == 0, (x, sign)


@pytest.mark.parametrize("end", [0, -1], ids=["lowest", "highest"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_certificate_refuses_eigenvalues_moved_by_ten_tol(monkeypatch, end, field):
    """An extreme eigenvalue moved inward by 10 tol fails its Cholesky check."""
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(9, 4))
    if field == "complex":
        vectors = vectors + 1j * rng.normal(size=(9, 4))
    frame_bounds(VectorFamily(vectors))  # the unmoved values pass
    eigvalsh = np.linalg.eigvalsh

    def moved(matrix):
        values = eigvalsh(matrix).copy()
        tol = frames.NUMERIC_TOL * max(values[-1], 1.0)
        values[end] += 10 * tol if end == 0 else -10 * tol
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    with pytest.raises(PreconditionError, match="internal check failed"):
        frame_bounds(VectorFamily(vectors))


def test_bounds_classify_and_dual_draw_no_probe(monkeypatch, rng):
    """Bounds, labels, duals and both reconstruction checks draw no random vector."""
    cases = [rng.normal(size=(7, 3)), rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))]

    def refuse(*args, **kwargs):
        raise AssertionError("a probe was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for vectors in cases:
        assert frame_bounds(VectorFamily(vectors)).is_frame
        assert classify(VectorFamily(vectors)).label in ("frame", "riesz_basis")
        duals = canonical_dual(VectorFamily(vectors))
        assert len(duals) == len(vectors)
        assert equivalence_c_check(VectorFamily(vectors), duals)
        assert len(equivalence_b_to_a(VectorFamily(vectors))) == len(vectors)


@settings(max_examples=60, deadline=None)
@given(
    extra=st.integers(0, 8),
    dim=st.integers(1, 6),
    complex_field=st.booleans(),
    scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
    perturb=st.sampled_from([0.0, 1e-14, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reconstruction_residual_bounds_the_exact_defect(extra, dim, complex_field, scale, perturb, seed):
    """The bound is at least ||W^T conj(Y) - I||_2 of the exact defect.

    Y is the computed canonical dual of W, perturbed, so the defect ranges
    from rounding alone to order one.  ||E||_2 is at least the norm of each
    column of E, and those are taken exactly in Fraction arithmetic."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(dim + extra, dim))
    if complex_field:
        w = w + 1j * rng.normal(size=w.shape)
    w = scale * w
    y = np.linalg.solve(w.T @ w.conj(), w.T).T.conj()
    y = y + perturb * np.abs(y).max() * rng.normal(size=y.shape)
    bound, size = frames.reconstruction_residual(w, y)
    assert size == np.linalg.norm(np.abs(w).T @ np.abs(y))

    def parts(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    for j in range(dim):
        column = Fraction(0)
        for i in range(dim):
            re, im = Fraction(-1 if i == j else 0), Fraction(0)
            for k in range(len(w)):
                (ar, ai), (br, bi) = parts(complex(w[k, i])), parts(complex(y[k, j]))
                re += ar * br + ai * bi  # w conj(y)
                im += ai * br - ar * bi
            column += re * re + im * im
        assert column <= Fraction(bound) ** 2
    # a computed 2-norm, up to its own rounding, never exceeds the bound
    assert np.linalg.norm(w.T @ y.conj() - np.eye(dim), 2) <= bound * (1 + 1e-12)
