"""Operator and projection layer: validation, oracles, basic algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framex import (
    DimensionMismatchError,
    PreconditionError,
    Projection,
    PsdOperator,
    rank_one,
)
from framex.frames import _span_rank
from framex.linalg import HERMITIAN_TOL, PSD_TOL, RANK_DROP_TOL, _extend_span
from helpers import reference_extend_span


def test_psd_diag_oracle():
    op = PsdOperator(np.diag([3.0, 1.0, 0.0]))
    assert op.dim == 3
    assert op.trace == pytest.approx(4.0)
    np.testing.assert_allclose(np.sort(op.eigenvalues), [0.0, 1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(op.matrix @ [1.0, 1.0, 1.0], [3.0, 1.0, 0.0])


def test_psd_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        PsdOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
def test_psd_rejects_non_finite(bad):
    # NaN passes every Hermitian and PSD comparison, so it is checked first
    with pytest.raises(PreconditionError, match="non-finite"):
        PsdOperator(np.array([[bad, 0], [0, 1]]))


def test_psd_rejects_negative():
    with pytest.raises(PreconditionError):
        PsdOperator(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("size", [1.0, 1e6, 1e-6])
def test_validation_edges_sit_at_the_tolerances(size):
    """HERMITIAN_TOL * max(max |a|, 1) bounds the asymmetry, -PSD_TOL * max(||a||, 1) the spectrum."""
    scale = max(size, 1.0)
    for factor, accepted in ((0.99, True), (1.01, False)):
        # a[0, 1] alone is the asymmetry and stays below size, so max |a| is size
        skew = factor * HERMITIAN_TOL * scale
        a = size * np.eye(3)
        a[0, 1] = skew
        if accepted:
            PsdOperator(a)
        else:
            message = f"matrix is not Hermitian: max asymmetry {skew:.3e} exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}"
            with pytest.raises(PreconditionError) as err:
                PsdOperator(a)
            assert str(err.value) == message
        low = -factor * PSD_TOL * scale
        a = np.diag([size, 0.5 * size, low])
        if accepted:
            assert PsdOperator(a).eigenvalues[0] == low
        else:
            message = f"matrix is not positive semidefinite: min eigenvalue {low:.3e} < {-PSD_TOL * scale:.3e}"
            with pytest.raises(PreconditionError) as err:
                PsdOperator(a)
            assert str(err.value) == message


def test_psd_rejects_rectangular():
    with pytest.raises(PreconditionError):
        PsdOperator(np.zeros((2, 3)))


def test_psd_algebra():
    # sums and scalings are taken on .matrix and validated again
    a = PsdOperator(np.diag([1.0, 2.0]))
    b = rank_one([1.0, 0.0])
    np.testing.assert_allclose(PsdOperator(a.matrix + b.matrix).matrix, np.diag([2.0, 2.0]))
    np.testing.assert_allclose(PsdOperator(0.5 * a.matrix).matrix, np.diag([0.5, 1.0]))
    with pytest.raises(PreconditionError):
        PsdOperator(-1.0 * a.matrix)
    np.testing.assert_allclose(PsdOperator.zero(2).matrix, np.zeros((2, 2)))


def test_rank_one():
    v = np.array([1.0, 2.0, 2.0])
    op = rank_one(v)
    assert op.trace == pytest.approx(9.0)
    np.testing.assert_allclose(op.matrix, np.outer(v, v))
    assert repr(op) == "PsdOperator(dim=3, trace=9)"
    with pytest.raises(PreconditionError):
        rank_one(np.eye(2))


def test_repr_runs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("repr ran an eigensolve")

    op = PsdOperator(np.diag([3.0, 1.0]))  # construction's check eigensolves once
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert repr(op) == "PsdOperator(dim=2, trace=4)"
    assert repr(rank_one([1.0, 1.0])) == "PsdOperator(dim=2, trace=2)"


def test_rank_one_complex():
    v = np.array([1.0, 1j])
    op = rank_one(v)
    assert op.trace == pytest.approx(2.0)
    # matrix acts as <x, v> v
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(op.matrix @ x, np.vdot(v, x) * v)


def test_eigenvalues_sorted(rng):
    a = rng.normal(size=(5, 5))
    op = PsdOperator(a @ a.T)
    vals = op.eigenvalues
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] == pytest.approx(np.linalg.norm(a @ a.T, 2))


def test_projection_basics():
    p = Projection(np.eye(3)[:, :2])
    assert p.rank == 2
    m = p.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-12)
    q = p.complement()
    assert q.rank == 1
    assert repr(q) == "Projection(dim=3, rank=1)"
    np.testing.assert_allclose(m + q.matrix, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_projection_complement_at_rank_zero_and_full_rank(dtype):
    """The complete QR gives the exact identity at rank 0 and no columns at full rank, in the basis dtype."""
    for p, rank in ((Projection(np.zeros((3, 0), dtype=dtype)), 3), (Projection(np.eye(3, dtype=dtype)), 0)):
        q = p.complement()
        assert q.rank == rank and q.basis.dtype == np.dtype(dtype)
        assert q.matrix.tobytes() == (np.eye(3, dtype=dtype) if rank else np.zeros((3, 3), dtype=dtype)).tobytes()


def test_span_rank_drops_dependent_vectors():
    v = np.array([1.0, 1.0])
    assert _span_rank(np.stack([v, 2.0 * v, -v])) == 1


def _full_pass_span(cols, candidates, dtype, threshold):
    # the block Gram-Schmidt without its stop at full rank: every candidate
    # is orthogonalized and tested
    added = []
    dim = len(candidates[0])
    basis = np.empty((dim, dim + len(candidates)), dtype=dtype)
    basis[:, : len(cols)] = np.reshape(cols, (len(cols), dim)).T
    for v in candidates:
        w = np.array(v, dtype=dtype)
        q = basis[:, : len(cols)]
        for _ in range(2):
            w -= q @ (w.conj() @ q).conj()
        size = float(np.linalg.norm(w))
        if size > threshold:
            w /= size
            basis[:, len(cols)] = w
            cols.append(w)
            added.append(w)
    return added


@pytest.mark.parametrize("complex_field", [False, True])
def test_span_stops_at_full_rank_with_the_full_pass_bits(complex_field):
    rng = np.random.default_rng(7)
    dtype = np.complex128 if complex_field else np.float64
    for dim in (1, 2, 5, 12):
        for count in (dim + 1, 2 * dim, 4 * dim + 3):
            vs = rng.normal(size=(count, dim))
            if complex_field:
                vs = vs + 1j * rng.normal(size=(count, dim))
            vs[dim // 2] = 0.5 * vs[0] + 1e-12 * vs[dim // 2]  # dropped before full rank
            for seed_cols in (0, dim // 2):
                start = list(np.linalg.qr(rng.normal(size=(dim, dim)))[0].T[:seed_cols].astype(dtype))
                fast_cols, full_cols = list(start), list(start)
                fast = _extend_span(fast_cols, vs, dtype, RANK_DROP_TOL)
                full = _full_pass_span(full_cols, vs, dtype, RANK_DROP_TOL)
                assert len(fast) == len(full) and len(fast_cols) == dim
                assert all(a.tobytes() == b.tobytes() for a, b in zip(fast, full))


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 16),
    extra=st.integers(0, 12),
    complex_field=st.booleans(),
    offsets=st.lists(st.sampled_from([0.0, 1e-4, 1e-6, 1e-7, 1e-9, 1e-10]), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_span_decides_as_the_sequential_passes(dim, extra, complex_field, offsets, seed):
    """Block passes keep the candidates the column-by-column passes keep, orthonormal within 8 d u.

    Candidates are random, plus near-copies of earlier ones at the given
    offsets (relative to a unit candidate; the drop threshold is 1e-8), so
    residuals land on both sides of it.  Each candidate is fed alone, so
    every decision is seen."""
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if complex_field else np.float64
    vs = rng.normal(size=(dim + extra, dim))
    if complex_field:
        vs = vs + 1j * rng.normal(size=vs.shape)
    vs = list(vs / np.linalg.norm(vs, axis=1)[:, None])
    for k, offset in enumerate(offsets):
        noise = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_field else 0)
        vs.insert(int(rng.integers(1, len(vs) + 1)), vs[k % len(vs)] + offset * noise / np.linalg.norm(noise))
    blocked, sequential, decisions = [], [], []
    for v in vs:
        kept = bool(_extend_span(blocked, [v], dtype, RANK_DROP_TOL))
        decisions.append((kept, bool(reference_extend_span(sequential, [v], dtype, RANK_DROP_TOL))))
    assert all(a == b for a, b in decisions)
    assert [w.tobytes() for w in _extend_span([], vs, dtype, RANK_DROP_TOL)] == [w.tobytes() for w in blocked]
    if blocked:
        q = np.stack(blocked, axis=1)
        u = np.finfo(float).eps / 2
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 8 * dim * u


def test_projection_rejects_skew_basis():
    with pytest.raises(PreconditionError):
        Projection(np.array([[1.0], [1.0]]))


def test_projection_zero_full():
    assert Projection.zero(4).rank == 0
    assert Projection.full(4).rank == 4
    np.testing.assert_allclose(Projection.full(3).matrix, np.eye(3))


def test_projection_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        Projection(np.eye(3)[:, :1], dim=2)
    with pytest.raises(PreconditionError, match=r"expected a \(dim, rank\) basis, got shape \(3,\)"):
        Projection(np.ones(3))


def test_compress():
    op = PsdOperator(np.diag([2.0, 3.0]))
    p = Projection(np.array([[1.0], [0.0]]))
    small = PsdOperator(p.matrix @ op.matrix @ p.matrix)
    assert small.trace == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
def test_psd_properties(seed, dim):
    """Every A A^T is accepted; its largest eigenvalue in magnitude matches eigvalsh's."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    op = PsdOperator(a @ a.T)
    vals = np.linalg.eigvalsh(op.matrix)
    top = float(np.max(np.abs(op.eigenvalues)))
    assert top == pytest.approx(float(np.max(np.abs(vals))), rel=1e-9, abs=1e-12)
    assert np.min(op.eigenvalues) >= -1e-9 * max(1.0, top)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_projection_idempotent_property(seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=5) for _ in range(3)]
    p = Projection(np.linalg.qr(np.stack(vecs, axis=1))[0])
    m = p.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-10)
    np.testing.assert_allclose(m, m.T.conj(), atol=1e-10)
    for v in vecs:
        np.testing.assert_allclose(m @ v, v, atol=1e-9 * np.linalg.norm(v))
