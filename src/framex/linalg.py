"""Dense Hermitian primitives: validated PSD operators, projections, spectra.

Everything downstream (frame operators, selector sums, sampling certificates)
is built from the types here.  Tolerances are relative to the operator norm
unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, PreconditionError

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "NUMERIC_TOL",
    "RANK_DROP_TOL",
    "PsdOperator",
    "Projection",
    "rank_one",
]

# Validation thresholds, relative to the operator norm of the input.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
NUMERIC_TOL = 1e-9
# Rank decisions, on unit vectors or relative to the largest squared norm or eigenvalue.
RANK_DROP_TOL = 1e-8


def _as_square_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def _top_exponents(rows: np.ndarray) -> np.ndarray:
    """Per row, the e that puts its largest real or imaginary part in [2^(e-1), 2^e); 0 for a zero row."""
    return np.frexp(np.maximum(np.abs(rows.real), np.abs(rows.imag)).max(axis=1))[1]


def _times_pow2(x, e):
    """x * 2^e in two factors, as 2^e alone can leave the float range; exact where the result is normal."""
    half = e // 2
    return x * np.ldexp(1.0, half) * np.ldexp(1.0, e - half)


def _checked(a: np.ndarray):
    """(Symmetrized a, its ascending eigenvalues) of a validated PSD matrix.

    a must be finite, Hermitian within HERMITIAN_TOL times
    max(max |entry|, 1) and have smallest eigenvalue at least
    -PSD_TOL * max(opnorm, 1); the first check failing, in that order,
    raises PreconditionError.
    """
    adjoint = a.conj().T
    if not a.size:
        return (a + adjoint) / 2.0, np.empty(0)
    # NaN fails every comparison below, so it must be caught first
    if not np.isfinite(a).all():
        raise PreconditionError("matrix has non-finite entries")
    scale = max(float(np.abs(a).max()), 1.0)
    skew = float(np.abs(a - adjoint).max())
    if skew > HERMITIAN_TOL * scale:
        raise PreconditionError(
            f"matrix is not Hermitian: max asymmetry {skew:.3e} exceeds "
            f"{HERMITIAN_TOL:.1e} * {scale:.3e}"
        )
    sym = (a + adjoint) / 2.0
    vals = np.linalg.eigvalsh(sym)
    floor = -PSD_TOL * max(float(np.abs(vals).max()), 1.0)
    if vals[0] < floor:
        raise PreconditionError(
            "matrix is not positive semidefinite: "
            f"min eigenvalue {vals[0]:.3e} < {floor:.3e}"
        )
    return sym, vals


class PsdOperator:
    """A validated positive-semidefinite Hermitian operator on C^d or R^d.

    Construction symmetrizes the input after checking that it is finite and
    Hermitian, and rejects matrices whose smallest eigenvalue is below
    -PSD_TOL relative to the operator norm.  One built from factor rows
    (rank_one) is not checked.
    """

    __slots__ = ("_matrix", "_eigenvalues", "_trace", "_factor", "_from_rows", "_spectrum")

    def __init__(self, matrix, *, _prevalidated: bool = False):
        a = _as_square_matrix(matrix)
        vals = None
        if _prevalidated:
            a = (a + a.conj().T) / 2.0
        else:
            a, vals = _checked(a)
            vals.setflags(write=False)
        a.setflags(write=False)
        self._matrix = a
        self._eigenvalues = vals
        self._trace = float(np.real(np.trace(a)))
        self._factor = self._spectrum = None
        self._from_rows = False

    @classmethod
    def _of_rows(cls, rows) -> "PsdOperator":
        """sum_k f_k f_k* over the orthogonal rows of an (r, d) array, PSD by construction.

        Its matrix is fl(F^T conj(F)) symmetrized, formed when first read.
        """
        op = cls.__new__(cls)
        op._factor = f = np.array(rows, dtype=np.result_type(rows, np.float64))
        f.setflags(write=False)
        op._matrix, op._eigenvalues, op._spectrum, op._from_rows = None, None, None, True
        op._trace = float(np.sum(f * f.conj()).real)
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _outer_sums(self._factor)
            self._matrix.setflags(write=False)
        return self._matrix

    @property
    def factor(self) -> np.ndarray:
        """Rows F, (rank, d), with T = F^T conj(F), kept by an operator built from them.

        Any other T takes the eigenvectors of its one eigh with positive
        eigenvalues, times their roots: F^T conj(F) is T's positive part,
        without the eigenvalues down to -PSD_TOL ||T|| construction accepts.
        """
        if self._factor is None:
            vals, vecs = self._spectrum = self._spectrum or np.linalg.eigh(self._matrix)
            f = (vecs[:, vals > 0] * np.sqrt(vals[vals > 0])).T
            f.setflags(write=False)
            self._factor = f
        return self._factor

    @property
    def dim(self) -> int:
        return self._factor.shape[1] if self._matrix is None else self._matrix.shape[0]

    @property
    def trace(self) -> float:
        return self._trace

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (ties keep the ascending layout)."""
        if self._eigenvalues is None:
            vals = np.linalg.eigvalsh(self.matrix) if self.dim else np.empty(0)
            vals.setflags(write=False)
            self._eigenvalues = vals
        return self._eigenvalues

    def __repr__(self):
        return f"PsdOperator(dim={self.dim}, trace={self.trace:.6g})"

    @classmethod
    def zero(cls, dim: int) -> "PsdOperator":
        return cls._of_rows(np.zeros((0, dim)))


def _outer_sums(rows: np.ndarray) -> np.ndarray:
    """fl(F^T conj(F)) symmetrized for the (..., r, d) rows F, one (d, d) matrix per leading index."""
    a = (rows[..., :, :, None] * rows[..., :, None, :].conj()).sum(axis=-3)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _operator_list(ops) -> list:
    """ops as PsdOperators of one dimension; an empty list or mixed dimensions raise."""
    psd = [op if isinstance(op, PsdOperator) else PsdOperator(op) for op in ops]
    if not psd:
        raise PreconditionError("need at least one operator")
    if any(p.dim != psd[0].dim for p in psd):
        raise PreconditionError("operators live in different dimensions")
    return psd


def _factor_rows(psd) -> tuple[np.ndarray, np.ndarray]:
    """(every operator's factor rows stacked, the index of the operator owning each row)."""
    factors = [p.factor for p in psd]
    owner = np.repeat(np.arange(len(factors)), [len(f) for f in factors])
    return np.concatenate(factors), owner


def _range_rows(factors: np.ndarray, owner: np.ndarray, psd=()) -> tuple[np.ndarray, np.ndarray]:
    """(orthonormal rows spanning each operator's range, in operator order, the operator owning each).

    From the stacked factor rows and owners of _factor_rows: an operator
    keeps, normalized, its rows whose squared norms exceed RANK_DROP_TOL
    times its largest, or, if it has a spectrum (one of psd not built from
    rows), the eigenvectors of that eigh whose eigenvalues exceed
    RANK_DROP_TOL times the largest.
    """
    squares = (factors * factors.conj()).real.sum(axis=1)
    top = np.zeros(int(owner.max(initial=-1)) + 1)
    np.maximum.at(top, owner, squares)
    keep = squares > RANK_DROP_TOL * np.maximum(top, 1e-300)[owner]
    spectral = [k for k, p in enumerate(psd) if p._spectrum is not None]
    if not spectral:
        return factors[keep] / np.sqrt(squares[keep])[:, None], owner[keep]
    keep &= ~np.isin(owner, spectral)
    rows, owners = [factors[keep] / np.sqrt(squares[keep])[:, None]], [owner[keep]]
    for k in spectral:
        vals, vecs = psd[k]._spectrum
        rows.append(vecs[:, vals > RANK_DROP_TOL * max(float(vals[-1]) if vals.size else 0.0, 1e-300)].T)
        owners.append(np.full(len(rows[-1]), k))
    owners = np.concatenate(owners)
    order = np.argsort(owners, kind="stable")
    return np.concatenate(rows)[order], owners[order]


def _weighted_sum(rows: np.ndarray, coeffs) -> np.ndarray:
    """sum_k c_k f_k f_k* over the rows f_k: the one product F^T diag(c) conj(F)."""
    return rows.T @ (np.asarray(coeffs)[:, None] * rows.conj())


def rank_one(vector) -> PsdOperator:
    """The operator x -> <x, v> v; its trace is ||v||^2 and its factor the row v."""
    v = np.asarray(vector)
    if v.ndim != 1:
        raise PreconditionError(f"expected a vector, got shape {v.shape}")
    return PsdOperator._of_rows(v[None])


class Projection:
    """Orthogonal projection through an orthonormal basis of its range, checked to 1e-8 unless framex formed it."""

    __slots__ = ("_basis", "_matrix")

    def __init__(self, basis, dim: int | None = None, *, _orthonormal: bool = False):
        q = np.asarray(basis)
        if q.ndim != 2:
            raise PreconditionError(f"expected a (dim, rank) basis, got shape {q.shape}")
        if dim is not None and q.shape[0] != dim:
            raise DimensionMismatchError(f"basis lives in dim {q.shape[0]}, expected {dim}")
        if q.shape[1] and not _orthonormal:
            g = q.conj().T @ q
            defect = float(np.max(np.abs(g - np.eye(q.shape[1]))))
            if defect > 1e-8:
                raise PreconditionError(f"basis is not orthonormal: defect {defect:.3e}")
        q = q.astype(np.complex128 if np.iscomplexobj(q) else np.float64, copy=True)
        q.setflags(write=False)
        self._basis = q
        self._matrix = None

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def rank(self) -> int:
        return self._basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            q = self._basis
            m = q @ q.conj().T
            m = (m + m.conj().T) / 2.0
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def complement(self) -> "Projection":
        """Projection onto the orthogonal complement of the range: the last columns of a complete QR of the basis."""
        q_full, _ = np.linalg.qr(self._basis, mode="complete")  # the identity at rank 0
        return Projection(q_full[:, self.rank :], _orthonormal=True)

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"

    @classmethod
    def zero(cls, dim: int) -> "Projection":
        return cls(np.zeros((dim, 0)))

    @classmethod
    def full(cls, dim: int) -> "Projection":
        return cls(np.eye(dim))


def _extend_span(cols: list, candidates, dtype, threshold: float) -> list:
    """Orthonormal residuals of candidates against cols, appended in place.

    Classical Gram-Schmidt, twice: each vector in order takes two passes
    w <- w - Q (Q* w) against the columns Q kept so far, enough for Q to
    stay orthonormal to working precision (Giraud, Langou and Rozloznik,
    Comput. Math. Appl. 50, 2005).  A residual whose norm is at or below
    threshold is dropped; once cols spans the space the rest are skipped.
    Returns the vectors appended.
    """
    added, basis = [], None
    for v in candidates:
        w = np.array(v, dtype=dtype)
        if len(cols) == w.size:
            break
        if basis is None:
            basis = np.empty((w.size, w.size), dtype=dtype)
            basis[:, : len(cols)] = np.reshape(cols, (len(cols), w.size)).T
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
