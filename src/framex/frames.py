"""Finite vector families: frame operators, bounds, canonical duals, labels.

A family {x_n} in R^d or C^d is a frame when A ||x||^2 <= sum |<x, x_n>|^2
<= B ||x||^2 for constants 0 < A <= B.  In finite dimensions a family is a
frame exactly when it spans; the interesting content is quantitative, so
bounds are computed as extreme eigenvalues of the frame operator
S = sum of <., x_n> x_n.  Every function here reads an array-like family
as VectorFamily(x), so its entries are cast to float64 (or complex128) and
must be finite.  A family with scalars c_n is the family {c_n x_n} to every
function here; VectorFamily(fam.vectors) is its raw vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAFrameError, PreconditionError
from .linalg import NUMERIC_TOL, RANK_DROP_TOL, PsdOperator, _extend_span, _times_pow2, _top_exponents

__all__ = [
    "FRAME_TOL_FACTOR",
    "VectorFamily",
    "FrameReport",
    "Classification",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "classify",
]

# Lower frame bounds below FRAME_TOL_FACTOR * B are treated as zero.
FRAME_TOL_FACTOR = 1e-10


class VectorFamily:
    """An ordered finite family of vectors with optional scalars and labels.

    Vectors are rows of a 2d array.  Scalars are per-vector weights, and
    the family they make is {c_n x_n}, its weighted_vectors(); complex
    scalars are only permitted when the ambient space is complex.  A family
    is immutable, so it forms its frame once: frame_bounds, frame_operator,
    canonical_dual and classify share it.  A subclass that has a formula for
    the frame operator overrides _operator; frame_bounds and frame_operator
    then read its rows only to scale a family whose squares leave the float
    range.  The vectors are copied.
    """

    __slots__ = ("_vectors", "_scalars", "_labels", "_frame")

    def __init__(self, vectors, scalars=None, labels=None):
        v = np.asarray(vectors)
        if v.ndim != 2:
            raise PreconditionError(f"expected a (count, dim) array, got shape {v.shape}")
        if v.shape[0] == 0 or v.shape[1] == 0:
            raise PreconditionError("a vector family must hold at least one vector in dim >= 1")
        dtype = np.complex128 if np.iscomplexobj(v) else np.float64
        v = v.astype(dtype)
        if not np.isfinite(v).all():
            raise PreconditionError("vectors must have finite entries")
        v.setflags(write=False)
        self._vectors = v
        if scalars is not None:
            s = np.asarray(scalars)
            if s.shape != (v.shape[0],):
                raise DimensionMismatchError(
                    f"scalars shape {s.shape} does not match {v.shape[0]} vectors"
                )
            if np.iscomplexobj(s) and dtype is np.float64:
                if np.max(np.abs(s.imag)) > 0:
                    raise PreconditionError("complex scalars over a real family")
                s = s.real
            s = s.astype(dtype, copy=True)
            if not np.isfinite(s).all():
                raise PreconditionError("scalars must be finite")
            s.setflags(write=False)
            self._scalars = s
        else:
            self._scalars = None
        if labels is not None:
            labels = tuple(map(str, labels))
            if len(labels) != v.shape[0]:
                raise DimensionMismatchError(
                    f"{len(labels)} labels for {v.shape[0]} vectors"
                )
        self._labels = labels
        self._frame = None  # (FrameReport, PsdOperator or None) once frame_bounds has run

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def scalars(self):
        return self._scalars

    @property
    def labels(self):
        return self._labels

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self._vectors) else "real"

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def weighted_vectors(self) -> np.ndarray:
        """Rows c_n * x_n; identity weights when no scalars are attached.

        A product beyond the float range reads inf (or nan), without a warning.
        """
        if self._scalars is None:
            return self.vectors
        with np.errstate(over="ignore", invalid="ignore"):
            return self._vectors * self._scalars[:, None]

    def __repr__(self):
        return f"VectorFamily(count={len(self)}, dim={self.dim}, field={self.field})"

    def _operator(self, e: int = 0) -> np.ndarray:
        """The frame operator of the weighted vectors times 2^-e, as their Gram product."""
        w = self.weighted_vectors()
        return _gram(_times_pow2(w, -e) if e else w)


@dataclass(frozen=True)
class FrameReport:
    """Quantitative summary of a family: bounds and derived predicates."""

    lower: float
    upper: float
    is_frame: bool
    is_bessel: bool
    is_tight: bool
    is_riesz_basis: bool


@dataclass(frozen=True)
class Classification:
    """Where a family sits in the spanning hierarchy."""

    label: str  # riesz_basis | frame | rescalable | non_spanning
    report: FrameReport
    spanning: bool
    rescaling_recommended: bool
    note: str


def _as_family(family) -> VectorFamily:
    """family itself, or VectorFamily(family): float64 or complex128 rows, all finite."""
    return family if isinstance(family, VectorFamily) else VectorFamily(family)


def _gram(w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return w.T @ w.conj()


def frame_operator(family) -> PsdOperator:
    """S = sum of rank-one operators of the rescaled vectors c_n x_n.

    A family whose frame_bounds already formed S returns that operator.
    Raises PreconditionError when S overflows the float range.
    """
    family = _as_family(family)
    if family._frame is not None and family._frame[1] is not None:
        return family._frame[1]
    s = family._operator()
    if not np.isfinite(s).all():
        raise PreconditionError("frame operator is not finite: entries overflow the float range")
    return PsdOperator(s, _prevalidated=True)


# Frame operators whose largest diagonal entry lies in [2^-900, 2^900] are
# formed from the vectors as given; the squares of other families overflow
# or leave the normal float range, so those are scaled first.
_SQUARES_RANGE = 2.0**900


def _rescaled(bound: float, e: int) -> float:
    """bound * 4^e; a nonzero result outside the normal float range raises."""
    try:
        out = math.ldexp(bound, 2 * e)
    except OverflowError:
        raise PreconditionError(
            f"frame bound {bound:.6g} * 4^{e} overflows the float range"
        ) from None
    if bound and out < sys.float_info.min:
        raise PreconditionError(
            f"frame bound {bound:.6g} * 4^{e} underflows the normal float range"
        )
    return out


def reconstruction_residual(w: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(An upper bound on ||E||_2, E = W^T conj(Y) - I, and ||abs(W)^T abs(Y)||_F).

    E is the defect of x = sum <x, y_n> w_n for (n, d) rows W and Y.  The
    computed E^ is within g |W|^T |Y| + 2 u |E^| + m 2^-1074 entrywise, with
    g = gamma_n for real rows, sqrt(2) gamma_2n for complex ones (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5-3.6), so ||E||_2 <=
    ||E^||_F + ||that||_F, times 1 + 8 (d^2 + n) u for the norms' rounding.
    The second value, the size of the terms summed, scales a tolerance: the
    bound's rounding part is about n u times it.  Not exported.
    """
    count, dim = w.shape
    u = np.finfo(float).eps / 2
    m = 2 * count if np.iscomplexobj(w) or np.iscomplexobj(y) else count
    g = (math.sqrt(2.0) if m > count else 1.0) * m * u / (1 - m * u)
    defect = w.T @ y.conj() - np.eye(dim)
    terms = np.abs(w).T @ np.abs(y)
    slack = g * terms + 2 * u * np.abs(defect) + m * 2.0**-1074
    bound = (float(np.linalg.norm(defect)) + float(np.linalg.norm(slack))) * (1 + 8 * (dim * dim + count) * u)
    return float(bound), float(np.linalg.norm(terms))


def frame_bounds(family) -> FrameReport:
    """Frame bounds as extreme eigenvalues of the frame operator.

    Bounds and predicates come from S / 4^e, the frame operator scaled by
    the power of four that puts its largest diagonal entry in [0.25, 1).
    Power-of-two scaling is exact, so bounds are scale-equivariant and
    labels scale-invariant; the bounds are scaled back by 4^e, and a frame
    bound that leaves the normal float range raises PreconditionError.
    Two Cholesky factorizations check the eigenvalues; PreconditionError
    if either fails.  At scale 4^-e, with tol = NUMERIC_TOL * max(B, 1) and
    M the symmetrized operator eigensolved, they factor H = M - (A - tol) I
    and H = (B + tol) I - M.  One that runs to completion gives R* R = H + E
    with |E| <= g |R*| |R| in any summation order: for real M, g =
    gamma_{n+2} with n = d (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3, and one rounding for LAPACK's reciprocal
    scaling); for complex M each real and imaginary part is a real inner
    product of twice the length, so n = 2d and g gains a factor sqrt 2.
    As ||r_i||^2 <= h_ii / (1 - g), lambda_min(H) >= -g tr(H) / (1 - g)
    (the criterion of Rump, "Verification of positive definiteness", BIT
    46 (2006)).  With the shift's rounding (M's diagonal lies in [0, 1))
    and underflow (2^-1075 per product or quotient), success proves M's
    spectrum in [A - tol - c_d, B + tol + c_d], c_d = 3 n gamma_{n+1} (B + 1)
    + n (n + 1) 2^-1074.  The shift is tol alone, so no size fails it.  M
    is within gamma_{m+1} sum ||x_n||^2 of the exact operator of the m
    (scaled) vectors in the 2-norm: gamma_{m+3} if complex, plus
    d (m + 1) 2^-1074 for underflow (Higham, sections 3.1 and 3.6).  A
    Gabor family forms S from its window and shift histogram instead, by
    FFTs of length L (timefreq._walnut); with each FFT within
    8 ceil(log2 L) u relative in the 2-norm (Higham, Thm 24.2 for radix 2,
    taken to hold for numpy's other lengths), M is within
    sqrt(L) (32 ceil(log2 L) + 8) u sum ||x_n||^2 of the exact operator of
    the Gabor vectors, plus 8 L^2 2^-1074 for underflow.  A family forms
    its bounds once; a call that raises stores nothing.
    """
    family = _as_family(family)
    if family._frame is None:
        family._frame = _frame_bounds(family)
    return family._frame[0]


def _frame_bounds(family: VectorFamily) -> tuple[FrameReport, PsdOperator | None]:
    """frame_bounds and the frame operator it formed along the way.

    The operator is frame_operator(family), formed the same way; it is
    None when the family had to be scaled first, by the 2^-e that puts the
    largest real or imaginary part of its vectors in [0.5, 1), and then
    only frame_operator can say whether it overflows.
    """
    s, e = family._operator(), 0
    top = float(np.max(s.diagonal().real))
    scaled = not 1.0 / _SQUARES_RANGE <= top <= _SQUARES_RANGE and (w := family.weighted_vectors()).any()
    if scaled:
        e = int(_top_exponents(w).max())
        s = family._operator(e)
        top = float(np.max(s.diagonal().real))
    # a family's own vectors are finite and scaled rows are below 1, so only c_n x_n can overflow
    if not np.isfinite(s).all():
        raise PreconditionError("frame operator is not finite: the rescaled vectors overflow the float range")
    operator = None if scaled else PsdOperator(s, _prevalidated=True)
    k = (math.frexp(top)[1] + 1) // 2
    scaled_operator = PsdOperator(s * 4.0**-k, _prevalidated=True)
    ev = scaled_operator.eigenvalues
    if operator is not None:  # S's spectrum: scaling by a power of four is exact
        operator._eigenvalues = ev * 4.0**k
        operator._eigenvalues.setflags(write=False)
    e += k
    lower = float(max(ev[0], 0.0))
    upper = float(max(ev[-1], 0.0))
    tol = NUMERIC_TOL * max(upper, 1.0)
    m, eye = scaled_operator.matrix, np.eye(family.dim)
    try:
        np.linalg.cholesky(m - (lower - tol) * eye)
        np.linalg.cholesky((upper + tol) * eye - m)
    except np.linalg.LinAlgError:
        raise PreconditionError(
            "internal check failed: a Cholesky factorization put the spectrum outside [A - tol, B + tol]"
        ) from None
    is_frame = lower > FRAME_TOL_FACTOR * upper
    is_tight = is_frame and (upper - lower) <= NUMERIC_TOL * max(upper, 1.0)
    upper = _rescaled(upper, e)
    lower = _rescaled(lower, e) if is_frame else math.ldexp(lower, 2 * e)
    report = FrameReport(
        lower=lower,
        upper=upper,
        is_frame=is_frame,
        is_bessel=np.isfinite(upper),
        is_tight=is_tight,
        is_riesz_basis=is_frame and len(family) == family.dim,
    )
    return report, operator


def canonical_dual(family: VectorFamily) -> VectorFamily:
    """The dual family {S^-1 c_n x_n}; reconstruction against it is exact."""
    family = _as_family(family)
    report = frame_bounds(family)
    if not report.is_frame:
        raise NotAFrameError(
            f"canonical dual needs a frame; lower bound {report.lower:.3e} "
            f"is below {FRAME_TOL_FACTOR:.0e} * {report.upper:.3e}"
        )
    duals = np.linalg.solve(frame_operator(family).matrix, family.weighted_vectors().T).T
    return VectorFamily(duals, labels=family.labels)


def _units(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Indices of the nonzero rows, their unit vectors).

    Each row is scaled by the power of two that puts its largest real or
    imaginary part in [0.5, 1) before its norm, so no entry scale
    overflows or underflows the norm.
    """
    alive = np.flatnonzero(rows.any(axis=1))
    rows = rows[alive]
    rows = _times_pow2(rows, -_top_exponents(rows)[:, None])
    return alive, rows / np.linalg.norm(rows, axis=1)[:, None]


def _span_rank(rows: np.ndarray) -> int:
    """Rank of the unit vectors of the nonzero rows; a residual at or below RANK_DROP_TOL drops."""
    return len(_extend_span([], _units(rows)[1], rows.dtype, RANK_DROP_TOL))


def classify(family: VectorFamily) -> Classification:
    """Place a family in the hierarchy riesz_basis > frame > rescalable > non_spanning.

    rescalable means spanning: some choice of scalars turns the family into
    a frame (normalizing works).  A spanning family whose raw lower bound
    drowns below the frame tolerance is labeled rescalable and flagged.
    """
    family = _as_family(family)
    w = family.weighted_vectors()
    report = frame_bounds(family)
    spanning = _span_rank(w) == w.shape[1]
    if report.is_riesz_basis:
        label = "riesz_basis"
        note = "spanning with exactly dim vectors and positive lower bound"
    elif report.is_frame:
        label = "frame"
        note = "positive lower frame bound"
    elif spanning:
        label = "rescalable"
        note = "spans but the raw lower bound sits below tolerance; rescaling recommended"
    else:
        label = "non_spanning"
        note = "does not span; no rescaling can produce a frame"
    return Classification(
        label=label,
        report=report,
        spanning=spanning,
        rescaling_recommended=spanning and not report.is_frame,
        note=note,
    )
