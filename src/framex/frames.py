"""Finite vector families: frame operators, bounds, canonical duals, labels.

A family {x_n} in R^d or C^d is a frame when A ||x||^2 <= sum |<x, x_n>|^2
<= B ||x||^2 for constants 0 < A <= B.  In finite dimensions a family is a
frame exactly when it spans; the interesting content is quantitative, so
bounds are computed as extreme eigenvalues of the frame operator
S = sum of <., x_n> x_n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAFrameError, PreconditionError
from .linalg import NUMERIC_TOL, PsdOperator, project_onto

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
_SELF_CHECK_PROBES = 50


class VectorFamily:
    """An ordered finite family of vectors with optional scalars and labels.

    Vectors are rows of a 2d array.  Scalars are per-vector weights used by
    rescaling routines; complex scalars are only permitted when the ambient
    space is complex.
    """

    __slots__ = ("_vectors", "_scalars", "_labels")

    def __init__(self, vectors, scalars=None, labels=None):
        v = np.asarray(vectors)
        if v.ndim != 2:
            raise PreconditionError(f"expected a (count, dim) array, got shape {v.shape}")
        if v.shape[0] == 0 or v.shape[1] == 0:
            raise PreconditionError("a vector family must hold at least one vector in dim >= 1")
        dtype = np.complex128 if np.iscomplexobj(v) else np.float64
        v = v.astype(dtype, copy=True)
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
        """Rows c_n * x_n; identity weights when no scalars are attached."""
        if self._scalars is None:
            return self._vectors
        return self._vectors * self._scalars[:, None]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self._vectors, axis=1)

    def subfamily(self, indices) -> "VectorFamily":
        idx = list(indices)
        return VectorFamily(
            self._vectors[idx],
            None if self._scalars is None else self._scalars[idx],
            None if self._labels is None else [self._labels[i] for i in idx],
        )

    def __repr__(self):
        return f"VectorFamily(count={len(self)}, dim={self.dim}, field={self.field})"


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


def _family_matrix(family, use_scalars: bool) -> np.ndarray:
    if isinstance(family, VectorFamily):
        return family.weighted_vectors() if use_scalars else family.vectors
    w = np.asarray(family)
    if w.ndim != 2:
        raise PreconditionError(f"expected a vector family, got shape {w.shape}")
    return w


def _gram(w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return w.T @ w.conj()


def frame_operator(family, use_scalars: bool = False) -> PsdOperator:
    """S = sum of rank-one operators of the (optionally rescaled) vectors.

    Raises PreconditionError when S overflows the float range.
    """
    s = _gram(_family_matrix(family, use_scalars))
    if not np.isfinite(s).all():
        raise PreconditionError("frame operator is not finite: entries overflow the float range")
    return PsdOperator(s, _prevalidated=True)


# Frame operators whose largest diagonal entry lies in [2^-900, 2^900] are
# formed from the vectors as given; the squares of other families overflow
# or leave the normal float range, so those are scaled first.
_SQUARES_RANGE = 2.0**900


def _normalized(w: np.ndarray) -> tuple[np.ndarray, int]:
    """(w * 2^-e, e) for the e that puts the largest |entry| in [0.5, 1).

    Complex entries count by their larger part.
    """
    top = max(float(np.max(np.abs(w.real))), float(np.max(np.abs(w.imag))))
    e = math.frexp(top)[1]
    # two steps, since 2^-e alone leaves the float range for subnormal tops
    return w * 2.0 ** (-e // 2) * 2.0 ** (-e - (-e // 2)), e


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


def _unit_probes(count: int, dim: int, complex_field: bool) -> np.ndarray:
    """count random unit vectors of R^dim or C^dim, the same on every call (seed 0)."""
    rng = np.random.default_rng(0)
    p = rng.standard_normal((count, dim))
    if complex_field:
        p = p + 1j * rng.standard_normal((count, dim))
    return p / np.linalg.norm(p, axis=1)[:, None]


def frame_bounds(family, use_scalars: bool = False) -> FrameReport:
    """Frame bounds as extreme eigenvalues of the frame operator.

    Bounds and predicates come from S / 4^e, the frame operator scaled by
    the power of four that puts its largest diagonal entry in [0.25, 1).
    Power-of-two scaling is exact, so bounds are scale-equivariant and
    labels scale-invariant; the bounds are scaled back by 4^e, and a frame
    bound that leaves the normal float range raises PreconditionError.
    Runs a seeded probe self-check: for random unit x the analysis energy
    sum |<x, x_n>|^2 must fall inside [A - tol, B + tol].
    """
    return _frame_bounds(family, use_scalars)[0]


def _frame_bounds(family, use_scalars: bool) -> tuple[FrameReport, PsdOperator | None]:
    """frame_bounds and the frame operator it formed along the way.

    The operator is frame_operator(family, use_scalars), built from the
    same Gram product; it is None when the family had to be scaled first,
    and then only frame_operator can say whether it overflows.
    """
    w = _family_matrix(family, use_scalars)
    count, dim = w.shape
    s, e = _gram(w), 0
    top = float(np.max(s.diagonal().real))
    scaled = not 1.0 / _SQUARES_RANGE <= top <= _SQUARES_RANGE and w.any()
    if scaled:
        w, e = _normalized(w)
        s = _gram(w)
        top = float(np.max(s.diagonal().real))
    if not np.isfinite(s).all():
        raise PreconditionError("frame operator is not finite: the vectors are not finite")
    operator = None if scaled else PsdOperator(s, _prevalidated=True)
    k = (math.frexp(top)[1] + 1) // 2
    ev = PsdOperator(s * 4.0**-k, _prevalidated=True).eigenvalues
    e += k
    lower = float(max(ev[0], 0.0))
    upper = float(max(ev[-1], 0.0))
    tol = NUMERIC_TOL * max(upper, 1.0)
    probes = _unit_probes(_SELF_CHECK_PROBES, dim, np.iscomplexobj(w))
    # |<x, x_n>| as |<x_n, x>|: w is conjugated once, for the Gram product
    energies = np.sum(np.abs(w @ probes.conj().T) ** 2, axis=0) * 4.0**-k
    if np.any(energies < lower - tol) or np.any(energies > upper + tol):
        raise PreconditionError(
            "internal probe check failed: analysis energy escaped the eigenvalue range"
        )
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
        is_riesz_basis=is_frame and count == dim,
    )
    return report, operator


def canonical_dual(family: VectorFamily, use_scalars: bool = False) -> VectorFamily:
    """The dual family {S^-1 x_n}; reconstruction against it is exact.

    With use_scalars the dual of the rescaled family {c_n x_n} is returned.
    """
    return _canonical_dual(family, use_scalars, *_frame_bounds(family, use_scalars))


def _canonical_dual(family, use_scalars: bool, report: FrameReport, operator) -> VectorFamily:
    """canonical_dual for a caller already holding _frame_bounds(family, use_scalars)."""
    w = _family_matrix(family, use_scalars)
    duals = _solve_frame_operator(w, report, operator, w.T).T
    labels = family.labels if isinstance(family, VectorFamily) else None
    return VectorFamily(duals, labels=labels)


def _solve_frame_operator(w, report: FrameReport, operator, rhs) -> np.ndarray:
    """S^-1 rhs for the frame operator S of the rows of w.

    report and operator are _frame_bounds(w); S is formed again only when
    operator is None.  LAPACK solves each column of rhs on its own, so a
    column's solution does not depend on the other columns.
    """
    if not report.is_frame:
        raise NotAFrameError(
            f"canonical dual needs a frame; lower bound {report.lower:.3e} "
            f"is below {FRAME_TOL_FACTOR:.0e} * {report.upper:.3e}"
        )
    if operator is None:
        operator = frame_operator(w)
    return np.linalg.solve(operator.matrix, rhs)


def classify(family: VectorFamily, use_scalars: bool = False) -> Classification:
    """Place a family in the hierarchy riesz_basis > frame > rescalable > non_spanning.

    rescalable means spanning: some choice of scalars turns the family into
    a frame (normalizing works).  A spanning family whose raw lower bound
    drowns below the frame tolerance is labeled rescalable and flagged.
    """
    w = _family_matrix(family, use_scalars)
    report = frame_bounds(w)
    spanning = project_onto(list(w)).rank == w.shape[1]
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
