"""Block extraction of a frame-forming sub-multiset from a rescalable family.

Given scalars c_n that turn {c_n x_n} into a frame, the index range is split
into blocks whose energy, compressed onto a sliding pair of constructed
subspaces, is summable.  Every block is then sampled at a shared dyadic scale
and the selections are concatenated.  The normalized selection is again a
frame with explicit bounds, and the number of times any index is repeated is
capped by an explicit multiple of its rescaled energy |c_n|^2 ||x_n||^2.

The module also carries the equivalence operations between the different
ways of presenting a rescalable family: coefficient duals, the transposed
reconstruction check, and the collinearity reduction to pairwise
non-collinear representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoAdmissibleExponentError,
    NotAFrameError,
    PreconditionError,
)
from .frames import VectorFamily, FrameReport, _as_family, _span_rank, _units, canonical_dual, frame_bounds, reconstruction_residual
from .linalg import NUMERIC_TOL, RANK_DROP_TOL, Projection, _extend_span, _times_pow2, _top_exponents, _weighted_sum, rank_one
from .sampling import SANDWICH_TOL, SamplingFunction, sample
from .selectors import (
    ScaleExponent,
    natural_max_order,
    scale_exponent,
    selector_constant,
)

__all__ = [
    "COLLINEARITY_TOL",
    "ENVELOPE_SLACK",
    "ExtractionPlan",
    "ExtractionResult",
    "SpanDistinctSelection",
    "plan",
    "extract",
    "equivalence_b_to_a",
    "equivalence_a_to_d",
    "equivalence_c_check",
]

# two unit vectors with |<u, v>| above 1 - COLLINEARITY_TOL count as one ray
COLLINEARITY_TOL = 1e-8

# multiplicative slack on the verified output frame-bound envelope
ENVELOPE_SLACK = 1e-6

# the constant only enters through the exponent window, so any positive
# floor works; doubling from here terminates the consistency loop fast
_CONSTANT_FLOOR = 0.25

# weights within this distance of a coarse dyadic rational are snapped to it
_SNAP_TOL = 1e-12


def _multiplicity_bound(a: float, b: float, c: float) -> float:
    """max(144 C^2 B/A^2, 64 C^4/B^2) from frexp mantissas, scaled by their power of two at the end.

    C^2 B, A^2 and C^4 leave the float range long before the bound does.  C^4
    is c**4 while that is normal (C in [2^-255, 2^256)), so the bound is the
    plain formula's wherever its intermediates are normal.  extract's is below
    2^130 (eps <= A/3B, beta <= 64); one past the float range raises OverflowError.
    """
    (ma, ea), (mb, eb), (mc, ec) = math.frexp(a), math.frexp(b), math.frexp(c)
    m4, e4 = math.frexp(c**4) if -255 < ec <= 256 else (mc**4, 4 * ec)
    return max(
        math.ldexp(144.0 * mc * mc * mb / (ma * ma), 2 * ec + eb - 2 * ea),
        math.ldexp(64.0 * m4 / (mb * mb), e4 - 2 * eb),
    )


def _threshold(j: int, epsilon: float) -> float:
    """Block threshold: 0 at j = 0, then (epsilon^2 / 36) 4^-j."""
    if j <= 0:
        return 0.0
    return 1 / (36 * 4**j) * epsilon * epsilon  # int / int rounds once


def _resolve_constants(lower: float, upper: float):
    """Pick (epsilon, scale exponent with its constant) consistently for trace cap 1/B.

    epsilon = min(A/3B, sqrt(B)/2C) depends on C, and the admissible
    exponent window depends on both.  Doubling C only lowers the window
    ratio, A^2 / (36 B C^2) or B^2 / (16 C^4), so only a ratio above 2 is
    retried; each retry divides it by 4 or more, so the loop ends.
    """
    delta = 1.0 / upper
    c = max(selector_constant(delta, natural_max_order(delta)), _CONSTANT_FLOOR)
    while True:
        epsilon = min(lower / (3.0 * upper), math.sqrt(upper) / (2.0 * c))
        try:
            return epsilon, scale_exponent(epsilon, c, delta)
        except NoAdmissibleExponentError:
            if epsilon * epsilon / (4.0 * c * c * delta) <= 2.0:  # a larger C lowers it further
                raise PreconditionError("the exponent window lies past the 64-step exponent scan") from None
            c *= 2.0


def _as_projection(cols: list, dim: int, dtype) -> Projection:
    if not cols:
        return Projection(np.zeros((dim, 0), dtype=dtype))
    return Projection(np.stack(cols, axis=1))


@dataclass(frozen=True, eq=False)
class ExtractionPlan:
    """Block decomposition with the subspaces driving every sampling call.

    blocks are half-open 0-based intervals partitioning the index range;
    the final block is empty and only closes the projection identity.
    subspaces holds the constructed chain (first entry the zero subspace),
    block_subspaces the per-block reference subspace each sampler avoids.
    scale is the exponent beta, with its constant C, shared by every block.
    """

    blocks: tuple
    subspaces: tuple
    block_subspaces: tuple
    thresholds: tuple
    gammas: tuple
    epsilon: float
    scale: ScaleExponent
    trace_cap: float
    lower: float
    upper: float
    identity_defect: float


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Selection, its normalized family, and every audited quantity."""

    sigma: SamplingFunction
    normalized: VectorFamily
    report: FrameReport
    mult_bound_L: float
    mult_ok: bool
    plan: ExtractionPlan
    certificates: tuple
    total_deviation: float
    deviation_cap: float
    envelope: tuple


def _family_data(family):
    """(family, energies |c_n|^2 ||x_n||^2, unit vectors (zero where the energy is), energy > 0).

    Each x_n and c_n is squared at the power-of-two scale that puts its
    largest part in [0.5, 1), so no square leaves the float range and an
    energy depends on c_n x_n alone, bit for bit.
    """
    fam = _as_family(family)
    e = _top_exponents(fam.vectors)
    rows = _times_pow2(fam.vectors, -e[:, None])
    norms = np.linalg.norm(rows, axis=1)
    energies = norms**2
    if fam.scalars is not None:
        f = _top_exponents(fam.scalars[:, None])
        energies = np.abs(_times_pow2(fam.scalars, -f)) ** 2 * energies
        e += f
    with np.errstate(over="ignore"):  # frame_bounds names the overflow of c_n x_n
        weights = _times_pow2(energies, 2 * e)
    active = weights > 0
    units = np.zeros_like(rows)
    units[active] = rows[active] / norms[active, None]
    return fam, weights, units, active


def _snap_weight(value: float, beta: int) -> float:
    """Dyadic rational for a sampling weight.

    Rescaled energies are often integers or coarse dyadics up to float
    rounding, and rounding just below such a value produces a maximally
    deep binary expansion whose replica count explodes.  Snapping to the
    grid 2^-beta (when the value sits within _SNAP_TOL of it) keeps the
    finest exponent at beta and the replica count at its natural size.
    Values genuinely off the grid pass through exactly.  The comparison is
    exact: value = num / den with den a power of two, in integers over
    q * den; the snapped value n / q is a float exactly, since n < 2^53 or
    n / q = value.
    """
    num, den = value.as_integer_ratio()
    q = 2 ** min(max(beta, 0), 40)
    n, rem = divmod(num * q, den)
    if 2 * rem > den or (2 * rem == den and n % 2):  # round half to even
        n += 1
    tol_num, tol_den = (_SNAP_TOL * max(1.0, value)).as_integer_ratio()
    if n > 0 and abs(n * den - num * q) * tol_den <= tol_num * q * den:
        return n / q
    return value


def _within_cap(times: int, cap: float, weight: float) -> bool:
    """times <= cap * weight, exactly: both floats as integers over powers of two."""
    cap_num, cap_den = cap.as_integer_ratio()
    weight_num, weight_den = weight.as_integer_ratio()
    return times * cap_den * weight_den <= cap_num * weight_num


def plan(family, lower: float, upper: float) -> ExtractionPlan:
    """Split the index range into blocks with summable compressed energy.

    The chain subspace after step j is spanned by the residuals of the first
    K_j directions; the next boundary is the smallest index whose weighted
    tail, compressed onto the chain built so far, drops below the block
    threshold.  A trailing empty block closes the two-cover identity
    sum_j (projection onto the j-th pair of chain subspaces) = 2 Id on the
    constructed span.  Block j's members lie in chain[1..j+1], so their
    energy outside chain[j] + chain[j+1] lies on the span of the members
    before boundary j - 1, and boundary j was chosen to cap that energy at
    the block threshold.  A block whose computed energy still exceeds its
    threshold raises PreconditionError naming the block.
    """
    a, b = float(lower), float(upper)
    if not 0 < a <= b:
        raise NotAFrameError(f"need frame bounds 0 < A <= B, got A={a:.6g}, B={b:.6g}")
    fam, weights, units, active = _family_data(family)
    count, dim = len(fam), fam.dim
    dtype = units.dtype

    epsilon, scale = _resolve_constants(a, b)

    boundaries = [0, 1]
    cols: list = []
    chain = [Projection.zero(dim)]
    while True:
        top = boundaries[-1]
        # each member is orthogonalized once, on entering the chain: its
        # residual against the growing span can only shrink afterwards;
        # members are unit vectors, so the drop threshold is absolute
        fresh = [units[n] for n in range(boundaries[-2], top) if active[n]]
        chain.append(_as_projection(_extend_span(cols, fresh, dtype, RANK_DROP_TOL), dim, dtype))
        if top >= count:
            break
        cap = _threshold(len(boundaries), epsilon)
        basis = np.stack(cols, axis=1) if cols else np.zeros((dim, 0), dtype=dtype)
        pressed = np.abs(units @ basis.conj()) ** 2
        tail_terms = weights * pressed.sum(axis=1) / b
        nxt = count
        for k in range(top + 1, count + 1):
            if float(tail_terms[k:].sum()) <= cap:
                nxt = k
                break
        boundaries.append(nxt)
    # one empty block re-counts the last chain subspace and adds nothing
    chain.append(_as_projection([], dim, dtype))
    boundaries.append(count)

    blocks = [(boundaries[j], boundaries[j + 1]) for j in range(len(boundaries) - 1)]
    pair_projs = [Projection(np.hstack([chain[j].basis, chain[j + 1].basis]).astype(dtype)) for j in range(len(blocks))]
    references = [pair.complement() for pair in pair_projs]

    gammas = []
    for j, (start, end) in enumerate(blocks):
        ref = references[j].matrix
        total = 0.0
        for n in range(start, end):
            if active[n]:
                press = float(np.real(np.vdot(units[n], ref @ units[n])))
                total += weights[n] * max(press, 0.0) / b
        gammas.append(total)
        cap = _threshold(j, epsilon)
        if total > cap * (1.0 + 1e-9) + 1e-12:
            raise PreconditionError(f"block {j} energy {total:.3e} exceeds its threshold {cap:.3e}")

    span_proj = _as_projection(cols, dim, dtype).matrix
    cover = sum(p.matrix for p in pair_projs) - 2.0 * span_proj
    defect = float(np.max(np.abs(np.linalg.eigvalsh((cover + cover.conj().T) / 2.0))))
    return ExtractionPlan(
        blocks=tuple(blocks),
        subspaces=tuple(chain),
        block_subspaces=tuple(references),
        thresholds=tuple(_threshold(j, epsilon) for j in range(len(blocks))),
        gammas=tuple(gammas),
        epsilon=epsilon,
        scale=scale,
        trace_cap=1.0 / b,
        lower=a,
        upper=b,
        identity_defect=defect,
    )


def extract(family) -> ExtractionResult:
    """Select a multiset of indices whose normalized vectors form a frame.

    Output frame bounds land inside [2^beta A/3, 3 2^beta B] up to
    ENVELOPE_SLACK, and each index n repeats at most
    max(144 C^2 B/A^2, 64 C^4/B^2) |c_n|^2 ||x_n||^2 times; the comparison
    is exact in rational arithmetic.
    """
    fam, weights, units, active = _family_data(family)
    report_in = frame_bounds(fam)
    if not report_in.is_frame:
        raise NotAFrameError("extraction needs the rescaled family to be a frame")
    a, b = report_in.lower, report_in.upper
    layout = plan(fam, a, b)
    count = len(fam)
    root_b = math.sqrt(b)
    ops = {n: rank_one(units[n] / root_b) for n in range(count) if active[n]}

    mult: dict[int, int] = {}
    certificates: list = []
    for j, (start, end) in enumerate(layout.blocks):
        members = [n for n in range(start, end) if active[n]]
        if not members:
            certificates.append(None)
            continue
        chosen, cert = sample(
            [ops[n] for n in members],
            [_snap_weight(float(weights[n]), layout.scale.value) for n in members],
            layout.block_subspaces[j],
            layout.epsilon,
            trace_cap=layout.trace_cap,
            total_cap=1.0,
            scale=layout.scale,
        )
        if not cert.sandwich_ok:
            raise PreconditionError(
                f"block {j} deviation ({cert.sandwich_lo:.3e}, {cert.sandwich_hi:.3e}) "
                f"escaped its bound {cert.sandwich_bound:.3e}"
            )
        for local, times in chosen.multiplicity.items():
            n = members[local]
            mult[n] = mult.get(n, 0) + times
        certificates.append(cert)

    if not mult:
        raise NotAFrameError("sampling selected nothing; the input cannot span")
    sigma = SamplingFunction(mult, source_count=count)
    support = sorted(mult)
    normalized = VectorFamily(
        np.stack([units[n] for n in support]),
        scalars=np.sqrt([float(mult[n]) for n in support]),
        labels=support,
    )
    out_report = frame_bounds(normalized)
    two_beta = 2.0**layout.scale.value
    envelope = (two_beta * a / 3.0, 3.0 * two_beta * b)
    if not out_report.is_frame:
        raise NotAFrameError("selected multiset does not span")
    if (
        out_report.lower < envelope[0] * (1.0 - ENVELOPE_SLACK)
        or out_report.upper > envelope[1] * (1.0 + ENVELOPE_SLACK)
    ):
        raise PreconditionError(
            f"output bounds [{out_report.lower:.6g}, {out_report.upper:.6g}] escape "
            f"the envelope [{envelope[0]:.6g}, {envelope[1]:.6g}]"
        )

    # the selection's operator sum minus the target sum_n w_n T_n, as one product
    coeffs = [mult.get(n, 0) / two_beta - weights[n] for n in ops]
    achieved = _weighted_sum(np.concatenate([op.factor for op in ops.values()]), coeffs)
    eig = np.linalg.eigvalsh((achieved + achieved.conj().T) / 2.0)
    total_deviation = float(np.max(np.abs(eig)))
    deviation_cap = 2.0 * layout.epsilon
    if total_deviation > deviation_cap + SANDWICH_TOL:
        raise PreconditionError(
            f"stacked deviation {total_deviation:.6g} exceeds {deviation_cap:.6g}"
        )

    bound_l = _multiplicity_bound(a, b, layout.scale.constant)
    mult_ok = all(
        _within_cap(times, bound_l, float(weights[n])) for n, times in mult.items()
    )
    return ExtractionResult(
        sigma=sigma,
        normalized=normalized,
        report=out_report,
        mult_bound_L=bound_l,
        mult_ok=mult_ok,
        plan=layout,
        certificates=tuple(certificates),
        total_deviation=total_deviation,
        deviation_cap=deviation_cap,
        envelope=envelope,
    )


def equivalence_b_to_a(family):
    """Coefficient duals of a family with scalars: conj(c_n) times the dual of c_n x_n.

    The returned family reproduces x = sum <x, out_n> x_n; the identity is
    verified before returning: a proven bound on the norm of its defect
    (frames.reconstruction_residual) must stay within NUMERIC_TOL times
    the larger of 1 + B/A and the size of the terms summed.
    """
    fam = _as_family(family)
    report = frame_bounds(fam)
    duals = canonical_dual(fam)
    scaled = duals.vectors if fam.scalars is None else np.conj(fam.scalars)[:, None] * duals.vectors
    out = VectorFamily(scaled, labels=fam.labels)

    bound, size = reconstruction_residual(fam.vectors, out.vectors)
    if bound > NUMERIC_TOL * max(1.0 + report.upper / report.lower, size):
        raise PreconditionError("coefficient duals failed reconstruction")
    return out


def equivalence_c_check(family, duals) -> bool:
    """Whether the transposed reconstruction x = sum <x, x_n> y_n holds to NUMERIC_TOL.

    The defect Y^T conj(X) - I is bounded from above, with its rounding
    (frames.reconstruction_residual), and must stay below NUMERIC_TOL
    times max(1, ||abs(Y)^T abs(X)||_F), the size of the terms summed.
    So a True is proven, and exact duals pass while n u < NUMERIC_TOL.
    """
    fam = _as_family(family)
    other = _as_family(duals)
    if len(fam) != len(other):
        raise DimensionMismatchError(f"{len(fam)} vectors against {len(other)} duals")
    if fam.dim != other.dim:
        raise DimensionMismatchError(f"dim {fam.dim} against dual dim {other.dim}")
    bound, size = reconstruction_residual(other.vectors, fam.vectors)
    return bound < NUMERIC_TOL * max(1.0, size)


@dataclass(frozen=True, eq=False)
class SpanDistinctSelection:
    """Pairwise non-collinear indices whose normalized family is a frame."""

    indices: tuple
    representatives: tuple
    classes: tuple
    class_weights: tuple
    extraction: ExtractionResult


def equivalence_a_to_d(family) -> SpanDistinctSelection:
    """Reduce collinear rays to representatives, then extract among them.

    Members of one ray are rescaled to unit length, so a ray's combined
    weight is its cardinality.  The chosen indices are representatives,
    each admitted only because its overlap |<u_rep, u_n>| with every
    earlier one, on the same unit vectors, fell below 1 - COLLINEARITY_TOL.
    The overlap is symmetric bit for bit (the terms of vdot(a, b) and
    vdot(b, a) are exact conjugates, summed in the same order), so the
    selection is pairwise non-collinear and is not checked again.
    """
    fam = _as_family(family)
    alive, unit_rows = _units(fam.vectors)
    units = dict(zip(alive.tolist(), unit_rows))
    if not units:
        raise NotAFrameError("all vectors vanish; the family cannot span")
    span_rank = _span_rank(fam.vectors)
    if span_rank < fam.dim:
        raise NotAFrameError(
            f"family spans only {span_rank} of {fam.dim} dimensions; no rescaling helps"
        )

    representatives: list = []
    classes: list = []
    for n in units:
        for k, rep in enumerate(representatives):
            if abs(complex(np.vdot(units[rep], units[n]))) >= 1.0 - COLLINEARITY_TOL:
                classes[k].append(n)
                break
        else:
            representatives.append(n)
            classes.append([n])

    class_weights = [float(len(cls)) for cls in classes]

    rep_family = VectorFamily(
        np.stack([units[n] for n in representatives]),
        scalars=[math.sqrt(g) for g in class_weights],
        labels=representatives,
    )
    result = extract(rep_family)
    chosen = tuple(representatives[k] for k in sorted(result.sigma.multiplicity))
    return SpanDistinctSelection(
        indices=chosen,
        representatives=tuple(representatives),
        classes=tuple(tuple(cls) for cls in classes),
        class_weights=tuple(class_weights),
        extraction=result,
    )
