"""Weighted-sum sampling pipeline built on binary selectors.

Given PSD operators T_n with small traces, positive weights c_n with
T = sum c_n T_n bounded, and a reference subspace M, the pipeline produces a
sampling function sigma (a multiset of original indices) such that

    -(eps/2) P_{M^perp} - 6 sqrt(gamma) I
        <=  2^{-beta} sum_{k} T_{sigma(k)} - T
        <=  (eps/2) P_{M^perp} + 6 sqrt(gamma) I,

with gamma the compressed trace of T on M, together with the exact
multiplicity certificate  #sigma^{-1}(n) <= 2^{beta+1} c_n.

Stages: binary expansion of the weights, truncation at the coarsest cut
whose tail is small, integer replica counts per index for the operators and
for the auxiliary pads that fill each weight up to its ceiling, then one
halving per level by the same-first-index pairing discipline, keeping the
child found by a greedy single-flip descent (the stand-in for the
non-constructive selector; the certificate records what holds).  All count
arithmetic is integer-exact; floats only enter through eigenvalue
computations.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .linalg import NUMERIC_TOL, Projection, PsdOperator, _factor_rows, _operator_list, _weighted_sum
from .selectors import ScaleExponent, _descend, _trace_cap, natural_max_order, scale_exponent, selector_constant

__all__ = [
    "MAX_DYADIC_DEPTH",
    "SANDWICH_TOL",
    "SamplingFunction",
    "SamplingCertificate",
    "make_paddings",
    "sample",
]

MAX_DYADIC_DEPTH = 48
SANDWICH_TOL = 1e-8


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    # binary floats convert exactly, so no precision is lost here
    return Fraction(float(value))


def _binary_expansion(value: Fraction, depth: int) -> tuple[int, ...]:
    """Exponents e of the first depth one-bits 2^-e of value > 0.

    Long division on the numerator and denominator: with value * 2^e0 in
    [1, 2), the bit at 2^-(e0 + i) is set when a >= b, for the invariant
    remainder = (a / b) 2^-(e0 + i).  Exact for every positive rational.
    """
    a, b = value.numerator, value.denominator
    e0 = b.bit_length() - a.bit_length()
    if (a << max(e0, 0)) < (b << max(-e0, 0)):
        e0 += 1
    a, b = a << max(e0, 0), b << max(-e0, 0)
    exponents = []
    e = e0
    while a and len(exponents) < depth:
        if a >= b:
            exponents.append(e)
            a -= b
        a <<= 1
        e += 1
    return tuple(exponents)


def _replica_counts(exponents, cut: int, beta: int):
    """(eta, operator counts, pad counts) of the expansions truncated at cut.

    Each weight keeps its bits 2^-e with e <= cut, and its operator count is
    their sum in units of 2^-eta; its pad count fills that sum up to the
    next integer.  Every kept bit lies at or above 2^-cut, and so does every
    pad bit, because the kept sum is a multiple of 2^-cut; the weight owning
    the cut keeps the bit 2^-cut itself.  So eta = max(cut, beta), beta >= 0,
    is the finest scale in play and every count is an integer.
    """
    eta = max(cut, beta)
    op_counts = [sum(1 << (eta - e) for e in exps if e <= cut) for exps in exponents]
    pad_counts = [(-(-count >> eta) << eta) - count for count in op_counts]
    return eta, op_counts, pad_counts


def make_paddings(ops, epsilon: float, beta: int):
    """Default padding operators: scaled projections onto each span(T_n).

    Traces are capped at min(2^(-beta+2) * epsilon, max operator trace) and
    the family is rescaled uniformly so its plain sum stays below I/2.  The
    caps have no lower bounds, so shrinking (even to zero) is always safe;
    the caller may rescale further against its compressed-trace budget.
    A pad is (cap / r) B B* for an orthonormal basis B of T_n's range, of
    rank r (PsdOperator._range), with the rows of B* scaled to match as its
    factor: PSD by construction, with no eigensolve of a rank-one T_n and
    no check.  A list mixing real and complex operators is handled as complex.
    """
    ops = list(ops)
    if not ops:
        return []
    psd = _operator_list(ops)
    if not 0 < epsilon < 1:
        raise PreconditionError(f"epsilon must lie in (0, 1), got {epsilon}")
    max_trace = max(p.trace for p in psd)
    target = min(2.0 ** (-beta + 2) * epsilon, max_trace)
    if target <= 0:
        return [PsdOperator.zero(psd[0].dim) for _ in psd]
    bases = [p._range() for p in psd]
    dtype = np.result_type(*bases)
    bases = [basis.astype(dtype, copy=False) for basis in bases]
    # a zero T_n has rank 0, and its pad is the zero product
    mats = [(target / max(basis.shape[1], 1)) * (basis @ basis.conj().T) for basis in bases]
    total = sum(mats)
    top = float(np.max(np.linalg.eigvalsh((total + total.conj().T) / 2.0)))
    factor = 1.0
    if top > 0.5:
        factor = 0.5 / top * (1.0 - 1e-12)
    pads = factor * np.stack(mats)
    pads = (pads + pads.conj().swapaxes(1, 2)) / 2.0  # as PsdOperator's construction symmetrizes
    return [
        PsdOperator._of_rows(math.sqrt(factor * target / max(basis.shape[1], 1)) * basis.T, pad)
        for basis, pad in zip(bases, pads)
    ]


class SamplingFunction:
    """Finite multiset of selected indices, held as exact multiplicities.

    sigma maps a domain of total points onto the indices, index n hit
    multiplicity[n] times; the counts are the whole representation, and
    total is an exact int of any size.
    """

    def __init__(self, multiplicity: dict[int, int], source_count: int | None = None):
        clean = {}
        for n, count in multiplicity.items():
            n, count = int(n), int(count)
            if count < 0:
                raise PreconditionError(f"negative multiplicity for index {n}")
            if n < 0 or (source_count is not None and n >= source_count):
                raise PreconditionError(f"index {n} outside the source family")
            if count:
                clean[n] = count
        self._multiplicity = dict(sorted(clean.items()))
        self._total = sum(self._multiplicity.values())

    @property
    def multiplicity(self) -> dict[int, int]:
        return dict(self._multiplicity)

    @property
    def total(self) -> int:
        return self._total

    def __repr__(self):
        return f"SamplingFunction(total={self._total}, indices={len(self._multiplicity)})"


@dataclass(frozen=True)
class SamplingCertificate:
    """Witness data for one pipeline run.

    sandwich_lo/hi are the extremal eigenvalues of the deviation after the
    (eps/2) off-subspace correction; both must stay within 6 sqrt(gamma).
    mult_ok records the exact rational comparison count_n <= 2^(beta+1) c_n.
    """

    beta: int
    window_empty: bool
    epsilon: float
    gamma: float
    trace_cap: float
    constant: float
    sandwich_lo: float
    sandwich_hi: float
    sandwich_bound: float
    sandwich_ok: bool
    mult_ok: bool
    pigeonhole_trace: float
    pigeonhole_cap: float
    levels: int
    replica_total: int
    tail_norm: float
    pad_scale: float


def _eig_range(mat: np.ndarray) -> tuple[float, float]:
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    return float(vals[0]), float(vals[-1])


def _split_choices(state: dict):
    """One level of the pairing discipline on replica counts.

    state maps (kind, n) -> count with kind 0 for operators, 1 for pads.
    Replicas of one type pair among themselves first.  Each operator index
    left with an odd replica, in increasing order, takes a pad of the same
    index if one remains, else the pad with the largest remaining count
    (lowest index on ties).  Operators left without any pad pair with each
    other in index order, and so do the pads left with an odd count.
    Returns (base, crosses): base counts go to both children; each cross
    pair contributes exactly one of its two types per child.
    """
    ops = {n: c for (kind, n), c in state.items() if kind == 0 and c}
    pads = {n: c for (kind, n), c in state.items() if kind == 1 and c}
    base = {}
    crosses = []
    for n, c in ops.items():
        if c // 2:
            base[(0, n)] = c // 2
    leftover = sorted(n for n, c in ops.items() if c % 2)
    remaining = dict(pads)
    unmatched = []
    for n in leftover:
        if remaining.get(n, 0) > 0:
            remaining[n] -= 1
            crosses.append(((0, n), (1, n)))
        else:
            avail = sorted((k for k, v in remaining.items() if v > 0), key=lambda k: (-remaining[k], k))
            if avail:
                pick = avail[0]
                remaining[pick] -= 1
                crosses.append(((0, n), (1, pick)))
            else:
                unmatched.append(n)
    for k in range(0, len(unmatched), 2):
        crosses.append(((0, unmatched[k]), (0, unmatched[k + 1])))
    pad_left = sorted(n for n, c in remaining.items() if c % 2)
    for n, c in remaining.items():
        if c // 2:
            base[(1, n)] = c // 2
    for k in range(0, len(pad_left), 2):
        crosses.append(((1, pad_left[k]), (1, pad_left[k + 1])))
    return base, crosses


def _child_state(base: dict, crosses, sides) -> dict:
    """base plus, from each cross pair, the type its side (0 or 1) picks."""
    child = dict(base)
    for pair, side in zip(crosses, sides):
        pick = pair[side]
        child[pick] = child.get(pick, 0) + 1
    return child


def sample(
    ops,
    weights,
    subspace: Projection,
    epsilon: float,
    *,
    trace_cap: float | None = None,
    total_cap: float = 0.5,
    scale: ScaleExponent | None = None,
):
    """Run the full pipeline; returns (SamplingFunction, SamplingCertificate).

    The weighted sum must stay below total_cap * I (1/2 by default; a cap
    that is not finite raises PreconditionError, as does a trace_cap that
    is not finite and positive) and the compressed trace
    gamma on the subspace must not exceed 1.  The scale exponent, with the
    constant it was solved for, may be pinned by callers coordinating
    several runs; otherwise the selector-constant machinery picks it from
    the trace cap.  Each weight is expanded to its first MAX_DYADIC_DEPTH
    binary digits.  Each of the eta - beta split levels keeps one child,
    found by a greedy descent; PreconditionError is raised if the leaf
    fails the trace pigeonhole.
    """
    psd = _operator_list(ops)
    dim = psd[0].dim
    fracs = [_as_fraction(c) for c in weights]
    if len(fracs) != len(psd):
        raise PreconditionError("one weight per operator is required")
    if any(c <= 0 for c in fracs):
        raise PreconditionError("weights must be positive")
    if not isinstance(subspace, Projection):
        raise PreconditionError("subspace must be a Projection")
    if subspace.dim != dim:
        raise PreconditionError("subspace dimension mismatch")
    if not 0 < epsilon < 1:
        raise PreconditionError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not math.isfinite(total_cap):
        raise PreconditionError(f"total cap must be finite, got {total_cap}")

    factors, owner = _factor_rows(psd)
    traces = [p.trace for p in psd]
    delta = max(traces) if trace_cap is None else _trace_cap(trace_cap)
    tol = NUMERIC_TOL * max(1.0, delta)
    if any(t > delta + tol for t in traces):
        raise PreconditionError(f"operator trace exceeds the cap {delta:.6g}")

    target = _weighted_sum(factors, np.array([float(c) for c in fracs])[owner])
    _, hi_t = _eig_range(target)
    if hi_t > total_cap + NUMERIC_TOL * max(1.0, hi_t):
        raise PreconditionError(
            f"weighted sum has top eigenvalue {hi_t:.6g} > {total_cap}"
        )
    proj = subspace.matrix
    proj_perp = subspace.complement().matrix
    gamma = float(np.real(np.trace(proj @ target @ proj)))
    gamma = max(gamma, 0.0)
    if gamma > 1.0 + NUMERIC_TOL:
        raise PreconditionError(f"compressed trace {gamma:.6g} exceeds 1")

    if scale is None:
        scale = scale_exponent(epsilon, selector_constant(delta, natural_max_order(delta)), delta)
    elif not isinstance(scale, ScaleExponent):
        raise PreconditionError("a pinned scale must be a ScaleExponent")
    beta = scale.value

    # truncation: coarsest uniform exponent cutoff whose discarded tail
    # stays below min(eps/2, gamma); cost scales with the finest kept level.
    # The remainder c - K 2^-L of c = p/q at a cut is the integer ratio
    # (p 2^L - q K) / (q 2^L), and int division rounds it exactly as
    # float(Fraction) does
    expansions = [_binary_expansion(c, MAX_DYADIC_DEPTH) for c in fracs]
    tail_cap = min(epsilon / 2.0, gamma)
    cuts = sorted({e for exps in expansions for e in exps})
    fine = max(cuts[-1], 0)
    kept = [list(itertools.accumulate((1 << (fine - e) for e in exps), initial=0)) for exps in expansions]
    for cut in cuts:
        remainders = [
            ((c.numerator << fine) - c.denominator * k[bisect.bisect_right(exps, cut)])
            / (c.denominator << fine)
            for c, exps, k in zip(fracs, expansions, kept)
        ]
        residual = _weighted_sum(factors, np.array(remainders)[owner])
        _, worst = _eig_range(residual)
        if worst <= tail_cap + NUMERIC_TOL:
            tail_norm = max(worst, 0.0)
            break
    else:
        raise PreconditionError(
            "discarded dyadic tail exceeds min(epsilon/2, gamma) at every depth; "
            "weights are too fine for this subspace"
        )
    eta, op_counts, pad_counts = _replica_counts(expansions, cut, beta)
    levels = eta - beta
    q0 = sum(op_counts) + sum(pad_counts)

    pad_ops = make_paddings(psd, epsilon, beta)

    # uniform shrink so pads respect the trace cap, the I/2 sum condition,
    # and a compressed-trace budget of gamma (keeps the pigeonhole honest)
    factor = 1.0
    worst_pad_trace = max((p.trace for p in pad_ops), default=0.0)
    if worst_pad_trace > delta:
        factor = min(factor, delta / worst_pad_trace * (1.0 - 1e-12))
    pad_factors, pad_owner = _factor_rows(pad_ops)
    gaps = np.array([count / 2**eta for count in pad_counts])  # rounds as float(Fraction) does
    weighted_pad = _weighted_sum(pad_factors, gaps[pad_owner])
    _, pad_top = _eig_range(weighted_pad)
    if pad_top > 0.5:
        factor = min(factor, 0.5 / pad_top * (1.0 - 1e-12))
    compressed = float(np.real(np.trace(proj @ weighted_pad @ proj)))
    if compressed > gamma:
        factor = 0.0 if gamma <= 0 else min(factor, gamma / compressed * (1.0 - 1e-12))

    pig_cap = 2.0 * gamma + NUMERIC_TOL * max(1.0, 2.0 * gamma)
    leaf_caps = [(c.numerator << (beta + 1)) // c.denominator for c in fracs]  # floor(2^(beta+1) c)
    chosen_ops, chosen_pads = op_counts, pad_counts
    if levels:
        # one greedy descent per level over the cross sides, from side 0 of
        # every pair; a child's key is (pigeonhole violated, count above the
        # caps, sandwich excess) at the level's scale 2^-(eta - level)
        n_ops = len(psd)
        state = {(k, n): c for k, counts in enumerate((op_counts, pad_counts)) for n, c in enumerate(counts)}
        # from the factors, as every sum above: a dense T_n enters as its positive part
        parts = [(p.factor, 1.0) for p in psd] + [(p.factor, factor) for p in pad_ops]
        stack = np.stack([_weighted_sum(f, np.full(len(f), c)) for f, c in parts])
        press = np.real(np.einsum("ij,kji->k", proj, stack))  # trace(P X P) per column
        half_perp = (epsilon / 2.0) * proj_perp
        for level in range(1, levels + 1):
            base, crosses = _split_choices(state)
            unit = 2.0 ** -(eta - level)
            base_counts = np.array([float(base.get((k, n), 0)) for k in (0, 1) for n in range(n_ops)])
            # counts within 2^(levels - level) leaf caps keep the caps whatever
            # later levels pick; clipping the slack to [0, crosses] shifts
            # every child's count above them by one constant
            slack = np.array([
                min(max(cap * 2 ** (levels - level) - base.get((0, n), 0), 0), len(crosses))
                for n, cap in enumerate(leaf_caps)
            ])
            picks = np.array([[k * n_ops + n for k, n in p] for p in crosses], dtype=np.int64).reshape(-1, 2)

            def score(_, rows):
                hits = np.zeros((len(rows), 2 * n_ops), dtype=np.int64)
                taken = np.where(rows, picks[:, 1], picks[:, 0])  # column of each cross's pick
                np.add.at(hits, (np.arange(len(rows))[:, None], taken), 1)
                coeff = unit * (base_counts + hits)
                dev = np.tensordot(coeff[:, :n_ops], stack[:n_ops], axes=1) - target
                lo = np.linalg.eigvalsh(dev + half_perp)[:, 0]
                hi = np.linalg.eigvalsh(dev - half_perp)[:, -1]
                over_cap = np.maximum(hits[:, :n_ops] - slack, 0).sum(axis=1)
                excess = np.maximum(np.maximum(hi, -lo), 0.0)
                return np.column_stack([coeff @ press > pig_cap, over_cap, excess])

            sides = _descend(np.zeros((1, len(crosses)), dtype=np.int64), np.ones((1, len(crosses)), dtype=bool), score)[0]
            state = _child_state(base, crosses, sides)
        chosen_ops, chosen_pads = ([state.get((k, n), 0) for n in range(n_ops)] for k in (0, 1))

    unit = 2.0**-beta
    chosen = _weighted_sum(factors, (unit * np.array(chosen_ops, dtype=float))[owner])
    dev = chosen - target
    pig_mat = chosen + _weighted_sum(pad_factors, (factor * unit * np.array(chosen_pads, dtype=float))[pad_owner])
    pig_trace = float(np.real(np.trace(proj @ pig_mat @ proj)))
    if levels and pig_trace > pig_cap:
        raise PreconditionError(
            "no leaf satisfies the trace pigeonhole; inputs violate the "
            "average-trace argument"
        )
    lo, _ = _eig_range(dev + (epsilon / 2.0) * proj_perp)
    _, hi = _eig_range(dev - (epsilon / 2.0) * proj_perp)
    bound = 6.0 * math.sqrt(gamma)
    ok_tol = SANDWICH_TOL + NUMERIC_TOL * max(1.0, bound)
    sigma = SamplingFunction(
        {n: count for n, count in enumerate(chosen_ops) if count},
        source_count=len(psd),
    )
    certificate = SamplingCertificate(
        beta=beta,
        window_empty=scale.window_empty,
        epsilon=float(epsilon),
        gamma=gamma,
        trace_cap=delta,
        constant=scale.constant,
        sandwich_lo=lo,
        sandwich_hi=hi,
        sandwich_bound=bound,
        sandwich_ok=(lo >= -(bound + ok_tol)) and (hi <= bound + ok_tol),
        mult_ok=all(count <= cap for count, cap in zip(chosen_ops, leaf_caps)),
        pigeonhole_trace=pig_trace,
        pigeonhole_cap=2.0 * gamma,
        levels=levels,
        replica_total=q0,
        tail_norm=tail_norm,
        pad_scale=factor,
    )
    return sigma, certificate
