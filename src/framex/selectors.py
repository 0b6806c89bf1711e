"""Binary selector machinery for splitting PSD operator sums.

Given operators T_n with small traces and sum T <= I, an order-N selector
tree repeatedly partitions the index set into pairs and keeps one element of
each pair per branch.  Every leaf b then satisfies

    || 2^N * sum_{n in I_b} T_n  -  T ||  <=  C * sqrt(2^N * delta),

where delta caps the traces and C comes from the recursion

    B_0 = 1,   B_{j+1} = B_j + 4 * sqrt(2^j * delta * B_j) + 2^{j+1} * delta.

The existence statement is non-constructive; search is the honest stand-in.
Exhaustive search guarantees the optimum over the induced pairing, greedy
and randomized descent trade quality for speed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, NoAdmissibleExponentError, PreconditionError
from .linalg import NUMERIC_TOL, _operator_list, _outer_sums

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "RANDOM_RESTARTS",
    "ScaleExponent",
    "PairPartition",
    "SelectorCell",
    "SelectorTree",
    "SelectorCertificate",
    "selector_constant",
    "natural_max_order",
    "certificate_constant",
    "scale_exponent",
    "descending_trace_pairs",
    "best_selector",
    "verify_certificate",
]

# Exhaustive search only below this total selector count; otherwise the
# caller falls back to seeded randomized restarts.
EXHAUSTIVE_LIMIT = 2**20
RANDOM_RESTARTS = 1024
# a tree has 2^order leaves whatever the family size, and its time and
# memory double per order; orders with more leaves than this are refused
_LEAF_BUDGET = 2**16
_EXPONENT_SCAN = 64
# the sweeps' second inertia count puts a cell's bars at these fractions of
# the way from its survivors' best Rayleigh bound to its bar, chosen by
# measurement: the best flip's key sits at a median 0.6 of that way
_GRID = np.arange(5, 10) / 10


def _trace_cap(value) -> float:
    """value as a float trace cap; NaN, inf, zero and negatives raise."""
    delta = float(value)
    if not (math.isfinite(delta) and delta > 0):
        raise PreconditionError(f"trace cap must be finite and positive, got {value}")
    return delta


def selector_constant(trace_cap: float, max_order: int) -> float:
    """C = max over 1 <= N <= max_order of [sum_{j<N} (B_j - 1)] / sqrt(2^N * delta).

    Requires 2^max_order * trace_cap < 1 when max_order >= 1.  With
    max_order <= 0 the maximum is empty and 0.0 is returned.
    """
    delta = _trace_cap(trace_cap)
    if max_order <= 0:
        return 0.0
    if 2**max_order * delta >= 1:
        raise PreconditionError(
            f"2^{max_order} * {delta} >= 1: the recursion only applies below that threshold"
        )
    b = 1.0
    partial = 0.0  # sum of (B_j - 1) for j < N
    best = 0.0
    for n in range(1, max_order + 1):
        # partial currently covers j = 0 .. n-2; add j = n-1
        if n >= 2:
            partial += b - 1.0
        best = max(best, partial / math.sqrt(2**n * delta))
        b = b + 4.0 * math.sqrt(2 ** (n - 1) * delta * b) + 2**n * delta
    return best


def natural_max_order(trace_cap: float) -> int:
    """Largest N in 1..64 with 2^N * trace_cap < 1, or 0 when none exists."""
    k = math.frexp(_trace_cap(trace_cap))[1]  # trace_cap = m 2^k, 0.5 <= m < 1, so N = -k
    return min(max(-k, 0), _EXPONENT_SCAN)


def certificate_constant(trace_cap: float, order: int) -> float:
    """Constant used when certifying an order-N tree.

    Outside the recursion's range (2^N * delta >= 1) the max over admissible
    orders is used instead; with no admissible order at all the constant is 0,
    so the bound is 0, the strictest there is: only trees whose every leaf
    deviation is 0 meet it.
    """
    usable = min(order, natural_max_order(trace_cap))
    return selector_constant(trace_cap, usable)


@dataclass(frozen=True)
class ScaleExponent:
    """Integer exponent beta with 1 < 2^beta * eps^2 / (4 C^2 delta) <= 2.

    constant is the C the window was solved for, and a negative value
    raises PreconditionError.  window_empty (value 0) marks the convention
    case: the ratio already exceeds 1 at beta = 0, so no positive exponent
    fits and beta = 0 is reported.
    """

    value: int
    constant: float

    def __post_init__(self):
        if self.value < 0:
            raise PreconditionError(f"negative exponent {self.value}")

    @property
    def window_empty(self) -> bool:
        return self.value == 0


def scale_exponent(epsilon: float, constant: float, trace_cap: float) -> ScaleExponent:
    """The beta in {0..64} that meets the defining double inequality, read off the ratio's exponent."""
    eps = float(epsilon)
    c = float(constant)
    if not 0 < eps < 1:
        raise PreconditionError(f"epsilon must lie in (0, 1), got {eps}")
    delta = _trace_cap(trace_cap)
    if c <= 0:
        raise NoAdmissibleExponentError(
            "selector constant is zero: the exponent window is empty at every scale"
        )
    denominator = 4.0 * c * c * delta
    ratio = eps * eps / denominator if denominator else math.inf  # an underflow to 0 refuses below
    if ratio > 2.0:
        raise NoAdmissibleExponentError(
            f"epsilon^2 / (4 C^2 delta) = {ratio:.6g} > 2: no admissible exponent exists"
        )
    m, k = math.frexp(ratio)  # ratio = m 2^k, 0.5 <= m < 1: 2^beta ratio is in (1, 2] for this beta alone
    beta = 1 - k + (m == 0.5)
    if not (ratio > 0 and beta <= _EXPONENT_SCAN):  # frexp(0) has exponent 0
        raise NoAdmissibleExponentError(
            f"no exponent in 0..{_EXPONENT_SCAN} satisfies the window for ratio {ratio:.6g}"
        )
    return ScaleExponent(value=beta, constant=c)


@dataclass(frozen=True)
class PairPartition:
    """A cell of indices partitioned into disjoint pairs covering the cell."""

    indices: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = [i for pair in self.pairs for i in pair]
        if len(seen) != len(set(seen)):
            raise PreconditionError("pairs overlap")
        if set(seen) != set(self.indices) or len(self.indices) != len(seen):
            raise PreconditionError("pairs do not cover the cell exactly")


def _cell_pairs(reals, pads, traces) -> list[tuple[int, int]]:
    """A cell's pairs: real ids by descending trace (ties by id), then pads.

    Adjacent entries of that order are paired; pads come in the order
    given, and the cell (reals plus pads) must have even size.
    """
    ordered = sorted(reals, key=lambda i: (-traces[i], i)) + list(pads)
    return list(zip(ordered[::2], ordered[1::2]))


def descending_trace_pairs(ids, traces, pad_ids=None) -> PairPartition:
    """Pair adjacent elements after sorting by descending trace.

    traces[i] is the trace of id i.  Synthetic pad indices (negative) sort
    last, in ascending order.  When the cell is odd a fresh pad id is
    appended; pass pad_ids, an iterator of unused negative ints, to control
    the labels.
    """
    ids = list(ids)
    if pad_ids is None:
        pad_ids = itertools.count(min([0] + ids) - 1, -1)
    if len(ids) % 2:
        ids.append(next(pad_ids))
    pairs = _cell_pairs([i for i in ids if i >= 0], sorted(i for i in ids if i < 0), traces)
    return PairPartition(indices=tuple(i for pair in pairs for i in pair), pairs=tuple(pairs))


@dataclass
class SelectorCell:
    """One node of a selector tree; leaves carry no partition."""

    indices: tuple[int, ...]
    partition: PairPartition | None = None
    sides: tuple[int, ...] | None = None
    children: tuple["SelectorCell", "SelectorCell"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class SelectorTree:
    """Order-N selector tree over operator indices (pads are negative)."""

    order: int
    root: SelectorCell

    def raw_leaves(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}

        def walk(cell: SelectorCell, path: str):
            if cell.is_leaf:
                out[path] = tuple(sorted(cell.indices))
                return
            walk(cell.children[0], path + "0")
            walk(cell.children[1], path + "1")

        walk(self.root, "")
        return out

    def leaves(self) -> dict[str, tuple[int, ...]]:
        """Leaf index sets with synthetic pad indices stripped."""
        return {
            path: tuple(i for i in ids if i >= 0)
            for path, ids in self.raw_leaves().items()
        }

    def check_partitions(self) -> bool:
        """Every internal cell must split exactly via its pair partition."""

        def walk(cell: SelectorCell) -> bool:
            if cell.is_leaf:
                return True
            if cell.partition is None or cell.sides is None or len(cell.sides) != len(cell.partition.pairs):
                return False
            got = set(cell.partition.indices)
            want = set(cell.indices)
            if not want <= got:
                return False
            extra = got - want
            if any(i >= 0 for i in extra):
                return False  # only fresh pads may appear
            left = set(cell.children[0].indices)
            right = set(cell.children[1].indices)
            for (a, b), s in zip(cell.partition.pairs, cell.sides):
                first, second = (a, b) if s == 0 else (b, a)
                if first not in left or second not in right:
                    return False
            if len(left) != len(cell.partition.pairs) or len(right) != len(cell.partition.pairs):
                return False
            return walk(cell.children[0]) and walk(cell.children[1])

        return walk(self.root)


@dataclass(frozen=True)
class SelectorCertificate:
    """Telescoped norm bound versus realized per-leaf deviations."""

    trace_cap: float
    order: int
    constant: float
    bound: float
    achieved: dict[str, float] = field(default_factory=dict)
    satisfied: bool = True
    strategy: str = "exhaustive"

    @property
    def worst(self) -> float:
        return max(self.achieved.values()) if self.achieved else 0.0


def _selector_count(size: int, depth: int, limit: int) -> int:
    """Upper bound on side-choice combinations; saturates at limit + 1."""
    if depth <= 0 or size <= 1:
        return 1
    pairs = (size + (size % 2)) // 2
    if pairs >= 64:
        return limit + 1
    per_child = _selector_count(pairs, depth - 1, limit)
    total = (2**pairs) * per_child * per_child
    return min(total, limit + 1)


def _deviation(mats, ids, total, scale) -> float:
    """One leaf's deviation, alone: verify_certificate's recheck, used by no search."""
    acc = -total
    for i in sorted(i for i in ids if i >= 0):
        acc = acc + scale * mats[i]
    vals = np.linalg.eigvalsh((acc + acc.conj().T) / 2.0)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def _fold(scaled, rows, total) -> np.ndarray:
    """The Hermitian parts of -total + (sum of each row's ids in scaled, the stack times the scale).

    rows is an integer (m, width) array; negative entries are pads.  Each
    row adds its real ids in ascending order onto -total, exactly the
    additions _deviation makes; returns the (m, d, d) stack.
    """
    n = len(scaled)
    ids = np.sort(np.where(rows < 0, n, rows), axis=1)  # pads sort last
    acc = np.empty((len(ids),) + total.shape, dtype=np.result_type(total, scaled))
    acc[:] = -total
    for col, whole in zip(ids.T, (ids < n).all(axis=0)):
        if whole:
            acc += scaled[col]
        else:
            live = col < n
            acc[live] += scaled[col[live]]
    return (acc + acc.conj().swapaxes(-1, -2)) / 2.0


def _radii(mats) -> np.ndarray:
    """Spectral radius of each Hermitian matrix of an (m, d, d) stack."""
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def _descend(sides: np.ndarray, flips: np.ndarray, score) -> np.ndarray:
    """Greedy single-flip descents of many 0/1 side rows in lockstep, in place.

    sides is a (cells, width) array and flips a (cells, width) mask of the
    positions each row may flip.  score(cells, rows) maps an (m, width)
    array of side rows, row i belonging to row cells[i] of sides, to an
    (m, k) array of keys, compared lexicographically (column 0 first).  The
    first call scores sides itself.  Each sweep then scores every single
    flip of every active row with one score call, and each row takes its
    own first strictly smaller key (with k = 1, its first argmin); a row
    drops out when no flip improves it.  So each row descends as it would
    alone: the score calls, split by cell, are its own descent's.  Returns
    sides.

    Only the first minimal key of a row's sweep and its current key need to
    be exact.  The key of a trial proven unable to win may be any value on
    the losing side: >= the current key, or > the sweep's exact minimum.
    """
    current = score(np.arange(len(sides)), sides)
    active = np.flatnonzero(flips.any(axis=1))
    while len(active):
        cells, pos = np.nonzero(flips[active])
        cells = active[cells]
        trial = sides[cells]
        trial[np.arange(len(cells)), pos] ^= 1
        keys = score(cells, trial)
        # each cell's first minimal key: trials sorted by cell, then by key
        order = np.lexsort(tuple(keys.T[::-1]) + (cells,))
        first = order[np.concatenate(([True], np.diff(cells[order]) != 0))]
        less, tied = np.zeros(len(first), dtype=bool), np.ones(len(first), dtype=bool)
        for new, old in zip(keys[first].T, current[cells[first]].T):
            less |= tied & (new < old)
            tied &= new == old
        won = first[less]
        sides[cells[won], pos[won]] ^= 1
        current[cells[won]] = keys[won]
        active = cells[won]
    return sides


def _outer_rows(psd) -> np.ndarray | None:
    """(n, d) rows f_n with T_n = fl(f_n f_n*), or None unless each operator is built from one row."""
    exact = all(p._from_rows and len(p.factor) == 1 for p in psd)
    return np.concatenate([p.factor for p in psd]) if exact else None


def _inertia_pass(lam, terms, cell, scale, bars) -> np.ndarray:
    """(trials, bars) mask of the trials whose children may both stay inside (-x, x).

    lam is the (cells, 2, d) spectrum of each cell's current children
    C = V Lam V*, ascending as eigh gives it, and bars the (cells, bars)
    values x of each cell.  Trial t, of cell cell[t], moves a factor f_+
    into each child and f_- out of it; with p = V* f, terms is the
    (k, trials, 2, d) stack of |p_+|^2, |p_-|^2 and conj(p_+) p_- (its real
    part, and its imaginary part when complex).  A trial child is
    C + U S U*, U = [f_+, f_-] and S = diag(scale, -scale).  Haynsworth's
    inertia additivity on [[C - x, U], [U*, -S^-1]] counts its eigenvalues
    above x: pi(trial - x) = pi(C - x) + pi(G) - 1, with
    G = -S^-1 - U*(C - x)^-1 U.  With w = scale / (x - Lam),
    scale G = [[a - 1, z], [conj z, b + 1]], a = sum w |p_+|^2,
    b = sum w |p_-|^2 and z = sum w conj(p_+) p_-: pi(G) is 1 when
    det G < 0, and else 0 or 2 by the sign of a diagonal entry (det G > 0
    gives both entries one sign).  The trial may stay below x only while
    pi(C - x) + pi(G) can equal 1, so it is dropped when pi(C - x) plus a
    lower bound on pi(G) is at least 2.  Below -x: the same count for -C
    with f_+, f_- swapped, w = scale / (x + Lam).

    Rounding.  The signs are exact for D = Lam^ + P^ S P^*, built from the
    computed eigenvalues and projections.  D is unitarily similar to a
    matrix within a small multiple of u d^1.5 (|C| + scale sum tr T_n) of
    the exact trial child: the fold of C and eigh are backward stable, each
    operator is the rounded outer product T = fl(f f*) of its factor, so
    |T - f f*| <= sqrt(2) gamma_2 |f| |f|* entrywise and
    ||T - f f*||_2 <= sqrt(2) gamma_2 tr T (_outer_rows), and
    P^ = V^* f + O(d u)|f| in any summation order, fused or not, so any
    matmul may form P^.  NUMERIC_TOL is about 10^7 u, so that distance
    plus the trial's own fold error stays below 2 eps: a trial dropped at x
    has an exact fold deviation >= x - 2 eps.  pi(C - x) is exact for D,
    and x - Lam^_j is exact wherever it is small (Sterbenz).  The 2x2 sums
    are taken as forward errors, since near a pole they are no small
    backward perturbation.  Once x is inside C's spectrum the weights have
    mixed signs, so a and b are only within gamma_{d+5} of the sums a', b'
    of |w| |p|^2, and |z| <= sqrt(a'b'): the computed diagonal entries are
    within 4 (d + 8) eps (a' + 1), (b' + 1) of D's and the computed det
    within 4 (d + 8) eps (a' + 1)(b' + 1).  A sign counts only when it
    clears twice its bound.  At a pole, x equal to an eigenvalue of C, or
    where the sums overflow, a' or b' is inf or nan, so no sign clears and
    the trial is dropped only when two eigenvalues of C exceed x: by
    interlacing, pi(trial - x) >= pi(C - x) - 1.
    """
    gap = bars.T[:, None, :, None, None] - np.array([lam, -lam])  # (bar, bound, cell, child, d)
    above = (gap < 0).sum(axis=-1)  # pi(C - x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # np.take, not [:, :, cell]: einsum is three times faster on its contiguous result
        weights = np.take(scale / gap, cell, axis=2)
        sums = np.einsum("ktcj,xbtcj->kxbtc", terms, weights)
        mags = np.einsum("ktcj,xbtcj->kxbtc", terms[:2], np.abs(weights))
        # at +x the gained factor pushes past the bar, at -x the lost one
        shift = np.array([-1.0, 1.0])[:, None, None]
        diag = sums[1] - shift  # b + 1 at +x, a - 1 at -x
        det = (sums[0] + shift) * diag - (sums[2:] ** 2).sum(axis=0)
        diag_tol = 8 * (lam.shape[-1] + 8) * np.finfo(float).eps * (mags[1] + 1.0)
        det_tol = diag_tol * (mags[0] + 1.0)
        low = (det < -det_tol) + 2 * ((det > det_tol) & (diag > diag_tol))  # a lower bound on pi(G)
    return ~(np.take(above, cell, axis=2) + low >= 2).any(axis=(1, 3)).T


def _rayleigh_bounds(lam, terms, scale) -> np.ndarray:
    """Each trial's largest |Rayleigh quotient|, a lower bound on its key.

    lam is the (trials, 2, d) spectrum of each trial's current children and
    terms as in _inertia_pass.  On C's j-th eigenvector the trial child
    C + scale (f_+ f_+* - f_- f_-*) has the quotient
    lam_j + scale (|p_+j|^2 - |p_-j|^2).
    """
    return np.abs(lam + scale * (terms[0] - terms[1])).max(axis=(1, 2))


@functools.lru_cache(maxsize=4096)
def _draw_count(real, remaining) -> int:
    """Side draws of a randomized subtree over `real` real ids, `remaining` levels deep."""
    if remaining == 0:
        return 0
    return (real + 1) // 2 + _draw_count(real // 2, remaining - 1) + _draw_count((real + 1) // 2, remaining - 1)


class _TreeBuilder:
    """Shared state for building selector trees over a fixed operator stack.

    rows are the operators' factors (_outer_rows), or None; factors is then
    rows with a zero row appended at index n, the factor of every pad, or
    None.  traces[i] is the trace of operator i, and total is the operator
    sum T that every leaf's rescaled sum is compared with.
    """

    def __init__(self, stack, traces, total, order, rows):
        self.stack = stack
        self.traces = traces
        self.total = total
        self.order = order
        self.total_trace = float(np.real(np.trace(total)))
        self.trace_sum = sum(traces)
        self.factors = None if rows is None else np.concatenate([rows, np.zeros_like(rows[:1])])

    def pairing(self, ids, pads_before=0) -> PairPartition:
        """The cell's pairing; a fresh pad is labelled -1 - pads_before."""
        return descending_trace_pairs(ids, self.traces, itertools.count(-1 - pads_before, -1))

    def trees(self, choose, count=1, rng=None) -> list[SelectorTree]:
        """count trees over every operator, built breadth-first, level by level.

        Every cell of a level is paired, and one call choose(pairs,
        remaining, starts) returns the (cells, k) sides of them all: pairs
        is their (cells, k, 2) id array, remaining the levels below them and
        starts their starting sides, 0 or, with rng, one rng.integers(0, 2)
        per pair that holds a real id.  Cells come tree by tree, each tree's
        left to right.

        A seed gives the trees a depth-first build would: the draws of all
        count trees are taken up front in one call (the stream of as many
        scalar draws), and each cell reads its own at its depth-first
        offset.  A cell with r real ids draws ceil(r/2), and its
        children hold floor(r/2) and ceil(r/2) of them, so a subtree's draw
        count depends only on (r, levels left).  Fresh pad labels -1, -2, ...
        follow the same order: every cell of a level has the same size, and
        each cell of odd size takes one.
        """
        n, order = len(self.stack), self.order
        sizes = [n]
        for _ in range(order):
            sizes.append((sizes[-1] + 1) // 2)
        pads_below = [0] * (order + 1)  # fresh pads in a subtree rooted at each level
        for j in reversed(range(order)):
            pads_below[j] = sizes[j] % 2 + 2 * pads_below[j + 1]
        per_tree = _draw_count(n, order) if rng is not None else 0
        draws = rng.integers(0, 2, size=count * per_tree) if rng is not None else None
        roots = [SelectorCell(indices=tuple(range(n))) for _ in range(count)]
        level = [(root, t * per_tree, 0) for t, root in enumerate(roots)]  # (cell, draws before, pads before)
        for j, size in enumerate(sizes[:-1]):
            parts = [self.pairing(cell.indices, pads) for cell, _, pads in level]
            pairs = np.array([part.pairs for part in parts], dtype=np.int64)
            taken = (pairs >= 0).any(axis=2).sum(axis=1)  # each cell's draws
            starts = np.zeros(pairs.shape[:2], dtype=np.int64)
            if rng is not None:
                for row, f, (_, offset, _) in zip(starts, taken, level):
                    row[:f] = draws[offset : offset + f]
            sides = choose(pairs, order - j, starts)
            slots = np.arange(pairs.shape[1])
            below = []
            for (cell, offset, pads), part, cell_pairs, s, f in zip(level, parts, pairs, sides, taken):
                left, right = cell_pairs[slots, s], cell_pairs[slots, 1 - s]
                cell.partition, cell.sides = part, tuple(s.tolist())
                cell.children = tuple(SelectorCell(indices=tuple(sorted(ids.tolist()))) for ids in (left, right))
                offset, pads = offset + f, pads + size % 2
                right_offset = offset + _draw_count(int((left >= 0).sum()), order - j - 1)
                below += [(cell.children[0], offset, pads), (cell.children[1], right_offset, pads + pads_below[j + 1])]
            level = below
        return [SelectorTree(order=order, root=root) for root in roots]

    def tolerance(self, scale) -> float:
        """Bound on the gap between two computed deviations of one child.

        A child is -T + scale * (sum of its T_i), every addend PSD up
        to sign, so each partial sum has Frobenius norm at most
        tr T + scale * sum_n tr T_n.  A fold, a fold plus one rank
        update, an eigensolve or a Rayleigh quotient perturbs the matrix by
        a small multiple of the unit roundoff times that (times the count
        and the dimension), and by Weyl the deviation moves no further.
        NUMERIC_TOL leaves a margin of about 10^7 over the unit roundoff.
        """
        return NUMERIC_TOL * (1.0 + self.total_trace + scale * self.trace_sum)

    def screen(self, current, cell, gain, lose, scale, bar) -> np.ndarray:
        """Each trial's floor: the lowest bar at which it may beat its cell.

        current is the (cells, 2, d, d) stack of each cell's exact folds of
        its current sides; trial t, of cell cell[t], moves gain[t] into
        child 0 and lose[t] out of it (indices into factors, n for a pad),
        and is held to that cell's bar.  A trial dropped at a bar x has an
        exact fold deviation >= x - 2 eps, eps = tolerance(scale); at
        bar = value + 2 eps that is the current value, and such a trial's
        floor is inf.  The others have floor bar, or the lowest bar of their
        cell's grid that they pass: the bars at the fractions _GRID of the
        way from the best Rayleigh lower bound of the cell's survivors to
        bar.  A cell with one survivor has no grid, as that survivor is
        folded at any bar.

        Stacks with factors: one eigh of current serves every cell and both
        passes, _inertia_pass at bar on every trial, then at the grid on the
        survivors, from the eigensystem of the trial's current children and
        the projections of the factors it moves.  The Rayleigh bounds
        (_rayleigh_bounds) only place the grid; soundness does not rest on
        them.  Other stacks drop nothing: every trial's floor is its cell's
        bar, so every trial is folded exactly.
        """
        if self.factors is None:
            return bar[cell]
        lam, vecs = np.linalg.eigh(current)
        # each child's rows (f_+, f_-) as (trial, child, factor), child 0
        # gaining `gain` and child 1 `lose`, projected in one batched product
        ends = np.array([[gain, lose], [lose, gain]]).T
        p = np.moveaxis(self.factors[ends] @ vecs.conj()[cell], 2, 0)
        terms = p[[0, 1, 0]].conj() * p[[0, 1, 1]]  # |p_+|^2, |p_-|^2, conj(p_+) p_-
        if np.iscomplexobj(terms):
            terms = np.concatenate([terms.real, terms[2:].imag])
        floor = np.where(_inertia_pass(lam, terms, cell, scale, bar[:, None])[:, 0], bar[cell], np.inf)
        alive = np.flatnonzero(floor < np.inf)
        alive = alive[np.bincount(cell[alive], minlength=len(bar))[cell[alive]] > 1]
        if not len(alive):
            return floor
        terms, owner = terms[:, alive], cell[alive]
        low = np.full(len(bar), np.inf)
        np.minimum.at(low, owner, _rayleigh_bounds(lam[owner], terms, scale))
        low = np.minimum(low, bar)
        grid = low[:, None] + (bar - low)[:, None] * _GRID
        passed = _inertia_pass(lam, terms, owner, scale, grid)
        floor[alive] = np.where(passed.any(axis=1), grid[owner, passed.argmax(axis=1)], floor[alive])
        return floor


def _greedy_sides(builder: _TreeBuilder, pairs, remaining, starts) -> np.ndarray:
    """Choose step of greedy and randomized search: lockstep single-flip descents.

    pairs is the (cells, k, 2) id array of a level's cells and starts their
    starting sides.  Each cell descends on its worse child's deviation,
    flipping the pairs that hold a real id, and every sweep serves all
    cells still descending with one screen and one exact fold.
    """
    cells, width = starts.shape
    slots = np.arange(width)
    level_scale = float(2 ** (builder.order - remaining + 1))
    eps = builder.tolerance(level_scale)
    scaled = level_scale * builder.stack
    padded_pairs = np.where(pairs < 0, len(builder.stack), pairs)
    sides = starts.copy()

    def fold(owner, side_rows):
        # exact (m, 2, d, d) child sums of each side row, of cell owner[i],
        # and their deviations
        own = owner[:, None]
        rows = np.concatenate([pairs[own, slots, side_rows], pairs[own, slots, 1 - side_rows]])
        sums = _fold(scaled, rows, builder.total)
        sums = sums.reshape((2, len(side_rows)) + sums.shape[1:]).swapaxes(0, 1)
        return sums, _radii(sums)

    # each cell's exact fold of the side row held[c]: the current sides,
    # carried over from the sweep that chose them
    held = np.full_like(sides, -1)
    held_sums = np.empty((cells, 2) + builder.total.shape, dtype=np.result_type(builder.total, builder.stack))
    held_devs = np.empty((cells, 2))

    def objective(owner, side_rows):
        # side_rows are each cell's sides or single flips of them, as
        # _descend scores them.  A flip moves one element between the
        # children, a rank update of the current sums.  The screen drops the
        # trials that cannot beat their cell's current value, and the exact
        # fold scores those that pass their cell's lowest passed bar.  The
        # others are >= that bar - 2 eps: when the cell's exact minimum is
        # below bar - 2 eps they cannot tie or beat it, and otherwise the
        # fallback folds them too.  Unfolded trials keep the cell's value as
        # their (losing) key, so _descend decides as it would on exact keys
        # alone.
        live = np.flatnonzero(np.bincount(owner, minlength=cells))  # the distinct owners, ascending
        stale = live[(held[live] != sides[live]).any(axis=1)]
        if len(stale):
            held[stale] = sides[stale]
            held_sums[stale], held_devs[stale] = fold(stale, sides[stale])
        value = held_devs.max(axis=1)
        keys = value[owner]
        moved = side_rows != sides[owner]
        trials = np.flatnonzero(moved.any(axis=1))
        if not len(trials):
            return keys[:, None]
        k = moved[trials].argmax(axis=1)
        c = owner[trials]
        s = sides[c, k]
        at = np.searchsorted(live, c)
        floor = builder.screen(
            held_sums[live], at, padded_pairs[c, k, 1 - s], padded_pairs[c, k, s], level_scale, value[live] + 2 * eps
        )
        chosen = np.full(len(live), np.inf)
        np.minimum.at(chosen, at, floor)
        rest, pick = floor < np.inf, floor == chosen[at]
        best = np.full(len(live), np.inf)
        batches = []
        while (pick := pick & rest).any():
            rest &= ~pick
            sel = trials[pick]
            sums, exact = fold(owner[sel], side_rows[sel])
            keys[sel] = exact.max(axis=1)
            np.minimum.at(best, at[pick], keys[sel])
            batches.append((sel, sums, exact))
            pick = (best >= chosen - 2 * eps)[at]  # the fallback
        if batches:
            sel, sums, exact = map(np.concatenate, zip(*batches))
            # each cell's first exact minimum
            c = owner[sel]
            order = np.lexsort((sel, keys[sel], c))
            first = order[np.concatenate(([True], np.diff(c[order]) != 0))]
            held[c[first]] = side_rows[sel[first]]
            held_sums[c[first]], held_devs[c[first]] = sums[first], exact[first]
        return keys[:, None]

    return _descend(sides, (pairs >= 0).any(axis=2), objective)


def _optimal_sides(builder: _TreeBuilder):
    """Choose step of exhaustive search: the depth-first optimum.

    Minimizes the worst leaf deviation over every side choice below a cell.
    A cell is keyed by (bitmask of its real ids, pad count once paired,
    remaining levels), since pads are interchangeable, and laid out by
    _cell_pairs as the builder's pairing lays it out.  Side choices are
    enumerated with bit t flipping the t-th pair that holds a real id, and
    the first one that reaches the minimum wins.  A choice and its
    complement only swap the children, and the first of the two has the
    last bit 0, so only those are enumerated.  Leaves are scored by the
    descent's fold, each distinct leaf once and the fresh leaves of a cell
    in one batch.
    """
    n = len(builder.stack)
    scaled = float(2**builder.order) * builder.stack
    leaf: dict[int, float] = {}
    memo: dict[tuple[int, int, int], tuple[float, list[int]]] = {}

    def solve(mask, pads, remaining) -> tuple[float, list[int]]:
        key = (mask, pads, remaining)
        if key in memo:
            return memo[key]
        pairs = _cell_pairs([i for i in range(n) if mask >> i & 1], [-1] * pads, builder.traces)
        flips = [k for k, (a, b) in enumerate(pairs) if a >= 0]
        size = len(pairs)  # each child's size; odd children gain a pad
        # the left child of every side choice with the last bit 0; flipping
        # pair k swaps a for b
        lefts = [sum(1 << pairs[k][0] for k in flips)]
        for k in flips[:-1]:
            a, b = pairs[k]
            swap = 1 << a | (1 << b if b >= 0 else 0)
            lefts += [left ^ swap for left in lefts]
        if remaining == 1:
            fresh = list(dict.fromkeys(child for left in lefts for child in (left, mask ^ left) if child not in leaf))
            if fresh:
                rows = np.full((len(fresh), size), -1, dtype=np.int64)
                for row, child in zip(rows, fresh):
                    ids = [i for i in range(n) if child >> i & 1]
                    row[: len(ids)] = ids
                leaf.update(zip(fresh, _radii(_fold(scaled, rows, builder.total)).tolist()))
            value = leaf.__getitem__
        else:
            def value(child):
                return solve(child, size - child.bit_count() + size % 2, remaining - 1)[0]
        best, choice = math.inf, 0
        for c, left in enumerate(lefts):
            val = max(value(left), value(mask ^ left))
            if val < best:
                best, choice = val, c
        sides = [0] * size
        for t, k in enumerate(flips):
            sides[k] = choice >> t & 1
        memo[key] = best, sides
        return memo[key]

    def choose(pairs, remaining, starts) -> np.ndarray:
        cells = [cell.ravel().tolist() for cell in pairs]
        return np.array([solve(sum(1 << i for i in ids if i >= 0), sum(i < 0 for i in ids), remaining)[1] for ids in cells])

    return choose


def _leaf_deviations(trees: list[SelectorTree], stack, total) -> list[dict[str, float]]:
    """Each tree's leaf deviations, all leaves of one order in one eigensolve call."""
    raws = [tree.raw_leaves() for tree in trees]
    leaves = [ids for raw in raws for ids in raw.values()]
    rows = np.full((len(leaves), max(map(len, leaves))), -1, dtype=np.int64)
    for row, ids in zip(rows, leaves):
        row[: len(ids)] = ids
    devs = iter(_radii(_fold(float(2 ** trees[0].order) * stack, rows, total)).tolist())
    return [{path: next(devs) for path in raw} for raw in raws]


def best_selector(
    ops,
    order: int,
    *,
    trace_cap: float | None = None,
    strategy: str = "auto",
    seed: int = 0,
    restarts: int = RANDOM_RESTARTS,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> tuple[SelectorTree, SelectorCertificate]:
    """Search for a selector tree minimizing the worst leaf deviation.

    A leaf's deviation is ||2^order * (its operators' sum) - T||, T the sum
    of all the operators.  strategy: "auto" picks exhaustive up to
    exhaustive_limit (at least 1) total selector count and falls back to
    randomized restarts; "exhaustive" raises a budget error above the
    limit; "greedy" is a single deterministic descent; "randomized" runs
    `restarts` (at least 1) seeded descents from random starting sides and
    keeps the first tree with the lowest worst leaf deviation.  An order
    past 16 (over 2^16 leaves a tree) raises a budget error up front, and
    so does a randomized search, chosen or resolved from "auto", whose
    restarts x 2^order leaves pass the same 2^16 budget.
    """
    psd = _operator_list(ops)
    dim = psd[0].dim
    if dim == 0:
        raise PreconditionError("operators must act on a space of positive dimension")
    # bool is an int, but True is no order, restart count or budget
    counts = (("order", order, 0), ("restarts", restarts, 1), ("exhaustive_limit", exhaustive_limit, 1))
    for name, value, least in counts:
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            kind = "nonnegative" if least == 0 else "positive"
            raise PreconditionError(f"{name} must be a {kind} integer, got {value!r}")
    if order >= _LEAF_BUDGET.bit_length():  # 2^order > _LEAF_BUDGET, without forming 2^order
        raise BudgetExceededError(
            f"order {order} gives a tree 2^{order} leaves, over the leaf budget {_LEAF_BUDGET}"
        )
    rows = _outer_rows(psd)
    # rank-one rows give every matrix in one product, each as its operator forms it
    stack = np.stack([p.matrix for p in psd]) if rows is None else _outer_sums(rows[:, None])
    traces = [p.trace for p in psd]
    total = sum(stack)  # from 0, left to right, as the matrices' sum adds them
    trace_cap = _trace_cap(max(traces) if trace_cap is None else trace_cap)
    tol = NUMERIC_TOL * max(1.0, max(traces))
    bad = [i for i, t in enumerate(traces) if t > trace_cap + tol]
    if bad:
        raise PreconditionError(
            f"operators {bad} exceed the trace cap {trace_cap:.6g}"
        )
    total_eigs = np.linalg.eigvalsh((total + total.conj().T) / 2.0)
    top = float(np.max(np.abs(total_eigs)))
    top_eig = float(np.max(total_eigs))
    if top_eig > 1.0 + NUMERIC_TOL * max(top, 1.0):
        raise PreconditionError(f"operator sum has top eigenvalue {top_eig:.6g} > 1")

    count = _selector_count(len(psd), order, exhaustive_limit)
    chosen = strategy
    if strategy == "auto":
        chosen = "exhaustive" if count <= exhaustive_limit else "randomized"
    if chosen == "randomized" and restarts << order > _LEAF_BUDGET:  # one tree of 2^order leaves a restart
        raise BudgetExceededError(
            f"{restarts} restarts of order {order} build {restarts << order} leaves, over the leaf budget {_LEAF_BUDGET}"
        )
    builder = _TreeBuilder(stack, traces, total, order, rows)
    choose, groups, rng = functools.partial(_greedy_sides, builder), [1], None
    if chosen == "exhaustive":
        if count > exhaustive_limit:
            raise BudgetExceededError(
                f"selector count exceeds the exhaustive budget {exhaustive_limit}; "
                "use randomized search"
            )
        choose = _optimal_sides(builder)
    elif chosen == "randomized":
        # restarts build in groups whose lockstep arrays, 2^order d^2 + 2 n d
        # entries a restart, stay within about the stack's n d^2
        n = len(psd)
        group = max(1, n * dim * dim // (2**order * dim * dim + 2 * n * dim))
        groups = [min(group, restarts - done) for done in range(0, restarts, group)]
        rng = np.random.default_rng(seed)
    elif chosen != "greedy":
        raise PreconditionError(f"unknown strategy {strategy!r}")
    # the first tree with the lowest worst leaf deviation; only it is kept
    tree, achieved, best_worst = None, None, math.inf
    for size in groups:
        cands = builder.trees(choose, size, rng)
        for cand, cand_achieved in zip(cands, _leaf_deviations(cands, stack, total)):
            worst = max(cand_achieved.values())
            if tree is None or worst < best_worst:
                tree, achieved, best_worst = cand, cand_achieved, worst

    constant = certificate_constant(trace_cap, order)
    bound = constant * math.sqrt(2**order * trace_cap)
    worst = max(achieved.values())
    certificate = SelectorCertificate(
        trace_cap=float(trace_cap),
        order=order,
        constant=constant,
        bound=bound,
        achieved=achieved,
        satisfied=worst <= bound + NUMERIC_TOL * max(bound, 1.0),
        strategy=chosen,
    )
    return tree, certificate


def verify_certificate(certificate: SelectorCertificate, tree: SelectorTree, ops) -> bool:
    """Recompute every leaf deviation from scratch and compare.

    Raises on an inconsistent tree; returns whether the recomputed worst
    deviation stays within the certified bound and matches the stored values.
    """
    mats = [p.matrix for p in _operator_list(ops)]
    total = sum(mats)
    if not tree.check_partitions():
        raise PreconditionError("selector tree partitions are inconsistent")
    if tree.order != certificate.order:
        raise PreconditionError("tree order does not match the certificate")
    scale = float(2**tree.order)
    fresh = {
        path: _deviation(mats, ids, total, scale)
        for path, ids in tree.raw_leaves().items()
    }
    if set(fresh) != set(certificate.achieved):
        return False
    tol = NUMERIC_TOL * max(1.0, certificate.bound, max(fresh.values()))
    for path, val in fresh.items():
        if abs(val - certificate.achieved[path]) > tol:
            return False
    return max(fresh.values()) <= certificate.bound + tol
