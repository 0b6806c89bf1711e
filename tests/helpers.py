"""Shared generators and reference oracles for the test suite."""

import itertools
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from framex import PsdOperator, VectorFamily
from framex.errors import InputFormatError, PreconditionError
from framex.linalg import RANK_DROP_TOL, Projection
from framex.selectors import PairPartition, SelectorCell, SelectorTree, _deviation


def random_family(rng, dim, count, complex_field=False, spread=1.0):
    vecs = rng.normal(size=(count, dim)) * spread
    if complex_field:
        vecs = vecs + 1j * rng.normal(size=(count, dim)) * spread
    return VectorFamily(vecs)


def spanning_family(rng, dim, extras=2, complex_field=False):
    """Identity columns plus a few random rows: spanning with tame bounds."""
    base = np.eye(dim)
    more = rng.normal(size=(extras, dim))
    vecs = np.vstack([base, more])
    if complex_field:
        vecs = vecs.astype(complex)
        vecs[dim:] += 1j * rng.normal(size=(extras, dim))
    return VectorFamily(vecs)


def rescalable_fixture(rng, dim, extras=2, kmax=4):
    """Spanning family whose scalars aim at small integer rescaled energies.

    Each vector gets scalar sqrt(k)/norm for a random k in 1..kmax, so the
    weighted energies are integers up to float noise and the extraction
    pipeline's dyadic machinery stays within budget.
    """
    vecs = np.vstack([np.eye(dim), rng.normal(size=(extras, dim))])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    vecs = vecs @ q.T
    ks = rng.integers(1, kmax + 1, size=len(vecs))
    scal = np.sqrt(ks) / np.linalg.norm(vecs, axis=1)
    return VectorFamily(vecs, scalars=scal)


def bounded_rank_ones(rng, dim, count, trace_cap):
    """Rank-one PSD list with traces <= trace_cap and sum <= I."""
    from framex import rank_one

    units = rng.normal(size=(count, dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    traces = rng.uniform(0.2, 1.0, size=count) * trace_cap
    ops = [rank_one(np.sqrt(t) * u) for t, u in zip(traces, units)]
    total = sum(op.matrix for op in ops)
    top = float(np.max(np.linalg.eigvalsh(total)))
    if top >= 1.0:
        scale = 0.99 / top
        ops = [rank_one(np.sqrt(scale * t) * u) for t, u in zip(traces, units)]
    return ops


# Brute-force point-set scans, kept as the oracles of the sweeps in
# framex.pointsets: every centre against every point, every pair of points.
_CENTER_BATCH = 2048
_EDGE_TOL = 1e-12


def _center_axis(half: float, step: float) -> np.ndarray:
    axis = np.arange(-half, half + step / 2.0, step)
    return axis if axis.size else np.zeros(1)


def _center_grid(axis: np.ndarray, dim: int) -> np.ndarray:
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim)


def brute_window_extrema(ps, radius: float, step: float):
    from framex import ball_volume

    vol = ball_volume(ps.ambient_dim, radius)
    centers = _center_grid(_center_axis(ps.declared_extent - radius, step), ps.ambient_dim)
    if len(ps) == 0:
        return radius, 0.0, 0.0
    pts = ps.points
    cap = radius * radius * (1.0 + _EDGE_TOL)
    lo = math.inf
    hi = 0.0
    for start in range(0, centers.shape[0], _CENTER_BATCH):
        chunk = centers[start : start + _CENTER_BATCH]
        d2 = np.sum((chunk[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        counts = np.count_nonzero(d2 <= cap, axis=1)
        lo = min(lo, int(counts.min()))
        hi = max(hi, int(counts.max()))
    return radius, lo / vol, hi / vol


def brute_uniformly_discrete(ps):
    n = len(ps)
    if n <= 1:
        return True, math.inf
    pts = ps.points
    best = math.inf
    for start in range(0, n, _CENTER_BATCH):
        chunk = pts[start : start + _CENTER_BATCH]
        d2 = np.sum((chunk[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        offset = start + np.arange(chunk.shape[0])
        d2[np.arange(chunk.shape[0]), offset] = math.inf
        best = min(best, float(d2.min()))
    delta = math.sqrt(max(best, 0.0))
    return delta > 0.0, delta


def brute_window_counts(points, half: float, step: float, cap: float) -> np.ndarray:
    """Count of every window of the centre grid, in the grid's flat (ij) order."""
    return brute_axis_counts(points, _center_axis(half, step), cap)


def brute_axis_counts(points, axis: np.ndarray, cap: float) -> np.ndarray:
    """Count of every window centred on the grid axis^d, in its flat (ij) order."""
    centers = _center_grid(axis, points.shape[1])
    d2 = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    return np.count_nonzero(d2 <= cap, axis=1)


# The report serializer framex.cli once used: convert to JSON-safe
# structures (keys through str(), non-finite floats as "nan", "inf" and
# "-inf"), then json.dumps.  Kept as the encoder's oracle.
def jsonable(obj):
    """Recursively convert report content to JSON-safe structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isfinite(obj):
            return obj
        return repr(float(obj))
    if isinstance(obj, complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return [jsonable(float(obj.real)), jsonable(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    raise InputFormatError(f"cannot serialize {type(obj).__name__} into a report")


def oracle_report_text(obj):
    """The report body for obj: compact JSON with sorted keys, from the two-pass serializer."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def roll_gabor_rows(spec):
    """Gabor family rows built one shift pair at a time with np.roll."""
    length = spec.length
    table = np.exp(2j * np.pi * np.arange(length) / length)
    base = spec.window.samples
    rows = np.empty((len(spec.shifts), length), dtype=complex)
    for k, (a, b) in enumerate(spec.shifts):
        idx = (np.arange(length) * b) % length
        rows[k] = np.roll(base, a) * table[idx]
    return rows


def reference_gabor_duals(spec):
    """Canonical duals of the Gabor family of spec from one solve over all of its rows.

    This is densify_gabor_frame's dual step from before it took one dual
    per distinct shift pair (now from one inverse of the frame operator):
    the frame operator formed again and every row, repeats included, a
    right-hand side.  The result is F-ordered, the transpose of the
    solver's C-ordered output.
    """
    from framex.frames import frame_operator
    from framex.timefreq import gabor_family

    rows = gabor_family(spec).vectors
    return np.linalg.solve(frame_operator(rows).matrix, rows.T).T


# densify_gabor_frame as it was before each distinct shift pair was solved
# once: the duals of reference_gabor_duals, their row norms, the rows
# appended one at a time, the mixed operator summed over every dual.  Kept
# as the oracle of its report, exact where no dual enters.
def reference_densify_gabor_frame(base, counts, seed=0):
    from framex.timefreq import (
        DensificationReport,
        _spiral_offsets,
        gabor_family,
        modulate,
        translate,
    )

    fam = gabor_family(base)
    sizes = [int(k) for k in counts]
    duals = reference_gabor_duals(base)
    dual_norms = np.linalg.norm(duals, axis=1)
    sup_dual = float(dual_norms.max())
    length = base.length
    root_length = math.sqrt(length)
    used = set()
    emitted_rows, emitted_shifts, emitted_weights = [], [], []
    param_caps, vector_caps, worst_param, worst_vector = [], [], [], []
    for n, k_n in enumerate(sizes, start=1):
        a0, b0 = base.shifts[n - 1]
        base_vec = fam.vectors[n - 1]
        cap_vec = 1.0 / (4**n * sup_dual)
        param_caps.append(root_length / n)
        vector_caps.append(cap_vec)
        chosen = []
        for da, db in _spiral_offsets(length, n * n, seed, n):
            pair = ((a0 + da) % length, (b0 + db) % length)
            if pair in used:
                continue
            cand = modulate(translate(base.window, pair[0]), pair[1]).samples
            dist = float(np.linalg.norm(cand - base_vec))
            if dist >= cap_vec:
                continue
            used.add(pair)
            chosen.append((pair, cand, math.hypot(da, db) / root_length, dist))
            if len(chosen) == k_n:
                break
        assert len(chosen) == k_n, "the reference run needs a fine enough grid"
        worst_param.append(max(c[2] for c in chosen))
        worst_vector.append(max(c[3] for c in chosen))
        for pair, cand, _, _ in chosen:
            emitted_rows.append(cand)
            emitted_shifts.append(pair)
            emitted_weights.append(1.0 / k_n)
    for m in range(len(sizes), len(base)):
        emitted_rows.append(fam.vectors[m])
        emitted_shifts.append(base.shifts[m])
        emitted_weights.append(1.0)
    rows = np.array(emitted_rows)
    mixed = np.zeros((length, length), dtype=complex)
    pos = 0
    for n, k_n in enumerate(sizes, start=1):
        block = rows[pos : pos + k_n]
        mixed += block.sum(axis=0)[:, None] * np.conj(duals[n - 1])[None, :] / k_n
        pos += k_n
    tail = rows[pos:]
    if tail.size:
        mixed += tail.T @ np.conj(duals[len(sizes) :])
    deviation = float(np.linalg.norm(mixed - np.eye(length), ord=2))
    family = VectorFamily(rows, labels=[f"{a},{b}" for a, b in emitted_shifts])
    report = DensificationReport(
        operator_deviation=deviation,
        cluster_sizes=tuple(sizes),
        parameter_caps=tuple(param_caps),
        vector_caps=tuple(vector_caps),
        parameter_distances=tuple(worst_param),
        vector_distances=tuple(worst_vector),
        dual_norm_sup=sup_dual,
        weights_nonzero=bool(np.all(dual_norms > 0.0)),
        base_count=len(base),
        emitted_count=len(emitted_shifts),
        shifts=tuple(emitted_shifts),
        weights=tuple(emitted_weights),
    )
    return family, report


# The Gram-Schmidt framex.linalg._extend_span made before its two passes
# were blocked: each pass subtracts one kept column at a time.  Kept as the
# oracle of the blocked passes; kept_norms, when given, collects the norm of
# every residual kept.
def reference_extend_span(cols, candidates, dtype, threshold, kept_norms=None):
    added = []
    for v in candidates:
        w = np.array(v, dtype=dtype)
        if len(cols) == w.size:
            break
        for _ in range(2):
            for q in cols:
                w = w - q * np.vdot(q, w)
        size = float(np.linalg.norm(w))
        if size > threshold:
            if kept_norms is not None:
                kept_norms.append(size)
            w = w / size
            cols.append(w)
            added.append(w)
    return added


# The block planner framex.extraction.plan used before each chain member was
# orthogonalized once: every boundary step re-scans all earlier members, and
# a final pass re-scans every member, with the column-by-column Gram-Schmidt.
# Kept as plan's oracle; "min_residual" is the smallest residual norm kept.
def reference_plan(family, lower: float, upper: float) -> dict:
    from framex.extraction import (
        _as_projection,
        _family_data,
        _resolve_constants,
        _threshold,
    )

    b = float(upper)
    fam, weights, units, active = _family_data(family)
    count, dim = len(fam), fam.dim
    dtype = units.dtype
    epsilon, _ = _resolve_constants(float(lower), b)
    forced = {}
    for _ in range(max(16, 2 * count)):
        boundaries = [0, 1]
        cols, norms = [], []
        chain = [Projection.zero(dim)]
        while True:
            top = boundaries[-1]
            members = [units[n] for n in range(top) if active[n]]
            chain.append(_as_projection(reference_extend_span(cols, members, dtype, RANK_DROP_TOL, norms), dim, dtype))
            if top >= count:
                break
            level = len(boundaries)
            cap = _threshold(level, epsilon)
            basis = np.stack(cols, axis=1) if cols else np.zeros((dim, 0), dtype=dtype)
            tail_terms = weights * (np.abs(units @ basis.conj()) ** 2).sum(axis=1) / b
            nxt = count
            for k in range(top + 1, count + 1):
                if float(tail_terms[k:].sum()) <= cap:
                    nxt = k
                    break
            boundaries.append(min(max(nxt, forced.get(level, 0)), count))
        leftovers = reference_extend_span(cols, [units[n] for n in range(count) if active[n]], dtype, RANK_DROP_TOL, norms)
        chain.append(_as_projection(leftovers, dim, dtype))
        boundaries.append(count)
        blocks = [(boundaries[j], boundaries[j + 1]) for j in range(len(boundaries) - 1)]
        references = []
        for j in range(len(blocks)):
            pair_cols = [chain[j].basis[:, i] for i in range(chain[j].rank)]
            pair_cols += [chain[j + 1].basis[:, i] for i in range(chain[j + 1].rank)]
            references.append(_as_projection(pair_cols, dim, dtype).complement())
        gammas = []
        violation = None
        for j, (start, end) in enumerate(blocks):
            ref = references[j].matrix
            total = 0.0
            for n in range(start, end):
                if active[n]:
                    press = float(np.real(np.vdot(units[n], ref @ units[n])))
                    total += weights[n] * max(press, 0.0) / b
            gammas.append(total)
            if total > _threshold(j, epsilon) * (1.0 + 1e-9) + 1e-12 and violation is None:
                violation = j
        if violation is not None:
            level = violation + 1
            if level < 2 or boundaries[level] >= count:
                raise PreconditionError("block energy exceeds its threshold")
            forced[level] = boundaries[level] + 1
            continue
        return {
            "blocks": tuple(blocks),
            "thresholds": tuple(_threshold(j, epsilon) for j in range(len(blocks))),
            "gammas": tuple(gammas),
            "subspaces": tuple(chain),
            "block_subspaces": tuple(references),
            "min_residual": min(norms, default=1.0),
        }
    raise AssertionError("reference planner kept failing")


def _floor_log2(fr: Fraction) -> int:
    k = fr.numerator.bit_length() - fr.denominator.bit_length()
    while Fraction(2) ** k > fr:
        k -= 1
    while Fraction(2) ** (k + 1) <= fr:
        k += 1
    return k


# The greedy Fraction loop framex.sampling used for dyadic expansions and
# ceiling pads before its integer long division.  Kept as the oracle.
def reference_binary_expansion(value: Fraction, depth=None):
    """(exponents of the first depth one-bits, remainder); depth None runs to the end."""
    exponents = []
    residual = value
    while residual > 0 and (depth is None or len(exponents) < depth):
        e = -_floor_log2(residual)
        exponents.append(e)
        residual -= Fraction(2) ** -e
    return tuple(exponents), residual


# The replica counts framex.sampling derived from Fraction-valued dyadic
# decompositions and ceiling pads before it counted in integers.  Kept as
# the oracle of _replica_counts.
def reference_replica_counts(values, depth: int, beta: int) -> dict:
    """cut -> (eta, operator counts, pad counts), for every cut in the expansions.

    Each value is expanded to depth, truncated at the cut and padded up to
    its ceiling; eta is the finest exponent among the kept and pad terms and
    beta, and each count is sum 2^(eta - e) over a weight's terms.
    """
    expansions = [reference_binary_expansion(Fraction(value), depth)[0] for value in values]
    out = {}
    for cut in sorted({e for exponents in expansions for e in exponents}):
        kept = [tuple(e for e in exponents if e <= cut) for exponents in expansions]
        pads = []
        for exponents in kept:
            total = sum((Fraction(2) ** -e for e in exponents), Fraction(0))
            gap = math.ceil(total) - total
            pads.append(reference_binary_expansion(gap)[0] if gap else ())
        eta = max([e for exponents in kept + pads for e in exponents] + [beta])
        counts = [sum(2 ** (eta - e) for e in exponents) for exponents in kept + pads]
        out[cut] = (eta, counts[: len(values)], counts[len(values) :])
    return out


# The padding operators framex.sampling.make_paddings built one at a time:
# one eigh and one validated PsdOperator per operator.  Kept as the oracle.
def reference_paddings(psd, epsilon: float, beta: int):
    target = min(2.0 ** (-beta + 2) * epsilon, max(p.trace for p in psd))
    mats = []
    for p in psd:
        vals, vecs = np.linalg.eigh(p.matrix)
        keep = vals > RANK_DROP_TOL * max(float(vals[-1]), 1e-300)
        rank = int(np.count_nonzero(keep))
        if rank == 0:
            mats.append(np.zeros_like(p.matrix))
            continue
        basis = vecs[:, keep]
        mats.append((target / rank) * (basis @ basis.conj().T))
    total = sum(mats)
    top = float(np.max(np.linalg.eigvalsh((total + total.conj().T) / 2.0)))
    factor = 0.5 / top * (1.0 - 1e-12) if top > 0.5 else 1.0
    return [PsdOperator(factor * m) for m in mats]


# The Fraction arithmetic framex.extraction used for its weight snapping,
# block thresholds and multiplicity check before it compared integers over
# powers of two.  Kept as the oracle.
def reference_snap_weight(value: float, beta: int, snap_tol: float) -> Fraction:
    exact = Fraction(value)
    q = 2 ** min(max(beta, 0), 40)
    cand = Fraction(round(exact * q), q)
    if cand > 0 and abs(cand - exact) <= snap_tol * max(1.0, value):
        return cand
    return exact


def reference_threshold(j: int, epsilon: float) -> float:
    if j <= 0:
        return 0.0
    return float(Fraction(1, 36 * 4**j)) * epsilon * epsilon


def reference_within_cap(times: int, cap: float, weight: float) -> bool:
    return Fraction(times) <= Fraction(cap) * Fraction(weight)


# The exhaustive selector search framex.selectors ran before every strategy
# shared one tree builder: its own cell layout, a scalar eigensolve per leaf
# and its own pad labels.  Kept as the oracle of strategy="exhaustive".
def reference_exhaustive_tree(mats, traces, target, order) -> SelectorTree:
    """Depth-first optimum of the max leaf deviation over the induced pairing.

    Cells are canonicalized to (bitmask of real ids, pad count); identical
    pad elements collapse, which keeps the memo small.
    """
    scale = float(2**order)
    m = len(mats)
    trace_arr = [traces[i] for i in range(m)]

    leaf_cache: dict[int, float] = {}

    def leaf_value(mask: int) -> float:
        if mask not in leaf_cache:
            ids = [i for i in range(m) if (mask >> i) & 1]
            leaf_cache[mask] = _deviation(mats, ids, target, scale)
        return leaf_cache[mask]

    def cell_layout(mask: int, pads: int):
        reals = sorted(
            (i for i in range(m) if (mask >> i) & 1),
            key=lambda i: (-trace_arr[i], i),
        )
        elems: list[int | None] = list(reals) + [None] * pads
        if len(elems) % 2:
            elems.append(None)
        pairs = [(elems[k], elems[k + 1]) for k in range(0, len(elems), 2)]
        return pairs

    memo: dict[tuple[int, int, int], tuple[float, tuple[int, ...]]] = {}

    def solve(mask: int, pads: int, remaining: int) -> float:
        if remaining == 0:
            return leaf_value(mask)
        key = (mask, pads, remaining)
        if key in memo:
            return memo[key][0]
        pairs = cell_layout(mask, pads)
        flippable = [k for k, (a, b) in enumerate(pairs) if a is not None or b is not None]
        best_val, best_sides = math.inf, (0,) * len(pairs)
        for cmask in range(2 ** len(flippable)):
            sides = [0] * len(pairs)
            for t, k in enumerate(flippable):
                sides[k] = (cmask >> t) & 1
            lm = rm = 0
            lp = rp = 0
            for (a, b), s in zip(pairs, sides):
                first, second = (a, b) if s == 0 else (b, a)
                if first is None:
                    lp += 1
                else:
                    lm |= 1 << first
                if second is None:
                    rp += 1
                else:
                    rm |= 1 << second
            val = max(solve(lm, lp, remaining - 1), solve(rm, rp, remaining - 1))
            if val < best_val:
                best_val, best_sides = val, tuple(sides)
        memo[key] = (best_val, best_sides)
        return best_val

    full_mask = (1 << m) - 1
    solve(full_mask, 0, order)

    pad_ids = itertools.count(-1, -1)

    def materialize(mask: int, pads: int, pad_labels: tuple[int, ...], remaining: int) -> SelectorCell:
        indices = tuple(sorted([i for i in range(m) if (mask >> i) & 1] + list(pad_labels)))
        if remaining == 0:
            return SelectorCell(indices=indices)
        pairs = cell_layout(mask, pads)
        _, sides = memo[(mask, pads, remaining)]
        labels = list(pad_labels)
        concrete_pairs = []
        for a, b in pairs:
            ca = a if a is not None else (labels.pop() if labels else next(pad_ids))
            cb = b if b is not None else (labels.pop() if labels else next(pad_ids))
            concrete_pairs.append((ca, cb))
        all_ids = tuple(i for pair in concrete_pairs for i in pair)
        part = PairPartition(indices=all_ids, pairs=tuple(concrete_pairs))
        left_ids, right_ids = [], []
        for (ca, cb), s in zip(concrete_pairs, sides):
            first, second = (ca, cb) if s == 0 else (cb, ca)
            left_ids.append(first)
            right_ids.append(second)
        lm = sum(1 << i for i in left_ids if i >= 0)
        rm = sum(1 << i for i in right_ids if i >= 0)
        lpl = tuple(i for i in left_ids if i < 0)
        rpl = tuple(i for i in right_ids if i < 0)
        return SelectorCell(
            indices=indices,
            partition=part,
            sides=tuple(sides),
            children=(
                materialize(lm, len(lpl), lpl, remaining - 1),
                materialize(rm, len(rpl), rpl, remaining - 1),
            ),
        )

    return SelectorTree(order=order, root=materialize(full_mask, 0, (), order))


# selectors.natural_max_order and selectors.scale_exponent as they were before
# each read its exponent off the float with math.frexp: scans over 0..64.
# Kept as their oracles.
def reference_natural_max_order(trace_cap: float) -> int:
    from framex.selectors import _EXPONENT_SCAN, _trace_cap

    delta = _trace_cap(trace_cap)
    n = 0
    while 2 ** (n + 1) * delta < 1 and n + 1 <= _EXPONENT_SCAN:
        n += 1
    return n


def reference_scale_exponent(epsilon: float, constant: float, trace_cap: float):
    from framex.errors import NoAdmissibleExponentError
    from framex.selectors import _EXPONENT_SCAN, ScaleExponent, _trace_cap

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
    ratio = eps * eps / denominator if denominator else math.inf
    if ratio > 2.0:
        raise NoAdmissibleExponentError(
            f"epsilon^2 / (4 C^2 delta) = {ratio:.6g} > 2: no admissible exponent exists"
        )
    for beta in range(_EXPONENT_SCAN + 1):
        scaled = 2**beta * ratio
        if 1.0 < scaled <= 2.0:
            return ScaleExponent(value=beta, constant=c)
    raise NoAdmissibleExponentError(
        f"no exponent in 0..{_EXPONENT_SCAN} satisfies the window for ratio {ratio:.6g}"
    )
