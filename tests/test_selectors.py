"""Selector constants, exponent windows, pair partitions, tree search."""

import copy
import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framex import (
    BudgetExceededError,
    NoAdmissibleExponentError,
    PreconditionError,
    PairPartition,
    Projection,
    PsdOperator,
    ScaleExponent,
    best_selector,
    certificate_constant,
    descending_trace_pairs,
    natural_max_order,
    rank_one,
    sample,
    scale_exponent,
    selector_constant,
    verify_certificate,
)
from framex import selectors
from framex.selectors import _descend, _deviation, _fold, _radii
from helpers import bounded_rank_ones, reference_exhaustive_tree, reference_natural_max_order, reference_scale_exponent


def recursion_oracle(delta, max_order):
    """Independent reimplementation of the telescoping constant."""
    bs = [1.0]
    for j in range(max_order):
        b = bs[-1]
        bs.append(b + 4.0 * math.sqrt(2**j * delta * b) + 2 ** (j + 1) * delta)
    best = 0.0
    for n in range(1, max_order + 1):
        partial = sum(b - 1.0 for b in bs[:n])
        best = max(best, partial / math.sqrt(2**n * delta))
    return best


def test_constant_recursion_oracle():
    # B_1 = 1 + 4 sqrt(0.01) + 0.02 = 1.42, so C(0.01, 2) = 0.42 / 0.2
    assert selector_constant(0.01, 2) == pytest.approx(2.1, abs=1e-12)
    for delta in (0.01, 0.05, 0.1):
        for order in (1, 2, 3):
            assert selector_constant(delta, order) == pytest.approx(
                recursion_oracle(delta, order), rel=1e-12
            )


def test_constant_edge_cases():
    assert selector_constant(0.3, 0) == 0.0
    assert selector_constant(0.01, 1) == 0.0  # empty sum at N = 1
    with pytest.raises(PreconditionError):
        selector_constant(0.6, 1)  # 2 * 0.6 >= 1
    with pytest.raises(PreconditionError):
        selector_constant(0.0, 2)


def test_natural_max_order():
    assert natural_max_order(0.1) == 3
    assert natural_max_order(0.01) == 6
    assert natural_max_order(0.6) == 0
    assert natural_max_order(0.5) == 0


def _powers_of_two_and_neighbours():
    """Every power of two from 2^-1074 to 2^1023 and the floats one ulp either side, all positive and finite."""
    out = []
    for k in range(-1074, 1024):
        x = math.ldexp(1.0, k)
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return [x for x in out if 0 < x < math.inf]


def _random_floats(seed, count=2000):
    """Positive floats with uniform mantissas and exponents across the float range."""
    rng = np.random.default_rng(seed)
    mantissas = rng.uniform(0.5, 1.0, size=count)
    exponents = rng.integers(-1073, 1025, size=count)
    return [math.ldexp(float(m), int(k)) for m, k in zip(mantissas, exponents)]


def _exponent_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raise must match in type and message
        return type(exc), str(exc)


def test_natural_max_order_equals_the_scan():
    for delta in _powers_of_two_and_neighbours() + _random_floats(1):
        assert natural_max_order(delta) == reference_natural_max_order(delta), delta


def test_scale_exponent_equals_the_scan():
    """The ratio eps^2 / (4 C^2 delta) over every power of two and its neighbours, then random draws.

    With eps = 1/2 and C = 1/4 the ratio is 1/delta; with delta = 1/2 it is
    1/(8 C^2), which underflows to 0 for the largest C.
    """
    values = _powers_of_two_and_neighbours() + _random_floats(2)
    for x in values:
        for args in ((0.5, 0.25, x), (0.5, x, 0.5)):
            assert _exponent_outcome(scale_exponent, *args) == _exponent_outcome(reference_scale_exponent, *args), args
    # 4 C^2 delta underflows to 0: an infinite ratio, refused as above 2
    args = (0.5, 2.0**-600, 0.5)
    outcome = _exponent_outcome(scale_exponent, *args)
    assert outcome == _exponent_outcome(reference_scale_exponent, *args)
    assert outcome == (NoAdmissibleExponentError, "epsilon^2 / (4 C^2 delta) = inf > 2: no admissible exponent exists")
    # random inputs whose ratio lies near 2^-70..4, where most betas are found
    rng = np.random.default_rng(3)
    for _ in range(4000):
        eps, c = float(rng.uniform(1e-9, 1.0)), float(rng.lognormal(0.0, 5.0))
        args = (eps, c, eps * eps / (4.0 * c * c * 2.0 ** float(rng.uniform(-70.0, 2.0))))
        assert _exponent_outcome(scale_exponent, *args) == _exponent_outcome(reference_scale_exponent, *args), args


def test_certificate_constant_clamps():
    assert certificate_constant(0.6, 3) == 0.0
    assert certificate_constant(0.1, 5) == selector_constant(0.1, 3)
    assert certificate_constant(0.1, 2) == selector_constant(0.1, 2)


def test_scale_exponent_window():
    # with C = 0.5 and delta = 0.25 the ratio is eps^2 / 0.25
    def eps_for(ratio):
        return math.sqrt(0.25 * ratio)

    res = scale_exponent(eps_for(0.3), 0.5, 0.25)
    assert res.value == 2 and not res.window_empty
    assert res.constant == 0.5
    # ratio already in (1, 2]: beta = 0 with the empty-window flag
    res = scale_exponent(eps_for(1.5), 0.5, 0.25)
    assert res.value == 0 and res.window_empty
    # the closed upper edge, exact in floats: 0.25 / (4 * 0.0625 * 0.5) = 2
    res = scale_exponent(0.5, 0.25, 0.5)
    assert res.value == 0 and res.window_empty
    with pytest.raises(NoAdmissibleExponentError):
        scale_exponent(eps_for(2.5), 0.5, 0.25)  # ratio > 2: no window
    with pytest.raises(NoAdmissibleExponentError):
        scale_exponent(0.5, 0.0, 0.25)
    # ratio 2.5e-25 <= 2^-64: no exponent of the scan lifts it above 1
    with pytest.raises(NoAdmissibleExponentError, match="no exponent in 0..64 satisfies the window"):
        scale_exponent(1e-12, 1.0, 1.0)
    with pytest.raises(PreconditionError, match=r"epsilon must lie in \(0, 1\), got 1.0"):
        scale_exponent(1.0, 0.5, 0.25)


def test_scale_exponent_refuses_a_negative_value():
    with pytest.raises(PreconditionError, match="negative exponent -1"):
        ScaleExponent(value=-1, constant=1.0)
    assert [f.name for f in dataclasses.fields(ScaleExponent)] == ["value", "constant"]
    assert ScaleExponent(value=0, constant=1.0).window_empty
    assert not ScaleExponent(value=2, constant=1.0).window_empty


# each public reader of a trace cap, called with otherwise valid arguments
_CAP_READERS = {
    "selector_constant": lambda cap: selector_constant(cap, 1),
    "natural_max_order": natural_max_order,
    "scale_exponent": lambda cap: scale_exponent(0.5, 1.0, cap),
    "best_selector": lambda cap: best_selector([rank_one([0.3, 0.0]), rank_one([0.0, 0.3])], 1, trace_cap=cap),
    "sample": lambda cap: sample([rank_one([0.3, 0.0])], [1], Projection.full(2), 0.25, trace_cap=cap),
}


@pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -1])
@pytest.mark.parametrize("reader", sorted(_CAP_READERS))
def test_trace_caps_must_be_finite_and_positive(reader, cap):
    message = f"trace cap must be finite and positive, got {cap}"
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        _CAP_READERS[reader](cap)


def test_operator_lists_are_read_alike():
    """One reader: an empty list and mixed dimensions raise the same messages everywhere."""
    ops = [rank_one([0.3, 0.0]), rank_one([0.0, 0.3])]
    tree, cert = best_selector(ops, 1)
    readers = [
        lambda o: best_selector(o, 1),
        lambda o: verify_certificate(cert, tree, o),
        lambda o: sample(o, [1] * len(o), Projection.full(2), 0.25),
    ]
    mixed = [ops[0], np.eye(3) / 10]
    for read in readers:
        with pytest.raises(PreconditionError, match="operators live in different dimensions"):
            read(mixed)
    for read in readers:
        with pytest.raises(PreconditionError, match="need at least one operator"):
            read([])
    # arrays are validated as PsdOperators
    with pytest.raises(PreconditionError, match="not positive semidefinite"):
        sample([-np.eye(2)], [1], Projection.full(2), 0.25)


def test_descending_trace_pairs():
    part = descending_trace_pairs([0, 1, 2, 3, 4, 5], [5.0, 1.0, 4.0, 2.0, 3.0, 0.5])
    assert part.pairs == ((0, 2), (4, 3), (1, 5))
    odd = descending_trace_pairs([0, 1, 2], [3.0, 2.0, 1.0])
    assert odd.pairs == ((0, 1), (2, -1))


def test_pair_partition_guards():
    with pytest.raises(PreconditionError, match="pairs overlap"):  # a degenerate pair lists its id twice
        PairPartition(indices=(0, 1), pairs=((0, 0),))
    with pytest.raises(PreconditionError):
        PairPartition(indices=(0, 1, 2), pairs=((0, 1),))
    with pytest.raises(PreconditionError):
        PairPartition(indices=(0, 1, 2, 3), pairs=((0, 1), (1, 2)))


def test_identical_pair_splits_perfectly():
    op = rank_one(np.array([np.sqrt(0.2), 0.0]))
    tree, cert = best_selector([op, op], 1)
    assert cert.worst <= 1e-12
    assert cert.satisfied
    assert verify_certificate(cert, tree, [op, op])


def test_exhaustive_beats_greedy(rng):
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(3, 9))
        ops = bounded_rank_ones(rng, dim, count, trace_cap=0.1)
        _, exh = best_selector(ops, 2, strategy="exhaustive")
        _, grd = best_selector(ops, 2, strategy="greedy")
        assert exh.worst <= grd.worst + 1e-12
        assert exh.satisfied


def exhaustive_instance(seed, complex_field, count, duplicates):
    """Operators with sum <= 0.99 I whatever the duplicates (every trace <= 0.99 / count)."""
    rng = np.random.default_rng(seed)
    make = complex_rank_ones if complex_field else bounded_rank_ones
    ops = make(rng, int(rng.integers(1, 5)), count, trace_cap=0.99 / count)
    for a, b in rng.integers(0, count, size=(duplicates, 2)):
        ops[a] = ops[b]
    return ops


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    count=st.integers(1, 10),
    order=st.integers(1, 3),
    duplicates=st.integers(0, 3),
)
def test_exhaustive_search_matches_the_reference_tree(seed, complex_field, count, order, duplicates):
    """The shared tree builder finds the former exhaustive search's tree: the
    same leaves and the same leaf deviations, to the last bit.  Odd counts
    give pads, duplicated operators exact ties between side choices."""
    ops = exhaustive_instance(seed, complex_field, count, duplicates)
    tree, cert = best_selector(ops, order, strategy="exhaustive")
    mats = [op.matrix for op in ops]
    target = sum(mats)
    reference = reference_exhaustive_tree(mats, [op.trace for op in ops], target, order)
    assert tree.check_partitions()
    assert tree.leaves() == reference.leaves()
    assert cert.achieved == {
        path: _deviation(mats, ids, target, float(2**order))
        for path, ids in reference.raw_leaves().items()
    }


def every_tree(ids, remaining, traces):
    """The leaf id tuples of every tree over ids: each side of each pair of each cell."""
    if remaining == 0:
        yield [ids]
        return
    pairs = descending_trace_pairs(ids, traces).pairs
    for sides in itertools.product((0, 1), repeat=len(pairs)):
        left = tuple(pair[s] for pair, s in zip(pairs, sides))
        right = tuple(pair[1 - s] for pair, s in zip(pairs, sides))
        rights = list(every_tree(right, remaining - 1, traces))
        for lower in every_tree(left, remaining - 1, traces):
            for upper in rights:
                yield lower + upper


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    count=st.integers(1, 6),
    order=st.integers(1, 2),
    duplicates=st.integers(0, 2),
)
def test_exhaustive_search_is_optimal_over_every_tree(seed, complex_field, count, order, duplicates):
    """No tree the pairing allows has a smaller worst leaf deviation."""
    ops = exhaustive_instance(seed, complex_field, count, duplicates)
    _, cert = best_selector(ops, order, strategy="exhaustive")
    mats = [op.matrix for op in ops]
    target = sum(mats)
    scale = float(2**order)
    worst = [
        max(_deviation(mats, leaf, target, scale) for leaf in leaves)
        for leaves in every_tree(tuple(range(count)), order, [op.trace for op in ops])
    ]
    assert cert.worst == min(worst)


def test_leaf_bound_holds(rng):
    """Every leaf deviation stays within C sqrt(2^N delta)."""
    for _ in range(10):
        ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.08)
        cap = max(op.trace for op in ops)
        tree, cert = best_selector(ops, 2, strategy="exhaustive")
        bound = certificate_constant(cap, 2) * math.sqrt(4 * cap)
        assert cert.bound == pytest.approx(bound, rel=1e-9)
        for dev in cert.achieved.values():
            assert dev <= bound * (1 + 1e-9) + 1e-12


def test_randomized_deterministic(rng):
    ops = bounded_rank_ones(rng, 4, 10, trace_cap=0.09)
    _, one = best_selector(ops, 2, strategy="randomized", seed=5, restarts=32)
    _, two = best_selector(ops, 2, strategy="randomized", seed=5, restarts=32)
    assert one.worst == two.worst
    assert one.achieved == two.achieved


def test_verify_rejects_tampered_bound(rng):
    ops = bounded_rank_ones(rng, 3, 4, trace_cap=0.1)
    tree, cert = best_selector(ops, 2, strategy="exhaustive")
    if cert.worst == 0.0:
        pytest.skip("degenerate instance with exact split")
    fake = dataclasses.replace(cert, bound=cert.worst / 2.0, satisfied=True)
    assert not verify_certificate(fake, tree, ops)


# each forgery of a root split that check_partitions must refuse, made in place
_FORGED_SPLITS = {
    "sides-short": lambda root: setattr(root, "sides", root.sides[:-1]),
    "cell-beyond-partition": lambda root: setattr(root, "indices", root.indices + (99,)),
    "partition-beyond-cell": lambda root: setattr(root, "indices", root.indices[1:]),
    "side-flipped": lambda root: setattr(root, "sides", (1 - root.sides[0],) + root.sides[1:]),
    "child-oversized": lambda root: setattr(
        root.children[0], "indices", root.children[0].indices + root.children[1].indices[:1]
    ),
}


@pytest.mark.parametrize("forge", sorted(_FORGED_SPLITS))
def test_check_partitions_refuses_a_forged_split(rng, forge):
    # order 1: the root's children are leaves, so only the root's own checks can refuse
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    tree, cert = best_selector(ops, 1, strategy="exhaustive")
    assert tree.check_partitions()
    forged = copy.deepcopy(tree)
    _FORGED_SPLITS[forge](forged.root)
    assert not forged.check_partitions()
    with pytest.raises(PreconditionError, match="selector tree partitions are inconsistent"):
        verify_certificate(cert, forged, ops)


def test_verify_refuses_a_certificate_of_another_tree(rng):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    tree, cert = best_selector(ops, 2, strategy="exhaustive")
    assert verify_certificate(cert, tree, ops)
    with pytest.raises(PreconditionError, match="tree order does not match the certificate"):
        verify_certificate(dataclasses.replace(cert, order=3), tree, ops)
    path = min(cert.achieved)
    missing = {key: val for key, val in cert.achieved.items() if key != path}
    assert not verify_certificate(dataclasses.replace(cert, achieved=missing), tree, ops)
    moved = dict(cert.achieved, **{path: cert.achieved[path] + 1e-3})
    assert not verify_certificate(dataclasses.replace(cert, achieved=moved, bound=10.0), tree, ops)


def test_best_selector_rejects_a_trace_past_its_cap_and_an_unknown_strategy(rng):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    with pytest.raises(PreconditionError, match=r"operators \[.*\] exceed the trace cap 1e-05"):
        best_selector(ops, 1, trace_cap=1e-5)
    with pytest.raises(PreconditionError, match="unknown strategy 'annealing'"):
        best_selector(ops, 1, strategy="annealing")


def test_auto_search_of_64_pairs_is_randomized():
    """Past 63 pairs at a level, auto never counts the selectors: 2^64 exceeds any budget."""
    ops = [rank_one(0.05 * np.eye(2)[i % 2]) for i in range(128)]
    _, cert = best_selector(ops, 1, restarts=1, exhaustive_limit=2**62)
    assert cert.strategy == "randomized"


def test_randomized_rejects_no_restarts(rng):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    for bad in (0, -3, 2.0):
        with pytest.raises(PreconditionError):
            best_selector(ops, 2, strategy="randomized", restarts=bad)


def test_best_selector_rejects_bool_order_and_restarts(rng):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    for flag in (True, False):
        with pytest.raises(PreconditionError, match="order"):
            best_selector(ops, flag, strategy="greedy")
        with pytest.raises(PreconditionError, match="restarts"):
            best_selector(ops, 2, strategy="randomized", restarts=flag)


@pytest.mark.parametrize("limit", [True, -5, 2.5, 0])
def test_best_selector_rejects_a_bad_exhaustive_limit(rng, limit):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    with pytest.raises(PreconditionError, match="exhaustive_limit"):
        best_selector(ops, 2, strategy="auto", exhaustive_limit=limit)


def test_best_selector_rejects_zero_dimension():
    with pytest.raises(PreconditionError):
        best_selector([PsdOperator(np.zeros((0, 0)))], 1, strategy="greedy")


def complex_rank_ones(rng, dim, count, trace_cap):
    units = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    traces = rng.uniform(0.2, 1.0, size=count) * min(trace_cap, 0.99 / count)
    return [rank_one(np.sqrt(t) * u) for t, u in zip(traces, units)]


def test_batched_deviations_match_scalar(rng):
    """Same additions in the same order: equal to the last bit, pads skipped."""
    for make, count in ((bounded_rank_ones, 8), (complex_rank_ones, 8), (bounded_rank_ones, 7)):
        ops = make(rng, 4, count, trace_cap=0.1)
        mats = [op.matrix for op in ops]
        target = sum(mats)
        rows = np.array([rng.permutation(count + 1)[: (count + 1) // 2] for _ in range(6)]) - 1
        rows[0] = -1  # a row of pads alone leaves -target
        for scale in (2.0, 8.0):
            batched = _radii(_fold(scale * np.stack(mats), rows, target))
            assert batched.tolist() == [_deviation(mats, row, target, scale) for row in rows]


@pytest.mark.parametrize("complex_field", [False, True])
def test_stacked_operators_equal_the_per_operator_matrices_bit_for_bit(monkeypatch, complex_field):
    """best_selector forms a rank-one stack in one product from the factor
    rows; its operators and sum equal [p.matrix for p in psd] and sum(mats)
    to the last bit, -0.0 entries and zero rows included."""
    rng = np.random.default_rng(5)
    rows = 0.2 * rng.normal(size=(9, 4))
    if complex_field:
        rows = rows + 0.2j * rng.normal(size=(9, 4))
    rows[2] = 0.0  # a zero row
    rows[4] = -0.0
    rows[5, ::2] = -0.0
    rows[6, 1] = complex(-0.0, -0.0) if complex_field else -0.0
    rows[7, 3] = complex(0.1, -0.0) if complex_field else 0.1
    seen = {}
    builder = selectors._TreeBuilder

    def spy(stack, traces, total, order, factors):
        seen["stack"], seen["total"], seen["factors"] = stack, total, factors
        return builder(stack, traces, total, order, factors)

    monkeypatch.setattr(selectors, "_TreeBuilder", spy)
    best_selector([rank_one(v) for v in rows], 1, strategy="greedy")
    mats = [p.matrix for p in [rank_one(v) for v in rows]]
    assert seen["factors"] is not None
    assert seen["stack"].dtype == mats[0].dtype and seen["stack"].tobytes() == np.stack(mats).tobytes()
    assert seen["total"].tobytes() == sum(mats).tobytes()
    raw = (rows[:, :, None] * rows[:, None, :].conj()).view(float)
    assert (np.signbit(raw) & (raw == 0)).any()  # products of -0.0 that each matrix's one-row sum clears


def reference_search(ops, order, seed=None, restarts=1):
    """Scalar descent the batched search must reproduce: (raw leaves, achieved)."""
    mats = [op.matrix for op in ops]
    traces = [op.trace for op in ops]
    target = sum(mats)
    rng = None if seed is None else np.random.default_rng(seed)

    def descend(ids, remaining, pad_ids, path, out):
        if remaining == 0:
            out[path] = tuple(sorted(ids))
            return
        pairs = descending_trace_pairs(ids, traces, pad_ids).pairs
        flippable = [k for k, (a, b) in enumerate(pairs) if a >= 0 or b >= 0]
        sides = [0] * len(pairs)
        if rng is not None:
            for k in flippable:
                sides[k] = int(rng.integers(0, 2))
        scale = float(2 ** (order - remaining + 1))

        def split(s):
            return [p[x] for p, x in zip(pairs, s)], [p[1 - x] for p, x in zip(pairs, s)]

        def objective(s):
            return max(_deviation(mats, child, target, scale) for child in split(s))

        current = objective(sides)
        while True:
            best_k, best_val = None, current
            for k in flippable:
                sides[k] ^= 1
                val = objective(sides)
                sides[k] ^= 1
                if val < best_val:
                    best_k, best_val = k, val
            if best_k is None:
                break
            sides[best_k] ^= 1
            current = best_val
        left, right = split(sides)
        descend(left, remaining - 1, pad_ids, path + "0", out)
        descend(right, remaining - 1, pad_ids, path + "1", out)

    best = None
    for _ in range(restarts):
        leaves = {}
        descend(tuple(range(len(mats))), order, itertools.count(-1, -1), "", leaves)
        achieved = {p: _deviation(mats, ids, target, float(2**order)) for p, ids in leaves.items()}
        if best is None or max(achieved.values()) < max(best[1].values()):
            best = (leaves, achieved)
    return best


@pytest.mark.parametrize(
    "make,dim,count,order",
    [
        (bounded_rank_ones, 3, 7, 2),
        (bounded_rank_ones, 5, 12, 3),
        (bounded_rank_ones, 4, 9, 3),
        (complex_rank_ones, 3, 8, 2),
        (complex_rank_ones, 4, 11, 3),
        (complex_rank_ones, 2, 5, 1),
    ],
)
def test_batched_descent_matches_scalar_reference(rng, make, dim, count, order):
    ops = make(rng, dim, count, trace_cap=0.1)
    for strategy, kwargs in (("greedy", {}), ("randomized", {"seed": 7, "restarts": 6})):
        tree, cert = best_selector(ops, order, strategy=strategy, **kwargs)
        leaves, achieved = reference_search(ops, order, **kwargs)
        assert tree.raw_leaves() == leaves
        assert cert.achieved == achieved


def test_dense_stacks_fold_every_flip_without_an_eigh(rng, monkeypatch):
    """A rank-two member leaves the stack without factor rows: the screen runs
    no eigh and passes every flip to the exact fold, which decides as the
    scalar reference does."""
    ops = bounded_rank_ones(rng, 4, 9, trace_cap=0.1)
    ops[0] = PsdOperator((ops[0].matrix + ops[1].matrix) / 2.0)
    assert selectors._outer_rows(ops) is None

    def refuse(*args, **kwargs):
        raise AssertionError("a dense stack was eigensolved for its screen")

    for strategy, kwargs in (("greedy", {}), ("randomized", {"seed": 7, "restarts": 3})):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            tree, cert = best_selector(ops, 3, strategy=strategy, **kwargs)
        leaves, achieved = reference_search(ops, 3, **kwargs)
        assert tree.raw_leaves() == leaves
        assert cert.achieved == achieved


@pytest.mark.parametrize("count", [64, 63])
def test_grouped_restarts_match_scalar_reference(count):
    """At d 16 and order 3 the restarts build in groups (4 at n 64, the last
    one partial; 3 at n 63, with pads), so draw offsets and pad labels cross
    group boundaries."""
    ops = bounded_rank_ones(np.random.default_rng(count), 16, count, trace_cap=16 / count)
    tree, cert = best_selector(ops, 3, strategy="randomized", seed=5, restarts=6)
    leaves, achieved = reference_search(ops, 3, seed=5, restarts=6)
    assert tree.raw_leaves() == leaves
    assert cert.achieved == achieved


def test_randomized_peak_memory_does_not_grow_with_restarts():
    """Restarts build in groups (5 here) and only the best tree is kept."""
    ops = bounded_rank_ones(np.random.default_rng(11), 16, 32, trace_cap=0.5)
    best_selector(ops, 1, strategy="randomized", restarts=1)  # one-time allocations
    peaks = []
    for restarts in (64, 512):
        tracemalloc.start()
        try:
            best_selector(ops, 1, strategy="randomized", seed=2, restarts=restarts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def adversarial_ops(rng, shape, dim, count, complex_field):
    """Stacks that stress the sweeps' screen; every sum stays below I."""
    if shape == "repeated_top":
        # equal traces on few axes: diagonal children with repeated eigenvalues
        axes = np.eye(dim, dtype=complex if complex_field else float)
        return [rank_one(np.sqrt(0.08) * axes[i % dim]) for i in range(count)]
    make = complex_rank_ones if complex_field else bounded_rank_ones
    ops = make(rng, dim, count, trace_cap=0.08)
    if shape == "near_parallel":
        # every factor within 1e-7 of one direction
        base = ops[0].matrix[:, int(np.argmax(np.diag(ops[0].matrix).real))]
        base = base / np.linalg.norm(base)
        ops = [
            rank_one(np.sqrt(op.trace) * (base + 1e-7 * rng.normal(size=dim))) for op in ops
        ]
    elif shape == "rank_two":
        ops[0] = PsdOperator((ops[0].matrix + ops[1].matrix) / 2.0)
    total = np.linalg.eigvalsh(sum(op.matrix for op in ops))[-1]
    return [scaled(op, min(1.0, 0.9 / total)) for op in ops]


def scaled(op, c):
    """c T: a rank-one operator stays the outer product of its factor row, so the sweeps screen it by inertia."""
    if op._from_rows:
        return rank_one(math.sqrt(c) * op.factor[0])
    return PsdOperator(c * op.matrix)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    count=st.integers(3, 12),
    order=st.integers(1, 4),
    duplicates=st.integers(0, 4),
    shape=st.sampled_from(["random", "near_parallel", "repeated_top", "rank_two"]),
    scale=st.sampled_from([1.0, 1e-9]),
)
def test_rank_update_sweeps_decide_as_the_exact_fold(
    seed, complex_field, count, order, duplicates, shape, scale
):
    """Ties stay ties: odd counts give pads, duplicated operators exact ties,
    and two-pair cells a trial whose children are another trial's swapped.
    Near-parallel factors, repeated top eigenvalues of the children and a
    scale of 1e-9, where deviations differ by about eps (_TreeBuilder.tolerance)
    and trials land within eps of the screen's bar, each decide as the exact
    fold; a rank-two member leaves the stack without factors, so every
    sweep folds every trial."""
    rng = np.random.default_rng(seed)
    ops = adversarial_ops(rng, shape, int(rng.integers(2, 5)), count, complex_field)
    for a, b in rng.integers((1, 0), count, size=(duplicates, 2)):  # ops[0] keeps its rank
        ops[a] = ops[b]
    ops = [scaled(op, scale) for op in ops]
    assert (selectors._outer_rows(ops) is None) == (shape == "rank_two")
    for strategy, kwargs in (("greedy", {}), ("randomized", {"seed": seed, "restarts": 3})):
        tree, cert = best_selector(ops, order, strategy=strategy, **kwargs)
        leaves, achieved = reference_search(ops, order, **kwargs)
        assert tree.raw_leaves() == leaves
        assert cert.achieved == achieved


def screened_cell(seed, complex_field, shape, size, level):
    """One cell of random current sides and every single flip of them.

    Returns the cell's exact value, each flip's exact key, eps, the cell's
    two current children and screen(bar), which screens every flip against
    bar with the cell as the second of the screen's stack, after an empty
    one.
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 13))
    ops = [scaled(op, size) for op in adversarial_ops(rng, shape, int(rng.integers(2, 6)), count, complex_field)]
    stack = np.stack([op.matrix for op in ops])
    target = stack.sum(axis=0)
    traces = np.trace(stack, axis1=1, axis2=2).real.tolist()
    builder = selectors._TreeBuilder(stack, traces, target, level, selectors._outer_rows(ops))
    scale = float(2**level)  # the cell's level scale
    pairs = np.array(builder.pairing(range(count)).pairs)
    padded = np.where(pairs < 0, count, pairs)
    sides = rng.integers(0, 2, size=len(pairs))
    rows = np.repeat(sides[None], len(pairs) + 1, axis=0)
    rows[np.arange(1, len(pairs) + 1), np.arange(len(pairs))] ^= 1  # row 0: the current sides
    slots = np.arange(len(pairs))
    children = np.concatenate([pairs[slots, rows], pairs[slots, 1 - rows]])
    devs = selectors._radii(selectors._fold(scale * stack, children, target))
    exact = devs.reshape(2, -1).max(axis=0)
    current = selectors._fold(scale * stack, children[[0, len(rows)]], target)
    eps = builder.tolerance(scale)
    gain, lose = padded[slots, 1 - sides], padded[slots, sides]

    def screen(bar):
        cells = np.stack([np.zeros_like(current), current])
        return builder.screen(cells, np.ones(len(gain), dtype=np.int64), gain, lose, scale, np.array([eps, bar]))

    return exact[0], exact[1:], eps, current, screen


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    shape=st.sampled_from(["random", "near_parallel", "repeated_top", "rank_two"]),
    size=st.sampled_from([1.0, 1e-9]),
    level=st.integers(0, 3),
    offset=st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
)
def test_screen_never_drops_a_trial_that_could_win(seed, complex_field, shape, size, level, offset):
    """A trial the screen drops at a bar has an exact fold deviation of at least bar - 2 eps.

    At bar = value + 2 eps that is the current value, so a dropped trial
    cannot beat the current sides.  Lower bars hold the count to the same
    bound where the current children's spectrum straddles the bar: bars
    are placed at every trial's exact deviation and at every eigenvalue of
    the current children, where the count has its poles (offset 0 hits
    them exactly), offset by a multiple of eps.  Within the grid, a trial
    whose floor is above the cell's lowest floor was dropped at that bar,
    so it too is at least that bar - 2 eps.
    """
    value, keys, eps, current, screen = screened_cell(seed, complex_field, shape, size, level)
    poles = np.abs(np.linalg.eigh(current)[0]).ravel()  # the screen's own eigenvalues, so offset 0 hits them
    bars = np.concatenate([[value + 2 * eps], keys + offset * eps, poles + offset * eps])
    for bar in bars[bars > 0]:
        floor = screen(bar)
        assert np.all((floor < np.inf) | (keys >= bar - 2 * eps))
        lowest = floor.min()
        assert np.all((floor <= lowest) | (keys >= lowest - 2 * eps))
    floor = screen(value + 2 * eps)
    assert np.all(floor[keys < value] < np.inf)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    shape=st.sampled_from(["random", "near_parallel", "repeated_top"]),
    size=st.sampled_from([1.0, 1e-9]),
    level=st.integers(0, 3),
)
def test_rayleigh_bounds_stay_below_the_exact_keys(seed, complex_field, shape, size, level):
    """Each trial's Rayleigh lower bound, which places the grid, is at most its key + 2 eps.

    The bar is above every key, so every trial survives the first count and
    the grid is placed from all of them."""
    _, keys, eps, _, screen = screened_cell(seed, complex_field, shape, size, level)
    bounds = []
    rayleigh = selectors._rayleigh_bounds

    def recorded(*args):
        bounds.append(rayleigh(*args))
        return bounds[-1]

    with mock.patch.object(selectors, "_rayleigh_bounds", recorded):
        floor = screen(keys.max() + 1.0)
    assert np.all(floor < np.inf)
    assert np.all(bounds[0] <= keys + 2 * eps)


def count_fallbacks(monkeypatch) -> dict:
    """Count the sweeps that fold twice: once at each cell's lowest passed
    bar and once more for the cells whose exact minimum did not clear it.
    Only a descent's first call folds its starting sides."""
    counts = {"folds": 0, "fallbacks": 0}
    fold, descend = selectors._fold, selectors._descend

    def counted_fold(*args):
        counts["folds"] += 1
        return fold(*args)

    def watched_descend(sides, flips, score):
        sweeps = itertools.count()

        def watched(cells, rows):
            before = counts["folds"]
            keys = score(cells, rows)
            if next(sweeps) and counts["folds"] - before > 1:
                counts["fallbacks"] += 1
            return keys

        return descend(sides, flips, watched)

    monkeypatch.setattr(selectors, "_fold", counted_fold)
    monkeypatch.setattr(selectors, "_descend", watched_descend)
    return counts


@pytest.mark.parametrize(
    "make,dim,count,order,duplicates",
    [
        (bounded_rank_ones, 5, 12, 3, 0),
        (complex_rank_ones, 4, 11, 3, 0),
        (bounded_rank_ones, 3, 13, 3, 4),
        (bounded_rank_ones, 16, 64, 3, 0),
    ],
)
def test_fallback_folds_the_trials_a_pinned_bar_leaves_out(monkeypatch, rng, make, dim, count, order, duplicates):
    """Each cell's lowest floor is pinned eps below its best trial's key,
    and that trial is moved up to the cell's top bar, as a grid bar landing
    on the key could leave it: the trials at the pinned bar cannot beat it
    by 2 eps, so only the fallback folds it.  Trees must still be the
    scalar reference's."""
    ops = make(rng, dim, count, trace_cap=min(0.1, dim / count))
    for a, b in rng.integers(0, count, size=(duplicates, 2)):
        ops[a] = ops[b]
    screen = selectors._TreeBuilder.screen

    def pinned(self, current, cell, gain, lose, scale, bar):
        floor = screen(self, current, cell, gain, lose, scale, bar)
        padded = np.concatenate([self.stack, np.zeros_like(self.stack[:1])])  # a pad's operator is zero
        step = scale * (padded[gain] - padded[lose])
        children = current[cell] + np.stack([step, -step], axis=1)
        near = np.abs(np.linalg.eigvalsh(children)).max(axis=(1, 2))  # each trial's key, to rounding
        for c in np.unique(cell):
            alive = np.flatnonzero((cell == c) & (floor < np.inf))
            if len(alive) > 1:
                best = alive[np.argmin(near[alive])]
                floor[alive] = min(near[best] - self.tolerance(scale), bar[c])
                floor[best] = bar[c]
        return floor

    monkeypatch.setattr(selectors._TreeBuilder, "screen", pinned)
    counts = count_fallbacks(monkeypatch)
    for strategy, kwargs in (("greedy", {}), ("randomized", {"seed": 7, "restarts": 3})):
        tree, cert = best_selector(ops, order, strategy=strategy, **kwargs)
        leaves, achieved = reference_search(ops, order, **kwargs)
        assert tree.raw_leaves() == leaves
        assert cert.achieved == achieved
    assert counts["fallbacks"] > 0


def test_greedy_sweeps_eigensolve_fewer_than_half_a_matrix_per_trial(monkeypatch):
    ops = bounded_rank_ones(np.random.default_rng(3), 16, 64, trace_cap=16 / 64)
    counts = {"trials": 0, "matrices": 0}
    descend = selectors._descend

    def counted_descend(sides, flips, score):
        def counted(cells, rows):
            counts["trials"] += len(rows)
            return score(cells, rows)
        return descend(sides, flips, counted)

    def counting(solver):
        def solve(a, *args, **kwargs):
            counts["matrices"] += math.prod(np.shape(a)[:-2])
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(selectors, "_descend", counted_descend)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    best_selector(ops, 3, strategy="greedy")
    assert counts["trials"] > 100
    assert 2 * counts["matrices"] < counts["trials"]


def test_verify_does_not_use_batched_helper(rng, monkeypatch):
    ops = bounded_rank_ones(rng, 3, 7, trace_cap=0.1)
    tree, cert = best_selector(ops, 2, strategy="greedy")

    def boom(*args, **kwargs):
        raise AssertionError("verify_certificate must recompute leaves on its own")

    monkeypatch.setattr(selectors, "_fold", boom)
    assert verify_certificate(cert, tree, ops)


def argmin_descent(sides, flips, objective):
    """The single-flip loop the greedy search ran before _descend was shared."""
    current = objective(sides[None])[0]
    while len(flips):
        trial = np.repeat(sides[None], len(flips), axis=0)
        trial[np.arange(len(flips)), flips] ^= 1
        vals = objective(trial)
        best = int(np.argmin(vals))
        if not vals[best] < current:
            break
        sides[flips[best]] ^= 1
        current = vals[best]
    return sides


@given(seed=st.integers(0, 2**32 - 1), width=st.integers(0, 9), modulus=st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_descend_with_one_column_keys_is_the_argmin_loop(seed, width, modulus):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-3, 4, size=(width, 3))
    mask = rng.integers(0, 2, size=width).astype(bool)
    flips = np.flatnonzero(mask)
    start = rng.integers(0, 2, size=width)

    def objective(rows):
        # few distinct values, so ties between flips are common
        return ((rows @ weights) ** 2).sum(axis=1) % modulus + 0.5 * rows[:, :1].sum(axis=1)

    seen = {"old": [], "new": []}

    def traced(name, wrap):
        def score(rows):
            seen[name].append(rows.copy())
            return wrap(objective(rows))
        return score

    old = argmin_descent(start.copy(), flips, traced("old", lambda v: v))
    score = traced("new", lambda v: v[:, None])
    new = _descend(start[None].copy(), mask[None], lambda cells, rows: score(rows))[0]
    assert new.tolist() == old.tolist()
    assert len(seen["new"]) == len(seen["old"])
    assert all((a == b).all() for a, b in zip(seen["new"], seen["old"]))


def test_descend_compares_keys_lexicographically():
    def score(cells, rows):
        # column 0 flags side 0 as forbidden; column 1 prefers more ones
        return np.column_stack([rows[:, 0], -rows.sum(axis=1)]).astype(float)

    sides = _descend(np.zeros((1, 3), dtype=np.int64), np.ones((1, 3), dtype=bool), score)
    # an argmin on column 1 alone would flip position 0 first
    assert sides.tolist() == [[0, 1, 1]]


def lexicographic_descent(sides, flips, objective):
    """One row's single-flip descent on list-compared keys, as _descend ran
    before rows descended in lockstep."""
    current = objective(sides[None])[0].tolist()
    while len(flips):
        trial = np.repeat(sides[None], len(flips), axis=0)
        trial[np.arange(len(flips)), flips] ^= 1
        keys = objective(trial).tolist()
        best = min(range(len(flips)), key=keys.__getitem__)  # the first minimum
        if not keys[best] < current:
            break
        sides[flips[best]] ^= 1
        current = keys[best]
    return sides


@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.integers(1, 6),
    width=st.integers(0, 7),
    columns=st.integers(1, 3),
    modulus=st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_descent_is_each_row_descending_alone(seed, cells, width, columns, modulus):
    """Rows with their own keys, lexicographic over several columns, with
    frequent ties and some rows without flips, descend in lockstep exactly
    as each descends alone: the same sides and the same rows scored, call
    by call."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(-2, 3, size=(cells, columns, width))
    flips = rng.random((cells, width)) < rng.random((cells, 1))
    flips[rng.random(cells) < 0.25] = False
    start = rng.integers(0, 2, size=(cells, width))

    def keys(cell_ids, rows):
        # few distinct values per column, so ties between flips are common
        return ((weights[cell_ids] @ rows[:, :, None])[..., 0] ** 2 % modulus).astype(float)

    seen = [[] for _ in range(cells)]

    def lockstep(cell_ids, rows):
        for c in range(cells):
            if (cell_ids == c).any():
                seen[c].append(rows[cell_ids == c].copy())
        return keys(cell_ids, rows)

    together = _descend(start.copy(), flips, lockstep)
    for c in range(cells):
        alone_seen = []

        def alone(rows):
            alone_seen.append(rows.copy())
            return keys(np.full(len(rows), c), rows)

        sides = lexicographic_descent(start[c].copy(), np.flatnonzero(flips[c]), alone)
        assert together[c].tolist() == sides.tolist()
        assert len(seen[c]) == len(alone_seen)
        assert all((a == b).all() for a, b in zip(seen[c], alone_seen))


def test_exhaustive_budget():
    ops = [rank_one(0.1 * np.eye(42)[i]) for i in range(42)]
    with pytest.raises(BudgetExceededError):
        best_selector(ops, 3, strategy="exhaustive")


def test_exhaustive_budget_message_names_the_limit(rng):
    ops = bounded_rank_ones(rng, 3, 3, trace_cap=0.1)
    with pytest.raises(BudgetExceededError, match="exceeds the exhaustive budget 1; "):
        best_selector(ops, 1, strategy="exhaustive", exhaustive_limit=1)


def test_order_beyond_the_leaf_budget_is_refused_before_any_search(rng, monkeypatch):
    """Order 17 gives a tree 2^17 leaves, one order past the budget of 2^16."""
    ops = bounded_rank_ones(rng, 2, 4, trace_cap=0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was built past the leaf budget")

    monkeypatch.setattr(selectors, "_TreeBuilder", refuse)
    for strategy in ("auto", "exhaustive", "greedy", "randomized"):
        with pytest.raises(BudgetExceededError, match=r"order 17 gives a tree 2\^17 leaves, over the leaf budget 65536"):
            best_selector(ops, 17, strategy=strategy)


@pytest.mark.parametrize("strategy", ["auto", "randomized"])
def test_restarts_past_the_leaf_budget_are_refused_before_any_search(rng, monkeypatch, strategy):
    """With the budget at 16 leaves, 2 restarts of order 3 run and 3 (24 leaves) are refused.

    Four operators at order 3 have more selectors than an exhaustive limit
    of 1, so "auto" resolves to the randomized search.
    """
    ops = bounded_rank_ones(rng, 2, 4, trace_cap=0.1)
    monkeypatch.setattr(selectors, "_LEAF_BUDGET", 16)
    tree, _ = best_selector(ops, 3, strategy=strategy, restarts=2, exhaustive_limit=1)
    assert len(tree.raw_leaves()) == 8

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was built past the leaf budget")

    monkeypatch.setattr(selectors, "_TreeBuilder", refuse)
    with pytest.raises(BudgetExceededError, match=r"^3 restarts of order 3 build 24 leaves, over the leaf budget 16$"):
        best_selector(ops, 3, strategy=strategy, restarts=3, exhaustive_limit=1)


@pytest.mark.parametrize("budget", [8, 12])
def test_order_within_a_patched_leaf_budget_runs(rng, monkeypatch, budget):
    """With the budget at 8 or 12 leaves, order 3 (8 leaves) runs and order 4 (16) is refused."""
    ops = bounded_rank_ones(rng, 2, 4, trace_cap=0.1)
    monkeypatch.setattr(selectors, "_LEAF_BUDGET", budget)
    tree, cert = best_selector(ops, 3, strategy="greedy")
    assert len(tree.raw_leaves()) == len(cert.achieved) == 8
    with pytest.raises(BudgetExceededError, match=f"over the leaf budget {budget}$"):
        best_selector(ops, 4, strategy="greedy")


def test_pads_hidden_from_leaves(rng):
    ops = bounded_rank_ones(rng, 3, 5, trace_cap=0.1)  # odd count forces a pad
    tree, _ = best_selector(ops, 2, strategy="exhaustive")
    for ids in tree.leaves().values():
        assert all(i >= 0 for i in ids)
    raw = [i for ids in tree.raw_leaves().values() for i in ids]
    assert any(i < 0 for i in raw)
    covered = sorted(i for i in raw if i >= 0)
    assert covered == list(range(5))


def test_tree_partition_discipline(rng):
    ops = bounded_rank_ones(rng, 3, 6, trace_cap=0.1)
    tree, _ = best_selector(ops, 3, strategy="greedy")
    assert tree.check_partitions()
    leaves = tree.leaves()
    assert len(leaves) == 8


def test_rejects_oversized_sum():
    ops = [rank_one(np.eye(2)[0]), rank_one(np.eye(2)[0])]
    with pytest.raises(PreconditionError):
        best_selector(ops, 1)


def test_rejects_bad_order(rng):
    ops = bounded_rank_ones(rng, 2, 2, trace_cap=0.1)
    with pytest.raises(PreconditionError):
        best_selector(ops, -1)
    with pytest.raises(PreconditionError):
        best_selector(ops, 1.5)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(2, 8),
)
def test_pairing_property(seed, count):
    """Pairs cover the cell exactly and kept traces descend inside pairs."""
    rng = np.random.default_rng(seed)
    traces = list(rng.uniform(0.0, 1.0, size=count))
    part = descending_trace_pairs(range(count), traces)
    seen = sorted(i for pair in part.pairs for i in pair if i >= 0)
    assert seen == list(range(count))
    for a, b in part.pairs:
        ta = traces[a] if a >= 0 else 0.0
        tb = traces[b] if b >= 0 else 0.0
        assert ta >= tb


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scale_exponent_lands_in_window(seed):
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.05, 0.9))
    c = float(rng.uniform(0.3, 3.0))
    delta = float(rng.uniform(0.01, 0.4))
    ratio = eps**2 / (4.0 * c**2 * delta)
    try:
        res = scale_exponent(eps, c, delta)
    except NoAdmissibleExponentError:
        assert ratio > 2.0
        return
    scaled = 2.0**res.value * ratio
    assert 1.0 < scaled * (1 + 1e-12) and scaled <= 2.0 * (1 + 1e-12)
    assert res.constant == c
