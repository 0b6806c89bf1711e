"""Tests for the dyadic replication and subfamily sampling pipeline."""

import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framex import (
    PsdOperator,
    Projection,
    SamplingFunction,
    VectorFamily,
    extract,
    make_paddings,
    rank_one,
    sample,
)
from framex import sampling
from framex.errors import PreconditionError
from framex.sampling import (
    _as_fraction,
    _binary_expansion,
    _child_state,
    _replica_counts,
    _split_choices,
)
from framex.selectors import ScaleExponent

from helpers import reference_binary_expansion, reference_paddings, reference_replica_counts


def scaled_basis_ops(dim, trace=0.2):
    return [rank_one(np.sqrt(trace) * v) for v in np.eye(dim)]


def pinned(beta, constant=1.0):
    return ScaleExponent(value=beta, constant=constant)


def test_binary_expansion_exact_values():
    assert _binary_expansion(Fraction(3, 4), 48) == (1, 2)
    assert _binary_expansion(Fraction(5, 8), 48) == (1, 3)
    assert _binary_expansion(Fraction(5, 2), 48) == (-1, 1)
    assert _binary_expansion(Fraction(1, 3), 4) == (2, 4, 6, 8)


def test_ceiling_pad_exact_values():
    # 3/4 = 2^-1 + 2^-2 pads with 2^-2: three replicas and one pad at eta 2
    assert _replica_counts([(1, 2)], 2, 0) == (2, [3], [1])
    # 1 needs no pad; beta above the cut sets the scale
    assert _replica_counts([(0,)], 0, 3) == (3, [8], [0])
    # 13/16 pads with 2^-3 + 2^-4: three pad replicas at eta 4
    assert _replica_counts([_binary_expansion(Fraction(13, 16), 48)], 4, 0) == (4, [13], [3])
    # weights above 1 keep their integer bits: 5/2 pads up to 3
    assert _replica_counts([(-1, 1), (1,)], 1, 0) == (1, [5, 1], [1, 1])


def test_replica_counts_drop_the_bits_finer_than_the_cut():
    # 1/3 to depth 4 is 2^-2 + 2^-4 + 2^-6 + 2^-8; the cut at 4 keeps
    # 5/16, which pads with 11/16, and 1/2 pads with 1/2
    expansions = [_binary_expansion(Fraction(1, 3), 4), (1,)]
    assert _replica_counts(expansions, 4, 2) == (4, [5, 8], [11, 8])


WEIGHTS = st.one_of(
    st.floats(min_value=2.0**-60, max_value=2.0**60),
    st.sampled_from([Fraction(1, 3), "5/7", Fraction(2**70 + 1, 3**40)]),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(lambda f: f > 0),
)


@given(
    weights=st.lists(WEIGHTS, min_size=1, max_size=4),
    depth=st.integers(min_value=1, max_value=48),
    beta=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_replica_counts_equal_the_fraction_arithmetic(weights, depth, beta):
    expansions = [_binary_expansion(_as_fraction(w), depth) for w in weights]
    want = reference_replica_counts(weights, depth, beta)
    assert sorted(want) == sorted({e for exps in expansions for e in exps})
    for cut, (eta, ops, pads) in want.items():
        assert _replica_counts(expansions, cut, beta) == (eta, ops, pads)
        assert eta == max(cut, beta)
        # each weight's operator and pad replicas fill whole units of 2^eta
        assert all((op + pad) % 2**eta == 0 for op, pad in zip(ops, pads))


@given(value=WEIGHTS, depth=st.integers(min_value=1, max_value=48))
@settings(max_examples=200, deadline=None)
def test_binary_expansion_equals_the_greedy_loop(value, depth):
    want = reference_binary_expansion(Fraction(value), depth)[0]
    assert _binary_expansion(_as_fraction(value), depth) == want


def test_split_choices_marries_same_index_first():
    base, crosses = _split_choices({(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert base == {(0, 0): 1}
    assert crosses == [((0, 0), (1, 0)), ((0, 1), (1, 1))]


def test_split_choices_takes_the_largest_pad():
    base, crosses = _split_choices({(0, 0): 1, (0, 1): 1, (1, 2): 3, (1, 3): 1})
    # pad 2 keeps the largest count after each pick, so both operators take it
    assert base == {}
    assert crosses == [((0, 0), (1, 2)), ((0, 1), (1, 2)), ((1, 2), (1, 3))]


def test_split_choices_pairs_operators_without_pads():
    assert _split_choices({(0, 0): 1, (0, 1): 1}) == ({}, [((0, 0), (0, 1))])


@given(
    state=st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 4)), st.integers(0, 6), max_size=8
    ).filter(lambda d: sum(d.values()) % 2 == 0),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_split_choices_halves_and_conserves_counts(state, data):
    base, crosses = _split_choices(state)
    conserved = {key: 2 * count for key, count in base.items()}
    for a, b in crosses:
        conserved[a] = conserved.get(a, 0) + 1
        conserved[b] = conserved.get(b, 0) + 1
    assert conserved == {key: count for key, count in state.items() if count}
    sides = data.draw(st.lists(st.integers(0, 1), min_size=len(crosses), max_size=len(crosses)))
    child = _child_state(base, crosses, np.array(sides))
    assert sum(child.values()) * 2 == sum(state.values())
    assert all(child[key] >= count for key, count in base.items())


def test_make_paddings_conditions():
    """Each pad's range lies in span(T_n), the sum stays below I/2, traces obey the cap."""
    rng = np.random.default_rng(5)
    vecs = [0.7 * rng.normal(size=4) for _ in range(3)]
    ops = [rank_one(v) for v in vecs]
    # at (0.9, 0) the trace cap exceeds the operator traces and the I/2 rescale binds
    for epsilon, beta in [(0.5, 2), (0.9, 0), (0.05, 3)]:
        pads = make_paddings(ops, epsilon=epsilon, beta=beta)
        assert len(pads) == len(ops)
        for v, pad in zip(vecs, pads):
            line = np.outer(v, v) / (v @ v)
            np.testing.assert_allclose(line @ pad.matrix, pad.matrix, atol=1e-12)
            assert pad.trace <= 2.0 ** (-beta + 2) * epsilon * (1 + 1e-12)
        total = sum(pad.matrix for pad in pads)
        assert np.linalg.eigvalsh(total)[-1] <= 0.5 + 1e-12
    with pytest.raises(PreconditionError, match=r"epsilon must lie in \(0, 1\), got 1.0"):
        make_paddings(ops, epsilon=1.0, beta=0)


@pytest.mark.parametrize("complex_field", [False, True])
def test_make_paddings_equals_one_operator_at_a_time(complex_field):
    """Pads match the one-eigh-per-operator oracle.

    A dense operator's pad is formed as the oracle forms it, from the same
    eigenvectors, so it is bit-equal whenever the I/2 rescale is: when
    neither construction rescales, or when every operator is dense.  A
    rank-one operator's pad spans its normalized row where the oracle
    eigensolves v v*; the two projections differ by a few d u, and the pads'
    sums, so the rescale factors, by a few d n u relative.  Hence the bound
    4 cap d n u on every entry, eigenvalue and trace elsewhere (the largest
    deviation measured over 1,500 random families was 1.75 cap d n u).
    """
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(5, 4))
    if complex_field:
        vecs = vecs + 1j * rng.normal(size=(5, 4))
    ops = [rank_one(0.6 * v / np.linalg.norm(v)) for v in vecs]
    zero = PsdOperator(np.zeros((4, 4), dtype=vecs.dtype))
    dense = [PsdOperator(ops[0].matrix + ops[1].matrix), zero, PsdOperator(ops[3].matrix)]
    mixed = ops + dense + [ops[2], rank_one(np.zeros(4, dtype=vecs.dtype))]
    u = np.finfo(float).eps / 2
    for family in (mixed, dense):
        for epsilon, beta, rescaled in [(0.5, 2, True), (0.9, 0, True), (0.05, 3, False), (0.3, -2, True)]:
            pads = make_paddings(family, epsilon=epsilon, beta=beta)
            want = reference_paddings(family, epsilon, beta)
            cap = min(2.0 ** (-beta + 2) * epsilon, max(p.trace for p in family))
            assert (max(ref.trace for ref in want) < cap * (1 - 5e-13)) == rescaled
            tol = 4 * cap * 4 * len(family) * u
            assert len(pads) == len(want)
            for op, got, ref in zip(family, pads, want):
                assert got.matrix.dtype == ref.matrix.dtype
                if not op._from_rows and (family is dense or not rescaled):
                    assert got.matrix.tobytes() == ref.matrix.tobytes()
                    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
                    assert got.trace == ref.trace
                else:
                    assert np.abs(got.matrix - ref.matrix).max() <= tol
                    assert np.abs(got.eigenvalues - ref.eigenvalues).max() <= tol
                    assert abs(got.trace - ref.trace) <= tol
                if op.trace == 0:  # zero operators, dense and rank-one
                    assert got.trace == 0.0 and not got.matrix.any()


def test_rank_one_input_is_never_eigensolved(monkeypatch):
    """make_paddings, sample and extract read rank-one operators through their factors."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ops = scaled_basis_ops(3)
    make_paddings(ops, epsilon=0.5, beta=2)
    sample(ops, [1, Fraction(3, 4), Fraction(1, 2)], Projection(np.eye(3)[:, :1], dim=3), 0.25)
    rng = np.random.default_rng(3)
    rows = np.vstack([np.eye(5), rng.normal(size=(2, 5))])
    extract(VectorFamily(rows, scalars=np.sqrt([1, 2, 1, 3, 1, 2, 1]) / np.linalg.norm(rows, axis=1)))
    assert calls == []
    PsdOperator(ops[0].matrix).factor  # a dense operator gets its factor from one eigh
    assert calls == [(3, 3)]


def test_make_paddings_zero_for_zero_ops():
    zero = PsdOperator.zero(3)
    pads = make_paddings([zero], epsilon=0.5, beta=1)
    assert pads[0].trace == 0.0


def test_sample_uniform_weights(rng):
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, :1], dim=3)
    fn, cert = sample(ops, [1, 1, 1], subspace, 0.25)
    # unit weights are a single dyadic term, so the leaf is forced
    assert fn.multiplicity == {0: 128, 1: 128, 2: 128}
    assert cert.beta == 7
    assert cert.levels == 0
    assert cert.replica_total == 384
    assert cert.sandwich_ok and cert.mult_ok
    assert cert.sandwich_lo == pytest.approx(0.0, abs=1e-12)
    assert cert.sandwich_hi == pytest.approx(0.0, abs=1e-12)
    assert cert.gamma == pytest.approx(0.2)


def test_sample_truncates_fine_tails():
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, :2], dim=3)
    weights = [Fraction(3, 4), Fraction(5, 8), Fraction(1, 2)]
    fn, cert = sample(ops, weights, subspace, 0.25)
    # tails below eps/2 are dropped, so every weight flattens to 1/2
    assert fn.multiplicity == {0: 64, 1: 64, 2: 64}
    assert cert.tail_norm <= 0.25 / 2
    assert cert.sandwich_ok and cert.mult_ok
    # weights may be given as fraction strings
    by_text, cert_by_text = sample(ops, ["3/4", "5/8", "1/2"], subspace, 0.25)
    assert (by_text.multiplicity, cert_by_text) == (fn.multiplicity, cert)


def test_sample_pinned_exponent_runs_split_levels():
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, :1], dim=3)
    weights = [Fraction(3, 4), Fraction(5, 8), Fraction(1, 2)]
    fn, cert = sample(ops, weights, subspace, 0.25, scale=pinned(0, constant=0.75))
    assert cert.beta == 0
    assert cert.constant == 0.75
    assert cert.window_empty
    assert cert.levels == 1
    assert cert.replica_total == 6
    assert fn.multiplicity == {0: 1, 1: 1, 2: 1}
    assert cert.pigeonhole_trace <= cert.pigeonhole_cap + 1e-9
    assert cert.sandwich_ok and cert.mult_ok
    # exact multiplicity bound: one copy against 2^(0+1) * 1/2
    for n, count in fn.multiplicity.items():
        assert Fraction(count) <= 2 * weights[n]


def test_sample_shrinks_inflated_pads_back():
    """Pads inflated 100 and 1000 times, within the trace cap, are scaled back alike.

    Only the weight 3/4 leaves pads, on e_0, outside the subspace: their
    compressed trace stays 0, and the I/2 clamp alone shrinks their
    weighted sum.  The pads the leaf then uses, inflation times pad_scale,
    are the same, and the leaf certifies.
    """
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, 2:], dim=3)
    weights = [Fraction(3, 4), Fraction(1), Fraction(1)]
    paddings = sampling.make_paddings
    used = []
    for inflation in (100, 1000):
        with mock.patch.object(sampling, "make_paddings", lambda *args: [
            PsdOperator._of_rows(math.sqrt(inflation) * pad.factor, inflation * pad.matrix) for pad in paddings(*args)
        ]):
            fn, cert = sample(ops, weights, subspace, 0.25, trace_cap=1000.0, scale=pinned(0))
        assert cert.pad_scale < 1.0
        assert cert.sandwich_ok and cert.pigeonhole_trace <= cert.pigeonhole_cap
        used.append((fn.multiplicity, inflation * cert.pad_scale))
    assert used[0][0] == used[1][0]
    assert used[0][1] == pytest.approx(used[1][1], rel=1e-9)


def test_sample_shrinks_pads_under_a_trace_cap_just_below_the_traces():
    """Traces 0.2 pass a cap 2e-11 below them, within the tolerance; the pads, of trace 0.2, are shrunk under it."""
    cap = 0.2 * (1 - 1e-10)
    fn, cert = sample(scaled_basis_ops(3), [Fraction(3, 4), Fraction(1), Fraction(1)], Projection.full(3), 0.25,
                      trace_cap=cap, scale=pinned(0))
    assert cert.trace_cap == cap
    assert cert.pad_scale < 1.0 and 0.2 * cert.pad_scale <= cap
    assert cert.sandwich_ok and cert.pigeonhole_trace <= cert.pigeonhole_cap


def test_sample_refuses_a_leaf_past_the_pigeonhole(monkeypatch):
    """A leaf forged to four times the counts its split picked escapes the pigeonhole cap 2 gamma."""
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, :1], dim=3)
    child = sampling._child_state
    monkeypatch.setattr(sampling, "_child_state", lambda *args: {key: 4 * c for key, c in child(*args).items()})
    with pytest.raises(PreconditionError, match="no leaf satisfies the trace pigeonhole"):
        sample(ops, [Fraction(3, 4), Fraction(5, 8), Fraction(1, 2)], subspace, 0.25, scale=pinned(0))


def test_sample_descent_keeps_the_multiplicity_cap():
    # random weights over a proper subspace, split over six levels: the
    # leaf keeps the exact cap and certifies its sandwich
    rng = np.random.default_rng(3)
    ops = [rank_one(0.3 * v / np.linalg.norm(v)) for v in rng.normal(size=(9, 4))]
    weights = [Fraction(float(w)) for w in rng.uniform(0.05, 0.2, size=9)]
    subspace = Projection(np.eye(4)[:, :2], dim=4)
    fn, cert = sample(ops, weights, subspace, 1e-3, scale=pinned(3))
    assert (cert.levels, cert.replica_total) == (6, 4608)
    assert cert.sandwich_ok and cert.mult_ok
    for n, count in fn.multiplicity.items():
        assert Fraction(count) <= 2 ** (cert.beta + 1) * weights[n]
    assert cert.pigeonhole_trace <= cert.pigeonhole_cap + 1e-9


def test_sample_descent_drops_indices_the_leaf_cap_excludes():
    # 2^(beta+1) c_n < 1 for indices 0 and 1, so the leaf must drop both.
    # Capping each level only at 2^(eta-level+1) c_n leaves both with one
    # replica at the last level, paired with each other, and one survives.
    angles = [-0.086, 1.422, -1.335, 1.326, 0.864, -2.357]
    ops = [rank_one(0.25 * np.array([np.cos(t), np.sin(t)])) for t in angles]
    weights = [0.484, 0.429, 1.519, 2.298, 2.012, 1.965]
    subspace = Projection(np.array([[np.cos(2.733)], [np.sin(2.733)]]), dim=2)
    fn, cert = sample(ops, weights, subspace, 0.05, scale=pinned(0))
    assert cert.levels == 3
    assert cert.mult_ok and cert.sandwich_ok
    assert set(fn.multiplicity) == {2, 3, 4, 5}


def test_sample_is_deterministic():
    ops = scaled_basis_ops(4)
    subspace = Projection(np.eye(4)[:, :2], dim=4)
    runs = [
        sample(ops, [1, 1, 1, 1], subspace, 0.25)
        for _ in range(2)
    ]
    assert runs[0][0].multiplicity == runs[1][0].multiplicity
    assert runs[0][1] == runs[1][1]


def test_sample_rejects_bad_inputs():
    ops = scaled_basis_ops(3)
    subspace = Projection.full(3)
    with pytest.raises(PreconditionError):
        sample([], [], subspace, 0.25)
    with pytest.raises(PreconditionError):
        sample(ops, [1, 1], subspace, 0.25)
    with pytest.raises(PreconditionError):
        sample(ops, [1, -1, 1], subspace, 0.25)
    with pytest.raises(PreconditionError):
        sample(ops, [1, 1, 1], subspace, 1.5)
    with pytest.raises(PreconditionError):
        sample(ops, [1, 1, 1], np.eye(3), 0.25)
    # weighted sum above I/2 violates the plain-sum cap
    with pytest.raises(PreconditionError):
        sample(ops, [3, 3, 3], subspace, 0.25)
    with pytest.raises(PreconditionError, match="subspace dimension mismatch"):
        sample(ops, [1, 1, 1], Projection.full(2), 0.25)
    with pytest.raises(PreconditionError, match="operator trace exceeds the cap 0.1"):
        sample(ops, [1, 1, 1], subspace, 0.25, trace_cap=0.1)
    # 0.4 I stays below the total cap, but its trace on the whole space is 1.2
    with pytest.raises(PreconditionError, match="compressed trace 1.2 exceeds 1"):
        sample(ops, [2, 2, 2], subspace, 0.25)


@pytest.mark.parametrize("cap", [math.nan, math.inf])
def test_sample_rejects_a_non_finite_total_cap(cap):
    with pytest.raises(PreconditionError, match=f"^total cap must be finite, got {cap}$"):
        sample(scaled_basis_ops(3), [1, 1, 1], Projection.full(3), 0.25, total_cap=cap)


@pytest.mark.parametrize("exponent", [-1, functools.partial(pinned, -1)])
def test_sample_rejects_a_negative_exponent(exponent):
    # a bare int is refused as a pin before its sign is read; a ScaleExponent
    # refuses a negative value itself, so the pin is built inside the check
    if callable(exponent):
        message = "negative exponent -1"
    else:
        message = "a pinned scale must be a ScaleExponent"
    ops = scaled_basis_ops(3)
    subspace = Projection(np.eye(3)[:, :1], dim=3)
    with pytest.raises(PreconditionError, match=message):
        sample(ops, [0.25, 0.5, 1.0], subspace, 0.25, scale=exponent() if callable(exponent) else exponent)


def test_sample_rejects_unbounded_tail():
    # a subspace orthogonal to the operator makes gamma zero, and 2^60 - 1 has
    # 60 one-bits, of which MAX_DYADIC_DEPTH = 48 are kept: the remainder
    # 2^12 - 1 is visible at every cutoff
    subspace = Projection(np.eye(3)[:, 1:2], dim=3)
    message = "discarded dyadic tail exceeds min\\(epsilon/2, gamma\\) at every depth"
    with pytest.raises(PreconditionError, match=message):
        sample([rank_one([1.0, 0.0, 0.0])], [2**60 - 1], subspace, 0.25, total_cap=2.0**61, scale=pinned(0))


def test_sampling_function_basics():
    fn = SamplingFunction({2: 1, 0: 2}, source_count=4)
    assert fn.total == 3
    assert fn.multiplicity == {0: 2, 2: 1}
    assert list(fn.multiplicity) == [0, 2]  # ascending indices
    fn.multiplicity[1] = 5  # a copy: the multiset stays as built
    assert fn.multiplicity == {0: 2, 2: 1}
    assert repr(fn) == "SamplingFunction(total=3, indices=2)"


def test_sampling_function_guards():
    with pytest.raises(PreconditionError):
        SamplingFunction({0: -1})
    with pytest.raises(PreconditionError):
        SamplingFunction({5: 1}, source_count=3)
    # zero counts vanish from the support
    assert SamplingFunction({0: 0, 1: 2}).multiplicity == {1: 2}


def test_sampling_function_counts_are_never_materialized():
    huge = 2**40
    fn = SamplingFunction({0: huge, 3: 1})
    assert fn.total == huge + 1
    assert fn.multiplicity == {0: huge, 3: 1}
