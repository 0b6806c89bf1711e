"""The CLI boundary: report encoder, bulk payload parse, CSV table, parser reuse."""

import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from helpers import jsonable, oracle_report_text
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framex import cli, frames, gaussian_window, timefreq
from framex.errors import InputFormatError

from test_cli import mercedes_payload, run_cli, scaled_basis_payload, window_payload, write_json


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass
class Empty:
    pass


# --- report encoder -------------------------------------------------------

_floats = st.floats(allow_nan=True, allow_infinity=True)
_huge_ints = st.integers(min_value=-(10**400), max_value=10**400)
_numpy_scalars = st.one_of(
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.complex_numbers(allow_nan=True, allow_infinity=True, width=64).map(np.complex64),
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.complex128, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)

# rectangular blocks of plain numbers, which encode in one join of reprs
_block_numbers = st.one_of(st.integers(), _huge_ints, st.floats(allow_nan=False, allow_infinity=False), _floats)


@st.composite
def _blocks(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    leaves = iter(draw(st.lists(_block_numbers, min_size=math.prod(shape), max_size=math.prod(shape))))

    def nest(dims):
        if not dims:
            return next(leaves)
        kind = draw(st.sampled_from([list, tuple]))
        return kind(nest(dims[1:]) for _ in range(dims[0]))

    return nest(shape)


# arrays whose memory order is not their row-major order
_array_views = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.complex128, np.complex64, np.int64]),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
).map(lambda a: a.T[..., ::-1])
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _huge_ints,
    _floats,
    st.just(-0.0),
    st.text(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.fractions(),
    _numpy_scalars,
    _arrays,
    _array_views,
    _blocks(),
    st.sets(st.integers()),
    st.frozensets(st.text(max_size=3)),
    st.sets(st.floats(allow_nan=False)),
    st.builds(Empty),
)
_report_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=5),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_report_trees)
def test_encoder_matches_two_pass_serializer_on_str_keys(obj):
    # every dict key a str, as every handler builds them, so every draw must give the oracle's bytes
    assert cli._report_text(obj) == oracle_report_text(obj)


_transposed = (np.arange(6).reshape(2, 3) * (1 - 0.5j)).T


@pytest.mark.parametrize(
    "obj",
    [
        -0.0,
        [0.0, -0.0, 1e-310, 5e-324, 1.7976931348623157e308, 1e16, 0.1],
        [math.nan, math.inf, -math.inf, 1.0],
        [np.float64(math.nan), np.float64(-math.inf), np.float32(math.inf)],
        [10**400, -(10**400), 2**63, 2**64 + 1],
        np.array(2.5),
        np.array([], dtype=float),
        np.zeros((2, 0)),
        np.array([[1 + 2j, -0.0 - 1j], [math.nan + 0j, complex(math.inf, 1)]]),
        np.array([[True, False]]),
        np.arange(6, dtype=np.int32).reshape(2, 3),
        # keys that spell numbers sort as strings
        {"1": "one", "10": "uno", "None": [], "(1, 2)": {}, "2.5": set(), "True": frozenset()},
        {"3": "x", "1/2": [], "0.5": {}, "-0.5": -1, "": None},
        {"é": "naïve ☃ \U0001f600", "\x00": "\n\t\"\\"},
        {"s": {3, 1, 2}, "t": (1, (2.0, [3])), "u": frozenset()},
        [Fraction(3, 4), Fraction(-6, 4), Pair(1, [Empty()])],
        [[], {}, (), "", [[]], [{}]],
        [True, 1, 1.0, None, "1"],
        # rectangular blocks, and lists that are almost blocks
        [[1.0, 2.0], [3.0, math.nan]],
        [[[1, 2], [3, 4]], [[5, 6], [7, -math.inf]]],
        {"a": ((1.5,), (math.inf,))},
        [[1.0, 2.0], [3.0]],
        [[]],
        [[1.0], []],
        [[[]], [[]]],
        [[1.0], [[2.0]]],
        [[1, 2], (3, 4)],
        ([1.0, -0.0], (2.0, 1e300)),
        [[True, 1], [0, False]],
        [[1.0, True]],
        [True, False],
        [[1.0, None]],
        [[1.0, np.float64(2.0)]],
        _transposed,
        {"t": _transposed, "c": _transposed.astype(np.complex64)},
        np.array([[1 + 2j, 3.5 - 0.25j]], dtype=np.complex64).T,
        np.array(1 - 2j),
        np.array(complex(math.nan, 1.0)),
        np.zeros((0, 3), dtype=complex),
        np.zeros((2, 0), dtype=complex).T,
        np.zeros((2, 0), dtype=np.complex64),
        np.array([[1 + 1j, complex(0.0, math.inf)]]).T,
        np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2],
        np.arange(4, dtype=np.uint8).reshape(2, 2),
        np.array([[1.5, 2.5]], dtype=np.longdouble),
        np.array([1 + 2j], dtype=np.clongdouble),
    ],
)
def test_encoder_edge_cases(obj):
    assert cli._report_text(obj) == oracle_report_text(obj)


def test_encoder_writes_non_finite_numpy_floats_as_plain_floats():
    values = [np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf)]
    assert cli._report_text(values) == cli._report_text([math.nan, math.inf, -math.inf])
    assert json.loads(cli._report_text(values)) == ["nan", "inf", "-inf"]


@pytest.mark.parametrize(
    "obj",
    [
        Pair(math.nan, Pair([math.inf, -0.0], {"x": -math.inf})),
        {"a": np.array([[math.nan, -0.0], [1e-310, math.inf]]), "b": np.array([complex(-0.0, math.nan)])},
        [math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1],
        [math.inf, 2**63, -(2**63) - 1, 2**64 + 1, 10**400, np.uint64(2**64 - 1)],
        {"é": math.nan, "naïve ☃ \U0001f600": ["\x00\n\t\"\\", "nan", "inf", "-inf", "NaN"]},
        {"nan": [np.float32(math.nan), Fraction(-1, 3), complex(math.inf, -0.0)], "s": {1.5, -0.0}},
    ],
)
def test_non_finite_fallback_writes_the_oracle_bytes(obj):
    # json's encoder refuses non-finite floats, so these reports take the fallback pass
    with pytest.raises(ValueError):
        cli._dumps(obj, allow_nan=False)
    assert cli._report_text(obj) == oracle_report_text(obj)


def test_encoder_rejects_what_the_serializer_rejected():
    for obj in (object(), {"x": [1, object()]}, Pair):
        with pytest.raises(InputFormatError):
            jsonable(obj)
        with pytest.raises(InputFormatError):
            cli._report_text(obj)


def _density_payload():
    return {"ambient_dim": 1, "points": [[float(k)] for k in range(-8, 9)], "extent": 8.0}


def _complex_payload():
    return {
        "dim": 2,
        "field": "complex",
        "vectors": [[[1.0, 0.0], [0.0, -0.0]], [[-0.0, 1.0], [2.0, 0.5]], [[0.5, -0.5], [1, 1]]],
        "scalars": [[1.0, 0.0], [0.5, 0.5], [2, -1]],
    }


# (command, payload, params) covering every CLI command
_JOBS = [
    ("analyze", mercedes_payload(), []),
    ("analyze", _complex_payload(), []),
    ("classify", mercedes_payload(), []),
    ("dual", _complex_payload(), []),
    ("extract", mercedes_payload(), []),
    ("sample", scaled_basis_payload(), ["epsilon=0.25"]),
    ("selector", scaled_basis_payload(), ["strategy=greedy"]),
    ("density", _density_payload(), ["radii=2,4"]),
    ("gabor", window_payload(8), ["a_step=2"]),
    ("construct45", window_payload(16), ["counts=1,2", "copies=2"]),
]


@pytest.mark.parametrize("command,payload,params", _JOBS, ids=[j[0] for j in _JOBS])
def test_reports_and_csv_match_the_two_pass_path(tmp_path, monkeypatch, command, payload, params):
    argv = [a for p in params for a in ("--param", p)] + ["--seed", "3", "--no-timestamp"]
    src = write_json(tmp_path / "in.json", payload)
    new = tmp_path / "new.json"
    assert cli.main([command, "--in", src, "--out", str(new), "--csv", *argv]) == 0

    # the report body: the encoder against the two-pass serializer
    with monkeypatch.context() as m:
        m.setattr(cli, "_report_text", oracle_report_text)
        old = tmp_path / "old.json"
        assert cli.main([command, "--in", src, "--out", str(old), *argv]) == 0
    assert new.read_bytes() == old.read_bytes()

    # the CSV table: flattened from the parsed body against the converted results
    results = cli._COMMANDS[command][0](json.loads(json.dumps(payload)), cli._parse_params(params), 3)
    cli._write_csv(tmp_path / "old.csv", jsonable(results))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("command,payload,params", _JOBS, ids=[j[0] for j in _JOBS])
def test_report_input_is_a_digest_of_the_file(tmp_path, command, payload, params):
    argv = [a for p in params for a in ("--param", p)]
    code, report, _ = run_cli(tmp_path, command, payload, *argv)
    assert code == 0
    assert report["input"] == _digest((tmp_path / "in.json").read_bytes())


def test_density_report_of_8192_points_stays_small(tmp_path):
    points = [[x - 31.5, y - 63.5] for x in range(64) for y in range(128)]
    payload = {"ambient_dim": 2, "extent": 72.0, "points": points}
    code, report, dst = run_cli(tmp_path, "density", payload, "--param", "radii=8",
                                "--param", "step=8", "--no-timestamp")
    assert code == 0
    assert report["results"]["count"] == 8192
    data = (tmp_path / "in.json").read_bytes()
    assert report["input"] == _digest(data)
    assert len(data) > 100_000
    assert len(dst.read_bytes()) < 4096
    assert b"points" not in dst.read_bytes()


def test_input_digest_is_of_the_bytes_as_read(tmp_path):
    # spacing, key order and a non-ASCII UTF-8 label: the digest is of the file's bytes
    src = tmp_path / "in.json"
    src.write_bytes(b'{ "vectors": [[1, 0], [0, 1]], "dim": 2, "field": "real",\n "labels": ["\xc3\xa9", "b"] }')
    dst = tmp_path / "out.json"
    assert cli.main(["analyze", "--in", str(src), "--out", str(dst), "--no-timestamp"]) == 0
    report = json.loads(dst.read_bytes())
    assert report["input"] == _digest(src.read_bytes())
    assert set(report) == {"command", "input", "params", "results", "seed", "versions"}


# --- bulk payload parse ---------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_json_numbers = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100),
    st.integers(-(2**80), 2**80),
    st.just(-0.0),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.booleans(),
            st.lists(st.lists(st.tuples(_json_numbers, _json_numbers), min_size=dim, max_size=dim),
                     min_size=1, max_size=6),
        )
    )
)
def test_bulk_parse_equals_entry_by_entry(case):
    dim, complex_field, cells = case
    if complex_field:
        vectors = [[list(c) for c in row] for row in cells]
        scalars = [list(row[0]) for row in cells]
    else:
        vectors = [[c[0] for c in row] for row in cells]
        scalars = [row[0][1] for row in cells]
    payload = {"dim": dim, "field": "complex" if complex_field else "real",
               "vectors": vectors, "scalars": scalars}
    points = {"ambient_dim": dim, "extent": 1e300, "points": [[c[0] for c in row] for row in cells]}
    fast, fast_points = cli.parse_family(payload), cli.parse_pointset(points)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_bulk_array", lambda *args: None)
        slow, slow_points = cli.parse_family(payload), cli.parse_pointset(points)
    assert _same_bits(fast.vectors, slow.vectors)
    assert _same_bits(fast.scalars, slow.scalars)
    assert _same_bits(fast_points.points, slow_points.points)


_EDGE_NUMBERS = [0.0, -0.0, 1.5, -2, 2**53 + 1, -(2**63) - 1, 2**80 + 3, 10**300, 1e308, -1e308,
                 5e-324, math.inf, math.nan]


@pytest.mark.parametrize("complex_field", [False, True])
def test_bulk_array_reads_the_bits_np_array_read(complex_field):
    # the one-pass reader against the np.array(raw, dtype=float) it replaced
    numbers = (_EDGE_NUMBERS * 3)[:36]
    entries = [list(p) for p in zip(numbers[:18], numbers[18:])] if complex_field else numbers[:18]
    rows = [entries[k : k + 3] for k in range(0, 18, 3)]
    for raw, got in (
        (rows, cli._bulk_array([e for row in rows for e in row], (6, 3), complex_field)),
        (entries, cli._bulk_array(entries, (18,), complex_field)),
    ):
        want = np.array(raw, dtype=float)
        assert _same_bits(got, want.view(np.complex128)[..., 0] if complex_field else want)
    assert cli._bulk_array([1.0, True], (2,), False) is None
    assert cli._bulk_array([1.0, "2"], (2,), False) is None
    assert cli._bulk_array([[1.0, 0.0], [_HUGE, 0.0]], (2,), True) is None


def test_bulk_parse_takes_json_payloads_without_the_entry_loop(monkeypatch):
    seen = []
    entry = cli._entry

    def noted(value, complex_field, what):
        seen.append(what)
        return entry(value, complex_field, what)

    monkeypatch.setattr(cli, "_entry", noted)
    fam = cli.parse_family(_complex_payload())
    assert np.signbit(fam.vectors[1, 0].real) and np.signbit(fam.vectors[0, 1].imag)
    assert fam.scalars.dtype == np.complex128
    assert len(cli.parse_pointset(_density_payload())) == 17
    assert seen == ["'extent'"]


def test_entry_loop_still_takes_python_payloads():
    payload = {"dim": 2, "field": "complex", "vectors": [[(1, 2), (3.0, -0.0)]],
               "scalars": [(np.float64(2.0), 0)]}
    fam = cli.parse_family(payload)
    assert fam.vectors.tolist() == [[1 + 2j, 3 + 0j]]
    assert fam.scalars.tolist() == [2 + 0j]


_HUGE = 10**400


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"dim": 2, "field": "real", "vectors": [[1.0, True], [1.0]]},
         "vector 0: entries must be real numbers"),
        ({"dim": 2, "field": "real", "vectors": [[1.0, 2.0], [1.0]]},
         "vector 1 does not have 2 entries"),
        ({"dim": 1, "field": "real", "vectors": [[1.0], ["2"]]},
         "vector 1: entries must be real numbers"),
        ({"dim": 1, "field": "real", "vectors": [[1.0], [_HUGE]]},
         "vector 1: an integer entry exceeds the float range"),
        ({"dim": 2, "field": "complex", "vectors": [[[1, 2], [3]]]},
         "vector 0: complex entries must be [re, im] pairs"),
        ({"dim": 1, "field": "complex", "vectors": [[[1, 2]], [[1, "x"]]]},
         "vector 1: complex entries must be numbers"),
        ({"dim": 1, "field": "complex", "vectors": [[[False, 2]]]},
         "vector 0: complex entries must be numbers"),
        ({"dim": 1, "field": "complex", "vectors": [[[1, 0]], [[0, _HUGE]]]},
         "vector 1: an integer entry exceeds the float range"),
        ({"dim": 1, "field": "real", "vectors": [[1.0], [2.0]], "scalars": [1.0, None]},
         "scalars: entries must be real numbers"),
        ({"dim": 1, "field": "complex", "vectors": [[[1, 0]]], "scalars": [1.0]},
         "scalars: complex entries must be [re, im] pairs"),
        ({"dim": 1, "field": "real", "vectors": [[1.0], [math.nan]]},
         "vector 1 has a non-finite entry"),
        ({"dim": 1, "field": "real", "vectors": [[1.0]], "scalars": [-math.inf]},
         "scalars: entries must be finite numbers"),
        ({"dim": 2, "field": "real", "vectors": [[1.0, 2.0, 3.0], [1.0]]},
         "vector 0 does not have 2 entries"),
    ],
)
def test_family_parse_errors_name_the_first_bad_entry(payload, message):
    with pytest.raises(InputFormatError) as err:
        cli.parse_family(payload)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "points,message",
    [
        ([[math.nan], ["x"]], "point 0 has a non-finite coordinate"),
        ([[0.0], ["x"], [math.nan]], "point 1: entries must be real numbers"),
        ([[0.0], [1.0, 2.0]], "point 1 does not have 1 coordinates"),
        ([[0.0], [-_HUGE]], "point 1: an integer entry exceeds the float range"),
        ([[0.0], [math.inf]], "point 1 has a non-finite coordinate"),
        ([[0.0], [False]], "point 1: entries must be real numbers"),
    ],
)
def test_pointset_parse_errors_name_the_first_bad_entry(points, message):
    with pytest.raises(InputFormatError) as err:
        cli.parse_pointset({"ambient_dim": 1, "points": points, "extent": 4.0})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "field": "real", "vectors": [[1, math.nan], [0, 1]]},
        {"dim": 2, "field": "complex", "vectors": [[[1, 0], [0, math.inf]], [[0, 0], [1, 0]]]},
        {"dim": 2, "field": "real", "vectors": [[1, 0], [0, 1]], "scalars": [1.0, math.nan]},
    ],
    ids=["real", "complex", "scalars"],
)
def test_analyze_rejects_non_finite_family(tmp_path, payload):
    code, report, _ = run_cli(tmp_path, "analyze", payload)
    assert code == 3
    assert report["error"]["type"] == "InputFormatError"
    assert "finite" in report["error"]["message"]
    assert "results" not in report


def test_analyze_rejects_complex_entry_beyond_float_range(tmp_path):
    payload = {"dim": 1, "field": "complex", "vectors": [[[_HUGE, 0.0]]]}
    code, report, _ = run_cli(tmp_path, "analyze", payload)
    assert code == 3
    assert report["error"] == {
        "type": "InputFormatError",
        "message": "vector 0: an integer entry exceeds the float range",
    }


# --- construct45 and the parser -------------------------------------------


def test_construct45_builds_the_base_family_once(tmp_path, monkeypatch):
    built = count_calls(monkeypatch, timefreq, "VectorFamily")
    bounded = []
    bounds = frames._frame_bounds

    def counted(family):
        bounded.append(len(family))
        return bounds(family)

    monkeypatch.setattr(frames, "_frame_bounds", counted)
    code, report, _ = run_cli(tmp_path, "construct45", window_payload(8), "--param", "counts=1,2")
    assert code == 0
    assert report["results"]["base_count"] == 128
    # the base family and the emitted one, each built and bounded once
    assert [shapes[0] for shapes in built] == [(128, 8), (129, 8)]
    assert bounded == [128, 129]


def test_construct45_peaks_under_three_family_arrays():
    """The benchmark's construct45 job holds at most 2.5 8,192 x 64 complex arrays at once.

    The base family and the emitted rows, with their labels and shift
    tuples, peak at about 2.2 of them: the distinct duals (half a family)
    are released before the emitted rows exist, and the emitted family is
    bounded after the base one is released.
    """
    payload = window_payload(64)
    params = {"counts": "1,2,4,8", "copies": "2"}
    cli._cmd_construct45(payload, params, 0)  # lazy imports and caches are not counted
    tracemalloc.start()
    try:
        results = cli._cmd_construct45(payload, params, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["base_count"] == 8192
    family_bytes = 8192 * 64 * np.dtype(complex).itemsize
    assert peak < 2.5 * family_bytes, f"peak {peak / 2**20:.1f} MiB"


# a fresh interpreter: glibc's adjustment would raise the mmap threshold to
# 9 MiB on the first free, so the 8 MiB array would go to the heap
_MAPPED_AFTER_A_FREE = """
import ctypes
import numpy as np
import framex.cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
del_me = np.ones(9 << 17)
del del_me
before = mallinfo2().hblkhd
kept = np.ones(1 << 20)
print(mallinfo2().hblkhd - before)
"""


def test_family_sized_arrays_are_mapped_after_a_larger_one_is_freed():
    """Once the CLI is loaded, an 8 MiB array is mapped on its own, whatever was freed before.

    So construct45's peak RSS does not depend on which holes its arrays
    meet in the heap.
    """
    if getattr(ctypes.CDLL(None), "mallinfo2", None) is None:
        pytest.skip("the C library has no mallinfo2")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _MAPPED_AFTER_A_FREE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) >= 8 << 20


def count_calls(monkeypatch, owner, name):
    """Patch owner.name to record the shapes of its arguments, call by call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(tuple(np.shape(a) for a in args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_construct45_solves_each_distinct_shift_once_against_one_gram(tmp_path, monkeypatch):
    solves = count_calls(monkeypatch, np.linalg, "solve")
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    grams = count_calls(monkeypatch, frames, "_gram")
    params = ("--param", "counts=1,2", "--param", "copies=3")
    code, report, _ = run_cli(tmp_path, "construct45", window_payload(8), *params)
    assert code == 0
    assert report["results"]["base_count"] == 3 * 64
    # the duals of the distinct shift pairs of Z_8^2 and the mixed operator
    # both come from one inverse of the 8 x 8 frame operator, with no solve
    assert inverses == [((8, 8),)]
    assert solves == []
    # one Gram product for the base family and one for the emitted one
    assert grams == [((3 * 64, 8),), ((3 * 64 + 1, 8),)]


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_analyze_and_dual_form_one_gram(tmp_path, monkeypatch, command):
    grams = count_calls(monkeypatch, frames, "_gram")
    code, report, _ = run_cli(tmp_path, command, mercedes_payload())
    assert code == 0
    assert grams == [((3, 2),)]
    # a family frame_bounds has to scale first: the operator is formed as given
    grams.clear()
    tiny = {"dim": 2, "field": "real", "vectors": [[1e-150, 0.0], [0.0, 1e-150]]}
    code, report, _ = run_cli(tmp_path, command, tiny)
    assert code == 0
    assert report["results"]["frame"]["lower"] == pytest.approx(1e-300)
    assert grams == [((2, 2),)] * 3


def test_densify_reuses_the_spec_base_frame():
    spec = timefreq.GaborSpec(gaussian_window(16), timefreq.full_lattice_shifts(16))
    family = timefreq.gabor_family(spec)
    assert timefreq.gabor_family(spec) is family
    bounds = frames.frame_bounds(family)
    operator = frames.frame_operator(family)
    emitted, report = timefreq.densify_gabor_frame(spec, [1, 2])
    assert report.base_count == len(family) == 256
    assert timefreq.gabor_family(spec) is family
    assert frames.frame_bounds(family) is bounds
    assert frames.frame_operator(family) is operator


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    src = write_json(tmp_path / "in.json", mercedes_payload())
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["analyze", "--in", src, "--out", str(first), "--param", "use_scalars=0"]) == 3
    assert cli.main(["analyze", "--in", src, "--out", str(second)]) == 0
    assert json.loads(first.read_text())["params"] == {"use_scalars": "0"}
    assert json.loads(second.read_text())["params"] == {}
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: framex [-h] --in INPUT_PATH --out OUTPUT_PATH")
    assert "--no-timestamp" in help_text and "omit timestamp and wall time" in help_text
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--in", src])
    assert "the following arguments are required: --out" in capsys.readouterr().err
