"""End-to-end tests for the batch CLI: exit codes, report shape, determinism."""

import inspect
import json
import math
import re
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from framex import VectorFamily, cli, extract, gaussian_window, pointsets, selectors

ROOT5 = math.sqrt(0.2)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def mercedes_payload():
    r3 = math.sqrt(3.0) / 2.0
    return {
        "dim": 2,
        "field": "real",
        "vectors": [[0.0, 1.0], [-r3, -0.5], [r3, -0.5]],
    }


def scaled_basis_payload(dim=3, scalars=True):
    vecs = (ROOT5 * np.eye(dim)).tolist()
    out = {"dim": dim, "field": "real", "vectors": vecs}
    if scalars:
        out["scalars"] = [1.0] * dim
    return out


def window_payload(length=16):
    g = gaussian_window(length)
    return {"dim": length, "field": "real", "vectors": [g.samples.real.tolist()]}


def run_cli(tmp_path, command, payload, *extra, name="in.json", out="out.json"):
    src = write_json(tmp_path / name, payload)
    dst = tmp_path / out
    code = cli.main([command, "--in", src, "--out", str(dst), *extra])
    report = json.loads(dst.read_text(encoding="utf-8"))
    return code, report, dst


def test_analyze_mercedes(tmp_path):
    code, report, _ = run_cli(tmp_path, "analyze", mercedes_payload())
    assert code == 0
    res = report["results"]
    assert res["frame"]["lower"] == pytest.approx(1.5)
    assert res["frame"]["upper"] == pytest.approx(1.5)
    assert res["count"] == 3 and res["dim"] == 2
    assert report["command"] == "analyze"
    assert "timestamp" in report and "wall_time_s" in report
    assert report["versions"]["framex"]


def test_classify_and_dual(tmp_path):
    code, report, _ = run_cli(tmp_path, "classify", mercedes_payload())
    assert code == 0
    assert report["results"]["label"] == "frame"
    assert report["results"]["spanning"] is True

    code, report, _ = run_cli(tmp_path, "dual", mercedes_payload())
    assert code == 0
    assert report["results"]["max_relative_residual"] < 1e-9


def test_classify_spanning_does_not_depend_on_member_lengths(tmp_path):
    payload = {"dim": 2, "field": "real", "vectors": [[1e150, 0.0], [0.0, 1e-150]]}
    code, report, _ = run_cli(tmp_path, "classify", payload)
    assert code == 0
    assert report["results"]["label"] == "rescalable"
    assert report["results"]["spanning"] is True
    assert report["results"]["rescaling_recommended"] is True


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_overflowing_frame_operator_writes_an_error_report(tmp_path, command):
    payload = {"dim": 2, "field": "real", "vectors": [[1e308, 0.0], [0.0, 1e308]]}
    code, report, _ = run_cli(tmp_path, command, payload)
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert "overflow" in report["error"]["message"]
    assert "results" not in report


@pytest.mark.parametrize("command", ["analyze", "classify", "dual"])
def test_rescaled_vectors_that_overflow_are_named_as_the_cause(tmp_path, command):
    """c_n x_n passes the float range though x_n and c_n do not: no numpy warning, exit 2."""
    payload = {"dim": 2, "field": "real", "vectors": [[1e200, 0.0], [0.0, 1.0]], "scalars": [1e200, 1.0]}
    code, report, _ = run_cli(tmp_path, command, payload)
    assert code == 2
    assert report["error"] == {
        "type": "PreconditionError",
        "message": "frame operator is not finite: the rescaled vectors overflow the float range",
    }


def test_any_other_failure_writes_an_error_report(tmp_path, monkeypatch, capsys):
    def fails(payload, params, seed):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setitem(cli._COMMANDS, "analyze", (fails, ()))
    code, report, _ = run_cli(tmp_path, "analyze", mercedes_payload(), "--no-timestamp")
    assert code == 5
    assert report["error"] == {"type": "LinAlgError", "message": "Eigenvalues did not converge"}
    assert "results" not in report
    err = capsys.readouterr().err
    assert "Traceback" in err and "framex: LinAlgError: Eigenvalues did not converge" in err


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_underflowing_frame_bounds_write_an_error_report(tmp_path, command):
    payload = {"dim": 2, "field": "real", "vectors": [[1e-200, 0.0], [0.0, 1e-200]]}
    code, report, _ = run_cli(tmp_path, command, payload)
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert "underflows" in report["error"]["message"]
    assert "results" not in report


def test_extract_reports_are_byte_identical(tmp_path):
    payload = mercedes_payload()
    bodies = []
    for k in range(2):
        _, _, dst = run_cli(
            tmp_path, "extract", payload, "--no-timestamp", out=f"rep{k}.json"
        )
        bodies.append(dst.read_bytes())
    assert bodies[0] == bodies[1]
    report = json.loads(bodies[0])
    assert "timestamp" not in report and "wall_time_s" not in report
    assert report["results"]["mult_ok"] is True


def test_reports_carry_no_input_echo(tmp_path):
    # extract's normalized family is the input's unit vectors at the indices
    # of its multiplicity, scaled by sqrt(count), so the report leaves it out
    vectors = np.random.default_rng(5).normal(size=(7, 3))
    payload = {"dim": 3, "field": "real", "vectors": vectors.tolist(),
               "scalars": [1.0, 0.5, 2.0, 1.0, 0.75, 1.0, 1.25]}
    code, report, _ = run_cli(tmp_path, "extract", payload)
    assert code == 0
    results = report["results"]
    assert "normalized" not in results and "block_subspaces" not in results["plan"]
    support = sorted(int(n) for n in results["multiplicity"])
    units = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    want = extract(VectorFamily(vectors, scalars=payload["scalars"])).normalized
    assert units[support].tobytes() == want.vectors.tobytes()
    counts = [float(results["multiplicity"][str(n)]) for n in support]
    assert np.sqrt(counts).tobytes() == want.scalars.tobytes()
    assert list(want.labels) == [str(n) for n in support]
    code, report, _ = run_cli(tmp_path, "sample", scaled_basis_payload(), "--param", "epsilon=0.25")
    assert code == 0 and "weights" not in report["results"]


def test_sample_command(tmp_path):
    code, report, _ = run_cli(
        tmp_path, "sample", scaled_basis_payload(), "--param", "epsilon=0.25"
    )
    assert code == 0
    res = report["results"]
    assert res["total"] > 0
    assert res["certificate"]["sandwich_ok"] is True
    assert res["certificate"]["mult_ok"] is True


def test_sample_reports_a_total_past_sys_maxsize(tmp_path):
    # beta is 64, so each of the three indices is picked 2^64 times
    payload = {"dim": 2, "field": "real", "vectors": [[0.3, 0], [0, 0.3], [0.2, 0.2]],
               "scalars": [1, 1, 1]}
    code, report, _ = run_cli(tmp_path, "sample", payload, "--param", "epsilon=1e-9")
    assert code == 0
    total = report["results"]["total"]
    assert total == 55340232221128654848 > sys.maxsize
    assert total == sum(report["results"]["multiplicity"].values())


def test_sample_requires_epsilon_and_scalars(tmp_path):
    code, report, _ = run_cli(tmp_path, "sample", scaled_basis_payload())
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"

    code, report, _ = run_cli(
        tmp_path,
        "sample",
        scaled_basis_payload(scalars=False),
        "--param",
        "epsilon=0.25",
    )
    assert code == 2


def test_sample_splits_a_non_dyadic_weight(tmp_path):
    # a subspace orthogonal to the operator zeroes gamma, so the dyadic
    # expansion of 1/3 is kept to 2^-26 and split over 19 levels
    payload = {
        "dim": 2,
        "field": "real",
        "vectors": [[ROOT5, 0.0]],
        "scalars": [1.0 / 3.0],
    }
    code, report, _ = run_cli(
        tmp_path,
        "sample",
        payload,
        "--param",
        "epsilon=0.25",
        "--param",
        "subspace_cols=1",
    )
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["levels"] == 19
    assert cert["replica_total"] == 2**26
    assert cert["sandwich_ok"] and cert["mult_ok"]
    assert report["results"]["multiplicity"] == {"0": 43}


@pytest.mark.parametrize(
    "cols,message",
    [
        ("5", "column 5 is outside [0, 2)"),
        ("-1", "column -1 is outside [0, 2)"),
        ("0,0", "column 0 is repeated"),
    ],
)
def test_sample_rejects_bad_subspace_columns(tmp_path, cols, message):
    payload = scaled_basis_payload(dim=2)
    code, report, _ = run_cli(
        tmp_path, "sample", payload, "--param", "epsilon=0.25", "--param", f"subspace_cols={cols}"
    )
    assert code == 3
    assert report["error"]["type"] == "InputFormatError"
    assert message in report["error"]["message"]
    assert "results" not in report


def test_dual_bounds_its_frame_once(tmp_path, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, report, _ = run_cli(tmp_path, "dual", mercedes_payload())
    assert code == 0
    assert calls == [(2, 2)]


@pytest.mark.parametrize("complex_field", [False, True])
def test_analyze_eigensolves_its_operator_once(tmp_path, monkeypatch, complex_field):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(7, 4)) * 1e3
    payload = {"dim": 4, "field": "real", "vectors": vectors.tolist()}
    if complex_field:
        vectors = vectors + 1j * rng.normal(size=(7, 4))
        payload = {"dim": 4, "field": "complex",
                   "vectors": np.stack((vectors.real, vectors.imag), axis=-1).tolist()}
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, report, _ = run_cli(tmp_path, "analyze", payload)
    assert code == 0
    assert calls == [(4, 4)]
    # the spectrum of S is the scaled operator's times 4^k, bit for bit
    s = vectors.T @ vectors.conj()
    want = eigvalsh((s + s.conj().T) / 2.0)
    assert np.array(report["results"]["spectrum"]).tobytes() == want.tobytes()


def test_selector_command_and_budget_override(tmp_path):
    code, report, _ = run_cli(tmp_path, "selector", scaled_basis_payload())
    assert code == 0
    assert report["results"]["certificate"]["satisfied"] is True
    assert report["results"]["leaves"]

    # 44 rank-ones at order 1 have more selectors than the library's
    # exhaustive budget, so an exhaustive search refuses them with exit 4
    before = selectors.EXHAUSTIVE_LIMIT
    t = np.linspace(0.0, 3.0, 44)
    payload = {"dim": 2, "field": "real", "vectors": (0.1 * np.column_stack([np.cos(t), np.sin(t)])).tolist()}
    code, report, _ = run_cli(tmp_path, "selector", payload, "--param", "strategy=exhaustive", "--param", "order=1")
    assert code == 4
    assert report["error"]["type"] == "BudgetExceededError"
    assert f"exceeds the exhaustive budget {before}" in report["error"]["message"]
    # the limit is an argument of best_selector; no module global is touched
    assert selectors.EXHAUSTIVE_LIMIT == before


def test_selector_order_past_the_leaf_budget_exits_4(tmp_path):
    """Order 24 on four vectors in R^2 would build 2^24 leaves; it is refused up front."""
    payload = {"dim": 2, "field": "real", "vectors": [[0.3, 0.0], [0.0, 0.3], [0.2, 0.2], [0.2, -0.2]]}
    code, report, _ = run_cli(tmp_path, "selector", payload, "--param", "order=24")
    assert code == 4
    assert report["error"] == {
        "type": "BudgetExceededError",
        "message": "order 24 gives a tree 2^24 leaves, over the leaf budget 65536",
    }


def test_selector_restarts_past_the_leaf_budget_exit_4_at_once(tmp_path):
    """1,024 randomized restarts of order 10 would build 2^20 leaves (about 26 s); they are refused up front."""
    payload = {"dim": 2, "field": "real", "vectors": [[0.3, 0.0], [0.0, 0.3], [0.2, 0.2], [0.2, -0.2]]}
    start = time.perf_counter()
    code, report, _ = run_cli(tmp_path, "selector", payload, "--param", "strategy=randomized", "--param", "order=10")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert report["error"] == {
        "type": "BudgetExceededError",
        "message": "1024 restarts of order 10 build 1048576 leaves, over the leaf budget 65536",
    }


@pytest.mark.parametrize(
    "command,payload,extra",
    [
        ("selector", scaled_basis_payload(), ["--param", "restarts=abc"]),
        ("gabor", window_payload(8), ["--param", "a_step=abc"]),
    ],
    ids=["restarts", "a_step"],
)
def test_malformed_tunable_writes_an_error_report(tmp_path, command, payload, extra):
    code, report, _ = run_cli(tmp_path, command, payload, *extra)
    assert code == 3
    assert report["error"]["type"] == "InputFormatError"
    assert "must be an integer" in report["error"]["message"]
    assert "results" not in report


_POINTS = {"ambient_dim": 1, "points": [[0.0], [1.0]], "extent": 4.0}


# one unread key per command, some next to keys the command does read
_UNKNOWN_PARAMS = [
    ("analyze", mercedes_payload(), ["--param", "probes=3"]),
    ("classify", mercedes_payload(), ["--param", "use_scalar=1"]),
    ("dual", mercedes_payload(), ["--param", "use_scalars=1", "--param", "probes=3"]),
    ("extract", scaled_basis_payload(), ["--param", "replica_budget=abc"]),
    ("sample", scaled_basis_payload(), ["--param", "epsilon=0.25", "--param", "replica_budget=9"]),
    ("selector", scaled_basis_payload(), ["--param", "order=1", "--param", "limit=5"]),
    ("density", _POINTS, ["--param", "radius=1"]),
    ("gabor", window_payload(8), ["--param", "a_step=1", "--param", "step=1"]),
    ("construct45", window_payload(8), ["--param", "count=1"]),
]


@pytest.mark.parametrize("command,payload,extra", _UNKNOWN_PARAMS, ids=[case[0] for case in _UNKNOWN_PARAMS])
def test_unknown_param_key_writes_an_error_report(tmp_path, command, payload, extra):
    code, report, _ = run_cli(tmp_path, command, payload, *extra)
    assert code == 3
    assert report["error"]["type"] == "InputFormatError"
    unknown = extra[-1].split("=")[0]
    assert f"reads no param {unknown!r}" in report["error"]["message"]
    assert "results" not in report


def test_param_table_names_the_keys_each_handler_reads():
    for command, (handler, keys) in cli._COMMANDS.items():
        source = inspect.getsource(handler)
        read = set(re.findall(r'params(?:, |\.get\()"(\w+)"', source))
        assert read == set(keys), command


def test_readme_command_table_lists_the_keys_each_command_reads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| [^|]* \| ([^|]*) \|$", readme, flags=re.M)
    table = {command: tuple(re.findall(r"`(\w+)`", keys)) for command, keys in rows}
    assert table == {command: keys for command, (_, keys) in cli._COMMANDS.items()}


def _key_paths(obj, path=""):
    """The dotted path of every dict key and dataclass field in obj, list indices dropped.

    Fails on a key that is not a str: json's encoder writes only str keys
    as they are, and no report key is checked while a job runs.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        paths = set()
        for key, value in obj.items():
            assert type(key) is str, f"{path}: key {key!r}"
            sub = f"{path}.{key}" if path else key
            paths |= {sub} | _key_paths(value, sub)
        return paths
    if isinstance(obj, (list, tuple)):
        return set().union(*(_key_paths(value, path) for value in obj))
    return set()


def _nested(key, subkeys):
    return (key, *(f"{key}.{sub}" for sub in subkeys))


_FRAME = ("is_bessel", "is_frame", "is_riesz_basis", "is_tight", "lower", "upper")
_CERTIFICATE = ("beta", "constant", "epsilon", "gamma", "levels", "mult_ok", "pad_scale",
                "pigeonhole_cap", "pigeonhole_trace", "replica_total", "sandwich_bound",
                "sandwich_hi", "sandwich_lo", "sandwich_ok", "tail_norm", "trace_cap", "window_empty")
_CELLS = ("00", "01", "10", "11")

# each command on a payload of the tests above, and the key paths of its
# results; a change to a report's keys changes this table
_REPORT_KEYS = [
    ("analyze", mercedes_payload(), [],
     ("count", "dim", *_nested("frame", _FRAME), "spectrum", "use_scalars")),
    ("classify", mercedes_payload(), [],
     (*_nested("frame", _FRAME), "label", "note", "rescaling_recommended", "spanning")),
    ("dual", mercedes_payload(), [],
     ("dual_vectors", *_nested("frame", _FRAME), "max_relative_residual")),
    ("extract", mercedes_payload(), [],
     (*_nested("certificates", _CERTIFICATE), "deviation_cap", "envelope", *_nested("frame", _FRAME),
      "mult_bound", "mult_ok", *_nested("multiplicity", ("0", "1", "2")),
      *_nested("plan", ("beta", "blocks", "constant", "epsilon", "gammas", "identity_defect", "lower",
                        "thresholds", "trace_cap", "upper", "window_empty")),
      "total", "total_deviation")),
    ("sample", scaled_basis_payload(), ["epsilon=0.25"],
     (*_nested("certificate", _CERTIFICATE), *_nested("multiplicity", ("0", "1", "2")), "total")),
    ("selector", scaled_basis_payload(), [],
     (*_nested("certificate", ("bound", "constant", "order", "satisfied", "strategy", "trace_cap")),
      *_nested("certificate.achieved", _CELLS), *_nested("leaves", _CELLS), "order")),
    ("density", _POINTS, [],
     ("ambient_dim", "count", *_nested("estimate", ("lower", "per_window", "upper", "window_radii")),
      "extent", "separation", "uniformly_discrete")),
    ("gabor", window_payload(8), [],
     ("a_step", "b_step", "count", *_nested("frame", _FRAME), "length", "window_norm")),
    ("construct45", window_payload(16), ["counts=1,2,4", "copies=4"],
     ("base_count", *_nested("base_frame", _FRAME), "copies", *_nested("emitted_frame", _FRAME), "length",
      *_nested("report", ("base_count", "cluster_sizes", "dual_norm_sup", "emitted_count",
                          "operator_deviation", "parameter_caps", "parameter_distances", "shifts",
                          "vector_caps", "vector_distances", "weights", "weights_nonzero")))),
]


@pytest.mark.parametrize("command,payload,params,keys", _REPORT_KEYS, ids=[case[0] for case in _REPORT_KEYS])
def test_each_command_reports_str_keys_at_pinned_paths(command, payload, params, keys):
    handler, _ = cli._COMMANDS[command]
    results = handler(json.loads(json.dumps(payload)), cli._parse_params(params), 0)
    assert sorted(_key_paths(results)) == sorted(keys)


def test_extract_generic_weights(tmp_path):
    payload = {"dim": 2, "field": "real", "vectors": [[1.0, 0.0], [0.0, 1.0]], "scalars": [1.0, 0.7]}
    code, report, _ = run_cli(tmp_path, "extract", payload)
    assert code == 0
    results = report["results"]
    assert results["mult_ok"]
    assert all(cert is None or cert["sandwich_ok"] for cert in results["certificates"])
    assert max(cert["levels"] for cert in results["certificates"] if cert) == 26


def test_extract_sizes_members_whose_squares_leave_the_float_range(tmp_path):
    # each x_n is 10^160 v_n and c_n 10^-160: |x_n|^2 overflows, c_n x_n does not
    payload = {"dim": 2, "field": "real", "vectors": [[1e160, 0.0], [0.0, 1e160], [1e160, 1e160]],
               "scalars": [1e-160] * 3}
    code, report, _ = run_cli(tmp_path, "extract", payload)
    assert code == 0
    results = report["results"]
    assert results["multiplicity"] == {"0": 8, "1": 8, "2": 16}
    assert results["frame"]["lower"] == pytest.approx(8.0)
    assert results["frame"]["upper"] == pytest.approx(24.0)
    assert results["mult_ok"] is True


def test_extract_reports_a_total_past_sys_maxsize(tmp_path):
    vectors = np.random.default_rng(1596626).normal(size=(4, 4))
    payload = {"dim": 4, "field": "real", "vectors": vectors.tolist(),
               "scalars": [1.5, 1.0, 1.0, 1.0]}
    code, report, _ = run_cli(tmp_path, "extract", payload)
    assert code == 0
    results = report["results"]
    total = sum(results["multiplicity"].values())
    assert total > sys.maxsize
    assert type(results["total"]) is int and results["total"] == total
    assert results["mult_ok"]


def test_selector_rejects_zero_restarts(tmp_path):
    code, report, _ = run_cli(
        tmp_path,
        "selector",
        scaled_basis_payload(),
        "--param",
        "strategy=randomized",
        "--param",
        "restarts=0",
    )
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert "restarts" in report["error"]["message"]
    assert "results" not in report


@pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
def test_selector_rejects_a_non_finite_trace_cap(tmp_path, cap):
    code, report, _ = run_cli(tmp_path, "selector", scaled_basis_payload(), "--param", f"trace_cap={cap}")
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert "trace cap must be" in report["error"]["message"]
    assert "results" not in report


@pytest.mark.parametrize(
    "param,message",
    [
        ("step=nan", "grid step must be finite and positive"),
        ("step=inf", "grid step must be finite and positive"),
        ("radii=nan", "window radii must be finite"),
        ("radii=2,inf", "window radii must be finite"),
    ],
)
def test_density_rejects_a_non_finite_radius_or_step(tmp_path, param, message):
    code, report, _ = run_cli(tmp_path, "density", _POINTS, "--param", param)
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert message in report["error"]["message"]
    assert "results" not in report


@pytest.mark.parametrize(
    "payload",
    [
        {"ambient_dim": 2, "points": [[0.0, 0.0]], "extent": math.inf},
        {"ambient_dim": 2, "points": [[0.0, 0.0], [math.nan, 1.0]], "extent": 4.0},
        {"ambient_dim": 1, "points": [[-math.inf]], "extent": 4.0},
        {"ambient_dim": 1, "points": [[0.0]], "extent": 10**400},
        {"ambient_dim": 1, "points": [[-(10**400)]], "extent": 4.0},
    ],
    ids=["inf-extent", "nan-point", "inf-point", "huge-int-extent", "huge-int-point"],
)
def test_density_rejects_non_finite_input(tmp_path, payload):
    code, report, _ = run_cli(tmp_path, "density", payload)
    assert code == 3
    assert report["error"]["type"] == "InputFormatError"
    assert "finite" in report["error"]["message"] or "float range" in report["error"]["message"]
    assert "results" not in report


def test_density_command(tmp_path):
    payload = {
        "ambient_dim": 1,
        "points": [[float(k)] for k in range(-20, 21)],
        "extent": 20.0,
    }
    code, report, _ = run_cli(tmp_path, "density", payload, "--param", "radii=8")
    assert code == 0
    res = report["results"]
    assert res["estimate"]["lower"] == pytest.approx(1.0)
    assert res["estimate"]["upper"] == pytest.approx(17.0 / 16.0)
    assert res["uniformly_discrete"] is True
    assert res["separation"] == pytest.approx(1.0)
    assert pointsets.STEP_DIVISOR == 20


def test_density_rejects_a_centre_grid_too_large_to_index(tmp_path):
    payload = {"ambient_dim": 1, "points": [[0.0], [1e150], [2e150]], "extent": 1e300}
    code, report, _ = run_cli(tmp_path, "density", payload, "--param", "radii=1e160",
                              "--param", "step=2.5e159")
    assert code == 2
    assert report["error"]["type"] == "PreconditionError"
    assert "8e+140^1 centres" in report["error"]["message"]
    assert "results" not in report


def test_density_rejects_a_centre_grid_too_large_to_allocate(tmp_path):
    # 1000^5 * 1001 float64 counts are about 8e18 bytes, far past 2^47: the
    # allocation fails at once and touches no memory
    payload = {"ambient_dim": 6, "points": [[0.0] * 6], "extent": 1000.0}
    code, report, _ = run_cli(tmp_path, "density", payload, "--param", "radii=1",
                              "--param", "step=2")
    assert code == 2
    assert report["error"] == {
        "type": "PreconditionError",
        "message": "the centre grid of step 2 at radius 1 has 1000^6 centres, more than memory can hold",
    }


@pytest.mark.parametrize(
    "payload,radius,message",
    [
        ({"ambient_dim": 1, "points": [[0.0], [1e299], [-1e299], [5e299]], "extent": 1e300},
         "2e299", "radius 2e+299 squares beyond the float range"),
        ({"ambient_dim": 2, "points": [[0.0, 0.0], [1e299, 0.0]], "extent": 1e300},
         "2e299", "the volume of the 2-ball of radius 2e+299 is beyond the float range"),
        ({"ambient_dim": 3, "points": [[0.0, 0.0, 0.0]], "extent": 1e300},
         "1e120", "the volume of the 3-ball of radius 1e+120 is beyond the float range"),
    ],
    ids=["1d-square", "2d-volume", "3d-volume"],
)
def test_density_rejects_a_radius_beyond_the_float_range(tmp_path, payload, radius, message):
    code, report, _ = run_cli(tmp_path, "density", payload, "--param", f"radii={radius}")
    assert code == 2
    assert report["error"] == {"type": "PreconditionError", "message": message}
    assert "results" not in report


def test_gabor_command(tmp_path):
    code, report, _ = run_cli(tmp_path, "gabor", window_payload(8))
    assert code == 0
    res = report["results"]
    assert res["count"] == 64
    assert res["frame"]["lower"] == pytest.approx(8.0, rel=1e-8)
    assert res["frame"]["upper"] == pytest.approx(8.0, rel=1e-8)


def test_construct45_command(tmp_path):
    code, report, _ = run_cli(
        tmp_path,
        "construct45",
        window_payload(16),
        "--param",
        "counts=1,2,4",
        "--param",
        "copies=4",
    )
    assert code == 0
    res = report["results"]
    assert res["base_count"] == 1024
    assert res["report"]["emitted_count"] == 1028
    assert res["report"]["operator_deviation"] < 1.0
    assert res["report"]["weights_nonzero"] is True
    assert res["base_frame"]["lower"] == pytest.approx(64.0, rel=1e-8)
    assert res["emitted_frame"]["is_frame"] is True


def test_invalid_json_input(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("this is not json", encoding="utf-8")
    dst = tmp_path / "out.json"
    code = cli.main(["analyze", "--in", str(src), "--out", str(dst)])
    assert code == 3
    report = json.loads(dst.read_text(encoding="utf-8"))
    assert report["error"]["type"] == "InputFormatError"


def test_input_that_is_not_utf8(tmp_path):
    src = tmp_path / "bad.json"
    src.write_bytes(b'{"dim": 1, "field": "real", "vectors": [[1.0]], "labels": ["\xff"]}')
    dst = tmp_path / "out.json"
    code = cli.main(["analyze", "--in", str(src), "--out", str(dst)])
    assert code == 3
    report = json.loads(dst.read_text(encoding="utf-8"))
    assert report["error"]["type"] == "InputFormatError"
    assert report["error"]["message"].startswith("input is not UTF-8:")
    assert "input" not in report and "results" not in report


def test_missing_input_file(tmp_path):
    dst = tmp_path / "out.json"
    code = cli.main(["analyze", "--in", str(tmp_path / "absent.json"), "--out", str(dst)])
    assert code == 3


def test_schema_violations(tmp_path):
    cases = [
        {"field": "real", "vectors": [[1.0]]},  # missing dim
        {"dim": 1, "field": "imaginary", "vectors": [[1.0]]},
        {"dim": 2, "field": "real", "vectors": [[1.0]]},  # wrong arity
        {"dim": 1, "field": "complex", "vectors": [[1.0]]},  # not [re, im]
        {"dim": 1, "field": "real", "vectors": [[1.0]], "scalars": [1.0, 2.0]},
        [[1.0]],  # not an object
        {"dim": True, "field": "real", "vectors": [[1.0]]},
        {"dim": 1, "field": "real", "vectors": []},
        {"dim": 1, "field": "real", "vectors": [[1.0]], "labels": ["a", "b"]},
    ]
    for k, payload in enumerate(cases):
        code, report, _ = run_cli(
            tmp_path, "analyze", payload, name=f"in{k}.json", out=f"out{k}.json"
        )
        assert code == 3, payload
        assert report["error"]["type"] == "InputFormatError"


_BAD_POINT_SETS = {
    "not-an-object": ([[0.0]], "point set input must be a JSON object"),
    "no-extent": ({"ambient_dim": 1, "points": [[0.0]]}, "point set input lacks the 'extent' field"),
    "zero-dim": ({"ambient_dim": 0, "points": [], "extent": 4.0}, "'ambient_dim' must be a positive integer"),
    "text-extent": ({"ambient_dim": 1, "points": [[0.0]], "extent": "4"}, "'extent' must be a number"),
    "points-object": ({"ambient_dim": 1, "points": {"0": 0.0}, "extent": 4.0}, "'points' must be a list"),
}


@pytest.mark.parametrize("case", sorted(_BAD_POINT_SETS))
def test_point_set_schema_violations(tmp_path, case):
    payload, message = _BAD_POINT_SETS[case]
    code, report, _ = run_cli(tmp_path, "density", payload)
    assert code == 3
    assert report["error"] == {"type": "InputFormatError", "message": message}


def test_density_of_an_empty_point_set(tmp_path):
    code, report, _ = run_cli(tmp_path, "density", {"ambient_dim": 2, "points": [], "extent": 3.0},
                              "--param", "radii=1")
    assert code == 0
    res = report["results"]
    assert (res["count"], res["ambient_dim"], res["separation"]) == (0, 2, "inf")
    assert res["estimate"]["lower"] == res["estimate"]["upper"] == 0.0


@pytest.mark.parametrize(
    "command,param,message",
    [
        ("gabor", "a_step=0", "lattice steps must be positive"),
        ("construct45", "copies=0", "copies must be positive"),
        ("construct45", "counts=", "counts must be nonempty"),
    ],
)
def test_lattice_and_cluster_params_must_be_positive(tmp_path, command, param, message):
    code, report, _ = run_cli(tmp_path, command, window_payload(8), "--param", param)
    assert code == 2
    assert report["error"] == {"type": "PreconditionError", "message": message}


def test_bad_param_values(tmp_path):
    code, report, _ = run_cli(
        tmp_path, "sample", scaled_basis_payload(), "--param", "epsilon=abc"
    )
    assert code == 3

    # a family's scalars are part of it: no param switches them off or on
    code, report, _ = run_cli(tmp_path, "analyze", scaled_basis_payload(), "--param", "use_scalars=1")
    assert code == 3
    assert report["error"]["message"].startswith("analyze reads no param 'use_scalars'")

    # a malformed --param pair fails inside the run, so it still writes a report
    code, report, _ = run_cli(tmp_path, "analyze", mercedes_payload(), "--param", "oops")
    assert code == 3
    assert report["error"] == {
        "type": "InputFormatError",
        "message": "--param expects k=v, got 'oops'",
    }
    assert "results" not in report and "input" not in report


@pytest.mark.parametrize(
    "command,payload",
    [("dual", mercedes_payload()), ("construct45", window_payload(8))],
    ids=["dual", "construct45"],
)
def test_negative_seed_is_malformed_input(tmp_path, command, payload):
    code, report, _ = run_cli(tmp_path, command, payload, "--seed", "-1")
    assert code == 3
    assert report["seed"] == -1
    assert report["error"] == {
        "type": "InputFormatError",
        "message": "--seed must be a non-negative integer, got -1",
    }
    assert "results" not in report


def test_dual_reports_a_proven_residual_and_draws_nothing(tmp_path, monkeypatch):
    """dual bounds ||W^T conj(Y) - I||_2 from above with its rounding; no seed or probe enters."""

    def refuse(*args, **kwargs):
        raise AssertionError("dual drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    rng = np.random.RandomState(4)
    for rows in (rng.normal(size=(7, 4)), rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))):
        payload = {"dim": rows.shape[1], "field": "complex" if np.iscomplexobj(rows) else "real",
                   "vectors": [[[z.real, z.imag] for z in row] if np.iscomplexobj(rows) else list(row) for row in rows]}
        reports = [run_cli(tmp_path, "dual", payload, "--seed", str(seed))[1]["results"] for seed in (0, 5)]
        assert reports[0] == reports[1]
        assert set(reports[0]) == {"frame", "dual_vectors", "max_relative_residual"}
        duals = np.array(reports[0]["dual_vectors"], dtype=float)
        if np.iscomplexobj(rows):
            duals = duals[..., 0] + 1j * duals[..., 1]
        exact = np.linalg.norm(rows.T @ duals.conj() - np.eye(rows.shape[1]), 2)
        assert exact <= reports[0]["max_relative_residual"] < 1e-9


def test_a_report_that_cannot_be_written_exits_3(tmp_path, capsys):
    code = cli.main(["analyze", "--in", write_json(tmp_path / "in.json", mercedes_payload()),
                     "--out", str(tmp_path / "absent" / "out.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("framex: cannot write report: ")


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate", "--in", "x", "--out", str(tmp_path / "y.json")])
    assert info.value.code == 3
    assert "invalid choice: 'frobnicate'" in json.loads((tmp_path / "y.json").read_text())["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [["--seed", "abc"], ["--seed"], ["--param"], ["--bogus", "1"], ["--csv"], ["--no-timestamp=1"]],
    ids=["non-int-seed", "seed-without-value", "param-without-value", "unknown-option", "csv", "flag-value"],
)
def test_usage_errors_are_malformed_input_with_a_report(tmp_path, capsys, argv):
    src = write_json(tmp_path / "one.json", mercedes_payload())
    dst = tmp_path / "o.json"
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", "--in", src, "--out", str(dst), *argv])
    assert info.value.code == 3
    report = json.loads(dst.read_text(encoding="utf-8"))
    assert report["error"]["type"] == "InputFormatError"
    assert set(report) == {"error", "versions"}
    err = capsys.readouterr().err
    assert err.startswith("usage: framex") and report["error"]["message"] in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o.json", "one.json"]


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--in", "one.json", "--seed", "abc"], ["analyze", "--in", "one.json", "--out"], []],
    ids=["no-out", "out-without-value", "no-arguments"],
)
def test_usage_errors_without_a_readable_out_only_print(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 3
    assert list(tmp_path.iterdir()) == []
    assert "framex: InputFormatError: " in capsys.readouterr().err
