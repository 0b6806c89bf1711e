"""Batch front door: read one input file, run one analysis, write a report.

Usage:
    framex <command> --in <path> --out <path> [--seed N] [--param k=v]...
                     [--no-timestamp]

Commands: analyze, classify, dual, extract, sample, selector, density,
gabor, construct45.  Families arrive as JSON objects with fields "dim",
"field" ("real" or "complex"), "vectors", optional "scalars" and
"labels"; complex entries are [re, im] pairs.  A family with scalars is
the family {c_n x_n} to analyze, classify, dual and extract (analyze's
use_scalars key says whether it had them); sample reads its scalars as
weights.  Point sets use {"ambient_dim", "points", "extent"}.

Reports are compact JSON with sorted keys, written by json's C encoder,
so identical jobs produce identical bytes; non-finite floats appear as
the strings "nan", "inf" and "-inf".  Every handler builds its results
with str keys, which json writes as they are (the CLI tests check each
command's keys).  A report names its input by digest, {"sha256",
"bytes"} of the file, not by echoing it.  --no-timestamp drops the
timestamp and wall time fields, which are the only run-dependent
content.  The report is the one file a job writes.  One table,
_COMMANDS, gives each command its handler and the --param keys it
reads; any other key is malformed input.  Exit codes: 0 success, 2
precondition violation, 3 malformed, unreadable or non-UTF-8 input
(argparse usage errors included), 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import math
import platform
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, selectors
from .errors import BudgetExceededError, InputFormatError, PreconditionError
from .extraction import extract
from .frames import VectorFamily, canonical_dual, classify, frame_bounds, frame_operator, reconstruction_residual
from .linalg import Projection, rank_one
from .pointsets import PointSet, density, uniformly_discrete
from .sampling import sample
from .selectors import best_selector, natural_max_order
from .timefreq import (
    CyclicSignal,
    GaborSpec,
    densify_gabor_frame,
    gabor_family,
)

_PLAIN_NUMBERS = {int, float}
# json's spellings of the non-finite floats, and the strings reports use
_NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _default(obj):
    """obj, of a type json's encoder does not know, as content that it does.

    Arrays become nested lists (complex ones of [re, im] pairs), numpy
    scalars Python numbers, complex numbers [re, im], Fractions "n/d",
    dataclasses objects of their fields and sets sorted lists.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.floating):
        return float(obj)  # a longdouble's item() is itself
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise InputFormatError(f"cannot serialize {type(obj).__name__} into a report")


_dumps = functools.partial(json.dumps, default=_default, sort_keys=True, separators=(",", ":"))


def _report_text(report):
    """The report as compact sorted-key JSON from json's C encoder, with a newline.

    Non-finite floats, numpy's included, become the strings "nan", "inf"
    and "-inf": a report holding one is written, read back with those
    strings for json's constants and written again, which changes nothing
    else, as floats round-trip through their repr.
    """
    try:
        text = _dumps(report, allow_nan=False)
    except ValueError:  # a non-finite float
        text = _dumps(json.loads(_dumps(report), parse_constant=_NON_FINITE.__getitem__))
    return text + "\n"


def _load_json(path):
    """The parsed input file and its digest, {"sha256": hex digest of its bytes, "bytes": size}."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read input file: {exc}") from exc
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"input is not valid JSON: {exc}") from exc
    return payload, {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _entry(value, complex_field, what):
    if complex_field:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InputFormatError(f"{what}: complex entries must be [re, im] pairs")
        if any(isinstance(part, bool) or not isinstance(part, (int, float)) for part in value):
            raise InputFormatError(f"{what}: complex entries must be numbers")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{what}: entries must be real numbers")
    try:
        return complex(*value) if complex_field else float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputFormatError(f"{what}: an integer entry exceeds the float range") from exc


def _bulk_array(entries, shape, complex_field):
    """The list `entries` as one array of `shape` when each is a plain JSON number, else None.

    For a complex field every entry must be a [re, im] list of plain
    numbers; the (..., 2) float array is viewed as complex128, which keeps
    the bits complex(re, im) gives, -0.0 real parts included.  The leaves
    are read in one np.fromiter pass.  None sends the caller to the
    entry-by-entry path, which names the first bad entry.
    """
    if complex_field:
        if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
            return None
        entries = list(chain.from_iterable(entries))
        shape += (2,)
    if not set(map(type, entries)) <= _PLAIN_NUMBERS:
        return None
    try:
        arr = np.fromiter(entries, dtype=float, count=len(entries)).reshape(shape)
    except OverflowError:  # an integer beyond the float range
        return None
    return arr.view(np.complex128)[..., 0] if complex_field else arr


def _number_rows(raw, width, complex_field, noun, units, unit):
    """The nonempty list `raw` of rows of `width` numbers as one array.

    Errors name the first bad row as a row-by-row reading meets it: its
    length, then an entry's type or float range, then finiteness.
    """
    arr = None
    if set(map(type, raw)) == {list} and set(map(len, raw)) == {width}:
        arr = _bulk_array(list(chain.from_iterable(raw)), (len(raw), width), complex_field)
    if arr is not None:
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise InputFormatError(f"{noun} {bad[0]} has a non-finite {unit}")
        return arr
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != width:
            raise InputFormatError(f"{noun} {i} does not have {width} {units}")
        values = [_entry(v, complex_field, f"{noun} {i}") for v in row]
        if not all(map(cmath.isfinite, values)):
            raise InputFormatError(f"{noun} {i} has a non-finite {unit}")
        rows.append(values)
    return np.array(rows, dtype=complex if complex_field else float)


def _dimension(payload, noun, keys):
    """The positive integer in the first of keys, once payload is an object holding all of them."""
    if not isinstance(payload, dict):
        raise InputFormatError(f"{noun} input must be a JSON object")
    for key in keys:
        if key not in payload:
            raise InputFormatError(f"{noun} input lacks the '{key}' field")
    dim = payload[keys[0]]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputFormatError(f"'{keys[0]}' must be a positive integer")
    return dim


def parse_family(payload) -> VectorFamily:
    dim = _dimension(payload, "family", ("dim", "field", "vectors"))
    field_name = payload["field"]
    if field_name not in ("real", "complex"):
        raise InputFormatError("'field' must be 'real' or 'complex'")
    complex_field = field_name == "complex"
    raw = payload["vectors"]
    if not isinstance(raw, list) or not raw:
        raise InputFormatError("'vectors' must be a nonempty list")
    vectors = _number_rows(raw, dim, complex_field, "vector", "entries", "entry")
    scalars = None
    if payload.get("scalars") is not None:
        raw_s = payload["scalars"]
        if not isinstance(raw_s, list) or len(raw_s) != len(raw):
            raise InputFormatError("'scalars' must list one entry per vector")
        scalars = _bulk_array(raw_s, (len(raw_s),), complex_field)
        if scalars is None:
            scalars = np.array([_entry(v, complex_field, "scalars") for v in raw_s])
        if not np.isfinite(scalars).all():
            raise InputFormatError("scalars: entries must be finite numbers")
    labels = None
    if payload.get("labels") is not None:
        if not isinstance(payload["labels"], list) or len(payload["labels"]) != len(raw):
            raise InputFormatError("'labels' must list one entry per vector")
        labels = [str(v) for v in payload["labels"]]
    return VectorFamily(vectors, scalars=scalars, labels=labels)


def parse_pointset(payload) -> PointSet:
    dim = _dimension(payload, "point set", ("ambient_dim", "points", "extent"))
    extent = payload["extent"]
    if isinstance(extent, bool) or not isinstance(extent, (int, float)):
        raise InputFormatError("'extent' must be a number")
    extent = _entry(extent, False, "'extent'")
    if not math.isfinite(extent):
        raise InputFormatError("'extent' must be a finite number")
    raw = payload["points"]
    if not isinstance(raw, list):
        raise InputFormatError("'points' must be a list")
    if raw:
        points = _number_rows(raw, dim, False, "point", "coordinates", "coordinate")
    else:
        points = np.empty((0, dim))
    return PointSet(points, extent, ambient_dim=dim)


def _read_list(kind):
    return lambda text: [kind(tok) for tok in text.split(",") if tok.strip()]


# each kind of --param value: how it is read, and what a bad value must be
_PARAM_KINDS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "ints": (_read_list(int), "a comma list"),
    "floats": (_read_list(float), "a comma list"),
}


def _param(params, key, kind, default=None):
    """The --param value of key read as kind (a key of _PARAM_KINDS), or default if absent."""
    if key not in params:
        return default
    read, must_be = _PARAM_KINDS[kind]
    try:
        return read(params[key])
    except ValueError as exc:
        raise InputFormatError(f"param '{key}' must be {must_be}") from exc


def _cmd_analyze(payload, params, seed):
    family = parse_family(payload)
    return {
        "count": len(family),
        "dim": family.dim,
        "use_scalars": family.scalars is not None,
        "frame": frame_bounds(family),
        "spectrum": frame_operator(family).eigenvalues,
    }


def _cmd_classify(payload, params, seed):
    verdict = classify(parse_family(payload))
    return {
        "label": verdict.label,
        "spanning": verdict.spanning,
        "rescaling_recommended": verdict.rescaling_recommended,
        "note": verdict.note,
        "frame": verdict.report,
    }


def _cmd_dual(payload, params, seed):
    family = parse_family(payload)
    report = frame_bounds(family)
    duals = canonical_dual(family)
    residual, _ = reconstruction_residual(family.weighted_vectors(), duals.vectors)  # sup over x of ||x - sum <x, y_n> w_n|| / ||x||
    return {"frame": report, "dual_vectors": duals.vectors, "max_relative_residual": residual}


def _cmd_extract(payload, params, seed):
    family = parse_family(payload)
    result = extract(family)
    plan = result.plan
    return {
        "multiplicity": {str(n): c for n, c in result.sigma.multiplicity.items()},
        "total": result.sigma.total,
        "frame": result.report,
        "mult_bound": result.mult_bound_L,
        "mult_ok": result.mult_ok,
        "total_deviation": result.total_deviation,
        "deviation_cap": result.deviation_cap,
        "envelope": list(result.envelope),
        "plan": {
            "blocks": [list(b) for b in plan.blocks],
            "thresholds": list(plan.thresholds),
            "gammas": list(plan.gammas),
            "epsilon": plan.epsilon,
            "beta": plan.scale.value,
            "window_empty": plan.scale.window_empty,
            "constant": plan.scale.constant,
            "trace_cap": plan.trace_cap,
            "lower": plan.lower,
            "upper": plan.upper,
            "identity_defect": plan.identity_defect,
        },
        "certificates": list(result.certificates),
    }


def _cmd_sample(payload, params, seed):
    family = parse_family(payload)
    if family.scalars is None:
        raise PreconditionError("sample needs 'scalars' as the weight sequence")
    ops = [rank_one(v) for v in family.vectors]
    if "epsilon" not in params:
        raise PreconditionError("sample needs --param epsilon=...")
    epsilon = _param(params, "epsilon", "float")
    cols = _param(params, "subspace_cols", "ints")
    if cols is None:
        subspace = Projection.full(family.dim)
    else:
        for k, col in enumerate(cols):
            if not 0 <= col < family.dim:
                raise InputFormatError(
                    f"param 'subspace_cols': column {col} is outside [0, {family.dim})"
                )
            if col in cols[:k]:
                raise InputFormatError(f"param 'subspace_cols': column {col} is repeated")
        basis = np.eye(family.dim)[:, cols]
        subspace = Projection(basis, dim=family.dim)
    fn, cert = sample(ops, [float(abs(c)) for c in family.scalars], subspace, epsilon)
    return {
        "multiplicity": {str(n): c for n, c in fn.multiplicity.items()},
        "total": fn.total,
        "certificate": cert,
    }


def _cmd_selector(payload, params, seed):
    family = parse_family(payload)
    ops = [rank_one(v) for v in family.vectors]
    trace_cap = _param(params, "trace_cap", "float")
    cap = trace_cap if trace_cap is not None else max(op.trace for op in ops)
    order = _param(params, "order", "int", min(3, max(natural_max_order(cap), 1)))
    tree, cert = best_selector(
        ops,
        order,
        trace_cap=trace_cap,
        strategy=params.get("strategy", "auto"),
        seed=seed,
        restarts=_param(params, "restarts", "int", selectors.RANDOM_RESTARTS),
    )
    return {
        "certificate": cert,
        "leaves": {path: list(ids) for path, ids in sorted(tree.leaves().items())},
        "order": order,
    }


def _cmd_density(payload, params, seed):
    ps = parse_pointset(payload)
    radii = _param(params, "radii", "floats", [ps.declared_extent / 2.0])
    est = density(ps, radii, center_grid_step=_param(params, "step", "float"))
    discrete, separation = uniformly_discrete(ps)
    return {
        "estimate": est,
        "count": len(ps),
        "ambient_dim": ps.ambient_dim,
        "extent": ps.declared_extent,
        "uniformly_discrete": discrete,
        "separation": separation,
    }


def _cmd_gabor(payload, params, seed):
    window = CyclicSignal(parse_family(payload).vectors[0])
    length = window.length
    a_step = _param(params, "a_step", "int", 1)
    b_step = _param(params, "b_step", "int", 1)
    if a_step < 1 or b_step < 1:
        raise PreconditionError("lattice steps must be positive")
    a, b = np.meshgrid(np.arange(0, length, a_step), np.arange(0, length, b_step), indexing="ij")
    spec = GaborSpec(window, np.column_stack([a.ravel(), b.ravel()]))
    family = gabor_family(spec)
    report = frame_bounds(family)
    return {
        "length": length,
        "a_step": a_step,
        "b_step": b_step,
        "count": len(family),
        "window_norm": window.norm,
        "frame": report,
    }


def _cmd_construct45(payload, params, seed):
    window = CyclicSignal(parse_family(payload).vectors[0])
    length = window.length
    counts = _param(params, "counts", "ints", [1, 2, 4, 8])
    copies = _param(params, "copies", "int", 2)
    if copies < 1:
        raise PreconditionError("copies must be positive")
    if not counts:
        raise PreconditionError("counts must be nonempty")
    # shift pairs as codes a * L + b; the lattice in row-major order, and
    # the clusters on the a = L/2 column where modulation steps are cheap
    lattice = np.arange(length * length)
    leads = (length // 2) * length + np.arange(len(counts)) * length // len(counts)
    rest = lattice[~np.isin(lattice, leads)]
    codes = np.concatenate([leads, rest, np.tile(lattice, copies - 1)])
    spec = GaborSpec(window, np.column_stack(np.divmod(codes, length)))
    base_report = frame_bounds(gabor_family(spec))  # densify_gabor_frame reuses it
    family, report = densify_gabor_frame(spec, counts, seed=seed)
    del spec  # and with it the base family, before the emitted one is bounded
    return {
        "length": length,
        "copies": copies,
        "base_count": report.base_count,
        "base_frame": base_report,
        "report": report,
        "emitted_frame": frame_bounds(family),
    }


# each command's handler and the --param keys it reads; any other key is malformed input
_COMMANDS = {
    "analyze": (_cmd_analyze, ()),
    "classify": (_cmd_classify, ()),
    "dual": (_cmd_dual, ()),
    "extract": (_cmd_extract, ()),
    "sample": (_cmd_sample, ("epsilon", "subspace_cols")),
    "selector": (_cmd_selector, ("order", "trace_cap", "strategy", "restarts")),
    "density": (_cmd_density, ("radii", "step")),
    "gabor": (_cmd_gabor, ("a_step", "b_step")),
    "construct45": (_cmd_construct45, ("counts", "copies")),
}


# exit codes of framex's own errors; any other exception (numpy's
# LinAlgError, a bug) exits 5
_EXIT_CODES = ((InputFormatError, 3), (BudgetExceededError, 4), (PreconditionError, 2))


def run(args) -> int:
    """Execute the job of main's parsed arguments and write its report; returns the exit code."""
    started = time.perf_counter()
    stamp = datetime.now(timezone.utc).isoformat()
    report = {"command": args.command, "seed": args.seed, "versions": _versions()}
    handler, known = _COMMANDS[args.command]
    code = 0
    try:
        params = report["params"] = _parse_params(args.param)
        if args.seed < 0:
            raise InputFormatError(f"--seed must be a non-negative integer, got {args.seed}")
        payload, report["input"] = _load_json(args.input_path)
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise InputFormatError(
                f"{args.command} reads no param {', '.join(map(repr, unknown))}; "
                f"it reads: {', '.join(known) or 'none'}"
            )
        report["results"] = handler(payload, params, args.seed)
    except Exception as exc:  # any failure still writes a report
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), 5)
        if code == 5:
            traceback.print_exc()
    if not args.no_timestamp:
        report["timestamp"] = stamp
        report["wall_time_s"] = round(time.perf_counter() - started, 6)
    return _write_report(report, code, args.output_path)


def _versions():
    return {
        "framex": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _write_report(report, code, path) -> int:
    """Write the report; returns the exit code."""
    try:
        Path(path).write_text(_report_text(report), encoding="utf-8")
    except OSError as exc:
        print(f"framex: cannot write report: {exc}", file=sys.stderr)
        return 3
    if code:
        err = report["error"]
        print(f"framex: {err['type']}: {err['message']}", file=sys.stderr)
    return code


def _parse_params(pairs):
    params = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise InputFormatError(f"--param expects k=v, got {raw!r}")
        params[key.strip()] = value.strip()
    return params


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise InputFormatError instead of exiting 2."""

    def error(self, message):
        raise InputFormatError(message)


@functools.cache
def _parser():
    parser = _Parser(
        prog="framex",
        description="Frame analysis toolbox: one batch job per invocation.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--in", dest="input_path", required=True, help="input JSON path")
    parser.add_argument("--out", dest="output_path", required=True, help="report JSON path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--param", action="append", default=[], metavar="K=V")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time for byte-reproducible reports",
    )
    return parser


@functools.cache
def _out_parser():
    """Reads only --out, so that a usage error can still be reported there."""
    parser = _Parser(prog="framex", add_help=False)
    parser.add_argument("--out", dest="output_path")
    return parser


def main(argv=None) -> int:
    """Run one job; a usage error exits 3, with an error report when --out is readable."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except InputFormatError as exc:
        parser.print_usage(sys.stderr)
        try:
            out = _out_parser().parse_known_args(argv)[0].output_path
        except InputFormatError:
            out = None
        if out is None:
            print(f"framex: InputFormatError: {exc}", file=sys.stderr)
            raise SystemExit(3) from None
        report = {"error": {"type": "InputFormatError", "message": str(exc)}, "versions": _versions()}
        raise SystemExit(_write_report(report, 3, out)) from None
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
