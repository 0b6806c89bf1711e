"""Outside-in spans and counters for the framex layers.

The tracer replaces each public function of a framex module with a wrapper,
both where the function is defined and wherever another framex module
imported it by name (so `framex.cli.best_selector` and
`framex.extraction.sample` are covered), and wraps `numpy.linalg.eigvalsh`,
`eigh` and `solve` as the `kernel` layer.  Nothing under src/ changes.

A span has an id, a name, a start, an end and the id of the span that
was open when it began.  Spans are kept in memory and written when the run
ends.  A layer's self time is the duration of its spans minus the time of
their child spans.  Only the main thread records: the density scan's
worker threads run inside a `pointsets.density` span, whose self time
therefore holds the scan.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "frames", "linalg", "selectors", "sampling", "extraction", "pointsets", "timefreq")
KERNEL = ("eigvalsh", "eigh", "solve")
# the JSON read is private but is where an 8k-point payload spends its parse
PARSE = ("cli._load_json", "cli.parse_family", "cli.parse_pointset")
PRIVATE = {"cli._load_json"}


class Recorder:
    """Span and counter sink for one traced pass."""

    def __init__(self):
        self.main = threading.get_ident()
        self.spans = []          # (id, name, start, end, parent id or -1)
        self.stack = []          # [id, name, start, child seconds]
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.open = Counter()

    def enter(self, name):
        self.calls[name] += 1
        self.open[name] += 1
        self.stack.append([len(self.spans) + len(self.stack), name, time.perf_counter(), 0.0])

    def leave(self, name):
        end = time.perf_counter()
        span_id, _, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name.split(".")[0]] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.open[name] -= 1
        if not self.open[name]:
            self.inclusive_s[name] += duration
        self.spans.append((span_id, name, start, end, parent))


def _matrices(a):
    shape = np.shape(a)
    return math.prod(shape[:-2]), shape[-1], 4 if np.iscomplexobj(a) else 1


def _note_eigvalsh(rec, args, kwargs, result):
    count, n, cplx = _matrices(args[0])
    rec.counts["kernel.eigvalsh.matrices"] += count
    # Golub-Van Loan: tridiagonal reduction dominates, 4/3 n^3 real flops
    rec.counts["kernel.flops_computed"] += round(count * cplx * 4 * n**3 / 3)
    if rec.open["selectors.best_selector"]:
        rec.counts["selectors.search_eigvalsh"] += 1


def _note_eigh(rec, args, kwargs, result):
    count, n, cplx = _matrices(args[0])
    rec.counts["kernel.flops_computed"] += count * cplx * 9 * n**3


def _note_solve(rec, args, kwargs, result):
    count, n, cplx = _matrices(args[0])
    rhs = np.shape(args[1])
    nrhs = rhs[-1] if len(rhs) == len(np.shape(args[0])) else 1
    rec.counts["kernel.flops_computed"] += round(count * cplx * (2 * n**3 / 3 + 2 * n * n * nrhs))


def _note_best_selector(rec, args, kwargs, result):
    cert = result[1]
    runs = 1
    if cert.strategy == "randomized":
        runs = max(1, kwargs.get("restarts", getattr(_module("selectors"), "RANDOM_RESTARTS", 1)))
    rec.counts["selectors.restarts"] += runs


def _note_sample(rec, args, kwargs, result):
    cert = result[1]
    rec.counts["sampling.replica_total"] += cert.replica_total
    rec.counts["sampling.levels_max"] = max(rec.counts["sampling.levels_max"], cert.levels)
    rec.counts["sampling.frontier_runs"] += cert.levels > 0


def _note_extract(rec, args, kwargs, result):
    rec.counts["extraction.blocks"] += len(result.plan.blocks)


def _scan(rec, points, dim, centers):
    """Work of the brute-force scan: every centre against every point."""
    rec.counts["pointsets.pair_tests_computed"] += centers * points
    rec.counts["pointsets.scan_bytes_computed"] += centers * points * dim * 8


def _note_density(rec, args, kwargs, result):
    ps, radii = args[0], args[1]
    step = kwargs.get("center_grid_step", args[2] if len(args) > 2 else None)
    divisor = getattr(_module("pointsets"), "STEP_DIVISOR", 20)
    for r in radii:
        s = step if step is not None else float(r) / divisor
        half = ps.declared_extent - float(r)
        per_axis = max(1, len(np.arange(-half, half + s / 2.0, s)))
        centers = per_axis**ps.ambient_dim
        rec.counts["pointsets.centers_scanned"] += centers
        _scan(rec, len(ps), ps.ambient_dim, centers)


def _note_uniformly_discrete(rec, args, kwargs, result):
    ps = args[0]
    _scan(rec, len(ps), ps.ambient_dim, len(ps))


def _note_rows(rec, args, kwargs, result):
    family = result[0] if isinstance(result, tuple) else result
    rec.counts["timefreq.rows_emitted"] += len(family)


NOTES = {
    "kernel.eigvalsh": _note_eigvalsh,
    "kernel.eigh": _note_eigh,
    "kernel.solve": _note_solve,
    "selectors.best_selector": _note_best_selector,
    "sampling.sample": _note_sample,
    "extraction.extract": _note_extract,
    "pointsets.density": _note_density,
    "pointsets.uniformly_discrete": _note_uniformly_discrete,
    "timefreq.gabor_family": _note_rows,
    "timefreq.densify_gabor_frame": _note_rows,
}


def _module(layer):
    return importlib.import_module(f"framex.{layer}")


def _wrap(rec, name, fn):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if threading.get_ident() != rec.main:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(name)
        if note is not None:
            note(rec, args, kwargs, result)
        return result

    return traced


def install(rec):
    """Patch every traced function; returns the undo list for uninstall()."""
    modules = {layer: _module(layer) for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE)):
                wrappers[obj] = _wrap(rec, name, obj)
    undo = []
    for mod in [importlib.import_module("framex"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for attr in KERNEL:
        obj = getattr(np.linalg, attr)
        undo.append((np.linalg, attr, obj))
        setattr(np.linalg, attr, _wrap(rec, f"kernel.{attr}", obj))
    return undo


def uninstall(undo):
    for mod, attr, obj in reversed(undo):
        setattr(mod, attr, obj)


# per-layer metrics read from a recorder: (name, unit)
TIMES = (
    "frames.frame_bounds", "frames.canonical_dual", "frames.classify",
    "linalg.rank_one", "linalg.project_onto",
    "kernel.eigvalsh", "kernel.eigh", "kernel.solve",
    "selectors.best_selector", "sampling.sample",
    "extraction.extract", "extraction.plan",
    "pointsets.density", "pointsets.uniformly_discrete",
    "timefreq.gabor_family", "timefreq.densify_gabor_frame",
)
CALLS = (
    "frames.frame_bounds", "linalg.rank_one", "kernel.eigvalsh", "kernel.eigh",
    "selectors.best_selector", "sampling.sample",
)
COUNTS = (
    ("kernel.eigvalsh.matrices", "count"), ("kernel.flops_computed", "flop"),
    ("selectors.restarts", "count"), ("sampling.replica_total", "count"),
    ("sampling.levels_max", "count"), ("sampling.frontier_runs", "count"),
    ("extraction.blocks", "count"), ("pointsets.centers_scanned", "count"),
    ("pointsets.pair_tests_computed", "count"), ("pointsets.scan_bytes_computed", "bytes"),
    ("timefreq.rows_emitted", "count"),
)


def layer_metrics(rec):
    """Per-layer values of one traced pass: name -> (value, unit, exact)."""
    out = {f"{layer}.self_s": (rec.self_s[layer], "s", False) for layer in LAYERS + ("kernel",)}
    out["cli.parse_s"] = (sum(rec.inclusive_s[n] for n in PARSE), "s", False)
    for name in TIMES:
        out[f"{name}.s"] = (rec.inclusive_s[name], "s", False)
    for name in CALLS:
        out[f"{name}.calls"] = (rec.calls[name], "count", True)
    for name, unit in COUNTS:
        out[name] = (rec.counts[name], unit, True)
    restarts = rec.counts["selectors.restarts"]
    # base: eigvalsh calls made inside best_selector spans, per restart
    out["selectors.eig_per_restart"] = (
        rec.counts["selectors.search_eigvalsh"] / restarts if restarts else 0.0, "count", True)
    calls = rec.calls["kernel.eigvalsh"]
    out["kernel.eigvalsh.batch_ratio"] = (
        rec.counts["kernel.eigvalsh.matrices"] / calls if calls else 0.0, "ratio", True)
    out["trace.spans"] = (len(rec.spans), "count", True)
    return out
