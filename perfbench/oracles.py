"""Independent checks of CLI reports.

Each oracle recomputes what the report claims from the job's own payload
with plain numpy (or exact fractions), never from golden values of an
earlier run.  An oracle returns None when the report holds, otherwise a
one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import GABOR_COUNTS, gabor_base_shifts

REL = 1e-9
# frame bounds derived by the same eigensolver on the same matrix agree to
# rounding; 1e-9 of the upper bound leaves room for summation order
BOUND_TOL = 1e-9
DUAL_RESIDUAL = 1e-9
DENSITY_SLACK = 0.05
# the acceptance battery's absolute slack on the 6 sqrt(gamma) sandwich
SANDWICH_SLACK = 1e-8


def _vectors(payload):
    rows = payload["vectors"]
    if payload["field"] == "complex":
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    return np.array(rows, dtype=float)


def _matrix(value):
    """Decode a report array whose complex entries are [re, im] pairs."""
    arr = np.array(value, dtype=float)
    if arr.ndim == 3:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr


def _eig_range(rows):
    ev = np.linalg.eigvalsh(rows.T @ rows.conj())
    return max(float(ev[0]), 0.0), max(float(ev[-1]), 0.0), ev


def _hermitian_opnorm(mat):
    return float(np.max(np.abs(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0))))


def _bounds_mismatch(frame, lower, upper):
    tol = BOUND_TOL * max(1.0, upper)
    if abs(frame["lower"] - lower) > tol or abs(frame["upper"] - upper) > tol:
        return (f"bounds [{frame['lower']:.12g}, {frame['upper']:.12g}] against "
                f"eigvalsh [{lower:.12g}, {upper:.12g}]")
    return None


def check_analyze(job, res):
    lower, upper, ev = _eig_range(_vectors(job.payload))
    spectrum = np.array(res["spectrum"], dtype=float)
    if spectrum.shape != ev.shape or np.max(np.abs(spectrum - ev)) > BOUND_TOL * max(1.0, upper):
        return "spectrum differs from eigvalsh(W^T W*)"
    return _bounds_mismatch(res["frame"], lower, upper)


def check_classify(job, res):
    rows = _vectors(job.payload)
    lower, upper, _ = _eig_range(rows)
    bad = _bounds_mismatch(res["frame"], lower, upper)
    if bad:
        return bad
    count, dim = rows.shape
    if lower > 1e-10 * upper:
        want = "riesz_basis" if count == dim else "frame"
    else:
        want = "rescalable" if np.linalg.matrix_rank(rows) == dim else "non_spanning"
    return None if res["label"] == want else f"label {res['label']} where {want} was due"


def check_dual(job, res):
    rows = _vectors(job.payload)
    lower, upper, _ = _eig_range(rows)
    bad = _bounds_mismatch(res["frame"], lower, upper)
    if bad:
        return bad
    duals = _matrix(res["dual_vectors"])
    rng = np.random.default_rng(job.seed)
    for _ in range(20):
        x = rng.normal(size=rows.shape[1])
        if np.iscomplexobj(rows):
            x = x + 1j * rng.normal(size=rows.shape[1])
        back = rows.T @ (duals.conj() @ x)
        residual = float(np.linalg.norm(back - x) / np.linalg.norm(x))
        if residual >= DUAL_RESIDUAL:
            return f"dual probe residual {residual:.3e}"
    if res["max_relative_residual"] >= DUAL_RESIDUAL:
        return f"reported residual {res['max_relative_residual']:.3e}"
    return None


def check_selector(job, res):
    rows = _vectors(job.payload)
    mats = [np.outer(v, v.conj()) for v in rows]
    total = sum(mats)
    cert = res["certificate"]
    order = res["order"]
    bound = cert["bound"]
    tol = REL * max(1.0, bound)
    seen = sorted(i for ids in res["leaves"].values() for i in ids)
    if seen != list(range(len(rows))) or len(res["leaves"]) != 2**order:
        return "leaves do not partition the operators into 2^order sets"
    for path, ids in res["leaves"].items():
        part = sum((mats[i] for i in ids), np.zeros_like(total))
        dev = _hermitian_opnorm(2**order * part - total)
        if dev > bound + tol:
            return f"leaf {path} deviates {dev:.6g} beyond the bound {bound:.6g}"
        if abs(dev - cert["achieved"][path]) > tol:
            return f"leaf {path} deviation {dev:.6g} != reported {cert['achieved'][path]:.6g}"
    return None if cert["satisfied"] else "certificate not satisfied"


def _sandwich(ops, weights, mult, beta, proj, epsilon):
    """Deviation sandwich of the sampling certificate, recomputed."""
    target = sum(float(c) * t for c, t in zip(weights, ops))
    dev = -target
    for n, times in mult.items():
        dev = dev + (2.0**-beta * times) * ops[n]
    gamma = max(float(np.real(np.trace(proj @ target @ proj))), 0.0)
    perp = np.eye(len(proj)) - proj
    bound = 6.0 * math.sqrt(gamma) + SANDWICH_SLACK
    lo = float(np.min(np.linalg.eigvalsh(dev + epsilon / 2.0 * perp)))
    hi = float(np.max(np.linalg.eigvalsh(dev - epsilon / 2.0 * perp)))
    if lo < -bound or hi > bound:
        return f"sandwich [{lo:.3e}, {hi:.3e}] escapes +-{bound:.3e}"
    return None


def check_sample(job, res):
    rows = _vectors(job.payload)
    weights = [Fraction(w) for w in job.payload["scalars"]]
    cert = res["certificate"]
    beta = cert["beta"]
    mult = {int(n): t for n, t in res["multiplicity"].items()}
    cap = Fraction(2) ** (beta + 1)
    for n, times in mult.items():
        if Fraction(times) > cap * weights[n]:
            return f"index {n} repeats {times} times, above 2^(beta+1) c_n"
    if not (cert["mult_ok"] and cert["sandwich_ok"]):
        return "certificate flags a failed check"
    dim = rows.shape[1]
    cols = [int(c) for c in job.params["subspace_cols"].split(",")]
    proj = np.zeros((dim, dim))
    proj[cols, cols] = 1.0
    ops = [np.outer(v, v) for v in rows]
    return _sandwich(ops, weights, mult, beta, proj, float(job.params["epsilon"]))


def check_extract(job, res):
    rows = _vectors(job.payload)
    scalars = np.array(job.payload["scalars"], dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    weights = scalars**2 * norms**2
    a, b, _ = _eig_range(scalars[:, None] * rows)
    plan = res["plan"]
    beta, c = plan["beta"], plan["constant"]
    bound_l = max(144.0 * c * c * b / (a * a), 64.0 * c**4 / (b * b))
    if abs(bound_l - res["mult_bound"]) > REL * bound_l:
        return f"multiplicity bound {res['mult_bound']:.12g} != {bound_l:.12g}"
    mult = {int(n): t for n, t in res["multiplicity"].items()}
    frac_l = Fraction(bound_l)
    for n, times in mult.items():
        if Fraction(times) > frac_l * Fraction(float(weights[n])):
            return f"index {n} repeats {times} times, above L |c_n|^2 |x_n|^2"
    units = rows / norms[:, None]
    support = sorted(mult)
    out = np.sqrt([float(mult[n]) for n in support])[:, None] * units[support]
    lo, hi, _ = _eig_range(out)
    bad = _bounds_mismatch(res["frame"], lo, hi)
    if bad:
        return "output " + bad
    scale = 2.0**beta
    if lo < scale * a / 3.0 * (1 - 1e-6) or hi > 3.0 * scale * b * (1 + 1e-6):
        return f"output bounds [{lo:.6g}, {hi:.6g}] escape the envelope"
    ops = [np.outer(u, u) / b for u in units]
    achieved = sum((mult[n] / scale) * ops[n] for n in mult) - sum(w * t for w, t in zip(weights, ops))
    if _hermitian_opnorm(achieved) > 2.0 * plan["epsilon"] + SANDWICH_SLACK:
        return "stacked deviation exceeds 2 epsilon"
    for j, cert in enumerate(res["certificates"]):
        if cert is not None and not (
            cert["mult_ok"]
            and max(-cert["sandwich_lo"], cert["sandwich_hi"]) <= cert["sandwich_bound"] + SANDWICH_SLACK
        ):
            return f"block {j} certificate fails its sandwich or cap"
    return None if res["mult_ok"] else "report flags the multiplicity cap"


def _gabor_rows(window, shifts):
    length = len(window)
    t = np.arange(length)
    return np.array([np.roll(window, a) * np.exp(2j * np.pi * b * t / length) for a, b in shifts])


def check_gabor(job, res):
    window = _vectors(job.payload)[0]
    length = len(window)
    a_step, b_step = int(job.params["a_step"]), int(job.params["b_step"])
    shifts = [(a, b) for a in range(0, length, a_step) for b in range(0, length, b_step)]
    if res["count"] != len(shifts):
        return "wrong family size"
    lower, upper, _ = _eig_range(_gabor_rows(window, shifts))
    return _bounds_mismatch(res["frame"], lower, upper)


def check_construct45(job, res):
    window = _vectors(job.payload)[0]
    base = gabor_base_shifts()
    rep = res["report"]
    if rep["emitted_count"] != len(base) + sum(GABOR_COUNTS) - len(GABOR_COUNTS):
        return "emitted count does not follow the cluster sizes"
    if not (rep["operator_deviation"] < 1.0 and rep["weights_nonzero"]):
        return "mixed operator not certified invertible"
    for got, cap in zip(rep["vector_distances"], rep["vector_caps"]):
        if got >= cap:
            return "a cluster copy leaves its vector cap"
    for got, cap in zip(rep["parameter_distances"], rep["parameter_caps"]):
        if got > cap * (1 + REL):
            return "a cluster copy leaves its parameter cap"
    lower, upper, _ = _eig_range(_gabor_rows(window, base))
    bad = _bounds_mismatch(res["base_frame"], lower, upper)
    if bad:
        return "base " + bad
    lower, upper, _ = _eig_range(_gabor_rows(window, [tuple(s) for s in rep["shifts"]]))
    bad = _bounds_mismatch(res["emitted_frame"], lower, upper)
    return "emitted " + bad if bad else None


def _integer_window_counts(points, half, radius):
    """Window counts at every integer centre of [-half, half]^2, exactly.

    For integer points, each count is a sum of the occupancy grid over the
    integer offsets of the disc, so no distance is ever rounded.
    """
    pts = np.asarray(points)
    r = int(math.floor(radius))
    size = int(half) + r
    occ = np.zeros((2 * size + 1, 2 * size + 1), dtype=np.int64)
    inside = np.all(np.abs(pts) <= size, axis=1)
    idx = (pts[inside] + size).astype(int)
    np.add.at(occ, (idx[:, 0], idx[:, 1]), 1)
    span = 2 * int(half) + 1
    counts = np.zeros((span, span), dtype=np.int64)
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            if dx * dx + dy * dy <= radius * radius:
                counts += occ[r + dx : r + dx + span, r + dy : r + dy + span]
    return counts


def _min_separation(points):
    pts = np.asarray(points)
    _, mult = np.unique(pts, axis=0, return_counts=True)
    if mult.max() > 1:
        return 0.0
    keys = {tuple(p) for p in pts.tolist()}
    if any((x + 1, y) in keys or (x, y + 1) in keys for x, y in keys):
        return 1.0
    raise ValueError("separation oracle covers unit-spaced integer sets only")


def check_density(job, res):
    est = res["estimate"]
    points = np.array(job.payload["points"], dtype=float)
    if "density" in job.expect:
        target = job.expect["density"]
        for radius, lower, upper in est["per_window"]:
            if lower < target * (1 - DENSITY_SLACK) or upper > target * (1 + DENSITY_SLACK):
                return (f"radius {radius}: [{lower:.4g}, {upper:.4g}] misses the "
                        f"lattice density {target:.4g} by more than 5%")
        if "separation" in job.expect:
            sep = job.expect["separation"]
            if not res["uniformly_discrete"] or abs(res["separation"] - sep) > REL * sep:
                return f"separation {res['separation']} where {sep} was due"
        return None
    # finite integer patches with no closed-form density: recount every window
    radius = float(job.params["radii"])
    half = job.payload["extent"] - radius
    counts = _integer_window_counts(points, half, radius)
    vol = math.pi * radius * radius
    for name, want in (("lower", counts.min() / vol), ("upper", counts.max() / vol)):
        if abs(est[name] - want) > REL * want:
            return f"{name} density {est[name]:.12g} != recount {want:.12g}"
    sep = _min_separation(points)
    if res["separation"] != sep or res["uniformly_discrete"] != (sep > 0):
        return f"separation {res['separation']} where {sep} was due"
    return None


ORACLES = {
    "analyze": check_analyze,
    "classify": check_classify,
    "dual": check_dual,
    "selector": check_selector,
    "sample": check_sample,
    "extract": check_extract,
    "gabor": check_gabor,
    "construct45": check_construct45,
    "density": check_density,
}


def check(job, report):
    """None when the report of a job that exited 0 passes its oracle."""
    return ORACLES[job.command](job, report["results"])
