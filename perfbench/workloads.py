"""Seeded job lists for the three workloads.

A job is one `framex` CLI invocation: a command, an input payload and its
parameters.  Everything a job needs is drawn from the workload seed here,
with numpy alone, so the program under test sees nothing but the payload
files.  oracles.py checks each report by the job's command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GABOR_L = 64
GABOR_COUNTS = (1, 2, 4, 8)
GABOR_COPIES = 2
# density windows on the shift sets: the densified-construction witness
SHIFT_EXTENT = 46.0
SHIFT_RADIUS = 20.0
# the ROADMAP "Density scan" case: Z^2 cut to the ball R=30, true density 1
Z2_RADIUS = 30
Z2_WINDOW = 10.0

# jobs whose oracle fails at the commit that defined the benchmark, with the
# ROADMAP item that records the defect; they count against ok_frac and as
# failed, but do not make the run incorrect
KNOWN_DEFECTS = {
    "density-z2-ball": "ROADMAP 'Density scan': cube centre grid leaves the faithful ball",
}


@dataclass
class Job:
    name: str
    command: str
    payload: dict
    params: dict = field(default_factory=dict)
    seed: int = 0
    # oracle inputs that are not part of the payload, such as a known density
    expect: dict = field(default_factory=dict)

    def argv(self, in_path, out_path):
        out = [self.command, "--in", str(in_path), "--out", str(out_path),
               "--seed", str(self.seed), "--no-timestamp"]
        for key, value in self.params.items():
            out += ["--param", f"{key}={value}"]
        return out


def _entries(rows):
    rows = np.asarray(rows)
    if np.iscomplexobj(rows):
        return [[[float(z.real), float(z.imag)] for z in row] for row in rows], "complex"
    return [[float(x) for x in row] for row in rows], "real"


def family_payload(rows, scalars=None):
    vectors, field_name = _entries(rows)
    out = {"dim": int(np.asarray(rows).shape[1]), "field": field_name, "vectors": vectors}
    if scalars is not None:
        out["scalars"] = [float(s) for s in scalars]
    return out


def pointset_payload(points, extent):
    pts = np.asarray(points, dtype=float)
    return {"ambient_dim": int(pts.shape[1]), "extent": float(extent),
            "points": [[float(x) for x in p] for p in pts]}


def _gaussian_rows(rng, count, dim, complex_field):
    v = rng.normal(size=(count, dim))
    if complex_field:
        v = v + 1j * rng.normal(size=(count, dim))
    return v


def _bounded_rank_ones(rng, dim, count, trace_cap):
    """Rows v_n with |v_n|^2 <= trace_cap and sum v_n v_n^T < I."""
    units = rng.normal(size=(count, dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    rows = np.sqrt(rng.uniform(0.2, 1.0, size=count) * trace_cap)[:, None] * units
    top = float(np.max(np.linalg.eigvalsh(rows.T @ rows)))
    if top >= 1.0:
        rows *= math.sqrt(0.99 / top)
    return rows


def _well_conditioned(rng, dim, lo, hi, complex_field):
    while True:
        rows = _gaussian_rows(rng, int(rng.integers(lo, hi + 1)), dim, complex_field)
        ev = np.linalg.eigvalsh(rows.T @ rows.conj())
        if ev[0] > 1e-4 * ev[-1]:
            return rows


def _exhaustive_selector(rng, name):
    dim = int(rng.integers(2, 7))
    count = int(rng.integers(2, 13))
    order = int(rng.integers(2, 4))
    delta = float(rng.uniform(0.01, 0.1))
    rows = _bounded_rank_ones(rng, dim, count, delta)
    return Job(name, "selector", family_payload(rows),
               {"strategy": "exhaustive", "order": order, "trace_cap": repr(delta)})


def _window_rows(rng, length, kind):
    if kind == "gaussian":
        t = np.arange(length, dtype=float)
        g = np.exp(-np.pi * (t - length / 2.0) ** 2 / length)
        return (g / np.linalg.norm(g))[None, :]
    return _gaussian_rows(rng, 1, length, kind == "complex")


def selector_search(seed):
    """Randomized (auto) and greedy selector searches on rank-one families."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for k in range(12):
        rows = _bounded_rank_ones(rng, 16, 64, 16 / 64)
        jobs.append(Job(f"selector-auto-{k:02d}", "selector", family_payload(rows),
                        {"strategy": "auto", "order": 3, "restarts": 4},
                        seed=int(rng.integers(2**31))))
    for k in range(6):
        rows = _bounded_rank_ones(rng, 16, 128, 16 / 128)
        jobs.append(Job(f"selector-greedy-{k:02d}", "selector", family_payload(rows),
                        {"strategy": "greedy", "order": 4}))
    return jobs


def _sample_job(rng, name):
    # the acceptance battery's instances: unit directions of trace 0.2 with
    # exact dyadic weights whose weighted trace stays under 1/2
    pool = (0.25, 0.5, 0.75, 1.0)
    dim = int(rng.integers(2, 6))
    count = int(rng.integers(3, 9))
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    weights, total = [], 0.0
    for slot in range(count):
        pick = pool[int(rng.integers(len(pool)))]
        if total + pick + 0.25 * (count - slot - 1) > 2.5:
            pick = 0.25
        weights.append(pick)
        total += pick
    cols = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False).tolist())
    return Job(name, "sample", family_payload(math.sqrt(0.2) * dirs, weights),
               {"epsilon": 0.25, "subspace_cols": ",".join(map(str, cols))})


def _extract_job(rng, name):
    # spanning family whose rescaled energies are small integers
    dim = int(rng.integers(2, 33))
    rows = np.vstack([np.eye(dim), rng.normal(size=(int(rng.integers(1, 4)), dim))])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    rows = rows @ q.T
    ks = rng.integers(1, 5, size=len(rows))
    return Job(name, "extract", family_payload(rows, np.sqrt(ks) / np.linalg.norm(rows, axis=1)))


def _gabor_job(rng, name):
    length = (16, 32)[int(rng.integers(2))]
    kind = ("gaussian", "real", "complex")[int(rng.integers(3))]
    return Job(name, "gabor", family_payload(_window_rows(rng, length, kind)),
               {"a_step": int(rng.integers(1, 3)), "b_step": int(rng.integers(1, 3))})


def _lattice_job(rng, name):
    # alpha Z shifted by a seeded offset, filling the faithful interval; every
    # radius of the ladder spans at least 20 lattice steps, so each window
    # count is within 5% of 2r/alpha
    alpha = (0.5, 1.0, 2.0)[int(rng.integers(3))]
    extent = float(rng.integers(100, 201))
    n = int(extent // alpha) + 1
    pts = rng.uniform(0.0, alpha) + alpha * np.arange(-n, n + 1)
    pts = pts[np.abs(pts) <= extent][:, None]
    top = extent / 2.0
    ladder = sorted({float(math.floor(r)) for r in np.linspace(10.0 * alpha, top, 3)})
    return Job(name, "density", pointset_payload(pts, extent),
               {"radii": ",".join(repr(r) for r in ladder)},
               expect={"density": 1.0 / alpha, "separation": alpha})


def pipeline_mix(seed):
    """Several hundred small jobs over every command but construct45."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for k in range(60):
        dim = int(rng.integers(2, 17))
        rows = _gaussian_rows(rng, int(rng.integers(1, 4 * dim + 1)), dim, bool(rng.integers(2)))
        jobs.append(Job(f"analyze-{k:02d}", "analyze", family_payload(rows)))
    for k in range(50):
        dim = int(rng.integers(2, 17))
        rows = _gaussian_rows(rng, int(rng.integers(1, 4 * dim + 1)), dim, bool(rng.integers(2)))
        jobs.append(Job(f"classify-{k:02d}", "classify", family_payload(rows)))
    for k in range(40):
        dim = int(rng.integers(2, 17))
        rows = _well_conditioned(rng, dim, dim + 2, 4 * dim, bool(rng.integers(2)))
        jobs.append(Job(f"dual-{k:02d}", "dual", family_payload(rows),
                        seed=int(rng.integers(2**31))))
    jobs += [_sample_job(rng, f"sample-{k:02d}") for k in range(40)]
    jobs += [_extract_job(rng, f"extract-{k:02d}") for k in range(30)]
    jobs += [_exhaustive_selector(rng, f"selector-{k:02d}") for k in range(60)]
    jobs += [_gabor_job(rng, f"gabor-{k:02d}") for k in range(20)]
    jobs += [_lattice_job(rng, f"density-{k:02d}") for k in range(30)]
    # interleave commands so that no command runs as one block
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def gabor_base_shifts():
    """Shift list of the construct45 base system, as the CLI builds it."""
    length, counts = GABOR_L, GABOR_COUNTS
    leads = [(length // 2, (k * length) // len(counts)) for k in range(len(counts))]
    lattice = [(a, b) for a in range(length) for b in range(length)]
    lead_set = set(leads)
    rest = [p for p in lattice if p not in lead_set]
    return leads + rest + lattice * (GABOR_COPIES - 1)


def shift_points(shifts):
    half = GABOR_L / 2.0
    return [(a - half, b - half) for a, b in shifts]


def density_gabor(seed, emitted_shifts):
    """The densified Gabor construction and density scans of its shift sets.

    emitted_shifts come from the construct45 report of the same seed, which
    set-up runs once.  One small exhaustive selector job keeps the
    selector_quality metric defined on every workload; its instance does not
    depend on the seed, so that one job gives a steady figure.
    """
    z2 = [(x, y) for x in range(-Z2_RADIUS, Z2_RADIUS + 1)
          for y in range(-Z2_RADIUS, Z2_RADIUS + 1) if x * x + y * y <= Z2_RADIUS**2]
    radius = {"radii": repr(SHIFT_RADIUS)}
    return [
        construct45_job(seed),
        Job("density-base", "density",
            pointset_payload(shift_points(gabor_base_shifts()), SHIFT_EXTENT), radius),
        Job("density-emitted", "density",
            pointset_payload(shift_points(emitted_shifts), SHIFT_EXTENT), radius),
        Job("density-z2-ball", "density", pointset_payload(z2, Z2_RADIUS),
            {"radii": repr(Z2_WINDOW), "step": "1"}, expect={"density": 1.0}),
        _exhaustive_selector(np.random.default_rng(3), "selector-small"),
    ]


def construct45_job(seed):
    window = _window_rows(None, GABOR_L, "gaussian")
    return Job("construct45", "construct45", family_payload(window),
               {"counts": ",".join(map(str, GABOR_COUNTS)), "copies": GABOR_COPIES},
               seed=seed)


def warmup_jobs():
    """One small job per command, run at set-up before anything is timed."""
    rng = np.random.default_rng(0)
    rows = _well_conditioned(rng, 4, 6, 8, False)
    return [
        Job("warm-analyze", "analyze", family_payload(rows)),
        Job("warm-classify", "classify", family_payload(rows)),
        Job("warm-dual", "dual", family_payload(rows)),
        _sample_job(rng, "warm-sample"),
        _extract_job(rng, "warm-extract"),
        _exhaustive_selector(rng, "warm-selector"),
        Job("warm-randomized", "selector", family_payload(_bounded_rank_ones(rng, 4, 16, 0.25)),
            {"strategy": "randomized", "order": 2, "restarts": 1}),
        _gabor_job(rng, "warm-gabor"),
        _lattice_job(rng, "warm-density"),
        Job("warm-density-2d", "density",
            pointset_payload([(x, y) for x in range(-8, 9) for y in range(-8, 9)
                              if x * x + y * y <= 64], 8.0),
            {"radii": "4"}),
        Job("warm-construct45", "construct45", family_payload(_window_rows(rng, 16, "gaussian")),
            {"counts": "1,2", "copies": 2}),
    ]


WORKLOADS = ("selector_search", "pipeline_mix", "density_gabor")
