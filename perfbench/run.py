"""framex benchmark: fixed-seed CLI jobs run in process, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests 0-15

A run builds nothing: it puts src/ on the import path, makes the workload's
payload files from the seed (set-up, done three times and reported as the
median), then runs the fixed job list through `framex.cli.main` in passes
until the time is spent.  It is a closed loop with one client.  Every report
is checked by an independent oracle (oracles.py) and must be byte-identical
across passes.  Times are reported at the reference speed that pace.py
measures between jobs.  The last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes under the outside-in tracer (tracer.py) and reports the
per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _one_malloc_arena():
    """Make every thread allocate from glibc's main arena.

    Otherwise whether a density-scan worker thread gets an arena of its own
    depends on lock timing, and peak_rss_mb of the same job list moved by
    7 MB between runs.  It must run before numpy starts the BLAS threads.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX


_one_malloc_arena()

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SETUPS = 3
# Passes per run are fixed for a given --seconds, from the pass time of
# each workload at the commit that defined the benchmark, so that the job
# count, and with it the tail percentile, is the same in every run.
NOMINAL_PASS_S = {"selector_search": 8.5, "pipeline_mix": 2.0, "density_gabor": 9.0}
MIN_PASSES = 3
# traced runs repeat the pattern untraced, traced, traced
TRACE_PATTERN = (False, True, True)


class BenchError(Exception):
    """A broken invariant of the benchmark itself; the run must not report."""


def _sources_present():
    return (ROOT / "src" / "framex" / "cli.py").is_file()


def _import_seconds():
    """Time `import framex` in a fresh interpreter (the cost every CLI user pays)."""
    code = "import time; t = time.perf_counter(); import framex; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _write_payloads(jobs, work):
    for i, job in enumerate(jobs):
        (work / f"{i:04d}.in.json").write_text(json.dumps(job.payload), encoding="utf-8")


def _run_job(cli, job, work, index):
    out = work / f"{index:04d}.out.json"
    out.unlink(missing_ok=True)
    argv = job.argv(work / f"{index:04d}.in.json", out)
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.read_bytes() if out.is_file() else b""


def _make_jobs(workload, seed, work, cli):
    if workload != "density_gabor":
        return getattr(workloads, workload)(seed)
    # the emitted shift set is the construct45 output of the same seed
    job = workloads.construct45_job(seed)
    _write_payloads([job], work)
    _, code, body = _run_job(cli, job, work, 0)
    if code:
        raise BenchError(f"construct45 set-up job exited {code}")
    shifts = json.loads(body)["results"]["report"]["shifts"]
    return workloads.density_gabor(seed, shifts)


def set_up(workload, seed, work, cli):
    """One set-up: import, payload generation from the seed, warm-up.

    Returns the jobs and the set-up time, raw and at the reference speed
    measured just before and just after it.
    """
    speed = pace.Pace()
    speed.burst(2 * pace.BURST)
    import_s = _import_seconds()
    start = time.perf_counter()
    jobs = _make_jobs(workload, seed, work, cli)
    _write_payloads(jobs, work)
    warm = workloads.warmup_jobs()
    warm_dir = work / "warm"
    warm_dir.mkdir(exist_ok=True)
    _write_payloads(warm, warm_dir)
    for i, job in enumerate(warm):
        _, code, _ = _run_job(cli, job, warm_dir, i)
        if code:
            raise BenchError(f"warm-up job {job.name} exited {code}")
    raw_s = import_s + time.perf_counter() - start
    speed.burst(2 * pace.BURST)
    return jobs, raw_s, raw_s * speed.scale()


def run_pass(jobs, work, cli):
    """Run the job list once, with reference bursts between jobs.

    Returns the pass's raw wall time, its (latency, exit code, report) per
    job and, per job, the factor that takes its latency to the reference
    speed, from the bursts just before and just after it.
    """
    speed = pace.Pace()
    speed.burst()
    start = time.perf_counter()
    results, before = [], []
    for i, job in enumerate(jobs):
        before.append(len(speed.bursts) - 1)
        results.append(_run_job(cli, job, work, i))
        speed.between_jobs()
    wall = time.perf_counter() - start - (speed.seconds() - sum(speed.bursts[0]))
    if len(speed.bursts) == before[-1] + 1:
        speed.burst()
    return wall, results, [speed.scale(k, k + 1) for k in before]


def _digest(body):
    return hashlib.sha256(body).hexdigest()


def judge(jobs, codes, bodies):
    """Oracle verdict per job: None for ok, else the reason."""
    verdicts = []
    for job, code, body in zip(jobs, codes, bodies):
        if code:
            verdicts.append(f"exit code {code}: {body[:300]!r}")
            continue
        try:
            verdicts.append(oracles.check(job, json.loads(body)))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            verdicts.append(f"oracle could not read the report: {exc!r}")
    return verdicts


def _selector_quality(jobs, codes, bodies):
    ratios = []
    for job, code, body in zip(jobs, codes, bodies):
        if job.command == "selector" and code == 0:
            cert = json.loads(body)["results"]["certificate"]
            ratios.append(max(cert["achieved"].values()) / cert["bound"])
    if not ratios:
        raise BenchError("workload ran no selector job")
    return statistics.median(ratios)


def latencies(passes, scaled=True):
    """Per-pass job latencies, at the reference speed unless scaled is false."""
    return [[r[0] * (k if scaled else 1.0) for r, k in zip(p[2], p[4])] for p in passes]


def list_wall(per_pass):
    """Wall time of the job list, each job taken at its median over the passes.

    Per-job medians discard the seconds-long slow spells of a shared host,
    which a whole-pass wall time would absorb.
    """
    return sum(statistics.median(runs) for runs in zip(*per_pass))


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _code_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "framex").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(workload, seed, trace, exact):
    """Deterministic values must repeat exactly across runs of the same code."""
    cache = WORK / "exact" / f"{workload}-{seed}-{trace}-{_code_hash()}.json"
    cache.parent.mkdir(parents=True, exist_ok=True)
    if cache.is_file():
        before = json.loads(cache.read_text(encoding="utf-8"))
        diff = {k: (before.get(k), v) for k, v in exact.items() if before.get(k) != v}
        if diff:
            raise BenchError(f"deterministic values changed between runs: {diff}")
    else:
        cache.write_text(json.dumps(exact, sort_keys=True), encoding="utf-8")


def drift(workload, seed, jobs, bodies):
    """(differing, compared) against the report digests stored beside the benchmark."""
    if not DIGESTS.is_file():
        return 0, 0
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))["reports"].get(workload, {}).get(str(seed), {})
    compared = [_digest(body) != stored[job.name]
                for job, body in zip(jobs, bodies) if job.name in stored]
    return sum(compared), len(compared)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy has loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_passes(workload, seed, seconds, trace):
    """Set up, then run the job list; returns set-up times, jobs, passes.

    A set-up is (raw seconds, seconds at the reference speed).  A pass is
    (traced, raw wall, [(raw latency, exit code, report digest)], recorder,
    [scale to the reference speed per job]).  The first pass also keeps its
    report bodies for the oracles.
    """
    from framex import cli

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            jobs, raw_s, scaled_s = set_up(workload, seed, work, cli)
            setups.append((raw_s, scaled_s))
        passes, bodies = [], None
        for n in range(max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))):
            rec = undo = None
            if trace and TRACE_PATTERN[n % len(TRACE_PATTERN)]:
                rec = tracer.Recorder()
                undo = tracer.install(rec)
            try:
                wall, results, scales = run_pass(jobs, work, cli)
            finally:
                if undo:
                    tracer.uninstall(undo)
            if bodies is None:
                bodies = [body for _, _, body in results]
            passes.append((rec is not None, wall,
                           [(t, code, _digest(body)) for t, code, body in results], rec, scales))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for traced, _, results, _, _ in passes[1:]:
        for job, a, b in zip(jobs, passes[0][2], results):
            if a[1:] != b[1:]:
                kind = "traced and untraced" if traced else "repeated"
                raise BenchError(f"{kind} runs of {job.name} wrote different reports")
    return setups, jobs, passes, bodies


def _times(setups, per_pass):
    flat = [t for pass_times in per_pass for t in pass_times]
    tail_s, pct = tail(flat)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": list_wall(per_pass),
        "job_p50_ms": 1000.0 * statistics.median(flat),
        "job_tail_ms": 1000.0 * tail_s,
    }, pct, len(flat)


def end_to_end(setups, passes, exact, peak_rss_mb):
    raw, _, _ = _times([s[0] for s in setups], latencies(passes, scaled=False))
    times, pct, count = _times([s[1] for s in setups], latencies(passes))
    print(f"job_tail_ms is p{pct:.1f} of {count} jobs")
    print("raw times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + "; median scale per pass " + " ".join(f"{statistics.median(p[4]):.3f}" for p in passes))
    return {
        **{k: (v, "ms" if k.endswith("_ms") else "s") for k, v in times.items()},
        "ok_frac": (exact["ok_frac"], "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "selector_quality": (exact["selector_quality"], "ratio"),
    }


def per_layer(workload, seed, jobs, passes, bodies, exact):
    """Medians of the traced passes; exact counts must agree between them."""
    traced = [p for p in passes if p[0]]
    per_pass = [tracer.layer_metrics(p[3]) for p in traced]
    metrics = {}
    for name, (value, unit, is_exact) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if is_exact:
            if len(set(values)) != 1:
                raise BenchError(f"{name} differs between traced passes: {values}")
            exact[name] = value
        metrics[name] = (statistics.median(values), unit)
    traced_wall = list_wall(latencies(traced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / list_wall(latencies([p for p in passes if not p[0]])) - 1.0, "frac")
    exact["cli.report_bytes"] = sum(len(body) for body in bodies)
    metrics["cli.report_bytes"] = (exact["cli.report_bytes"], "bytes")
    drifted, compared = drift(workload, seed, jobs, bodies)
    metrics["cli.report_drift"] = (drifted, "count")
    metrics["cli.report_digests_compared"] = (compared, "count")
    # self times are raw, so their base is the raw traced wall
    raw_wall = list_wall(latencies(traced, scaled=False))
    shares = sorted(((metrics[f"{layer}.self_s"][0] / raw_wall, layer)
                     for layer in tracer.LAYERS + ("kernel",)), reverse=True)
    print("self-time share of traced wall: " + ", ".join(f"{k} {v:.1%}" for v, k in shares))
    write_spans(workload, seed, [p[3] for p in traced])
    return metrics


def measure(workload, seed, seconds, trace):
    setups, jobs, passes, bodies = run_passes(workload, seed, seconds, trace)
    # read before the oracles parse reports, so the figure is the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    codes = [r[1] for r in passes[0][2]]
    verdicts = judge(jobs, codes, bodies)
    failed_names = [job.name for job, v in zip(jobs, verdicts) if v]
    for job, v in zip(jobs, verdicts):
        if v:
            known = workloads.KNOWN_DEFECTS.get(job.name)
            print(f"oracle failed: {job.name}: {v}" + (f" (known defect: {known})" if known else ""))
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs x {len(passes)} passes; pass walls "
          + " ".join(f"{'T' if p[0] else 'U'}{p[1]:.3f}" for p in passes)
          + "; scaled " + " ".join(f"{sum(t):.3f}" for t in latencies(passes)))
    exact = {"ok_frac": 1.0 - len(failed_names) / len(jobs),
             "selector_quality": _selector_quality(jobs, codes, bodies)}
    if trace:
        metrics = per_layer(workload, seed, jobs, passes, bodies, exact)
    else:
        metrics = end_to_end(setups, passes, exact, peak_rss_mb)
    check_repeatable(workload, seed, trace, exact)
    return {
        "correct": all(name in workloads.KNOWN_DEFECTS for name in failed_names),
        "attempted": len(jobs) * len(passes),
        "failed": len(failed_names) * len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_spans(workload, seed, recorders):
    out = WORK / "traces" / f"{workload}-{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for n, rec in enumerate(recorders):
            for span_id, name, start, end, parent in rec.spans:
                fh.write(json.dumps({"pass": n, "id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    print(f"spans written to {out.relative_to(ROOT)}")


def record_digests(seeds):
    """Store the SHA-256 of every job's report for the given seeds."""
    from framex import cli

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    reports = {}
    for workload in workloads.WORKLOADS:
        reports[workload] = {}
        for seed in seeds:
            work = WORK / f"record-{workload}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                jobs, _, _ = set_up(workload, seed, work, cli)
                _, results, _ = run_pass(jobs, work, cli)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reports[workload][str(seed)] = {job.name: _digest(r[2]) for job, r in zip(jobs, results)}
            print(f"recorded {workload} seed {seed}: {len(jobs)} reports", flush=True)
    DIGESTS.write_text(json.dumps({
        "commit": git.stdout.strip() or None,
        "machine": machine(),
        "reports": reports,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI", type=_seed_range)
    args = parser.parse_args(argv)
    if not _sources_present():
        print(f"perfbench: framex sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
