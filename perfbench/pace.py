"""The host's current speed, from a fixed reference task run between jobs.

A shared host runs the same code up to 1.8 times slower for spells of
seconds to minutes.  The benchmark therefore interleaves a small fixed
task with the jobs and scales each job's latency by how fast that task
ran at the time: a time reported in seconds is the time the job would
have taken at REFERENCE_S per task, the task's median on a calm spell of
the host that defined the benchmark.  The task uses no framex code, so
a change to the program moves the scaled times by the same share as the
raw ones.

The task mixes what the workloads spend their time on: interpreted
Python, a JSON round trip, small symmetric eigenproblems through LAPACK
and a pass over two megabytes of memory.  The eigensolver is bound
here, at import, so the tracer's wrapper of `numpy.linalg.eigvalsh` never
sees it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median of one task in a calm spell of the defining host (2 CPUs,
# Python 3.11, numpy 2.4)
REFERENCE_S = 2.0e-3
# at most one burst of tasks per this many seconds of jobs
EVERY_S = 0.25
BURST = 3

_eigvalsh = np.linalg.eigvalsh
_rng = np.random.default_rng(20260217)
_sym = _rng.normal(size=(16, 16))
_sym = _sym + _sym.T
_rows = _rng.normal(size=(40, 8)).tolist()
_memory = _rng.normal(size=1 << 18)
# the pass over memory writes into a buffer made here: a fresh 2 MB array
# per task would time the allocator, whose state the program under test sets
_buffer = np.empty_like(_memory)


def task():
    """Seconds one reference task takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    json.loads(json.dumps({"rows": _rows}))
    for _ in range(20):
        _eigvalsh(_sym)
    np.multiply(_memory, 0.5, out=_buffer)
    np.add(_buffer, 1.0, out=_buffer)
    float(np.abs(_buffer, out=_buffer).sum())
    return time.perf_counter() - start


class Pace:
    """Bursts of reference tasks taken between jobs, and the scales they give.

    A job's scale comes from the last burst before it and the first burst
    after it, so it reflects the host's speed at the time the job ran.
    """

    def __init__(self):
        self.bursts = []
        self.last = float("-inf")

    def burst(self, count=BURST):
        self.bursts.append([task() for _ in range(count)])
        self.last = time.perf_counter()

    def between_jobs(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.burst()

    def seconds(self):
        return sum(map(sum, self.bursts))

    def scale(self, first=0, last=None):
        """Factor that takes a time measured over bursts first..last to the reference speed."""
        samples = [t for b in self.bursts[first:None if last is None else last + 1] for t in b]
        return REFERENCE_S / statistics.median(samples)
