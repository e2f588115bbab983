"""Reference clock: task times in units of a fixed reference kernel.

On a shared VM the speed of one core drifts by up to ±30 % within a
minute.  The drift comes from the host, not from preemption in the VM:
CPU time drifts with wall time, and a memory-bound process on the other
core barely moves it.  Wall-clock medians of 30-second runs therefore
differ by 10–25 %.  The worker runs this kernel just before every task
and divides the task's time by it.  One ``ref_ms`` is one run of the
kernel, which takes about 1 ms on an idle 2.1 GHz Xeon VM core; the
cli-calls workload uses a bare interpreter launch instead (``launch_tick``).

The kernel does what qtmpair's hot paths do, without calling qtmpair, in
two halves of about equal time: Python-level Jacobi rotations on a 4x4
numpy array with ``repr`` formatting of the result, and a vectorised
log-sum-exp lifetime curve with a least-squares line through it.  Either
half alone tracked the drift less well on one of the workloads.  It is
part of the benchmark, so no change to ``src/`` moves it.
"""

import math
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

import numpy as np

MATRIX = np.array([
    [4.0, 1.0, 2.0, 0.5],
    [1.0, 3.0, 0.2, 1.0],
    [2.0, 0.2, 5.0, 0.3],
    [0.5, 1.0, 0.3, 2.0],
])
GRID = np.geomspace(0.4, 30.0, 200)
DESIGN = np.column_stack([np.ones_like(GRID), 1.0 / GRID])
SWEEPS = 10
CURVES = 15
SAMPLES = 3
BARE_LAUNCH = [sys.executable, "-I", "-S", "-c", "pass"]
LAUNCH_REF_MS = 10.0


def kernel():
    parts = []
    for _ in range(SWEEPS):
        a = MATRIX.copy()
        for p in range(3):
            for q in range(p + 1, 4):
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
        parts.append(",".join(repr(float(x)) for x in a.ravel()))
    total = float(len("".join(parts)))
    for k in range(CURVES):
        terms = np.stack([np.log(1e6 / (k + 1)) - 5.0 / GRID, np.log(1e3) - 50.0 / GRID])
        ln_tau = -np.logaddexp.reduce(terms, axis=0)
        total += float(np.linalg.lstsq(DESIGN, ln_tau, rcond=None)[0][0])
    return total


def _median_seconds(fn):
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def tick():
    """Seconds per ref_ms now: one kernel run is 1 ref_ms."""
    return _median_seconds(kernel)


def launch_tick():
    """Seconds per ref_ms now, for work that starts processes.

    A bare interpreter launch (``python -I -S -c pass``) is
    ``LAUNCH_REF_MS`` ref_ms, about its time on the idle VM.  It tracks
    the drift of process start-up much better than the kernel does: the
    kernel slows more than a CLI call when the host is busy.
    """
    return _median_seconds(partial(subprocess.run, BARE_LAUNCH, check=True)) / LAUNCH_REF_MS
