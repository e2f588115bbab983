"""One workload in a fresh process, started by ``run.py``.

Prints ``READY`` once imports, input generation and one untimed warm-up
task are done; ``run.py`` times set-up up to that line.  Unless
``--setup-only`` is given it then runs tasks for ``--seconds`` in a closed
loop with one client and prints one JSON line of results.

With ``--trace 1`` every other task runs inside spans, which gives the
tracing overhead, and then the seeded inputs of all four workloads are
replayed through the lower layers' public functions for the per-layer
metrics.
"""

import argparse
import json
import re
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"

LAYER_US_PER_CALL = (
    "jacobi.jacobi_eigh", "model.eigensystem", "model.build_hamiltonian",
    "model.moment_expectation", "model.evolve", "model.zero_field_eigensystem",
)
LAYER_MS_PER_CALL = (
    "analysis.sweep_ratio", "analysis.sweep_field", "serialize.sweep_to_csv",
    "serialize.sweep_to_json", "serialize.dataset_to_csv", "relaxation.parse_dataset_csv",
    "relaxation.synthesize", "serialize.fit_to_json", "relaxation.fit",
)
SUBCOMMANDS = ("spectrum-ua", "spectrum-field", "eigen", "extract", "fit", "synth", "evolve")
STARTUP_RUNS = 5


def _failure_kind(task, err):
    """Failures grouped by task kind, exception type and message with numbers masked."""
    message = re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", str(err).partition("\n")[0])
    prefix = f"{task.kind}: " if hasattr(task, "kind") else ""
    return f"{prefix}{type(err).__name__}: {message[:120]}"


def _attempt(workload, task, calls):
    """Run one task: (seconds, output or None, failure kind or None, mismatches)."""
    start = perf_counter()
    try:
        out = workload.run(task, calls)
    except Exception as err:  # every failed operation is counted, none stops the run
        return perf_counter() - start, None, _failure_kind(task, err), []
    elapsed = perf_counter() - start
    return elapsed, out, None, workload.check(task, out)


def measure(name, workload, tasks, seconds, tracer, plain_call):
    """Closed loop over the task pool for ``seconds``.

    The workload's reference clock runs before every task and once after
    the last, so each task time is also known in ``ref_ms``, against the
    mean of the clock readings just before and just after it (see
    ``refclock.py``).  In a traced run each task runs twice in a row, once
    traced and once not, in alternating order, so both sets of times cover
    the same tasks.
    """
    failures, mismatches = Counter(), Counter()
    records = []   # (traced, seconds, units completed) of every attempted task
    ticks = []     # seconds per ref_ms before every task and after the last
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if tracer is None:
            task, traced = tasks[len(records) % len(tasks)], False
        else:
            pair, second = divmod(len(records), 2)
            task, traced = tasks[pair % len(tasks)], second != pair % 2
        ticks.append(workload.clock())
        if traced:
            with tracer.task(f"task.{name}"):
                elapsed, out, failure, bad = _attempt(workload, task, tracer.call)
        else:
            elapsed, out, failure, bad = _attempt(workload, task, plain_call)
        done = 0
        if failure is not None:
            failures[failure] += 1
        elif bad:
            mismatches.update(bad)
        else:
            done = workload.units(task)
        records.append((traced, elapsed, done))
    ticks.append(workload.clock())

    times = {False: [], True: []}   # (seconds, ref_ms) of every successful task
    work = []   # (units completed, ref_ms) of every attempted task
    for (traced, elapsed, done), before, after in zip(records, ticks, ticks[1:]):
        ref_ms = 2.0 * elapsed / (before + after)
        if done:
            times[traced].append((elapsed, ref_ms))
        work.append((done, ref_ms))
    return times, failures, mismatches, len(records), work


def windowed_rate(work, window):
    """Median over consecutive windows of ``window`` tasks of units per ref-second.

    A window spans the pool's slot pattern evenly, and the median keeps
    a burst of contention on the shared machine from moving the rate.
    """
    window = min(window, len(work))
    rates = []
    for start in range(0, len(work) - window + 1, window):
        units, ref_ms = map(sum, zip(*work[start:start + window]))
        rates.append(units / ref_ms * 1e3)
    return statistics.median(rates)


def per_layer(tracer, first, counts, startup, times):
    totals = tracer.self_times(first)

    def mean(span):
        calls, total = totals[span]
        return total / calls

    metrics = {f"{s}.us_per_call": mean(s) * 1e6 for s in LAYER_US_PER_CALL}
    metrics.update({f"{s}.ms_per_call": mean(s) * 1e3 for s in LAYER_MS_PER_CALL})
    metrics["relaxation.model_lifetime.us_per_point"] = (
        totals["relaxation.model_lifetime"][1] / counts["curve.points"] * 1e6
    )
    for key in ("fit.count", "fit.converged", "fit.recovered", "fit.iterations", "fit.raised",
                "synthesize.failed"):
        metrics[f"relaxation.{key}"] = counts[key]
    metrics["relaxation.fit.converged_ratio"] = counts["fit.converged"] / counts["fit.count"]
    metrics["relaxation.fit.recovery_ratio"] = counts["fit.recovered"] / counts["fit.count"]
    for key in ("interpreter_ms", "import_numpy_ms", "import_qtmpair_ms"):
        metrics[f"startup.{key}"] = startup[key]
    for sub in SUBCOMMANDS:
        metrics[f"cli.compute_ms.{sub}"] = mean(f"cli.compute.{sub}") * 1e3
    traced, plain = ([ref for _, ref in times[key]] for key in (True, False))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import qtmpair

    if not Path(qtmpair.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"qtmpair was imported from {qtmpair.__file__}, not from this checkout's src/")
    from tracing import Tracer, startup_breakdown
    from workloads import WORKLOADS, plain_call

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        workload = WORKLOADS[args.workload]()
        tasks = workload.make_tasks(args.seed, workdir)
        _attempt(workload, tasks[0], plain_call)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        times, failures, mismatches, attempted, work = measure(
            args.workload, workload, tasks, args.seconds, tracer, plain_call
        )
        if not times[False]:
            sys.exit(f"no {args.workload} task succeeded in {args.seconds:g} s")
        wall, samples = (np.array(column) for column in zip(*times[False]))
        p90 = float(np.percentile(samples, 90))
        rss_kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result = {
            "attempted": attempted,
            "failed": sum(failures.values()) + sum(mismatches.values()),
            "correct": not mismatches,
            "failures": dict(failures),
            "mismatches": dict(mismatches),
            "unit": workload.unit,
            "samples": len(samples),
            "task_ref_ms_p50": float(np.median(samples)),
            "task_ref_ms_p90": p90,
            "beyond_p90": int(np.sum(samples > p90)),
            "work_per_ref_s": windowed_rate(work, workload.window),
            "wall_ms_p50": float(np.median(wall)) * 1e3,
            "wall_ms_p90": float(np.percentile(wall, 90)) * 1e3,
            "ms_per_ref_ms": float(np.median(wall / samples)) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        if tracer is not None:
            first = len(tracer.spans)
            counts = {}
            for name, cls in WORKLOADS.items():
                other = workload if name == args.workload else cls()
                pool = tasks if other is workload else other.make_tasks(args.seed, workdir)
                other.replay(pool, tracer, counts)
            startup = startup_breakdown(STARTUP_RUNS, ROOT)
            result["per_layer"] = per_layer(tracer, first, counts, startup, times)
            result["top_import_self_ms"] = startup["top_modules_self_ms"]
            result["task_phase_self_ms"] = {
                span: [calls, total * 1e3]
                for span, (calls, total) in sorted(tracer.self_times(0, first).items())
            }
            span_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.write(span_file)
            result["span_file"] = str(span_file.relative_to(ROOT))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
