"""qtmpair benchmark: one workload, or all four, from seeded inputs.

    python3 bench/run.py --workload field-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in a fresh single-threaded worker process (``worker.py``),
one process at a time.  Set-up is timed from process launch to the
worker's READY line, over several launches; the last launch then measures
for ``--seconds``.  Times are reported against reference clocks
(``refclock.py``): task times in ``ref_ms``, set-up in reference seconds.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``, with ``--trace 1`` every
per-layer metric.  A full record of the run goes to ``bench/results/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
WORKLOADS = ("field-sweep", "beat-trace", "arrhenius-fit", "cli-calls")
SETUP_LAUNCHES = 3
WORKER_GRACE_S = 120
WORK_UNITS = {
    "points": "Hamiltonian points, CSV/JSON formatting included",
    "samples": "propagated time samples",
    "fits": "synthesize-CSV-parse-fit-curve-JSON pipelines",
    "calls": "CLI subprocess calls",
}


class WorkerError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args, setup_only):
    """Start one worker; return (set-up seconds, set-up ref-seconds, result dict or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    clock = refclock.launch_tick()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker for {args.workload} failed (exit code {code})")
    setup_ref_s = setup_s / clock / 1e3
    if setup_only:
        return setup_s, setup_ref_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker for {args.workload} printed no result")
    return setup_s, setup_ref_s, json.loads(lines[-1])


def environment():
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(args, spec):
    setups = [launch(args, setup_only=True)[:2] for _ in range(SETUP_LAUNCHES - 1)] if not args.trace else []
    *setup, result = launch(args, setup_only=False)
    setups.append(setup)
    if args.trace:
        values, wanted = result["per_layer"], spec["per_layer"]
    else:
        values = {name: result[name]
                  for name in ("task_ref_ms_p50", "task_ref_ms_p90", "work_per_ref_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(ref for _, ref in setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  (work_per_ref_s counts {WORK_UNITS[result['unit']]} per ref-second)")
        print(f"  wall clock: task p50 {result['wall_ms_p50']:.4f} ms, p90 {result['wall_ms_p90']:.4f} ms;"
              f" 1 ref_ms = {result['ms_per_ref_ms']:.4f} ms (median)")
        print(f"  (setup_s is the median of {len(setups)} launches in reference seconds: "
              + ", ".join(f"{ref:.4f}" for _, ref in setups) + "; wall clock: "
              + ", ".join(f"{wall:.4f}" for wall, _ in setups) + ")")
        print(f"  {result['samples']} successful tasks timed, {result['beyond_p90']} beyond p90"
              + ("" if result["beyond_p90"] >= 10 else " (fewer than 10: p90 is not resolved)"))
    else:
        print("  top import self times (ms): "
              + ", ".join(f"{n} {ms:.1f}" for n, ms in result["top_import_self_ms"]))
        print(f"  spans written to {result['span_file']}")
    print(f"  error_rate {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f} (failed/attempted operations)")
    for kind, count in {**result["failures"], **result["mismatches"]}.items():
        print(f"    {count} x {kind}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setups_wall_and_ref_s": setups,
              "metrics": metrics, "worker": result}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # reference clocks, set-up launches, tasks and any process they start share one core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "qtmpair" / "__init__.py").is_file():
        sys.exit(f"error: no qtmpair sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, spec)
    except WorkerError as err:
        sys.exit(f"error: {err}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
