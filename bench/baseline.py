"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/baseline.py --seeds 1-10
    python3 bench/baseline.py --seeds 1-10 --trace-seed 1 --write

For each workload and end-to-end metric this prints the median of the
seeds' values and the quartile spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound.  ``--trace-seed`` adds one traced run per workload for the
per-layer numbers; ``--write`` stores everything in ``bench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("field-sweep", "beat-trace", "arrhenius-fit", "cli-calls")


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct {entry['correct']}, failed/attempted "
              + " ".join(f"{f}/{a}" for f, a in zip(entry["failed"], entry["attempted"])))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:<14} median {median:12.5g}  spread {spread:7.4f}  bound {bound}  {flag}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.write:
        path = BENCH / "baseline.json"
        path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
