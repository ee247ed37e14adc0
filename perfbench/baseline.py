"""Run the benchmark repeatedly and record the median and quartiles of every
end-to-end metric per workload.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Each run is a fresh ``perfbench/run.py`` process with its own seed and the
``run_seconds`` of BENCHMARK.json, one after the other. The spread printed
for a metric is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from measure import seed_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Median and quartiles of repeated benchmark runs.")
    parser.add_argument("--seeds", default="0-9", help="seed list such as 0-9 or 0,3,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the record as JSON to this path")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"environment": environment(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "q1": q1, "median": median, "q3": q3,
                             "spread": (q3 - q1) / median, "values": values}
            print(f"{workload:17s} {name:13s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bounds[name]}")
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
