"""Record the benchmark's end-to-end medians in one BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_<n>.json

Run from anywhere; it measures the checkout it belongs to. It runs
`perfbench/run.py --seed 0 --trace 0` at BENCHMARK.json's run length five
times for every workload, one run at a time and cycling through the workloads,
so that each sees the same drift of the machine. It writes the median of
each end-to-end metric with its unit, every run's value, the failed
operations, the CPU count, and the Python and numpy versions. A speed
claim quotes such a file and the same command run on the parent commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 5
SEED = 0


def run_once(workload, seconds):
    """The last JSON line of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(seconds):
    """{workload: {metric: {"median", "unit", "values"}, "failed": n}} over RUNS runs."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    values = {w: {name: [] for name in units} for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    for run in range(RUNS):
        for workload in workloads:
            result = run_once(workload, seconds)
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"run {run + 1}/{RUNS} {workload}: " + ", ".join(
                f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)
    return {w: {**{name: {"median": statistics.median(v), "unit": units[name],
                          "values": v}
                   for name, v in values[w].items()},
                "failed": failed[w]}
            for w in workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    workloads = record(seconds)
    payload = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {SEED} "
                   f"--seconds {seconds:g} --trace 0",
        "runs": RUNS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
