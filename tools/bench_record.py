"""Record the benchmark, parent against change, in one BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_<n>.json --parent REV

Run from anywhere; it measures the checkout it belongs to against REV.
REV is checked out with `git worktree` into a temporary directory (removed
afterwards), and each workload runs `perfbench/run.py --seed 0 --trace 0`
at BENCHMARK.json's run length in ten pairs of one parent and one change
run, cycling through the workloads so that each sees the same drift of
the machine, and alternating from pair to pair the side that goes first.
For each end-to-end metric it writes both sides' medians, quartiles and
values with the unit, and `wins`, the number of pairs in which the
change's value is the better one; it also writes the failed operations,
the CPU count, and the Python and numpy versions. A speed claim quotes
such a file alone.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SEED = 0


def run_once(root, workload, seconds):
    """The last JSON line of one untraced benchmark run of the checkout `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    """Median, quartiles (inclusive method) and every value."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def record(seconds, roots, runs, run=run_once):
    """Every end-to-end value and the failed operations of each workload,
    per side: `runs` rounds that each run every workload once on every
    side in `roots` ({side: checkout}), the first side going first in even
    rounds and last in odd ones. Returns ({side: {workload: {metric:
    [values]}}}, {side: {workload: failed}})."""
    names = [m["name"] for m in SPEC["end_to_end"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    values = {side: {w: {name: [] for name in names} for w in workloads} for side in roots}
    failed = {side: dict.fromkeys(workloads, 0) for side in roots}
    for r in range(runs):
        for workload in workloads:
            for side in (list(roots) if r % 2 == 0 else list(roots)[::-1]):
                result = run(roots[side], workload, seconds)
                failed[side][workload] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[side][workload][name].append(metric["value"])
                print(f"run {r + 1}/{runs} {workload} {side}: " + ", ".join(
                    f"{name} {metric['value']:.4g}"
                    for name, metric in result["metrics"].items()), flush=True)
    return values, failed


def workload_table(values, failed, parent_values):
    """{workload: {metric: summary, "failed": n}}; each metric also holds
    the parent's summary and the change's `wins`."""
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    table = {}
    for workload, metrics in values.items():
        table[workload] = {}
        for name, vals in metrics.items():
            before = parent_values[workload][name]
            lower = spec[name]["better"] == "lower"
            table[workload][name] = {
                "unit": spec[name]["unit"], **summary(vals),
                "better": spec[name]["better"], "parent": summary(before),
                "wins": sum(after < was if lower else after > was
                            for after, was in zip(vals, before))}
        table[workload]["failed"] = failed[workload]
    return table


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", metavar="REV", required=True,
                        help="commit to run in alternating pairs with this checkout")
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        checkout = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(checkout), rev)
        try:
            values, failed = record(seconds, {"parent": checkout, "change": ROOT}, PAIRS)
        finally:
            git("worktree", "remove", "--force", str(checkout))
    payload = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {SEED} "
                   f"--seconds {seconds:g} --trace 0",
        "runs": PAIRS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parent": {"rev": rev, "failed": failed["parent"]},
        "workloads": workload_table(values["change"], failed["change"], values["parent"]),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
