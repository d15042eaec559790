"""The newest committed BENCH_<n>.json matches the benchmark's declaration.

It must hold, for every workload of BENCHMARK.json, exactly its end-to-end
metric names and units, plus the environment the medians came from, each
metric's quartiles on both sides, parent and change, and the change's wins
per pair. This checks the file's form, not a speed.
"""

import json
import re
import statistics
from pathlib import Path

import bench_record

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def newest_bench_file():
    numbered = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    assert numbered, "no BENCH_<n>.json at the root of the checkout"
    return max(numbered)[1]


def test_newest_bench_file_holds_the_declared_metrics():
    bench = json.loads(newest_bench_file().read_text(encoding="utf-8"))
    assert {"cpu_count", "python", "numpy", "runs", "command"} <= set(bench)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(bench["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, metrics in bench["workloads"].items():
        assert metrics.pop("failed") == 0, workload
        assert {name: m["unit"] for name, m in metrics.items()} == expected, workload
        for name, m in metrics.items():
            assert len(m["values"]) == bench["runs"], (workload, name)
            assert m["median"] > 0, (workload, name)


def check_summary(summary, runs, where):
    assert len(summary["values"]) == runs, where
    assert summary["q1"] <= summary["median"] <= summary["q3"], where
    assert summary["median"] == statistics.median(summary["values"]), where


def test_newest_bench_file_summarizes_each_side():
    """Quartiles on both sides of the record, and the per-pair win count of
    the change."""
    bench = json.loads(newest_bench_file().read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert bench["runs"] == bench_record.PAIRS
    assert re.fullmatch(r"[0-9a-f]{40}", bench["parent"]["rev"])
    assert bench["parent"]["failed"] == dict.fromkeys(bench["workloads"], 0)
    for workload, metrics in bench["workloads"].items():
        for name, m in metrics.items():
            if name == "failed":
                continue
            check_summary(m, bench["runs"], (workload, name))
            check_summary(m["parent"], bench["runs"], (workload, name, "parent"))
            assert m["better"] == better[name]
            pairs = zip(m["values"], m["parent"]["values"])
            assert m["wins"] == sum(after < before if m["better"] == "lower"
                                    else after > before for after, before in pairs)


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def fake_run(root, workload, seconds):
        calls.append((root, workload))
        value = 1.0 if root == "change" else 2.0 + len(calls)
        return {"failed": 0, "metrics": {m["name"]: {"value": value}
                                         for m in SPEC["end_to_end"]}}

    values, failed = bench_record.record(1, {"parent": "parent", "change": "change"}, 4,
                                         run=fake_run)
    workloads = [w["name"] for w in SPEC["workloads"]]
    firsts = [calls[i][0] for i in range(0, len(calls), 2)]
    assert firsts == [side for side in ("parent", "change", "parent", "change")
                      for _ in workloads]
    assert [w for _, w in calls[::2]] == workloads * 4
    table = bench_record.workload_table(values["change"], failed["change"],
                                        values["parent"])
    for workload in workloads:
        for m in SPEC["end_to_end"]:
            entry = table[workload][m["name"]]
            assert entry["wins"] == (4 if m["better"] == "lower" else 0)
            assert len(entry["parent"]["values"]) == 4 and entry["median"] == 1.0
