"""The newest committed BENCH_<n>.json matches the benchmark's declaration.

It must hold, for every workload of BENCHMARK.json, exactly its end-to-end
metric names and units, plus the environment the medians came from. This
checks the file's form, not a speed.
"""

import json
import re
from pathlib import Path

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
