"""Smoke test of the benchmark at tiny size (--seconds 1).

Run from the repository root:

  python3 -m pytest -q perfbench/test_smoke.py

It is outside the package's test paths, so a plain `pytest` does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    assert record_line.startswith("record ")
    return json.loads(record_line[len("record "):]), json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    record, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    assert len(record["inputs_sha256"]) == 64
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first = bench("oracle_verify", 1)[1]["metrics"]
    second = bench("oracle_verify", 1)[1]["metrics"]
    for name in ("symdiff.differentiate.calls", "symdiff.build.calls",
                 "symdiff.differentiate.distinct_ratio", "exactnum.binomial.calls"):
        assert first[name]["value"] == second[name]["value"], name


def test_same_seed_same_inputs():
    a = bench("kernel_sweep", 0, seed=3)[0]
    b = bench("kernel_sweep", 1, seed=3)[0]
    c = bench("kernel_sweep", 0, seed=4)[0]
    assert a["inputs_sha256"] == b["inputs_sha256"] != c["inputs_sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
