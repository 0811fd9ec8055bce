"""Smoke test for the e2e benchmark harness (``pytest benchmarks/e2e``).

Kept outside the tier-1 ``testpaths``: it runs every workload's quick
script end to end (about a minute in total) and the repeatability
self-check, and holds the harness to what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_command_names_this_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = result_of(run("--workload", workload, "--quick", "--seed", "3"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(run("--workload", "served_mix", "--quick", "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["server.execute_us_per_req"]["value"] > 0
    trace = ROOT / "benchmarks" / "results" / "e2e" / "trace_served_mix.jsonl"
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["spans_written"] > 0


def test_selfcheck_passes():
    done = run("--selfcheck")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    assert done.stdout.strip().endswith("selfcheck ok")
