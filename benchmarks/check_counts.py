#!/usr/bin/env python3
"""Exact-count gate for the repo benchmark (ROADMAP item 4a).

For one seed a workload's ``script_hash`` and ``counts`` (seeks, page
reads, page writes, user bytes) are machine-independent and repeat bit
for bit, so CI compares them *exactly* with the committed values in
``benchmarks/results/baseline/E2E_COUNTS.json``: any difference is a
behaviour change, not noise.  Every workload of ``BENCHMARK.json`` runs
(``--quick``, seed 1, under the benchmark's own oracle); a workload
without an expected value is a failure, not a skip.  ``--update``
re-records the file — do that only in a PR that moves a count on
purpose, and say so in TRAJECTORY.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "benchmarks" / "results" / "baseline" / "E2E_COUNTS.json"


def observe(command: list[str], workload: str) -> dict:
    """One quick seed-1 run's ``script_hash`` and ``counts``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--quick", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
            return {"script_hash": info["script_hash"], "counts": info["counts"]}
    sys.exit(f"{workload}: no info line in the output\n{proc.stdout}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="re-record the expected values")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    observed = {
        w["name"]: observe(bench["command"], w["name"]) for w in bench["workloads"]
    }
    if args.update:
        EXPECTED.write_text(json.dumps(observed, indent=2) + "\n")
        return 0
    expected = json.loads(EXPECTED.read_text())
    failed = 0
    for name, got in observed.items():
        want = expected.get(name)
        print(f"{name}: {'ok' if got == want else 'MISMATCH'} {got['counts']}")
        if got != want:
            print(f"  expected {want}\n  observed {got}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
