"""Noise evidence for the benchmark: how far do runs of unchanged code agree?

Two experiments, both written into ``NOISE.json`` next to this file:

* ``seed_spread`` — one run per seed (``--seeds N``): for each metric the
  quartile distance over the runs as a share of their median, which is
  the spread the acceptance rule holds against the metric's bound.
* ``sets`` — ``--sets S`` sets of ``--runs R`` runs of one seed: each
  set's median and quartiles, and the largest set-to-set median gap as
  a share of the overall median.  The count metrics must not move at
  all between runs of a seed.

    python3 benchmarks/e2e/noise.py --seeds 10 --sets 3 --runs 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNT_METRICS, END_TO_END  # noqa: E402

WORKLOADS = ("scan_aged", "point_read", "edit", "served_mix")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    values = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    values["_script_hash"] = info["script_hash"]
    values["_disturbed"] = info["disturbed"]
    return values


def quartiles(values: list[float]) -> dict:
    """Python's default quartiles and their distance as a share of the
    median — the spread the acceptance rule holds against a bound."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def seed_spread(workload: str, seeds: int, seconds: float) -> dict:
    runs = []
    for seed in range(1, seeds + 1):
        runs.append(one_run(workload, seed, seconds))
        print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
    out = {"seeds": seeds, "disturbed_runs": sum(r["_disturbed"] for r in runs),
           "metrics": {}}
    for name, _, _, bound in END_TO_END:
        values = [run[name] for run in runs]
        out["metrics"][name] = {
            **quartiles(values), "bound": bound, "values": values,
        }
    return out


def repeat_sets(workload: str, sets: int, runs: int, seconds: float) -> dict:
    all_sets = []
    for index in range(sets):
        all_sets.append([one_run(workload, 1, seconds) for _ in range(runs)])
        print(f"  {workload} set {index + 1} done", file=sys.stderr, flush=True)
    flat = [run for one_set in all_sets for run in one_set]
    out = {
        "sets": sets, "runs_per_set": runs,
        "script_hashes": sorted({run["_script_hash"] for run in flat}),
        "disturbed_runs": sum(run["_disturbed"] for run in flat),
        "metrics": {},
    }
    for name, _, _, bound in END_TO_END:
        per_set = [quartiles([run[name] for run in one_set]) for one_set in all_sets]
        medians = [q["median"] for q in per_set]
        overall = statistics.median(run[name] for run in flat)
        out["metrics"][name] = {
            "per_set": per_set,
            "largest_median_gap": (max(medians) - min(medians)) / overall,
            "bound": bound,
            "identical": len({run[name] for run in flat}) == 1,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "NOISE.json"))
    args = parser.parse_args()
    doc = {"seconds": args.seconds, "seed_spread": {}, "sets": {}}
    for workload in args.workloads:
        if args.seeds:
            doc["seed_spread"][workload] = seed_spread(
                workload, args.seeds, args.seconds)
        if args.sets:
            doc["sets"][workload] = repeat_sets(
                workload, args.sets, args.runs, args.seconds)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    worst = 0
    for section, key in (("seed_spread", "spread"), ("sets", "largest_median_gap")):
        for workload, result in doc[section].items():
            for name, m in result["metrics"].items():
                flag = ""
                if name != "setup_s" or section == "sets":
                    if m[key] > m["bound"]:
                        flag, worst = "  OVER BOUND", 1
                    elif m[key] > m["bound"] / 3:
                        flag = "  over a third of the bound"
                print(f"{section:11s} {workload:11s} {name:16s} "
                      f"{m[key]:8.4f} (bound {m['bound']}){flag}")
            if section == "sets":
                for name in COUNT_METRICS:
                    if not result["metrics"][name]["identical"]:
                        print(f"sets        {workload:11s} {name:16s} NOT IDENTICAL")
                        worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
