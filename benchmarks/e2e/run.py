"""The repo benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload edit --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload edit --trace 1      # per-layer table
    python3 benchmarks/e2e/run.py --workload edit --quick        # ~1/20 of the script
    python3 benchmarks/e2e/run.py --selfcheck                    # repeatability proof

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` replays a prefix of the same script with the layer
wrappers of ``layers.py`` installed and prints the per-layer metrics.
The last stdout line is the result object; the line before it carries
the script hash, op counts and the machine-speed sentinel.  The exit
code is non-zero when any op failed or any byte read differed from the
content mirror.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results" / "e2e"
SETUP_REPEATS = 3
#: calib_us before and after a run may differ by this share before the
#: run is flagged as disturbed (a slow host, not a slow program).
DISTURBED_SHARE = 0.05

#: name, unit, better, bound — the ``end_to_end`` list of BENCHMARK.json.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("lat_p50_us", "us", "lower", 0.20),
    ("lat_tail_us", "us", "lower", 0.25),
    ("model_ms_per_op", "ms", "lower", 0.03),
    ("seeks_per_MB", "1/MB", "lower", 0.06),
    ("io_amp", "B/B", "lower", 0.06),
    ("space_amp", "B/B", "lower", 0.08),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_MB", "MB", "lower", 0.08),
]
#: Counts of one deterministic op sequence: exact for a given seed.
COUNT_METRICS = ("model_ms_per_op", "seeks_per_MB", "io_amp", "space_amp")


def end_to_end_metrics(workload, region, state, setup_s: float) -> dict:
    """The end-to-end metrics of one timed region (definitions: README)."""
    from measure import median, peak_rss_mb, percentile
    from repro.storage.geometry import DISK_1992
    from repro.storage.iostats import seeks_per_mb
    from workloads import PAGE_SIZE

    # Every timing is a median over blocks of ops (read loops: identical
    # passes; one-shot scripts: 1000-op blocks), which a neighbour's
    # burst shorter than half the run cannot move.  Closed-loop clients
    # add up: each contributes its own median block rate.
    n_ops = region.n_ops
    ops_per_s, p50s, tails = 0.0, [], []
    for stream in region.streams:
        rates = []
        for block in region.blocks_of(stream):
            rates.append(len(block) / sum(block))
            p50s.append(percentile(block, 0.50))
            tails.append(percentile(block, 0.99))
        ops_per_s += median(rates)
    p50, tail = median(p50s), median(tails)
    io = region.io
    return {
        "ops_per_s": ops_per_s,
        "lat_p50_us": p50 * 1e6,
        "lat_tail_us": tail * 1e6,
        "model_ms_per_op":
            DISK_1992.cost_ms(io.seeks, io.page_transfers, PAGE_SIZE) / n_ops,
        "seeks_per_MB": seeks_per_mb(io.seeks, io.page_transfers, PAGE_SIZE),
        "io_amp": io.page_transfers * PAGE_SIZE / region.user_bytes,
        "space_amp":
            (state.data_pages - state.free_pages) * PAGE_SIZE / workload.live_bytes(),
        "setup_s": setup_s,
        "peak_rss_MB": peak_rss_mb(),
    }


def end_to_end_run(workload_cls, seed: int, scale) -> tuple[dict, dict]:
    """The ``--trace 0`` run.  Set-up is repeated and its median
    reported; the timed region runs on the last volume built."""
    from measure import calibrate, median

    calib_before = calibrate()
    setup_times, attempted, failed = [], 0, 0
    workload = None
    for _ in range(1 if scale.quick else SETUP_REPEATS):
        if workload is not None:
            attempted, failed = attempted + workload.attempted, failed + workload.failed
            workload.close()
            workload = None
            gc.collect()
        t0 = time.perf_counter()
        workload = workload_cls(seed, scale)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    region = workload.run()
    state = workload.volume_state()
    metrics = end_to_end_metrics(workload, region, state, median(setup_times))
    workload.finish()
    workload.close()
    calib_after = calibrate()
    io = region.io
    info = {
        "script_hash": workload.script_hash,
        "timed_ops": region.n_ops,
        "block_ops": region.block_len,
        "tail_samples_beyond":
            min(region.block_len, *map(len, region.streams)) // 100,
        "counts": {
            "seeks": io.seeks, "page_reads": io.page_reads,
            "page_writes": io.page_writes, "user_bytes": region.user_bytes,
        },
        "setup_s_all": setup_times,
        "calib_us": [calib_before, calib_after],
        "attempted": attempted + workload.attempted,
        "failed": failed + workload.failed,
    }
    return metrics, info


def run_one(args) -> int:
    from layers import PER_LAYER, traced_run
    from measure import pin_to_last_cpu
    from workloads import WORKLOADS, Scale

    workload_cls = WORKLOADS[args.workload]
    scale = Scale(seconds=args.seconds, quick=args.quick)
    pin_to_last_cpu()
    if args.trace:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        metrics, info = traced_run(
            workload_cls, args.seed, scale,
            RESULTS_DIR / f"trace_{args.workload}.jsonl",
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, info = end_to_end_run(workload_cls, args.seed, scale)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    before, after = info["calib_us"]
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        quick=args.quick, trace=args.trace,
        disturbed=abs(after - before) / before > DISTURBED_SHARE,
    )
    attempted, failed = info["attempted"], info["failed"]
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:16.6f} {unit}")
    print(f"{'fail_ratio':34s} {failed / attempted:16.6f} 1   "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


# -- self-check --------------------------------------------------------------


def _child(*argv: str) -> tuple[dict, dict]:
    """Run this script in a fresh process; returns (info, result)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise RuntimeError(
            f"run {' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def selfcheck(seed: int) -> int:
    """Two quick runs of a seed must agree on every count and on the
    script hash; another seed must change the hash; layers a workload
    bypasses must read exactly zero."""
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        base = ("--workload", name, "--quick")
        first, first_result = _child(*base, "--seed", str(seed))
        second, second_result = _child(*base, "--seed", str(seed))
        other, _ = _child(*base, "--seed", str(seed + 1))
        _, layers = _child(*base, "--seed", str(seed), "--trace", "1")
        if first["script_hash"] != second["script_hash"]:
            problems.append(f"{name}: script hash differs between two runs of a seed")
        if first["counts"] != second["counts"]:
            problems.append(f"{name}: counts differ: {first['counts']} "
                            f"vs {second['counts']}")
        for metric in COUNT_METRICS:
            a = first_result["metrics"][metric]["value"]
            b = second_result["metrics"][metric]["value"]
            if a != b:
                problems.append(f"{name}: {metric} differs: {a!r} vs {b!r}")
        if other["script_hash"] == first["script_hash"]:
            problems.append(f"{name}: another seed produced the same script")
        zero = []
        if cls.read_only:
            zero.append("buddy.alloc_calls_per_op")
        if not cls.served:
            zero += ["versions.commits_per_op", "server.execute_us_per_req",
                     "locks.acquire_calls_per_req", "shard.submits_per_req"]
        for metric in zero:
            if layers["metrics"][metric]["value"] != 0:
                problems.append(f"{name}: {metric} should be exactly 0")
        print(f"selfcheck {name}: hash {first['script_hash'][:16]} "
              f"counts {first['counts']}")
    for problem in problems:
        print("SELFCHECK FAILED:", problem)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=["scan_aged", "point_read", "edit", "served_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="scales the fixed op counts (15 = the reference run)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="about 1/20 of the script, one set-up; bounds not applied")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required (or --selfcheck)")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between runs of a seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under test: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return selfcheck(args.seed) if args.selfcheck else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
