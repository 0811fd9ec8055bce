"""AGE1 — fragmentation trajectory of an aged volume, plus monitor cost.

EOS's experiments (and every bench before this one) run on *fresh*
volumes.  Real volumes age: weeks of create/append/delete churn
fragment free space, scatter object extents, and — if the allocator is
bad at coalescing — make sequential scans seek-bound.  The buddy
system's whole pitch (Section 3) is that aggressive coalescing keeps
large free segments available, so an aged volume should still place new
objects contiguously and scan at close to fresh throughput.

The run, per size mix:

1. **fresh** — :class:`~repro.workloads.aging.AgingWorkload` fills a
   fresh volume to the utilization target, then every live object is
   scanned cold-cache and the head model prices the I/O on the 1992
   geometry (modelled MB/s);
2. **churn** — epochs of seeded create/append/delete churn age the
   volume inside a utilization band.  After each epoch the
   storage-health collector records the trajectory row: fragmentation
   index, per-object est. seeks/MB, utilization, live objects and the
   requests refused so far for want of space (``out_of_space``: the
   churn deletes a random survivor instead, so two runs whose refusals
   differ age different live sets).  A
   :class:`~repro.obs.health.HealthMonitor` runs at its default
   interval *during* churn, and its duty cycle — mean sampling time
   over that interval — must stay under ``MONITOR_OVERHEAD_CEILING``
   (its share of the churn wall clock is reported, not gated: one
   sample against a phase that got faster says nothing about the
   monitor);
3. **aged** — the monitor is stopped (its pool reads would perturb the
   head model), then the surviving live set is scanned exactly like
   phase 1.  The gate: modelled aged throughput must stay at or above
   ``SCAN_RATIO_FLOOR`` of fresh.

Everything is seeded, so the trajectory rows are machine-stable and
:mod:`repro.bench.regress` gates them with zero tolerance alongside the
scan ratio.
"""

import time

from common import ExperimentReport

from repro.bench.harness import make_database
from repro.obs.health import DEFAULT_INTERVAL_S, HealthMonitor, collect_volume_health
from repro.workloads.aging import AgingWorkload

PAGE = 4096
PAGES = 8192  # 32 MB volume
SCAN_CHUNK = 16 * PAGE
TARGET_UTILIZATION = 0.55
EPOCHS = 6
OPS_PER_EPOCH = 120
MIXES = ("small", "mixed")
#: Aged-volume modelled scan throughput must stay within this fraction
#: of the fresh volume's — the buddy allocator's anti-aging guarantee.
SCAN_RATIO_FLOOR = 0.8
#: The monitor's duty cycle: mean sampling time over its default interval.
MONITOR_OVERHEAD_CEILING = 0.02


def _scan_modelled_mb_s(db, report, oids):
    """Cold-cache sequential scan of every object; head-model MB/s.

    Wall-clock MB/s on an in-memory volume measures the interpreter,
    not the layout; the head model prices the same I/O pattern on the
    report's geometry, which is what fragmentation actually taxes.
    """
    total_bytes = 0
    with db.stats.delta(cold=True) as delta:
        for oid in oids:
            size = db.op_stat(oid).size_bytes
            offset = 0
            while offset < size:
                chunk = db.op_read(
                    oid, offset=offset, length=min(SCAN_CHUNK, size - offset)
                )
                offset += len(chunk)
            total_bytes += size
    modelled_ms = report.cost_ms(delta)
    if not modelled_ms:
        return 0.0
    return (total_bytes / (1 << 20)) / (modelled_ms / 1000.0)


def _run_mix(mix, report):
    """Age one volume at one size mix; returns (rows, scan, monitor)."""
    db = make_database(page_size=PAGE, num_pages=PAGES, threshold=8)
    try:
        workload = AgingWorkload(
            db, mix=mix, seed=42, target_utilization=TARGET_UTILIZATION
        )
        workload.build()
        fresh_mb_s = _scan_modelled_mb_s(db, report, workload.live_oids())

        monitor = HealthMonitor(db=db, interval_s=DEFAULT_INTERVAL_S)
        monitor.start()
        churn_t0 = time.perf_counter()
        rows = []
        for epoch in range(1, EPOCHS + 1):
            workload.run_epoch(OPS_PER_EPOCH)
            health = collect_volume_health(db)
            rows.append(
                [
                    mix,
                    epoch,
                    round(health.utilization, 4),
                    round(health.frag_index, 4),
                    round(health.mean_seeks_per_mb(), 2),
                    len(workload.live_oids()),
                    workload.out_of_space,
                ]
            )
        churn_ms = (time.perf_counter() - churn_t0) * 1000.0
        monitor.stop()  # its pool reads would perturb the scan's head model
        monitor_stats = {
            "samples": monitor.samples_taken,
            "sample_ms": round(monitor.total_sample_ms, 3),
            "churn_ms": round(churn_ms, 1),
            "overhead": round(monitor.total_sample_ms / churn_ms, 5),
            "duty_cycle": round(
                monitor.total_sample_ms / max(1, monitor.samples_taken)
                / (DEFAULT_INTERVAL_S * 1000.0),
                7,
            ),
        }

        aged_mb_s = _scan_modelled_mb_s(db, report, workload.live_oids())
        scan = {
            "fresh_mb_s": round(fresh_mb_s, 2),
            "aged_mb_s": round(aged_mb_s, 2),
            "ratio": round(aged_mb_s / fresh_mb_s, 4) if fresh_mb_s else 0.0,
        }
        return rows, scan, monitor_stats
    finally:
        db.close()


def run_all():
    report = ExperimentReport(
        "AGE1",
        "Fragmentation and scan throughput under multi-day churn",
        ["mix", "epoch", "util", "frag index", "est seeks/MB", "live objects",
         "out of space"],
        page_size=PAGE,
    )
    scans = {}
    monitors = {}
    for mix in MIXES:
        rows, scan, monitor_stats = _run_mix(mix, report)
        for row in rows:
            report.add_row(row)
        scans[mix] = scan
        monitors[mix] = monitor_stats
    return report, scans, monitors


def test_age1_fragmentation(benchmark):
    t0 = time.perf_counter()
    report, scans, monitors = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report.set_wall_ms(wall_ms)
    report.set_params(
        target_utilization=TARGET_UTILIZATION,
        epochs=EPOCHS,
        ops_per_epoch=OPS_PER_EPOCH,
        monitor_interval_s=DEFAULT_INTERVAL_S,
        scan=scans,
        monitor=monitors,
    )
    for mix, scan in scans.items():
        report.note(
            f"{mix}: fresh {scan['fresh_mb_s']:.1f} MB/s -> aged "
            f"{scan['aged_mb_s']:.1f} MB/s modelled "
            f"({scan['ratio']:.2f}x, floor {SCAN_RATIO_FLOOR}x); monitor "
            f"sampled {monitors[mix]['samples']}x for "
            f"{monitors[mix]['sample_ms']:.1f} ms "
            f"(duty cycle {monitors[mix]['duty_cycle']:.3%}; "
            f"{monitors[mix]['overhead']:.2%} of churn, not gated)"
        )
    report.emit()
    # Shape: the buddy allocator's coalescing must keep aged placement
    # contiguous enough that scans stay near transfer-rate-bound.
    for mix, scan in scans.items():
        assert scan["ratio"] >= SCAN_RATIO_FLOOR, (
            f"{mix}: aged scan fell to {scan['ratio']:.2f}x of fresh "
            f"(floor {SCAN_RATIO_FLOOR}x): {scan}"
        )
    # The monitor must be an observer, not a tenant: at the default
    # interval, sampling occupies under 2% of the time.
    for mix, stats in monitors.items():
        assert stats["duty_cycle"] < MONITOR_OVERHEAD_CEILING, (
            f"{mix}: health sampling has a {stats['duty_cycle']:.2%} duty "
            f"cycle at the default {DEFAULT_INTERVAL_S:g}s interval "
            f"(ceiling {MONITOR_OVERHEAD_CEILING:.0%}): {stats}"
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
