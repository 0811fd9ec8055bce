"""AGE2 — online compaction reclaims aged-volume throughput under load.

AGE1 established that an aged volume scans slower than a fresh one and
bounded how far the buddy allocator lets it slip.  AGE2 closes the
loop: after the same seeded churn, :func:`repro.compact.compact_pass`
runs *online* — rate-limited, on a live database serving a continuous
foreground read workload — and must buy the throughput back without
taxing the foreground.

The run:

1. **fresh** — :class:`~repro.workloads.aging.AgingWorkload` fills a
   multi-space volume to the utilization target; every live object is
   scanned cold-cache and the head model prices the I/O (modelled
   MB/s), exactly as in AGE1;
2. **aged** — seeded churn epochs fragment the volume; the aged scan
   and health snapshot are recorded, and so is ``out_of_space``, the
   churn's refused requests (each deletes a random survivor instead,
   so a change in refusals changes the live set).  Churn changes the *composition*
   of the live set (survivors differ from the build set), so the
   recovery gate's baseline is **rebuilt**: the surviving objects
   copied in oid order onto a brand-new volume and scanned — the best
   layout this exact byte population can have;
3. **compact under load** — a foreground thread scans random live
   objects back-to-back (each scan timed) while the compactor runs a
   full two-phase pass (scored victims, then one space evacuation)
   paced at ``COMPACT_BUDGET_PAGES_PER_S``.  The foreground's p99
   during compaction is compared against its idle p99 measured just
   before;
4. **compacted** — the live set is scanned again like phase 1.

Three gates, asserted in-run:

* the compacted scan recovers to ≥ ``SCAN_RATIO_FLOOR`` of the rebuilt
  baseline;
* the volume frag index drops by ≥ ``FRAG_DROP_FLOOR`` of its aged
  value (the evacuation phase's free-space coalescing);
* foreground p99 during compaction stays ≤ ``P99_RATIO_CEILING`` × the
  idle p99 (the rate limiter's yield-to-foreground guarantee).

The churn and the victim plan are seeded and reads never mutate, so the
frag trajectory, est. seeks/MB, and modelled scan numbers are
machine-stable; :mod:`repro.bench.regress` gates them against the
committed baseline.  The p99 ratio is host wall-clock and is enforced
only by the in-run assert (the VER1 precedent for tail statistics).
"""

import random
import threading
import time

from common import ExperimentReport

from repro.bench.harness import make_database
from repro.compact.engine import compact_pass
from repro.compact.policy import RateLimiter
from repro.obs.health import collect_volume_health
from repro.workloads.aging import AgingWorkload

PAGE = 4096
PAGES = 8192  # 32 MB volume
#: Three 8 MB buddy spaces: the evacuation phase needs a second space
#: for the evacuees, and one emptied space is the coalesced free extent
#: the frag gate measures.
SPACE_CAPACITY = 2048
SCAN_CHUNK = 16 * PAGE
MIX = "mixed"
#: High enough that free space is scarce and shattered after churn, low
#: enough that the other spaces can absorb an evacuated space's objects.
TARGET_UTILIZATION = 0.65
EPOCHS = 6
OPS_PER_EPOCH = 120
#: Background page budget (read + written pages/sec).  Sized so the
#: compactor's op-lock holds collide with well under 1% of foreground
#: scans — the p99 gate is the proof.
COMPACT_BUDGET_PAGES_PER_S = 256.0
#: Aged-then-compacted modelled scan throughput vs. the same live set
#: rebuilt on a fresh volume.
SCAN_RATIO_FLOOR = 0.95
#: The volume frag index must drop by at least this fraction.
FRAG_DROP_FLOOR = 0.5
#: Foreground scan p99 while compacting vs. idle.
P99_RATIO_CEILING = 1.3
#: Foreground scans timed for the idle baseline.
IDLE_SCANS = 2000


def _scan_modelled_mb_s(db, report, oids):
    """Cold-cache scan of every object, each priced with a cold head.

    Pricing per object isolates what compaction owns — each object's
    own contiguity — from where *other* objects happen to sit: a
    volume-wide running-head model would credit the rebuilt baseline
    for consecutive oids landing adjacent (a creation-order artifact no
    compactor can, or should, reproduce).
    """
    total_bytes = 0
    total_ms = 0.0
    for oid in oids:
        size = db.op_stat(oid).size_bytes
        with db.stats.delta(cold=True) as delta:
            offset = 0
            while offset < size:
                chunk = db.op_read(
                    oid, offset=offset, length=min(SCAN_CHUNK, size - offset)
                )
                offset += len(chunk)
        total_ms += report.cost_ms(delta)
        total_bytes += size
    if not total_ms:
        return 0.0
    return (total_bytes / (1 << 20)) / (total_ms / 1000.0)


def _p99(samples_us):
    ordered = sorted(samples_us)
    return ordered[min(int(len(ordered) * 0.99), len(ordered) - 1)]


def _foreground_scan(db, oids, rng):
    """One timed foreground op: chunked scan of one random live object."""
    oid = oids[rng.randrange(len(oids))]
    t0 = time.perf_counter()
    size = db.op_size(oid)
    offset = 0
    while offset < size:
        chunk = db.op_read(
            oid, offset=offset, length=min(SCAN_CHUNK, size - offset)
        )
        offset += len(chunk)
    return (time.perf_counter() - t0) * 1e6


def run_all():
    report = ExperimentReport(
        "AGE2",
        "Online compaction under continuing foreground load",
        ["phase", "util", "frag index", "est seeks/MB", "modelled MB/s"],
        page_size=PAGE,
    )
    db = make_database(
        page_size=PAGE, num_pages=PAGES, threshold=8,
        space_capacity=SPACE_CAPACITY,
    )
    try:
        workload = AgingWorkload(
            db, mix=MIX, seed=42, target_utilization=TARGET_UTILIZATION
        )
        workload.build()
        fresh_mb_s = _scan_modelled_mb_s(db, report, workload.live_oids())
        fresh = collect_volume_health(db)
        report.add_row([
            "fresh", round(fresh.utilization, 4), round(fresh.frag_index, 4),
            round(fresh.mean_seeks_per_mb(), 2), round(fresh_mb_s, 2),
        ])

        for _ in range(EPOCHS):
            workload.run_epoch(OPS_PER_EPOCH)
        oids = workload.live_oids()
        aged_mb_s = _scan_modelled_mb_s(db, report, oids)
        aged = collect_volume_health(db)
        report.add_row([
            "aged", round(aged.utilization, 4), round(aged.frag_index, 4),
            round(aged.mean_seeks_per_mb(), 2), round(aged_mb_s, 2),
        ])

        # The recovery baseline: the surviving live set, copied in oid
        # order onto a brand-new identical volume — the best layout this
        # exact byte population can have.
        rebuilt_db = make_database(
            page_size=PAGE, num_pages=PAGES, threshold=8,
            space_capacity=SPACE_CAPACITY,
        )
        try:
            rebuilt_oids = [
                rebuilt_db.op_create(
                    db.get_object(oid).read_all(),
                    size_hint=db.op_size(oid) or None,
                )
                for oid in sorted(oids)
            ]
            rebuilt_mb_s = _scan_modelled_mb_s(rebuilt_db, report, rebuilt_oids)
            rebuilt = collect_volume_health(rebuilt_db)
            report.add_row([
                "rebuilt", round(rebuilt.utilization, 4),
                round(rebuilt.frag_index, 4),
                round(rebuilt.mean_seeks_per_mb(), 2), round(rebuilt_mb_s, 2),
            ])
        finally:
            rebuilt_db.close()

        # Phase 3: compact online.  Foreground scans run back-to-back on
        # this thread; the compactor paces itself on its own thread, so
        # every sample that collides with a relocation's op-lock hold
        # lands in the `during` population the p99 gate inspects.
        rng = random.Random(99)
        idle_us = [_foreground_scan(db, oids, rng) for _ in range(IDLE_SCANS)]
        done = threading.Event()
        outcome = {}

        def compact_online():
            t0 = time.perf_counter()
            outcome["report"] = compact_pass(
                db, limiter=RateLimiter(COMPACT_BUDGET_PAGES_PER_S)
            )
            outcome["wall_s"] = time.perf_counter() - t0
            done.set()

        compactor = threading.Thread(target=compact_online, name="age2-compact")
        compactor.start()
        during_us = []
        while not done.is_set():
            during_us.append(_foreground_scan(db, oids, rng))
        compactor.join()
        pass_report = outcome["report"]

        compacted_mb_s = _scan_modelled_mb_s(db, report, oids)
        compacted = collect_volume_health(db)
        report.add_row([
            "compacted", round(compacted.utilization, 4),
            round(compacted.frag_index, 4),
            round(compacted.mean_seeks_per_mb(), 2), round(compacted_mb_s, 2),
        ])

        scan = {
            "fresh_mb_s": round(fresh_mb_s, 2),
            "aged_mb_s": round(aged_mb_s, 2),
            "rebuilt_mb_s": round(rebuilt_mb_s, 2),
            "compacted_mb_s": round(compacted_mb_s, 2),
            "aged_ratio": (
                round(aged_mb_s / rebuilt_mb_s, 4) if rebuilt_mb_s else 0.0
            ),
            "compacted_ratio": (
                round(compacted_mb_s / rebuilt_mb_s, 4) if rebuilt_mb_s else 0.0
            ),
        }
        frag = {
            "aged": round(aged.frag_index, 4),
            "compacted": round(compacted.frag_index, 4),
            "drop": (
                round(1.0 - compacted.frag_index / aged.frag_index, 4)
                if aged.frag_index else 0.0
            ),
        }
        foreground = {
            "idle_p99_us": round(_p99(idle_us), 1),
            "during_p99_us": round(_p99(during_us), 1),
            "during_samples": len(during_us),
            "p99_ratio": round(_p99(during_us) / _p99(idle_us), 4),
            "compaction_wall_s": round(outcome["wall_s"], 2),
        }
        compaction = {
            "out_of_space": workload.out_of_space,
            "objects_moved": pass_report.objects_moved,
            "objects_skipped": pass_report.objects_skipped,
            "pages_moved": pass_report.pages_moved,
            "evacuated_space": pass_report.evacuated_space,
            "throttle_s": round(pass_report.throttle_s, 2),
            "stopped": pass_report.stopped,
        }
        return report, scan, frag, foreground, compaction
    finally:
        db.close()


def test_age2_compaction(benchmark):
    t0 = time.perf_counter()
    report, scan, frag, foreground, compaction = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report.set_wall_ms(wall_ms)
    report.set_params(
        target_utilization=TARGET_UTILIZATION,
        space_capacity=SPACE_CAPACITY,
        epochs=EPOCHS,
        ops_per_epoch=OPS_PER_EPOCH,
        compact_budget_pages_per_s=COMPACT_BUDGET_PAGES_PER_S,
        scan=scan,
        frag=frag,
        foreground=foreground,
        compaction=compaction,
    )
    report.note(
        f"scan: aged {scan['aged_mb_s']:.1f} -> compacted "
        f"{scan['compacted_mb_s']:.1f} MB/s modelled vs rebuilt "
        f"{scan['rebuilt_mb_s']:.1f} "
        f"({scan['compacted_ratio']:.2f}x rebuilt, floor {SCAN_RATIO_FLOOR}x)"
    )
    report.note(
        f"frag index {frag['aged']:.4f} -> {frag['compacted']:.4f} "
        f"({frag['drop']:.0%} drop, floor {FRAG_DROP_FLOOR:.0%}); "
        f"moved {compaction['objects_moved']} objects / "
        f"{compaction['pages_moved']} pages, evacuated space "
        f"{compaction['evacuated_space']}; churn refused "
        f"{compaction['out_of_space']} requests (out_of_space)"
    )
    report.note(
        f"foreground p99 {foreground['idle_p99_us']:.0f}us idle -> "
        f"{foreground['during_p99_us']:.0f}us during compaction "
        f"({foreground['p99_ratio']:.2f}x, ceiling {P99_RATIO_CEILING}x) "
        f"over {foreground['during_samples']} scans; compactor throttled "
        f"{foreground['compaction_wall_s']:.1f}s wall"
    )
    report.emit()
    # (a) Compaction must actually buy the aged throughput back.
    assert scan["compacted_ratio"] >= SCAN_RATIO_FLOOR, (
        f"compacted scan only {scan['compacted_ratio']:.3f}x of the "
        f"rebuilt baseline (floor {SCAN_RATIO_FLOOR}x): {scan}"
    )
    # (b) Free space must coalesce, not just objects defragment.
    assert frag["drop"] >= FRAG_DROP_FLOOR, (
        f"frag index dropped {frag['drop']:.0%} "
        f"(floor {FRAG_DROP_FLOOR:.0%}): {frag}"
    )
    # (c) Online means online: the foreground must not feel it.
    assert foreground["p99_ratio"] <= P99_RATIO_CEILING, (
        f"foreground p99 rose {foreground['p99_ratio']:.2f}x during "
        f"compaction (ceiling {P99_RATIO_CEILING}x): {foreground}"
    )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
