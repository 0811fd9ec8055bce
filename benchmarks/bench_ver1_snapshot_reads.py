"""VER1 — worker-free snapshot reads under a concurrent heavy appender.

The whole point of copy-on-write versioning is that readers of a
committed version never wait for a writer: the version's pages are
immutable and flushed, so the server answers versioned READs on its
default executor — off the shard worker and outside ``db.op_lock`` —
while writers commit new versions at full speed.

The workload is one object with a frozen 256 KB prefix.  An appender
client mutates *that same object* with a steady stream of appends —
every one a full version commit with the shard worker busy.  Readers
issue random chunk reads against the prefix, and the bench measures
read p99 in four cells:

* versioned server, reads pinned to the frozen version — idle, then
  with the appender running, in ``REPS`` back-to-back pairs.  The
  worker-free snapshot path: the minimum per-rep contended-over-idle p99
  ratio must stay within ``RATIO_CEILING`` (1.3x), asserted here and
  gated against the committed baseline by :mod:`repro.bench.regress`.
* unversioned server, plain latest reads — the same two phases as a
  control for context.  These reads queue on the shard worker behind
  the appender's commits; at this
  paced commit rate they survive too, but their degradation grows with
  writer duty where the snapshot path's does not (reported, not
  asserted).

The shard's volume sits behind a :class:`~repro.storage.timing.TimedDisk`
(the SRV2 idiom): every read pays a modelled per-page transfer time, so
read latency reflects a real disk arm rather than a dict lookup.  That
matters for measurement hygiene — everything here shares one CPython
process (and possibly one core), so a commit's interpreter work is
unavoidably stolen from whatever read overlaps it, worker or no worker.
Against a realistic multi-millisecond read service time that theft is
noise; against a microsecond dict read it would be the whole signal.
For the same reason the appender is paced to a fixed offered rate
rather than closed-loop (a closed-loop writer saturates the GIL and
time-shares every thread, measuring interpreter scheduling, not queueing),
GC is paused, and the run lowers the interpreter's thread switch
interval (a single default GIL hand-off stall is 5 ms).
"""

import gc
import random
import statistics
import sys
import threading
import time

from common import ExperimentReport

from repro.core.config import EOSConfig
from repro.server import EOSClient, ServerThread
from repro.server.sharding import ShardSet
from repro.storage.disk import DiskVolume
from repro.storage.timing import TimedDisk

PAGE = 512
PAGES = 32768
FROZEN_BYTES = 256 * 1024
CHUNK = 128 * 1024
APPEND_CHUNK = 1024
SIZE_HINT_BYTES = 384 * 1024
APPEND_PACE_S = 0.004
# The pinned snapshot must outlive every commit the appender makes, so
# retention is set beyond the run's total commit count; the reclaimer's
# bounded-retention behaviour is exercised by the test suite, not here.
RETAIN = 4096
N_READERS = 1
READS_PER_READER = 200
WARMUP_READS = 30
# One disk arm, transfer-time only: a 128 KB read is ~5 ms of modelled
# service, a 1 KB commit a fraction of that.
SEEK_MS = 0.0
TRANSFER_MS_PER_PAGE = 0.02
#: Paired idle/contended repetitions per server.  The asserted ratio is
#: the *minimum* over reps: environmental tail noise (GC, scheduler
#: jitter) inflates individual p99 samples but a genuine queueing
#: regression inflates every rep, so the min isolates the systematic
#: component the bench exists to detect.
REPS = 3
RATIO_CEILING = 1.3
SWITCH_INTERVAL_S = 0.0002


def _disk_factory(_index):
    return TimedDisk(
        DiskVolume(num_pages=PAGES, page_size=PAGE),
        seek_ms=SEEK_MS,
        transfer_ms_per_page=TRANSFER_MS_PER_PAGE,
    )


def _percentile(sorted_ms, q):
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, round(q * (len(sorted_ms) - 1)))
    return sorted_ms[idx]


def _reader_worker(port, oid, version, reader_id, latencies_out, errors):
    """One reader: random chunk reads of the object's frozen prefix."""
    rng = random.Random(reader_id)
    lat = []
    try:
        with EOSClient(port=port, timeout=120.0) as c:
            for _ in range(READS_PER_READER):
                off = rng.randrange(0, FROZEN_BYTES - CHUNK)
                t0 = time.perf_counter()
                data = c.read(oid, off, CHUNK, version=version)
                lat.append((time.perf_counter() - t0) * 1000.0)
                if len(data) != CHUNK:
                    raise AssertionError(f"short read at {off}")
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(f"reader {reader_id}: {exc}")
    latencies_out.extend(lat)


def _appender_worker(port, oid, stop, counts, errors):
    """The antagonist: paced appends to the readers' object.

    Each iteration commits one append then waits out the pace.  The
    frozen prefix is never rewritten, so latest reads of it stay
    byte-stable on the unversioned control server too.
    """
    payload = bytes(i % 253 for i in range(APPEND_CHUNK))
    try:
        with EOSClient(port=port, timeout=120.0) as c:
            while not stop.is_set():
                c.append(oid, payload)
                counts[0] += 1
                stop.wait(APPEND_PACE_S)
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(f"appender: {exc}")


def _run_phase(port, oid, version):
    """One measurement phase; returns (reads/s, p50 ms, p99 ms)."""
    latencies: list[float] = []
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_reader_worker,
            args=(port, oid, version, i, latencies, errors),
            daemon=True,
        )
        for i in range(N_READERS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(240)
    elapsed = time.perf_counter() - t0
    assert not errors, errors
    assert len(latencies) == N_READERS * READS_PER_READER
    latencies.sort()
    return (
        len(latencies) / elapsed,
        _percentile(latencies, 0.50),
        _percentile(latencies, 0.99),
    )


def _run_server(versioned):
    """One idle/contended pair on a fresh server.

    Returns ``(idle, contended, appends_per_s)`` where each phase row
    is ``(reads/s, p50 ms, p99 ms)``.  A fresh server per rep keeps
    every rep in the same allocator and chain-length regime.
    """
    cfg = None
    if versioned:
        cfg = EOSConfig(page_size=PAGE, versioning=True, version_retain=RETAIN)
    shardset = ShardSet.create(
        1, PAGES, PAGE, config=cfg, disk_factory=_disk_factory
    )
    try:
        with ServerThread(shards=shardset, port=0, max_inflight=64) as srv:
            with EOSClient(port=srv.port, timeout=120.0) as admin:
                payload = bytes(i % 251 for i in range(FROZEN_BYTES))
                oid = admin.create(payload, size_hint=SIZE_HINT_BYTES)
                frozen = None
                if versioned:
                    frozen = max(v.version for v in admin.versions(oid))
                rng = random.Random(1234)
                for _ in range(WARMUP_READS):
                    off = rng.randrange(0, FROZEN_BYTES - CHUNK)
                    admin.read(oid, off, CHUNK, version=frozen)

            idle = _run_phase(srv.port, oid, frozen)

            stop = threading.Event()
            counts = [0]
            errors: list[str] = []
            appender = threading.Thread(
                target=_appender_worker,
                args=(srv.port, oid, stop, counts, errors),
                daemon=True,
            )
            appender.start()
            time.sleep(0.15)  # let the appender reach steady state
            t0 = time.perf_counter()
            contended = _run_phase(srv.port, oid, frozen)
            append_s = counts[0] / (time.perf_counter() - t0)
            stop.set()
            appender.join(60)
            assert not errors, errors
            assert counts[0] > 0, "appender never committed a mutation"
        return idle, contended, append_s
    finally:
        shardset.close()


def _pool(rows):
    """Merge per-rep phase rows: mean rate, median p50, median p99."""
    return (
        statistics.fmean(r[0] for r in rows),
        statistics.median(r[1] for r in rows),
        statistics.median(r[2] for r in rows),
    )


def run_all():
    """All four cells; returns {(server, mode): row}, ratios, rates."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = {}
        ratios = {}
        rates = {}
        for server, versioned in (("versioned", True), ("unversioned", False)):
            idle_rows = []
            contended_rows = []
            reps = []
            append_s = 0.0
            for _ in range(REPS):
                idle, contended, append_s = _run_server(versioned)
                idle_rows.append(idle)
                contended_rows.append(contended)
                reps.append(contended[2] / idle[2] if idle[2] else 0.0)
                gc.collect()
            rows[(server, "idle")] = _pool(idle_rows)
            rows[(server, "appender")] = _pool(contended_rows)
            ratios[server] = reps
            rates[server] = append_s
        return rows, ratios, rates
    finally:
        if gc_was_enabled:
            gc.enable()
        sys.setswitchinterval(old_interval)


def test_snapshot_reads_under_appender(benchmark):
    t0 = time.perf_counter()
    rows, ratios, rates = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = ExperimentReport(
        "VER1",
        f"Snapshot-read p99 vs a concurrent appender, {CHUNK // 1024} KB "
        f"reads of a frozen prefix while the same object is appended to",
        ["server", "mode", "reads/s", "p50 ms", "p99 ms"],
        page_size=PAGE,
    )
    report.set_params(
        frozen_bytes=FROZEN_BYTES,
        chunk_bytes=CHUNK,
        append_chunk_bytes=APPEND_CHUNK,
        append_pace_ms=APPEND_PACE_S * 1000.0,
        seek_ms=SEEK_MS,
        transfer_ms_per_page=TRANSFER_MS_PER_PAGE,
        version_retain=RETAIN,
        n_readers=N_READERS,
        reads_per_reader=READS_PER_READER,
        reps=REPS,
    )
    report.set_wall_ms(wall_ms)
    for (server, mode), (rps, p50, p99) in rows.items():
        report.add_row([server, mode, round(rps), round(p50, 3), round(p99, 3)])
    ratio = min(ratios["versioned"])
    queued = min(ratios["unversioned"])
    per_rep = ", ".join(f"{r:.2f}" for r in ratios["versioned"])
    report.note(
        f"snapshot-read p99 under {rates['versioned']:.0f} commits/s = "
        f"{ratio:.2f}x idle (per rep: {per_rep}; ceiling {RATIO_CEILING}x); "
        f"worker-queued latest-read control: {queued:.2f}x — snapshot "
        "reads never touch the shard worker"
    )
    report.emit()
    # Shape: the whole point of worker-free snapshot reads.  If versioned
    # READs queued behind the appender's commits like the
    # control does, every rep's contended p99 would track commit
    # duration, not idle read latency.
    assert ratio <= RATIO_CEILING, (
        f"snapshot-read p99 degraded to {ratio:.2f}x idle in every rep "
        f"under a concurrent appender (ceiling {RATIO_CEILING}x; "
        f"per rep: {per_rep})"
    )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
