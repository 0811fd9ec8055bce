"""SRV1 — object-server throughput under concurrent clients.

Drives a live :class:`~repro.server.EOSServer` (in-process, over real
TCP sockets) with N client threads, each issuing a mix of sequential
and random reads against a shared preloaded object, and reports
requests/second plus p50/p99 request latency per concurrency level.

The interesting shape: because the admission window is wide and the
event loop overlaps sessions, throughput should *grow* with client
count until the shard's single worker saturates — concurrency comes
from overlapping network turnarounds, not parallel page reads.
"""

import random
import threading
import time

from common import ExperimentReport

from repro.api import EOSDatabase
from repro.server import EOSClient, ServerThread

PAGE = 512
OBJECT_BYTES = 256 * 1024
CHUNK = 4 * PAGE
OPS_PER_CLIENT = 60
CLIENT_COUNTS = (1, 2, 4, 8)


def _percentile(sorted_ms, q):
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, round(q * (len(sorted_ms) - 1)))
    return sorted_ms[idx]


def _client_worker(port, oid, client_id, latencies_out, errors):
    """One client: alternate a sequential sweep with random chunk reads."""
    rng = random.Random(client_id)
    lat = []
    try:
        with EOSClient(port=port, timeout=60.0) as c:
            offset = 0
            for op in range(OPS_PER_CLIENT):
                if op % 2 == 0:  # sequential leg
                    off = offset
                    offset = (offset + CHUNK) % OBJECT_BYTES
                else:  # random leg
                    off = rng.randrange(0, OBJECT_BYTES - CHUNK)
                t0 = time.perf_counter()
                data = c.op_read(oid, offset=off, length=CHUNK)
                lat.append((time.perf_counter() - t0) * 1000.0)
                if len(data) != CHUNK:
                    raise AssertionError(f"short read at offset {off}")
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(f"client {client_id}: {exc}")
    latencies_out.extend(lat)


def run_level(port, oid, n_clients):
    """Run one concurrency level; returns (req/s, p50 ms, p99 ms)."""
    latencies: list[float] = []
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_client_worker, args=(port, oid, i, latencies, errors),
            daemon=True,
        )
        for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    elapsed = time.perf_counter() - t0
    assert not errors, errors
    n_requests = n_clients * OPS_PER_CLIENT
    assert len(latencies) == n_requests
    latencies.sort()
    return (
        n_requests / elapsed,
        _percentile(latencies, 0.50),
        _percentile(latencies, 0.99),
    )


def run_all():
    db = EOSDatabase.create(num_pages=8192, page_size=PAGE)
    db.obs.enable()
    payload = bytes(i % 251 for i in range(OBJECT_BYTES))
    rows = []
    with ServerThread(db, port=0, max_inflight=64) as srv:
        with EOSClient(port=srv.port) as admin:
            oid = admin.op_create(payload, size_hint=OBJECT_BYTES)
        for n in CLIENT_COUNTS:
            rows.append((n, *run_level(srv.port, oid, n)))
    snap = db.stats.snapshot()
    io = {
        "seeks": snap.seeks,
        "page_transfers": snap.page_transfers,
        "page_reads": snap.page_reads,
        "page_writes": snap.page_writes,
    }
    db.close()
    return rows, io


def test_server_throughput(benchmark):
    t0 = time.perf_counter()
    rows, io = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = ExperimentReport(
        "SRV1",
        f"Server read throughput, {CHUNK // 1024} KB chunks, "
        f"{OPS_PER_CLIENT} ops/client, 50/50 seq+random",
        ["clients", "req/s", "p50 ms", "p99 ms"],
        page_size=PAGE,
    )
    report.set_params(
        object_bytes=OBJECT_BYTES,
        chunk_bytes=CHUNK,
        ops_per_client=OPS_PER_CLIENT,
        client_counts=",".join(str(n) for n in CLIENT_COUNTS),
    )
    report.set_io(io)
    report.set_wall_ms(wall_ms)
    by_clients = {}
    for n, rps, p50, p99 in rows:
        report.add_row([n, round(rps), round(p50, 2), round(p99, 2)])
        by_clients[n] = rps
    # Shape, not absolutes: more clients must not collapse throughput.
    assert by_clients[8] > by_clients[1] * 0.5
    report.note(
        "single shard worker runs one op at a time: scaling comes from "
        "overlapping request turnarounds, not parallel page reads"
    )
    report.emit()

    benchmark.pedantic(run_all, rounds=1, iterations=1)
