"""SRV2 — sharded-server scaling under concurrent clients.

Drives the sharded :class:`~repro.server.EOSServer` (in-process, over
real TCP sockets) at 1 and N shards with the same client load and
reports requests/second plus p50/p99 latency per (shards, clients)
level.

Every shard's volume sits behind a
:class:`~repro.storage.timing.TimedDisk`: a modelled seek plus a
per-page transfer time is *slept* on every accounted run, so the bench
measures what the paper's independent-volume design actually buys —
with one shard every request serializes on one disk arm, while N
shared-nothing shards overlap their service time like N arms.  Each
client reads objects living on one shard (workload affinity), so at
8 clients x 4 shards every arm stays busy and throughput approaches
4x the 1-shard ceiling.  The in-bench shape assert requires >= 3x.
"""

import random
import threading
import time

from common import ExperimentReport

from repro.server import EOSClient, ServerThread
from repro.server.sharding import ShardSet
from repro.storage.timing import TimedDisk

PAGE = 512
PAGES_PER_SHARD = 6144
OBJECT_BYTES = 64 * 1024
N_OBJECTS = 16
CHUNK = 4 * PAGE
OPS_PER_CLIENT = 30
SHARD_COUNTS = (1, 4)
CLIENT_COUNTS = (1, 2, 4, 8)
SEEK_MS = 2.0
TRANSFER_MS_PER_PAGE = 0.05
SCALING_FLOOR = 3.0


def _disk_factory(_index):
    return TimedDisk(
        PAGES_PER_SHARD,
        PAGE,
        seek_ms=SEEK_MS,
        transfer_ms_per_page=TRANSFER_MS_PER_PAGE,
    )


def _percentile(sorted_ms, q):
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, round(q * (len(sorted_ms) - 1)))
    return sorted_ms[idx]


def _client_worker(port, oids, client_id, latencies_out, errors):
    """One client: random chunk reads over its assigned objects."""
    rng = random.Random(client_id)
    lat = []
    try:
        with EOSClient(port=port, timeout=120.0) as c:
            for _ in range(OPS_PER_CLIENT):
                oid = oids[rng.randrange(len(oids))]
                off = rng.randrange(0, OBJECT_BYTES - CHUNK)
                t0 = time.perf_counter()
                data = c.op_read(oid, offset=off, length=CHUNK)
                lat.append((time.perf_counter() - t0) * 1000.0)
                if len(data) != CHUNK:
                    raise AssertionError(f"short read of oid {oid} at {off}")
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(f"client {client_id}: {exc}")
    latencies_out.extend(lat)


def run_level(port, oids_by_shard, n_shards, n_clients):
    """Run one concurrency level; returns (req/s, p50 ms, p99 ms).

    Client ``i`` reads the objects living on shard ``i % n_shards``, so
    the offered load spreads evenly over the arms.
    """
    latencies: list[float] = []
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(port, oids_by_shard[i % n_shards], i, latencies, errors),
            daemon=True,
        )
        for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(240)
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


def run_config(n_shards):
    """All client levels against one shard count; returns bench rows."""
    shardset = ShardSet.create(
        n_shards, PAGES_PER_SHARD, PAGE, disk_factory=_disk_factory
    )
    payload = bytes(i % 251 for i in range(OBJECT_BYTES))
    rows = []
    try:
        with ServerThread(shards=shardset, port=0, max_inflight=64) as srv:
            with EOSClient(port=srv.port, timeout=120.0) as admin:
                oids = [
                    admin.op_create(payload, size_hint=OBJECT_BYTES)
                    for _ in range(N_OBJECTS)
                ]
            oids_by_shard = {
                s: [oid for oid in oids if oid % n_shards == s]
                for s in range(n_shards)
            }
            # Least-loaded placement must have spread the objects evenly.
            assert all(
                len(group) == N_OBJECTS // n_shards
                for group in oids_by_shard.values()
            )
            for n in CLIENT_COUNTS:
                rows.append(
                    (n_shards, n, *run_level(srv.port, oids_by_shard, n_shards, n))
                )
    finally:
        shardset.close()
    return rows


def run_all():
    rows = []
    for n_shards in SHARD_COUNTS:
        rows.extend(run_config(n_shards))
    return rows


def test_sharded_scaling(benchmark):
    t0 = time.perf_counter()
    rows = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = ExperimentReport(
        "SRV2",
        f"Sharded server scaling on timed disks ({SEEK_MS} ms seek, "
        f"{TRANSFER_MS_PER_PAGE} ms/page), {CHUNK // 1024} KB random reads",
        ["shards", "clients", "req/s", "p50 ms", "p99 ms"],
        page_size=PAGE,
    )
    report.set_params(
        object_bytes=OBJECT_BYTES,
        n_objects=N_OBJECTS,
        chunk_bytes=CHUNK,
        ops_per_client=OPS_PER_CLIENT,
        seek_ms=SEEK_MS,
        transfer_ms_per_page=TRANSFER_MS_PER_PAGE,
        shard_counts=",".join(str(n) for n in SHARD_COUNTS),
        client_counts=",".join(str(n) for n in CLIENT_COUNTS),
    )
    report.set_wall_ms(wall_ms)
    by_level = {}
    for n_shards, n_clients, rps, p50, p99 in rows:
        report.add_row(
            [n_shards, n_clients, round(rps), round(p50, 2), round(p99, 2)]
        )
        by_level[(n_shards, n_clients)] = rps
    max_shards = max(SHARD_COUNTS)
    max_clients = max(CLIENT_COUNTS)
    scaling = by_level[(max_shards, max_clients)] / by_level[(1, max_clients)]
    report.note(
        f"{max_shards}-shard speedup over 1 shard at {max_clients} clients: "
        f"{scaling:.2f}x (floor {SCALING_FLOOR}x) — shared-nothing shards "
        "overlap disk service time like independent arms"
    )
    report.emit()
    # Shape: the whole point of sharding.  One disk arm serializes every
    # request; N arms must overlap to near-linear speedup.
    assert scaling >= SCALING_FLOOR, (
        f"{max_shards} shards gave only {scaling:.2f}x the 1-shard "
        f"throughput at {max_clients} clients (floor {SCALING_FLOOR}x)"
    )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
