"""The object server: serve a database over TCP and talk to it.

Run with::

    python examples/object_server.py

Starts an in-process :class:`~repro.server.ServerThread` on an
ephemeral port, then drives it from plain blocking clients: a CRUD
round trip, three concurrent writers interleaving appends on one
shared object, and a look at the request metrics the server records
through the observability registry.  The same client functions then
run unchanged against a 4-shard server — sharding is invisible on the
wire.
"""

import struct
import threading

from repro.api import EOSDatabase
from repro.obs import Observability
from repro.server import EOSClient, ServerThread, ShardSet


def crud_roundtrip(port):
    with EOSClient(port=port) as c:
        print(f"  ping: {c.ping(b'hello')!r} echoed")
        oid = c.op_create(b"The quick brown fox", size_hint=4096)
        c.op_append(oid, b" jumps over the lazy dog")
        c.op_insert(oid, b" really", offset=19)
        size = c.op_size(oid)
        text = c.op_read(oid, offset=0, length=size)
        print(f"  oid {oid}: {size} bytes -> {text.decode()!r}")
        stat = c.op_stat(oid)
        print(
            f"  stat: {stat.segments} segment(s), height {stat.height}, "
            f"root page {stat.root_page}"
        )
        assert text == b"The quick brown fox really jumps over the lazy dog"
        return oid


def concurrent_appenders(port, n_writers=3, rounds=8):
    """Each writer appends tagged 32-byte chunks to one shared object."""
    with EOSClient(port=port) as c:
        shared = c.op_create(size_hint=n_writers * rounds * 32)

    def writer(wid):
        with EOSClient(port=port) as c:
            for seq in range(rounds):
                chunk = struct.pack("<II", wid, seq) + bytes(24)
                c.op_append(shared, chunk)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    with EOSClient(port=port) as c:
        blob = c.op_read(shared, offset=0, length=c.op_size(shared))
    # Appends serialized on the object's root lock: every chunk landed
    # whole, none torn, none lost.
    tags = sorted(
        struct.unpack_from("<II", blob, off) for off in range(0, len(blob), 32)
    )
    assert tags == sorted(
        (w, s) for w in range(n_writers) for s in range(rounds)
    )
    print(
        f"  {n_writers} writers x {rounds} appends -> {len(blob)} bytes, "
        f"all {len(tags)} chunks intact"
    )


def sharded_server() -> None:
    """The identical workload against 4 shared-nothing shards."""
    shardset = ShardSet.create(4, num_pages=2048, page_size=512)
    with ServerThread(shards=shardset, port=0) as srv:
        print(f"serving 4 shards on 127.0.0.1:{srv.port}")
        oid = crud_roundtrip(srv.port)
        concurrent_appenders(srv.port)
        print(f"  oid {oid} lives on shard {oid % 4} (oid mod n_shards)")
        requests = srv.server.obs.metrics.counter("server.requests").value
        per_shard = {
            shard.index: shard.created for shard in shardset.shards
        }
        print(
            f"  served {requests} requests; objects per shard {per_shard}"
        )
    assert srv.leaked_tasks == []
    shardset.close()


def main() -> None:
    db = EOSDatabase.create(num_pages=4096, page_size=512)
    db.obs.enable()  # per-request counters and latency histograms
    with ServerThread(db, port=0) as srv:
        print(f"serving on 127.0.0.1:{srv.port}")
        crud_roundtrip(srv.port)
        concurrent_appenders(srv.port)

        # Span trees are built only for requests that ask for them: a
        # client with a live tracer sets FLAG_TRACE on the wire.
        with EOSClient(port=srv.port, obs=Observability().enable()) as traced:
            traced.ping(b"traced")

        metrics = db.stats.metrics()
        lat = metrics["server.latency_ms"]
        print(
            f"  served {metrics['server.requests']} requests "
            f"({metrics['span.server.request']} traced), "
            f"mean latency {lat['sum'] / lat['count']:.2f} ms"
        )
    assert srv.leaked_tasks == []
    db.close()
    print("server stopped cleanly, no tasks leaked")

    sharded_server()
    print("sharded server stopped cleanly, no tasks leaked")


if __name__ == "__main__":
    main()
