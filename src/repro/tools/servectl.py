"""Operate the object server from the command line.

Subcommands::

    python -m repro.tools.servectl serve --port 7433 --pages 20000
    python -m repro.tools.servectl serve --metrics-port 9100 --trace srv.jsonl
    python -m repro.tools.servectl ping --port 7433
    python -m repro.tools.servectl put --port 7433 somefile
    python -m repro.tools.servectl get --port 7433 1 --offset 0 --length 64
    python -m repro.tools.servectl list --port 7433
    python -m repro.tools.servectl serve --health-dir eos-health
    python -m repro.tools.servectl metrics --port 7433
    python -m repro.tools.servectl health --port 7433 --watch
    python -m repro.tools.servectl top --port 7433 --interval 2
    python -m repro.tools.servectl dump-flight --port 7433 -o flight.jsonl
    python -m repro.tools.servectl bench-smoke --port 7433 --clients 4 --ops 50
    python -m repro.tools.servectl bench-smoke --spawn   # self-contained

``serve`` runs a fresh in-memory database (or ``--image`` to serve a
saved volume) until interrupted; ``--shards N`` serves N shared-nothing
shards instead (each with its own volume, buffer pool and worker thread;
``--pages`` is per shard), ``--metrics-port`` adds the Prometheus
/healthz HTTP sidecar, ``--health-dir`` starts the background
storage-health monitor (fragmentation, per-object layout and heat —
view it with ``servectl health``, optionally ``--watch``),
``--flight-dir`` is where incident flight dumps land (SIGUSR1 forces
one), and ``--trace`` writes the server's span stream to a JSON-lines
file.  ``metrics``/``top``/``dump-flight`` use
the exposition opcodes, which the server answers even while overloaded.
``bench-smoke`` drives concurrent clients through an append/read/insert
mix and verifies every byte; with ``--spawn`` it also starts the server
in-process on a background thread and fails (exit 1) if any asyncio
task leaks across server shutdown — that mode is what CI runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import struct
import sys
import threading
import time

from repro.api import EOSDatabase
from repro.errors import ReproError
from repro.server.client import EOSClient
from repro.server.expo import MetricsHTTPServer
from repro.server.server import EOSServer

DEFAULT_PORT = 7433


def _config_for(args: argparse.Namespace):
    """An EOSConfig for a fresh served volume, or None for the defaults."""
    if not getattr(args, "versioning", False):
        return None
    from repro.core.config import EOSConfig

    return EOSConfig(
        page_size=args.page_size,
        versioning=True,
        version_retain=args.version_retain,
    )


def _make_database(args: argparse.Namespace) -> EOSDatabase:
    if getattr(args, "image", None):
        db = EOSDatabase.open_file(args.image)
    else:
        db = EOSDatabase.create(
            num_pages=args.pages, page_size=args.page_size,
            config=_config_for(args),
        )
    sinks = []
    if getattr(args, "trace", None):
        from repro.obs.sinks import JsonLinesSink

        sinks.append(JsonLinesSink(args.trace))
    db.obs.enable(sinks=sinks)  # metrics always on for a served database
    return db


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _make_shardset(args: argparse.Namespace):
    from repro.server.sharding import ShardSet

    if getattr(args, "image", None):
        raise ReproError("--image serves one volume; it cannot be sharded "
                         "(use --shards 1)")
    sinks = []
    if getattr(args, "trace", None):
        from repro.obs.sinks import JsonLinesSink

        sinks.append(JsonLinesSink(args.trace))
    return ShardSet.create(
        args.shards, args.pages, args.page_size,
        config=_config_for(args), sinks=sinks,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a server in the foreground until interrupted."""
    common = dict(
        max_inflight=args.max_inflight,
        max_write_queue=args.max_write_queue,
        request_timeout=args.timeout,
        flight_dump_dir=args.flight_dir,
    )
    db = None
    shardset = None
    if args.shards > 1:
        shardset = _make_shardset(args)
        server = EOSServer(None, args.host, args.port, shards=shardset, **common)
    else:
        db = _make_database(args)
        server = EOSServer(db, args.host, args.port, **common)
    sidecar: MetricsHTTPServer | None = None
    monitor = None
    if args.health_dir is not None:
        from repro.obs.health import HealthMonitor

        # Per-shard sampling runs on each shard's worker (EOS008); the
        # single-database form walks inline under the op lock.
        targets = (
            dict(shards=shardset.shards) if shardset is not None else dict(db=db)
        )
        monitor = HealthMonitor(
            interval_s=args.health_interval,
            health_dir=args.health_dir,
            registry=server.obs.metrics,
            **targets,
        )
        server.health = monitor
        monitor.start()
    compactor = None
    if args.compact:
        from repro.compact import Compactor

        # Every substrate-touching step the compactor takes is submitted
        # to the owning shard's worker (EOS008); pacing and the
        # backpressure guard run on the compactor's own thread.
        targets = (
            dict(shards=shardset.shards) if shardset is not None else dict(db=db)
        )
        compactor = Compactor(
            monitor=monitor,
            server=server,
            interval_s=args.compact_interval,
            budget_pages_per_s=args.compact_budget,
            target_frag=args.compact_target,
            registry=server.obs.metrics,
            **targets,
        )
        server.compactor = compactor
        compactor.start()

    def dump_flight() -> None:
        path = server.dump_flight("sigusr1")
        print(f"flight dump written to {path}", flush=True)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGUSR1, dump_flight)
        except (NotImplementedError, AttributeError, ValueError):
            pass  # platform without SIGUSR1 (or a non-main thread)
        print(f"serving on {server.host}:{server.port} "
              f"({server.shards.n_shards} shard(s), "
              f"inflight cap {server.max_inflight}, "
              f"write queue {server.max_write_queue}; "
              f"flight dumps -> {args.flight_dir})", flush=True)
        if sidecar is not None:
            print(f"metrics on http://{sidecar.host}:{sidecar.port}/metrics "
                  f"(health on /healthz)", flush=True)
        if monitor is not None:
            print(f"storage-health samples every {monitor.interval_s:g}s "
                  f"-> {monitor.jsonl_path}", flush=True)
        if compactor is not None:
            print(f"online compaction every {compactor.interval_s:g}s "
                  f"(budget {compactor.budget_pages_per_s:g} pages/s, "
                  f"target frag {compactor.target_frag})", flush=True)
        await server.serve_forever()

    if args.metrics_port is not None:
        sidecar = MetricsHTTPServer(
            db, server, host=args.host, port=args.metrics_port
        ).start()
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        if compactor is not None:
            compactor.stop()
        if monitor is not None:
            monitor.stop()
        if sidecar is not None:
            sidecar.stop()
        if shardset is not None:
            shardset.close()
        else:
            db.close()
    return 0


# ---------------------------------------------------------------------------
# ping / put / get / list
# ---------------------------------------------------------------------------


def cmd_ping(args: argparse.Namespace) -> int:
    """Round-trip one PING and print the latency."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        t0 = time.perf_counter()
        client.ping(b"servectl")
        ms = (time.perf_counter() - t0) * 1000.0
    print(f"pong from {args.host}:{args.port} in {ms:.2f} ms")
    return 0


def cmd_put(args: argparse.Namespace) -> int:
    """Create an object from a file (or stdin); print its oid."""
    if args.file == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.file, "rb") as f:
            data = f.read()
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        oid = client.op_create(data, size_hint=len(data) or None)
    print(oid)
    return 0


def cmd_get(args: argparse.Namespace) -> int:
    """Print an object's bytes (or a slice) to stdout."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        length = args.length
        if length is None:
            if args.version is not None:
                length = client.op_stat(args.oid, version=args.version).size_bytes
            else:
                length = client.op_size(args.oid)
            length -= args.offset
        data = client.op_read(
            args.oid, offset=args.offset, length=max(length, 0),
            version=args.version,
        )
    if args.output:
        with open(args.output, "wb") as f:
            f.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def cmd_versions(args: argparse.Namespace) -> int:
    """Print an object's version chain as ``version<TAB>size<TAB>age``."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        chain = client.op_versions(args.oid)
    now = time.time()
    for v in chain:
        print(f"{v.version}\t{v.size_bytes}\t{now - v.commit_ts:.1f}s ago")
    print(f"({len(chain)} live versions)", file=sys.stderr)
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Run one compaction pass on every shard; print per-shard progress."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        docs = client.compact(
            target_frag=args.target_frag, max_pages=args.max_pages
        )
    failed = False
    for doc in docs:
        shard = doc.get("shard")
        label = f"shard {shard}" if shard is not None else "db"
        if "error" in doc:
            print(f"{label}: ERROR {doc['error']}", file=sys.stderr)
            failed = True
            continue
        print(
            f"{label}: moved {doc['objects_moved']} objects "
            f"({doc['pages_moved']} pages), skipped {doc['objects_skipped']}, "
            f"frag {doc['frag_before']:.4f} -> {doc['frag_after']:.4f}, "
            f"stopped: {doc['stopped']}"
        )
    return 1 if failed else 0


def cmd_list(args: argparse.Namespace) -> int:
    """Print every object as ``oid<TAB>size``."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        listing = client.op_list()
    for oid, size in listing:
        print(f"{oid}\t{size}")
    print(f"({len(listing)} objects)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# metrics / top / dump-flight
# ---------------------------------------------------------------------------


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print the server's live status document as JSON."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        doc = client.metrics()
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_dump_flight(args: argparse.Namespace) -> int:
    """Fetch the server's flight-recorder snapshot (JSON lines)."""
    with EOSClient(args.host, args.port, timeout=args.timeout) as client:
        text = client.flight()
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        header = json.loads(text.splitlines()[0])
        print(f"wrote {args.output}: {header.get('entries', 0)} request "
              f"summaries, {header.get('spans', 0)} spans")
    else:
        sys.stdout.write(text)
    return 0


def render_top(doc: dict, rate: float | None) -> str:
    """The live console view for one status document."""
    server = doc.get("server") or {}
    m = doc.get("metrics") or {}
    stats = doc.get("stats") or {}
    space = doc.get("space") or {}
    lat = m.get("server.latency_ms") or {}
    rate_s = f"{rate:8.1f} req/s" if rate is not None else "       - req/s"
    lines = [
        f"eos-server {server.get('host', '?')}:{server.get('port', '?')}"
        f"  up {server.get('uptime_s', 0.0):.1f}s",
        f"requests {m.get('server.requests', 0)}  {rate_s}"
        f"  inflight {server.get('inflight', 0)}/{server.get('max_inflight', '?')}"
        f"  writes queued {server.get('write_queued', 0)}"
        f"/{server.get('max_write_queue', '?')}"
        f"  rejections {m.get('server.rejections', 0)}"
        f"  errors {m.get('server.errors', 0)}",
        f"latency ms  p50 {lat.get('p50', 0.0):.2f}  p95 {lat.get('p95', 0.0):.2f}"
        f"  p99 {lat.get('p99', 0.0):.2f}  max {lat.get('max') or 0.0:.2f}"
        f"  (n={lat.get('count', 0)})",
    ]
    buffer = stats.get("buffer") or {}
    line = (
        f"buffer hit {buffer.get('hit_ratio', 0.0) * 100.0:.1f}%"
        f"  node decodes {buffer.get('decodes', 0)}"
    )
    if space:
        line += (
            f"  buddy free {space.get('free_pages', 0)}"
            f"/{space.get('total_pages', 0)} pages"
            f" (util {space.get('utilization', 0.0) * 100.0:.1f}%)"
        )
    alloc = stats.get("alloc") or {}
    if alloc.get("scans"):
        line += f"  scan {alloc['scan_probes'] / alloc['scans']:.1f} probes"
    lines.append(line)
    flight = server.get("flight") or {}
    lines.append(
        f"flight ring {flight.get('entries', 0)} entries, "
        f"{flight.get('dumps', 0)} dump(s)"
    )
    return "\n".join(lines)


def render_health(doc: dict) -> str:
    """The HEALTH section of a status document as a console table."""
    from repro.util.fmt import human_bytes

    health = doc.get("health") or {}
    samples = health.get("samples") or []
    if not samples:
        return ("no HEALTH section: start the server with --health-dir to "
                "enable the storage-health monitor")
    lines = [
        f"storage health  (interval {health.get('interval_s', '?')}s, "
        f"{health.get('samples_taken', 0)} sample tick(s))",
        f"{'shard':>5}  {'util%':>6}  {'frag':>5}  {'free pages':>10}  "
        f"{'largest':>8}  {'extents':>7}",
    ]
    for s in samples:
        shard = s.get("shard")
        tag = str(shard) if shard is not None else "-"
        if "error" in s:
            lines.append(f"{tag:>5}  ERROR {s['error']}")
            continue
        lines.append(
            f"{tag:>5}  {s['utilization'] * 100.0:6.1f}  "
            f"{s['frag_index']:5.2f}  {s['free_pages']:>10}  "
            f"{s['largest_free_extent']:>8}  {s['free_extent_count']:>7}"
        )
    worst = []
    for s in samples:
        for obj in (s.get("objects") or {}).get("worst", ()):
            worst.append((s.get("shard"), obj))
    worst.sort(key=lambda pair: -pair[1]["est_seeks_per_mb"])
    if worst:
        lines.append("worst layouts:")
        lines.append(
            f"  {'oid':>6}  {'shard':>5}  {'size':>10}  {'extents':>7}  "
            f"{'contig':>6}  {'seeks/MB':>8}  {'cow':>5}"
        )
        for shard, obj in worst[:10]:
            tag = str(shard) if shard is not None else "-"
            cow = obj.get("cow_sharing")
            cow_s = f"{cow:5.2f}" if cow is not None else f"{'-':>5}"
            lines.append(
                f"  {obj['oid']:>6}  {tag:>5}  "
                f"{human_bytes(obj['size_bytes']):>10}  {obj['extents']:>7}  "
                f"{obj['contiguity']:6.2f}  {obj['est_seeks_per_mb']:8.1f}  "
                f"{cow_s}"
            )
    heat = health.get("heat") or []
    if heat:
        lines.append("hottest objects (decayed op temperature):")
        for row in heat[:10]:
            lines.append(
                f"  oid {row['oid']:>6}  read {row['read']:8.2f}  "
                f"write {row['write']:8.2f}"
            )
    return "\n".join(lines)


def cmd_health(args: argparse.Namespace) -> int:
    """Storage health: one-shot table, or --watch for a live view."""
    try:
        with EOSClient(args.host, args.port, timeout=args.timeout) as client:
            while True:
                doc = client.metrics()
                if args.watch and sys.stdout.isatty():
                    sys.stdout.write("\x1b[H\x1b[J")  # clear, like top(1)
                print(render_health(doc), flush=True)
                if not args.watch:
                    has_samples = bool((doc.get("health") or {}).get("samples"))
                    return 0 if has_samples else 1
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live console view: req/s, inflight, latency quantiles, space."""
    prev: tuple[float, int] | None = None
    try:
        with EOSClient(args.host, args.port, timeout=args.timeout) as client:
            while True:
                doc = client.metrics()
                now = time.monotonic()
                requests = (doc.get("metrics") or {}).get("server.requests", 0)
                rate = None
                if prev is not None and now > prev[0]:
                    rate = (requests - prev[1]) / (now - prev[0])
                prev = (now, requests)
                if not args.once and sys.stdout.isatty():
                    sys.stdout.write("\x1b[H\x1b[J")  # clear, like top(1)
                print(render_top(doc, rate), flush=True)
                if args.once:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


# ---------------------------------------------------------------------------
# bench-smoke
# ---------------------------------------------------------------------------

_CHUNK = struct.Struct("<II")  # (client id, sequence) tag per 64-byte chunk
_CHUNK_BYTES = 64


def _chunk(client_id: int, seq: int) -> bytes:
    tag = _CHUNK.pack(client_id, seq)
    return tag + bytes((client_id * 31 + seq + i) % 251 for i in range(_CHUNK_BYTES - _CHUNK.size))


def run_smoke(
    host: str, port: int, clients: int, ops: int, *, timeout: float = 30.0
) -> tuple[int, float, list[str]]:
    """Concurrent append/read/insert smoke; returns (requests, secs, errors)."""
    errors: list[str] = []
    requests = [0] * clients
    with EOSClient(host, port, timeout=timeout) as admin:
        shared_oid = admin.op_create(size_hint=clients * ops * _CHUNK_BYTES)

    def worker(client_id: int) -> None:
        n = 0
        try:
            with EOSClient(host, port, timeout=timeout) as c:
                private_oid = c.op_create(size_hint=ops * _CHUNK_BYTES)
                n += 1
                expect = bytearray()
                for seq in range(ops):
                    piece = _chunk(client_id, seq)
                    c.op_append(private_oid, piece)
                    expect += piece
                    n += 1
                    c.op_append(shared_oid, piece)
                    n += 1
                # A mid-object insert, then verify every private byte.
                marker = _chunk(client_id, ops)
                c.op_insert(private_oid, marker, offset=len(expect) // 2)
                expect[len(expect) // 2 : len(expect) // 2] = marker
                n += 1
                got = c.op_read(private_oid, offset=0, length=len(expect))
                n += 1
                if got != bytes(expect):
                    raise ReproError(
                        f"client {client_id}: private object bytes diverged"
                    )
        except Exception as exc:
            errors.append(f"client {client_id}: {exc.__class__.__name__}: {exc}")
        finally:
            requests[client_id] = n

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout * clients)
    elapsed = time.perf_counter() - t0

    # The shared object saw every client's appends: same chunks, any order.
    with EOSClient(host, port, timeout=timeout) as admin:
        blob = admin.op_read(shared_oid, offset=0, length=admin.op_size(shared_oid))
    if not errors:
        seen = sorted(
            _CHUNK.unpack_from(blob, i) for i in range(0, len(blob), _CHUNK_BYTES)
        )
        expected = sorted(
            (cid, seq) for cid in range(clients) for seq in range(ops)
        )
        if seen != expected:
            errors.append("shared object: interleaved appends lost or torn")
    return sum(requests) + 3, elapsed, errors


def cmd_bench_smoke(args: argparse.Namespace) -> int:
    """Run the self-checking concurrent smoke load; exit 1 on failure."""
    spawned = None
    db = None
    shardset = None
    host, port = args.host, args.port
    if args.spawn:
        from repro.server.runner import ServerThread

        if args.shards > 1:
            from repro.server.sharding import ShardSet

            shardset = ShardSet.create(
                args.shards, args.pages, args.page_size,
                config=_config_for(args),
            )
            spawned = ServerThread(shards=shardset, host="127.0.0.1", port=0)
        else:
            db = EOSDatabase.create(
                num_pages=args.pages, page_size=args.page_size,
                config=_config_for(args),
            )
            db.obs.enable()
            spawned = ServerThread(db, host="127.0.0.1", port=0)
        spawned.start()
        host, port = "127.0.0.1", spawned.port
        print(f"spawned in-process server on port {port} "
              f"({args.shards} shard(s))")

    try:
        total, elapsed, errors = run_smoke(
            host, port, args.clients, args.ops, timeout=args.timeout
        )
    finally:
        leaked: list[str] = []
        if spawned is not None:
            leaked = spawned.stop()
            obs = spawned.server.obs
            handled = obs.metrics.counter("server.requests").value
            dbs = [s.db for s in shardset.shards] if shardset is not None else [db]
            reclaimed = sum(
                d.obs.metrics.counter("versions.reclaimed").value for d in dbs
            )
            print(f"server handled {handled} requests, "
                  f"versions.reclaimed {reclaimed}")
            if shardset is not None:
                shardset.close()
            elif db is not None:
                db.close()

    rate = total / elapsed if elapsed else float("inf")
    print(f"bench-smoke: {total} requests, {args.clients} clients, "
          f"{elapsed:.3f}s ({rate:.0f} req/s)")
    for err in errors:
        print(f"  FAIL {err}", file=sys.stderr)
    if leaked:
        print(f"  FAIL {len(leaked)} leaked asyncio task(s):", file=sys.stderr)
        for task in leaked:
            print(f"    {task}", file=sys.stderr)
    return 1 if errors or leaked else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="client-side socket timeout in seconds")


def _add_volume(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pages", type=int, default=20_000,
                        help="pages for a fresh in-memory volume (per shard)")
    parser.add_argument("--page-size", type=int, default=4096)
    parser.add_argument("--shards", type=int, default=1,
                        help="serve N shared-nothing shards, each with its "
                             "own volume, buffer pool and worker (default 1)")
    parser.add_argument("--versioning", action="store_true",
                        help="enable copy-on-write object versioning "
                             "(snapshot reads run lock-free)")
    parser.add_argument("--version-retain", type=int, default=8,
                        help="live versions retained per object (default 8)")


def build_parser() -> argparse.ArgumentParser:
    """The servectl argument parser (also used by the docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.servectl",
        description="operate the EOS object server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a server until interrupted")
    _add_endpoint(p)
    _add_volume(p)
    p.add_argument("--image", help="serve a volume written by EOSDatabase.save()")
    p.add_argument("--max-inflight", type=int, default=64)
    p.add_argument("--max-write-queue", type=int, default=16)
    p.add_argument("--metrics-port", type=int, default=None,
                   help="also serve Prometheus /metrics and /healthz over "
                        "HTTP on this port (0 = ephemeral)")
    p.add_argument("--flight-dir", default="eos-flight",
                   help="directory for incident flight dumps "
                        "(default ./eos-flight; SIGUSR1 forces one)")
    p.add_argument("--trace", metavar="FILE",
                   help="write the server's span stream to a JSON-lines file "
                        "(render with repro.tools.tracefmt)")
    p.add_argument("--health-dir", default=None, metavar="DIR",
                   help="enable the background storage-health monitor and "
                        "append its samples to DIR/health.jsonl")
    p.add_argument("--health-interval", type=float, default=5.0,
                   help="seconds between health samples (default 5)")
    p.add_argument("--compact", action="store_true",
                   help="run the rate-limited background compactor "
                        "(heat-guided victim selection; pauses under "
                        "foreground load)")
    p.add_argument("--compact-budget", type=float, default=256.0,
                   help="background compaction budget in pages/sec "
                        "(read + written; default 256, 0 = unthrottled)")
    p.add_argument("--compact-interval", type=float, default=30.0,
                   help="seconds between background compaction ticks "
                        "(default 30)")
    p.add_argument("--compact-target", type=float, default=0.25,
                   help="stop a tick early once the volume frag index "
                        "reaches this (default 0.25)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("ping", help="round-trip a frame")
    _add_endpoint(p)
    p.set_defaults(func=cmd_ping)

    p = sub.add_parser("put", help="store a file (or - for stdin); prints the oid")
    _add_endpoint(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="read an object to stdout (or -o FILE)")
    _add_endpoint(p)
    p.add_argument("oid", type=int)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--length", type=int, default=None,
                   help="bytes to read (default: to the end)")
    p.add_argument("--version", type=int, default=None,
                   help="read this committed version instead of the latest "
                        "(requires a versioning-enabled server)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser(
        "versions",
        help="list an object's live versions as version<TAB>size<TAB>age",
    )
    _add_endpoint(p)
    p.add_argument("oid", type=int)
    p.set_defaults(func=cmd_versions)

    p = sub.add_parser("list", help="list objects as oid<TAB>size")
    _add_endpoint(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "compact",
        help="one-shot online compaction pass on every shard",
    )
    _add_endpoint(p)
    p.add_argument("--target-frag", type=float, default=None,
                   help="stop each shard once its volume frag index "
                        "reaches this (default: compact every victim)")
    p.add_argument("--max-pages", type=int, default=None,
                   help="cap on pages written per shard")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("metrics", help="print the live status document (JSON)")
    _add_endpoint(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "health",
        help="storage health: fragmentation, per-object layout, heat",
    )
    _add_endpoint(p)
    p.add_argument("--watch", action="store_true",
                   help="refresh continuously instead of one-shot")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between --watch refreshes (default 2)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser("top", help="live req/s, inflight, latency quantiles")
    _add_endpoint(p)
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "dump-flight",
        help="fetch the server's flight-recorder ring as JSON lines",
    )
    _add_endpoint(p)
    p.add_argument("-o", "--output",
                   help="write to this file instead of stdout")
    p.set_defaults(func=cmd_dump_flight)

    p = sub.add_parser(
        "bench-smoke",
        help="concurrent append/read/insert smoke test; exit 1 on any failure",
    )
    _add_endpoint(p)
    _add_volume(p)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--ops", type=int, default=25,
                   help="append rounds per client")
    p.add_argument("--spawn", action="store_true",
                   help="start an in-process server first and check for "
                        "leaked asyncio tasks on shutdown")
    p.set_defaults(func=cmd_bench_smoke)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.tools.servectl``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"servectl: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited; conventional quiet exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        print(f"servectl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
