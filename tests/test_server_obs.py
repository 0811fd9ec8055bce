"""End-to-end tests for request observability on the object server.

Covers the per-request record contract (one fixed record per request,
span trees only for traced requests), the wire-level trace propagation
(one merged client→server span tree), the METRICS/FLIGHT exposition
opcodes, the HTTP metrics sidecar, the overload path (rejection counter
+ flight dump), and latency quantile sanity under concurrent clients.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import ServerOverloaded
from repro.obs import Observability, RingSink, load_flight
from repro.obs.sinks import JsonLinesSink
from repro.obs.summary import format_tree
from repro.server import EOSClient, MetricsHTTPServer, ServerThread
from repro.server.sharding import ShardSet
from repro.tools import tracefmt

PAGE = 512


def make_db(num_pages=4096, trace_path=None):
    db = EOSDatabase.create(num_pages=num_pages, page_size=PAGE)
    if trace_path is not None:
        db.obs.enable(sinks=[JsonLinesSink(trace_path)])
    else:
        db.obs.enable()
    return db


def _gated_hook(gate):
    async def hook(opcode):
        while gate["closed"]:
            await asyncio.sleep(0.005)

    return hook


def versioned_set(sinks=()):
    """The served configuration: two versioned shards."""
    config = EOSConfig(page_size=PAGE, versioning=True, version_retain=4)
    return ShardSet.create(2, 4096, PAGE, config=config, sinks=sinks)


def drive(client, n_objects=4):
    """A sequential mix of every single-object op over objects on both
    shards; returns the number of requests sent."""
    oids = [client.op_create(bytes([i]) * 3000) for i in range(n_objects)]
    for oid in oids:
        client.op_append(oid, b"a" * 2000)
        client.op_insert(oid, b"i" * 700, offset=100)
        client.op_write(oid, b"w" * 300, offset=1000)
        client.op_read(oid, offset=0, length=4000)
        client.op_size(oid)
        client.op_stat(oid)
        client.op_versions(oid)
        client.op_delete(oid, offset=10, length=900)
    return n_objects * 9


def span_names(registry):
    return sorted(k for k in registry.snapshot() if k.startswith("span."))


def assert_request_tree(spans, trace_id):
    """``server.request`` -> ``server.execute`` -> ``op.insert`` ->
    ``segio.*``, all in one trace."""
    spans = [s for s in spans if s["trace"] == trace_id]
    by_id = {s["span"]: s for s in spans}
    (root,) = [s for s in spans if s["name"] == "server.request"]
    (execute,) = [s for s in spans if s["name"] == "server.execute"]
    assert execute["parent"] == root["span"]
    (op,) = [s for s in spans if s["name"] == "op.insert"]

    def ancestors(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
            yield span["name"]

    assert "server.execute" in ancestors(op)
    segio = [s for s in spans if s["name"].startswith("segio.")]
    assert segio and any("op.insert" in ancestors(s) for s in segio)
    assert all("server.request" in ancestors(s) for s in spans if s is not root)


class TestRequestRecord:
    """One fixed record per served request; span trees only on request."""

    def test_untraced_requests_build_no_spans_and_record_their_io(self):
        shards = versioned_set()
        try:
            with ServerThread(shards=shards, port=0) as srv:
                before = [s.db.disk.stats.snapshot() for s in shards.shards]
                with EOSClient(port=srv.port) as c:
                    n = drive(c)
                after = [s.db.disk.stats.snapshot() for s in shards.shards]
                records = srv.server.flight.entries()
                assert srv.server.flight.spans() == []
            # No tracer emitted a span: span.* counters count every one.
            assert span_names(shards.obs.metrics) == []
            for shard in shards.shards:
                assert span_names(shard.db.obs.metrics) == []
                # The shard registries stay live for their own counters.
                assert shard.db.obs.metrics.snapshot()["versions.published"] > 0
            assert shards.obs.metrics.snapshot()["server.requests"] == n
            assert len(records) == n
            assert all(r["status"] == "ok" and "trace" not in r for r in records)
            for shard, b, a in zip(shards.shards, before, after):
                mine = [r["io"] for r in records if r["shard"] == shard.index]
                assert mine
                for key in ("seeks", "page_reads", "page_writes"):
                    assert sum(io[key] for io in mine) == getattr(a - b, key)
                assert (a - b).page_transfers > 0
        finally:
            shards.close()

    @pytest.mark.parametrize("user_sink", [False, True])
    def test_flag_trace_request_builds_one_tree(self, user_sink):
        sink = RingSink()
        shards = versioned_set(sinks=[sink] if user_sink else ())
        try:
            with ServerThread(shards=shards, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    oid = c.op_create(b"x" * 5000)
                client_ring = RingSink()
                # A trace-id block of its own, as enable_tracing picks.
                client_obs = Observability().enable(
                    sinks=[client_ring], first_trace_id=1 << 40
                )
                with EOSClient(port=srv.port, obs=client_obs) as traced:
                    traced.op_insert(oid, b"i" * 700, offset=100)
                ring_spans = srv.server.flight.spans()
            metrics = shards.obs.metrics.snapshot()
        finally:
            shards.close()
        (client_root,) = [
            s for s in client_ring.records if s["name"] == "client.request"
        ]
        trace_id = client_root["trace"]
        assert_request_tree(ring_spans, trace_id)
        (root,) = [
            s for s in ring_spans
            if s["name"] == "server.request" and s["trace"] == trace_id
        ]
        assert root["parent"] == client_root["span"] and root["remote_parent"]
        if user_sink:
            assert_request_tree(sink.records, trace_id)
        else:
            # Only the traced request built spans.
            assert {s["trace"] for s in ring_spans} == {trace_id}
            assert metrics["span.server.request"] == 1

    def test_a_bundle_with_a_sink_traces_every_request(self):
        sink = RingSink()
        shards = versioned_set(sinks=[sink])
        try:
            with ServerThread(shards=shards, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    n = drive(c, n_objects=2)
                records = srv.server.flight.entries()
            metrics = shards.obs.metrics.snapshot()
        finally:
            shards.close()
        roots = [s for s in sink.records if s["name"] == "server.request"]
        assert len(roots) == len(records) == n
        assert {r["trace"] for r in records} == {s["trace"] for s in roots}
        executes = {
            s["parent"] for s in sink.records if s["name"] == "server.execute"
        }
        assert executes == {s["span"] for s in roots}
        assert metrics["span.server.request"] == n


class TestTracePropagation:
    @pytest.fixture
    def traced_pair(self, tmp_path):
        """Run a traced client against a traced server; yield both files."""
        client_path = tmp_path / "client.jsonl"
        server_path = tmp_path / "server.jsonl"
        db = make_db(trace_path=server_path)
        srv = ServerThread(db, port=0).start()
        try:
            with EOSClient(port=srv.port) as c:
                c.enable_tracing(client_path)
                oid = c.op_create(b"x" * 2048)
                assert c.op_read(oid, offset=0, length=2048) == b"x" * 2048
        finally:
            assert srv.stop() == []
            db.close()  # flushes the server-side sink
        return client_path, server_path

    def test_server_roots_under_wire_trace_context(self, traced_pair):
        client_path, server_path = traced_pair
        client_spans, _, _ = tracefmt.load_trace(client_path)
        server_spans, _, _ = tracefmt.load_trace(server_path)

        client_roots = {
            s["span"]: s for s in client_spans if s["name"] == "client.request"
        }
        server_roots = [s for s in server_spans if s["name"] == "server.request"]
        assert len(client_roots) == 2 and len(server_roots) == 2
        for root in server_roots:
            # The server adopted the wire-propagated context: same trace
            # id as a client request, parent = the client's span id.
            assert root["remote_parent"] is True
            assert root["parent"] in client_roots
            assert root["trace"] == client_roots[root["parent"]]["trace"]

        client_names = {s["name"] for s in client_spans}
        assert {"client.request", "client.send", "client.recv"} <= client_names
        server_names = {s["name"] for s in server_spans}
        assert {"server.request", "server.admission", "server.encode",
                "server.execute"} <= server_names
        # Storage spans hang somewhere under the request roots.
        assert any(s["name"].startswith("op.") for s in server_spans)

    def test_merge_renders_one_tree_per_request(self, traced_pair):
        client_path, server_path = traced_pair
        client_spans, _, _ = tracefmt.load_trace(client_path)
        server_spans, _, _ = tracefmt.load_trace(server_path)
        merged = tracefmt.merge_traces(client_spans, server_spans)
        tree = format_tree(merged)
        for line in tree.splitlines():
            if "server.request" in line:
                server_indent = len(line) - len(line.lstrip())
            elif "client.request" in line:
                client_indent = len(line) - len(line.lstrip())
        # The server's tree hangs *under* the client's request span.
        assert server_indent > client_indent
        # Both requests merged: exactly two trace groups, no orphan halves.
        assert tree.count("client.request") == 2
        assert tree.count("server.request") == 2

    def test_tracefmt_cli_merge_and_filters(self, traced_pair, capsys):
        client_path, server_path = traced_pair
        assert tracefmt.main([str(client_path), "--merge", str(server_path)]) == 0
        out = capsys.readouterr().out
        assert "client.request" in out and "server.request" in out

        assert tracefmt.main(
            [str(client_path), "--merge", str(server_path), "--op", "read"]
        ) == 0
        out = capsys.readouterr().out
        # The create request's trace is filtered away, the read's kept.
        assert "opcode=read" in out
        assert "opcode=create" not in out
        assert "filters kept" in out

        assert tracefmt.main(
            [str(client_path), "--min-ms", "1e9"]
        ) == 0
        out = capsys.readouterr().out
        assert "no spans recorded" in out


class TestExposition:
    def test_metrics_opcode_document(self):
        db = make_db()
        try:
            with ServerThread(db, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    c.ping(b"x")
                    doc = c.metrics()
            # Exposition requests are not ordinary requests.
            assert doc["metrics"]["server.requests"] == 1
            assert doc["metrics"]["server.exposition"] >= 1
            assert doc["server"]["max_inflight"] > 0
            assert doc["server"]["inflight"] == 0
            assert doc["space"]["total_pages"] > 0
            assert 0.0 <= doc["space"]["utilization"] <= 1.0
            assert "io" in doc["stats"]
        finally:
            db.close()

    def test_flight_opcode_snapshot(self, tmp_path):
        db = make_db()
        try:
            with ServerThread(db, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    oid = c.op_create(b"secret-payload" * 64)
                    c.op_read(oid, offset=0, length=64)
                    text = c.flight()
            path = tmp_path / "flight.jsonl"
            path.write_text(text)
            header, entries, _ = load_flight(path)
            assert header is not None and header["kind"] == "flight_header"
            assert header["reason"] == "remote"
            assert [e["opcode"] for e in entries] == ["create", "read"]
            for entry in entries:
                assert entry["status"] == "ok"
                assert entry["ms"]["total"] >= 0.0
                # Redaction: no payload bytes anywhere in a dump.
                assert "secret-payload" not in json.dumps(entry)
        finally:
            db.close()

    def test_http_sidecar_scrape(self):
        db = make_db()
        try:
            with ServerThread(db, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    oid = c.op_create(b"y" * 1024)
                    c.op_read(oid, offset=0, length=1024)
                with MetricsHTTPServer(db, srv.server) as side:
                    base = f"http://127.0.0.1:{side.port}"
                    with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                        assert r.status == 200
                        assert r.headers["Content-Type"].startswith("text/plain")
                        body = r.read().decode("utf-8")
                    with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                        health = json.loads(r.read().decode("utf-8"))
                    with pytest.raises(urllib.error.HTTPError) as err:
                        urllib.request.urlopen(base + "/nope", timeout=10)
                    assert err.value.code == 404
        finally:
            db.close()
        assert "# TYPE eos_server_requests counter" in body
        assert "eos_server_requests 2" in body
        assert "eos_server_latency_ms_bucket" in body
        assert 'le="+Inf"' in body
        assert "eos_server_latency_ms_count 2" in body
        assert "eos_server_latency_ms_p99" in body
        assert "eos_buddy_free_pages" in body
        assert "eos_buddy_total_pages" in body
        assert "eos_buffer_hit_ratio" in body
        assert "eos_server_uptime_seconds" in body
        assert "eos_up 1.0" in body
        assert health["status"] == "ok"
        assert health["requests"] == 2
        assert health["rejections"] == 0

    def test_sidecar_reports_closed_database(self):
        db = make_db()
        side = MetricsHTTPServer(db).start()
        try:
            db.close()
            base = f"http://127.0.0.1:{side.port}"
            with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                body = r.read().decode("utf-8")
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                health = json.loads(r.read().decode("utf-8"))
            assert "eos_up 0.0" in body
            assert health["status"] == "closed"
        finally:
            side.stop()
            db.close()


class TestOverloadObservability:
    def test_rejection_counter_and_flight_dump(self, tmp_path):
        db = make_db()
        gate = {"closed": True}
        dump_dir = tmp_path / "flight"
        srv = ServerThread(
            db, port=0, max_inflight=2, op_hook=_gated_hook(gate),
            flight_dump_dir=str(dump_dir), flight_min_dump_interval=0.0,
        ).start()
        try:
            gate["closed"] = False
            with EOSClient(port=srv.port) as admin:
                oid = admin.op_create(b"shared")
            gate["closed"] = True

            errors: list[str] = []

            def held_read(i):
                try:
                    with EOSClient(port=srv.port, timeout=60.0) as c:
                        c.op_read(oid, offset=0, length=4)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(f"held client {i}: {exc}")

            threads = [
                threading.Thread(target=held_read, args=(i,), daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while srv.server.inflight < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)

            with EOSClient(port=srv.port) as extra:
                with pytest.raises(ServerOverloaded):
                    extra.op_read(oid, offset=0, length=4)

            # Exposition bypasses admission: the overloaded server still
            # answers METRICS, and the rejection has been counted.
            with EOSClient(port=srv.port) as probe:
                doc = probe.metrics()
            assert doc["metrics"]["server.rejections"] == 1
            assert doc["server"]["inflight"] == 2

            # The incident dumped the flight ring to disk.
            deadline = time.monotonic() + 5
            while not list(dump_dir.glob("flight-*-overloaded.jsonl")):
                assert time.monotonic() < deadline, "no flight dump appeared"
                time.sleep(0.01)
            dump = sorted(dump_dir.glob("flight-*-overloaded.jsonl"))[0]
            header, entries, _ = load_flight(dump)
            assert header["reason"] == "overloaded"
            rejected = [e for e in entries if e.get("status") == "overloaded"]
            assert rejected and rejected[0]["error"] == "ServerOverloaded"
            assert rejected[0]["opcode"] == "read"

            gate["closed"] = False
            for t in threads:
                t.join(30)
            assert errors == []
        finally:
            gate["closed"] = False
            assert srv.stop() == []
            db.close()


class TestLatencyQuantiles:
    def test_quantiles_sane_under_concurrent_clients(self):
        db = make_db()
        n_clients, ops = 4, 10
        try:
            with ServerThread(db, port=0, max_inflight=16) as srv:
                with EOSClient(port=srv.port) as admin:
                    oid = admin.op_create(b"z" * 8192)
                errors: list[str] = []

                def worker(i):
                    try:
                        with EOSClient(port=srv.port, timeout=30.0) as c:
                            for _ in range(ops):
                                c.op_read(oid, offset=0, length=1024)
                    except Exception as exc:  # pragma: no cover
                        errors.append(f"client {i}: {exc}")

                threads = [
                    threading.Thread(target=worker, args=(i,), daemon=True)
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert errors == []
                hist = db.obs.metrics.histogram("server.latency_ms")
                snap = hist.snapshot()
                # Unrounded estimates: the snapshot rounds to 6 decimals,
                # which can nudge a clamped p99 a hair past the raw max.
                quantiles = [hist.percentile(q) for q in (0.50, 0.95, 0.99)]
                phases = {
                    name: db.obs.metrics.histogram(name).snapshot()
                    for name in ("server.execute_ms", "server.admission_wait_ms",
                                 "server.encode_ms")
                }
        finally:
            db.close()
        assert snap["count"] == 1 + n_clients * ops
        assert snap["min"] > 0.0
        p50, p95, p99 = quantiles
        assert 0.0 < p50 <= p95 <= p99 <= snap["max"]
        # Phase histograms saw the same requests.
        for phase in phases.values():
            assert phase["count"] == snap["count"]
