"""End-to-end tests for request observability on the object server.

Covers the wire-level trace propagation (one merged client→server span
tree), the METRICS/FLIGHT exposition opcodes, the HTTP metrics sidecar,
the overload path (rejection counter + flight dump), and latency
quantile sanity under concurrent clients.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EOSDatabase
from repro.errors import ServerOverloaded
from repro.obs import load_flight
from repro.obs.sinks import JsonLinesSink
from repro.obs.summary import format_tree
from repro.server import EOSClient, MetricsHTTPServer, ServerThread
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
