"""Exposition: the live status document and the metrics HTTP sidecar.

Two consumers want to look at a running server without attaching a
debugger: the METRICS opcode (served on the object-server port itself,
before admission control) and the optional HTTP sidecar this module
provides.  Both render the same :func:`status_snapshot` — one JSON
document combining the server's scheduling state, the metrics registry,
the ``db.stats`` counters and the volume's space accounting.

:class:`MetricsHTTPServer` is a stdlib ``ThreadingHTTPServer`` on its
own daemon thread serving

* ``GET /metrics`` — Prometheus text format
  (:func:`repro.obs.prom.render_prometheus` over the live registry,
  plus space, uptime and disk-counter (``disk.seeks`` …) gauges grafted
  from the status document);
* ``GET /healthz`` — a small JSON liveness document (status, uptime,
  inflight, rejection count).

The sidecar holds no state of its own: every request recomputes from
the live registry, so a scrape always sees current values.  Space
accounting walks the buddy directory (real page reads), so it is taken
under ``db.op_lock`` — a scrape is a cheap reader, not a stop-the-world
event.
"""

from __future__ import annotations

import http.server
import json
import threading
import time

from repro.obs.prom import render_prometheus


def _space_doc(db) -> dict:
    # free_pages() reads buddy directory pages, so serialise with the op
    # entry points rather than racing them.  Walks pool/buddy state:
    # when the database belongs to a shard this must run on the shard
    # worker — call it via _space_for / shard.submit, never directly.
    with db.op_lock:
        free = db.free_pages()
    total = db.volume.total_data_pages
    return {
        "free_pages": free,
        "total_pages": total,
        "utilization": round(1.0 - free / total, 4) if total else 0.0,
    }


def _space_for(db, server) -> dict:
    """A space document, routed through the owning shard's worker.

    The exposition endpoints run on sidecar/executor threads; a served
    database's pool and buddy are confined to its live shard's worker,
    so the walk is submitted there (EOS008).  Unserved databases have no
    worker and are walked inline.
    """
    shard_set = getattr(server, "shards", None)
    for shard in shard_set.shards if shard_set is not None else ():
        if shard.db is db and shard.alive:
            return shard.submit(_space_doc, db).result()
    return _space_doc(db)


def status_snapshot(db, server=None, *, include_space: bool = True) -> dict:
    """One JSON-ready document describing a database (and its server).

    ``server`` is duck-typed (anything with the
    :class:`~repro.server.server.EOSServer` scheduling attributes);
    pass None to snapshot a database that is not being served.  For a
    multi-shard server pass ``db=None``: the document then carries a
    per-shard ``shards`` list (each entry with that shard's stats and
    space) plus the fleet-aggregated ``space``; its metrics come from
    the coordinator's registry.  The single-database document keeps its
    pre-sharding shape exactly.
    """
    doc: dict = {"ts": round(time.time(), 3)}
    shard_set = getattr(server, "shards", None) if db is None else None
    if server is not None:
        started = getattr(server, "started_at", 0.0)
        doc["server"] = {
            "host": server.host,
            "port": server.port,
            "inflight": server.inflight,
            "write_queued": server.write_queued,
            "max_inflight": server.max_inflight,
            "max_write_queue": server.max_write_queue,
            "uptime_s": round(time.time() - started, 3) if started else 0.0,
            "flight": {
                "entries": len(server.flight),
                "dumps": server.flight.dumps,
                "last_dump": server.flight.last_dump_path,
            },
        }
        if shard_set is not None:
            doc["server"]["shards"] = shard_set.n_shards
    monitor = getattr(server, "health", None)
    if monitor is not None:
        # The HEALTH section: the monitor's cached last tick (never a
        # fresh walk — a scrape must stay cheap) plus the heat top-k.
        doc["health"] = monitor.status_doc()
    compactor = getattr(server, "compactor", None)
    if compactor is not None:
        # The COMPACTION section: cached per-shard totals and the last
        # tick's progress docs — again no fresh walk on the scrape path.
        doc["compaction"] = compactor.status_doc()
    if db is not None:
        doc["metrics"] = db.obs.metrics.snapshot()
        try:
            if db.is_closed:
                doc["closed"] = True
                return doc
            doc["stats"] = db.stats.snapshot().as_dict()
            if include_space:
                doc["space"] = _space_for(db, server)
        except Exception as exc:  # a snapshot must never take the server down
            doc["error"] = f"{exc.__class__.__name__}: {exc}"
        return doc

    # Multi-shard: per-shard documents plus the aggregate space rollup.
    doc["metrics"] = server.obs.metrics.snapshot()
    shard_docs: list[dict] = []
    total_free = total_pages = 0
    for shard in shard_set.shards:
        sdoc: dict = {"shard": shard.index, "alive": shard.alive}
        try:
            if shard.db.is_closed:
                sdoc["closed"] = True
            else:
                sdoc["stats"] = shard.db.stats.snapshot().as_dict()
                if include_space:
                    # The walk touches this shard's pool/buddy: run it
                    # on the owning worker (a dead shard raises
                    # ShardUnavailable into the per-shard error slot).
                    sdoc["space"] = shard.submit(_space_doc, shard.db).result()
                    total_free += sdoc["space"]["free_pages"]
                    total_pages += sdoc["space"]["total_pages"]
        except Exception as exc:  # one sick shard must not hide the rest
            sdoc["error"] = f"{exc.__class__.__name__}: {exc}"
        shard_docs.append(sdoc)
    doc["shards"] = shard_docs
    if include_space and total_pages:
        doc["space"] = {
            "free_pages": total_free,
            "total_pages": total_pages,
            "utilization": round(1.0 - total_free / total_pages, 4),
        }
    return doc


def _graft_stats(out: dict, stats: dict, label: str = "") -> None:
    """Buffer gauges and the disk's ``IOStats`` counters from one
    ``db.stats`` document (read at scrape time, never fed per transfer)."""
    out[f"buffer.hit_ratio{label}"] = stats["buffer"]["hit_ratio"]
    out[f"buffer.decodes{label}"] = stats["buffer"]["decodes"]
    for name, value in stats["io"].items():
        out[f"disk.{name}{label}"] = value


def gauges_from_status(status: dict) -> dict[str, float]:
    """Registry-external gauges for the Prometheus rendering."""
    out: dict[str, float] = {}
    server = status.get("server")
    if server:
        out["server.uptime_seconds"] = server["uptime_s"]
        out["server.max_inflight"] = server["max_inflight"]
        out["server.flight_entries"] = server["flight"]["entries"]
        out["server.flight_dumps"] = server["flight"]["dumps"]
    space = status.get("space")
    if space:
        out["buddy.free_pages"] = space["free_pages"]
        out["buddy.total_pages"] = space["total_pages"]
        out["buddy.utilization"] = space["utilization"]
    if status.get("stats"):
        _graft_stats(out, status["stats"])
    health = status.get("health")
    if health:
        for sample in health.get("samples", ()):
            if "error" in sample:
                continue
            shard = sample.get("shard")
            tag = '{shard="%d"}' % shard if shard is not None else ""
            out[f"frag_index{tag}"] = sample["frag_index"]
            out[f"free_extent_largest{tag}"] = sample["largest_free_extent"]
            out[f"free_extent_count{tag}"] = sample["free_extent_count"]
            for edge, count in sample.get("free_extent_histogram", {}).items():
                if shard is not None:
                    btag = '{shard="%d",le="%s"}' % (shard, edge)
                else:
                    btag = '{le="%s"}' % edge
                # A snapshot histogram (per-bucket counts at the last
                # sample), not a cumulative Prometheus histogram.
                out[f"free_extents{btag}"] = count
        for row in health.get("heat", ()):
            out['object_heat{oid="%d",kind="read"}' % row["oid"]] = row["read"]
            out['object_heat{oid="%d",kind="write"}' % row["oid"]] = row["write"]
    compaction = status.get("compaction")
    if compaction:
        out["compaction.ticks"] = compaction["runs"]
        out["compaction.paused_ticks"] = compaction["paused_ticks"]
        out["compaction.backpressure_pauses"] = compaction[
            "backpressure_pauses"
        ]
        rows = list(compaction.get("per_shard", ()))
        totals = compaction.get("totals")
        if totals is not None:
            rows.append({"shard": None, **totals})
        for row in rows:
            shard = row["shard"]
            tag = '{shard="%d"}' % shard if shard is not None else ""
            out[f"compaction.runs{tag}"] = row["runs"]
            out[f"compaction.pages_moved{tag}"] = row["pages_moved"]
            out[f"compaction.objects_moved{tag}"] = row["objects_moved"]
            out[f"compaction.frag_index{tag}"] = row["frag_index"]
            # Cumulative frag-index improvement across this target's
            # passes (the frag-delta series).
            out[f"compaction.frag_delta{tag}"] = row["frag_delta"]
    if server and "shards" in server:
        out["server.shards"] = server["shards"]
    for sdoc in status.get("shards", ()):
        # Per-shard series carry a shard label; metric_name() keeps the
        # label suffix verbatim when sanitizing.
        label = '{shard="%d"}' % sdoc["shard"]
        down = not sdoc.get("alive") or sdoc.get("closed") or "error" in sdoc
        out[f"shard.up{label}"] = 0.0 if down else 1.0
        sspace = sdoc.get("space")
        if sspace:
            out[f"buddy.free_pages{label}"] = sspace["free_pages"]
            out[f"buddy.utilization{label}"] = sspace["utilization"]
        if sdoc.get("stats"):
            _graft_stats(out, sdoc["stats"], label)
    out["up"] = 0.0 if status.get("closed") else 1.0
    return out


class _Handler(http.server.BaseHTTPRequestHandler):
    # The sidecar is diagnostics, not an access log.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        sidecar: "MetricsHTTPServer" = self.server.sidecar  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    sidecar.render_metrics().encode("utf-8"),
                )
            elif path == "/healthz":
                self._send(
                    200,
                    "application/json",
                    json.dumps(sidecar.health()).encode("utf-8"),
                )
            else:
                self._send(404, "text/plain", b"try /metrics or /healthz\n")
        except BrokenPipeError:
            pass


class MetricsHTTPServer:
    """A daemon-thread HTTP sidecar exposing ``/metrics`` and ``/healthz``."""

    def __init__(self, db, server=None, host: str = "127.0.0.1", port: int = 0) -> None:
        # A multi-shard EOSServer has no single database; pass db=None
        # and the sidecar renders from the coordinator's registry with
        # per-shard series from the status document.
        if db is None and server is not None:
            db = getattr(server, "db", None)
        self.db = db
        self.server = server
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self._httpd: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _registry(self):
        if self.db is not None:
            return self.db.obs.metrics
        return self.server.obs.metrics

    # -- rendering -----------------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus text document for the current instant."""
        status = status_snapshot(self.db, self.server)
        return render_prometheus(
            self._registry(), extra_gauges=gauges_from_status(status)
        )

    def health(self) -> dict:
        """The ``/healthz`` document."""
        status = status_snapshot(self.db, self.server, include_space=False)
        doc = {"status": "closed" if status.get("closed") else "ok"}
        server = status.get("server")
        if server:
            doc["uptime_s"] = server["uptime_s"]
            doc["inflight"] = server["inflight"]
        metrics = status.get("metrics", {})
        doc["requests"] = metrics.get("server.requests", 0)
        doc["rejections"] = metrics.get("server.rejections", 0)
        return doc

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsHTTPServer":
        """Bind and serve on a daemon thread (idempotent); returns self."""
        if self._httpd is not None:
            return self
        httpd = http.server.ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.sidecar = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="eos-metrics-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the sidecar down (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
