"""The per-layer table: which functions make up a layer, the traced run,
and how spans and the program's public counters become layer metrics.

Times come from the harness's own wrappers (self time = span minus
children); counts come from counters the program already keeps
(``IOStats``, ``BufferPoolStats``, ``AllocatorStats``, ``LockManager``,
the metrics registry, ``copytrace``).  Every metric is normalised per
timed op of the traced prefix, and a layer a workload never enters
reads exactly 0.
"""

from __future__ import annotations

import gc
from array import array

from measure import calibrate, percentile
from tracing import (
    Installer, Tracer, TransferTap, wrap_run_snapshot, wrap_submit,
)
from workloads import PAGE_SIZE, Workload, sum_io

from repro.util import copytrace

#: Ops of the traced prefix: a fifth of the script, but no more than
#: this many (a read loop's fifth would be millions of spans).
TRACE_MAX_OPS = 50_000
#: Spans written to the jsonl file (all of them are aggregated).
TRACE_DUMP_SPANS = 200_000

#: (layer, module, class or None, only-these or None).  Without an
#: ``only`` list every public function the target defines is wrapped.
TARGETS = [
    ("client", "repro.server.client", "EOSClient", None),
    ("protocol", "repro.server.protocol", None, None),
    ("server", "repro.server.server", "EOSServer",
     ["_serve_request", "_execute", "_admission_check", "_acquire",
      "_run_on", "_run_snapshot"]),
    ("locks", "repro.concurrency.locks", "LockManager", None),
    ("shard", "repro.server.sharding", "Shard", ["submit", "local_oid"]),
    ("shard", "repro.server.sharding", "ShardSet",
     ["shard_for", "pick_for_create"]),
    ("api", "repro.api", "EOSDatabase", None),
    ("versions", "repro.versions.manager", "VersionManager", None),
    ("versions", "repro.versions.pager", "VersionPager", None),
    ("versions", "repro.versions.pager", "DeferredFreeBuddy", None),
    ("versions", "repro.versions.pager", "DiskNodePager", None),
    ("versions", "repro.versions.ops", None, None),
    ("core.object", "repro.core.object", "LargeObject", None),
    ("core.search", "repro.core.search", None, None),
    ("core.insert", "repro.core.insert", None, None),
    ("core.delete", "repro.core.delete", None, None),
    ("core.append", "repro.core.append", None, None),
    ("core.reshuffle", "repro.core.reshuffle", None,
     ["plan_reshuffle", "plan_segmentation"]),
    ("core.tree", "repro.core.tree", "LargeObjectTree", None),
    ("core.node", "repro.core.node", "Node", ["from_page", "to_page"]),
    ("core.pager", "repro.core.pager", "InPlacePager", None),
    ("core.segio", "repro.core.segio", "SegmentIO", None),
    ("core.segio", "repro.core.segio", None, ["allocate_and_write"]),
    ("buddy", "repro.buddy.manager", "BuddyManager", None),
    ("pool", "repro.storage.buffer", "BufferPool", None),
    ("disk", "repro.storage.disk", "DiskVolume", None),
]
SPECIAL = {
    ("repro.server.sharding", "Shard"): {"submit": wrap_submit},
    ("repro.server.server", "EOSServer"): {"_run_snapshot": wrap_run_snapshot},
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _request_key(port: int, request_id: int) -> int:
    return (port << 32) | request_id


def _client_key(args, kwargs) -> int:
    client = args[0]
    return _request_key(client._sock.getsockname()[1], client._next_id)


def _server_key(args, kwargs) -> int:
    writer = _arg(args, kwargs, 4, "writer")
    return _request_key(
        writer.get_extra_info("peername")[1], _arg(args, kwargs, 2, "request_id")
    )


def _pages_of_data(args, kwargs) -> int:
    return -(-len(_arg(args, kwargs, 2, "data")) // args[0].page_size)


#: span name -> the one integer the span records: pages moved for the
#: segment-I/O runs, the join key for the two halves of a served request.
VALUES = {
    "client.EOSClient.call": _client_key,
    "server.EOSServer._serve_request": _server_key,
    "core.segio.SegmentIO.view_run": lambda a, k: _arg(a, k, 2, "n_pages"),
    "core.segio.SegmentIO.write_run_v": lambda a, k: _arg(a, k, 3, "n_pages"),
    "core.segio.SegmentIO.write_segment": _pages_of_data,
    "core.segio.SegmentIO.read_page": lambda a, k: 1,
    "core.segio.SegmentIO.write_page": lambda a, k: 1,
    "core.segio.SegmentIO.patch_page": lambda a, k: 1,
}
SEGIO_READ_RUNS = ("core.segio.SegmentIO.view_run", "core.segio.SegmentIO.read_page")
SEGIO_WRITE_RUNS = (
    "core.segio.SegmentIO.write_run_v", "core.segio.SegmentIO.write_segment",
    "core.segio.SegmentIO.write_page", "core.segio.SegmentIO.patch_page",
)

#: name, unit, better — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = [
    ("harness.calib_us", "us", "lower"),
    ("harness.calib_drift", "1", "lower"),
    ("harness.trace_overhead", "1", "lower"),
    ("api.user_MB_per_s", "MB/s", "higher"),
    ("api.lat_p99_us", "us", "lower"),
    ("client.rtt_us_per_req", "us", "lower"),
    ("protocol.codec_us_per_req", "us", "lower"),
    ("protocol.codec_calls_per_req", "count", "lower"),
    ("server.admission_us_per_req", "us", "lower"),
    ("server.lock_wait_us_per_req", "us", "lower"),
    ("server.execute_us_per_req", "us", "lower"),
    ("server.encode_us_per_req", "us", "lower"),
    ("server.self_us_per_req", "us", "lower"),
    ("server.rejected_per_req", "count", "lower"),
    ("locks.acquire_us_per_req", "us", "lower"),
    ("locks.acquire_calls_per_req", "count", "lower"),
    ("locks.retries_per_req", "count", "lower"),
    ("shard.queue_wait_us_per_req", "us", "lower"),
    ("shard.run_us_per_req", "us", "lower"),
    ("shard.submits_per_req", "count", "lower"),
    ("api.self_us_per_op", "us", "lower"),
    ("api.calls_per_op", "count", "lower"),
    ("versions.mutate_self_us_per_op", "us", "lower"),
    ("versions.commits_per_op", "count", "lower"),
    ("versions.read_us_per_op", "us", "lower"),
    ("versions.pages_reclaimed_per_op", "count", "higher"),
    ("core.object.self_us_per_op", "us", "lower"),
    ("core.search.self_us_per_op", "us", "lower"),
    ("core.insert.self_us_per_op", "us", "lower"),
    ("core.delete.self_us_per_op", "us", "lower"),
    ("core.append.self_us_per_op", "us", "lower"),
    ("core.reshuffle.self_us_per_op", "us", "lower"),
    ("core.search.seeks_vs_paper", "1", "lower"),
    ("core.tree.descend_calls_per_op", "count", "lower"),
    ("core.tree.read_root_calls_per_op", "count", "lower"),
    ("core.tree.self_us_per_op", "us", "lower"),
    ("core.node.decode_calls_per_op", "count", "lower"),
    ("core.node.decode_us_per_op", "us", "lower"),
    ("core.node.encode_calls_per_op", "count", "lower"),
    ("core.pager.self_us_per_op", "us", "lower"),
    ("core.segio.read_runs_per_op", "count", "lower"),
    ("core.segio.write_runs_per_op", "count", "lower"),
    ("core.segio.pages_per_run", "count", "higher"),
    ("core.segio.self_us_per_op", "us", "lower"),
    ("buddy.alloc_calls_per_op", "count", "lower"),
    ("buddy.free_calls_per_op", "count", "lower"),
    ("buddy.self_us_per_op", "us", "lower"),
    ("buddy.dir_page_io_per_call", "count", "lower"),
    ("pool.fetches_per_op", "count", "lower"),
    ("pool.hit_ratio", "1", "higher"),
    ("pool.evictions_per_op", "count", "lower"),
    ("pool.self_us_per_op", "us", "lower"),
    ("disk.read_calls_per_op", "count", "lower"),
    ("disk.write_calls_per_op", "count", "lower"),
    ("disk.pages_read_per_op", "count", "lower"),
    ("disk.pages_written_per_op", "count", "lower"),
    ("disk.seeks_per_op", "count", "lower"),
    ("disk.self_us_per_op", "us", "lower"),
    ("copies_per_byte", "B/B", "lower"),
    ("volume.utilization", "1", "higher"),
    ("volume.frag_index", "1", "lower"),
    ("volume.storage_age", "1", "lower"),
]


def read_counters(workload: Workload) -> dict:
    """The program's own counters, summed over the workload's volumes."""
    out = {
        "hits": 0, "misses": 0, "evictions": 0, "allocations": 0, "frees": 0,
        "directory_loads": 0, "lock_acquisitions": 0, "versions.published": 0,
        "versions.pages_reclaimed": 0, "server.rejections": 0,
    }
    for db in workload.databases():
        out["hits"] += db.pool.stats.hits
        out["misses"] += db.pool.stats.misses
        out["evictions"] += db.pool.stats.evictions
        out["allocations"] += db.buddy.stats.allocations
        out["frees"] += db.buddy.stats.frees
        out["directory_loads"] += db.buddy.stats.directory_loads
        registry = db.obs.metrics.snapshot()
        for key in ("versions.published", "versions.pages_reclaimed"):
            out[key] += registry.get(key, 0)
    if workload.served:
        out["lock_acquisitions"] = sum(
            shard.locks.acquisitions for shard in workload.shards.shards
        )
        out["server.rejections"] = workload.admin.metrics()["metrics"].get(
            "server.rejections", 0
        )
    out["io"] = sum_io(workload.disks())
    return out


class Summary:
    """Per-name and per-layer aggregates of one trace."""

    def __init__(self, tr: Tracer) -> None:
        n_names = len(tr.names)
        self.tracer = tr
        self.count = [0] * n_names
        self.total = [0.0] * n_names       # inclusive seconds
        self.self_time = [0.0] * n_names   # seconds minus children
        self.value = [0] * n_names
        self.layer_outer: dict[str, float] = {}   # inclusive, outermost spans
        self.mutate_self = 0.0             # versions self time under a commit
        self.data_read_seeks = 0
        self.request_of = array("q", bytes(8 * len(tr)))
        self._aggregate()

    def _aggregate(self) -> None:
        tr = self.tracer
        names, layers = tr.names, tr.layers
        name, parent, start, end, value = (
            tr.name, tr.parent, tr.start, tr.end, tr.value
        )
        ids = {n: i for i, n in enumerate(names)}
        client_call = ids.get("client.EOSClient.call", -1)
        serve_request = ids.get("server.EOSServer._serve_request", -1)
        mutate = ids.get("versions.VersionManager.mutate", -1)
        disk_read = ids.get("disk.DiskVolume.view_pages", -1)
        calls: dict[int, int] = {}
        under_mutate = bytearray(len(tr))
        for i in range(len(tr)):
            nid = name[i]
            if nid == client_call:
                calls[value[i]] = i
            elif nid == serve_request and parent[i] < 0:
                parent[i] = calls.get(value[i], -1)
            up = parent[i]
            self.request_of[i] = self.request_of[up] if up >= 0 else i
            duration = end[i] - start[i]
            self.count[nid] += 1
            self.total[nid] += duration
            self.self_time[nid] += duration
            layer = layers[nid]
            if up >= 0:
                self.self_time[name[up]] -= duration
                under_mutate[i] = under_mutate[up]
            if nid == mutate:
                under_mutate[i] = 1
            if up < 0 or layers[name[up]] != layer:
                self.layer_outer[layer] = self.layer_outer.get(layer, 0.0) + duration
            if layer == "disk":
                if nid == disk_read and value[i] & 1:
                    # A data seek of the search path: the transfer was
                    # issued through segment I/O by core.search, not by
                    # the pool (index pages) or an update's read-modify-write.
                    while up >= 0 and layers[name[up]] in ("disk", "core.segio"):
                        up = parent[up]
                    if up >= 0 and layers[name[up]] == "core.search":
                        self.data_read_seeks += 1
            else:
                self.value[nid] += value[i]
        # Self time of versions spans that ran inside a commit.
        for i in range(len(tr)):
            if under_mutate[i]:
                duration = end[i] - start[i]
                if layers[name[i]] == "versions":
                    self.mutate_self += duration
                up = parent[i]
                if up >= 0 and under_mutate[up] and layers[name[up]] == "versions":
                    self.mutate_self -= duration

    def _ids(self, *span_names):
        names = self.tracer.names
        return [names.index(n) for n in span_names if n in names]

    def calls(self, *span_names) -> int:
        return sum(self.count[i] for i in self._ids(*span_names))

    def seconds(self, *span_names) -> float:
        return sum(self.total[i] for i in self._ids(*span_names))

    def values(self, *span_names) -> int:
        return sum(self.value[i] for i in self._ids(*span_names))

    def layer_self(self, layer: str) -> float:
        layers = self.tracer.layers
        return sum(t for i, t in enumerate(self.self_time) if layers[i] == layer)

    def layer_calls(self, layer: str) -> int:
        layers = self.tracer.layers
        return sum(c for i, c in enumerate(self.count) if layers[i] == layer)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(summary: Summary, n_ops: int, delta: dict, extras: dict) -> dict:
    """Every ``PER_LAYER`` metric from one traced prefix."""
    s = summary
    us = 1e6 / n_ops
    io = delta["io"]
    read_runs = s.calls(*SEGIO_READ_RUNS)
    write_runs = s.calls(*SEGIO_WRITE_RUNS)
    acquire_calls = s.calls("locks.LockManager.acquire_range")
    fetches = delta["hits"] + delta["misses"]
    out = dict(extras)
    out.update({
        "client.rtt_us_per_req": s.layer_outer.get("client", 0.0) * us,
        "protocol.codec_us_per_req": s.layer_self("protocol") * us,
        "protocol.codec_calls_per_req": s.layer_calls("protocol") / n_ops,
        "server.admission_us_per_req":
            s.seconds("server.EOSServer._admission_check") * us,
        "server.lock_wait_us_per_req": s.seconds("server.EOSServer._acquire") * us,
        "server.execute_us_per_req": s.seconds(
            "server.EOSServer._run_on", "server.EOSServer._run_snapshot") * us,
        "server.encode_us_per_req": s.seconds(
            "protocol.response_frames", "protocol.encode_error") * us,
        "server.self_us_per_req": s.layer_self("server") * us,
        "server.rejected_per_req": delta["server.rejections"] / n_ops,
        "locks.acquire_us_per_req": s.layer_outer.get("locks", 0.0) * us,
        "locks.acquire_calls_per_req": acquire_calls / n_ops,
        "locks.retries_per_req":
            max(0, acquire_calls - delta["lock_acquisitions"]) / n_ops,
        "shard.queue_wait_us_per_req": s.seconds("shard.queue_wait") * us,
        "shard.run_us_per_req": s.seconds("shard.run") * us,
        "shard.submits_per_req": s.calls("shard.queue_wait") / n_ops,
        "api.self_us_per_op": s.layer_self("api") * us,
        "api.calls_per_op": s.layer_calls("api") / n_ops,
        "versions.mutate_self_us_per_op": s.mutate_self * us,
        "versions.commits_per_op": delta["versions.published"] / n_ops,
        "versions.read_us_per_op": s.seconds(
            "versions.VersionManager.read", "versions.VersionManager.read_into",
            "versions.VersionManager.stat", "versions.VersionManager.size") * us,
        "versions.pages_reclaimed_per_op":
            delta["versions.pages_reclaimed"] / n_ops,
        "core.search.seeks_vs_paper": _ratio(
            s.data_read_seeks,
            s.values("core.tree.LargeObjectTree.iter_segments")),
        "core.tree.descend_calls_per_op":
            s.calls("core.tree.LargeObjectTree.descend") / n_ops,
        "core.tree.read_root_calls_per_op":
            s.calls("core.tree.LargeObjectTree.read_root") / n_ops,
        "core.node.decode_calls_per_op":
            s.calls("core.node.Node.from_page") / n_ops,
        "core.node.decode_us_per_op": s.seconds("core.node.Node.from_page") * us,
        "core.node.encode_calls_per_op": s.calls("core.node.Node.to_page") / n_ops,
        "core.segio.read_runs_per_op": read_runs / n_ops,
        "core.segio.write_runs_per_op": write_runs / n_ops,
        "core.segio.pages_per_run": _ratio(
            s.values(*SEGIO_READ_RUNS, *SEGIO_WRITE_RUNS), read_runs + write_runs),
        "buddy.alloc_calls_per_op": delta["allocations"] / n_ops,
        "buddy.free_calls_per_op": delta["frees"] / n_ops,
        "buddy.dir_page_io_per_call": _ratio(
            delta["directory_loads"], delta["allocations"] + delta["frees"]),
        "pool.fetches_per_op": fetches / n_ops,
        "pool.hit_ratio": _ratio(delta["hits"], fetches),
        "pool.evictions_per_op": delta["evictions"] / n_ops,
        "disk.read_calls_per_op": io.read_calls / n_ops,
        "disk.write_calls_per_op": io.write_calls / n_ops,
        "disk.pages_read_per_op": io.page_reads / n_ops,
        "disk.pages_written_per_op": io.page_writes / n_ops,
        "disk.seeks_per_op": io.seeks / n_ops,
    })
    for layer in ("core.object", "core.search", "core.insert", "core.delete",
                  "core.append", "core.reshuffle", "core.tree", "core.pager",
                  "core.segio", "buddy", "pool", "disk"):
        out[f"{layer}.self_us_per_op"] = s.layer_self(layer) * us
    return out


def traced_run(workload_cls, seed: int, scale, trace_path) -> tuple[dict, dict]:
    """The ``--trace 1`` run: the same prefix of the script untraced and
    then traced.  Returns ``(per-layer metrics, info)``."""
    calib_before = calibrate()
    workload = workload_cls(seed, scale)
    workload.setup()
    n_ops = max(1, min(workload.timed_ops() // 5, TRACE_MAX_OPS))
    plain = workload.run(n_ops)
    attempted, failed = 0, 0
    if not workload.read_only:
        # A mutating script can run once per volume: replay the prefix
        # on a second volume built the same way.
        workload.finish()
        attempted, failed = workload.attempted, workload.failed
        workload.close()
        script_hash = workload.script_hash
        workload = None
        gc.collect()
        workload = workload_cls(seed, scale)
        workload.setup()
        if workload.script_hash != script_hash:
            raise RuntimeError("the replayed set-up generated a different script")

    tracer = Tracer()
    installer = Installer(tracer, VALUES)
    before = read_counters(workload)
    for layer, module, cls, only in TARGETS:
        installer.install(layer, module, cls, only, SPECIAL.get((module, cls)))
    taps = [TransferTap(tracer, disk.stats) for disk in workload.disks()]
    try:
        with copytrace.tracking() as ledger:
            traced = workload.run(n_ops)
            bytes_copied = ledger.bytes_copied
    finally:
        for tap in taps:
            tap.remove()
        installer.uninstall()
    after = read_counters(workload)
    delta = {key: after[key] - before[key] for key in before}

    workload.finish()
    state = workload.volume_state()
    workload.close()
    calib_after = calibrate()

    n_ops = traced.n_ops
    summary = Summary(tracer)
    metrics = derive(summary, n_ops, delta, {
        "harness.calib_us": calib_before,
        "harness.calib_drift": calib_after / calib_before,
        "harness.trace_overhead": traced.busy / plain.busy,
        "api.user_MB_per_s": plain.user_bytes / plain.busy / (1 << 20),
        "api.lat_p99_us": percentile(
            sorted(lat for stream in plain.streams for lat in stream), 0.99) * 1e6,
        "copies_per_byte": _ratio(bytes_copied, traced.user_bytes),
        "volume.utilization": 1.0 - state.free_pages / state.data_pages,
        "volume.frag_index": sum(state.frag_index) / len(state.frag_index),
        "volume.storage_age": state.pages_written * PAGE_SIZE / state.volume_bytes,
    })
    written = tracer.dump(trace_path, summary.request_of, TRACE_DUMP_SPANS)
    info = {
        "script_hash": workload.script_hash,
        "traced_ops": n_ops,
        "spans": len(tracer),
        "spans_written": written,
        "wrapped_functions": installer.wrapped,
        "missing_targets": installer.missing,
        "calib_us": [calib_before, calib_after],
        "attempted": attempted + workload.attempted,
        "failed": failed + workload.failed,
    }
    return metrics, info
