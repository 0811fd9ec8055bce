"""Tests for the observability layer: spans, metrics, stats, lifecycle.

The load-bearing acceptance check lives in
``TestSpanIOAccounting.test_span_io_sums_to_global_totals``: with
tracing enabled, an append+read session's per-span I/O deltas must sum
exactly to the global :class:`~repro.storage.iostats.IOStats` totals —
every seek and page transfer is attributed to some span, none is
double-counted.
"""

import json
from dataclasses import fields, replace

import pytest

from repro import EOSConfig, EOSDatabase, catalog
from repro.buddy.manager import AllocatorStats
from repro.errors import DatabaseClosed, VolumeLayoutError
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    JsonLinesSink,
    MetricsRegistry,
    RingSink,
    SummarySink,
    Tracer,
    aggregate_spans,
    format_tree,
)
from repro.obs.prom import render_prometheus
from repro.server.expo import gauges_from_status, status_snapshot
from repro.storage.buffer import BufferPoolStats
from repro.storage.iostats import IOSnapshot
from repro.tools.tracefmt import load_trace, render_trace

PAGE = 512


def make_db(**kwargs):
    return EOSDatabase.create(
        num_pages=4096,
        page_size=PAGE,
        config=EOSConfig(page_size=PAGE, threshold=4),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------


class TestSpanNesting:
    def test_parenting_follows_call_structure(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("middle2"):
                pass
        by_name = {r["name"]: r for r in ring.records}
        assert by_name["outer"]["parent"] is None
        assert by_name["middle"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["parent"] == by_name["middle"]["span"]
        assert by_name["middle2"]["parent"] == by_name["outer"]["span"]
        # All four belong to one trace; a fresh root starts a new one.
        assert len({r["trace"] for r in ring.records}) == 1
        with tracer.span("next_root"):
            pass
        assert ring.records[-1]["trace"] != by_name["outer"]["trace"]

    def test_children_emit_before_parents(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        assert [r["name"] for r in ring.records] == ["child", "parent"]

    def test_error_recorded_on_exception(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert ring.records[0]["error"] == "ValueError"

    def test_span_attrs_and_set(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("op", oid=7) as span:
            span.set(granted=3)
        assert ring.records[0]["attrs"] == {"oid": 7, "granted": 3}


class TestSpanIOAccounting:
    def _trace_session(self, tmp_path):
        """An append+read session traced to both a ring and a file."""
        ring = RingSink()
        path = tmp_path / "trace.jsonl"
        db = make_db()
        db.obs.enable([ring, JsonLinesSink(path)])
        db.stats.reset()
        obj = db.create_object()
        obj.append(bytes(i % 251 for i in range(64 * 1024)))
        obj.read(10_000, 20_000)
        obj.read(0, obj.size())
        totals = db.disk.stats.snapshot()
        db.obs.close()
        return ring.records, totals, path

    def test_span_io_sums_to_global_totals(self, tmp_path):
        records, totals, path = self._trace_session(tmp_path)
        assert records, "the session produced no spans"
        # Root spans' cumulative deltas partition the session's I/O...
        roots = [r for r in records if r["parent"] is None]
        for key, total in (
            ("seeks", totals.seeks),
            ("page_reads", totals.page_reads),
            ("page_writes", totals.page_writes),
        ):
            assert sum(r["io"][key] for r in roots) == total
            # ...and so do all spans' self deltas (no double counting).
            assert sum(r["self_io"][key] for r in records) == total
        assert totals.page_reads > 0 and totals.page_writes > 0

    def test_jsonl_trace_round_trips_and_renders(self, tmp_path):
        records, totals, path = self._trace_session(tmp_path)
        spans, metrics, bad = load_trace(path)
        assert bad == 0
        assert len(spans) == len(records)
        # The file carries the final metrics snapshot too.
        assert metrics is not None and "span.op.append" in metrics
        # Summed from the file alone, the totals still match.
        roots = [r for r in spans if r["parent"] is None]
        assert sum(r["io"]["seeks"] for r in roots) == totals.seeks
        # And tracefmt renders both views without choking.
        text = render_trace(path, metrics=True)
        assert "op.append" in text and "span summary" in text
        assert "trace 1:" in text

    def test_op_spans_nest_the_layers(self, tmp_path):
        records, _, _ = self._trace_session(tmp_path)
        by_id = {r["span"]: r for r in records}
        append = next(r for r in records if r["name"] == "op.append")
        descendants = set()
        frontier = {append["span"]}
        while frontier:
            descendants |= frontier
            frontier = {
                r["span"] for r in records if r["parent"] in frontier
            }
        names = {by_id[s]["name"] for s in descendants}
        assert "segio.write" in names
        assert "buddy.alloc" in names

    def test_elapsed_and_cost_are_recorded(self, tmp_path):
        records, _, _ = self._trace_session(tmp_path)
        scan = next(r for r in records if r["name"] == "op.read")
        assert scan["elapsed_ms"] >= 0
        assert scan["cost_ms"] > 0  # it really read pages

    def test_mis_nested_exit_unwinds(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        # Exiting the outer span first finishes the inner one too.
        outer.__exit__(None, None, None)
        assert {r["name"] for r in ring.records} == {"outer", "inner"}
        assert tracer._stack == []


class TestDisabledTracer:
    def test_null_singletons_are_shared(self):
        span_a = NULL_TRACER.span("anything", x=1)
        span_b = NULL_TRACER.span("else")
        assert span_a is span_b
        with span_a as entered:
            assert entered.set(y=2) is span_a

    def test_disabled_database_records_nothing(self):
        db = make_db()
        assert db.obs.tracer is NULL_TRACER
        assert db.obs.metrics is NULL_METRICS
        obj = db.create_object(b"x" * 4096)
        assert obj.read_all() == b"x" * 4096
        assert db.stats.metrics() == {}
        assert db.disk.stats.observer is None

    def test_observing_leaves_the_observer_slot_to_spies(self, pages_transferred):
        """``IOStats.observer`` is not observability's: a spy installed
        before or after ``enable()`` survives it, and an observed
        database moves the same pages as an unobserved one."""
        seen = {}
        for observed in (False, True):
            db = make_db()
            obj = db.create_object(bytes(range(256)) * 12)
            db.pool.clear()
            if observed:
                db.obs.enable()
            seen[observed] = (
                pages_transferred(db, lambda: obj.insert(700, b"I" * 900), writes=True),
                pages_transferred(db, lambda: obj.read(0, obj.size()), writes=False),
            )
            spy = object()
            db.disk.stats.observer = spy
            db.obs.disable()
            db.obs.enable()
            assert db.disk.stats.observer is spy
            db.disk.stats.observer = None
        assert seen[True] == seen[False]
        assert all(seen[True])

    def test_null_obs_refuses_enable(self):
        with pytest.raises(RuntimeError):
            NULL_OBS.enable()

    def test_enable_disable_mid_life(self):
        db = make_db()
        obj = db.create_object(b"y" * 2048)
        ring = RingSink()
        db.obs.enable([ring])
        obj.read(0, 1024)
        assert any(r["name"] == "op.read" for r in ring.records)
        seen = len(ring.records)
        db.obs.disable()
        obj.read(0, 1024)
        assert len(ring.records) == seen  # nothing new after disable
        assert db.obs.tracer is NULL_TRACER


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(0.75)
        h = registry.histogram("h", bounds=(1, 10))
        for value in (0, 1, 5, 100):
            h.observe(value)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 0.75
        assert snap["h"]["count"] == 4
        assert snap["h"]["min"] == 0 and snap["h"]["max"] == 100
        assert snap["h"]["buckets"] == {"<=1": 2, "<=10": 1, ">10": 1}

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.reset()
        assert registry.snapshot()["c"] == 0

    def test_disk_counters_are_read_at_scrape_time(self):
        db = make_db()
        db.obs.enable()
        db.stats.reset()
        obj = db.create_object()
        obj.append(bytes(8 * PAGE))
        db.pool.clear()
        db.disk.stats.head = None
        obj.read(0, 8 * PAGE)
        # Nothing on the transfer path feeds the registry: the disk
        # counters are grafted from IOStats when a scrape renders.
        assert db.disk.stats.observer is None
        assert not any(name.startswith("disk.") for name in db.stats.metrics())
        # The document reads the counters before its space walk (which
        # does directory I/O of its own).
        want = db.disk.stats.snapshot()
        gauges = gauges_from_status(status_snapshot(db))
        assert want.seeks > 0
        assert gauges["disk.seeks"] == want.seeks
        assert gauges["disk.page_reads"] == want.page_reads
        assert gauges["disk.page_writes"] == want.page_writes
        text = render_prometheus(db.obs.metrics, extra_gauges=gauges)
        assert f"eos_disk_seeks {want.seeks}\n" in text
        assert db.stats.metrics()["buddy.alloc.pages"]["count"] >= 1


# ---------------------------------------------------------------------------
# The db.stats facade
# ---------------------------------------------------------------------------


class TestStatsFacade:
    def test_snapshot_and_subtraction(self):
        db = make_db()
        before = db.stats.snapshot()
        obj = db.create_object(bytes(16 * PAGE))
        obj.read(0, 8 * PAGE)
        after = db.stats.snapshot()
        delta = after - before
        assert delta.page_writes >= 16
        assert delta.page_reads >= 1
        assert delta.alloc.allocations >= 1
        assert delta.seeks == after.io.seeks - before.io.seeks
        d = delta.as_dict()
        assert d["io"]["page_writes"] == delta.page_writes
        assert 0.0 <= d["buffer"]["hit_ratio"] <= 1.0

    def test_delta_context_manager(self):
        db = make_db()
        obj = db.create_object(bytes(32 * PAGE))
        db.checkpoint()
        with db.stats.delta(cold=True) as d:
            obj.read(0, 32 * PAGE)
        # Cold: the pool was dropped, the head position forgotten.
        assert d.page_reads >= 32
        assert d.seeks >= 1
        assert d.page_transfers == d.page_reads + d.page_writes
        # Warm re-read of the same range: leaf I/O repeats (segments
        # bypass the pool) but index reads now hit the buffer.
        with db.stats.delta() as warm:
            obj.read(0, 32 * PAGE)
        assert warm.buffer.hits >= 1

    def test_reset_zeroes_all_layers(self):
        db = make_db()
        obj = db.create_object(bytes(8 * PAGE))
        obj.read(0, PAGE)
        db.stats.reset()
        snap = db.stats.snapshot()
        assert snap.page_transfers == 0
        assert snap.buffer.accesses == 0
        assert snap.alloc.allocations == 0

    def test_node_decodes_are_counted_once_per_residency(self):
        db = make_db()
        obj = db.create_object(bytes(8 * PAGE))
        db.checkpoint()
        with db.stats.delta(cold=True) as cold:
            for _ in range(5):
                obj.read(0, PAGE)
        assert cold.buffer.decodes == cold.buffer.misses == 1
        assert cold.buffer.hits == 4
        with db.stats.delta() as edit:
            obj.append(b"x")  # hands the root image out: its decoded form is void
            obj.size()
        assert edit.buffer.decodes == 1
        assert edit.as_dict()["buffer"]["decodes"] == 1
        assert db.stats.snapshot().buffer.decodes == db.pool.stats.decodes > 0
        db.stats.reset()
        assert db.stats.snapshot().buffer.decodes == 0

    def test_decodes_reach_the_console_and_the_exposition(self):
        from repro.server.expo import gauges_from_status
        from repro.tools.servectl import render_top

        db = make_db()
        db.create_object(bytes(4 * PAGE)).size()
        doc = {"stats": db.stats.snapshot().as_dict()}
        decodes = doc["stats"]["buffer"]["decodes"]
        assert decodes > 0
        assert f"node decodes {decodes}" in render_top(doc, None)
        assert gauges_from_status(doc)["buffer.decodes"] == decodes

    def test_every_counter_is_reported_subtracted_and_reset(self):
        """A counter declared on its layer's dataclass reaches ``db.stats``
        with no edit to the facade."""
        db = make_db()
        layers = {
            "io": (db.disk.stats, IOSnapshot),
            "buffer": (db.pool.stats, BufferPoolStats),
            "alloc": (db.buddy.stats, AllocatorStats),
        }
        bump = {
            (section, f.name): 100 * i + j + 1
            for i, (section, (_, kind)) in enumerate(layers.items())
            for j, f in enumerate(fields(kind))
        }
        with db.stats.delta() as d:
            for (section, name), by in bump.items():
                live = layers[section][0]
                setattr(live, name, getattr(live, name) + by)
        doc = d.as_dict()
        for (section, name), by in bump.items():
            assert getattr(getattr(d, section), name) == by
            assert doc[section][name] == by
        db.stats.reset()
        snap = db.stats.snapshot()
        for section, name in bump:
            assert getattr(layers[section][0], name) == 0
            assert getattr(getattr(snap, section), name) == 0

    def test_status_document_stats_keys_are_pinned(self):
        """``servectl top`` and the Prometheus ``buffer.*`` gauges read
        this structure; a renamed or reordered counter is a breaking
        change."""
        from repro.server.expo import status_snapshot

        db = make_db()
        db.create_object(bytes(4 * PAGE))
        stats = status_snapshot(db)["stats"]
        assert {section: list(keys) for section, keys in stats.items()} == {
            "io": ["seeks", "page_reads", "page_writes", "read_calls", "write_calls"],
            "buffer": ["hits", "misses", "evictions", "writebacks", "decodes", "hit_ratio"],
            "alloc": [
                "allocations", "frees", "directory_loads", "superdirectory_skips",
                "superdirectory_corrections", "scans", "scan_probes",
            ],
        }

    def test_old_attribute_paths_still_work(self):
        db = make_db()
        db.create_object(bytes(4 * PAGE))
        assert db.disk.stats.page_writes > 0
        assert db.pool.stats.misses >= 0
        assert db.buddy.stats.allocations >= 1

    def test_facade_updates_gauges_when_enabled(self):
        db = make_db()
        db.obs.enable()
        db.create_object(bytes(4 * PAGE))
        db.stats.snapshot()
        snap = db.stats.metrics()
        assert "buffer.hit_ratio" in snap
        assert snap["buffer.resident_pages"] >= 0


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_context_manager_closes(self):
        with make_db() as db:
            obj = db.create_object(b"data")
            assert obj.read_all() == b"data"
        assert db.is_closed
        with pytest.raises(DatabaseClosed):
            db.create_object(b"more")
        with pytest.raises(DatabaseClosed):
            db.checkpoint()
        with pytest.raises(DatabaseClosed) as info:
            db.get_object(1)
        assert "closed" in str(info.value)

    def test_close_is_idempotent(self):
        db = make_db()
        db.close()
        db.close()
        assert db.is_closed

    def test_closed_database_cannot_reenter_context(self):
        db = make_db()
        db.close()
        with pytest.raises(DatabaseClosed):
            with db:
                pass

    def test_close_flushes_dirty_pages(self, tmp_path):
        db = make_db()
        obj = db.create_object(bytes(i % 199 for i in range(4 * PAGE)))
        oid = obj.oid
        db.save(tmp_path / "img.db")  # catalog written while open
        expected = obj.read_all()
        db.close()
        # The image file reflects the pre-close save; reattaching the
        # in-memory disk works too because close flushed the pool.
        db2 = EOSDatabase.attach(db.disk, config=db.config)
        assert db2.get_object(oid).read_all() == expected

    def test_close_finalises_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with make_db() as db:
            db.obs.enable([JsonLinesSink(path)])
            db.create_object(b"z" * PAGE)
        lines = path.read_text().splitlines()
        assert any(json.loads(x)["kind"] == "metrics" for x in lines)

    def test_exception_still_closes(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db:
                raise RuntimeError("user code failed")
        assert db.is_closed


# ---------------------------------------------------------------------------
# File catalog persistence (the bugfix)
# ---------------------------------------------------------------------------


class TestFileCatalogPersistence:
    def test_files_survive_save_and_open(self, tmp_path):
        path = tmp_path / "files.db"
        db = make_db()
        archive = db.create_file("archive", threshold=16)
        workspace = db.create_file("workspace", threshold=2, adaptive=True)
        a1 = archive.create_object(b"a" * 2000)
        a2 = archive.create_object(b"b" * 3000)
        w1 = workspace.create_object(b"c" * 1000)
        plain = db.create_object(b"plain")
        db.save(path)

        db2 = EOSDatabase.open_file(path)
        archive2 = db2.get_file("archive")
        assert archive2.threshold == 16 and archive2.adaptive is False
        assert {o.oid for o in archive2.objects()} == {a1.oid, a2.oid}
        workspace2 = db2.get_file("workspace")
        assert workspace2.threshold == 2 and workspace2.adaptive is True
        assert [o.oid for o in workspace2.objects()] == [w1.oid]
        # Restored members carry the file's threshold hint again.
        member = db2.get_object(w1.oid)
        assert member.policy.base == 2 and member.policy.adaptive is True
        # Non-file objects are untouched.
        assert db2.get_object(plain.oid).read_all() == b"plain"

    def test_deleted_members_drop_from_saved_file(self, tmp_path):
        path = tmp_path / "files.db"
        db = make_db()
        f = db.create_file("f", threshold=8)
        keep = f.create_object(b"keep")
        drop = f.create_object(b"drop")
        db.delete_object(drop)
        db.save(path)
        db2 = EOSDatabase.open_file(path)
        assert [o.oid for o in db2.get_file("f").objects()] == [keep.oid]

    def test_pre_file_section_image_opens_clean(self, tmp_path, rewrite_catalog):
        # A catalog whose file section is empty (file count 0) opens with
        # its objects, no files and no error.
        path = tmp_path / "old.db"
        db = make_db()
        legacy = db.create_object(b"legacy")
        db.create_file("ignored", threshold=4)
        db.save(path)
        rewrite_catalog(db, lambda c: replace(c, files=[]))
        db.disk.save(path)
        db2 = EOSDatabase.open_file(path)
        assert [o.oid for o in db2.objects()] == [legacy.oid]
        assert db2.get_object(legacy.oid).read_all() == b"legacy"
        with pytest.raises(Exception):
            db2.get_file("ignored")

    def test_garbage_file_section_is_ignored(self, tmp_path):
        # Page 0 past the catalog's root word (where the file section
        # used to live) is no part of the layout: garbage there is ignored.
        from repro.storage.disk import DiskVolume

        path = tmp_path / "garbage.db"
        db = make_db()
        member = db.create_file("f", threshold=4).create_object(b"member")
        plain = db.create_object(b"x")
        db.save(path)
        disk = DiskVolume.load(path)
        header = bytearray(disk.read_page(0))
        offset = catalog.ROOT_OFFSET + 4
        header[offset:] = b"\xff" * (PAGE - offset)
        disk.write_page(0, bytes(header))
        disk.save(path)
        db2 = EOSDatabase.open_file(path)
        assert [o.oid for o in db2.get_file("f").objects()] == [member.oid]
        assert db2.get_object(plain.oid).read_all() == b"x"
        assert len(db2.objects()) == 2

    def test_corrupt_catalog_fails_open(self, tmp_path, rewrite_catalog):
        # The loader is strict: no corruption opens as a smaller volume.
        def truncated(c):
            return catalog.encode(c)[:-3]

        def trailing_bytes(c):
            return catalog.encode(c) + b"\0"

        def garbage(c):
            return b"\xff" * len(catalog.encode(c))

        def dangling_member(c):
            return replace(c, files=[replace(c.files[0], members=(99,))])

        def repeated_file(c):
            return replace(c, files=c.files * 2)

        for edit in (truncated, trailing_bytes, garbage, dangling_member, repeated_file):
            db = make_db()
            db.create_file("f", threshold=4).create_object(b"member")
            db.create_object(b"x")
            path = tmp_path / f"{edit.__name__}.db"
            db.save(path)
            rewrite_catalog(db, edit)
            db.disk.save(path)
            with pytest.raises(VolumeLayoutError, match="catalog"):
                EOSDatabase.open_file(path)

    def test_oversize_catalog_rejected(self):
        db = make_db()
        f = db.create_file("big", threshold=4)
        f._oids = []  # keep the object entries small; inflate the name
        db._files["x" * 300] = type(f)(db, "x" * 300, 4, False)
        with pytest.raises(Exception):
            db._write_catalog()


# ---------------------------------------------------------------------------
# Summary rendering and sinks
# ---------------------------------------------------------------------------


class TestSummariesAndSinks:
    def _records(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("op.append", oid=1):
            with tracer.span("buddy.alloc", pages=4):
                pass
        with tracer.span("op.read", oid=1):
            pass
        return ring.records

    def test_aggregate_and_tree(self):
        records = self._records()
        agg = aggregate_spans(records)
        assert agg["op.append"]["count"] == 1
        assert agg["buddy.alloc"]["count"] == 1
        tree = format_tree(records)
        assert "op.append" in tree and "  buddy.alloc" not in tree.split("\n")[0]

    def test_orphans_render_under_synthetic_root(self):
        records = [
            {"kind": "span", "trace": 7, "span": 1, "parent": None,
             "name": "server.request", "attrs": {}},
            # Half a tree: its top fell out of the capture window.
            {"kind": "span", "trace": 7, "span": 3, "parent": 99,
             "name": "server.execute", "attrs": {}},
            {"kind": "span", "trace": 7, "span": 4, "parent": 3,
             "name": "pool.read", "attrs": {}},
        ]
        tree = format_tree(records)
        assert "(orphaned: 1 span(s)" in tree
        # The orphan and its own child both render, nested.
        assert "server.execute" in tree and "pool.read" in tree
        lines = tree.splitlines()
        exec_line = next(ln for ln in lines if "server.execute" in ln)
        child_line = next(ln for ln in lines if "pool.read" in ln)
        assert len(child_line) - len(child_line.lstrip()) > \
            len(exec_line) - len(exec_line.lstrip())
        # The orphan is not disguised as a root: only one genuine root
        # sits at root depth.
        root_depth = [
            ln for ln in lines
            if ln.startswith("  ") and not ln.startswith("    ")
        ]
        assert sum("server.execute" in ln for ln in root_depth) == 0

    def test_summary_sink_renders(self):
        sink = SummarySink()
        for record in self._records():
            sink.on_span(record)
        text = sink.render(tree=True)
        assert "op.append" in text and "span summary" in text

    def test_ring_sink_caps_capacity(self):
        ring = RingSink(capacity=3)
        tracer = Tracer(sinks=[ring])
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(ring) == 3
        assert ring.records[-1]["name"] == "s9"

    def test_closed_jsonl_sink_raises(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "x.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.on_span({"kind": "span"})

    def test_tracefmt_tolerates_garbage_lines(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        good = json.dumps({"kind": "span", "trace": 1, "span": 1,
                           "parent": None, "name": "op.read", "attrs": {}})
        path.write_text(good + "\n{truncated by a cra")
        spans, metrics, bad = load_trace(path)
        assert len(spans) == 1 and bad == 1
        assert "unparseable" in render_trace(path)


class TestRecoveryInstrumentation:
    def test_txn_span_and_log_counters(self):
        from repro.recovery import RecoveryManager

        db = make_db()
        ring = RingSink()
        db.obs.enable([ring])
        # Fragment until the tree is at least two levels deep, so a
        # transactional insert must shadow a non-root index page.
        obj = db.create_object(bytes(4 * PAGE))
        obj.set_threshold(1)
        while obj.stats().height < 2:
            obj.insert(0, b"z" * 32)
        manager = RecoveryManager(db)
        txn = manager.begin()
        tobj = txn.open(obj)
        tobj.insert(100, b"tx bytes")
        txn.commit()
        names = {r["name"] for r in ring.records}
        assert "txn.unit" in names
        assert "shadow.commit" in names
        snap = db.stats.metrics()
        assert snap["recovery.log.records"] == len(manager.log)
        assert snap["recovery.log.bytes"] > 0
        assert snap["shadow.relocations"] >= 1


# ---------------------------------------------------------------------------
# Thread safety, percentiles, flight recorder, Prometheus, trace tooling
# ---------------------------------------------------------------------------


class TestMetricsThreadSafety:
    def test_threaded_increments_are_not_lost(self):
        """Regression: instruments take their lock, so no update is lost."""
        import threading

        registry = MetricsRegistry()
        n_threads, n_incs = 8, 2000
        counter = registry.counter("t.count")
        hist = registry.histogram("t.hist")
        gauge = registry.gauge("t.gauge")
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for i in range(n_incs):
                counter.inc()
                hist.observe(float(i % 50))
                gauge.set(float(i))
                # get-or-create must also be safe under contention
                registry.counter("t.raced").inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        total = n_threads * n_incs
        assert counter.snapshot() == total
        assert registry.counter("t.raced").snapshot() == total
        snap = hist.snapshot()
        assert snap["count"] == total
        assert sum(snap["buckets"].values()) == total


class TestTracerThreads:
    def test_ids_stay_unique_across_threads(self):
        """Span and trace ids come from one counter each, with no lock."""
        import sys
        import threading

        tracer = Tracer()
        n_threads, n_ids = 8, 2000
        barrier = threading.Barrier(n_threads)
        ids: list[list[int]] = [[] for _ in range(n_threads)]

        def work(index):
            barrier.wait()
            mine = ids[index]
            for _ in range(n_ids):
                mine.append(tracer.new_span_id())
                mine.append(-tracer.new_trace_id())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        flat = [i for mine in ids for i in mine]
        assert len(set(flat)) == len(flat) == 2 * n_threads * n_ids

    def test_mute_is_per_thread(self):
        import threading

        ring = RingSink()
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, sinks=[ring])

        def traced_elsewhere():
            with tracer.span("other"):
                pass

        assert tracer.mute() is False
        other = threading.Thread(target=traced_elsewhere)
        with tracer.span("muted"):
            other.start()
            other.join(10)
        assert not other.is_alive()
        assert tracer.mute(False) is True
        with tracer.span("unmuted"):
            pass
        assert [r["name"] for r in ring.records] == ["other", "unmuted"]
        assert set(registry.snapshot()) >= {"span.other", "span.unmuted"}
        assert "span.muted" not in registry.snapshot()


class TestHistogramPercentiles:
    def test_empty_histogram_reports_zero(self):
        from repro.obs.metrics import Histogram

        h = Histogram("h")
        assert h.percentile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0

    def test_estimates_monotone_and_clamped(self):
        from repro.obs.metrics import Histogram

        h = Histogram("h", bounds=[1, 2, 4, 8, 16])
        for v in (0.5, 1.5, 3.0, 7.0, 7.5, 12.0):
            h.observe(v)
        assert h.percentile(0.0) == 0.5
        assert h.percentile(1.0) == 12.0
        estimates = [h.percentile(q / 20) for q in range(21)]
        assert estimates == sorted(estimates)
        assert all(0.5 <= e <= 12.0 for e in estimates)

    def test_overflow_bucket_interpolates_toward_max(self):
        from repro.obs.metrics import Histogram

        h = Histogram("h", bounds=[1])
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        p99 = h.percentile(0.99)
        assert 1.0 <= p99 <= 500.0
        snap = h.snapshot()
        assert snap["buckets"][">1"] == 3


class TestFlightRecorder:
    def _recorder(self, **kw):
        from repro.obs.flight import FlightRecorder

        return FlightRecorder(**kw)

    def test_record_redacts_payloads_and_evicts(self):
        ring = self._recorder(capacity=2)
        ring.record({"opcode": "create", "payload": b"secret", "n": 1})
        ring.record({"opcode": "append", "data": "secret", "n": 2})
        ring.record({"opcode": "read", "error": "x" * 1000, "n": 3})
        entries = ring.entries()
        assert [e["n"] for e in entries] == [2, 3]  # oldest evicted
        assert all("payload" not in e and "data" not in e for e in entries)
        assert len(entries[1]["error"]) <= 256
        assert entries[1]["error"].endswith("…")
        assert all(e["kind"] == "flight" for e in entries)

    def test_bytes_values_never_reach_a_dump(self):
        ring = self._recorder()
        ring.record({"opcode": "write", "detail": {"raw": b"\x00\x01"}})
        text = ring.to_jsonl()
        assert "secret" not in text
        assert "2 bytes redacted" in text

    def test_span_payloads_are_redacted_on_the_way_out(self, tmp_path):
        from repro.obs.flight import load_flight

        ring = self._recorder()
        ring.on_span({
            "kind": "span", "name": "op.append", "span": 1, "trace": 7,
            "attrs": {"blob": b"secret-bytes",
                      "nested": {"payload": "secret-payload", "n": 3}},
        })
        expected = {"blob": "<12 bytes redacted>", "nested": {"n": 3}}
        assert ring.spans()[0]["attrs"] == expected
        assert "secret" not in ring.to_jsonl()
        path = ring.dump(tmp_path)
        with open(path) as f:
            assert "secret" not in f.read()
        _, _, spans = load_flight(path)
        assert spans[0]["attrs"] == expected

    def test_dump_and_load_roundtrip(self, tmp_path):
        from repro.obs.flight import load_flight

        ring = self._recorder()
        ring.record({"opcode": "read", "status": "ok"})
        ring.on_span({"kind": "span", "name": "server.request", "span": 1,
                      "trace": 7, "elapsed_ms": 1.5})
        path = ring.dump(tmp_path, reason="unit test!")
        assert "unit-test-" in path and path.endswith(".jsonl")
        header, entries, spans = load_flight(path)
        assert header["reason"] == "unit test!"
        assert header["entries"] == 1 and header["spans"] == 1
        assert entries[0]["opcode"] == "read"
        assert spans[0]["name"] == "server.request"
        assert ring.dumps == 1 and ring.last_dump_path == path

    def test_maybe_dump_rate_limited(self, tmp_path):
        ring = self._recorder(min_dump_interval=3600.0)
        ring.record({"opcode": "read"})
        first = ring.maybe_dump(tmp_path, reason="storm")
        assert first is not None
        assert ring.maybe_dump(tmp_path, reason="storm") is None
        assert ring.dumps == 1

    def test_flight_dump_renders_with_tracefmt(self, tmp_path):
        ring = self._recorder()
        ring.on_span({"kind": "span", "name": "server.request", "span": 1,
                      "trace": 7, "elapsed_ms": 1.5})
        path = ring.dump(tmp_path)
        out = render_trace(path)
        assert "server.request" in out


class TestPromRendering:
    def test_render_prometheus_text(self):
        from repro.obs.prom import render_prometheus

        registry = MetricsRegistry()
        registry.counter("server.requests").inc(3)
        registry.gauge("buffer.hit_ratio").set(0.75)
        hist = registry.histogram("server.latency_ms", bounds=[1, 10, 100])
        for v in (0.5, 5.0, 50.0, 5000.0):
            hist.observe(v)
        text = render_prometheus(
            registry, extra_gauges={"buddy.free_pages": 10}
        )
        lines = text.splitlines()
        assert "# TYPE eos_server_requests counter" in lines
        assert "eos_server_requests 3" in lines
        assert "eos_buffer_hit_ratio 0.75" in lines
        assert "eos_buddy_free_pages 10" in lines
        # Buckets are cumulative and end at +Inf == count.
        assert 'eos_server_latency_ms_bucket{le="1"} 1' in lines
        assert 'eos_server_latency_ms_bucket{le="10"} 2' in lines
        assert 'eos_server_latency_ms_bucket{le="100"} 3' in lines
        assert 'eos_server_latency_ms_bucket{le="+Inf"} 4' in lines
        assert "eos_server_latency_ms_count 4" in lines
        assert any(line.startswith("eos_server_latency_ms_p99 ") for line in lines)

    def test_null_registry_renders_empty(self):
        from repro.obs.prom import render_prometheus

        assert render_prometheus(NULL_METRICS) == "\n"

    def test_metric_name_sanitization(self):
        from repro.obs.prom import metric_name

        assert metric_name("server.latency_ms") == "eos_server_latency_ms"
        assert metric_name("weird-name/x") == "eos_weird_name_x"
        assert metric_name("9lives") == "eos__9lives"


class TestTracefmtTooling:
    def _spans(self):
        return [
            {"kind": "span", "trace": 1, "span": 1, "parent": None,
             "name": "client.request", "elapsed_ms": 5.0,
             "attrs": {"opcode": "read", "oid": 42}},
            {"kind": "span", "trace": 1, "span": 2, "parent": 1,
             "name": "client.send", "elapsed_ms": 0.1, "attrs": {}},
            {"kind": "span", "trace": 2, "span": 3, "parent": None,
             "name": "client.request", "elapsed_ms": 0.5,
             "attrs": {"opcode": "append", "oid": 7}},
        ]

    def test_filter_keeps_whole_traces(self):
        from repro.tools.tracefmt import filter_spans

        spans = self._spans()
        kept = filter_spans(spans, op="read")
        # trace 1 matches; its child rides along even though it doesn't
        assert [s["span"] for s in kept] == [1, 2]
        assert filter_spans(spans, oid=7) == [spans[2]]
        assert filter_spans(spans, min_ms=1.0) == spans[:2]
        assert filter_spans(spans, op="read", min_ms=10.0) == []
        # op also matches span-name leaves
        assert [s["span"] for s in filter_spans(spans, op="send")] == [1, 2]

    def test_merge_namespaces_and_remote_parents(self):
        from repro.tools.tracefmt import merge_traces

        client = [
            {"kind": "span", "trace": 9, "span": 5, "parent": None,
             "name": "client.request", "elapsed_ms": 3.0},
        ]
        server = [
            {"kind": "span", "trace": 9, "span": 5, "parent": 5,
             "name": "server.request", "elapsed_ms": 2.0,
             "remote_parent": True},
            {"kind": "span", "trace": 9, "span": 6, "parent": 5,
             "name": "server.execute", "elapsed_ms": 1.0},
        ]
        merged = merge_traces(client, server)
        by_name = {r["name"]: r for r in merged}
        # Ids collide across files (both use 5) but namespacing splits them.
        assert by_name["client.request"]["span"] == "a:5"
        assert by_name["server.request"]["span"] == "b:5"
        # The remote parent resolves into the *other* file's namespace...
        assert by_name["server.request"]["parent"] == "a:5"
        # ...while local parents stay within their own file.
        assert by_name["server.execute"]["parent"] == "b:5"
        tree = format_tree(merged)
        lines = tree.splitlines()
        indents = {
            name: len(line) - len(line.lstrip())
            for line in lines
            for name in ("client.request", "server.request", "server.execute")
            if name in line
        }
        assert indents["client.request"] < indents["server.request"]
        assert indents["server.request"] < indents["server.execute"]
