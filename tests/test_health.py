"""Tests for storage-health observability (:mod:`repro.obs.health`).

Covers the free-extent merge and histogram against a brute-force
per-page reference (property-based), the volume-health collector
against the database's own accounting, heat decay, the background
monitor's jsonl/registry/status plumbing, thread confinement of
sharded sampling (EOS008), and fsck's cross-check of the collector.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.health as health_mod
from repro.analysis.sanitize import ENV_VAR
from repro.api import EOSDatabase
from repro.buddy.amap import SegmentView
from repro.buddy.space import BuddySpace
from repro.buddy.stats import extent_size_histogram, free_extents
from repro.core.config import EOSConfig
from repro.errors import ConfinementViolation
from repro.obs.health import (
    HealthMonitor,
    HeatTracker,
    VolumeHealth,
    collect_volume_health,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import render_prometheus
from repro.server import ServerThread
from repro.server.expo import gauges_from_status, status_snapshot
from repro.server.sharding import ShardSet
from repro.tools.fsck import fsck
from repro.tools.inspect import dump_volume

PAGE = 512


def make_db(num_pages=2048, **config_kw):
    config = EOSConfig(page_size=PAGE, **config_kw) if config_kw else None
    return EOSDatabase.create(num_pages=num_pages, page_size=PAGE, config=config)


def populate(db, sizes=(4096, 20_000, 1500, 65_000)):
    return [db.op_create(bytes([i % 251]) * n, size_hint=n)
            for i, n in enumerate(sizes)]


class TestFreeExtents:
    def test_adjacent_free_segments_merge(self):
        segments = [
            SegmentView(0, 4, False),
            SegmentView(4, 8, False),   # different size, same extent
            SegmentView(12, 4, True),
            SegmentView(16, 16, False),
        ]
        assert free_extents(segments) == [(0, 12), (16, 16)]

    def test_all_allocated(self):
        assert free_extents([SegmentView(0, 8, True)]) == []

    def test_histogram_buckets_are_upper_inclusive(self):
        # b counts extents with b/2 < pages <= b.
        hist = extent_size_histogram([1, 2, 3, 4, 5, 8, 9])
        assert hist == {1: 1, 2: 1, 4: 2, 8: 2, 16: 1}

    def test_histogram_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            extent_size_histogram([0])


class TestHistogramProperty:
    """The collector's extent path vs a brute-force per-page model."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_page_status_reference(self, data):
        capacity = 64
        space = BuddySpace.create(page_size=256, capacity=capacity)
        model = [False] * capacity  # True = allocated
        live: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(5, 25), label="steps")):
            if data.draw(st.booleans(), label="alloc?") or not live:
                n = data.draw(st.integers(1, 16), label="n_pages")
                start = space.allocate(n)
                if start is None:
                    continue
                for p in range(start, start + n):
                    model[p] = True
                live.append((start, n))
            else:
                index = data.draw(st.integers(0, len(live) - 1), label="victim")
                start, n = live.pop(index)
                space.free(start, n)
                for p in range(start, start + n):
                    model[p] = False
            # Brute-force reference: merge consecutive free pages.
            reference: list[tuple[int, int]] = []
            for p in range(capacity):
                if model[p]:
                    continue
                if reference and reference[-1][0] + reference[-1][1] == p:
                    reference[-1] = (reference[-1][0], reference[-1][1] + 1)
                else:
                    reference.append((p, 1))
            extents = free_extents(space.amap.decode())
            assert extents == reference
            # Independent bucketing (no ceil_log2): round up by doubling.
            expected_hist: dict[int, int] = {}
            for _, size in reference:
                bucket = 1
                while bucket < size:
                    bucket *= 2
                expected_hist[bucket] = expected_hist.get(bucket, 0) + 1
            sizes = [size for _, size in extents]
            assert extent_size_histogram(sizes) == expected_hist
            assert sum(sizes) == capacity - sum(model)


class TestCollector:
    def test_totals_agree_with_database(self):
        db = make_db()
        populate(db)
        db.delete_object(db.objects()[1].oid)
        health = collect_volume_health(db, max_objects=None)
        assert health.free_pages == db.free_pages()
        assert len(health.spaces) == db.volume.n_spaces
        assert health.total_pages == sum(s.capacity for s in health.spaces)
        assert health.utilization == pytest.approx(
            1.0 - health.free_pages / health.total_pages
        )
        assert 0.0 <= health.frag_index <= 1.0
        db.close()

    def test_object_layouts_match_op_stat(self):
        db = make_db()
        oids = populate(db)
        health = collect_volume_health(db, max_objects=None)
        assert health.objects_total == len(oids)
        by_oid = {layout.oid: layout for layout in health.objects}
        for oid in oids:
            stat = db.op_stat(oid)
            layout = by_oid[oid]
            assert layout.size_bytes == stat.size_bytes
            assert layout.extents == stat.segments
            assert layout.leaf_pages == stat.leaf_pages
            assert 1 <= layout.runs <= layout.extents
            assert 0.0 <= layout.contiguity <= 1.0
            assert layout.cow_sharing is None  # unversioned database
        db.close()

    def test_max_objects_bounds_the_sample(self):
        db = make_db()
        populate(db)
        health = collect_volume_health(db, max_objects=1)
        assert len(health.objects) == 1
        assert health.objects_total == 4
        assert collect_volume_health(db, max_objects=0).objects == []
        db.close()

    def test_fresh_volume_has_zero_frag_index(self):
        db = make_db()
        health = collect_volume_health(db)
        for space in health.spaces:
            assert space.frag_index == 0.0
            assert space.free_extent_count == 1
        db.close()

    def test_cow_sharing_on_versioned_database(self):
        db = make_db(versioning=True, version_retain=8)
        oid = db.op_create(b"v" * 8192, size_hint=8192)
        db.op_append(oid, b"w" * 512)  # second version shares the prefix
        health = collect_volume_health(db, max_objects=None)
        layout = next(o for o in health.objects if o.oid == oid)
        assert layout.cow_sharing is not None
        assert 0.0 < layout.cow_sharing < 1.0
        assert health.mean_cow_sharing() is not None
        db.close()

    def test_to_doc_is_json_ready(self):
        db = make_db()
        populate(db)
        doc = collect_volume_health(db).to_doc()
        parsed = json.loads(json.dumps(doc))
        assert parsed["free_pages"] == db.free_pages()
        assert parsed["objects"]["count"] == 4
        assert all(isinstance(k, str) for k in parsed["free_extent_histogram"])
        db.close()


class TestHeatTracker:
    def test_decay_and_ordering(self):
        now = [0.0]
        tracker = HeatTracker(half_life_s=10.0, clock=lambda: now[0])
        tracker.touch(1)
        tracker.touch(1)
        tracker.touch(2, write=True)
        top = tracker.top()
        assert [row["oid"] for row in top] == [1, 2]
        assert top[0]["read"] == 2.0 and top[1]["write"] == 1.0
        now[0] = 10.0  # one half-life
        top = tracker.top()
        assert top[0]["heat"] == pytest.approx(1.0)
        assert top[1]["heat"] == pytest.approx(0.5)

    def test_bounded_table_evicts_coldest(self):
        now = [0.0]
        tracker = HeatTracker(half_life_s=10.0, max_objects=2, clock=lambda: now[0])
        tracker.touch(1)
        tracker.touch(2)
        tracker.touch(2)
        tracker.touch(3)  # evicts oid 1 (coldest)
        assert len(tracker) == 2
        assert {row["oid"] for row in tracker.top()} == {2, 3}

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError):
            HeatTracker(half_life_s=0.0)


class TestHealthMonitor:
    def test_requires_exactly_one_target(self):
        db = make_db()
        with pytest.raises(ValueError):
            HealthMonitor()
        with pytest.raises(ValueError):
            HealthMonitor(db=db, shards=[])
        db.close()

    def test_sample_once_publishes_and_persists(self, tmp_path):
        db = make_db()
        populate(db)
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            db=db, interval_s=60.0, health_dir=tmp_path / "h", registry=registry
        )
        docs = monitor.sample_once(force=True)
        assert len(docs) == 1 and "error" not in docs[0]
        assert docs[0]["free_pages"] == db.free_pages()
        lines = (tmp_path / "h" / "health.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["free_pages"] == db.free_pages()
        assert registry.counter("health.samples").snapshot() == 1
        assert registry.gauge("health.free_pages").snapshot() == db.free_pages()
        assert registry.gauge("health.utilization").snapshot() > 0.0
        db.close()

    def test_sample_once_is_rate_limited(self):
        db = make_db()
        monitor = HealthMonitor(db=db, interval_s=60.0)
        first = monitor.sample_once()
        assert monitor.sample_once() == first  # cached within the interval
        assert monitor.samples_taken == 1
        monitor.sample_once(force=True)
        assert monitor.samples_taken == 2
        db.close()

    def test_background_thread_samples_on_interval(self, tmp_path):
        db = make_db()
        populate(db)
        with HealthMonitor(db=db, interval_s=0.02, health_dir=tmp_path) as monitor:
            deadline = time.time() + 5.0
            while monitor.samples_taken < 3 and time.time() < deadline:
                time.sleep(0.01)
        assert monitor.samples_taken >= 3
        assert monitor.total_sample_ms > 0.0
        lines = (tmp_path / "health.jsonl").read_text().splitlines()
        assert len(lines) == monitor.samples_taken
        db.close()

    def test_status_doc_feeds_the_gauge_pipeline(self):
        db = make_db()
        populate(db)
        monitor = HealthMonitor(db=db, interval_s=60.0)
        monitor.sample_once(force=True)
        monitor.heat.touch(7)
        gauges = gauges_from_status({"health": monitor.status_doc()})
        assert "frag_index" in gauges
        assert "free_extent_count" in gauges
        assert any(k.startswith("free_extents{le=") for k in gauges)
        assert gauges['object_heat{oid="7",kind="read"}'] == 1.0
        text = render_prometheus(MetricsRegistry(), extra_gauges=gauges)
        assert "eos_frag_index " in text
        assert 'eos_object_heat{oid="7",kind="read"}' in text
        db.close()

    def test_server_status_snapshot_has_health_section(self):
        db = make_db()
        populate(db)
        srv = ServerThread(db, port=0).start()
        try:
            monitor = HealthMonitor(db=db, interval_s=60.0)
            srv.server.health = monitor
            monitor.sample_once(force=True)
            status = status_snapshot(db, srv.server)
            assert status["health"]["samples_taken"] == 1
            assert status["health"]["samples"][0]["frag_index"] >= 0.0
        finally:
            assert srv.stop() == []
        db.close()

    def test_error_on_one_target_is_captured(self):
        db = make_db()
        monitor = HealthMonitor(db=db, interval_s=60.0)
        db.close()
        docs = monitor.sample_once(force=True)
        assert len(docs) == 1
        assert "error" in docs[0]
        # The errored sample contributes no gauges, and the pipeline
        # skips it rather than KeyError-ing on missing fields.
        assert "frag_index" not in gauges_from_status(
            {"health": monitor.status_doc()}
        )


class TestShardedConfinement:
    """EOS008: sampling a served database must run on the shard worker."""

    def test_inline_walk_from_foreign_thread_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "confinement")
        shard_set = ShardSet.create(1, 512, PAGE)
        try:
            # The object-layout pass reads tree pages through the
            # confined buffer pool; walking it inline from this thread
            # is exactly the violation the monitor's submit() avoids.
            shard = shard_set.shards[0]
            shard.submit(shard.db.op_create, b"x" * 4096, size_hint=4096).result()
            with pytest.raises(ConfinementViolation):
                collect_volume_health(shard_set.shards[0].db)
        finally:
            shard_set.close()

    def test_monitor_samples_without_violations_under_snapshot_reads(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(ENV_VAR, "confinement")
        config = EOSConfig(page_size=PAGE, versioning=True)
        shard_set = ShardSet.create(2, 512, PAGE, config=config)
        try:
            oids = [
                shard.submit(shard.db.op_create, b"x" * 4096, size_hint=4096).result()
                for shard in shard_set.shards
            ]
            monitor = HealthMonitor(
                shards=shard_set.shards, interval_s=0.02, health_dir=tmp_path
            )
            monitor.start()
            reads = 0
            deadline = time.time() + 10.0
            while monitor.samples_taken < 3 and time.time() < deadline:
                # Lock-free snapshot reads from this (foreign) thread
                # must keep flowing while the monitor samples on the
                # shard workers.
                for shard, oid in zip(shard_set.shards, oids):
                    assert shard.db.op_read(oid, offset=0, length=4) == b"xxxx"
                    reads += 1
            monitor.stop()
            assert monitor.samples_taken >= 3
            assert reads > 0
            for doc in monitor.last():
                assert "error" not in doc, doc
                assert doc["shard"] in (0, 1)
            lines = (tmp_path / "health.jsonl").read_text().splitlines()
            assert len(lines) == 2 * monitor.samples_taken
        finally:
            shard_set.close()


class TestFsckCrossCheck:
    def test_clean_database_has_no_disagreements(self):
        db = make_db()
        populate(db)
        db.delete_object(db.objects()[0].oid)
        report = fsck(db)
        assert report.health_disagreements == []
        assert report.clean
        db.close()

    def test_doctored_collector_is_reported(self, monkeypatch):
        db = make_db()
        populate(db)
        real = health_mod.collect_volume_health

        def doctored(db, **kw):
            health = real(db, **kw)
            spaces = [
                type(s)(
                    index=s.index,
                    capacity=s.capacity,
                    free_pages=s.free_pages - 1,  # lie by one page
                    free_extent_count=s.free_extent_count,
                    largest_free_extent=s.largest_free_extent,
                    free_extent_histogram=s.free_extent_histogram,
                )
                for s in health.spaces
            ]
            return VolumeHealth(
                page_size=health.page_size,
                spaces=spaces,
                objects=health.objects,
                objects_total=health.objects_total,
            )

        monkeypatch.setattr(health_mod, "collect_volume_health", doctored)
        report = fsck(db)
        assert report.health_disagreements
        assert not report.clean
        assert "health collector disagreement" in report.summary()
        db.close()


class TestInspectIntegration:
    def test_dump_volume_reports_health_and_layout(self):
        db = make_db()
        populate(db)
        out = dump_volume(db, objects=True)
        assert "fragmentation index" in out
        assert "object layout:" in out
        assert "seeks/MB" in out
        db.close()
