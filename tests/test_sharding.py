"""Sharded server: oid tagging, routing, fan-out, shard death, and the
ObjectOps conformance contract across both implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import ObjectNotFound, ShardUnavailable, VersionNotFound
from repro.ops import ObjectOps, ObjectStat
from repro.server import EOSClient, ServerThread, ShardSet, Status
from repro.server.protocol import exception_from, status_for_exception
from repro.server.sharding import make_oid, shard_of, split_oid
from repro.storage.timing import TimedDisk

PAGE = 512
PAGES = 1024


def make_shardset(n):
    return ShardSet.create(n, PAGES, PAGE)


def create_on(shard, data=b""):
    """Create an object on one shard's worker; its wire oid."""
    local = shard.submit(shard.db.op_create, data).result()
    return make_oid(shard.index, local, shard.n_shards)


# ---------------------------------------------------------------------------
# Oid tagging
# ---------------------------------------------------------------------------


class TestOidTagging:
    def test_roundtrip(self):
        for n in (1, 2, 4, 7):
            for shard in range(n):
                for local in (0, 1, 17, 1 << 40):
                    oid = make_oid(shard, local, n)
                    assert split_oid(oid, n) == (shard, local)
                    assert shard_of(oid, n) == shard

    def test_single_shard_is_identity(self):
        for local in (0, 1, 42, 1 << 50):
            assert make_oid(0, local, 1) == local

    def test_distinct_within_shard_count(self):
        n = 4
        oids = {
            make_oid(s, loc, n) for s in range(n) for loc in range(32)
        }
        assert len(oids) == n * 32


# ---------------------------------------------------------------------------
# Create placement and routing
# ---------------------------------------------------------------------------


class TestShardSet:
    def test_creates_spread_evenly(self):
        ss = make_shardset(4)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oids = [c.op_create(b"x") for _ in range(32)]
        ss.close()
        residues = sorted(oid % 4 for oid in oids)
        assert residues == sorted(list(range(4)) * 8)

    def test_shard_for_routes_by_residue(self):
        ss = make_shardset(4)
        try:
            for shard in ss.shards:
                oid = create_on(shard, b"y")
                assert ss.shard_for(oid) is shard
                got = shard.submit(
                    shard.db.op_read, shard.local_oid(oid), offset=0, length=1
                ).result()
                assert got == b"y"
        finally:
            ss.close()

    def test_local_oid_rejects_foreign_tag(self):
        ss = make_shardset(4)
        try:
            oid = create_on(ss.shards[0], b"z")
            with pytest.raises(ObjectNotFound):
                ss.shards[1].local_oid(oid)
        finally:
            ss.close()

    def test_cross_shard_list_merges_ascending(self):
        ss = make_shardset(4)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                sizes = {}
                for i in range(12):
                    oid = c.op_create(b"a" * (i + 1))
                    sizes[oid] = i + 1
                listing = c.op_list()
        ss.close()
        assert [oid for oid, _ in listing] == sorted(sizes)
        assert dict(listing) == sizes
        # Every shard contributed.
        assert {oid % 4 for oid, _ in listing} == {0, 1, 2, 3}

    def test_dead_shard_fails_fanout(self):
        ss = make_shardset(2)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                c.op_create(b"x")
                ss.shards[1].kill()
                with pytest.raises(ShardUnavailable):
                    c.op_list()
                with pytest.raises(ShardUnavailable):
                    ss.shards[1].submit(ss.shards[1].db.op_create, b"y")
                # The survivor keeps serving, and keeps taking creates.
                assert ss.pick_for_create() is ss.shards[0]
                assert c.op_create(b"z") % 2 == 0
        ss.close()

    def test_adopt_preserves_observability_identity(self):
        db = EOSDatabase.create(num_pages=PAGES, page_size=PAGE)
        try:
            ss = ShardSet.adopt(db)
            assert ss.single
            assert ss.obs is db.obs
            oid = create_on(ss.shards[0], b"w")
            assert db.op_read(oid, offset=0, length=1) == b"w"  # identity oid
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Shard death over the wire
# ---------------------------------------------------------------------------


class TestShardDeathOverWire:
    def test_status_mapping(self):
        exc = ShardUnavailable("shard 3 is not serving")
        assert status_for_exception(exc) is Status.SHARD_UNAVAILABLE
        back = exception_from(Status.SHARD_UNAVAILABLE, "gone")
        assert isinstance(back, ShardUnavailable)

    @pytest.mark.parametrize("versioning", [False, True], ids=["plain", "versioned"])
    def test_client_sees_shard_unavailable(self, versioning):
        # A versioned shard answers reads on the event loop, not on its
        # worker; a dead one must refuse them all the same.
        config = EOSConfig(page_size=PAGE, versioning=versioning)
        ss = ShardSet.create(2, PAGES, PAGE, config=config)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oids = [c.op_create(bytes([i]) * 64) for i in range(4)]
                victim = ss.shards[0]
                victim.kill()
                dead = next(o for o in oids if o % 2 == victim.index)
                live = next(o for o in oids if o % 2 != victim.index)
                with pytest.raises(ShardUnavailable):
                    c.op_read(dead, offset=0, length=8)
                for probe in (c.op_size, c.op_stat, c.op_versions):
                    with pytest.raises(ShardUnavailable):
                        probe(dead)
                with pytest.raises(ShardUnavailable):
                    c.op_list()
                # Requests routed to the survivor are unaffected.
                assert c.op_read(live, offset=0, length=8) == bytes([oids.index(live)]) * 8
                doc = c.metrics()
                alive = {s["shard"]: s["alive"] for s in doc["shards"]}
                assert alive == {0: False, 1: True}
        assert srv.leaked_tasks == []
        ss.close()


# ---------------------------------------------------------------------------
# ObjectOps conformance — one suite, both implementations
# ---------------------------------------------------------------------------


def exercise_object_ops(ops: ObjectOps):
    """The interface contract, written once against :class:`ObjectOps`."""
    assert isinstance(ops, ObjectOps)
    oid = ops.op_create(b"hello", size_hint=4096)
    assert ops.op_size(oid) == 5
    assert ops.op_append(oid, b" world") == 11
    assert ops.op_read(oid, offset=0, length=11) == b"hello world"
    assert ops.op_write(oid, b"HELLO", offset=0) == 11
    assert ops.op_read(oid, offset=0, length=5) == b"HELLO"
    assert ops.op_insert(oid, b"<->", offset=5) == 14
    assert ops.op_read(oid, offset=0, length=14) == b"HELLO<-> world"
    assert ops.op_delete(oid, offset=5, length=3) == 11
    dest = bytearray(6)
    assert ops.op_read_into(oid, dest, offset=5, length=6) == 6
    assert bytes(dest) == b" world"
    stat = ops.op_stat(oid)
    assert isinstance(stat, ObjectStat)
    assert stat.size_bytes == 11
    assert stat.segments >= 1
    listing = ops.op_list()
    assert (oid, 11) in listing
    assert listing == sorted(listing)
    other = ops.op_create()
    assert ops.op_size(other) == 0
    assert {o for o, _ in ops.op_list()} >= {oid, other}
    # The versioned-read surface exists on every conformer.  On an
    # unversioned backend: no chain, latest-read passthrough, and an
    # explicit version is an error rather than a silent latest.
    assert ops.op_versions(oid) == []
    assert ops.op_read(oid, offset=0, length=5, version=None) == b"HELLO"
    assert ops.op_stat(oid, version=None).version == 0
    with pytest.raises(VersionNotFound):
        ops.op_read(oid, offset=0, length=1, version=1)
    with pytest.raises(VersionNotFound):
        ops.op_stat(oid, version=1)


class TestObjectOpsConformance:
    def test_database(self):
        db = EOSDatabase.create(num_pages=PAGES, page_size=PAGE)
        try:
            exercise_object_ops(db)
        finally:
            db.close()

    def test_remote_client(self):
        for n_shards in (1, 4):
            ss = make_shardset(n_shards)
            with ServerThread(shards=ss, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    exercise_object_ops(c)
            assert srv.leaked_tasks == []
            ss.close()


# ---------------------------------------------------------------------------
# Geometry is keyword-only on every op
# ---------------------------------------------------------------------------


class TestKeywordOnlySignatures:
    def test_missing_keywords_raise(self):
        with EOSDatabase.create(num_pages=PAGES, page_size=PAGE) as db:
            oid = db.op_create(b"abc")
            with pytest.raises(TypeError):
                db.op_read(oid)
            with pytest.raises(TypeError):
                db.op_write(oid, b"x")
            with pytest.raises(TypeError):
                db.op_read(oid, 0, 3)  # geometry is keyword-only


# ---------------------------------------------------------------------------
# TimedDisk service-time model
# ---------------------------------------------------------------------------


class TestTimedDisk:
    def test_charges_seek_and_transfer(self):
        disk = TimedDisk(64, PAGE, seek_ms=1.0, transfer_ms_per_page=0.5)
        disk.view_pages(0, 4)        # seek + 4 pages
        disk.view_pages(4, 2)        # contiguous: transfer only
        disk.read_page(40)           # head moved: seek again
        assert disk.busy_ms == pytest.approx(1.0 + 2.0 + 1.0 + 0.5 + 1.0)

    def test_untimed_passthrough_and_geometry(self):
        disk = TimedDisk(64, PAGE, seek_ms=5.0, transfer_ms_per_page=1.0)
        disk.poke(0, b"\x07" * PAGE)
        assert disk.peek(0)[:1] == b"\x07"
        assert disk.busy_ms == 0.0
        assert (disk.num_pages, disk.page_size) == (64, PAGE)
        assert disk.stats.page_transfers == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["view_pages", "write_pages_v"]),
                    st.integers(0, 15),
                    st.integers(1, 4),
                ),
                st.tuples(st.sampled_from(["read_page", "write_page"]), st.integers(0, 15)),
                st.just(("forget_head",)),
            ),
            max_size=25,
        )
    )
    def test_charged_time_equals_counted_cost(self, script):
        """One head model: whatever the call mix, and however often the
        head is forgotten (``db.stats.delta(cold=True)``), the service
        time charged is exactly the seeks and transfers IOStats counted."""
        seek_ms, page_ms = 0.003, 0.001
        disk = TimedDisk(16 + 4, PAGE, seek_ms=seek_ms, transfer_ms_per_page=page_ms)
        for step in script:
            if step[0] == "forget_head":
                disk.stats.head = None
            elif step[0] == "view_pages":
                disk.view_pages(step[1], step[2])
            elif step[0] == "write_pages_v":
                disk.write_pages_v(step[1], [bytes(PAGE)] * step[2])
            elif step[0] == "read_page":
                disk.read_page(step[1])
            else:
                disk.write_page(step[1], bytes(PAGE))
        stats = disk.stats
        assert disk.busy_ms == pytest.approx(
            stats.seeks * seek_ms + stats.page_transfers * page_ms
        )

    def test_database_over_timed_disk(self):
        disk = TimedDisk(PAGES, PAGE, seek_ms=0.1, transfer_ms_per_page=0.01)
        db = EOSDatabase.create(num_pages=PAGES, page_size=PAGE, disk=disk)
        try:
            oid = db.op_create(b"t" * 4096)
            assert db.op_read(oid, offset=0, length=4096) == b"t" * 4096
            assert disk.busy_ms > 0.0
        finally:
            db.close()

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            TimedDisk(8, PAGE, seek_ms=-1.0)


# ---------------------------------------------------------------------------
# Multi-shard exposition
# ---------------------------------------------------------------------------


class TestShardedExposition:
    def test_snapshot_and_prometheus_labels(self):
        from repro.obs.prom import render_prometheus
        from repro.server.expo import gauges_from_status, status_snapshot

        ss = make_shardset(2)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                c.op_create(b"x" * 256)
                doc = c.metrics()
            assert doc["server"]["shards"] == 2
            assert [s["shard"] for s in doc["shards"]] == [0, 1]
            assert all("space" in s for s in doc["shards"])
            total = sum(s["space"]["free_pages"] for s in doc["shards"])
            assert doc["space"]["free_pages"] == total

            gauges = gauges_from_status(status_snapshot(None, srv.server))
            assert gauges['shard.up{shard="0"}'] == 1.0
            assert 'buddy.free_pages{shard="1"}' in gauges
            text = render_prometheus(
                srv.server.obs.metrics, extra_gauges=gauges
            )
            assert 'eos_shard_up{shard="0"} 1.0' in text
            assert "# TYPE eos_shard_up gauge" in text
        assert srv.leaked_tasks == []
        ss.close()

    def test_single_shard_document_keeps_legacy_shape(self):
        db = EOSDatabase.create(num_pages=PAGES, page_size=PAGE)
        db.obs.enable()
        with ServerThread(db, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                c.op_create(b"x")
                doc = c.metrics()
        db.close()
        assert "shards" not in doc          # no per-shard list for N=1
        assert "stats" in doc and "space" in doc
        assert doc["server"]["inflight"] == 0
