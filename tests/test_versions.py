"""Copy-on-write object versioning: snapshot isolation, retention,
reclaim accounting, persistence, the wire surface, and conformance of
all three ObjectOps implementations on a versioned backend."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import LargeObjectError, ObjectNotFound, VersionNotFound
from repro.storage.disk import DiskVolume
from repro.storage.faults import DiskFault, FaultyDisk
from repro.ops import ObjectOps, VersionInfo
from repro.server import EOSClient, ServerThread, ShardSet
from repro.server import protocol
from repro.server.protocol import Opcode
from repro.tools.fsck import fsck
from repro.versions.manager import VersionRecord

PAGE = 512
PAGES = 4096


def make_db(retain=8, pages=PAGES):
    cfg = EOSConfig(page_size=PAGE, versioning=True, version_retain=retain)
    return EOSDatabase.create(num_pages=pages, page_size=PAGE, config=cfg)


# ---------------------------------------------------------------------------
# Core semantics
# ---------------------------------------------------------------------------


class TestVersionBasics:
    def test_every_commit_publishes_a_version(self):
        db = make_db()
        oid = db.op_create(b"hello")          # v1 empty, v2 = hello
        db.op_append(oid, b" world")          # v3
        db.op_write(oid, b"HELLO", offset=0)  # v4
        db.op_insert(oid, b"-", offset=5)     # v5
        db.op_delete(oid, offset=5, length=1)  # v6
        chain = db.op_versions(oid)
        assert [v.version for v in chain] == [1, 2, 3, 4, 5, 6]
        assert [v.size_bytes for v in chain] == [0, 5, 11, 11, 12, 11]
        assert all(isinstance(v, VersionInfo) for v in chain)

    def test_old_versions_read_byte_identical(self):
        db = make_db()
        oid = db.op_create(b"hello")
        db.op_append(oid, b" world")
        db.op_write(oid, b"XXXXX", offset=0)
        assert db.op_read(oid, offset=0, length=5, version=2) == b"hello"
        assert db.op_read(oid, offset=0, length=11, version=3) == b"hello world"
        assert db.op_read(oid, offset=0, length=11) == b"XXXXX world"
        dest = bytearray(5)
        assert db.op_read_into(oid, dest, offset=6, length=5, version=3) == 5
        assert bytes(dest) == b"world"

    def test_stat_reports_the_versions_shape(self):
        db = make_db()
        oid = db.op_create(b"a" * 1000)
        db.op_append(oid, b"b" * 3000)
        old = db.op_stat(oid, version=2)
        new = db.op_stat(oid)
        assert old.version == 2 and old.size_bytes == 1000
        assert new.version == 3 and new.size_bytes == 4000
        assert old.root_page != new.root_page

    def test_retention_expires_oldest_first(self):
        db = make_db(retain=3)
        oid = db.op_create(b"x")
        for i in range(6):
            db.op_append(oid, bytes([i]))
        chain = db.op_versions(oid)
        assert len(chain) == 3
        assert chain[-1].version == 8  # create=2 + 6 appends
        assert [v.version for v in chain] == [6, 7, 8]
        with pytest.raises(VersionNotFound):
            db.op_read(oid, offset=0, length=1, version=2)
        with pytest.raises(VersionNotFound):
            db.op_stat(oid, version=99)

    def test_unknown_object_raises(self):
        db = make_db()
        with pytest.raises(ObjectNotFound):
            db.op_versions(777)

    def test_failed_mutation_publishes_nothing(self):
        db = make_db()
        oid = db.op_create(b"abcdef")
        before = db.op_versions(oid)
        with pytest.raises(Exception):
            db.op_write(oid, b"xy", offset=100)  # out of range
        assert db.op_versions(oid) == before
        assert db.op_read(oid, offset=0, length=6) == b"abcdef"
        db.verify()

    def test_pinned_version_survives_retention(self):
        db = make_db(retain=2)
        oid = db.op_create(b"keep me")
        with db.versions.pinned(oid, 2):
            for i in range(5):
                db.op_append(oid, bytes([i]))
            assert db.op_read(oid, offset=0, length=7, version=2) == b"keep me"
        # Unpinned now: the next commit may finally expire it.
        db.op_append(oid, b"!")
        with pytest.raises(VersionNotFound):
            db.op_read(oid, offset=0, length=1, version=2)


# ---------------------------------------------------------------------------
# Reclaim accounting
# ---------------------------------------------------------------------------


class TestReclaim:
    def test_delete_object_returns_all_pages(self):
        db = make_db(retain=4)
        baseline = db.free_pages()
        oid = db.op_create(b"p" * 2000)
        for i in range(10):
            db.op_append(oid, bytes([i]) * 500)
            db.op_delete(oid, offset=0, length=250)
        db.delete_object(oid)
        assert db.free_pages() == baseline
        assert fsck(db).clean

    def test_chain_stays_bounded_under_churn(self):
        db = make_db(retain=2)
        oid = db.op_create(b"seed")
        for i in range(50):
            db.op_append(oid, bytes([i % 251]) * 97)
        assert len(db.op_versions(oid)) == 2
        db.verify()
        assert fsck(db).clean

    def test_metrics_track_publish_and_reclaim(self):
        db = make_db(retain=2)
        db.obs.enable()
        oid = db.op_create(b"m")
        for i in range(5):
            db.op_append(oid, bytes([i]))
        metrics = db.obs.metrics
        assert metrics.counter("versions.published").value >= 6
        assert metrics.counter("versions.reclaimed").value >= 4
        assert metrics.counter("versions.pages_reclaimed").value > 0
        assert metrics.gauge("versions.live").value == 2

    def test_drop_object_refuses_while_pinned(self):
        db = make_db()
        oid = db.op_create(b"pinned")
        with db.versions.pinned(oid, 2):
            with pytest.raises(LargeObjectError):
                db.delete_object(oid)
        db.delete_object(oid)  # fine once unpinned


# ---------------------------------------------------------------------------
# Snapshot isolation under concurrency
# ---------------------------------------------------------------------------


class TestConcurrentSnapshots:
    def test_reader_sees_frozen_bytes_under_heavy_appender(self):
        db = make_db(retain=64, pages=16384)
        payload = bytes(range(256)) * 8
        oid = db.op_create(payload)
        frozen = db.op_versions(oid)[-1].version
        stop = threading.Event()
        failures = []

        def reader():
            try:
                while not stop.is_set():
                    got = db.op_read(
                        oid, offset=0, length=len(payload), version=frozen
                    )
                    if got != payload:
                        failures.append("snapshot bytes diverged")
                        return
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for i in range(30):
                db.op_append(oid, bytes([i % 251]) * 301)
                if i % 7 == 0:
                    db.op_delete(oid, offset=len(payload), length=100)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert failures == []
        assert db.op_read(oid, offset=0, length=len(payload), version=frozen) \
            == payload
        db.verify()


# ---------------------------------------------------------------------------
# Snapshot-isolation property: arbitrary schedules, byte-identical history
# ---------------------------------------------------------------------------


class TestSnapshotIsolationProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_every_live_version_is_byte_identical(self, data):
        db = make_db(retain=64, pages=16384)
        oid = db.op_create(b"")
        history = {1: b""}
        current = b""
        steps = data.draw(st.integers(min_value=1, max_value=12))
        for _ in range(steps):
            op = data.draw(st.sampled_from(
                ["append", "insert", "write", "delete"]
            ))
            size = len(current)
            if op == "append":
                chunk = data.draw(st.binary(min_size=1, max_size=600))
                db.op_append(oid, chunk)
                current = current + chunk
            elif op == "insert":
                offset = data.draw(st.integers(0, size))
                chunk = data.draw(st.binary(min_size=1, max_size=400))
                db.op_insert(oid, chunk, offset=offset)
                current = current[:offset] + chunk + current[offset:]
            elif op == "write" and size:
                offset = data.draw(st.integers(0, size - 1))
                chunk = data.draw(
                    st.binary(min_size=1, max_size=size - offset)
                )
                db.op_write(oid, chunk, offset=offset)
                current = (current[:offset] + chunk
                           + current[offset + len(chunk):])
            elif op == "delete" and size:
                offset = data.draw(st.integers(0, size - 1))
                length = data.draw(st.integers(1, size - offset))
                db.op_delete(oid, offset=offset, length=length)
                current = current[:offset] + current[offset + length:]
            else:
                continue
            history[db.op_versions(oid)[-1].version] = current
            # Spot-check one old version mid-schedule, not just at the end.
            probe = data.draw(st.sampled_from(sorted(history)))
            expect = history[probe]
            assert db.op_read(
                oid, offset=0, length=len(expect), version=probe
            ) == expect
        for version, expect in history.items():
            assert db.op_read(
                oid, offset=0, length=len(expect), version=version
            ) == expect
            assert db.op_stat(oid, version=version).size_bytes == len(expect)
        db.verify()
        assert fsck(db).clean


# ---------------------------------------------------------------------------
# A unit that dies leaves the handle bound to the database, not to the unit
# ---------------------------------------------------------------------------


class TestFaultedUnitRebinds:
    """Wherever a version unit dies — inside the op, in the commit's
    new-root allocate or flush, or in its own abort on a dead device —
    the catalogued handle ends up bound to the database's pager and
    allocator again, the old version is what readers see, and the next
    op goes through."""

    CONTENT = bytes(i % 251 for i in range(6 * PAGE))
    OPS = {
        "append": lambda db, oid: db.op_append(oid, b"A" * 5000),
        "insert": lambda db, oid: db.op_insert(oid, b"I" * 5000, offset=700),
        "delete": lambda db, oid: db.op_delete(oid, offset=300, length=1500),
        "write": lambda db, oid: db.op_write(oid, b"W" * 2000, offset=1000),
    }

    def make(self):
        disk = FaultyDisk(DiskVolume(num_pages=PAGES, page_size=PAGE))
        cfg = EOSConfig(page_size=PAGE, versioning=True, version_retain=3)
        db = EOSDatabase.create(PAGES, PAGE, config=cfg, disk=disk)
        oid = db.op_create(self.CONTENT)
        db.checkpoint()
        return db, disk, oid

    def assert_old_version_intact(self, db, oid, chain):
        obj = db.get_object(oid)
        assert obj.tree.pager is db.pager
        assert obj.buddy is db.buddy
        size = len(self.CONTENT)
        assert db.op_size(oid) == size
        assert db.op_read(oid, offset=0, length=size) == self.CONTENT
        assert obj.read_all() == self.CONTENT
        assert db.op_versions(oid) == chain

    def assert_sound(self, db):
        db.verify()
        report = fsck(db)
        assert report.double_claimed == []
        assert report.claims_of_free_pages == []
        assert report.errors == [], report.summary()
        return report

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_device_dies_at_every_write_of_the_op(self, op):
        faults = 0
        for k in range(64):
            db, disk, oid = self.make()
            chain = db.op_versions(oid)
            disk.arm(k)
            try:
                self.OPS[op](db, oid)
            except DiskFault:
                faults += 1
            else:
                break
            finally:
                disk.heal()
            self.assert_old_version_intact(db, oid, chain)
            # A dead device cannot take the abort's directory writes, so
            # the unit's pages may leak (the paper's crash leak).
            self.assert_sound(db)
            self.OPS[op](db, oid)  # the next op succeeds
            assert len(db.op_versions(oid)) == len(chain) + 1
            self.assert_sound(db)
        else:
            pytest.fail("the op never completed")
        # Several writes, so faults inside fn, allocate and flush all ran.
        assert faults >= 3
        assert len(db.op_versions(oid)) == len(chain) + 1
        self.assert_sound(db)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_one_flush_fails_inside_the_commit(self, op, monkeypatch):
        db, disk, oid = self.make()
        chain = db.op_versions(oid)
        free0 = db.free_pages()
        flush_page = db.pool.flush_page
        calls = []

        def failing_once(page):
            calls.append(page)
            if len(calls) == 1:
                raise DiskFault("one-shot flush failure")
            return flush_page(page)

        monkeypatch.setattr(db.pool, "flush_page", failing_once)
        with pytest.raises(DiskFault):
            self.OPS[op](db, oid)
        self.assert_old_version_intact(db, oid, chain)
        # The device is alive, so the abort freed every unit page — the
        # new root, allocated inside the commit, included.
        assert db.free_pages() == free0
        assert self.assert_sound(db).leaked_pages == []
        self.OPS[op](db, oid)
        assert len(db.op_versions(oid)) == len(chain) + 1
        assert self.assert_sound(db).clean


# ---------------------------------------------------------------------------
# Persistence: chains survive save/open_file
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_chains_survive_a_round_trip(self, tmp_path):
        db = make_db()
        oid = db.op_create(b"hello")
        db.op_append(oid, b" world")
        db.op_write(oid, b"HELLO", offset=0)
        path = tmp_path / "v.db"
        db.save(path)

        back = EOSDatabase.open_file(path)
        assert [v.version for v in back.op_versions(oid)] == [1, 2, 3, 4]
        assert back.op_read(oid, offset=0, length=11, version=3) \
            == b"hello world"
        assert back.op_read(oid, offset=0, length=11) == b"HELLO world"
        assert back.op_stat(oid, version=2).size_bytes == 5
        assert fsck(back).clean
        # And the reopened database keeps versioning: a new commit chains on.
        back.op_append(back_oid := oid, b"!")
        assert back.op_versions(back_oid)[-1].version == 5

    def test_fsck_flags_forged_chain_state(self):
        db = make_db()
        oid = db.op_create(b"forge")
        db.op_append(oid, b"d")
        chains = db.versions.snapshot_chains()
        bad = list(chains[oid])
        bad.append(VersionRecord(
            version=bad[-1].version,  # non-monotonic on purpose
            root_page=PAGES - 1,      # allocated? almost certainly not
            commit_ts=0.0, byte_size=1,
        ))
        chains[oid] = bad
        db.versions.restore(chains)
        report = fsck(db)
        assert not report.clean
        assert oid in report.nonmonotonic_chains
        assert oid in report.stale_catalog_roots


# ---------------------------------------------------------------------------
# The wire: versioned forms, legacy forms, and the VERSIONS opcode
# ---------------------------------------------------------------------------


def make_versioned_shardset(n):
    cfg = EOSConfig(page_size=PAGE, versioning=True, version_retain=8)
    return ShardSet.create(n, PAGES, PAGE, config=cfg)


class TestWire:
    def test_versioned_reads_over_the_wire(self):
        ss = make_versioned_shardset(2)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oid = c.create(b"hello")
                c.append(oid, b" world")
                assert c.read(oid, 0, 5, version=2) == b"hello"
                assert c.read(oid, 0, 11) == b"hello world"
                chain = c.versions(oid)
                assert [v.version for v in chain] == [1, 2, 3]
                assert c.stat(oid, version=2).version == 2
                assert c.stat(oid, version=0).version == 3  # latest, numbered
                assert c.stat(oid).version == 0             # legacy short form
                with pytest.raises(VersionNotFound):
                    c.read(oid, 0, 1, version=42)
        assert srv.leaked_tasks == []
        ss.close()

    def test_version_unaware_payloads_still_served(self):
        """A client sending only the legacy 24/8-byte forms round-trips."""
        ss = make_versioned_shardset(1)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oid = c.create(b"old client")
                legacy_read = c.call(
                    Opcode.READ,
                    protocol.pack_oid_offset_length(oid, 0, 10),
                )
                assert legacy_read == b"old client"
                legacy_stat = c.call(Opcode.STAT, protocol.pack_oid(oid))
                stat = protocol.unpack_stat(legacy_stat)
                assert stat.size_bytes == 10 and stat.version == 0
        assert srv.leaked_tasks == []
        ss.close()

    def test_default_client_forms_are_the_legacy_bytes(self):
        """version=None must not change what goes on the wire."""
        assert protocol.pack_read(7, 3, 9) == \
            protocol.pack_oid_offset_length(7, 3, 9)
        assert protocol.pack_stat_req(7) == protocol.pack_oid(7)
        assert len(protocol.pack_read(7, 3, 9, version=2)) == 32
        assert len(protocol.pack_stat_req(7, version=0)) == 16

    def test_versions_opcode_on_unversioned_server(self):
        db = EOSDatabase.create(num_pages=PAGES, page_size=PAGE)
        with ServerThread(db, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oid = c.create(b"plain")
                assert c.versions(oid) == []
                with pytest.raises(ObjectNotFound):
                    c.versions(oid + 100)
        assert srv.leaked_tasks == []
        db.close()


# ---------------------------------------------------------------------------
# Versioned-read conformance — the same contract, three implementations
# ---------------------------------------------------------------------------


def exercise_versioned_reads(ops: ObjectOps):
    """The versioned contract, written once against :class:`ObjectOps`."""
    assert isinstance(ops, ObjectOps)
    oid = ops.op_create(b"hello")
    ops.op_append(oid, b" world")
    ops.op_write(oid, b"HELLO", offset=0)
    chain = ops.op_versions(oid)
    assert [v.version for v in chain] == [1, 2, 3, 4]
    assert chain[-1].size_bytes == 11
    assert ops.op_read(oid, offset=0, length=5, version=2) == b"hello"
    assert ops.op_read(oid, offset=0, length=11, version=3) == b"hello world"
    assert ops.op_read(oid, offset=0, length=11) == b"HELLO world"
    dest = bytearray(5)
    assert ops.op_read_into(oid, dest, offset=0, length=5, version=2) == 5
    assert bytes(dest) == b"hello"
    assert ops.op_stat(oid, version=2).size_bytes == 5
    assert ops.op_stat(oid, version=2).version == 2
    with pytest.raises(VersionNotFound):
        ops.op_read(oid, offset=0, length=1, version=17)
    with pytest.raises(VersionNotFound):
        ops.op_stat(oid, version=17)


class TestVersionedConformance:
    def test_database(self):
        db = make_db()
        try:
            exercise_versioned_reads(db)
        finally:
            db.close()

    def test_shard(self):
        ss = make_versioned_shardset(3)
        try:
            for shard in ss.shards:
                exercise_versioned_reads(shard)
        finally:
            ss.close()

    def test_remote_client(self):
        for n_shards in (1, 4):
            ss = make_versioned_shardset(n_shards)
            with ServerThread(shards=ss, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    exercise_versioned_reads(c)
            assert srv.leaked_tasks == []
            ss.close()
