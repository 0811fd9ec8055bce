"""Copy-on-write object versioning: snapshot isolation, retention,
reclaim accounting, persistence, the wire surface, and conformance of
both ObjectOps implementations on a versioned backend."""

import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.api import EOSDatabase
from repro.compact.engine import relocate_object
from repro.core.config import EOSConfig
from repro.core.node import Node
from repro.core.unit import UnitAllocator
from repro.errors import (
    InvariantViolation, LargeObjectError, ObjectNotFound, VersionNotFound,
)
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

    @pytest.mark.parametrize("mb", [1, 32])
    def test_commit_and_reclaim_read_no_snapshot_node(self, mb, monkeypatch):
        # The reclaimer frees the expired version's dead list: it walks
        # no tree, so the object's size does not show in the reads.
        cfg = EOSConfig(versioning=True, version_retain=1)
        db = EOSDatabase.create(num_pages=mb * 256 + 2048, config=cfg)
        db.obs.enable()
        oid = db.op_create(b"s" * (mb << 20))
        reclaimed = db.obs.metrics.counter("versions.pages_reclaimed")
        before = reclaimed.value
        pager = db.versions.snap_pager
        reads, read = [], pager.read
        monkeypatch.setattr(
            pager, "read", lambda page: reads.append(page) or read(page)
        )
        db.op_append(oid, b"a" * 8192)  # a commit, and the oldest's reclaim
        assert reclaimed.value > before
        assert reads == []

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
        disk = FaultyDisk(num_pages=PAGES, page_size=PAGE)
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

        db = EOSDatabase.open_file(path)
        assert [v.version for v in db.op_versions(oid)] == [1, 2, 3, 4]
        assert db.op_read(oid, offset=0, length=11, version=3) \
            == b"hello world"
        assert db.op_read(oid, offset=0, length=11) == b"HELLO world"
        assert db.op_stat(oid, version=2).size_bytes == 5
        assert fsck(db).clean
        # And the reopened database keeps versioning: a new commit chains on.
        db.op_append(db_oid := oid, b"!")
        assert db.op_versions(db_oid)[-1].version == 5

    def test_reattached_handles_carry_the_effective_config(self, tmp_path):
        # The image turns versioning back on with its saved retention;
        # the object handles must say so too, not the caller's default.
        db = make_db(retain=3)
        oid = db.op_create(b"cfg" * 400)
        db.save(tmp_path / "c.db")
        db = EOSDatabase.open_file(tmp_path / "c.db")
        assert (db.config.versioning, db.config.version_retain) == (True, 3)
        assert db.get_object(oid).config == db.config
        assert db.versions.retain == 3

    def test_a_reopened_volume_reclaims_like_one_never_closed(self, tmp_path):
        # The catalog carries no dead lists; the attach rebuilds them.
        # Without that, every page the restored versions supersede leaks.
        def commit(db, oid, i):
            db.op_append(oid, bytes([i]) * 300)
            db.op_delete(oid, offset=i % 7, length=120)

        def setup():
            db = make_db(retain=2)
            oid = db.op_create(b"r" * 1500)
            for i in range(10):
                commit(db, oid, i)
            return db, oid

        twin, oid = setup()
        db, _ = setup()
        db.save(tmp_path / "r.db")
        db = EOSDatabase.open_file(tmp_path / "r.db")
        for i in range(10, 50):
            commit(twin, oid, i)
            commit(db, oid, i)
        report = fsck(db)
        assert report.clean, report.summary()
        assert report.leaked_pages == []
        assert db.free_pages() == twin.free_pages()
        assert db.op_read(oid, offset=0, length=db.op_size(oid)) == (
            twin.op_read(oid, offset=0, length=twin.op_size(oid))
        )

    def test_fsck_flags_forged_dead_lists(self):
        db = make_db()
        oid = db.op_create(b"f" * 3000)
        db.op_delete(oid, offset=0, length=1500)
        db.op_append(oid, b"g" * 700)
        assert fsck(db).dead_list_disagreements == []
        chain = db.versions._chains[oid]
        record, newer_root = chain[-2], chain[-1].root_page
        (first, _), *rest = record.dead
        free_page = max(free_page_set(db))
        # One run missing, a page the latest reaches, a free page.
        chain[-2] = replace(
            record, dead=(*rest, (newer_root, 1), (free_page, 1))
        )
        report = fsck(db)
        assert not report.clean
        where = f"oid {oid} v{record.version}"
        assert report.dead_list_disagreements == [
            f"{where} differs from the walk at page "
            f"{min(first, newer_root, free_page)}",
            f"{where} lists free page {free_page}",
            f"{where} lists page {newer_root}, which a newer version reaches",
        ]
        assert "dead list disagreement" in report.summary()

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
                oid = c.op_create(b"hello")
                c.op_append(oid, b" world")
                assert c.op_read(oid, offset=0, length=5, version=2) == b"hello"
                assert c.op_read(oid, offset=0, length=11) == b"hello world"
                chain = c.op_versions(oid)
                assert [v.version for v in chain] == [1, 2, 3]
                assert c.op_stat(oid, version=2).version == 2
                assert c.op_stat(oid, version=0).version == 3  # latest, numbered
                assert c.op_stat(oid).version == 0             # legacy short form
                with pytest.raises(VersionNotFound):
                    c.op_read(oid, offset=0, length=1, version=42)
        assert srv.leaked_tasks == []
        ss.close()

    def test_version_unaware_payloads_still_served(self):
        """A client sending only the legacy 24/8-byte forms round-trips."""
        ss = make_versioned_shardset(1)
        with ServerThread(shards=ss, port=0) as srv:
            with EOSClient(port=srv.port) as c:
                oid = c.op_create(b"old client")
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
                oid = c.op_create(b"plain")
                assert c.op_versions(oid) == []
                with pytest.raises(ObjectNotFound):
                    c.op_versions(oid + 100)
        assert srv.leaked_tasks == []
        db.close()


# ---------------------------------------------------------------------------
# Versioned-read conformance — the same contract, both implementations
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

    def test_remote_client(self):
        for n_shards in (1, 4):
            ss = make_versioned_shardset(n_shards)
            with ServerThread(shards=ss, port=0) as srv:
                with EOSClient(port=srv.port) as c:
                    exercise_versioned_reads(c)
            assert srv.leaked_tasks == []
            ss.close()


# ---------------------------------------------------------------------------
# The snapshot node cache: entry and exit rules
# ---------------------------------------------------------------------------

#: Eight entries per index node, so a few dozen edits give a tree of
#: height >= 2 (index pages below the root).
SMALL_PAGE = 128


def make_small_page_db(retain, *, pool_capacity=128, disk=None, **config):
    cfg = EOSConfig(
        page_size=SMALL_PAGE, versioning=True, version_retain=retain, **config
    )
    return EOSDatabase.create(
        PAGES, SMALL_PAGE, config=cfg, pool_capacity=pool_capacity, disk=disk
    )


def fragment(db, oid, mirror, rounds):
    """Appends and small inserts: many extents, so a deep tree."""
    for i in range(rounds):
        chunk = bytes([i % 251]) * 300
        db.op_append(oid, chunk)
        mirror += chunk
        db.op_insert(oid, b"x" * 10, offset=i * 5)
        mirror[i * 5:i * 5] = b"x" * 10


def disk_node(db, page):
    return Node.from_page(db.disk.peek(page))


def index_pages(db, root):
    """Every index page under ``root``, walked from the disk."""
    pages, stack = set(), [root]
    while stack:
        page = stack.pop()
        pages.add(page)
        node = disk_node(db, page)
        if node.level:
            stack.extend(node.child)
    return pages


def live_index_pages(db):
    pages = set()
    for chain in db.versions.snapshot_chains().values():
        for record in chain:
            pages |= index_pages(db, record.root_page)
    return pages


def free_page_set(db):
    free = set()
    for index in range(db.volume.n_spaces):
        extent = db.volume.spaces[index]
        for seg in db.buddy.load_space(index).amap.decode():
            if not seg.allocated:
                start = extent.to_physical(seg.start)
                free.update(range(start, start + seg.size))
    return free


def version_page_set(db, root):
    """Every page a version reaches (index pages, whole leaf runs)."""
    pages = set()
    for page in index_pages(db, root):
        pages.add(page)
        node = disk_node(db, page)
        if node.level == 0:
            for child, n_pages in zip(node.child, node.pages):
                pages.update(range(child, child + n_pages))
    return pages


def assert_dead_lists_exact(db):
    """Each retained dead list is the walk difference with the next
    version, in disjoint allocated runs; the gauge counts every record."""
    chains = db.versions.snapshot_chains()
    free = free_page_set(db)
    for chain in chains.values():
        assert chain[-1].dead == ()
        sets = [version_page_set(db, record.root_page) for record in chain]
        for record, pages, newer in zip(chain, sets, sets[1:]):
            runs = sorted(record.dead)
            assert all(a + n <= b for (a, n), (b, _) in zip(runs, runs[1:]))
            listed = {p for first, n in runs for p in range(first, first + n)}
            assert listed == pages - newer
            assert not listed & free
    assert db.obs.metrics.gauge("versions.live").value == sum(
        map(len, chains.values())
    )


def assert_cache_coherent(db):
    """Every entry is allocated, reachable from a live version and equal
    to the disk; so the cache never outgrows the live index pages."""
    cached = db.versions.snap_pager.cached()
    live = live_index_pages(db)
    free = free_page_set(db)
    for page, node in cached.items():
        assert page not in free, f"page {page} is cached but free"
        assert page in live, f"page {page} is cached but no live version reaches it"
        assert node == disk_node(db, page), f"page {page} is cached but differs"
    assert len(cached) <= len(live)


def leaf_data_pages(db, root):
    """Pages a whole-object read transfers: each segment's used pages."""
    pages = 0
    for page in index_pages(db, root):
        node = disk_node(db, page)
        if node.level == 0:
            pages += sum(
                -(-node.entry(i).count // SMALL_PAGE) for i in range(node.n_entries)
            )
    return pages


class TestSnapshotNodeCache:
    def test_commit_read_and_reclaim_read_no_index_page(self):
        db = make_small_page_db(retain=2)
        db.obs.enable()
        oid = db.op_create(b"")
        mirror = bytearray()
        fragment(db, oid, mirror, 12)
        assert disk_node(db, db.versions.latest(oid).root_page).level >= 1
        oldest = db.op_versions(oid)[0].version
        misses = db.obs.metrics.counter("versions.node_misses")
        reads, missed = db.disk.stats.page_reads, misses.value

        db.op_append(oid, b"a" * 700)  # a commit, and the oldest's reclaim
        mirror += b"a" * 700
        assert db.op_read(oid, offset=0, length=len(mirror)) == mirror

        assert db.op_versions(oid)[0].version == oldest + 1
        assert db.obs.metrics.counter("versions.pages_reclaimed").value > 0
        root = db.versions.latest(oid).root_page
        assert db.disk.stats.page_reads - reads == leaf_data_pages(db, root)
        assert misses.value == missed
        assert_cache_coherent(db)

    def test_a_freed_page_reused_elsewhere_reads_the_new_owner(self):
        # A one-frame pool: pages a unit wrote early have left the pool by
        # its commit, so they are not seeded and the first reader of the
        # new owner's tree goes to the cache, then the disk.
        db = make_small_page_db(retain=1, pool_capacity=1)
        a, b = db.op_create(b""), db.op_create(b"")
        mirrors = {a: bytearray(), b: bytearray()}
        for oid in (a, b):
            fragment(db, oid, mirrors[oid], 12)
        before = index_pages(db, db.versions.latest(a).root_page)
        db.op_insert(a, b"z" * 10, offset=7)  # the reclaimer frees part of A
        mirrors[a][7:7] = b"z" * 10
        freed = before - index_pages(db, db.versions.latest(a).root_page)
        assert freed and not freed & set(db.versions.snap_pager.cached())

        db.op_insert(b, b"w" * 10, offset=7)  # B's unit reallocates them
        mirrors[b][7:7] = b"w" * 10
        b_root = db.versions.latest(b).root_page
        assert freed & (index_pages(db, b_root) - {b_root})
        for oid, mirror in mirrors.items():
            assert db.op_read(oid, offset=0, length=len(mirror)) == mirror
        assert_cache_coherent(db)

    @pytest.mark.parametrize("op", sorted(TestFaultedUnitRebinds.OPS))
    def test_a_failed_unit_leaves_no_entry(self, op):
        run_op = TestFaultedUnitRebinds.OPS[op]
        failed_units = 0
        for k in range(256):
            disk = FaultyDisk(num_pages=PAGES, page_size=SMALL_PAGE)
            db = make_small_page_db(retain=1, disk=disk)
            oid = db.op_create(b"")
            fragment(db, oid, bytearray(), 12)
            chain, live = db.op_versions(oid), live_index_pages(db)
            assert len(live) > 1
            disk.arm(k)
            try:
                run_op(db, oid)
            except DiskFault:
                pass
            else:
                break
            finally:
                disk.heal()
            if db.op_versions(oid) == chain:  # the unit failed, nothing published
                failed_units += 1
                assert set(db.versions.snap_pager.cached()) <= live
            # Or it published and the reclaimer died: leaked pages, no entries.
            assert_cache_coherent(db)
            size = db.op_size(oid)
            assert db.op_read(oid, offset=0, length=size) == (
                db.get_object(oid).read_all()
            )
        else:
            pytest.fail("the op never completed")
        assert failed_units >= 3

    def test_sanitizer_checks_every_hit_against_the_disk(self):
        db = make_small_page_db(retain=4, sanitize_pins=True)
        oid = db.op_create(b"first")
        db.op_append(oid, b" second")
        old_root, new_root = (r.root_page for r in db.versions.snapshot_chains()[oid][-2:])
        assert db.op_read(oid, offset=0, length=12) == b"first second"
        db.disk.poke(new_root, db.disk.peek(old_root))  # rewrite a published page
        with pytest.raises(InvariantViolation, match=f"page {new_root}"):
            db.op_read(oid, offset=0, length=12)

    def test_sanitizer_checks_every_dead_list(self, monkeypatch):
        db = make_small_page_db(retain=4, sanitize_pins=True)
        oid = db.op_create(b"d" * 2000)
        db.op_delete(oid, offset=0, length=500)  # the list holds leaf runs
        # A unit that loses its deferred leaf runs: the list misses them.
        monkeypatch.setattr(
            UnitAllocator, "commit_unit", UnitAllocator.crash_unit
        )
        with pytest.raises(InvariantViolation, match=f"object {oid} version 3"):
            db.op_delete(oid, offset=0, length=500)

    def test_sanitized_counts_are_the_plain_counts(self):
        def script(**config):
            db = make_small_page_db(retain=2, **config)
            oid = db.op_create(b"")
            fragment(db, oid, bytearray(), 10)
            for version in db.op_versions(oid):
                db.op_read(oid, offset=0, length=version.size_bytes,
                           version=version.version)
            stats = db.disk.stats
            return stats.seeks, stats.page_reads, stats.page_writes

        assert script(sanitize_pins=True) == script()

    def test_fsck_flags_entries_that_break_the_rules(self):
        db = make_small_page_db(retain=4)
        oid = db.op_create(b"a" * 1000)
        db.op_append(oid, b"b" * 1000)
        assert fsck(db).snapshot_cache_disagreements == []
        chain = db.versions.snapshot_chains()[oid]
        old_root, new_root = chain[-2].root_page, chain[-1].root_page
        free_page = max(free_page_set(db))
        cache = db.versions.snap_pager
        cache.seed(free_page, disk_node(db, old_root))
        cache.seed(new_root, disk_node(db, old_root))
        report = fsck(db)
        assert not report.clean
        assert report.snapshot_cache_disagreements == [
            f"page {new_root} differs from disk",
            f"page {free_page} is free",
        ]
        assert "snapshot cache disagreement" in report.summary()

    def test_metrics_count_misses_not_hits(self):
        db = make_small_page_db(retain=4)
        oid = db.op_create(b"")
        fragment(db, oid, bytearray(), 12)
        db.obs.enable()
        db.versions.restore(db.versions.snapshot_chains())  # the attach path
        assert db.versions.snap_pager.cached() == {}
        root = db.versions.latest(oid).root_page
        size = db.op_size(oid)
        db.op_read(oid, offset=0, length=size)  # cold: one miss per index page
        metrics = db.obs.metrics
        misses = metrics.counter("versions.node_misses").value
        assert misses == len(index_pages(db, root))
        assert metrics.gauge("versions.node_cache").value == len(
            db.versions.snap_pager.cached()
        )
        db.op_read(oid, offset=0, length=size)  # warm: hits only
        assert metrics.counter("versions.node_misses").value == misses
        assert_cache_coherent(db)


class SnapshotCacheMachine(RuleBasedStateMachine):
    """Random edits, destroys, relocations and snapshot reads of retained
    versions; after every step the cache obeys its entry/exit rules and
    every retained version reads db byte-identical."""

    def __init__(self):
        super().__init__()
        self.db = make_small_page_db(retain=3)
        self.db.obs.enable()
        self.current: dict[int, bytearray] = {}
        self.history: dict[int, dict[int, bytes]] = {}

    def _published(self, oid):
        self.history[oid][self.db.op_versions(oid)[-1].version] = bytes(
            self.current[oid]
        )

    def _pick(self, data):
        return data.draw(st.sampled_from(sorted(self.current)))

    @initialize()
    def deep_object(self):
        oid = self.db.op_create(b"")
        self.current[oid] = bytearray()
        self.history[oid] = {1: b""}
        fragment(self.db, oid, self.current[oid], 12)
        self._published(oid)

    @rule(payload=st.binary(max_size=700))
    def create(self, payload):
        if len(self.current) >= 3:
            return
        oid = self.db.op_create(payload)
        self.current[oid] = bytearray(payload)
        self.history[oid] = {1: b""}
        self._published(oid)

    @precondition(lambda self: self.current)
    @rule(data=st.data(), chunk=st.binary(min_size=1, max_size=500))
    def append(self, data, chunk):
        oid = self._pick(data)
        self.db.op_append(oid, chunk)
        self.current[oid] += chunk
        self._published(oid)

    @precondition(lambda self: self.current)
    @rule(data=st.data(), chunk=st.binary(min_size=1, max_size=200))
    def insert(self, data, chunk):
        oid = self._pick(data)
        offset = data.draw(st.integers(0, len(self.current[oid])))
        self.db.op_insert(oid, chunk, offset=offset)
        self.current[oid][offset:offset] = chunk
        self._published(oid)

    @precondition(lambda self: any(self.current.values()))
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(
            sorted(oid for oid, content in self.current.items() if content)
        ))
        size = len(self.current[oid])
        offset = data.draw(st.integers(0, size - 1))
        length = data.draw(st.integers(1, size - offset))
        self.db.op_delete(oid, offset=offset, length=length)
        del self.current[oid][offset:offset + length]
        self._published(oid)

    @precondition(lambda self: any(self.current.values()))
    @rule(data=st.data())
    def write(self, data):
        oid = data.draw(st.sampled_from(
            sorted(oid for oid, content in self.current.items() if content)
        ))
        size = len(self.current[oid])
        offset = data.draw(st.integers(0, size - 1))
        chunk = data.draw(st.binary(min_size=1, max_size=size - offset))
        self.db.op_write(oid, chunk, offset=offset)
        self.current[oid][offset:offset + len(chunk)] = chunk
        self._published(oid)

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def destroy(self, data):
        oid = self._pick(data)
        self.db.delete_object(oid)
        del self.current[oid], self.history[oid]

    @precondition(lambda self: any(self.current.values()))
    @rule(data=st.data())
    def relocate(self, data):
        oid = data.draw(st.sampled_from(
            sorted(oid for oid, content in self.current.items() if content)
        ))
        relocate_object(self.db, oid)
        self._published(oid)

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def snapshot_read(self, data):
        oid = self._pick(data)
        recorded = self.history[oid]
        version = data.draw(st.sampled_from(
            [v.version for v in self.db.op_versions(oid) if v.version in recorded]
        ))
        expect = recorded[version]
        assert self.db.op_read(
            oid, offset=0, length=len(expect), version=version
        ) == expect

    @invariant()
    def cache_is_coherent(self):
        assert_cache_coherent(self.db)

    @invariant()
    def dead_lists_are_exact(self):
        assert_dead_lists_exact(self.db)


SnapshotCacheMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None
)
TestSnapshotCacheMachine = SnapshotCacheMachine.TestCase


# ---------------------------------------------------------------------------
# Versioned appends fill a tail reservation, never a counted page
# ---------------------------------------------------------------------------


def counted_pages(db):
    """Every page a retained version reads: its index pages and, per
    leaf entry, ``[child, child + ceil(count / page size))``."""
    ps = db.config.page_size
    pages = set()
    for chain in db.versions.snapshot_chains().values():
        for record in chain:
            for page in index_pages(db, record.root_page):
                pages.add(page)
                node = disk_node(db, page)
                if node.level == 0:
                    for i in range(node.n_entries):
                        entry = node.entry(i)
                        pages.update(
                            range(entry.child, entry.child - (-entry.count // ps))
                        )
    return pages


class _CountedPageGuard:
    """An ``IOStats.observer`` failing the write that lands on a page a
    retained version counts, at the moment it is issued."""

    def __init__(self, counted):
        self.counted = counted

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        if is_write:
            hit = self.counted.intersection(
                range(first_page, first_page + n_pages)
            )
            assert not hit, f"a versioned write hit counted pages {sorted(hit)}"


class TestTailReservation:
    """Appends, inserts and deletes at the tail segment and away from it,
    with odd sizes that leave partial tail pages, and reattaches: no
    versioned write ever lands on a page some retained version counts,
    every retained version reads back as committed, and the reservation
    stays below T pages."""

    T = EOSConfig().threshold

    @pytest.mark.parametrize("retain", [1, 2, 8])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_versioned_writes_never_touch_a_counted_page(
        self, retain, data, tmp_path_factory
    ):
        db = make_db(retain=retain)
        oid = db.op_create(data.draw(st.binary(max_size=1500), label="initial"))
        history = {v.version: db.op_read(oid, offset=0, length=v.size_bytes)
                   for v in db.op_versions(oid)}
        current = bytearray(history[max(history)])
        for _ in range(data.draw(st.integers(1, 14), label="steps")):
            op = data.draw(st.sampled_from(
                ["append", "append", "insert", "delete", "reopen"]
            ), label="op")
            if op == "reopen":
                path = tmp_path_factory.mktemp("reserve") / "v.db"
                db.save(path)
                db = EOSDatabase.open_file(path)
                continue
            size = len(current)
            lo = 0
            if size and data.draw(st.booleans(), label="at_tail_segment"):
                lo = size - db.get_object(oid).segments()[-1][1].count
            guard = _CountedPageGuard(counted_pages(db))
            db.disk.stats.observer = guard
            try:
                if op == "append":
                    # Odd sizes leave a partial tail page; whole pages
                    # leave none.
                    n = data.draw(st.one_of(
                        st.integers(1, 3 * PAGE + 7),
                        st.sampled_from([PAGE, 2 * PAGE]),
                    ), label="n")
                    chunk = data.draw(st.binary(min_size=n, max_size=n))
                    db.op_append(oid, chunk)
                    current += chunk
                elif op == "insert":
                    at = data.draw(st.integers(lo, size), label="at")
                    chunk = data.draw(st.binary(min_size=1, max_size=2 * PAGE + 3))
                    db.op_insert(oid, chunk, offset=at)
                    current[at:at] = chunk
                elif size:
                    at = data.draw(st.integers(lo, size - 1), label="at")
                    length = data.draw(st.integers(1, size - at), label="length")
                    db.op_delete(oid, offset=at, length=length)
                    del current[at:at + length]
            finally:
                db.disk.stats.observer = None
            history[db.op_versions(oid)[-1].version] = bytes(current)

            for v in db.op_versions(oid):
                assert db.op_read(
                    oid, offset=0, length=v.size_bytes, version=v.version
                ) == history[v.version]
            db.verify()  # spare pages on the tail segment only
            report = fsck(db)
            assert report.clean, report.summary()
            if current:
                tail = db.get_object(oid).segments()[-1][1]
                assert tail.pages - (-(-tail.count // PAGE)) <= self.T - 1
