"""Unit tests for SegmentIO, the pagers, and disk fault injection."""

import pytest

from repro import EOSConfig, EOSDatabase
from repro.core.node import Entry, Node
from repro.core.segio import SegmentIO, allocate_and_write
from repro.errors import LargeObjectError
from repro.recovery import RecoveryManager
from repro.storage import DiskVolume
from repro.storage.faults import DiskFault, FaultyDisk

PAGE = 128


def make_db(**cfg):
    config = EOSConfig(page_size=PAGE, threshold=2, **cfg)
    return EOSDatabase.create(num_pages=2000, page_size=PAGE, config=config)


class TestSegmentIO:
    def setup_method(self):
        self.disk = DiskVolume(num_pages=64, page_size=PAGE)
        self.segio = SegmentIO(self.disk, PAGE)

    def test_write_pads_final_page(self):
        self.segio.write_segment(4, b"A" * 300)
        raw = self.disk.peek(4, 3)
        assert raw[:300] == b"A" * 300
        assert raw[300:] == bytes(3 * PAGE - 300)

    def test_read_bytes_single_run(self):
        self.segio.write_segment(10, bytes(range(250)) + bytes(130))
        self.disk.stats.reset()
        data = self.segio.read_bytes(10, 100, 260)
        assert data == (bytes(range(250)) + bytes(130))[100:260]
        assert self.disk.stats.read_calls == 1
        assert self.disk.stats.seeks == 1

    def test_read_bytes_empty_range(self):
        assert self.segio.read_bytes(0, 5, 5) == b""
        assert self.disk.stats.page_reads == 0

    def test_read_span_base_offset(self):
        self.segio.write_segment(0, bytes(PAGE) + b"B" * PAGE)
        span, base = self.segio.read_span(0, 1, 1)
        assert base == PAGE
        assert span == b"B" * PAGE

    def test_patch_page_returns_preimage(self):
        self.segio.write_segment(7, b"x" * PAGE)
        old = self.segio.patch_page(7, 10, b"YY")
        assert old == b"x" * PAGE
        assert self.disk.peek(7)[10:12] == b"YY"

    def test_patch_overflow_rejected(self):
        with pytest.raises(LargeObjectError):
            self.segio.patch_page(0, PAGE - 1, b"AB")

    def test_mismatched_page_size_rejected(self):
        with pytest.raises(LargeObjectError):
            SegmentIO(self.disk, 256)

    def test_allocate_and_write_exact(self):
        db = make_db()
        segments = allocate_and_write(db.segio, db.buddy, b"z" * 300)
        assert sum(count for _, count in segments) == 300
        total_pages = sum(ref.n_pages for ref, _ in segments)
        assert total_pages == 3  # ceil(300/128), trimmed exactly

    def test_allocate_and_write_spans_max_segment(self):
        db = make_db()
        big = bytes(db.buddy.max_segment_pages * PAGE + 50)
        segments = allocate_and_write(db.segio, db.buddy, big)
        assert len(segments) >= 2
        assert sum(c for _, c in segments) == len(big)


class TestInPlacePager:
    def setup_method(self):
        self.db = make_db()
        self.pager = self.db.pager

    def test_round_trip(self):
        page = self.pager.allocate()
        node = Node(0, [Entry(100, 5, 1)])
        assert self.pager.write_new(page, node) == page
        restored = self.pager.read(page)
        assert restored.entries[0].count == 100

    def test_write_returns_same_page(self):
        page = self.pager.allocate()
        self.pager.write_new(page, Node(0))
        assert self.pager.write(page, Node(0, [Entry(1, 2, 1)])) == page

    def test_free_returns_page_to_buddy(self):
        free0 = self.db.free_pages()
        page = self.pager.allocate()
        self.pager.write_new(page, Node(0))
        assert self.db.free_pages() == free0 - 1
        self.pager.free(page)
        assert self.db.free_pages() == free0

    def test_write_new_charges_no_read(self):
        page = self.pager.allocate()
        reads = self.db.disk.stats.page_reads
        self.pager.write_new(page, Node(0))
        assert self.db.disk.stats.page_reads == reads


class TestFaultyDisk:
    def test_reads_survive_faults(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.write_page(1, b"a" * PAGE)
        disk.arm(0)
        with pytest.raises(DiskFault):
            disk.write_page(2, b"b" * PAGE)
        assert disk.read_page(1) == b"a" * PAGE  # platters intact

    def test_failing_write_not_applied(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.write_page(3, b"old" + bytes(PAGE - 3))
        disk.arm(0)
        with pytest.raises(DiskFault):
            disk.write_page(3, b"new" + bytes(PAGE - 3))
        assert disk.peek(3)[:3] == b"old"

    def test_heal_restores_service(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.arm(0)
        with pytest.raises(DiskFault):
            disk.write_page(0, bytes(PAGE))
        disk.heal()
        disk.write_page(0, b"k" + bytes(PAGE - 1))
        assert disk.peek(0)[0:1] == b"k"

    def test_countdown(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.arm(2)
        disk.write_page(0, bytes(PAGE))
        disk.write_page(1, bytes(PAGE))
        with pytest.raises(DiskFault):
            disk.write_page(2, bytes(PAGE))

    def test_read_fault_countdown(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.write_page(1, b"a" * PAGE)
        disk.arm(fail_after_reads=2)
        disk.read_page(1)
        disk.view_pages(1, 1)  # a run counts as one transfer call
        with pytest.raises(DiskFault):
            disk.read_page(1)
        with pytest.raises(DiskFault):  # the read path stays down
            disk.view_pages(1, 1)

    def test_read_fault_leaves_writes_working(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.arm(fail_after_reads=0)
        with pytest.raises(DiskFault):
            disk.read_page(0)
        disk.write_page(0, b"w" + bytes(PAGE - 1))  # media error, not power loss
        assert disk.peek(0)[0:1] == b"w"

    def test_heal_restores_reads(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.write_page(1, b"a" * PAGE)
        disk.arm(fail_after_reads=0)
        with pytest.raises(DiskFault):
            disk.read_page(1)
        disk.heal()
        assert disk.read_page(1) == b"a" * PAGE

    def test_arm_requires_a_budget(self):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        with pytest.raises(ValueError):
            disk.arm()

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: d.read_page(1),
            lambda d: d.view_pages(1, 2),
            lambda d: d.write_page(1, bytes(PAGE)),
            lambda d: d.write_pages_v(1, [bytes(PAGE), bytes(PAGE)]),
        ],
        ids=["read_page", "view_pages", "write_page", "write_pages_v"],
    )
    def test_each_public_call_spends_one_budget_unit(self, call):
        disk = FaultyDisk(num_pages=8, page_size=PAGE)
        disk.arm(2, fail_after_reads=2)
        call(disk)
        call(disk)
        with pytest.raises(DiskFault):
            call(disk)
        # The other path's budget is untouched.
        assert disk.writes_seen + disk.reads_seen == 2

    def test_load_restores_a_saved_image_as_a_faulty_disk(self, tmp_path):
        plain = DiskVolume(num_pages=8, page_size=PAGE)
        plain.write_page(3, b"s" * PAGE)
        plain.save(tmp_path / "vol.img")
        disk = FaultyDisk.load(tmp_path / "vol.img")
        assert isinstance(disk, FaultyDisk)
        assert (disk.num_pages, disk.page_size) == (8, PAGE)
        assert disk.read_page(3) == b"s" * PAGE
        disk.arm(fail_after_reads=0)
        with pytest.raises(DiskFault):
            disk.read_page(3)


class TestCrashAtomicityUnderDiskFaults:
    """Wherever the power fails during a shadowed update, the object is
    afterwards exactly the old version or exactly the new version."""

    @pytest.mark.parametrize("fail_after", [0, 1, 2, 3, 5, 8, 13, 21, 100])
    def test_every_crash_point_is_atomic(self, fail_after):
        config = EOSConfig(page_size=PAGE, threshold=2)
        faulty = FaultyDisk(num_pages=2000, page_size=PAGE)
        db = EOSDatabase.create(num_pages=2000, page_size=PAGE, config=config, disk=faulty)

        payload = bytes(i % 251 for i in range(3000))
        obj = db.create_object(payload, size_hint=3000)
        db.checkpoint()
        manager = RecoveryManager(db)

        old = payload
        new = payload[:1000] + b"NEW BYTES" + payload[1000:]
        txn = manager.begin()
        faulty.arm(fail_after)
        crashed = False
        try:
            txn.open(obj).insert(1000, b"NEW BYTES")
        except DiskFault:
            crashed = True
        faulty.heal()
        if not crashed:
            db.checkpoint()  # the update completed; make it durable
        # "Reboot": volatile state (buffer pool) is lost; reread from disk.
        db.pool._frames.clear()
        content = obj.read_all()
        if crashed:
            assert content in (old, new), (
                f"torn state after crash at write #{fail_after}"
            )
        else:
            assert content == new


class _Rig:
    """One fragmented object behind one of the three index pagers."""

    PAYLOAD = bytes(i % 251 for i in range(40 * PAGE))

    def __init__(self, kind, *, inserts, pool_capacity=128):
        self.kind = kind
        config = EOSConfig(page_size=PAGE, threshold=1, versioning=kind == "version")
        self.disk = FaultyDisk(num_pages=2000, page_size=PAGE)
        self.db = EOSDatabase.create(
            2000, PAGE, config=config, pool_capacity=pool_capacity, disk=self.disk
        )
        self.oid = self.db.op_create(self.PAYLOAD, size_hint=len(self.PAYLOAD))
        self.manager = RecoveryManager(self.db) if kind == "shadow" else None
        self.content = bytearray(self.PAYLOAD)
        # Insert k leaves the root one insert short of growing (k=3) or
        # its last child one insert short of splitting (k=6).
        for i in range(1, inserts + 1):
            self.insert_number(i)
        self.db.checkpoint()

    @property
    def obj(self):
        return self.db.get_object(self.oid)

    def insert(self, at, data):
        if self.manager is not None:
            txn = self.manager.begin()
            try:
                txn.open(self.obj).insert(at, data)
            except BaseException:
                # The unit aborted itself; there is nothing to undo.
                self.manager.locks.release_all(txn.txn_id)
                raise
            txn.commit()
        else:
            self.db.op_insert(self.oid, data, offset=at)
        self.content[at:at] = data

    def insert_number(self, i):
        """The i-th insert of the fixed script (1-based)."""
        self.insert((300 + 611 * i) % len(self.content), b"#" * 10)

    def fail_index_allocations(self, monkeypatch):
        from repro.errors import OutOfSpace

        def refuse():
            raise OutOfSpace(1)

        monkeypatch.setattr(self.db.pager, "allocate", refuse)

    def assert_pages_are_the_truth(self):
        """Whatever the failed op did to the nodes it held, a reader gets
        what the page holds — from the frame's decoded form or afresh."""
        db = self.db
        db.pool.flush_all()
        pages = [p for p, f in db.pool._frames.items() if f.decoded is not None]
        for page in [self.obj.root_page, *pages]:
            assert db.pager.read(page) == Node.from_page(db.disk.peek(page)), page

    def assert_untouched(self, *, dead_disk=False):
        from repro.tools.fsck import fsck

        size = self.db.op_size(self.oid)
        assert self.db.op_read(self.oid, offset=0, length=size) == self.content
        self.obj.verify()
        report = fsck(self.db)
        if dead_disk:
            # The abort freed pages through the same dead disk: the
            # allocator may have leaked one; the trees may not be wrong.
            assert report.errors == [], report.summary()
        else:
            assert report.clean, report.summary()


class TestFailedOpsLeaveNothingDecodedBehind:
    """An op that dies after mutating the nodes on its path (a split or
    a root grow that cannot get a page, a disk that stops writing) must
    not be observable through nodes other readers are handed: each
    reader's entry list is its own, and a frame's decoded form is void
    from the moment its image is handed out for writing."""

    SCENARIOS = {"_finish_root": 3, "_emit": 6}

    @pytest.mark.parametrize("kind", ["inplace", "shadow", "version"])
    @pytest.mark.parametrize("where", ["_finish_root", "_emit"])
    def test_out_of_space_inside_a_split_or_a_grow(self, kind, where, monkeypatch):
        from repro.errors import OutOfSpace

        inserts = self.SCENARIOS[where]
        rig = _Rig(kind, inserts=inserts)
        rig.fail_index_allocations(monkeypatch)
        with pytest.raises(OutOfSpace) as excinfo:
            rig.insert_number(inserts + 1)
        assert where in [entry.name for entry in excinfo.traceback]
        monkeypatch.undo()
        rig.assert_pages_are_the_truth()
        if kind != "inplace":  # the in-place pager promises no atomicity
            rig.assert_untouched()
            rig.insert_number(inserts + 1)  # and the object is still editable
            rig.assert_untouched()

    @pytest.mark.parametrize("kind", ["inplace", "shadow", "version"])
    @pytest.mark.parametrize("fail_after", [0, 1, 2, 3, 4, 6, 8])
    def test_disk_write_fault_mid_edit(self, kind, fail_after):
        # A 2-frame pool writes index pages back in the middle of the op.
        rig = _Rig(kind, inserts=6, pool_capacity=2)
        old = bytes(rig.content)
        rig.disk.arm(fail_after)
        try:
            rig.insert_number(7)
            failed = False
        except DiskFault:
            failed = True
        rig.disk.heal()
        rig.assert_pages_are_the_truth()
        if not failed:
            rig.assert_untouched()
        elif kind == "version":
            # Exactly the old version, or — when the disk died after the
            # publish, in the reclaimer — exactly the new one.  (A shadow
            # unit's abort can itself die on the dead disk; restart
            # recovery, tested above, speaks for that pager.)
            if rig.db.op_size(rig.oid) != len(old):
                at = (300 + 611 * 7) % len(old)
                rig.content[at:at] = b"#" * 10  # what insert_number(7) wrote
            rig.assert_untouched(dead_disk=True)
