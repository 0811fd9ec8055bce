"""Error-path coverage: corrupt inputs, protocol misuse, exhaustion."""

import pytest

from repro import EOSConfig, EOSDatabase
from repro.buddy.amap import AllocationMap
from repro.buddy.directory import pack_directory, unpack_directory
from repro.buddy.space import BuddySpace
from repro.core.node import Node
from repro.errors import (
    DirectoryCorrupt,
    LogCorrupt,
    OutOfSpace,
    RecoveryError,
    VolumeLayoutError,
)
from repro.recovery import ShadowPager, WriteAheadLog
from repro.recovery.log import OpKind
from repro.storage import DiskVolume, Volume


class TestCorruptInputs:
    def test_truncated_log_header(self):
        log = WriteAheadLog()
        log.append(1, OpKind.BEGIN)
        raw = log.to_bytes()
        with pytest.raises(LogCorrupt):
            WriteAheadLog.from_bytes(raw[:-1])

    def test_truncated_log_payload(self):
        log = WriteAheadLog()
        log.append(1, OpKind.INSERT, root_page=1, data=b"payload")
        raw = log.to_bytes()
        with pytest.raises(LogCorrupt):
            WriteAheadLog.from_bytes(raw[:-3])

    def test_amap_from_short_bytes(self):
        with pytest.raises(DirectoryCorrupt):
            AllocationMap.from_bytes(b"\x0f", capacity=16)

    def test_directory_wrong_count_length(self):
        with pytest.raises(DirectoryCorrupt):
            pack_directory(128, 16, [0, 0], b"\x0f" * 4)  # needs k+1 entries

    def test_directory_count_overflow(self):
        # page size 128 -> k = 8 -> 9 entries
        counts = [0] * 9
        counts[0] = 70000  # > u16
        with pytest.raises(DirectoryCorrupt):
            pack_directory(128, 16, counts, b"\x0f" * 4)

    def test_directory_unknown_version(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        image = space.to_page()
        image[0] = 99
        with pytest.raises(DirectoryCorrupt):
            unpack_directory(image)

    def test_directory_page_too_small_for_map(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        image = bytes(space.to_page())[:20]
        with pytest.raises(DirectoryCorrupt):
            unpack_directory(image)

    def test_volume_open_unformatted_disk(self):
        disk = DiskVolume(num_pages=32, page_size=128)
        with pytest.raises(VolumeLayoutError):
            Volume.open(disk)

    def test_disk_load_bad_magic(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"not a volume image at all" * 10)
        with pytest.raises(ValueError):
            DiskVolume.load(path)

    def test_disk_load_truncated(self, tmp_path):
        disk = DiskVolume(num_pages=8, page_size=128)
        path = tmp_path / "vol.img"
        disk.save(path)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(ValueError):
            DiskVolume.load(path)


class TestShadowProtocol:
    def make(self):
        db = EOSDatabase.create(
            num_pages=512, page_size=128,
            config=EOSConfig(page_size=128),
        )
        return db, ShadowPager(db.pager)

    def test_double_begin(self):
        _, shadow = self.make()
        shadow.begin_unit()
        with pytest.raises(RecoveryError):
            shadow.begin_unit()

    def test_commit_without_begin(self):
        _, shadow = self.make()
        with pytest.raises(RecoveryError):
            shadow.commit_unit(1)

    def test_abort_without_begin(self):
        _, shadow = self.make()
        with pytest.raises(RecoveryError):
            shadow.abort_unit()

    def test_crash_without_begin(self):
        _, shadow = self.make()
        with pytest.raises(RecoveryError):
            shadow.crash_unit()

    def test_abort_frees_only_new_pages(self):
        db, shadow = self.make()
        free0 = db.free_pages()
        shadow.begin_unit()
        page = shadow.allocate()
        shadow.write_new(page, Node(0))
        freed = shadow.abort_unit()
        assert freed == {page}
        assert db.free_pages() == free0


class TestExhaustion:
    def test_out_of_space_bubbles_from_object_create(self):
        config = EOSConfig(page_size=128)
        db = EOSDatabase.create(num_pages=64, page_size=128, config=config)
        with pytest.raises(OutOfSpace):
            db.create_object(bytes(128 * 200))

    def test_partial_failure_leaves_allocator_consistent(self):
        config = EOSConfig(page_size=128, threshold=2)
        db = EOSDatabase.create(num_pages=128, page_size=128, config=config)
        obj = db.create_object(bytes(3000), size_hint=3000)
        with pytest.raises(OutOfSpace):
            obj.append(bytes(128 * 200))
        # The allocator is still internally consistent afterwards.
        db.buddy.verify()

    def test_allocate_up_to_spills_across_spaces(self):
        disk = DiskVolume(num_pages=1 + 2 * 17, page_size=128)
        volume = Volume.format(disk, n_spaces=2, space_capacity=16)
        from repro.buddy.manager import BuddyManager

        manager = BuddyManager.format(volume)
        manager.allocate(16)  # space 0 full
        manager.allocate(8)   # space 1 half full
        ref = manager.allocate_up_to(16)
        assert ref.n_pages == 8  # the biggest run anywhere
        manager.verify()


class TestRefusedEditsLeaveNoTrace:
    """A plain edit the volume cannot hold raises ``OutOfSpace`` and
    leaves the object, the directory and the pool as they were.

    The object's root holds ``root_fanout`` (6) leaf entries, so an edit
    that adds entries splits the root onto fresh index pages.  At the
    parent an insert or delete freed its old segment before the root
    stopped naming it: the split took that page back as an index child,
    and when the second split page was not there the refused edit left
    the object reading wrong bytes and leaked its new segments.
    """

    @staticmethod
    def volume(free: int, tail: int):
        db = EOSDatabase.create(
            200, 100, config=EOSConfig(page_size=100, threshold=1)
        )
        oid = db.op_create(b"a" * tail, size_hint=tail)
        tree = db.get_object(oid).tree
        while tree.read_root().n_entries < tree.root_fanout:
            db.op_insert(oid, b"i" * 100, offset=0)
        while db.free_pages() > free:
            db.op_create(b"f" * 100 if db.free_pages() - free >= 2 else b"")
        return db, oid

    @staticmethod
    def edit(kind: str, db, oid: int, before: bytes) -> bytes:
        """Run one edit; returns the content it leaves when it lands."""
        size = len(before)
        if kind == "insert at 0":
            db.op_insert(oid, b"j" * 100, offset=0)
            return b"j" * 100 + before
        if kind == "delete in the tail":
            db.op_delete(oid, offset=size - 200, length=50)
            return before[: size - 200] + before[size - 150 :]
        db.op_append(oid, b"k" * 100)
        return before + b"k" * 100

    @pytest.mark.parametrize("free", range(5))
    @pytest.mark.parametrize(
        "kind", ["insert at 0", "delete in the tail", "append"]
    )
    def test_refused_edit_changes_nothing(self, kind, free):
        from repro.tools.fsck import fsck

        db, oid = self.volume(free, 300)
        before = db.op_read(oid, offset=0, length=db.op_size(oid))
        free_before = db.free_pages()
        try:
            expected = self.edit(kind, db, oid, before)
        except OutOfSpace:
            expected = before
            assert db.free_pages() == free_before
        db.pool.clear()
        assert db.op_read(oid, offset=0, length=db.op_size(oid)) == expected
        report = fsck(db, expect_no_leaks=True)
        assert report.clean, report.summary()

    def test_the_insert_that_lost_data_is_refused_whole(self):
        from repro.tools.fsck import fsck

        db, oid = self.volume(2, 100)
        with pytest.raises(OutOfSpace):
            db.op_insert(oid, b"j" * 100, offset=0)
        assert db.free_pages() == 2
        db.pool.clear()
        assert db.op_read(oid, offset=0, length=700) == b"i" * 600 + b"a" * 100
        report = fsck(db, expect_no_leaks=True)
        assert report.clean, report.summary()


class TestStreamMisuse:
    def test_closed_stream_rejects_io(self):
        from repro.core.stream import ObjectStream

        db = EOSDatabase.create(
            num_pages=512, page_size=128, config=EOSConfig(page_size=128)
        )
        stream = ObjectStream(db.create_object(b"data"))
        stream.close()
        assert stream.closed
        # Closing twice is fine (io contract).
        stream.close()
