"""Unit tests for BuddyManager: multi-space allocation and the superdirectory."""

import hashlib
import random

import pytest

from repro.analysis.buddycheck import check_manager
from repro.api import EOSDatabase
from repro.buddy import BitmapAllocator, BuddyManager
from repro.buddy.space import BuddySpace
from repro.core.node import Node
from repro.errors import BadSegment, OutOfSpace, SegmentTooLarge
from repro.storage import DiskVolume, Volume
from repro.storage.faults import DiskFault, FaultyDisk
from repro.tools.fsck import fsck
from repro.workloads.aging import AgingWorkload


def make_manager(n_spaces=2, capacity=16, page_size=128, **kwargs):
    disk = DiskVolume(num_pages=1 + n_spaces * (1 + capacity), page_size=page_size)
    volume = Volume.format(disk, n_spaces=n_spaces, space_capacity=capacity)
    return BuddyManager.format(volume, **kwargs)


class TestAllocateFree:
    def test_allocate_returns_physical_pages(self):
        manager = make_manager()
        ref = manager.allocate(8)
        # Space 0's data area starts at physical page 2.
        assert ref.first_page == 2
        assert ref.n_pages == 8

    def test_allocations_do_not_overlap(self):
        manager = make_manager()
        seen = set()
        for _ in range(4):
            ref = manager.allocate(6)
            pages = set(range(ref.first_page, ref.end))
            assert not pages & seen
            seen |= pages
        manager.verify()

    def test_spills_to_second_space(self):
        manager = make_manager(n_spaces=2, capacity=16)
        manager.allocate(16)
        ref = manager.allocate(16)
        assert ref.first_page == manager.volume.spaces[1].first_data_page

    def test_out_of_space(self):
        manager = make_manager(n_spaces=1, capacity=16)
        manager.allocate(16)
        with pytest.raises(OutOfSpace):
            manager.allocate(1)

    def test_too_large_request(self):
        manager = make_manager(n_spaces=1, capacity=16)
        with pytest.raises(SegmentTooLarge):
            manager.allocate(32)

    def test_free_whole_segment_and_reuse(self):
        manager = make_manager(n_spaces=1, capacity=16)
        ref = manager.allocate(16)
        manager.free_segment(ref)
        again = manager.allocate(16)
        assert again == ref

    def test_free_portion(self):
        """Trimming: free only the unused tail of a segment."""
        manager = make_manager(n_spaces=1, capacity=16)
        ref = manager.allocate(16)
        manager.free(ref.first_page + 11, 5)  # trim to 11 pages
        manager.verify()
        tail = manager.allocate(4)
        assert tail.first_page == ref.first_page + 12

    def test_free_crossing_space_rejected(self):
        manager = make_manager(n_spaces=2, capacity=16)
        ref = manager.allocate(16)
        with pytest.raises(BadSegment):
            manager.free(ref.first_page + 8, 16)

    def test_allocate_up_to_fragmented(self):
        manager = make_manager(n_spaces=1, capacity=16)
        manager.allocate(8)
        manager.allocate(2)
        ref = manager.allocate_up_to(8)
        assert ref.n_pages == 4
        manager.verify()

    def test_free_pages_accounting(self):
        manager = make_manager(n_spaces=2, capacity=16)
        assert manager.free_pages() == 32
        manager.allocate(11)
        assert manager.free_pages() == 21


class TestSuperdirectory:
    def test_initial_guesses_are_optimistic(self):
        manager = make_manager(n_spaces=3, capacity=16)
        assert manager.superdirectory() == [manager.max_type] * 3

    def test_skip_counting(self):
        manager = make_manager(n_spaces=2, capacity=16)
        manager.allocate(16)
        manager.allocate(16)  # corrected guess for space 0 -> -1 (full)
        manager.stats.superdirectory_skips = 0
        with pytest.raises(OutOfSpace):
            manager.allocate(1)
        # Space 0 was skipped outright; space 1 was visited and corrected.
        assert manager.stats.superdirectory_skips >= 1

    def test_self_correction_on_wrong_guess(self):
        """A fresh manager starts optimistic; "the first wrong guess ...
        will correct the superdirectory information"."""
        manager = make_manager(n_spaces=2, capacity=16)
        manager.allocate(16)  # fill space 0
        manager.pool.flush_all()
        # Re-open with a fresh (optimistic, erroneous) superdirectory.
        fresh = BuddyManager(manager.volume)
        assert fresh.superdirectory()[0] == fresh.max_type  # wrong: space 0 full
        ref = fresh.allocate(16)  # visits space 0, fails, corrects, moves on
        assert ref.first_page == fresh.volume.spaces[1].first_data_page
        assert fresh.stats.superdirectory_corrections == 1
        assert fresh.superdirectory()[0] == -1
        # Subsequent requests skip space 0 without touching its directory.
        fresh.stats.directory_loads = 0
        with pytest.raises(OutOfSpace):
            fresh.allocate(16)
        assert fresh.stats.directory_loads == 0

    def test_without_superdirectory_every_space_is_visited(self):
        with_sd = make_manager(n_spaces=4, capacity=16, use_superdirectory=True)
        without_sd = make_manager(n_spaces=4, capacity=16, use_superdirectory=False)
        for manager in (with_sd, without_sd):
            for _ in range(4):
                manager.allocate(16)
            manager.stats.directory_loads = 0
            with pytest.raises(OutOfSpace):
                manager.allocate(16)
        assert with_sd.stats.directory_loads == 0      # all four skipped
        assert without_sd.stats.directory_loads == 4   # all four probed

    def test_latch_is_used(self):
        manager = make_manager()
        before = manager.superdirectory_latch.acquisitions
        manager.allocate(4)
        assert manager.superdirectory_latch.acquisitions > before


class TestDirectoryIO:
    def test_hot_directory_costs_no_physical_io(self):
        """Paper 3.3: repeated allocations touch only the cached directory."""
        manager = make_manager(n_spaces=1, capacity=16)
        manager.allocate(1)
        reads_before = manager.volume.disk.stats.page_reads
        manager.allocate(1)
        manager.allocate(1)
        assert manager.volume.disk.stats.page_reads == reads_before

    def test_cold_allocation_is_one_page_read(self):
        """E1's headline: 1 disk access per allocation, any segment size."""
        manager = make_manager(n_spaces=1, capacity=16)
        manager.pool.clear()
        with manager.volume.disk.stats.delta() as d:
            manager.allocate(16)
        assert d.page_reads == 1

    def test_directory_persists_across_reopen(self):
        disk = DiskVolume(num_pages=1 + 17, page_size=128)
        volume = Volume.format(disk, n_spaces=1, space_capacity=16)
        manager = BuddyManager.format(volume)
        ref = manager.allocate(11)
        manager.pool.flush_all()
        # Re-open the same disk with a fresh manager.
        volume2 = Volume.open(disk)
        manager2 = BuddyManager(volume2)
        assert manager2.free_pages() == 5
        manager2.free_segment(ref)
        assert manager2.free_pages() == 16


def aged_two_space_db() -> EOSDatabase:
    """A two-space 4 KB-page volume after a fill and two days of churn."""
    db = EOSDatabase.create(
        num_pages=1 + 2 * (1 + 4096), page_size=4096, space_capacity=4096
    )
    aging = AgingWorkload(db, mix="mixed", seed=7, target_utilization=0.55)
    aging.build()
    for _ in range(2):
        aging.run_epoch(150)
    return db


def allocator_script(buddy: BuddyManager, rng: random.Random, n_ops: int = 2000):
    """A seeded alloc / alloc-up-to / whole-free / partial-free mix.

    Returns every granted ``(first_page, n_pages)`` in order, ``"oos"``
    for a refused request.
    """
    granted: list[object] = []
    live: list[tuple[int, int]] = []
    for _ in range(n_ops):
        point = rng.random()
        if point < 0.45 or not live:
            n = rng.choice((1, 2, 3, 5, 8, 13, 21, 34, 64, 100))
            up_to = point < 0.08
            try:
                ref = buddy.allocate_up_to(4 * n) if up_to else buddy.allocate(n)
            except OutOfSpace:
                granted.append("oos")
                continue
            granted.append((ref.first_page, ref.n_pages))
            live.append((ref.first_page, ref.n_pages))
        else:
            first, n = live.pop(rng.randrange(len(live)))
            if point < 0.75 or n == 1:
                buddy.free(first, n)
                continue
            # Free a middle portion; what is left stays live.
            lo = rng.randrange(n)
            hi = rng.randrange(lo + 1, n + 1)
            buddy.free(first + lo, hi - lo)
            if lo:
                live.append((first, lo))
            if hi < n:
                live.append((first + hi, n - hi))
    return granted


def directory_images(buddy: BuddyManager) -> list[bytes]:
    return [
        bytes(buddy.load_space(i).to_page()) for i in range(buddy.volume.n_spaces)
    ]


class TestGoldenLayout:
    """Allocation decisions are pinned to the values the object-per-probe
    scan (the commit before the byte-level scan, the scan hints and the
    decoded-directory cache) produced on the same script.

    Re-recorded once on purpose since: when a plain create began taking
    one buddy run for its root and first segment, the aged volume the
    script starts from changed.  Refused requests went from 197 to 205,
    a fragmentation signal: a 1 + 2^k page pair takes a 2^(k+1) block
    where the separate root took a hole of its own.  Then the granted
    digest was 00efce8c…, the directory loads, superdirectory skips and
    pool hits 1 803 / 775 / 3 606, the directory writes 709 and the
    directory digests f12fd24b… and 0fb0ca7c….

    Re-recorded again when a plain append began ending with the trim to
    T - 1 spare pages: the churn's appends no longer leave doubled tails,
    so the aged volume holds more, smaller live objects in the same
    utilization band.  Requests went from 906 to 925 and refusals from
    205 to 217 (the script's allocations meet more, smaller holes); the
    granted digest was 58df8007…, allocations / frees / directory loads /
    superdirectory skips / pool hits 906 / 1 094 / 1 795 / 730 / 3 590,
    directory writes 701 and the directory digests 266d63c5… and
    e0a022d0….

    Re-recorded, I/O only, when an allocation stopped writing its
    directory page through: the script then cost 708 seeks and 708 page
    writes, one per granted allocation (frees rode the next one).  Now
    it writes nothing, and the ``write_dirty`` barrier that follows it
    writes each space's page once.  Every allocation decision, counter
    and digest held."""

    GRANTED_SHA = "6737888d5856c294cb6478eb6b3fd41166092e249fe9b60957796a2da0d42b03"
    DIRECTORY_SHA = [
        "3cc0930aa4140284e685b665388ea796e6645709c269fb5c1bf82dead274ddd7",
        "2931ea11bee708ac349cd7b5734e614cafae5a977abb7c9524e2aaac9190083b",
    ]

    def test_seeded_script_on_an_aged_volume_matches_recorded_values(self):
        db = aged_two_space_db()
        stats, pool = db.buddy.stats, db.buddy.pool.stats

        def counters():
            return (
                stats.allocations, stats.frees, stats.directory_loads,
                stats.superdirectory_skips, stats.superdirectory_corrections,
                pool.hits, pool.misses,
            )

        before, io_before = counters(), db.disk.stats.snapshot()
        granted = allocator_script(db.buddy, random.Random(14))
        delta = tuple(b - a for a, b in zip(before, counters()))
        db.buddy.write_dirty()
        io = db.disk.stats.snapshot() - io_before

        assert len(granted) == 925 and granted.count("oos") == 217
        assert hashlib.sha256(repr(granted).encode()).hexdigest() == self.GRANTED_SHA
        assert delta == (925, 1075, 1783, 858, 0, 3566, 0)
        # Nothing is written until the barrier, which writes each of the
        # two directory pages once.
        assert (io.seeks, io.page_reads, io.page_writes) == (2, 0, 2)
        assert [
            hashlib.sha256(image).hexdigest() for image in directory_images(db.buddy)
        ] == self.DIRECTORY_SHA
        assert check_manager(db.buddy) == []
        db.close()


class TestScanAccounting:
    def test_scans_and_probes_reach_the_allocator_stats(self):
        manager = make_manager(n_spaces=1, capacity=64)
        manager.allocate(8)            # one scan, one probe: the free 64 at 0
        assert (manager.stats.scans, manager.stats.scan_probes) == (1, 1)
        manager.allocate(8)            # hint for type 3 is 0: probes 0, then 8
        assert (manager.stats.scans, manager.stats.scan_probes) == (2, 3)
        manager.free(2, 8)
        assert manager.stats.scans == 2  # frees never scan

    def test_probe_histogram_and_db_stats(self):
        db = EOSDatabase.create(64, page_size=256)
        db.obs.enable()
        db.stats.reset()
        with db.stats.delta() as d:
            db.buddy.allocate(3)
            db.buddy.allocate(3)
        assert d.alloc.scans == 2
        assert d.alloc.scan_probes == db.buddy.stats.scan_probes
        assert d.alloc.probes_per_scan == d.alloc.scan_probes / 2
        assert d.as_dict()["alloc"]["scan_probes"] == d.alloc.scan_probes
        assert db.stats.metrics()["buddy.scan.probes"]["count"] == 2
        db.stats.reset()
        assert db.buddy.stats.scans == db.buddy.stats.scan_probes == 0
        db.close()


class TestDecodedDirectoryCache:
    """The decoded directory is a mirror of the page's frame: kept across
    calls, dropped on any failure, never trusted over the page."""

    def test_decoded_space_survives_calls_and_external_store_drops_it(self):
        manager = make_manager(n_spaces=1, capacity=64)
        assert manager.decoded_space(0) is None
        manager.allocate(8)
        decoded = manager.decoded_space(0)
        manager.allocate(8)
        assert manager.decoded_space(0) is decoded
        assert decoded.scan_hints[3] == 16
        assert manager.load_space(0) is not decoded   # always a fresh decode
        outside = manager.load_space(0)
        outside.allocate(4)
        manager.store_space(0, outside)
        assert manager.decoded_space(0) is None
        assert manager.allocate(4).first_page == 2 + 20  # sees the stored state

    def test_double_free_leaves_the_pre_operation_directory(self):
        db = EOSDatabase.create(1 + 2 * 65, page_size=256, space_capacity=64)
        ref = db.buddy.allocate(11)
        db.buddy.allocate(5)
        db.buddy.free(ref.first_page + 4, 3)
        before = directory_images(db.buddy)
        assert any(db.buddy.decoded_space(0).scan_hints)
        # Pages 0-3 of the run are freed before the scan meets the hole.
        with pytest.raises(BadSegment, match="already free"):
            db.buddy.free(ref.first_page, 11)
        assert db.buddy.decoded_space(0) is None      # hints went with it
        assert directory_images(db.buddy) == before
        db.buddy.verify()
        assert check_manager(db.buddy) == []
        assert fsck(db, expect_no_leaks=False).clean
        db.buddy.free(ref.first_page, 4)              # the same pages, legally
        assert db.buddy.decoded_space(0).scan_hints[2] == ref.first_page - 2
        db.close()

    @pytest.mark.parametrize("pending_free", [True, False])
    def test_out_of_range_free_touches_nothing(self, pending_free):
        """Rejected frees leave the frame as it was, including a free that
        is still waiting in it for the next allocation's write."""
        db = EOSDatabase.create(1 + 2 * 65, page_size=256, space_capacity=64)
        ref = db.buddy.allocate(8)
        if pending_free:
            db.buddy.free_segment(db.buddy.allocate(4))   # frame ahead of disk
        decoded = db.buddy.decoded_space(0)
        before = directory_images(db.buddy)
        last = db.volume.spaces[0].first_data_page + 63
        with pytest.raises(BadSegment, match="crosses out"):
            db.buddy.free(last, 2)
        with pytest.raises(BadSegment, match="already free"):
            db.buddy.free(ref.first_page + 8, 56)
        assert directory_images(db.buddy) == before
        assert db.buddy.decoded_space(0) is not decoded
        assert db.free_pages() == 128 - 8
        db.buddy.verify()
        assert fsck(db, expect_no_leaks=False).clean
        db.close()

    @pytest.mark.parametrize("operation", ["allocate", "free"])
    def test_directory_flush_fault_rolls_the_frame_back(self, operation):
        """The write-ahead rule under a fault: an eviction whose directory
        write dies writes neither page.  The evicted index page stays
        resident and dirty, the directory frame keeps what the op did,
        and once the disk heals one write-back carries both: the
        allocations, with the op's frees held back until a checkpoint."""
        disk = FaultyDisk(num_pages=1 + 2 * 65, page_size=256)
        db = EOSDatabase.create(
            1 + 2 * 65, page_size=256, space_capacity=64, disk=disk,
            pool_capacity=4,
        )
        oid = db.op_create(b"x" * 1000)
        db.checkpoint()
        root = db.get_object(oid).root_page
        if operation == "allocate":
            db.op_append(oid, b"y" * 1000)
        else:
            db.op_delete(oid, offset=0, length=600)
        content = db.get_object(oid).read_all()
        root_on_disk, root_in_frame = disk.peek(root), db.pool.resident_decoded(
            root, Node.from_page
        )
        on_disk = [disk.peek(e.directory_page) for e in db.volume.spaces]
        frames = directory_images(db.buddy)
        assert frames != on_disk and root_in_frame != Node.from_page(root_on_disk)
        # Clean pages of the empty second space, read to fill the pool.
        spare = [db.volume.spaces[1].first_data_page + i for i in range(8)]

        def read_spare_pages():
            for page in spare:
                with db.pool.page(page):
                    pass

        disk.arm(fail_after_writes=0)
        with pytest.raises(DiskFault):
            read_spare_pages()
        disk.heal()
        assert disk.peek(root) == root_on_disk        # the index page stayed
        assert db.pool.resident(root)
        assert [disk.peek(e.directory_page) for e in db.volume.spaces] == on_disk
        assert directory_images(db.buddy) == frames   # nothing rolled back
        assert check_manager(db.buddy) == []
        with disk.stats.delta() as d:
            read_spare_pages()
        assert d.page_writes == 2                     # the directory, the root
        assert Node.from_page(disk.peek(root)) == root_in_frame
        extent = db.volume.spaces[0]
        held = BuddySpace.from_page(256, disk.peek(extent.directory_page))
        free_on_disk = {
            extent.to_physical(page) for seg in held.amap.decode()
            if not seg.allocated for page in range(seg.start, seg.end)
        }
        named = {
            page for child, n_pages in zip(root_in_frame.child, root_in_frame.pages)
            for page in range(child, child + n_pages)
        }
        assert not named & free_on_disk               # the allocations landed
        if operation == "free":                       # the root named them
            assert disk.peek(extent.directory_page) != frames[0]
        db.checkpoint()                               # the frees land last
        assert disk.peek(db.volume.spaces[0].directory_page) == frames[0]
        assert db.get_object(oid).read_all() == content
        assert fsck(db, expect_no_leaks=True).clean
        db.close()

    def test_a_free_touches_no_disk_until_the_next_write(self):
        disk = FaultyDisk(num_pages=1 + 2 * 65, page_size=256)
        db = EOSDatabase.create(
            1 + 2 * 65, page_size=256, space_capacity=64, disk=disk
        )
        ref = db.buddy.allocate(11)
        db.buddy.write_dirty()
        directory_page = db.volume.spaces[0].directory_page
        on_disk = disk.peek(directory_page)
        disk.arm(fail_after_writes=0)
        db.buddy.free(ref.first_page + 8, 3)          # no write, no fault
        db.buddy.free(ref.first_page, 8)
        db.buddy.allocate(2)                          # nor an allocation
        disk.heal()
        assert disk.peek(directory_page) == on_disk
        # The frame is ahead of the disk, and the decoded copy mirrors it.
        assert check_manager(db.buddy) == []
        assert db.free_pages() == 126
        with disk.stats.delta() as d:
            db.buddy.write_dirty()
        assert d.page_writes == 1                     # all three ride along
        assert disk.peek(directory_page) == directory_images(db.buddy)[0]
        assert fsck(db, expect_no_leaks=False).clean
        db.close()


class TestHeldBackFrees:
    """``write_ahead`` writes a space's allocations with the frees since
    the last ``write_dirty`` still marked allocated; ``write_dirty``
    writes the frame whole."""

    def test_frees_wait_for_write_dirty(self):
        disk = DiskVolume(num_pages=1 + 2 * 65, page_size=256)
        volume = Volume.format(disk, n_spaces=2, space_capacity=64)
        manager = BuddyManager.format(volume)
        first = manager.allocate(8)
        manager.write_dirty()
        page = volume.spaces[0].directory_page

        def free_on_disk():
            return BuddySpace.from_page(256, disk.peek(page)).free_pages()

        manager.free_segment(first)
        manager.write_ahead()                 # nothing allocated: no write
        assert free_on_disk() == 56
        second = manager.allocate(4)          # reuses freed pages
        assert second.first_page == first.first_page
        third = manager.allocate(16)          # and fresh ones
        assert third.first_page >= first.end
        with disk.stats.delta() as d:
            manager.write_ahead()
        assert d.page_writes == 1
        assert free_on_disk() == 56 - 16      # the free held back
        assert manager.load_space(0).free_pages() == 64 - 20
        assert check_manager(manager) == []
        with disk.stats.delta() as d:
            manager.write_dirty()
        assert d.page_writes == 1
        assert free_on_disk() == 64 - 20


class TestBitmapBaseline:
    def test_allocate_and_free(self):
        disk = DiskVolume(num_pages=200, page_size=128)
        bitmap = BitmapAllocator(disk, first_page=0, capacity=128)
        ref = bitmap.allocate(10)
        assert ref.n_pages == 10
        assert bitmap.free_pages() == 118
        bitmap.free(ref.first_page, ref.n_pages)
        assert bitmap.free_pages() == 128

    def test_first_fit_reuses_holes(self):
        disk = DiskVolume(num_pages=200, page_size=128)
        bitmap = BitmapAllocator(disk, first_page=0, capacity=128)
        a = bitmap.allocate(10)
        bitmap.allocate(10)
        bitmap.free(a.first_page, a.n_pages)
        c = bitmap.allocate(8)
        assert c.first_page == a.first_page

    def test_double_alloc_detected(self):
        disk = DiskVolume(num_pages=200, page_size=128)
        bitmap = BitmapAllocator(disk, first_page=0, capacity=128)
        ref = bitmap.allocate(4)
        with pytest.raises(BadSegment):
            bitmap.free(ref.first_page + 2, 4)  # partially free range

    def test_out_of_space(self):
        disk = DiskVolume(num_pages=200, page_size=128)
        bitmap = BitmapAllocator(disk, first_page=0, capacity=128)
        bitmap.allocate(100)
        with pytest.raises(OutOfSpace):
            bitmap.allocate(64)

    def test_map_touches_grow_with_volume(self):
        """The E1 contrast: bitmap touches scale, buddy stays at one page."""
        disk = DiskVolume(num_pages=4200, page_size=128)
        bitmap = BitmapAllocator(disk, first_page=0, capacity=4096)
        bitmap.allocate(2048)
        bitmap.map_page_touches = 0
        bitmap.allocate(1024)  # must scan past the first 2048 pages
        assert bitmap.map_page_touches > 2
