"""E1 — allocation cost: one directory page, regardless of segment size.

Objective 4 (Section 1): "allocation of large physically contiguous disk
space should be fast; ideally, 1 disk access regardless of the space
size."  Section 3.3: "the entire activity of allocating and deallocating
segments is carried out by examining the directory page only", and the
superdirectory keeps multi-space databases from probing every directory.

The foil is a block-at-a-time bitmap allocator over the same number of
pages: its first-fit scan must walk the occupied prefix of the volume,
touching one map page per 4096 pages scanned, and then flip a bit for
every page of the run.

The volume is ~60,000 pages of 512 bytes (31 buddy spaces), half full
before each measured allocation.

An allocation only dirties its directory frame; the page reaches the
disk at the next barrier (``write_ahead``, which runs before an index
page is written back), once however many allocations in its space came
before it.  So a cold allocation costs one
directory read and no write, and with the barrier behind it one read
and one write.
"""

from repro.bench.reporting import ExperimentReport
from repro.buddy.bitmap import BitmapAllocator
from repro.buddy.directory import max_capacity
from repro.buddy.manager import BuddyManager
from repro.storage.disk import DiskVolume
from repro.storage.volume import Volume

PAGE = 512
SPACE_CAPACITY = max_capacity(PAGE)  # 1936 pages
N_SPACES = 31
CAPACITY = N_SPACES * SPACE_CAPACITY


def fresh_buddy():
    disk = DiskVolume(num_pages=1 + N_SPACES * (1 + SPACE_CAPACITY), page_size=PAGE)
    volume = Volume.format(disk, n_spaces=N_SPACES, space_capacity=SPACE_CAPACITY)
    manager = BuddyManager.format(volume)
    # Fill the first half of the volume.
    for _ in range(N_SPACES):
        if manager.free_pages() <= CAPACITY // 2:
            break
        manager.allocate(manager.max_segment_pages)
    return disk, manager


def fresh_bitmap():
    disk = DiskVolume(num_pages=CAPACITY + 32, page_size=PAGE)
    bitmap = BitmapAllocator(disk, first_page=0, capacity=CAPACITY)
    bitmap.allocate(CAPACITY // 2)
    return disk, bitmap


def test_e1_allocation_touches_one_page(benchmark):
    report = ExperimentReport(
        "E1",
        "Disk pages touched per allocation (half-full 60k-page volume, cold cache)",
        [
            "segment pages", "buddy dir reads", "buddy dir writes",
            "dir writes incl. barrier", "bitmap map touches",
        ],
        page_size=PAGE,
    )
    max_seg = None
    for size in (1, 16, 128, 1024):
        disk, manager = fresh_buddy()
        max_seg = manager.max_segment_pages
        manager.pool.clear()
        disk.stats.reset()
        with disk.stats.delta() as d:
            manager.allocate(size)  # only the frame is dirtied
        with disk.stats.delta() as barrier:
            manager.write_ahead()
        bdisk, bitmap = fresh_bitmap()
        bitmap.map_page_touches = 0
        bitmap.allocate(size)
        report.add_row([
            size, d.page_reads, d.page_writes,
            d.page_writes + barrier.page_writes, bitmap.map_page_touches,
        ])
        # The headline claim: one directory read, and one write at the
        # barrier, any segment size.  The superdirectory steers straight to a space
        # with room, so the 15 full spaces are never touched.
        assert (d.page_reads, d.page_writes, barrier.page_writes) == (1, 0, 1)
        assert bitmap.map_page_touches > 2
    assert max_seg == 1024

    # N allocations in one space before the barrier: one write for all.
    disk, manager = fresh_buddy()
    manager.pool.clear()
    with disk.stats.delta() as batch:
        refs = [manager.allocate(size) for size in (1, 16, 128) * 4]
        manager.write_ahead()
    assert len({manager.space_of(ref.first_page) for ref in refs}) == 1
    assert (batch.page_reads, batch.page_writes) == (1, 1)
    report.note(
        "the bitmap's first-fit scan walks ~30,000 occupied bits (8 map "
        "pages) before finding room; the buddy system's superdirectory + "
        "count array goes straight to the right directory page"
    )
    report.note(
        f"{len(refs)} allocations in one space, then the barrier: "
        f"{batch.page_reads} directory read, {batch.page_writes} write"
    )
    report.emit()

    disk, manager = fresh_buddy()

    def alloc_free_cycle():
        ref = manager.allocate(1024)
        manager.free_segment(ref)

    benchmark(alloc_free_cycle)
