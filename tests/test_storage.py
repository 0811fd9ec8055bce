"""Unit tests for the disk substrate: volume, I/O accounting, buffer pool."""

import pytest

from repro.errors import (
    AllPagesPinned,
    PageNotPinned,
    PageOutOfRange,
    PageSizeMismatch,
    VolumeLayoutError,
)
from repro.storage import (
    DISK_1992,
    MODERN_HDD,
    BufferPool,
    DiskVolume,
    Volume,
)


class TestDiskVolume:
    def test_round_trip_single_page(self):
        disk = DiskVolume(num_pages=10, page_size=128)
        image = bytes(range(128))
        disk.write_page(3, image)
        assert disk.read_page(3) == image

    def test_round_trip_multi_page(self):
        disk = DiskVolume(num_pages=10, page_size=128)
        data = bytes(i % 251 for i in range(3 * 128))
        disk.write_pages_v(4, [data])
        assert bytes(disk.view_pages(4, 3)) == data

    def test_rejects_partial_page_write(self):
        disk = DiskVolume(num_pages=10, page_size=128)
        with pytest.raises(PageSizeMismatch):
            disk.write_page(0, b"short")

    def test_rejects_out_of_range(self):
        disk = DiskVolume(num_pages=10, page_size=128)
        with pytest.raises(PageOutOfRange):
            disk.read_page(10)
        with pytest.raises(PageOutOfRange):
            disk.view_pages(8, 3)
        with pytest.raises(PageOutOfRange):
            disk.view_pages(-1, 1)

    def test_fresh_disk_is_zeroed(self):
        disk = DiskVolume(num_pages=2, page_size=64)
        assert disk.read_page(1) == bytes(64)

    def test_save_and_load(self, tmp_path):
        disk = DiskVolume(num_pages=5, page_size=64)
        disk.write_page(2, bytes([7] * 64))
        path = tmp_path / "volume.img"
        disk.save(path)
        restored = DiskVolume.load(path)
        assert restored.page_size == 64
        assert restored.num_pages == 5
        assert restored.peek(2) == bytes([7] * 64)

    def test_peek_poke_do_not_account(self):
        disk = DiskVolume(num_pages=4, page_size=64)
        disk.poke(1, bytes(64))
        disk.peek(1)
        assert disk.stats.page_transfers == 0


class TestSeekAccounting:
    def test_first_access_seeks(self):
        disk = DiskVolume(num_pages=100, page_size=64)
        disk.read_page(0)
        assert disk.stats.seeks == 1

    def test_contiguous_multi_page_read_is_one_seek(self):
        """Section 4.2: reading 5 pages within one segment costs 1 seek."""
        disk = DiskVolume(num_pages=100, page_size=64)
        disk.view_pages(10, 5)
        assert disk.stats.seeks == 1
        assert disk.stats.page_reads == 5

    def test_sequential_single_page_reads_do_not_reseek(self):
        """The head model, not the call structure, decides seeks."""
        disk = DiskVolume(num_pages=100, page_size=64)
        for page in range(20, 25):
            disk.read_page(page)
        assert disk.stats.seeks == 1
        assert disk.stats.page_reads == 5

    def test_scattered_reads_seek_each_time(self):
        disk = DiskVolume(num_pages=100, page_size=64)
        for page in (5, 50, 7, 99):
            disk.read_page(page)
        assert disk.stats.seeks == 4

    def test_three_segment_read_costs_three_seeks(self):
        """The paper's example: 3 segments, 6 pages -> 3 seeks + 6 transfers."""
        disk = DiskVolume(num_pages=100, page_size=64)
        disk.view_pages(10, 4)
        disk.view_pages(40, 1)
        disk.view_pages(70, 1)
        assert disk.stats.seeks == 3
        assert disk.stats.page_transfers == 6

    def test_delta_context_manager(self):
        disk = DiskVolume(num_pages=100, page_size=64)
        disk.read_page(0)
        with disk.stats.delta() as d:
            disk.view_pages(10, 3)
            disk.write_page(50, bytes(64))
        assert d.page_reads == 3
        assert d.page_writes == 1
        assert d.seeks == 2

    def test_reset(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        disk.read_page(0)
        disk.stats.reset()
        assert disk.stats.seeks == 0
        disk.read_page(1)  # head position forgotten: seeks again
        assert disk.stats.seeks == 1

    def test_write_after_read_same_spot_no_seek(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        disk.view_pages(2, 2)  # head left at page 4
        disk.write_page(4, bytes(64))
        assert disk.stats.seeks == 1


class TestGeometry:
    def test_cost_arithmetic(self):
        cost = DISK_1992.cost_ms(seeks=3, pages=6, page_size=4096)
        assert cost == pytest.approx(3 * 16.0 + 6 * 1.33)

    def test_transfer_scales_with_page_size(self):
        assert DISK_1992.transfer_ms(8192) == pytest.approx(2 * 1.33)

    def test_seek_premium_is_higher_on_modern_disks(self):
        """Contiguity matters more, not less, on modern spinning disks."""
        assert (
            MODERN_HDD.seek_equivalent_pages() > DISK_1992.seek_equivalent_pages()
        )

    def test_cost_of_snapshot(self):
        disk = DiskVolume(num_pages=10, page_size=4096)
        disk.view_pages(0, 2)
        cost = DISK_1992.cost_of(disk.stats.snapshot())
        assert cost == pytest.approx(16.0 + 2 * 1.33)


class TestBufferPool:
    def test_fetch_miss_then_hit(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        pool.fetch(3)
        pool.unpin(3)
        pool.fetch(3)
        pool.unpin(3)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.page_reads == 1  # second fetch served from memory

    def test_dirty_write_back_on_flush(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        image = pool.fetch(2)
        image[0] = 0xAB
        pool.unpin(2, dirty=True)
        pool.flush_all()
        assert disk.peek(2)[0] == 0xAB

    def test_eviction_writes_dirty_page(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=2)
        image = pool.fetch(0)
        image[0] = 0x11
        pool.unpin(0, dirty=True)
        pool.fetch(1)
        pool.unpin(1)
        pool.fetch(2)  # evicts page 0 (LRU)
        pool.unpin(2)
        assert disk.peek(0)[0] == 0x11
        assert pool.stats.evictions == 1

    def test_pinned_pages_are_not_evicted(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=2)
        pool.fetch(0)
        pool.fetch(1)
        with pytest.raises(AllPagesPinned):
            pool.fetch(2)
        pool.unpin(0)
        pool.fetch(2)  # now page 0 can go
        pool.unpin(2)
        pool.unpin(1)

    def test_unpin_requires_pin(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=2)
        with pytest.raises(PageNotPinned):
            pool.unpin(5)

    def test_fetch_new_skips_disk_read(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        pool.fetch_new(7, bytes([1] * 64))
        pool.unpin(7)
        assert disk.stats.page_reads == 0
        pool.flush_all()
        assert disk.peek(7) == bytes([1] * 64)

    def test_context_manager_form(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        with pool.page(1) as image:
            image[5] = 9
            pool.mark_dirty(1)
        pool.flush_all()
        assert disk.peek(1)[5] == 9

    def test_clear_simulates_cold_cache(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        pool.fetch(1)
        pool.unpin(1)
        pool.clear()
        pool.fetch(1)
        pool.unpin(1)
        assert pool.stats.misses == 2

    def test_drop_discards_without_writeback(self):
        disk = DiskVolume(num_pages=10, page_size=64)
        pool = BufferPool(disk, capacity=4)
        image = pool.fetch(3)
        image[0] = 0xEE
        pool.unpin(3, dirty=True)
        pool.drop(3)
        assert disk.peek(3)[0] == 0


class TestDecodedForm:
    """``pool.decoded``: the frame keeps what its clean image means."""

    def setup_method(self):
        self.disk = DiskVolume(num_pages=10, page_size=64)
        for page in range(10):
            self.disk.write_page(page, bytes([page]) * 64)
        self.disk.stats.reset()
        self.pool = BufferPool(self.disk, capacity=2)

    @staticmethod
    def decode(image):
        return bytes(image[:4])  # immutable, so safe to share

    def test_decoded_once_per_residency(self):
        first = self.pool.decoded(3, self.decode)
        again = self.pool.decoded(3, self.decode)
        assert first == bytes([3]) * 4 and again is first
        assert self.pool.stats.decodes == 1

    def test_residency_is_accounted_like_fetch(self):
        """Same hits, misses, LRU order, evictions and disk reads as the
        fetch/unpin pairs it replaces — and no pin."""
        twin_disk = DiskVolume(num_pages=10, page_size=64)
        twin = BufferPool(twin_disk, capacity=2)
        for page in (0, 1, 0, 2, 1, 0, 0, 3):
            self.pool.decoded(page, self.decode)
            twin.fetch(page)
            twin.unpin(page)
            assert list(self.pool._frames) == list(twin._frames)
        mine, theirs = self.pool.stats, twin.stats
        assert (mine.hits, mine.misses, mine.evictions, mine.writebacks) == (
            theirs.hits, theirs.misses, theirs.evictions, theirs.writebacks
        )
        assert self.disk.stats.page_reads == twin_disk.stats.page_reads
        self.pool.clear()  # would raise if decoded() had left a pin

    def test_handing_out_the_image_voids_it(self):
        self.pool.decoded(3, self.decode)
        self.pool.fetch(3)
        self.pool.unpin(3)
        assert self.pool._frames[3].decoded is None
        self.pool.decoded(3, self.decode)
        with self.pool.page(3, dirty=True) as image:
            image[:4] = b"edit"
        assert self.pool.decoded(3, self.decode) == b"edit"
        assert self.pool.stats.decodes == 3

    def test_fresh_image_replaces_it(self):
        self.pool.decoded(3, self.decode)
        self.pool.put_new(3, b"new!" + bytes(60))
        assert self.pool._frames[3].decoded is None
        assert self.pool.decoded(3, self.decode) == b"new!"
        self.pool.decoded(4, self.decode)
        self.pool.fetch_new(4, b"more" + bytes(60))
        self.pool.unpin(4)
        assert self.pool.decoded(4, self.decode) == b"more"

    def test_not_remembered_while_a_pin_is_out(self):
        image = self.pool.fetch(3)
        assert self.pool.decoded(3, self.decode) == bytes([3]) * 4
        image[:4] = b"late"  # the pin holder is still writing
        assert self.pool._frames[3].decoded is None
        self.pool.unpin(3, dirty=True)
        assert self.pool.decoded(3, self.decode) == b"late"

    def test_goes_with_the_frame(self):
        self.pool.decoded(0, self.decode)
        self.pool.decoded(1, self.decode)
        self.pool.decoded(2, self.decode)  # evicts page 0
        assert not self.pool.resident(0)
        self.pool.drop(1)
        self.pool.decoded(1, self.decode)
        self.pool.clear()
        self.pool.decoded(1, self.decode)
        assert self.pool.stats.decodes == 5

    def test_failed_decode_leaves_nothing_behind(self):
        def refuse(image):
            raise ValueError("not a node")

        with pytest.raises(ValueError):
            self.pool.decoded(3, refuse)
        assert self.pool.resident(3) and self.pool._frames[3].decoded is None
        assert self.pool.decoded(3, self.decode) == bytes([3]) * 4


class TestVolumeLayout:
    def test_format_and_open(self):
        disk = DiskVolume(num_pages=1 + 2 * 9, page_size=128)
        Volume.format(disk, n_spaces=2, space_capacity=8)
        volume = Volume.open(disk)
        assert volume.n_spaces == 2
        assert volume.space_capacity == 8
        assert volume.spaces[0].directory_page == 1
        assert volume.spaces[0].first_data_page == 2
        assert volume.spaces[1].directory_page == 10

    def test_layout_must_fit(self):
        disk = DiskVolume(num_pages=5, page_size=128)
        with pytest.raises(VolumeLayoutError):
            Volume.format(disk, n_spaces=2, space_capacity=8)

    def test_address_translation_round_trip(self):
        disk = DiskVolume(num_pages=1 + 2 * 9, page_size=128)
        volume = Volume.format(disk, n_spaces=2, space_capacity=8)
        extent = volume.spaces[1]
        physical = extent.to_physical(3)
        assert extent.to_local(physical) == 3

    def test_translation_bounds(self):
        disk = DiskVolume(num_pages=1 + 9, page_size=128)
        volume = Volume.format(disk, n_spaces=1, space_capacity=8)
        with pytest.raises(VolumeLayoutError):
            volume.spaces[0].to_physical(8)
        with pytest.raises(VolumeLayoutError):
            volume.spaces[0].to_local(1)  # the directory page itself

    def test_space_of_physical(self):
        disk = DiskVolume(num_pages=1 + 2 * 9, page_size=128)
        volume = Volume.format(disk, n_spaces=2, space_capacity=8)
        assert volume.space_of_physical(2).index == 0
        assert volume.space_of_physical(11).index == 1
        with pytest.raises(VolumeLayoutError):
            volume.space_of_physical(0)  # the volume header
