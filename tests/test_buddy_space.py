"""Unit + property tests for BuddySpace: Section 3.2 and Figure 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.amap import SegmentView
from repro.buddy.directory import max_capacity, max_segment_type
from repro.buddy.space import BuddySpace
from repro.errors import BadSegment, DirectoryCorrupt, SegmentTooLarge
from repro.util.bitops import floor_log2


def segments_of(space: BuddySpace) -> list[SegmentView]:
    return space.verify()


class TestDirectoryDerivedLimits:
    """The Figure 1 arithmetic for 4 KB pages (see DESIGN.md F1)."""

    def test_max_segment_type_4k(self):
        # "with 4K-byte disk pages, the maximum segment size that can be
        # supported is 2^13 pages (32 megabytes)"
        assert max_segment_type(4096) == 13

    def test_max_capacity_4k(self):
        # The paper gets 4068*4 = 16,272 pages with a bare count array; our
        # 6-byte header shaves 6*4 = 24 pages off that.
        assert max_capacity(4096) == 16272 - 24

    def test_roundtrip_through_directory_page(self):
        space = BuddySpace.create(page_size=256, capacity=64)
        space.allocate(11)
        image = space.to_page()
        assert len(image) == 256
        restored = BuddySpace.from_page(256, bytes(image))
        assert restored.counts == space.counts
        assert restored.verify() == space.verify()


class TestCreate:
    def test_power_of_two_capacity_is_one_segment(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        assert segments_of(space) == [SegmentView(0, 16, False)]
        assert space.counts[4] == 1
        assert space.free_pages() == 16

    def test_non_power_capacity_decomposes(self):
        space = BuddySpace.create(page_size=128, capacity=24)
        assert segments_of(space) == [
            SegmentView(0, 16, False),
            SegmentView(16, 8, False),
        ]

    def test_capacity_beyond_max_segment_uses_runs(self):
        # page_size 64 -> max type 7 (128 pages); capacity 168 needs a
        # max-size run plus an aligned remainder.
        space = BuddySpace.create(page_size=64, capacity=168)
        assert space.max_type == 7
        assert segments_of(space) == [
            SegmentView(0, 128, False),
            SegmentView(128, 32, False),
            SegmentView(160, 8, False),
        ]


class TestAllocateDeallocate:
    def test_exact_power_of_two(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        start = space.allocate(8)
        assert start == 0
        assert segments_of(space) == [
            SegmentView(0, 8, True),
            SegmentView(8, 8, False),
        ]

    def test_split_produces_right_halves(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        start = space.allocate(1)
        assert start == 0
        assert segments_of(space) == [
            SegmentView(0, 1, True),
            SegmentView(1, 1, False),
            SegmentView(2, 2, False),
            SegmentView(4, 4, False),
            SegmentView(8, 8, False),
        ]

    def test_free_coalesces_back_to_whole_space(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(1)
        space.free(0, 1)
        assert segments_of(space) == [SegmentView(0, 16, False)]
        assert space.counts[4] == 1

    def test_allocate_too_large(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        with pytest.raises(SegmentTooLarge):
            space.allocate(32)

    def test_allocate_exhausted_returns_none(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        assert space.allocate(16) == 0
        assert space.allocate(1) is None

    def test_double_free_detected(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(4)
        space.free(0, 4)
        with pytest.raises(BadSegment):
            space.free(0, 4)

    def test_free_of_unallocated_range_detected(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        with pytest.raises(BadSegment):
            space.free(4, 4)

    def test_corrupt_counts_detected_by_scan(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(16)
        space.counts[2] = 1  # lie: claim a free 4-page segment exists
        with pytest.raises(DirectoryCorrupt):
            space.find_free(2)


class TestAnySizeAllocation:
    """Figure 4.a/4.b: an 11-page request inside a 16-page segment."""

    def test_figure4_b_layout(self):
        # Conceptually the 11 pages are segments of 2^3 + 2^1 + 2^0; the
        # map's quad encoding records allocated sub-4-page pieces per page
        # (their sizes live with whoever freed them), so the 2-page piece
        # decodes as two singles.
        space = BuddySpace.create(page_size=128, capacity=16)
        start = space.allocate(11)
        assert start == 0
        assert segments_of(space) == [
            SegmentView(0, 8, True),     # 2^3
            SegmentView(8, 1, True),     # 2^1, per-page
            SegmentView(9, 1, True),
            SegmentView(10, 1, True),    # 2^0
            SegmentView(11, 1, False),   # remainder 5 = 1 + 4, reversed
            SegmentView(12, 4, False),
        ]
        assert space.free_pages() == 5

    def test_figure4_c_partial_free(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(11)
        space.free(3, 7)  # free 7 pages starting from page 3
        assert segments_of(space) == [
            SegmentView(0, 1, True),
            SegmentView(1, 1, True),
            SegmentView(2, 1, True),
            SegmentView(3, 1, False),
            SegmentView(4, 4, False),
            SegmentView(8, 2, False),
            SegmentView(10, 1, True),
            SegmentView(11, 1, False),
            SegmentView(12, 4, False),
        ]

    def test_figure4_d_iterative_coalescing(self):
        """Freeing page 10 triggers the 10+11 -> 8..11 -> 8..15 chain."""
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(11)
        space.free(3, 7)
        space.free(10, 1)
        assert segments_of(space) == [
            SegmentView(0, 1, True),
            SegmentView(1, 1, True),
            SegmentView(2, 1, True),
            SegmentView(3, 1, False),
            SegmentView(4, 4, False),
            SegmentView(8, 8, False),
        ]
        # Segment 8 of size 8 cannot merge with segment 0: "the latter is
        # not a free segment of size 8."
        assert space.counts[3] == 1
        assert space.counts[4] == 0

    def test_allocate_up_to_degrades_gracefully(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(8)  # leaves one free 8-page segment
        space.allocate(2)  # fragments it: free now 2+4
        result = space.allocate_up_to(8)
        assert result is not None
        start, got = result
        assert got == 4  # largest contiguous run available
        space.verify()

    def test_allocate_up_to_when_empty(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(16)
        assert space.allocate_up_to(4) is None


class TestJumpScan:
    def test_figure3_scan_visits_three_segments(self):
        """Locating the free size-8 segment checks segments 0, 64, 72 only."""
        space = BuddySpace.create(page_size=128, capacity=80)
        # Rebuild Figure 3 with public operations.
        assert space.allocate(64) == 0
        assert space.allocate(1) == 64
        assert space.allocate(1) == 65
        assert space.allocate(1) == 66
        space.free(64, 1)
        assert space.amap.raw[0] == 0xC6
        assert space.amap.raw[16] == 0b0110
        assert space.amap.raw[17] == 0x82
        assert space.amap.raw[18] == 0x83
        space.verify()
        space.scan_stats.probes = 0
        space.scan_stats.scans = 0
        assert space.find_free(3) == 72
        assert space.scan_stats.probes == 3  # segments 0, 64, 72

    def test_scan_skips_by_max_of_sizes(self):
        space = BuddySpace.create(page_size=128, capacity=64)
        space.allocate(32)
        # Free 32-page half remains at 32; finding it takes 2 probes.
        space.scan_stats.probes = 0
        assert space.find_free(5) == 32
        assert space.scan_stats.probes == 2


class TestPropertyBased:
    """Model-based check: the space against a reference page-status array."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_alloc_free_matches_model(self, data):
        capacity = 64
        space = BuddySpace.create(page_size=256, capacity=capacity)
        model = [False] * capacity  # True = allocated
        live: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(5, 25), label="steps")):
            do_alloc = data.draw(st.booleans(), label="alloc?") or not live
            if do_alloc:
                n = data.draw(st.integers(1, 16), label="n_pages")
                start = space.allocate(n)
                if start is None:
                    # Model must agree no run of next_pow2(n) exists... the
                    # space-level contract is weaker: no free segment big
                    # enough after rounding.  Just assert *some* pressure.
                    assert capacity - sum(model) < capacity
                    continue
                assert all(not model[p] for p in range(start, start + n))
                for p in range(start, start + n):
                    model[p] = True
                live.append((start, n))
            else:
                index = data.draw(
                    st.integers(0, len(live) - 1), label="victim"
                )
                start, n = live.pop(index)
                # Sometimes free only a sub-range (Figure 4.c behaviour).
                lo = data.draw(st.integers(0, n - 1), label="lo")
                hi = data.draw(st.integers(lo + 1, n), label="hi")
                space.free(start + lo, hi - lo)
                for p in range(start + lo, start + hi):
                    model[p] = False
                if lo > 0:
                    live.append((start, lo))
                if hi < n:
                    live.append((start + hi, n - hi))
            segments = space.verify()
            for seg in segments:
                for p in range(seg.start, seg.end):
                    assert model[p] == seg.allocated, (
                        f"page {p}: map says allocated={seg.allocated}, "
                        f"model says {model[p]}"
                    )
            assert space.free_pages() == capacity - sum(model)


class TestOccupy:
    """``occupy`` marks a run allocated whatever of it is free, leaving a
    canonical directory: a held-back copy that takes every allocation of
    the live space keeps exactly its pages and the ones freed since."""

    def test_a_run_inside_one_free_segment(self):
        space = BuddySpace.create(page_size=256, capacity=64)
        space.occupy(11, 3)
        allocated = [s for s in segments_of(space) if s.allocated]
        assert [page for s in allocated for page in range(s.start, s.end)] == [
            11, 12, 13
        ]
        assert space.free_pages() == 61

    def test_pages_already_allocated_stay(self):
        space = BuddySpace.create(page_size=256, capacity=64)
        start = space.allocate(8)
        space.occupy(start + 4, 8)
        segments_of(space)
        assert space.free_pages() == 64 - 12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_held_copy_is_live_plus_freed(self, data):
        capacity = 128
        space = BuddySpace.create(page_size=256, capacity=capacity)
        live: list[tuple[int, int]] = []
        for n in data.draw(st.lists(st.integers(1, 12), max_size=8), label="pre"):
            start = space.allocate(n)
            if start is not None:
                live.append((start, n))
        held, freed = space.copy(), set()
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            if live and data.draw(st.booleans(), label="free?"):
                start, n = live.pop(data.draw(st.integers(0, len(live) - 1)))
                space.free(start, n)
                freed.update(range(start, start + n))
                continue
            n = data.draw(st.integers(1, 12), label="n_pages")
            start = space.allocate(n)
            if start is not None:
                live.append((start, n))
                held.occupy(start, n)
        allocated = {
            page for seg in segments_of(held) if seg.allocated
            for page in range(seg.start, seg.end)
        }
        in_use = {page for start, n in live for page in range(start, start + n)}
        assert allocated == in_use | freed
        assert held.free_pages() == capacity - len(allocated)


def reference_scan(space: BuddySpace, size_type: int, s: int) -> tuple[int, int]:
    """The Section 3.1 stepping rule over decoded segments, from page ``s``:
    ``(address found, segments probed)``.  What ``find_free`` must match."""
    n = 1 << size_type
    probes = 0
    while s < space.capacity:
        probes += 1
        seg = space.amap.segment_containing(s)
        if seg.start != s:
            s = seg.end
        elif not seg.allocated and seg.size == n:
            return s, probes
        else:
            s += max(n, seg.size)
    raise AssertionError(f"no free segment of type {size_type}")


def scan_with_probes(space: BuddySpace, size_type: int, **kwargs) -> tuple[int, int]:
    before = space.scan_stats.probes
    return space.find_free(size_type, **kwargs), space.scan_stats.probes - before


class TestByteLevelScan:
    """The jump scan reads map bytes and starts at a hint; neither may
    change what it finds or how it steps."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_scan_equals_decoded_map_and_reference_stepping(self, data):
        # 168 = 128 + 32 + 8: the largest space a 64-byte page describes.
        space = BuddySpace.create(page_size=64, capacity=168)
        live: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(5, 30), label="steps")):
            action = data.draw(st.sampled_from(["alloc", "up_to", "free"]))
            if action == "free" and live:
                start, n = live.pop(data.draw(st.integers(0, len(live) - 1)))
                lo = data.draw(st.integers(0, n - 1), label="lo")
                hi = data.draw(st.integers(lo + 1, n), label="hi")
                space.free(start + lo, hi - lo)
                if lo:
                    live.append((start, lo))
                if hi < n:
                    live.append((start + hi, n - hi))
            elif action == "up_to":
                got = space.allocate_up_to(data.draw(st.integers(1, 168)))
                if got is not None:
                    live.append(got)
            else:
                n = data.draw(st.integers(1, 40), label="n_pages")
                start = space.allocate(n)
                if start is not None:
                    live.append((start, n))

            lowest: dict[int, int] = {}
            for seg in space.amap.decode():
                if not seg.allocated:
                    lowest.setdefault(floor_log2(seg.size), seg.start)
            for size_type, count in enumerate(space.counts):
                assert (size_type in lowest) == bool(count)
                if not count:
                    continue
                hint = space.scan_hints[size_type]
                assert hint <= lowest[size_type] and hint % (1 << size_type) == 0
                hinted = scan_with_probes(space, size_type)
                unhinted = scan_with_probes(space, size_type, hinted=False)
                assert hinted[0] == unhinted[0] == lowest[size_type]
                assert hinted == reference_scan(space, size_type, hint)
                assert unhinted == reference_scan(space, size_type, 0)

    def test_hint_moves_past_a_consumed_segment_and_back_on_free(self):
        space = BuddySpace.create(page_size=128, capacity=64)
        assert space.scan_hints == [0] * len(space.counts)
        first = space.allocate(8)   # splits the 64: free 8 @8, 16 @16, 32 @32
        second = space.allocate(8)  # consumes the free 8 at page 8
        assert (first, second) == (0, 8)
        assert space.scan_hints[3] == 16  # every free type-3 lies beyond 8
        space.free(0, 8)
        assert space.scan_hints[3] == 0   # a free type-3 came into being at 0
        assert space.find_free(3) == 0

    def test_hint_left_inside_a_coalesced_segment_is_still_a_lower_bound(self):
        space = BuddySpace.create(page_size=128, capacity=64)
        for page in range(0, 32, 4):
            assert space.allocate(4) == page
        space.free(20, 4)
        assert space.scan_hints[2] == 20
        space.free(16, 4)           # 16+20 coalesce into a type-3 at 16
        assert space.counts[2] == 0 and space.scan_hints[2] == 20
        space.free(8, 4)
        assert space.scan_hints[2] == 8
        space.free(28, 4)
        # The stale hint would have started this scan inside [16, 24).
        assert space.find_free(2) == 8
        space.scan_hints[2] = 20    # as if 8 had never been freed
        found, probes = scan_with_probes(space, 2)
        assert (found, probes) == (28, 3)  # 20 (inside) -> 24 -> 28

    def test_space_decoded_from_its_page_starts_with_no_hints(self):
        space = BuddySpace.create(page_size=128, capacity=64)
        space.allocate(8)
        space.allocate(16)
        assert space.scan_hints[4] == 32
        restored = BuddySpace.from_page(128, space.to_page())
        assert restored.scan_hints == [0] * len(restored.counts)
        assert restored.find_free(5) == space.find_free(5) == 32

    def test_to_page_into_overwrites_every_byte(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(3)
        frame = bytearray(b"\xaa" * 128)
        assert space.to_page(into=frame) is frame
        assert frame == space.to_page()
