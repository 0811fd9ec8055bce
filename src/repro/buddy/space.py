"""One buddy segment space: allocation, deallocation, splitting, coalescing.

This module implements Section 3's algorithms on top of the byte-encoded
allocation map:

* the **jump scan** of Section 3.1 — locating a free segment of size
  ``n`` by repeatedly stepping ``S = S + max(n, m)`` over segment starts,
  so only a handful of map bytes are examined rather than all of them
  (on an aged space "a handful" needs the per-type scan-start hints,
  see :attr:`BuddySpace.scan_hints`);
* **splitting** — when no free segment of the requested type exists, the
  smallest larger one is "recursively split in half until a segment of
  the desired size is finally made up" (Section 3.2);
* **XOR coalescing** — on deallocation the buddy (address XOR size) is
  checked and merged iteratively, reproducing Figure 4's walkthrough;
* **any-size allocation** — a request for, say, 11 pages rounds up to a
  16-page segment whose prefix is marked as allocated segments 8+2+1 and
  whose 5-page remainder is freed as 1+4 (Figure 4.a/4.b); and
* **any-portion frees** — "a client may selectively free any portion of
  a previously allocated segment" (Figure 4.c), which requires breaking
  boundary-crossing segments into aligned pieces first.

The count array and the map are kept mutually consistent at every public
method boundary; :meth:`BuddySpace.verify` cross-checks them and is
exercised heavily by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buddy.amap import (
    LARGE_FLAG,
    TYPE_MASK,
    AllocationMap,
    SegmentView,
)
from repro.buddy.directory import (
    effective_max_type,
    max_segment_type,
    pack_directory,
    unpack_directory,
    validate_layout,
)
from repro.errors import BadSegment, DirectoryCorrupt, SegmentTooLarge
from repro.util.bitops import (
    aligned_run_decomposition,
    ceil_log2,
    floor_log2,
    power_of_two_decomposition,
    reverse_power_of_two_decomposition,
)


@dataclass
class ScanStats:
    """Instrumentation for the jump scan (how few bytes it really touches)."""

    scans: int = 0
    probes: int = 0


class BuddySpace:
    """A buddy space: ``capacity`` pages of space-local addresses 0..capacity-1.

    The in-memory object corresponds 1:1 to a directory page;
    :meth:`to_page` / :meth:`from_page` round-trip it.  All algorithms
    operate on the allocation map *bytes*, as the paper's do.
    """

    def __init__(self, page_size: int, capacity: int) -> None:
        validate_layout(page_size, capacity)
        self.page_size = page_size
        self.capacity = capacity
        # The count array is sized by the page-size bound k (the paper's
        # "k+1 entries"); types above the capacity bound simply stay zero.
        self.k = max_segment_type(page_size)
        self.max_type = effective_max_type(page_size, capacity)
        self.counts = [0] * (self.k + 1)
        self.amap = AllocationMap(capacity)
        self.scan_stats = ScanStats()
        #: ``scan_hints[t]`` is a lower bound on the address of the lowest
        #: free type-``t`` segment; the jump scan for type ``t`` starts
        #: there.  Like the superdirectory (Section 3.3) the hints live in
        #: main memory only: 0 is always valid, so a space decoded from its
        #: directory page simply starts with no knowledge.  They move in
        #: two places: :meth:`_add_free` lowers one wherever a free
        #: segment comes into being, and :meth:`_take_free` raises one
        #: past the segment a scan found and consumed.
        self.scan_hints = [0] * (self.k + 1)

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, page_size: int, capacity: int) -> "BuddySpace":
        """A fresh, fully free space.

        The free extent is laid down as a run of maximum-size segments
        plus an aligned decomposition of any remainder — the canonical
        form the coalescing rules preserve.
        """
        space = cls(page_size, capacity)
        max_size = 1 << space.max_type
        pos = 0
        while pos + max_size <= capacity:
            space.amap.set_segment(pos, max_size, allocated=False)
            space._add_free(space.max_type, pos)
            pos += max_size
        for addr, size in aligned_run_decomposition(pos, capacity - pos):
            space.amap.set_segment(addr, size, allocated=False)
            space._add_free(floor_log2(size), addr)
        return space

    @classmethod
    def from_page(cls, page_size: int, image: bytes | bytearray) -> "BuddySpace":
        """Rebuild a space from its directory page."""
        capacity, counts, amap_bytes = unpack_directory(image)
        space = cls(page_size, capacity)
        if len(counts) != space.k + 1:
            raise DirectoryCorrupt(
                f"directory has {len(counts)} count entries, expected {space.k + 1}"
            )
        space.counts = counts
        space.amap = AllocationMap.from_bytes(amap_bytes, capacity)
        return space

    def copy(self) -> "BuddySpace":
        """An independent copy of the directory (scan hints reset)."""
        space = type(self)(self.page_size, self.capacity)
        space.counts = list(self.counts)
        space.amap = AllocationMap(self.capacity, bytearray(self.amap.raw))
        return space

    def to_page(self, into: bytearray | None = None) -> bytearray:
        """Serialise this space into a directory page image.

        ``into`` is an existing page image to overwrite (the manager
        packs straight into the pinned buffer-pool frame).
        """
        return pack_directory(
            self.page_size, self.capacity, self.counts, self.amap.raw, into
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def max_segment_pages(self) -> int:
        """Largest segment this space can hand out, in pages."""
        return 1 << self.max_type

    def free_pages(self) -> int:
        """Total free pages, from the count array alone."""
        return sum(count << t for t, count in enumerate(self.counts))

    def max_free_type(self) -> int:
        """Largest type with a free segment, or -1 if the space is full."""
        for t in range(self.k, -1, -1):
            if self.counts[t]:
                return t
        return -1

    def can_allocate(self, n_pages: int) -> bool:
        """True if a contiguous run of ``n_pages`` is currently available."""
        if n_pages <= 0 or n_pages > self.max_segment_pages:
            return False
        needed = ceil_log2(n_pages)
        return any(self.counts[t] for t in range(needed, self.k + 1))

    # ------------------------------------------------------------------
    # The jump scan (Section 3.1)
    # ------------------------------------------------------------------

    def find_free(self, size_type: int, *, hinted: bool = True) -> int:
        """Locate the lowest free segment of type ``size_type`` by the jump scan.

        Precondition: ``counts[size_type] > 0``.  If the segment at S has
        size m != n the scan "continues recursively at segment
        S = S + max(n, m)".  The count array guarantees termination; a
        corrupt directory raises.

        The scan starts at ``scan_hints[size_type]`` — a ``2**t``-aligned
        lower bound on the answer, so it returns what a scan from
        segment 0 returns (``hinted=False``, the sanitizer's cross-check)
        after fewer probes.  Each probe reads one map byte: a start byte
        gives type and status by mask, a quad byte the two bits that
        matter; nothing is decoded into objects.
        """
        n = 1 << size_type
        raw = self.amap.raw
        capacity = self.capacity
        free_start = LARGE_FLAG | size_type
        s = self.scan_hints[size_type] if hinted else 0
        probes = 0
        try:
            while s < capacity:
                probes += 1
                byte = raw[s >> 2]
                if byte & LARGE_FLAG and not s & 3:
                    if byte == free_start:
                        return s
                    m = 1 << (byte & TYPE_MASK)
                    s += m if m > n else n
                elif byte and not byte & LARGE_FLAG:
                    if n >= 4 or byte & (8 >> (s & 3)):
                        s += n  # one or two pages, or an allocated page
                    elif byte & (8 >> ((s ^ 1) & 3)):
                        if n == 1:
                            return s  # a lone free page
                        s += 2
                    elif s & 1:
                        s += 1  # second page of a free pair: resume at its end
                    elif n == 2:
                        return s
                    else:
                        s += 2
                else:
                    # A continuation byte (or a start byte seen from inside
                    # its quad): S lies in a segment that started earlier.
                    # Aligned stepping from segment 0 never lands here; a
                    # hint can, after the free segment it pointed at
                    # coalesced into a larger one.  Resume at that
                    # segment's end.
                    start, size, _ = self.amap.locate(s)
                    s = start + size
        finally:
            self.scan_stats.scans += 1
            self.scan_stats.probes += probes
        raise DirectoryCorrupt(
            f"count array promises a free segment of {n} pages but the scan "
            f"found none"
        )

    def _take_free(self, size_type: int) -> int:
        """Find the lowest free type-``size_type`` segment and consume it.

        Every other free segment of the type lies beyond it, so the scan
        hint moves past it.
        """
        start = self.find_free(size_type)
        self.counts[size_type] -= 1
        self.scan_hints[size_type] = start + (1 << size_type)
        return start

    def _add_free(self, size_type: int, start: int) -> None:
        """Account for a free type-``size_type`` segment coming into being.

        The one place ``counts[t]`` grows, so the one place a scan hint
        has to be lowered.
        """
        self.counts[size_type] += 1
        if start < self.scan_hints[size_type]:
            self.scan_hints[size_type] = start

    # ------------------------------------------------------------------
    # Power-of-two allocate / free (Section 3.2)
    # ------------------------------------------------------------------

    def _allocate_pow2(self, size_type: int) -> int | None:
        """Allocate a segment of exactly ``2**size_type`` pages.

        Returns its start address, or None if the space cannot satisfy
        the request (the caller moves on to another space).
        """
        if size_type > self.max_type:
            raise SegmentTooLarge(1 << size_type, self.max_segment_pages)
        if self.counts[size_type]:
            start = self._take_free(size_type)
            self.amap.set_segment(start, 1 << size_type, allocated=True)
            return start
        # "Otherwise, we find smallest type j such that j > t and
        # count[j] > 0 ... which then is recursively split in half."
        for j in range(size_type + 1, self.k + 1):
            if self.counts[j]:
                break
        else:
            return None
        start = self._take_free(j)
        block_size = 1 << j
        halves: list[tuple[int, int]] = []
        while j > size_type:
            j -= 1
            half = 1 << j
            halves.append((start + half, half))
            self._add_free(j, start + half)
        for addr, size in halves:
            if size >= 4:
                self.amap.set_segment(addr, size, allocated=False)
        if 1 << size_type >= 4:
            # All halves were >= 4 too; the block's quads are fully rewritten.
            self.amap.set_segment(start, 1 << size_type, allocated=True)
        elif block_size >= 4:
            # The quad containing `start` is owned entirely by this block:
            # it holds the allocated piece plus the size-1/2 free halves.
            # Compose its final bits in one write (the old byte is still
            # the block's large start byte, so set_small cannot be used).
            bits = 0
            for page in range(start, start + (1 << size_type)):
                bits |= 1 << (3 - page % 4)
            self.amap.write_quad_bits(start // 4, bits)
        else:
            # Splitting within one quad byte: it is already in bit form.
            for addr, size in halves:
                self.amap.set_segment(addr, size, allocated=False)
            self.amap.set_segment(start, 1 << size_type, allocated=True)
        return start

    def _free_pow2(self, start: int, size_type: int) -> None:
        """Free an aligned power-of-two piece, coalescing iteratively.

        "The buddy of a segment can easily be found by simply taking the
        exclusive OR of the segment address with its size"; merging
        repeats while the buddy is a free segment of equal size
        (Figure 4.c -> 4.d).
        """
        t = size_type
        size = 1 << t
        start_of_merged = start
        while t < self.max_type:
            buddy = start_of_merged ^ size
            if buddy + size > self.capacity:
                break
            if not self.amap.free_segment_at(buddy, size):
                break
            self.counts[t] -= 1
            start_of_merged = min(start_of_merged, buddy)
            t += 1
            size <<= 1
        self.amap.set_segment(start_of_merged, size, allocated=False)
        self._add_free(t, start_of_merged)

    # ------------------------------------------------------------------
    # Any-size allocation (Figure 4.a/4.b)
    # ------------------------------------------------------------------

    def allocate(self, n_pages: int) -> int | None:
        """Allocate ``n_pages`` physically contiguous pages.

        The request is rounded up to ``2**j``; the prefix is marked as
        allocated segments following the binary decomposition of
        ``n_pages`` and the remainder is freed smallest-first, exactly as
        in the paper's 11-page example.  Returns the first page, or None
        if no ``2**j`` segment is available in this space.
        """
        if n_pages <= 0:
            raise ValueError(f"allocation size must be positive, got {n_pages}")
        if n_pages > self.max_segment_pages:
            raise SegmentTooLarge(n_pages, self.max_segment_pages)
        j = ceil_log2(n_pages)
        start = self._allocate_pow2(j)
        if start is None:
            return None
        if n_pages != 1 << j:
            self._carve(start, j, n_pages)
        return start

    def _carve(self, start: int, block_type: int, n_pages: int) -> None:
        """Rewrite an allocated ``2**block_type`` block as prefix+remainder."""
        block = 1 << block_type
        if block >= 4:
            self.amap.break_large(start)
        pos = start
        for piece in power_of_two_decomposition(n_pages):
            self.amap.set_segment(pos, piece, allocated=True)
            pos += piece
        for piece in reverse_power_of_two_decomposition(block - n_pages):
            # Remainder pieces cannot coalesce: their buddies lie in the
            # allocated prefix, and their sizes are pairwise distinct.
            self.amap.set_segment(pos, piece, allocated=False)
            self._add_free(floor_log2(piece), pos)
            pos += piece

    def allocate_up_to(self, n_pages: int) -> tuple[int, int] | None:
        """Allocate the largest available contiguous run, at most ``n_pages``.

        Used by the large object manager when a space is too fragmented
        for the full request: the object continues in another segment.
        Returns ``(start, pages)`` or None if the space is full.
        """
        if n_pages <= 0:
            raise ValueError(f"allocation size must be positive, got {n_pages}")
        n_pages = min(n_pages, self.max_segment_pages)
        if self.can_allocate(n_pages):
            start = self.allocate(n_pages)
            if start is not None:
                return start, n_pages
        best = self.max_free_type()
        if best < 0:
            return None
        # The whole 2**best segment is smaller than the request: hand it
        # out intact (no carve needed).
        take = min(1 << best, n_pages)
        start = self.allocate(take)
        if start is None:
            return None
        return start, take

    # ------------------------------------------------------------------
    # Any-portion frees (Figure 4.c)
    # ------------------------------------------------------------------

    def free(self, start: int, n_pages: int) -> None:
        """Free any currently allocated run of pages.

        "A client may selectively free any portion of a previously
        allocated segment, not necessarily the whole segment."  Segments
        crossing the range boundaries are first rewritten as aligned
        allocated pieces; then every piece inside the range is freed
        through the coalescing path.
        """
        if n_pages <= 0:
            raise ValueError(f"free size must be positive, got {n_pages}")
        end = start + n_pages
        if start < 0 or end > self.capacity:
            raise BadSegment(
                f"free of [{start}, {end}) outside buddy space of "
                f"{self.capacity} pages"
            )
        self._split_at(start)
        self._split_at(end)
        pos = start
        while pos < end:
            seg_start, size, allocated = self.amap.locate(pos)
            if not allocated:
                raise BadSegment(f"page {pos} is already free")
            if seg_start != pos or pos + size > end:
                raise DirectoryCorrupt(
                    f"boundary split left a crossing segment at page {seg_start}"
                )
            self._free_pow2(pos, floor_log2(size))
            pos += size

    def occupy(self, start: int, n_pages: int) -> None:
        """Mark ``[start, start + n_pages)`` allocated, whichever of its
        pages are free now; pages already allocated stay as they are.

        How the manager's held-back directory (a copy that keeps recent
        frees allocated) takes an allocation the live directory placed.
        Each free segment the run cuts is replaced by its pieces outside
        the run; they cannot coalesce, being parts of a maximal segment
        whose other parts are now allocated.
        """
        end = start + n_pages
        pos = start
        while pos < end:
            seg_start, size, allocated = self.amap.locate(pos)
            seg_end = seg_start + size
            if not allocated:
                self.counts[floor_log2(size)] -= 1
                self.amap.set_segment(seg_start, size, allocated=True)
                if size >= 4:
                    self.amap.break_large(seg_start)
                lo, hi = max(seg_start, start), min(seg_end, end)
                for addr, piece in aligned_run_decomposition(lo, hi - lo):
                    self.amap.set_segment(addr, piece, allocated=True)
                for addr, piece in (
                    *aligned_run_decomposition(seg_start, lo - seg_start),
                    *aligned_run_decomposition(hi, seg_end - hi),
                ):
                    self.amap.set_segment(addr, piece, allocated=False)
                    self._add_free(floor_log2(piece), addr)
            pos = seg_end

    def _split_at(self, boundary: int) -> None:
        """Ensure no allocated segment crosses ``boundary``.

        Small allocated segments are per-page in the map and cannot
        cross; a large one is dissolved and rewritten as two aligned
        decompositions meeting at the boundary (count-neutral: all
        pieces stay allocated).
        """
        if boundary <= 0 or boundary >= self.capacity:
            return
        start, size, allocated = self.amap.locate(boundary)
        if start == boundary:
            return
        if not allocated:
            raise BadSegment(
                f"free range boundary {boundary} falls inside the free "
                f"segment at page {start}"
            )
        if size < 4:
            return  # per-page representation; nothing crosses
        self.amap.break_large(start)
        left = aligned_run_decomposition(start, boundary - start)
        right = aligned_run_decomposition(boundary, start + size - boundary)
        for addr, piece in [*left, *right]:
            self.amap.set_segment(addr, piece, allocated=True)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> list[SegmentView]:
        """Check map well-formedness and count-array consistency.

        Returns the decoded segment list so callers can assert further
        properties.  Raises :class:`DirectoryCorrupt` on any violation.
        """
        segments = self.amap.decode()
        self.amap.check(max_segment_size=self.max_segment_pages)
        recounted = [0] * (self.k + 1)
        covered = 0
        for seg in segments:
            if seg.start != covered:
                raise DirectoryCorrupt(
                    f"segment gap/overlap at page {covered} (next segment "
                    f"starts at {seg.start})"
                )
            covered = seg.end
            if not seg.allocated:
                recounted[floor_log2(seg.size)] += 1
        if covered != self.capacity:
            raise DirectoryCorrupt(
                f"segments cover {covered} pages, capacity is {self.capacity}"
            )
        if recounted != self.counts:
            raise DirectoryCorrupt(
                f"count array {self.counts} disagrees with map {recounted}"
            )
        return segments
