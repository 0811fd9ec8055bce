"""The allocation map: one byte per four pages (paper Section 3.1, Figure 2).

Each byte ``b`` of the map describes the four pages ``4B .. 4B+3`` (where
``B`` is the byte's index):

* **Large-segment start** (``b & 0x80``): a segment of size >= 4 pages
  starts at page ``4B``.  Bit 6 is the status (0 free, 1 allocated) and
  bits 5..0 hold the segment *type* t, i.e. the size is ``2**t`` pages.
  The encoding could express types up to 63 ("more than what is really
  needed").
* **Quad byte** (``b`` nonzero, high bit clear): the four pages are
  described individually by the low four bits, one per page — bit 3 for
  page ``4B`` through bit 0 for page ``4B+3``; 1 means allocated.  This
  form covers segments of size 1 and 2, which are too small to merit a
  start byte of their own.
* **Continuation** (``b == 0``): the pages belong to a segment that
  starts at an earlier page; "the segment that includes those 4 pages is
  described in the first nonzero byte on the left".

Two invariants keep the encoding unambiguous:

* Free space is always *maximally coalesced*: no two free buddies
  coexist.  In particular a quad whose four pages are all free is always
  normalised to a free type-2 start byte — conveniently, the quad-byte
  encoding of "all four free" would be ``0x00``, which the format already
  reserves for continuations, so the encoding itself forbids the
  unnormalised state.
* Segments of size ``2**t`` start only at pages divisible by ``2**t``,
  so a segment of size >= 4 always owns whole quads.

The map is the *single source of truth* for the space's allocation
state.  :class:`~repro.buddy.space.BuddySpace` layers the count array,
the jump scan and the coalescing logic on top of these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BadSegment, DirectoryCorrupt
from repro.util.bitops import floor_log2, is_power_of_two

# Quad-byte bit for a page at offset ``o`` (0..3) within its quad:
# bit 3 is the first page, bit 0 the last.
_QUAD_BIT = (0b1000, 0b0100, 0b0010, 0b0001)

LARGE_FLAG = 0x80
ALLOCATED_FLAG = 0x40
TYPE_MASK = 0x3F


def encode_large(size_type: int, allocated: bool) -> int:
    """Encode a start byte for a segment of ``2**size_type`` pages (>= 4)."""
    if size_type < 2 or size_type > TYPE_MASK:
        raise ValueError(f"large-segment type must be in [2, 63], got {size_type}")
    return LARGE_FLAG | (ALLOCATED_FLAG if allocated else 0) | size_type


def decode_large(byte: int) -> tuple[int, bool]:
    """Decode a start byte into (size_type, allocated)."""
    if not byte & LARGE_FLAG:
        raise ValueError(f"byte 0x{byte:02x} is not a large-segment start byte")
    return byte & TYPE_MASK, bool(byte & ALLOCATED_FLAG)


@dataclass(frozen=True, slots=True)
class SegmentView:
    """A decoded canonical segment: ``size`` pages starting at ``start``."""

    start: int
    size: int
    allocated: bool

    @property
    def end(self) -> int:
        return self.start + self.size


class AllocationMap:
    """Byte-encoded page allocation map for one buddy space.

    ``capacity`` must be a multiple of 4 (each byte describes a whole
    quad).  A fresh map reports every page allocated; the buddy space
    initialises free extents explicitly so the count array stays in sync.
    """

    def __init__(self, capacity: int, raw: bytearray | None = None) -> None:
        if capacity <= 0 or capacity % 4:
            raise ValueError(
                f"allocation map capacity must be a positive multiple of 4, "
                f"got {capacity}"
            )
        self.capacity = capacity
        self.n_bytes = capacity // 4
        # Unless loaded from a directory page, all pages start allocated
        # individually: quad bytes 0x0F.
        self.raw = raw if raw is not None else bytearray(b"\x0f") * self.n_bytes

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bytes(cls, raw: bytes | bytearray, capacity: int) -> "AllocationMap":
        """Rebuild a map from its serialized bytes (directory page load)."""
        n_bytes = capacity // 4
        if len(raw) < n_bytes:
            raise DirectoryCorrupt(
                f"allocation map needs {n_bytes} bytes, got {len(raw)}"
            )
        return cls(capacity, bytearray(memoryview(raw)[:n_bytes]))

    def to_bytes(self) -> bytes:
        """Serialise the map (the directory page's amap area)."""
        return bytes(self.raw)

    # -- queries ------------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if page < 0 or page >= self.capacity:
            raise BadSegment(
                f"page {page} outside buddy space of {self.capacity} pages"
            )

    def segment_containing(self, page: int) -> SegmentView:
        """The canonical segment that includes ``page``, decoded.

        The query form of :meth:`locate` for the verifier, fsck, the
        health collector and the tests; the allocator's own scans and
        coalescing probes use :meth:`locate` and never build views.
        """
        self._check_page(page)
        return SegmentView(*self.locate(page))

    def locate(self, page: int) -> tuple[int, int, bool]:
        """``(start, size, allocated)`` of the canonical segment at ``page``.

        Precondition: ``0 <= page < capacity`` (the allocator's callers
        have already range-checked their arguments).  For large segments
        this walks left to "the first nonzero byte on the left" exactly
        as the paper describes.  Within a quad byte, a free page aligned
        with a free partner forms a canonical size-2 free segment; every
        other page is reported as a size-1 segment (the map does not
        distinguish a size-2 allocated segment from two size-1
        allocations — frees carry their own extents, so it never needs
        to).
        """
        raw = self.raw
        quad = page >> 2
        byte = raw[quad]
        scan = quad
        if byte == 0:
            # The nearest nonzero byte on the left, found at memchr speed
            # (a continuation run can be thousands of bytes long).
            scan = len(raw[:quad].rstrip(b"\0")) - 1
            if scan < 0:
                raise DirectoryCorrupt("allocation map begins with a continuation byte")
            byte = raw[scan]
        if byte & LARGE_FLAG:
            start = scan * 4
            size = 1 << (byte & TYPE_MASK)
            if page >= start + size:
                raise DirectoryCorrupt(
                    f"page {page} falls in no segment: nearest start byte at "
                    f"quad {scan} covers only {size} pages"
                )
            return start, size, bool(byte & ALLOCATED_FLAG)
        if scan != quad:
            raise DirectoryCorrupt(
                f"quad {quad} is a continuation of a non-large byte at quad {scan}"
            )
        if byte & _QUAD_BIT[page & 3]:
            return page, 1, True
        if byte & _QUAD_BIT[(page ^ 1) & 3]:
            return page, 1, False
        return page & ~1, 2, False

    def free_segment_at(self, start: int, size: int) -> bool:
        """True if a canonical *free* segment of exactly ``size`` starts here.

        ``start`` must be aligned to ``size`` (it is a buddy address).
        A large segment is recognised by its start byte alone and a
        small one by its two quad bits; only a continuation byte — which
        a well-formed map never shows at a buddy address — takes the
        walk-left path, so a corrupt map raises as it always did.
        """
        if start + size > self.capacity:
            return False
        byte = self.raw[start >> 2]
        if size >= 4 and byte & LARGE_FLAG:
            return byte == LARGE_FLAG | floor_log2(size)
        return self.locate(start) == (start, size, False)

    # -- mutation primitives --------------------------------------------------

    def set_large(self, start: int, size_type: int, allocated: bool) -> None:
        """Write a size->=4 segment: start byte plus zeroed continuations."""
        size = 1 << size_type
        if size_type < 2:
            raise ValueError(f"set_large requires type >= 2, got {size_type}")
        self._check_aligned(start, size)
        quad = start // 4
        self.raw[quad] = encode_large(size_type, allocated)
        self.raw[quad + 1 : quad + size // 4] = bytes(size // 4 - 1)

    def set_small(self, start: int, size: int, allocated: bool) -> None:
        """Write a size-1 or size-2 segment as quad bits.

        The quad must already be in quad form, or be exactly covered by a
        type-2 start byte (which is then materialised into bits).  Writing
        small pieces inside a *larger* segment is a protocol error: the
        caller must break the larger segment up first.

        If the write leaves all four pages free, the byte is normalised
        to a free type-2 start byte (the all-zero quad form is reserved
        for continuations).
        """
        if size not in (1, 2):
            raise ValueError(f"set_small handles sizes 1 and 2, got {size}")
        self._check_aligned(start, size)
        quad = start // 4
        bits = self._materialize_quad(quad)
        for page in range(start, start + size):
            bit = _QUAD_BIT[page % 4]
            if allocated:
                bits |= bit
            else:
                bits &= ~bit
        if bits == 0:
            # All four pages free: normalise to a free type-2 segment.
            self.raw[quad] = encode_large(2, allocated=False)
        else:
            self.raw[quad] = bits

    def set_segment(self, start: int, size: int, allocated: bool) -> None:
        """Write a canonical segment of any power-of-two size."""
        if not is_power_of_two(size):
            raise ValueError(f"segment size must be a power of two, got {size}")
        if size >= 4:
            self.set_large(start, floor_log2(size), allocated)
        else:
            self.set_small(start, size, allocated)

    def write_quad_bits(self, quad: int, bits: int) -> None:
        """Overwrite one quad's per-page bits wholesale.

        Used when a caller owns the entire quad (e.g. the buddy split of
        a size->=4 block down to size 1 or 2 pieces) and composes its
        final state directly.  ``bits == 0`` (all four pages free) is
        normalised to a free type-2 start byte as usual.
        """
        if not 0 <= bits <= 0x0F:
            raise ValueError(f"quad bits must fit in the low nibble, got {bits:#x}")
        if quad < 0 or quad >= self.n_bytes:
            raise BadSegment(f"quad {quad} outside map of {self.n_bytes} bytes")
        if bits == 0:
            self.raw[quad] = encode_large(2, allocated=False)
        else:
            self.raw[quad] = bits

    def break_large(self, start: int) -> None:
        """Dissolve a size->=4 segment into per-page quad bits of equal status.

        Used by partial frees: before pages inside a large segment can
        change status individually, the segment's start byte and
        continuations are rewritten as quad bytes.  The caller restores
        canonical (maximally coalesced) form afterwards.
        """
        quad = start // 4
        byte = self.raw[quad]
        if not byte & LARGE_FLAG:
            raise BadSegment(f"no large segment starts at page {start}")
        size_type, allocated = decode_large(byte)
        if not allocated:
            # An all-free quad in bit form would be 0x00, colliding with the
            # continuation encoding.  Free segments are only ever resized
            # through the buddy split path, never broken into bits.
            raise BadSegment(
                f"refusing to break up the free segment at page {start}; "
                f"split it through the buddy system instead"
            )
        n_quads = (1 << size_type) // 4
        if quad + n_quads > self.n_bytes:
            raise DirectoryCorrupt(
                f"segment of {1 << size_type} pages at page {start} overruns the space"
            )
        self.raw[quad : quad + n_quads] = b"\x0f" * n_quads

    def _materialize_quad(self, quad: int) -> int:
        """Return the quad's bits, converting a covering type-2 byte if needed."""
        byte = self.raw[quad]
        if byte == 0:
            raise BadSegment(
                f"quad {quad} is inside a larger segment; break it up first"
            )
        if byte & LARGE_FLAG:
            size_type, allocated = decode_large(byte)
            if size_type != 2:
                raise BadSegment(
                    f"quad {quad} starts a {1 << size_type}-page segment; "
                    f"break it up first"
                )
            return 0x0F if allocated else 0x00
        return byte & 0x0F

    def _check_aligned(self, start: int, size: int) -> None:
        self._check_page(start)
        if start + size > self.capacity:
            raise BadSegment(
                f"segment [{start}, {start + size}) exceeds capacity {self.capacity}"
            )
        if start % size:
            raise BadSegment(
                f"segment at page {start} of size {size} violates buddy alignment"
            )

    # -- whole-map decoding ---------------------------------------------------

    def decode(self) -> list[SegmentView]:
        """Decode the entire map into canonical segments, left to right.

        Verifies structural well-formedness as it goes; used by the
        verifier, the statistics module and the tests.
        """
        segments: list[SegmentView] = []
        page = 0
        while page < self.capacity:
            quad = page // 4
            byte = self.raw[quad]
            if page % 4 == 0 and byte & LARGE_FLAG:
                size_type, allocated = decode_large(byte)
                size = 1 << size_type
                if page % size:
                    raise DirectoryCorrupt(
                        f"segment of {size} pages at page {page} is misaligned"
                    )
                if page + size > self.capacity:
                    raise DirectoryCorrupt(
                        f"segment of {size} pages at page {page} overruns the space"
                    )
                for cont in range(quad + 1, quad + size // 4):
                    if self.raw[cont] != 0:
                        raise DirectoryCorrupt(
                            f"quad {cont} should be a continuation of the segment "
                            f"at page {page} but is 0x{self.raw[cont]:02x}"
                        )
                segments.append(SegmentView(page, size, allocated))
                page += size
                continue
            if byte == 0:
                raise DirectoryCorrupt(
                    f"continuation byte at quad {quad} follows no segment start"
                )
            if byte & LARGE_FLAG:
                raise DirectoryCorrupt(
                    f"large-segment start byte in the middle of a quad at page {page}"
                )
            segments.extend(self._decode_quad(quad))
            page = (quad + 1) * 4
        return segments

    def _decode_quad(self, quad: int) -> list[SegmentView]:
        bits = self.raw[quad] & 0x0F
        base = quad * 4
        out: list[SegmentView] = []
        offset = 0
        while offset < 4:
            allocated = bool(bits & _QUAD_BIT[offset])
            if allocated:
                out.append(SegmentView(base + offset, 1, True))
                offset += 1
                continue
            # Free page: pairs up with a free partner when size-aligned.
            partner = offset ^ 1
            if offset % 2 == 0 and not bits & _QUAD_BIT[partner]:
                out.append(SegmentView(base + offset, 2, False))
                offset += 2
            else:
                out.append(SegmentView(base + offset, 1, False))
                offset += 1
        return out

    def check(self, max_segment_size: int | None = None) -> None:
        """Raise :class:`DirectoryCorrupt` if any invariant is violated.

        Beyond what :meth:`decode` validates, this asserts maximal
        coalescing: no free segment's buddy is also free with equal size
        — except at ``max_segment_size``, where a merge would exceed the
        largest segment the directory can describe and free buddies may
        legitimately coexist.
        """
        segments = self.decode()
        free = {
            (seg.start, seg.size) for seg in segments if not seg.allocated
        }
        for start, size in free:
            if max_segment_size is not None and size >= max_segment_size:
                continue
            if (start ^ size, size) in free:
                raise DirectoryCorrupt(
                    f"free buddies at pages {start} and {start ^ size} "
                    f"(size {size}) were not coalesced"
                )
