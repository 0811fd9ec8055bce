"""The buddy-space directory page (paper Section 3, Figure 1).

Each buddy space is controlled by exactly one page holding:

* the **count array** — ``count[t]`` is the number of free segments of
  type ``t`` (size ``2**t`` pages), for ``t`` in ``0..k``; and
* the **allocation map** — one byte per four pages (see
  :mod:`repro.buddy.amap`).

Because the directory must fit in one page, the page size bounds both
the maximum segment size and the space capacity.  The paper derives, for
4 KB pages: maximum segment type ``log2(2 * 4096) = 13`` (32 MB
segments) and a map of ``4096 - 2*14 = 4068`` bytes controlling
``4068 * 4 = 16,272`` pages (~63.5 MB).  Our layout adds a 6-byte header
(version, max type, capacity), so the same arithmetic gives 16,248
pages; the bench for Figure 1 prints both derivations.

Layout::

    offset 0        u8   version (=1)
    offset 1        u8   k, the maximum segment type
    offset 2        u32  capacity in pages (multiple of 4)
    offset 6        u16 * (k+1)   count array
    offset 6+2(k+1) u8  * capacity/4   allocation map
"""

from __future__ import annotations

import struct

from repro.errors import DirectoryCorrupt, VolumeLayoutError
from repro.util.bitops import floor_log2

_VERSION = 1
_HEADER = struct.Struct("<BBI")
HEADER_SIZE = _HEADER.size  # 6 bytes


def max_segment_type(page_size: int) -> int:
    """The paper's bound: for page size PS the maximum segment is 2*PS pages."""
    return floor_log2(2 * page_size)


def max_capacity(page_size: int) -> int:
    """Largest space capacity whose directory fits in one page.

    ``capacity/4`` map bytes plus the header and count array must fit in
    ``page_size`` bytes; the result is truncated to a multiple of 4.
    """
    k = max_segment_type(page_size)
    map_bytes = page_size - HEADER_SIZE - 2 * (k + 1)
    if map_bytes < 1:
        raise VolumeLayoutError(
            f"page size {page_size} cannot hold a buddy-space directory"
        )
    return map_bytes * 4


def effective_max_type(page_size: int, capacity: int) -> int:
    """Largest usable type: bounded by the page size *and* the capacity."""
    return min(max_segment_type(page_size), floor_log2(capacity))


def validate_layout(page_size: int, capacity: int) -> None:
    """Check a (page size, capacity) pair against the one-page constraint."""
    if capacity <= 0 or capacity % 4:
        raise VolumeLayoutError(
            f"buddy space capacity must be a positive multiple of 4, got {capacity}"
        )
    limit = max_capacity(page_size)
    if capacity > limit:
        raise VolumeLayoutError(
            f"capacity {capacity} exceeds the {limit} pages a one-page "
            f"directory can describe at page size {page_size}"
        )


def pack_directory(
    page_size: int,
    capacity: int,
    counts: list[int],
    amap_bytes: bytes | bytearray,
    into: bytearray | None = None,
) -> bytearray:
    """Serialise the directory into a page image.

    ``into`` packs over an existing page-sized image (the buffer-pool
    frame of the directory page) instead of building a fresh one; every
    byte of it is rewritten, so the result does not depend on what the
    image held before.
    """
    k = max_segment_type(page_size)
    if len(counts) != k + 1:
        raise DirectoryCorrupt(
            f"count array must have {k + 1} entries for page size {page_size}, "
            f"got {len(counts)}"
        )
    if min(counts) < 0 or max(counts) > 0xFFFF:
        bad = next(v for v in counts if not 0 <= v <= 0xFFFF)
        raise DirectoryCorrupt(f"count value {bad} does not fit in 16 bits")
    image = bytearray(page_size) if into is None else into
    offset = HEADER_SIZE + 2 * (k + 1)
    end = offset + len(amap_bytes)
    if end > len(image):
        raise DirectoryCorrupt(
            f"a map of {len(amap_bytes)} bytes does not fit a {len(image)}-byte "
            f"directory page"
        )
    # Everything is validated; from here on nothing can fail half-way.
    struct.pack_into(f"<BBI{k + 1}H", image, 0, _VERSION, k, capacity, *counts)
    image[offset:end] = amap_bytes
    if into is not None:
        image[end:] = bytes(len(image) - end)
    return image


def unpack_directory(image: bytes | bytearray) -> tuple[int, list[int], bytes]:
    """Deserialise a directory page into (capacity, counts, amap bytes)."""
    if len(image) < HEADER_SIZE:
        raise DirectoryCorrupt("directory page too small for its header")
    version, k, capacity = _HEADER.unpack_from(image, 0)
    if version != _VERSION:
        raise DirectoryCorrupt(f"unknown directory version {version}")
    if len(image) < HEADER_SIZE + 2 * (k + 1):
        raise DirectoryCorrupt(
            f"directory page too small for a {k + 1}-entry count array"
        )
    offset = HEADER_SIZE
    counts = []
    for _ in range(k + 1):
        (value,) = struct.unpack_from("<H", image, offset)
        counts.append(value)
        offset += 2
    map_bytes = capacity // 4
    if offset + map_bytes > len(image):
        raise DirectoryCorrupt(
            f"directory page cannot hold a map for {capacity} pages"
        )
    return capacity, counts, bytes(image[offset : offset + map_bytes])
