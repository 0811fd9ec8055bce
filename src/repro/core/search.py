"""Search (byte-range read) and replace (paper Section 4.2).

The search algorithm descends the positional tree by cumulative counts
and then reads, "in one step", all pages of the target segment that the
requested range covers — one seek plus N transfers per segment touched.
The worked example (read 320 bytes at offset 1470 of Figure 5.c) costs 3
seeks + 6 page transfers; on the single-segment object of Figure 5.a it
costs 1 seek + 5 transfers.  Both are reproduced in the tests and in
``benchmarks/bench_fig6_search_cost.py``.

Reads are *planned first*: the index descent materializes the list of
leaf transfers, physically adjacent segments are coalesced into single
multi-page runs (one seek per contiguous run — the paper's cost model),
and the result is assembled from borrowed page views in one pass, so a
ranged read costs exactly one Python-level payload copy however many
segments it spans.

Replace uses the same traversal to locate the range, then overwrites the
affected pages in place.  It is the one update that touches leaf pages
without touching the index, so it is protected by logging rather than
shadowing (Section 4.5); the optional ``log`` callback receives each
page's pre- and post-image.
"""

from __future__ import annotations

from typing import Callable

from repro.core.node import Node
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError
from repro.util import copytrace

# Callback signature: (physical_page, pre_image, post_image).
PageLog = Callable[[int, bytes, bytes], None]


def _plan_reads(
    tree: LargeObjectTree,
    segio: SegmentIO,
    lo: int,
    hi: int,
    root: Node | None = None,
) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Plan the leaf transfers covering bytes [lo, hi).

    ``root`` is the caller's freshly read root, if it has one.

    Returns coalesced runs ``(first_page, n_pages, parts)`` where each
    part ``(run_byte_offset, take)`` names a payload slice inside the
    run's page span.  Consecutive segments that are physically adjacent
    on disk merge into one run: one transfer call, one seek at most.
    The index descent completes before any leaf I/O is issued, so the
    page views borrowed per run stay valid through assembly.
    """
    ps = segio.page_size
    runs: list[tuple[int, int, list[tuple[int, int]]]] = []
    for seg_offset, entry in list(tree.iter_segments(lo, hi, root=root)):
        local_lo = max(lo, seg_offset) - seg_offset
        local_hi = min(hi, seg_offset + entry.count) - seg_offset
        if local_lo >= local_hi:
            continue
        page_lo = local_lo // ps
        page_hi = (local_hi - 1) // ps
        first = entry.child + page_lo
        n_pages = page_hi - page_lo + 1
        skip = local_lo - page_lo * ps
        take = local_hi - local_lo
        if runs and runs[-1][0] + runs[-1][1] == first:
            prev_first, prev_pages, parts = runs[-1]
            parts.append((prev_pages * ps + skip, take))
            runs[-1] = (prev_first, prev_pages + n_pages, parts)
        else:
            runs.append((first, n_pages, [(skip, take)]))
    return runs


def read_range(
    tree: LargeObjectTree, segio: SegmentIO, offset: int, length: int
) -> bytes:
    """Read ``length`` bytes starting at byte ``offset``.

    Index pages are read through the buffer pool during the descent;
    leaf segments are then read as coalesced contiguous runs and the
    result is joined from borrowed views — one payload copy total.
    """
    root = tree.read_root()
    size = root.total_bytes
    if length < 0 or offset < 0 or offset + length > size:
        raise ByteRangeError(offset, length, size)
    if length == 0:
        return b""
    pieces: list[memoryview] = []
    for first, n_pages, parts in _plan_reads(
        tree, segio, offset, offset + length, root
    ):
        view = segio.view_run(first, n_pages)
        for part_off, take in parts:
            pieces.append(view[part_off : part_off + take])
    data = b"".join(pieces)
    if len(data) != length:
        raise ByteRangeError(offset, length, size)
    copytrace.record("search.assemble", length)
    return data


def read_range_into(
    tree: LargeObjectTree, segio: SegmentIO, offset: int, length: int, dest
) -> int:
    """Read ``length`` bytes at ``offset`` into a caller-supplied buffer.

    ``dest`` is any writable buffer of at least ``length`` bytes; page
    views are copied straight into it — zero intermediate buffers.
    Returns the byte count written.
    """
    root = tree.read_root()
    size = root.total_bytes
    if length < 0 or offset < 0 or offset + length > size:
        raise ByteRangeError(offset, length, size)
    out = memoryview(dest).cast("B")
    if len(out) < length:
        raise ByteRangeError(offset, length, len(out))
    position = 0
    for first, n_pages, parts in _plan_reads(
        tree, segio, offset, offset + length, root
    ):
        view = segio.view_run(first, n_pages)
        for part_off, take in parts:
            out[position : position + take] = view[part_off : part_off + take]
            position += take
    if position != length:
        raise ByteRangeError(offset, length, size)
    copytrace.record("search.assemble_into", length)
    return position


def replace_range(
    tree: LargeObjectTree,
    segio: SegmentIO,
    offset: int,
    data,
    log: PageLog | None = None,
) -> None:
    """Overwrite ``len(data)`` bytes in place starting at ``offset``.

    The object's size and structure are unchanged — this is the paper's
    byte-range *replace*, not insert.  Every affected page is rewritten
    via read-modify-write of the covering span (boundary pages need
    their unmodified bytes preserved); with logging enabled, each page's
    old and new images go to the log.
    """
    root = tree.read_root()
    size = root.total_bytes
    if offset < 0 or offset + len(data) > size:
        raise ByteRangeError(offset, len(data), size)
    if not len(data):
        return
    src = memoryview(data).cast("B")
    ps = segio.page_size
    lo, hi = offset, offset + len(src)
    for seg_offset, entry in tree.iter_segments(lo, hi, root=root):
        local_lo = max(lo, seg_offset) - seg_offset
        local_hi = min(hi, seg_offset + entry.count) - seg_offset
        page_lo = local_lo // ps
        page_hi = (local_hi - 1) // ps
        span, base = segio.read_span(entry.child, page_lo, page_hi)
        patched = bytearray(span)
        start = local_lo - base
        patched[start : start + (local_hi - local_lo)] = src[
            seg_offset + local_lo - lo : seg_offset + local_hi - lo
        ]
        if log is not None:
            for i in range(page_hi - page_lo + 1):
                pre = span[i * ps : (i + 1) * ps]
                post = copytrace.materialize(
                    memoryview(patched)[i * ps : (i + 1) * ps], "replace.log_post"
                )
                if pre != post:
                    log(entry.child + page_lo + i, pre, post)
        segio.write_segment(entry.child, patched, at_page=page_lo)
