"""Copy-on-write variants of the in-place update executors.

Append and replace are the two paths in :mod:`repro.core` that write
into *existing* leaf pages; under versioning those bytes may still be
live in an older snapshot, so both get CoW variants here:

* :func:`cow_append` never patches the partial tail page and never
  fills tail spare pages — appended bytes land only on freshly
  allocated segments.  A non-tail segment whose last page is partial is
  perfectly legal tree shape (insert and delete produce them all the
  time); the cost is some extra segment fragmentation on small appends.
* :func:`cow_replace` rewrites every segment the replaced range
  overlaps — read the covering span, patch it in memory, write fresh
  exact-size segments, splice them into the leaf level — mirroring
  ``LargeObject.compact()``.  The dropped segments are freed through
  the (deferred-free) buddy, i.e. handed to the reclaimer.

Insert and delete need no variants: they already write new data to
fresh segments only and free (never overwrite) superseded ones, which
the unit's :class:`~repro.core.unit.UnitAllocator` defers.
"""

from __future__ import annotations

from repro.core.node import Entry
from repro.core.search import read_range
from repro.core.segio import SegmentIO, allocate_and_write
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError


def cow_append(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy,
    data,
) -> None:
    """Append ``data`` without touching any existing page.

    All new bytes go to freshly allocated exact-size segments (no tail
    patch, no spare fill: after a delete the dead bytes of the partial
    tail page can belong to an older version's snapshot).
    """
    if not len(data):
        return
    segments = allocate_and_write(segio, buddy, data)
    tree.append_leaf_entries(
        [Entry(count, ref.first_page, ref.n_pages) for ref, count in segments]
    )


def cow_replace(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy,
    offset: int,
    data,
) -> None:
    """Overwrite ``[offset, offset+len)`` by rewriting covering segments.

    The in-place executor (:func:`repro.core.search.replace_range`)
    writes straight into the leaf pages an older version still reads;
    this variant copies the whole covering span to fresh segments with
    the range patched, and splices the leaf level — index relocation
    and old-segment disposal fall out of the unit's pagers.
    """
    view = memoryview(data).cast("B")
    size = tree.size()
    if offset < 0 or len(view) < 0 or offset + len(view) > size:
        raise ByteRangeError(offset, len(view), size)
    if not len(view):
        return
    lo, hi = offset, offset + len(view)
    _, local_lo = tree.descend(lo)
    span_lo = lo - local_lo
    path_hi, local_hi = tree.descend(hi - 1)
    tail_entry = path_hi[-1].node.entry(path_hi[-1].index)
    span_hi = (hi - 1) - local_hi + tail_entry.count

    patched = bytearray(read_range(tree, segio, span_lo, span_hi - span_lo))
    patched[lo - span_lo : hi - span_lo] = view
    segments = allocate_and_write(segio, buddy, patched)
    new_entries = [
        Entry(count, ref.first_page, ref.n_pages) for ref, count in segments
    ]
    for entry in tree.replace_leaf_range(span_lo, span_hi, new_entries):
        buddy.free(entry.child, entry.pages)
