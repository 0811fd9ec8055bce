"""Copy-on-write variants of the in-place update executors.

Append and replace are the two paths in :mod:`repro.core` that write
into *existing* leaf pages; under versioning those bytes may still be
live in an older snapshot, so both get CoW variants here:

* :func:`cow_append` never patches the partial tail page.  It writes
  into the tail segment's *reservation* — its pages at or past
  ``ceil(count / page_size)``, which no version has ever counted — and
  only when that is used up allocates a fresh segment of ``max(needed,
  T)`` pages, whose unused pages become the next reservation.  Each
  append is its own leaf entry, physically right after the previous
  one, so a scan reads a run of appends as one transfer.
* :func:`cow_replace` rewrites every segment the replaced range
  overlaps — read the covering span, patch it in memory, write fresh
  exact-size segments, splice them into the leaf level — mirroring
  ``LargeObject.compact()``.  The dropped segments are freed through
  the (deferred-free) buddy, i.e. handed to the reclaimer.

Insert and delete need no variants, only no trim first: they write new
data to fresh segments only, free (never overwrite) superseded ones,
which the unit's :class:`~repro.core.unit.UnitAllocator` defers, and
count only the pages that hold bytes, so a tail reservation passes
through them to the right remainder or back to the allocator.
"""

from __future__ import annotations

from repro.core.node import Entry
from repro.core.search import read_range
from repro.core.segio import SegmentIO, allocate_and_write
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError
from repro.util.bitops import ceil_div


def cow_append(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy,
    data,
    *,
    threshold: int,
) -> None:
    """Append ``data`` without touching any page a version counts.

    The bytes fill the tail's reservation first, as a new leaf entry
    starting on the page after the tail's last counted page (the old
    tail entry shrinks to its counted pages; after a delete the dead
    bytes of a partial tail page can belong to an older snapshot, so
    that page is never patched).  The rest goes to a fresh segment of
    at least ``threshold`` pages — the object's T — or to exact-size
    ones when it needs T pages or more.  At most ``T - 1`` pages stay
    reserved.
    """
    view = memoryview(data).cast("B")
    if not len(view):
        return
    ps = segio.page_size
    size = tree.size()
    shrunk: list[Entry] = []  # the old tail, once its reservation is used
    new_entries: list[Entry] = []
    if size:
        path, _ = tree.descend(size)
        tail = path[-1].node.entry(path[-1].index)
        counted = ceil_div(tail.count, ps)
        spare = tail.pages - counted
        if spare:
            take = min(len(view), spare * ps)
            segio.write_segment(tail.child, view[:take], at_page=counted)
            shrunk = [Entry(tail.count, tail.child, counted)]
            new_entries.append(Entry(take, tail.child + counted, spare))
            view = view[take:]
    while len(view) and ceil_div(len(view), ps) < threshold:
        ref = buddy.allocate_up_to(threshold)
        take = min(len(view), ref.n_pages * ps)
        segio.write_segment(ref.first_page, view[:take])
        new_entries.append(Entry(take, ref.first_page, ref.n_pages))
        view = view[take:]
    new_entries.extend(
        Entry(count, ref.first_page, ref.n_pages)
        for ref, count in allocate_and_write(segio, buddy, view)
    )
    if shrunk:
        # Nothing is freed: the pages the old tail entry gives up are
        # the new entries' now.
        tree.replace_leaf_range(size - tail.count, size, shrunk + new_entries)
    else:
        tree.append_leaf_entries(new_entries)


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
