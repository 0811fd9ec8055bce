"""Append and create (paper Section 4.1).

Two allocation regimes, exactly as the paper describes:

* **Known eventual size** — the size hint "is provided as a hint to the
  large object manager who allocates a segment just large enough to hold
  the entire object"; objects above the maximum segment size get "a
  sequence of maximum size segments".
* **Unknown eventual size** — the growth scheme borrowed from Starburst
  [Lehm89]: "successive segments allocated for storage double in size
  until the maximum segment size is reached", after which maximum-size
  segments repeat.

Appends first fill the free space of the current tail segment ("each
chunk of bytes is appended at the end of the previous one with no holes
in between them"): the partial last page is completed by a single
read-modify-write (logged — this is the one place append touches an
existing leaf page), remaining spare pages are filled with fresh whole-
page writes, and only then are new segments allocated.

"At the end of these multi-append operations the last allocated segment
is always trimmed, i.e., its unused pages (if any) at the right end are
given back to the free space.  Trimming a segment is trivial because the
buddy system of EOS deals with allocation/deallocation of segments of
any size with a precision of 1 page."  :func:`trim` is that operation.
An unversioned object also trims before every insert and delete
(:class:`~repro.core.object.LargeObject` does it), so its spare pages
live only between appends.  A versioned object keeps them as its append
reservation (:func:`repro.versions.ops.cow_append`); the insert and
delete arithmetic counts only the pages that hold bytes, so it works on
either.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.config import EOSConfig
from repro.core.node import Entry
from repro.core.search import PageLog
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree
from repro.util import copytrace
from repro.util.bitops import ceil_div


def growth_pages(
    config: EOSConfig,
    max_segment_pages: int,
    last_segment_pages: int | None,
    hint_remaining_bytes: int | None,
) -> int:
    """Pages to allocate for the next tail segment.

    With a live size hint, allocate exactly what the rest of the object
    needs (capped at the maximum segment size).  Without one, double the
    previous segment (Section 4.1's unknown-size scheme).
    """
    ps = config.page_size
    if hint_remaining_bytes is not None and hint_remaining_bytes > 0:
        return min(max_segment_pages, ceil_div(hint_remaining_bytes, ps))
    if last_segment_pages is None:
        return min(max_segment_pages, config.initial_growth_pages)
    return min(max_segment_pages, max(1, last_segment_pages * 2))


def append(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    data,
    *,
    size_hint: int | None = None,
    log: PageLog | None = None,
) -> None:
    """Append ``data`` at the end of the object.

    ``data`` is any buffer-protocol object; it is sliced as memoryviews
    all the way to the vectored disk write, never re-materialized.
    ``size_hint`` is the *total* eventual object size, if known; it
    shapes segment allocation only (appending more than the hint simply
    falls back to the doubling scheme).
    """
    if not len(data):
        return
    view = memoryview(data).cast("B")
    ps = segio.page_size
    size = tree.size()
    position = 0
    last_pages: int | None = None

    if size > 0:
        path, _ = tree.descend(size)
        entry = path[-1].node.entry(path[-1].index)
        last_pages = entry.pages
        live_bytes = entry.count
        # 1. Complete the partial last page in place (logged).
        partial = live_bytes % ps
        if partial:
            take = min(ps - partial, len(view))
            page = entry.child + live_bytes // ps
            chunk = view[:take]
            pre = segio.patch_page(page, partial, chunk)
            if log is not None:
                post = bytearray(pre)
                post[partial : partial + take] = chunk
                log(page, pre, copytrace.materialize(post, "append.log_post"))
            position += take
            live_bytes += take
        # 2. Fill the segment's spare pages with whole-page writes.
        live_pages = ceil_div(live_bytes, ps)
        if position < len(view) and live_pages < entry.pages:
            capacity = (entry.pages - live_pages) * ps
            take = min(capacity, len(view) - position)
            segio.write_segment(
                entry.child, view[position : position + take], at_page=live_pages
            )
            position += take
        if position:
            tree.update_tail(position)
            size += position

    # 3. Allocate new segments for whatever remains.
    new_entries: list[Entry] = []
    while position < len(view):
        remaining = len(view) - position
        written_total = size + sum(e.count for e in new_entries)
        hint_remaining = None
        if size_hint is not None and size_hint > written_total:
            # Cover at least this chunk even when the hint undershoots.
            hint_remaining = max(size_hint - written_total, remaining)
        want = growth_pages(
            tree.config, buddy.max_segment_pages, last_pages, hint_remaining
        )
        want = max(want, 1)
        ref = buddy.allocate_up_to(want)
        take = min(remaining, ref.n_pages * ps)
        segio.write_segment(ref.first_page, view[position : position + take])
        new_entries.append(Entry(take, ref.first_page, ref.n_pages))
        position += take
        last_pages = ref.n_pages
    if new_entries:
        tree.append_leaf_entries(new_entries)


def trim(
    tree: LargeObjectTree, buddy: BuddyManager, size: int | None = None
) -> int:
    """Free the tail segment's unused pages; returns pages freed.

    ``size`` is the object's size when the caller has just read it.
    """
    if size is None:
        size = tree.size()
    if size == 0:
        return 0
    path, _ = tree.descend(size)
    entry = path[-1].node.entry(path[-1].index)
    needed = ceil_div(entry.count, tree.config.page_size)
    spare = entry.pages - needed
    if spare <= 0:
        return 0
    buddy.free(entry.child + needed, spare)
    tree.update_tail(0, pages=needed)
    return spare
