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
any size with a precision of 1 page."  :func:`trim` is that operation;
``keep`` leaves that many spare pages in place.  A plain ``op_append``
(and an ``op_insert`` at the end, and a hint-less ``op_create``) ends
with ``trim(keep=T - 1)``, the bound a versioned object keeps as its
append reservation (:func:`repro.versions.ops.cow_append`); a plain
insert or delete trims to 0 first
(:class:`~repro.core.object.LargeObject` does it).  :func:`append`
itself never trims: with an explicit :func:`trim` at the end it is the
multi-append session whose segments double.  The insert and delete
arithmetic counts only the pages that hold bytes, so it works with or
without spare pages.

The paper leaves "the placement of the root" to the client.
:func:`create` places it on the page in front of the object's first
segment: one exact buddy run of 1 + n pages holds both, so a cold read
of a small object is one seek, not two (INTERNALS, "Where an object's
root lives").
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.config import EOSConfig
from repro.core.node import Entry, Node
from repro.core.pager import NodePager
from repro.core.search import PageLog
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree
from repro.errors import OutOfSpace
from repro.obs.tracer import Observability
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


def create(
    pager: NodePager,
    segio: SegmentIO,
    buddy: BuddyManager,
    config: EOSConfig,
    data=b"",
    *,
    size_hint: int | None = None,
    obs: Observability | None = None,
) -> LargeObjectTree:
    """A new object holding ``data``, its root on the page in front of
    its first segment.

    The root and the first segment :func:`growth_pages` picks share one
    exact buddy run of 1 + n pages, so a cold read of an object that
    fits that segment is one seek, not two.  Without data, when 1 + n
    exceeds the maximum segment size, or when no such run is free, the
    root takes a page of its own and :func:`append` places the data as
    before.  The pair is never a short ``allocate_up_to`` run: that
    could leave a root in front of no segment at all.
    """
    view = memoryview(data).cast("B")
    ref = None
    if len(view):
        hint = None
        if size_hint is not None and size_hint > 0:
            hint = max(size_hint, len(view))
        pages = growth_pages(config, buddy.max_segment_pages, None, hint)
        if pages < buddy.max_segment_pages:
            try:
                ref = buddy.allocate(1 + pages)
            except OutOfSpace:
                pass  # no exact run for the pair: a root of its own
    if ref is None:
        tree = LargeObjectTree.create(pager, config, obs=obs)
        rest = view
    else:
        root, first, pages = ref.first_page, ref.first_page + 1, ref.n_pages - 1
        take = min(len(view), pages * segio.page_size)
        segio.write_segment(first, view[:take])
        pager.write_new(root, Node(level=0, entries=[Entry(take, first, pages)]))
        tree = LargeObjectTree(pager, config, root, obs=obs)
        rest = view[take:]
    try:
        append(tree, segio, buddy, rest, size_hint=size_hint)
    except BaseException:
        # A create that fails leaves nothing behind: no root, no segment.
        for _, entry in tree.leaf_entries():
            buddy.free(entry.child, entry.pages)
        pager.free(tree.root_page)
        raise
    return tree


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
    filled = position

    # 3. Allocate new segments for whatever remains.
    new_entries: list[Entry] = []
    try:
        while position < len(view):
            remaining = len(view) - position
            hint_remaining = None
            if size_hint is not None and size_hint > size + position:
                # Cover at least this chunk even when the hint undershoots.
                hint_remaining = max(size_hint - size - position, remaining)
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
        # The size moves only now, with the new entries in one atomic
        # edit: a refused append leaves the object as it was (the bytes
        # written past its end are dead).
        with tree.pager.atomic():
            if filled:
                tree.update_tail(filled)
            tree.append_leaf_entries(new_entries)
    except BaseException:
        # The root never came to name these segments: give them back.
        for entry in new_entries:
            buddy.free(entry.child, entry.pages)
        raise


def trim(
    tree: LargeObjectTree,
    buddy: BuddyManager,
    size: int | None = None,
    *,
    keep: int = 0,
) -> int:
    """Free the tail segment's unused pages past the first ``keep``;
    returns pages freed.

    ``size`` is the object's size when the caller has just read it.
    """
    if size is None:
        size = tree.size()
    if size == 0:
        return 0
    path, _ = tree.descend(size)
    entry = path[-1].node.entry(path[-1].index)
    kept = ceil_div(entry.count, tree.config.page_size) + keep
    spare = entry.pages - kept
    if spare <= 0:
        return 0
    buddy.free(entry.child + kept, spare)
    tree.update_tail(0, pages=kept)
    return spare
