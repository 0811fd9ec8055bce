"""The §4.3 splice: insert (4.3.1) and delete (4.3.2) as one algorithm.

``splice(tree, segio, buddy, lo, hi, data)`` replaces bytes ``[lo, hi)``
with ``data``; an insert is ``splice(off, off, data)`` and a delete
``splice(off, off + n, b"")``.  The steps, as the paper publishes them
for both operations:

1. traverse the tree to the segment S holding byte ``lo`` and the
   segment S′ holding byte ``hi - 1`` (S itself when ``hi == lo``);
2. *preparation* — the conceptual three-way split: the left remainder L
   (S's prefix up to ``lo``), the new segment N (``data`` followed by the
   bytes of the *pivot page* past ``hi``) and the right remainder R (S′'s
   pages after the pivot page).  The pivot page is the page of S′
   holding byte ``hi - 1``, or the page of S holding ``lo`` for an
   insert: "since segments cannot have holes, page Q is isolated from
   the part of segment S′ that remains on the right of Q";
3. *reshuffle* — the byte/page reshuffling of
   :mod:`repro.core.reshuffle`, governed by the segment-size threshold;
4. read the pages whose bytes move into N, allocate N and fill it "in
   proper order".  A delete whose last byte ends a page has an empty N
   and "can be completed without accessing any segment"; truncation is
   that case;
5. fix the parent "so that it includes a pair for each of the segments
   L, N, and R whose size is not zero", splitting, merging and
   propagating counts up to the root.  Every segment strictly between S
   and S′ dies without a leaf page being touched: "the address and size
   of each segment are stored in the corresponding parent index nodes,
   and they can be given directly to the buddy system".

Existing leaf pages are never overwritten (Section 4.5): L and R remain
as untouched prefix/suffix page runs of S and S′, N is written to
freshly allocated pages, and the pages N consumed go back to the buddy
system at single-page precision — frees of "any portion of a previously
allocated segment" are supported.

The adaptive-threshold extension ([Bili91a]) runs before step 5 when the
splice stays inside one segment: if its new entries would split the
parent index node, adjacent unsafe segments in that node are first
coalesced into single larger segments.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.node import Entry
from repro.core.reshuffle import plan_reshuffle
from repro.core.segio import SegmentIO, allocate_and_write
from repro.core.threshold import ThresholdPolicy, find_unsafe_runs
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError, TreeCorrupt
from repro.util.bitops import ceil_div


def splice(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    lo: int,
    hi: int,
    data,
    *,
    policy: ThresholdPolicy,
) -> None:
    """Replace bytes ``[lo, hi)`` of the object with ``data``.

    Bytes past the end cannot be named, and neither can the end itself
    for new bytes: that is an append, and which append is the caller's
    choice.
    """
    size = tree.size()
    if not 0 <= lo <= hi <= size or (data and lo == size):
        raise ByteRangeError(lo, hi - lo or len(data), size)
    if lo == hi and not data:
        return
    ps = segio.page_size

    # ---- Step 1: S, S′ and where hi falls in S′ ------------------------------
    path, local = tree.descend(lo)
    step = path[-1]
    s = step.node.entry(step.index)
    s_lo = sp_lo = lo - local
    sp = s
    if hi - 1 >= s_lo + s.count:  # S′ lies past S: a second descent
        path_r, local_r = tree.descend(hi - 1)
        step_r = path_r[-1]
        sp = step_r.node.entry(step_r.index)
        sp_lo = hi - 1 - local_r
    h = hi - sp_lo
    # The pivot page holds byte hi - 1, or byte lo for an insert.
    q = (h - 1 if hi > lo else h) // ps
    same_segment = s_lo == sp_lo

    # ---- Step 2: preparation ---------------------------------------------------
    # Only the pages holding bytes count: a tail segment may carry spare
    # pages past them, which R keeps (or the free below returns).
    q_end = q * ps + min(ps, sp.count - q * ps)  # end of the pivot page's bytes
    l0 = local
    n0 = len(data) + q_end - h
    r0 = max(0, sp.count - (q + 1) * ps)

    # ---- Step 3: reshuffle -----------------------------------------------------
    fill = step.node.n_entries / tree.fanout
    plan = plan_reshuffle(
        l0,
        n0,
        r0,
        page_size=ps,
        threshold=policy.effective(fill),
        max_segment_pages=buddy.max_segment_pages,
    )

    # ---- Step 4: read movers, compose and write N ------------------------------
    # N = S[l_lo : l0]  +  data  +  S′[h : r_hi]; while R survives it
    # gives whole pages, so the S′ part is one byte range.  One run per
    # segment, and one for both when they lie in one segment and their
    # pages share a page or abut.
    n_segments: list = []
    if plan.n_bytes:
        l_lo, r_hi = plan.l_bytes, q_end + plan.took_from_r
        if same_segment and l_lo < l0 and h < r_hi and (l0 - 1) // ps + 1 >= h // ps:
            span, base = segio.read_span(s.child, l_lo // ps, (r_hi - 1) // ps)
            left, right = span[l_lo - base : l0 - base], span[h - base : r_hi - base]
        else:
            left = segio.read_bytes(s.child, l_lo, l0)
            right = segio.read_bytes(sp.child, h, r_hi)
        n_content = left + data + right
        if len(n_content) != plan.n_bytes:
            raise TreeCorrupt(
                f"assembled {len(n_content)} bytes for N, plan says {plan.n_bytes}"
            )
        n_segments = allocate_and_write(segio, buddy, n_content)

    # ---- Step 5: fix the parent ------------------------------------------------
    l_keep = ceil_div(plan.l_bytes, ps)  # pages L retains
    r_start = q + 1 + plan.took_from_r // ps if plan.r_bytes else sp.pages
    new_entries: list[Entry] = []
    if plan.l_bytes:
        new_entries.append(Entry(plan.l_bytes, s.child, l_keep))
    new_entries.extend(
        Entry(count, ref.first_page, ref.n_pages) for ref, count in n_segments
    )
    if plan.r_bytes:
        new_entries.append(Entry(plan.r_bytes, sp.child + r_start, sp.pages - r_start))

    try:
        added = len(new_entries) - 1
        if (
            tree.config.adaptive_threshold
            and same_segment
            and added > 0
            and step.node.n_entries + added > tree.fanout
        ):
            node_lo = s_lo - step.node.child_offset(step.index)
            _coalesce_unsafe(
                tree, segio, buddy, node_lo, policy.effective(fill),
                skip_child=s.child,
            )
            # The tree may have been restructured; locate S again.
            _, local = tree.descend(lo)
            s_lo = sp_lo = lo - local
        dropped = tree.replace_leaf_range(s_lo, sp_lo + sp.count, new_entries)
    except BaseException:
        # A refused splice leaves S and S′ named and N unreferenced: give
        # N back.
        for ref, _ in n_segments:
            buddy.free(ref.first_page, ref.n_pages)
        raise
    if dropped[0].child != s.child or dropped[-1].child != sp.child:
        raise TreeCorrupt(f"splice replaced unexpected entries: {dropped}")

    # ---- Free what L, N and R no longer cover ----------------------------------
    # Only now: until the parent stopped naming S and S′, a page freed
    # here could come back as a split's index page while they still
    # needed it.
    if same_segment:
        if r_start > l_keep:
            buddy.free(s.child + l_keep, r_start - l_keep)
        return
    if s.pages > l_keep:
        buddy.free(s.child + l_keep, s.pages - l_keep)
    if r_start > 0:
        buddy.free(sp.child, r_start)
    for entry in dropped[1:-1]:  # the segments between S and S′ die whole
        buddy.free(entry.child, entry.pages)


def _coalesce_unsafe(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    node_lo: int,
    threshold: int,
    *,
    skip_child: int,
) -> None:
    """[Bili91a]: before splitting a parent, merge its adjacent unsafe
    segments ("a single larger segment is allocated to accommodate this
    group of unsafe adjacent segments")."""
    path, _ = tree.descend(node_lo)
    node = path[-1].node
    runs = find_unsafe_runs(node.entries, threshold, segio.page_size)
    # Work right-to-left so earlier offsets stay valid.
    for start, end in reversed(runs):
        entries = node.entries[start:end]
        if any(e.child == skip_child for e in entries):
            continue
        total = sum(e.count for e in entries)
        if -(-total // segio.page_size) > buddy.max_segment_pages:
            continue
        run_lo = node_lo + node.child_offset(start)
        data = b"".join(
            segio.read_bytes(e.child, 0, e.count) for e in entries
        )
        merged = allocate_and_write(segio, buddy, data)
        new_entries = [Entry(c, ref.first_page, ref.n_pages) for ref, c in merged]
        dropped = tree.replace_leaf_range(run_lo, run_lo + total, new_entries)
        for e in dropped:
            buddy.free(e.child, e.pages)
