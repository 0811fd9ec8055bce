"""Byte insertion at an arbitrary position (paper Section 4.3.1 + 4.4).

The algorithm, step by step as published:

1. traverse the tree to the segment S containing the target byte;
2. *preparation* — compute the page P, the in-page offset Pb, and the
   conceptual three-way split: left remainder L (the prefix of S up to
   Pb), new segment N (the inserted bytes followed by P's bytes right of
   Pb), and right remainder R (S's pages after P);
3. *reshuffle* — the byte/page reshuffling of
   :mod:`repro.core.reshuffle`, governed by the segment-size threshold;
4. read the one or two (more, under page reshuffling) pages of S whose
   bytes move into N, allocate N, fill it "in proper order", write it;
5. fix the parent "so that it includes a pair for each of the segments
   L, N, and R whose size is not zero", splitting and propagating counts
   up to the root.

Existing leaf pages are never overwritten (Section 4.5): L and R remain
as untouched prefix/suffix page runs of S, N is written to freshly
allocated pages, and the pages of S that N consumed are returned to the
buddy system — which is possible at single-page precision because frees
of "any portion of a previously allocated segment" are supported.

The adaptive-threshold extension ([Bili91a]) kicks in before step 5:
if adding N's entries would split the parent index node, adjacent unsafe
segments in that node are first coalesced into single larger segments.
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


def insert(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    offset: int,
    data: bytes,
    *,
    policy: ThresholdPolicy | None = None,
) -> None:
    """Insert ``data`` so its first byte lands at byte ``offset``.

    ``offset`` must fall inside the object.  Inserting at the very end
    is an append, and which append is the caller's choice: the plain one
    fills the tail in place, a versioned one must not
    (:func:`repro.versions.ops.cow_append`).
    """
    size = tree.size()
    if offset < 0 or offset >= size:
        raise ByteRangeError(offset, len(data), size)
    if not data:
        return
    policy = policy or ThresholdPolicy(tree.config.threshold, tree.config.adaptive_threshold)

    ps = segio.page_size
    path, local = tree.descend(offset)
    step = path[-1]
    entry = step.node.entry(step.index)
    seg_lo = offset - local  # global byte offset where segment S starts
    s_c, s_pages, s_first = entry.count, entry.pages, entry.child

    # ---- Step 2: preparation ------------------------------------------------
    b = local
    p = b // ps  # the page of S holding byte b
    pb = b % ps  # insertion offset within that page
    # Only the pages holding bytes count: a tail segment may carry spare
    # pages past them, which R keeps (or the free below returns).
    p_c = ps if p < ceil_div(s_c, ps) - 1 else s_c - p * ps  # bytes in page P
    l0 = p * ps + pb
    r0 = max(0, s_c - (p + 1) * ps)
    n0 = len(data) + (p_c - pb)

    # ---- Step 3: reshuffle ----------------------------------------------------
    fill = step.node.n_entries / tree.fanout
    plan = plan_reshuffle(
        l0,
        n0,
        r0,
        page_size=ps,
        threshold=policy.effective(fill),
        max_segment_pages=buddy.max_segment_pages,
    )

    # ---- Step 4: read movers, compose and write N ---------------------------
    # N = S[l_c : l0]  +  data  +  S[b : p*ps + p_c]  +  S[(p+1)*ps : +took_r]
    r_take_pages = _taken_pages(plan.took_from_r, r0, ps)
    read_lo_page = plan.l_bytes // ps if plan.took_from_l else p
    read_hi_page = p + r_take_pages
    span, base = segio.read_span(s_first, read_lo_page, read_hi_page)
    prefix = span[plan.l_bytes - base : l0 - base]
    p_right = span[b - base : p * ps + p_c - base]
    r_head = span[(p + 1) * ps - base : (p + 1) * ps + plan.took_from_r - base]
    n_content = prefix + data + p_right + r_head
    if len(n_content) != plan.n_bytes:
        raise TreeCorrupt(
            f"assembled {len(n_content)} bytes for N, plan says {plan.n_bytes}"
        )
    n_segments = allocate_and_write(segio, buddy, n_content)

    # ---- Step 5: fix the parent ----------------------------------------------
    l_keep = -(-plan.l_bytes // ps)  # ceil: pages L retains
    if plan.r_bytes:
        r_start = p + 1 + r_take_pages
    else:
        r_start = s_pages
    new_entries: list[Entry] = []
    if plan.l_bytes:
        new_entries.append(Entry(plan.l_bytes, s_first, l_keep))
    new_entries.extend(Entry(count, ref.first_page, ref.n_pages) for ref, count in n_segments)
    if plan.r_bytes:
        new_entries.append(Entry(plan.r_bytes, s_first + r_start, s_pages - r_start))

    try:
        if tree.config.adaptive_threshold:
            added = len(new_entries) - 1
            if added > 0 and step.node.n_entries + added > tree.fanout:
                node_lo = seg_lo - step.node.child_offset(step.index)
                _coalesce_unsafe(
                    tree, segio, buddy, node_lo, policy.effective(fill),
                    skip_child=s_first,
                )
                # The tree may have been restructured; locate S again.
                path, local = tree.descend(offset)
                step = path[-1]
                seg_lo = offset - local
        dropped = tree.replace_leaf_range(seg_lo, seg_lo + s_c, new_entries)
    except BaseException:
        # A refused insert leaves S named and N unreferenced: give N back.
        for ref, _ in n_segments:
            buddy.free(ref.first_page, ref.n_pages)
        raise
    if len(dropped) != 1 or dropped[0].child != s_first:
        raise TreeCorrupt(f"insert replaced unexpected entries: {dropped}")

    # ---- Free the pages of S that L and R no longer cover -------------------
    # Only now: until the parent stopped naming S, a page freed here could
    # come back as a split's index page while S still needed it.
    if r_start > l_keep:
        buddy.free(s_first + l_keep, r_start - l_keep)


def _taken_pages(took_from_r: int, r0: int, page_size: int) -> int:
    """Pages removed from R's head (its partial tail page only moves when
    R is absorbed entirely)."""
    if took_from_r == 0:
        return 0
    if took_from_r == r0:
        return -(-r0 // page_size)
    return took_from_r // page_size


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
