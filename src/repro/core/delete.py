"""Byte-range deletion (paper Section 4.3.2 + 4.4).

The published algorithm runs in two conceptual phases:

* **Subtree deletion** — everything strictly between the two boundary
  segments dies without a single leaf page being touched, because "the
  address and size of each segment are stored in the corresponding
  parent index nodes, and they can be given directly to the buddy
  system".  Here, the tree's structural primitive returns the dropped
  leaf entries and this module frees their page runs.
* **Partial deletion at the boundaries** — with S the segment holding
  the first deleted byte (page P, offset Pb) and S' the segment holding
  the last (page Q, offset Qb): L keeps S's prefix, R keeps S''s pages
  after Q, and a new (conceptually one-page) segment N receives Q's
  surviving tail — "since segments cannot have holes, page Q is isolated
  from the part of segment S' that remains on the right of Q".  Byte and
  page reshuffling then runs exactly as for insert.

Cost notes reproduced by experiment E10: a deletion whose last byte is
the last byte of a page has N_c = 0 and "can be completed without
accessing any segment"; truncation (delete to the end) and whole-object
deletion are special cases of that.  "Unlike the B-tree algorithms as
well as the ones used in Exodus, a partial segment delete may create new
entries that need to be added in the parent" — L, N and R can be three
entries where one segment stood.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.node import Entry
from repro.core.reshuffle import ReshufflePlan, plan_reshuffle
from repro.core.segio import SegmentIO, allocate_and_write
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError, TreeCorrupt
from repro.util.bitops import ceil_div


def delete_range(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    offset: int,
    length: int,
    *,
    policy: ThresholdPolicy | None = None,
) -> None:
    """Delete ``length`` bytes starting at byte ``offset``."""
    size = tree.size()
    if length < 0 or offset < 0 or offset + length > size:
        raise ByteRangeError(offset, length, size)
    if length == 0:
        return
    policy = policy or ThresholdPolicy(
        tree.config.threshold, tree.config.adaptive_threshold
    )

    ps = segio.page_size
    lo, hi = offset, offset + length

    # ---- Step 1: locate the boundary segments --------------------------------
    path_l, local_l = tree.descend(lo)
    step_l = path_l[-1]
    s_entry = step_l.node.entry(step_l.index)
    s_lo = lo - local_l
    path_r, local_r = tree.descend(hi - 1)
    step_r = path_r[-1]
    sp_entry = step_r.node.entry(step_r.index)
    sp_lo = (hi - 1) - local_r
    same_segment = s_lo == sp_lo
    fill = step_l.node.n_entries / tree.fanout

    # ---- Step 2: the three conceptual segments -------------------------------
    p = local_l // ps
    pb = local_l % ps
    l0 = p * ps + pb
    q = local_r // ps
    qb = local_r % ps
    # Spare pages past S''s bytes (a tail segment's) stay with R.
    q_c = ps if q < ceil_div(sp_entry.count, ps) - 1 else sp_entry.count - q * ps
    n0 = q_c - (qb + 1)
    r0 = max(0, sp_entry.count - (q + 1) * ps)

    # ---- Step 3: reshuffle (skipped entirely when N is empty) ----------------
    if n0 == 0:
        plan = ReshufflePlan(
            l_bytes=l0, n_bytes=0, r_bytes=r0,
            took_from_l=0, took_from_r=0, page_reshuffles=0,
        )
    else:
        plan = plan_reshuffle(
            l0,
            n0,
            r0,
            page_size=ps,
            threshold=policy.effective(fill),
            max_segment_pages=buddy.max_segment_pages,
        )

    # ---- Step 4: read movers, compose and write N ----------------------------
    n_segments: list = []
    if plan.n_bytes:
        prefix = b""
        if plan.took_from_l:
            prefix = segio.read_bytes(s_entry.child, plan.l_bytes, l0)
        r_take_pages = _taken_pages(plan.took_from_r, r0, ps)
        span, base = segio.read_span(sp_entry.child, q, q + r_take_pages)
        core = span[q * ps + qb + 1 - base : q * ps + q_c - base]
        r_head = span[(q + 1) * ps - base : (q + 1) * ps + plan.took_from_r - base]
        n_content = prefix + core + r_head
        if len(n_content) != plan.n_bytes:
            raise TreeCorrupt(
                f"assembled {len(n_content)} bytes for N, plan says {plan.n_bytes}"
            )
        n_segments = allocate_and_write(segio, buddy, n_content)
    else:
        r_take_pages = 0

    # ---- Step 5/6: fix parents, merge/rotate, fix root ------------------------
    l_keep = ceil_div(plan.l_bytes, ps)
    if plan.r_bytes:
        r_start = q + 1 + r_take_pages
    else:
        r_start = sp_entry.pages
    new_entries: list[Entry] = []
    if plan.l_bytes:
        new_entries.append(Entry(plan.l_bytes, s_entry.child, l_keep))
    new_entries.extend(
        Entry(count, ref.first_page, ref.n_pages) for ref, count in n_segments
    )
    if plan.r_bytes:
        new_entries.append(
            Entry(plan.r_bytes, sp_entry.child + r_start, sp_entry.pages - r_start)
        )
    replace_hi = sp_lo + sp_entry.count
    try:
        dropped = tree.replace_leaf_range(s_lo, replace_hi, new_entries)
    except BaseException:
        # A refused delete leaves S and S' named: give N back.
        for ref, _ in n_segments:
            buddy.free(ref.first_page, ref.n_pages)
        raise

    # ---- Free the boundary segments' dead pages ------------------------------
    # Only once the parents stopped naming them (see insert).
    if same_segment:
        if r_start > l_keep:
            buddy.free(s_entry.child + l_keep, r_start - l_keep)
    else:
        if s_entry.pages > l_keep:
            buddy.free(s_entry.child + l_keep, s_entry.pages - l_keep)
        if r_start > 0:
            buddy.free(sp_entry.child, r_start)
    # Middle segments die whole; the boundary segments were partially
    # freed just above.
    boundary = {s_entry.child, sp_entry.child}
    for entry in dropped:
        if entry.child not in boundary:
            buddy.free(entry.child, entry.pages)


def truncate(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    new_size: int,
    *,
    policy: ThresholdPolicy | None = None,
) -> None:
    """Delete from ``new_size`` to the end of the object.

    "With B=0 truncation becomes equivalent to deleting the entire
    object and thus, this operation too does not need to access any
    segment of the object."
    """
    size = tree.size()
    if new_size < 0 or new_size > size:
        raise ByteRangeError(new_size, 0, size)
    if new_size < size:
        delete_range(tree, segio, buddy, new_size, size - new_size, policy=policy)


def _taken_pages(took_from_r: int, r0: int, page_size: int) -> int:
    if took_from_r == 0:
        return 0
    if took_from_r == r0:
        return ceil_div(r0, page_size)
    return took_from_r // page_size
