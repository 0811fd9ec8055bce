"""Byte and page reshuffling (paper Sections 4.3 step 3 and 4.4).

Every insert or partial delete conceptually splits a segment into three:
the left remainder ``L``, a brand-new segment ``N`` (holding the
inserted bytes or the surviving tail of the last deleted page), and the
right remainder ``R``.  Before ``N`` is written, bytes (and, under the
segment-size threshold, whole pages) are moved between the three to
avoid stranding almost-empty pages and undersized segments.

The planner works purely on byte counts; the splice translates its
output into page reads and writes.  Movement rules (and why):

* Bytes leave **L only from its tail** — L keeps a prefix of the
  original segment, so its remaining bytes stay page-aligned and only
  its (new) last page may be partial.  Any byte amount is legal.
* Bytes leave **R only from its head in whole pages, or entirely** — R
  must keep starting on a page boundary ("there are no holes in each
  segment").  The byte-reshuffle step may absorb R only when "there is
  exactly one page in R" (the paper's rule); the page-reshuffle step
  moves whole head pages.
* ``N`` is rewritten from scratch regardless, so it can absorb anything.

``plan_reshuffle`` implements, in order:

1. the **page-reshuffle loop** of Section 4.4 (steps 3.1-3.3), governed
   by the threshold T: unsafe neighbours (0 < size < T pages) are merged
   into N, and N itself is topped up with whole pages from the smaller
   neighbour until safe;
2. the **byte-reshuffle** of Section 4.3.1 step 3: eliminating the
   partial last page of L and/or a single-page R when their bytes fit in
   N's last page, then balancing the free space between the last pages
   of L and N.

With ``threshold=1`` step 1 degenerates (every nonempty segment is safe)
and the planner reproduces the basic algorithms of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bitops import ceil_div


def pages_of(byte_count: int, page_size: int) -> int:
    """Pages needed for ``byte_count`` bytes (0 for an empty segment)."""
    return ceil_div(byte_count, page_size)


def last_page_bytes(byte_count: int, page_size: int) -> int:
    """Bytes in the last page: the paper's S_m.  0 for an empty segment."""
    if byte_count == 0:
        return 0
    rem = byte_count % page_size
    return rem if rem else page_size


@dataclass(frozen=True)
class ReshufflePlan:
    """Final byte counts after reshuffling, plus audit fields."""

    l_bytes: int
    n_bytes: int
    r_bytes: int
    # Audit: how the totals moved (executors derive reads from these).
    took_from_l: int  # bytes moved off L's tail into N's head
    took_from_r: int  # bytes moved off R's head into N's tail
    page_reshuffles: int  # iterations of the 3.2/3.3 loop that moved pages

    @property
    def total(self) -> int:
        return self.l_bytes + self.n_bytes + self.r_bytes


def plan_reshuffle(
    l0: int,
    n0: int,
    r0: int,
    *,
    page_size: int,
    threshold: int = 1,
    max_segment_pages: int,
) -> ReshufflePlan:
    """Plan byte/page reshuffling for segments of ``l0``/``n0``/``r0`` bytes.

    ``threshold`` is the segment-size threshold T in pages; 1 disables
    page reshuffling.  ``max_segment_pages`` bounds how large N may grow
    through merging (condition 3.1.c).
    """
    if min(l0, n0, r0) < 0:
        raise ValueError(f"negative segment sizes: {l0}, {n0}, {r0}")
    ps = page_size
    max_bytes = max_segment_pages * ps
    l, n, r = l0, n0, r0
    page_reshuffles = 0

    def unsafe(c: int) -> bool:
        # "A segment S is unsafe if its size is greater than zero and
        # less than T pages."
        return 0 < pages_of(c, ps) < threshold

    # The byte phase can occasionally re-create an unsafe neighbour (e.g.
    # eliminating L's partial last page drops L below T), so the two
    # phases iterate to a fixpoint; this preserves the Section 4.4
    # constraint that adjacent segments below T never persist when they
    # could be stored together.  Convergence is fast: every page-phase
    # action empties or grows a segment, and the byte-phase balance halves
    # the free-space difference each pass.
    for _ in range(8):
        before = (l, n, r)
        l, n, r, page_reshuffles = _page_phase(
            l, n, r, ps, threshold, max_bytes, unsafe, page_reshuffles
        )
        l, n, r = _byte_phase(l, n, r, ps)
        if (l, n, r) == before:
            break

    plan = ReshufflePlan(
        l_bytes=l,
        n_bytes=n,
        r_bytes=r,
        took_from_l=l0 - l,
        took_from_r=r0 - r,
        page_reshuffles=page_reshuffles,
    )
    assert plan.total == l0 + n0 + r0, "reshuffle must conserve bytes"
    assert plan.took_from_l >= 0 and plan.took_from_r >= 0
    # R may only shrink from its head in whole pages, or vanish.
    assert plan.r_bytes == 0 or (r0 - plan.r_bytes) % ps == 0, (
        "R must keep starting on a page boundary"
    )
    return plan


def _page_phase(
    l: int,
    n: int,
    r: int,
    ps: int,
    threshold: int,
    max_bytes: int,
    unsafe,
    page_reshuffles: int,
) -> tuple[int, int, int, int]:
    """Steps 3.1-3.3: merge/top-up whole pages under the threshold."""
    while n > 0:
        l_unsafe, r_unsafe, n_unsafe = unsafe(l), unsafe(r), unsafe(n)
        # 3.1.a: all three segments safe.
        if not (l_unsafe or r_unsafe or n_unsafe):
            break
        # 3.1.b: L and R both empty.
        if l == 0 and r == 0:
            break
        # 3.1.c: a neighbour is unsafe but merging even the smallest one
        # would overflow the maximum segment size.
        if l_unsafe or r_unsafe:
            smallest = min(c for c, u in ((l, l_unsafe), (r, r_unsafe)) if u)
            if smallest + n > max_bytes:
                break
        # 3.2: merge the smaller unsafe neighbour into N outright.
        if l_unsafe or r_unsafe:
            candidates = []
            if l_unsafe and l + n <= max_bytes:
                candidates.append(("l", l))
            if r_unsafe and r + n <= max_bytes:
                candidates.append(("r", r))
            if not candidates:
                break
            which, amount = min(candidates, key=lambda c: c[1])
            if which == "l":
                l = 0
            else:
                r = 0
            n += amount
            page_reshuffles += 1
            continue
        # 3.3: N itself is unsafe; top it up with whole pages from the
        # smaller nonempty neighbour.
        if n_unsafe:
            donors = [(c, name) for c, name in ((l, "l"), (r, "r")) if c > 0]
            if not donors:
                break
            amount, which = min(donors)
            if which == "l":
                # Taking j tail pages from L moves its partial last page
                # plus j-1 full pages.
                l_m = last_page_bytes(l, ps)
                needed = threshold - pages_of(n + l_m, ps) + 1
                j = max(1, needed)
                j = min(j, pages_of(l, ps))
                moved = l_m + (j - 1) * ps
                while j > 1 and n + moved > max_bytes:
                    j -= 1
                    moved = l_m + (j - 1) * ps
                if n + moved > max_bytes:
                    break
                l -= moved
                n += moved
            else:
                # Taking j head pages from R moves j full pages; taking
                # every page means absorbing R entirely.
                needed = threshold - pages_of(n, ps)
                j = max(1, needed)
                j = min(j, pages_of(r, ps))
                moved = r if j >= pages_of(r, ps) else j * ps
                while j > 1 and n + moved > max_bytes:
                    j -= 1
                    moved = j * ps
                if n + moved > max_bytes:
                    break
                r -= moved
                n += moved
            page_reshuffles += 1
            continue
        break
    return l, n, r, page_reshuffles


def plan_segmentation(
    total_bytes: int,
    *,
    page_size: int,
    threshold: int = 1,
    max_segment_pages: int,
) -> list[int]:
    """Byte counts per segment for a wholesale rewrite of an object.

    The compactor rewrites an object front to back into maximum-size
    segments plus a remainder.  The remainder must obey the same
    T-threshold legality rule the reshuffle planner enforces for edits:
    no segment may end up *unsafe* (0 < pages < T).  When the natural
    tail would be unsafe, pages are borrowed from the previous full
    segment so both finish at or above T — the wholesale analogue of
    step 3.3's top-up.

    Byte counts are exact: every segment but the last is page-aligned,
    so the executor allocates ``ceil(bytes / page_size)`` pages per
    segment with no spare pages to trim.
    """
    if total_bytes < 0:
        raise ValueError(f"negative object size: {total_bytes}")
    if total_bytes == 0:
        return []
    ps = page_size
    max_bytes = max_segment_pages * ps
    counts: list[int] = []
    remaining = total_bytes
    while remaining > max_bytes:
        counts.append(max_bytes)
        remaining -= max_bytes
    counts.append(remaining)
    tail_pages = pages_of(counts[-1], ps)
    if len(counts) > 1 and 0 < tail_pages < threshold:
        # Borrow whole pages off the previous segment's tail so the last
        # segment reaches T.  The donor stays safe: it held
        # max_segment_pages and T is far below the maximum by
        # construction (the planner's 3.1.c bound).
        borrow = min(threshold - tail_pages, pages_of(counts[-2], ps) - threshold)
        if borrow > 0:
            counts[-2] -= borrow * ps
            counts[-1] += borrow * ps
    assert sum(counts) == total_bytes, "segmentation must conserve bytes"
    return counts


def _byte_phase(l: int, n: int, r: int, ps: int) -> tuple[int, int, int]:
    """Section 4.3.1 step 3: eliminate partial pages, balance free space."""
    n_m = last_page_bytes(n, ps)
    if n > 0 and n_m != ps:
        l_m = last_page_bytes(l, ps)
        r_pages = pages_of(r, ps)
        # "If there is exactly one page in R and the R_c and N_m bytes can
        # fit in a single page, the R_c bytes become candidates..."
        r_candidate = r_pages == 1 and r + n_m <= ps
        # "If the number of bytes L_m ... and the N_m bytes can fit in a
        # single page, then the L_m bytes become candidates..."
        l_candidate = l > 0 and l_m + n_m <= ps
        if l_candidate and r_candidate:
            if l_m + r + n_m <= ps:
                # "If both groups ... can be moved to N without overflowing
                # the last page of N then move both."
                n += l_m + r
                l -= l_m
                r = 0
            elif ps - l_m >= ps - r:
                # "Otherwise, take the group that is in the segment with
                # the largest free space."
                l -= l_m
                n += l_m
            else:
                n += r
                r = 0
        elif l_candidate:
            l -= l_m
            n += l_m
        elif r_candidate:
            n += r
            r = 0
        # "If after these operations there is free space at the last page
        # of L, take as many bytes as necessary from L so that the last
        # page of L and the last page of N will have similar amount of
        # free space."
        l_m = last_page_bytes(l, ps)
        n_m = last_page_bytes(n, ps)
        if l > 0 and l_m < ps and n_m < ps and l_m > n_m:
            x = (l_m - n_m) // 2
            x = min(x, ps - n_m, l_m - 1)  # never empty L's last page here
            if x > 0:
                l -= x
                n += x
    return l, n, r
