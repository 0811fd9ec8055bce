"""The copy-on-write unit (paper Section 4.5): one body, two commit policies.

"With shadowing, a page is never overwritten; instead, a write is
performed by allocating and writing a new page and leaving the old one
intact until it is no longer needed."  One update operation runs as one
*unit*: every index page it writes is relocated to a fresh page, the
root write is held back as the single switch point, and frees of pages
the old tree still references are deferred.  What "no longer needed"
means is the only thing the two users disagree on:

* :class:`~repro.recovery.shadow.ShadowPager` — needed until the unit
  commits: the root is written in place and the superseded pages are
  freed at once;
* :class:`~repro.versions.pager.VersionPager` — needed until the last
  version reaching them expires: the root goes to a brand-new page and
  the superseded pages are left to the reclaimer.

:class:`UnitPager` (index pages) and :class:`UnitAllocator` (leaf
pages) hold everything else once, and :func:`run_unit` is the only
begin / commit-or-abort / rebind sequence in the program.

Nothing can reference a unit's pages before its switch point, so its
allocations only dirty their directory frames
(:meth:`~repro.buddy.manager.BuddyManager.deferring`); each policy
passes the unit's pages through the write-order barrier
(:meth:`~repro.core.pager.InPlacePager.flush`) before it publishes.  A
failed barrier write aborts the unit like any other failure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from repro.core.node import Node
from repro.core.pager import InPlacePager, NodePager
from repro.errors import RecoveryError
from repro.obs.tracer import NULL_OBS, Observability
from repro.storage.page import PageId


def page_runs(pages: Iterable[PageId]) -> list[tuple[PageId, int]]:
    """Maximal runs ``(first_page, n_pages)`` of a set of page ids."""
    out: list[tuple[PageId, int]] = []
    for page in sorted(pages):
        if out and out[-1][0] + out[-1][1] == page:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((page, 1))
    return out


class UnitPager(NodePager):
    """Index paging that never overwrites a page the old tree reaches.

    Subclasses supply ``kind`` (the metric/span prefix) and
    ``commit_unit(lsn)`` — what becomes of the pending root and of the
    superseded pages — which calls the barrier ``base.flush(local)``
    before its switch point; a failure there aborts the unit.
    """

    kind = "unit"

    def __init__(
        self, base: InPlacePager, *, obs: Observability | None = None
    ) -> None:
        self.base = base
        self.obs = obs if obs is not None else NULL_OBS
        self._reset()

    # ------------------------------------------------------------------
    # Unit protocol
    # ------------------------------------------------------------------

    def _reset(self) -> None:
        self.in_unit = False
        #: Pages allocated inside the unit: written in place, freed on abort.
        self.local: set[PageId] = set()
        #: Old-tree pages the unit replaced or freed; never touched here.
        self.superseded: set[PageId] = set()
        self._pending_root: tuple[PageId, Node] | None = None

    def _require_unit(self, what: str) -> None:
        if not self.in_unit:
            raise RecoveryError(f"{self.kind} pager: {what} outside a unit")

    def begin_unit(self) -> None:
        """Start a unit (one update operation)."""
        if self.in_unit:
            raise RecoveryError(f"{self.kind} unit already active")
        self.in_unit = True

    def commit_unit(self, lsn: int) -> PageId | None:
        """Switch to the new tree; the policy the subclasses differ in."""
        raise NotImplementedError

    def abort_unit(self) -> set[PageId]:
        """Discard the new version; the old tree was never modified.

        Returns the unit-local pages (freed here).  The unit is closed
        before the first free, so an abort that dies on a dead device
        leaks pages but leaves the pager usable.
        """
        self._require_unit("abort")
        local = self.local
        self._reset()
        for page in local:
            self.base.free(page)
        return local

    # ------------------------------------------------------------------
    # NodePager interface
    # ------------------------------------------------------------------

    def read(self, page: PageId) -> Node:
        """Read a node; the pending root is served from memory."""
        if self._pending_root is not None and page == self._pending_root[0]:
            # Within a unit, later phases must see the root as edited.
            return self._pending_root[1]
        return self.base.read(page)

    def write(self, page: PageId, node: Node) -> PageId:
        self._require_unit("write")
        if page in self.local:
            # Already relocated in this unit; write in place.
            return self.base.write(page, node)
        relocated = self.base.allocate()
        self.base.write_new(relocated, node)
        self.local.add(relocated)
        self.superseded.add(page)
        self.obs.metrics.counter(f"{self.kind}.relocations").inc()
        return relocated

    def write_new(self, page: PageId, node: Node) -> PageId:
        if self.in_unit:
            self.local.add(page)
        return self.base.write_new(page, node)

    def allocate(self) -> PageId:
        """Allocate a page, tracked as unit-local when a unit is active."""
        page = self.base.allocate()
        if self.in_unit:
            self.local.add(page)
        return page

    def free(self, page: PageId) -> None:
        """Free immediately if unit-local, else keep for the old tree."""
        self._require_unit("free")
        if page in self.local:
            self.local.remove(page)
            self.base.free(page)
        else:
            self.superseded.add(page)

    def write_root(self, page: PageId, node: Node) -> None:
        """Held back: the root is the unit's single switch point."""
        self._require_unit("write_root")
        self._pending_root = (page, node)


class UnitAllocator:
    """Buddy-manager proxy: the leaf-page half of a unit.

    Swapped in as the object's ``buddy`` for one unit.  Allocations pass
    straight through and are remembered as unit-local; a free is real
    only for the unit-local part of its range (the spare trims of
    :func:`~repro.core.segio.allocate_and_write`) — a mixed range is
    split into maximal sub-runs, ascending — while runs of old pages
    are recorded in :attr:`deferred` and stay allocated, because the old
    tree's leaves still live there.  What happens to them at commit is
    the caller's policy: this class leaves them in :attr:`dead`.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.local: set[PageId] = set()
        self.deferred: list[tuple[PageId, int]] = []
        #: The deferred runs of the last committed unit, still allocated.
        self.dead: list[tuple[PageId, int]] = []
        #: Running total of pages whose free was deferred (never reset).
        self.deferred_pages = 0

    @property
    def max_segment_pages(self) -> int:
        return self.base.max_segment_pages

    def allocate(self, n_pages: int, **kwargs):
        """Allocate a segment and remember its pages as unit-local."""
        ref = self.base.allocate(n_pages, **kwargs)
        self.local.update(range(ref.first_page, ref.end))
        return ref

    def allocate_up_to(self, n_pages: int, **kwargs):
        """Best-effort allocate; pages are remembered as unit-local."""
        ref = self.base.allocate_up_to(n_pages, **kwargs)
        self.local.update(range(ref.first_page, ref.end))
        return ref

    def free(self, first_page: PageId, n_pages: int) -> None:
        """Free the unit-local sub-runs of the range; defer the rest."""
        end = first_page + n_pages
        start = first_page
        while start < end:
            is_local = start in self.local
            stop = start + 1
            while stop < end and (stop in self.local) == is_local:
                stop += 1
            if is_local:
                self.local.difference_update(range(start, stop))
                self.base.free(start, stop - start)
            else:
                self._defer(start, stop - start)
            start = stop

    def _defer(self, first_page: PageId, n_pages: int) -> None:
        self.deferred.append((first_page, n_pages))
        self.deferred_pages += n_pages

    def _close(self) -> tuple[set[PageId], list[tuple[PageId, int]]]:
        closed = self.local, self.deferred
        self.local, self.deferred = set(), []
        return closed

    def commit_unit(self) -> None:
        """The root switched: the unit's allocations are the tree's now.
        The deferred runs stay allocated; they move to :attr:`dead`."""
        _, self.dead = self._close()

    def abort_unit(self) -> None:
        """Free every still-live unit-local allocation (failed unit);
        the old tree's pages were never freed."""
        local, _ = self._close()
        for first_page, n_pages in page_runs(local):
            self.base.free(first_page, n_pages)

    def crash_unit(self) -> None:
        """Leak the unit's allocations and deferred frees, as a crash would."""
        self._close()


def run_unit(
    pager: UnitPager,
    allocator: UnitAllocator,
    obj,
    fn: Callable[[Any], Any],
    lsn: int,
) -> tuple[Any, PageId | None]:
    """Run ``fn(obj)`` as one unit; the protocol, written once.

    ``obj`` is bound to the unit's pager and allocator for the duration
    and bound back whatever happens.  The commit is inside the guarded
    region: any failure up to the pager's switch point — in ``fn`` or in
    ``commit_unit`` itself, its barrier included — aborts both halves
    and leaves the old tree untouched.  Both run inside the allocator's
    ``deferring()`` block, so no allocation of the unit is written
    before the barrier.  Once the pager has left the unit
    (it switched and then died freeing what the new tree superseded, or
    ``fn`` crashed it on purpose) the unit's pages are not ours to free:
    they leak, as after a crash.  Returns ``(fn's result, the pager's
    commit result)``.
    """
    pager.begin_unit()
    tree = obj.tree
    saved = tree.pager, obj.buddy
    tree.pager, obj.buddy = pager, allocator
    try:
        with pager.base.buddy.deferring():
            result = fn(obj)
            committed = pager.commit_unit(lsn)
        allocator.commit_unit()
        return result, committed
    except BaseException:
        if pager.in_unit:
            try:
                pager.abort_unit()
            finally:
                allocator.abort_unit()
        else:
            allocator.crash_unit()
        raise
    finally:
        tree.pager, obj.buddy = saved
