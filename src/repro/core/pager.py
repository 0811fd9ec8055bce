"""Index-page storage policies: in-place writes vs shadowing.

Section 4.5 splits the four update operations by recovery technique:
*replace* overwrites leaf pages (logged), while *insert*, *delete* and
*append* "modify only the internal nodes of the large object tree
without overwriting existing leaf pages.  Thus, during an insert,
delete, or append, only the modified index pages need to be shadowed."

:class:`NodePager` is the interface the tree uses for index pages.
:class:`InPlacePager` is the prototype's behaviour (EOS "runs on a
single process, with no support for transactions").
:class:`~repro.core.unit.UnitPager` relocates every written node,
leaving the old images intact until commit; its two commit policies are
:class:`~repro.recovery.shadow.ShadowPager` (the root page is the single
in-place switch point) and :class:`~repro.versions.pager.VersionPager`
(a new root page per version).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from typing import ContextManager

from repro.buddy.manager import BuddyManager
from repro.core.node import Node
from repro.errors import TreeCorrupt
from repro.storage.buffer import BufferPool
from repro.storage.page import PageId


class NodePager:
    """Interface for reading/writing index nodes of one tree."""

    def read(self, page: PageId) -> Node:
        """Load and decode the index node at ``page``."""
        raise NotImplementedError

    def write(self, page: PageId, node: Node) -> PageId:
        """Persist ``node``; returns the page it now lives on.

        An in-place pager returns ``page``; a shadowing pager may return
        a different page, and the caller must update the parent pointer.
        """
        raise NotImplementedError

    def write_new(self, page: PageId, node: Node) -> PageId:
        """Install a node on a freshly allocated page (its disk content is
        garbage, so no read is charged)."""
        raise NotImplementedError

    def allocate(self) -> PageId:
        """Allocate a fresh single page for an index node."""
        raise NotImplementedError

    def free(self, page: PageId) -> None:
        """Return an index page to the allocator."""
        raise NotImplementedError

    def write_root(self, page: PageId, node: Node) -> None:
        """Roots are always updated in place (the atomic switch point)."""
        raise NotImplementedError

    def atomic(self) -> ContextManager[None]:
        """One structural edit that either lands whole or not at all.

        A unit pager's edits already do (nothing the old tree reaches is
        overwritten before the switch point), so this is a no-op here.
        """
        return nullcontext()


class InPlacePager(NodePager):
    """Read/write index nodes through the buffer pool, in place."""

    def __init__(self, pool: BufferPool, buddy: BuddyManager, page_size: int):
        self.pool = pool
        self.buddy = buddy
        self.page_size = page_size
        self._journal: _Journal | None = None

    def read(self, page: PageId) -> Node:
        """The node on ``page``: decoded once per residency by the pool,
        handed out as a private :class:`Node` over the shared columns."""
        try:
            return self.pool.decoded(page, Node.from_page).copy()
        except TreeCorrupt as exc:
            raise TreeCorrupt(f"page {page} failed to decode: {exc}") from exc

    def write(self, page: PageId, node: Node) -> PageId:
        journal = self._journal
        with self.pool.page(page, dirty=True) as image:
            if journal is not None and page not in journal.allocated:
                journal.before.setdefault(page, bytes(image))
            image[:] = node.to_page(self.page_size)
        return page

    def write_new(self, page: PageId, node: Node) -> PageId:
        """Install a node on a freshly allocated page (no disk read)."""
        self.pool.put_new(page, node.to_page(self.page_size))
        return page

    def allocate(self) -> PageId:
        """One page from the buddy system."""
        page = self.buddy.allocate(1).first_page
        if self._journal is not None:
            self._journal.allocated.append(page)
        return page

    def free(self, page: PageId) -> None:
        """Drop the buffered frame and free the page (at the end of an
        :meth:`atomic` edit, which may still need it back)."""
        if self._journal is not None:
            self._journal.freed.append(page)
            return
        # A freed node's image is dead: discard without write-back.
        self.pool.drop(page)
        self.buddy.free(page, 1)

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """An in-place edit that a failure rolls back: the split pages
        it allocated are freed, each page it overwrote gets its old image
        back, and the pages it freed stay where they were; on success
        those frees happen at the end.  Nested edits join the outer one.
        """
        if self._journal is not None:
            yield
            return
        journal = self._journal = _Journal()
        try:
            yield
        except BaseException:
            self._journal = None
            for page, image in journal.before.items():
                self.pool.put_new(page, image)
            for page in journal.allocated:
                self.free(page)
            raise
        self._journal = None
        for page in journal.freed:
            self.free(page)

    def write_root(self, page: PageId, node: Node) -> None:
        self.write(page, node)

    def flush(self, pages: Iterable[PageId] | None = None) -> None:
        """Write ``pages``, or with none the checkpoint (INTERNALS,
        "Write order").

        A unit's ``pages`` are fresh: nothing on disk names them until
        the pool writes back the page that does, or page 0 names a
        catalog that does, and both write the directory first.  With no
        ``pages`` every dirty frame is written (the pool writes the
        held-back directory first), then the whole directory, frees
        included.
        """
        if pages is None:
            self.pool.flush_all()
            self.buddy.write_dirty()
            return
        for page in pages:
            self.pool.flush_page(page)


class _Journal:
    """What one :meth:`InPlacePager.atomic` edit did so far."""

    __slots__ = ("before", "allocated", "freed")

    def __init__(self) -> None:
        #: The image each overwritten page had before its first write.
        self.before: dict[PageId, bytes] = {}
        self.allocated: list[PageId] = []
        self.freed: list[PageId] = []
