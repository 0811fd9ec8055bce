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


class InPlacePager(NodePager):
    """Read/write index nodes through the buffer pool, in place."""

    def __init__(self, pool: BufferPool, buddy: BuddyManager, page_size: int):
        self.pool = pool
        self.buddy = buddy
        self.page_size = page_size

    def read(self, page: PageId) -> Node:
        """The node on ``page``: decoded once per residency by the pool,
        handed out as a private :class:`Node` over the shared columns."""
        try:
            return self.pool.decoded(page, Node.from_page).copy()
        except TreeCorrupt as exc:
            raise TreeCorrupt(f"page {page} failed to decode: {exc}") from exc

    def write(self, page: PageId, node: Node) -> PageId:
        with self.pool.page(page, dirty=True) as image:
            image[:] = node.to_page(self.page_size)
        return page

    def write_new(self, page: PageId, node: Node) -> PageId:
        """Install a node on a freshly allocated page (no disk read)."""
        self.pool.put_new(page, node.to_page(self.page_size))
        return page

    def allocate(self) -> PageId:
        """One page from the buddy system."""
        return self.buddy.allocate(1).first_page

    def free(self, page: PageId) -> None:
        # A freed node's image is dead: discard without write-back.
        """Drop the buffered frame and free the page."""
        self.pool.drop(page)
        self.buddy.free(page, 1)

    def write_root(self, page: PageId, node: Node) -> None:
        self.write(page, node)

    def flush(self) -> None:
        """Write back every dirty buffered page."""
        self.pool.flush_all()
