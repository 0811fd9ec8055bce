"""Paging machinery for copy-on-write versioning.

* :class:`VersionPager` — the copy-on-write unit of
  :mod:`repro.core.unit` with the versioning commit policy: the commit
  does **not** overwrite the old root in place.  It allocates a
  brand-new page for the edited root, passes every index page the unit
  wrote through the write-order barrier, and returns the new root's page
  id; the old tree — root included — stays byte-identical on disk.
  Superseded pages are *left allocated*, because older versions still
  reach them; together with the old root they are left in
  :attr:`VersionPager.dead`, which the version manager joins with the
  plain :class:`~repro.core.unit.UnitAllocator`'s deferred leaf runs
  into the old version's dead list (freed when that version expires).
* :class:`DiskNodePager` — the read-only pager of snapshot readers: an
  exact cache of decoded index nodes keyed by page, filled from the
  disk volume on a miss.  Readers use it from arbitrary
  threads with no coordination with the (single-threaded) buffer pool:
  published version pages are flushed at commit and never rewritten
  while a version reaches them, so each one is decoded once.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.node import Node
from repro.core.pager import NodePager
from repro.core.unit import UnitPager
from repro.errors import InvariantViolation, RecoveryError
from repro.obs.tracer import NULL_OBS
from repro.storage.page import PageId


class VersionPager(UnitPager):
    """Copy-on-write index paging that commits to a *new* root page."""

    kind = "versions"

    #: Every index page of the version the last commit published — the
    #: pages the unit wrote, new root included, all flushed.
    published: frozenset[PageId] = frozenset()
    #: The old version's index pages it left behind, old root included.
    dead: frozenset[PageId] = frozenset()

    def commit_unit(self, lsn: int) -> PageId | None:
        """Publish the new tree under a freshly allocated root page.

        Returns the new root's page id, or None when the operation was
        a no-op (nothing was written — e.g. an empty append), in which
        case no new version exists.  Every index page the unit wrote,
        new root included, goes through the write-order barrier
        (:meth:`~repro.core.pager.InPlacePager.flush`), so lock-free
        snapshot readers, which never use the pool, find the whole tree
        on disk; the set is left in :attr:`published`.
        """
        self._require_unit("commit")
        if self._pending_root is None:
            if self.local:
                raise RecoveryError(
                    "version unit wrote index pages but never the root"
                )
            self._reset()
            return None
        with self.obs.tracer.span(
            "versions.commit",
            lsn=lsn,
            relocated=len(self.local),
            superseded=len(self.superseded),
        ):
            old_root, node = self._pending_root
            node.lsn = lsn
            new_root = self.base.allocate()
            # Unit-local before it is written, so an abort frees it.
            self.local.add(new_root)
            self.base.write_new(new_root, node)
            self.base.flush(self.local)
        # An old version still reaches the superseded pages; they join
        # its dead list and are freed when that version expires.
        self.obs.metrics.counter("versions.deferred_frees").inc(
            len(self.superseded)
        )
        self.published = frozenset(self.local)
        self.dead = frozenset(self.superseded | {old_root})
        self._reset()
        return new_root


class DiskNodePager(NodePager):
    """Read-only node access for snapshot trees, through one exact cache.

    A plain ``dict`` maps page ids to decoded nodes.  :meth:`read` serves
    a hit as ``node.copy()`` — as
    :meth:`~repro.core.pager.InPlacePager.read` does — so no caller can
    turn the shared node into its editing form; a miss reads the page
    from the disk volume, decodes it and keeps it.  Dict operations are
    atomic under the GIL, so readers on many threads need no latch; two
    racing on one miss insert equal nodes.  Any write is a bug in the
    snapshot read path and raises.

    There is no capacity and no eviction, because two rules make every
    entry an allocated index page of a live version, equal to the disk:

    * **Entry.**  A page is read — and so enters — only by a reader that
      holds a pin on a version reaching it, or by code running under the
      database's ``op_lock`` (``drop_object``, the health collector's
      ``sharing_stats``; not the reclaimer, which reads nothing).
      Separately, after a unit committed and flushed, the version
      manager :meth:`seed`\\ s the pages it published with the immutable
      decoded form on the writer's pool frame — never the unit's editing
      node, never a disk read (a non-resident frame is not seeded).
    * **Exit.**  The version manager :meth:`forget`\\ s pages before
      their runs go back to the allocator — in ``_free_runs``, the only
      place a versioned page is ever freed — and :meth:`clear`\\ s the
      cache when the chain table is replaced.

    Entries are thus bounded by the index pages of live versions: the
    set fsck's version ledger walks.  Under the pin sanitizer
    (:attr:`checked`) every hit is compared with a fresh decode of the
    page (an unaccounted ``disk.peek``), and a mismatch raises
    :class:`~repro.errors.InvariantViolation` naming the page.
    """

    def __init__(self, disk, page_size: int) -> None:
        self.disk = disk
        self.page_size = page_size
        self._nodes: dict[PageId, Node] = {}
        #: The owner's bundle, for the ``versions.node_*`` instruments.
        self.obs = NULL_OBS
        #: Compare every hit with the disk (set when pins are sanitized).
        self.checked = False

    def read(self, page: PageId) -> Node:
        node = self._nodes.get(page)
        if node is None:
            node = Node.from_page(self.disk.read_page(page))
            self._nodes[page] = node
            metrics = self.obs.metrics
            metrics.counter("versions.node_misses").inc()
            metrics.gauge("versions.node_cache").set(len(self._nodes))
        elif self.checked and Node.from_page(self.disk.peek(page)) != node:
            raise InvariantViolation(
                f"page {page}: the snapshot node cache no longer matches the "
                f"disk (a published page was rewritten, or freed without "
                f"being forgotten)"
            )
        return node.copy()

    def seed(self, page: PageId, node: Node) -> None:
        """Admit a just-published page's immutable decoded form."""
        self._nodes[page] = node
        self.obs.metrics.gauge("versions.node_cache").set(len(self._nodes))

    def forget(self, pages: Iterable[PageId]) -> None:
        """Drop pages about to be freed (absent ones are ignored)."""
        nodes = self._nodes
        for page in pages:
            nodes.pop(page, None)
        self.obs.metrics.gauge("versions.node_cache").set(len(nodes))

    def clear(self) -> None:
        """Drop every entry."""
        self._nodes.clear()
        self.obs.metrics.gauge("versions.node_cache").set(0)

    def cached(self) -> dict[PageId, Node]:
        """A copy of the cache (for fsck and tests)."""
        return dict(self._nodes)

    def write(self, page: PageId, node: Node) -> PageId:
        raise RecoveryError("snapshot trees are immutable (write)")

    def write_new(self, page: PageId, node: Node) -> PageId:
        raise RecoveryError("snapshot trees are immutable (write_new)")

    def allocate(self) -> PageId:
        raise RecoveryError("snapshot trees are immutable (allocate)")

    def free(self, page: PageId) -> None:
        raise RecoveryError("snapshot trees are immutable (free)")

    def write_root(self, page: PageId, node: Node) -> None:
        raise RecoveryError("snapshot trees are immutable (write_root)")
