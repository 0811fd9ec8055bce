"""Paging machinery for copy-on-write versioning.

* :class:`VersionPager` — the copy-on-write unit of
  :mod:`repro.core.unit` with the versioning commit policy: the commit
  does **not** overwrite the old root in place.  It allocates a
  brand-new page for the edited root, flushes every index page the
  unit wrote, and returns the new root's page id; the old tree — root
  included — stays byte-identical on disk.  Superseded pages are
  *left allocated*, because older versions still reach them (the
  reclaimer frees them when their last version expires).  The
  data-page half is a plain :class:`~repro.core.unit.UnitAllocator`,
  whose deferred frees are dropped for the same reason.
* :class:`DiskNodePager` — a read-only pager that decodes index nodes
  straight from the disk volume, bypassing the buffer pool.  Snapshot
  readers use it from arbitrary threads: published version pages are
  flushed and never rewritten, so no coordination with the (single-
  threaded) pool is needed.
"""

from __future__ import annotations

from repro.core.node import Node
from repro.core.pager import NodePager
from repro.core.unit import UnitPager
from repro.errors import RecoveryError
from repro.storage.page import PageId


class VersionPager(UnitPager):
    """Copy-on-write index paging that commits to a *new* root page."""

    kind = "versions"

    def commit_unit(self, lsn: int) -> PageId | None:
        """Publish the new tree under a freshly allocated root page.

        Returns the new root's page id, or None when the operation was
        a no-op (nothing was written — e.g. an empty append), in which
        case no new version exists.  Every index page the unit wrote,
        the new root included, is flushed through the buffer pool so
        lock-free disk-direct readers see the full tree.
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
            _, node = self._pending_root
            node.lsn = lsn
            new_root = self.base.allocate()
            # Unit-local before it is written, so an abort frees it.
            self.local.add(new_root)
            self.base.write_new(new_root, node)
            # Disk-direct snapshot readers bypass the pool: make every
            # page of the new version durable before it is published.
            for page in self.local:
                self.base.pool.flush_page(page)
        # An old version still reaches the superseded pages; the
        # reclaimer frees them when that version expires.
        self.obs.metrics.counter("versions.deferred_frees").inc(
            len(self.superseded)
        )
        self._reset()
        return new_root


class DiskNodePager(NodePager):
    """Read-only node access straight from the disk volume.

    Snapshot readers use this pager concurrently from many threads; the
    pages of a published version are flushed at commit and never
    rewritten while the version lives, so plain reads need no latching.
    Any write is a bug in the snapshot read path and raises.
    """

    def __init__(self, disk, page_size: int) -> None:
        self.disk = disk
        self.page_size = page_size

    def read(self, page: PageId) -> Node:
        return Node.from_page(self.disk.read_page(page))

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
