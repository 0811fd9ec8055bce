"""Shadowing of index pages (paper Section 4.5).

"With shadowing, a page is never overwritten; instead, a write is
performed by allocating and writing a new page and leaving the old one
intact until it is no longer needed for recovery."  The paper's key
observation is a clean split: insert, delete and append "modify only the
internal nodes of the large object tree without overwriting existing
leaf pages.  Thus, during an insert, delete, or append, only the
modified index pages need to be shadowed."  Shadowing whole *segments*
would be ruinous — "if segments are large and updates are small,
shadowing will be slower than logging" — and the update algorithms were
deliberately designed so it is never required.

:class:`ShadowPager` is the copy-on-write unit of
:mod:`repro.core.unit` with the paper's commit policy: the root is the
single *in-place* write that atomically switches from the old tree to
the new one, it carries the operation's LSN, the unit's pages are
written just before it (the root's write-back writes the directory
first), and only after it are the superseded pages freed.  An
abort (or a crash before the root write) frees/leaks only *new* pages —
the old tree was never touched.
"""

from __future__ import annotations

from repro.core.unit import UnitPager
from repro.storage.page import PageId


class ShadowPager(UnitPager):
    """Copy-on-write index paging with a single in-place root switch."""

    kind = "shadow"

    def commit_unit(self, lsn: int) -> None:
        """Atomically switch to the new tree: one in-place root write."""
        self._require_unit("commit")
        with self.obs.tracer.span(
            "shadow.commit",
            lsn=lsn,
            relocated=len(self.local),
            freed=len(self.superseded),
        ):
            if self._pending_root is not None:
                page, node = self._pending_root
                node.lsn = lsn
                self.base.flush(self.local)
                self.base.write_root(page, node)
            # The switch happened: from here on nothing may abort it.
            superseded = self.superseded
            self._reset()
            # "...leaving the old one intact until it is no longer needed
            # for recovery" — which is now.
            for page in superseded:
                self.base.free(page)

    def crash_unit(self) -> set[PageId]:
        """Simulate a crash mid-operation: new pages leak (a real system
        reclaims them with a free-space scavenger at restart); the old
        tree is intact because the root was never written."""
        self._require_unit("crash")
        leaked = self.local
        self._reset()
        return leaked
