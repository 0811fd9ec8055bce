"""The large object handle: the public face of Section 4.

A :class:`LargeObject` bundles the positional tree, the buddy allocator,
and the leaf-segment I/O into the operation set the paper specifies:
append (with optional size hint), read, replace, insert, delete,
truncate, plus trim and introspection (size, segment map, utilization,
I/O-free structural verification).

Recovery integration (Section 4.5) is by composition: an attached
:class:`~repro.recovery.recovery.RecoveryManager` supplies the page log
used by replace/append and wraps structural updates in shadowed
transactions; without one, the object behaves like the EOS prototype
("a single process, with no support for transactions").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buddy.manager import BuddyManager
from repro.core.append import append as _append
from repro.core.append import trim as _trim
from repro.core.config import EOSConfig
from repro.core.delete import delete_range as _delete
from repro.core.delete import truncate as _truncate
from repro.core.insert import insert as _insert
from repro.core.node import Entry
from repro.core.search import read_range as _read
from repro.core.search import read_range_into as _read_into
from repro.core.search import replace_range as _replace
from repro.core.segio import SegmentIO
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import LargeObjectTree, walk_index
from repro.obs.tracer import NULL_OBS, Observability
from repro.storage.page import PageId


@dataclass(frozen=True)
class ObjectStats:
    """Space accounting for one large object."""

    size_bytes: int
    segments: int
    leaf_pages: int
    index_pages: int  # includes the root page
    height: int

    @property
    def total_pages(self) -> int:
        return self.leaf_pages + self.index_pages

    def utilization(self, page_size: int) -> float:
        """Live bytes over all allocated bytes (leaves + index)."""
        if self.total_pages == 0:
            return 0.0
        return self.size_bytes / (self.total_pages * page_size)

    def leaf_utilization(self, page_size: int) -> float:
        """Live bytes over leaf bytes only — the paper's 1 - 1/2T metric."""
        if self.leaf_pages == 0:
            return 0.0
        return self.size_bytes / (self.leaf_pages * page_size)


def tree_stats(tree: LargeObjectTree) -> ObjectStats:
    """Space accounting of one tree (reads the whole index, no leaf I/O)."""
    root = tree.read_root()
    leaf_pages = segments = index_pages = 0
    for _, node in walk_index(tree.root_page, root, tree.pager.read):
        index_pages += 1
        if node.level == 0:
            segments += node.n_entries
            leaf_pages += sum(node.pages)
    return ObjectStats(
        size_bytes=root.total_bytes,
        segments=segments,
        leaf_pages=leaf_pages,
        index_pages=index_pages,
        height=root.level + 1,
    )


class LargeObject:
    """One large dynamic object, addressed by byte position."""

    def __init__(
        self,
        tree: LargeObjectTree,
        segio: SegmentIO,
        buddy: BuddyManager,
        *,
        size_hint: int | None = None,
        page_log=None,
        obs: Observability | None = None,
    ) -> None:
        self.tree = tree
        self.segio = segio
        self.buddy = buddy
        self.size_hint = size_hint
        self.page_log = page_log
        self.obs = obs if obs is not None else NULL_OBS
        self.policy = ThresholdPolicy(
            tree.config.threshold, tree.config.adaptive_threshold
        )

    def _span(self, op: str, **attrs):
        """An ``op.<name>`` span tagged with this object's identity."""
        return self.obs.tracer.span(
            f"op.{op}", oid=getattr(self, "oid", None), **attrs
        )

    # -- identity -----------------------------------------------------------

    @property
    def root_page(self) -> PageId:
        """Where the root lives; "the placement of the root ... is left
        to the client"."""
        return self.tree.root_page

    @property
    def config(self) -> EOSConfig:
        return self.tree.config

    # -- reads ----------------------------------------------------------------

    def size(self) -> int:
        """Object size in bytes (the root's rightmost count)."""
        return self.tree.size()

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (Section 4.2)."""
        with self._span("read", offset=offset, bytes=length):
            return _read(self.tree, self.segio, offset, length)

    def read_into(self, offset: int, length: int, dest) -> int:
        """Read ``length`` bytes at ``offset`` into a writable buffer.

        The zero-copy variant of :meth:`read`: coalesced page views land
        directly in ``dest`` with no intermediate buffer.  Returns the
        byte count written.
        """
        with self._span("read", offset=offset, bytes=length):
            return _read_into(self.tree, self.segio, offset, length, dest)

    def read_all(self) -> bytes:
        """Read the whole object."""
        return self.read(0, self.size())

    # -- updates ----------------------------------------------------------------

    def append(self, data) -> None:
        """Append bytes at the end (Section 4.1).

        Carries the creation-time size hint while the object is still
        below it, so known-size objects land in exactly-sized segments.
        """
        hint = self.size_hint
        if hint is not None and self.size() >= hint:
            hint = None
        with self._span("append", bytes=len(data)):
            _append(
                self.tree, self.segio, self.buddy, data,
                size_hint=hint, log=self.page_log,
            )

    def replace(self, offset: int, data) -> None:
        """Overwrite bytes in place; size is unchanged (Section 4.2)."""
        with self._span("replace", offset=offset, bytes=len(data)):
            _replace(self.tree, self.segio, offset, data, log=self.page_log)

    # Insert, delete and truncate trim the tail to 0 first, so they
    # leave no spare page; an append leaves the tail's spare pages to
    # its caller (``op_append`` trims to T - 1, a multi-append session
    # calls ``trim``).  The size read here is the one the trim would
    # otherwise make.

    def insert(self, offset: int, data: bytes) -> None:
        """Insert bytes at ``offset`` (Section 4.3.1); at the very end,
        an append that fills the tail segment."""
        with self._span("insert", offset=offset, bytes=len(data)):
            size = self.tree.size()
            if offset == size:
                _append(self.tree, self.segio, self.buddy, data, log=self.page_log)
                return
            if data and 0 <= offset < size:
                _trim(self.tree, self.buddy, size)
            _insert(
                self.tree, self.segio, self.buddy, offset, data,
                policy=self.policy,
            )

    def delete(self, offset: int, length: int) -> None:
        """Delete a byte range (Section 4.3.2)."""
        with self._span("delete", offset=offset, bytes=length):
            size = self.tree.size()
            if 0 < length and 0 <= offset <= size - length:
                _trim(self.tree, self.buddy, size)
            _delete(
                self.tree, self.segio, self.buddy, offset, length,
                policy=self.policy,
            )

    def truncate(self, new_size: int) -> None:
        """Delete from ``new_size`` to the end."""
        with self._span("truncate", new_size=new_size):
            size = self.tree.size()
            if 0 <= new_size < size:
                _trim(self.tree, self.buddy, size)
            _truncate(
                self.tree, self.segio, self.buddy, new_size, policy=self.policy
            )

    def trim(self) -> int:
        """Return the tail segment's spare pages to free space (4.1)."""
        with self._span("trim"):
            return _trim(self.tree, self.buddy)

    def compact(self) -> int:
        """Rewrite the object into freshly allocated exact-size segments.

        The threshold mechanism (Section 4.4) *preserves* clustering
        incrementally; compaction *restores* it wholesale after an
        edit-heavy period — the object ends up as if created with a size
        hint: maximum-size segments plus one trimmed remainder, with
        sub-page waste.  Costs a full read and a full write.  Returns the
        number of segments the object has afterwards.
        """
        size = self.size()
        if size == 0:
            return 0
        with self._span("compact", bytes=size):
            data = self.read_all()
            # Write the replacement first, then swap and free the old pages —
            # the same never-overwrite discipline as insert/delete.
            from repro.core.segio import allocate_and_write

            new_segments = allocate_and_write(self.segio, self.buddy, data)
            new_entries = [
                Entry(count, ref.first_page, ref.n_pages)
                for ref, count in new_segments
            ]
            dropped = self.tree.replace_leaf_range(0, size, new_entries)
            for entry in dropped:
                self.buddy.free(entry.child, entry.pages)
            return len(new_entries)

    def set_threshold(self, threshold: int, *, adaptive: bool | None = None) -> None:
        """Change T for subsequent updates.

        "The threshold value does not have to be constant during the
        lifetime of a large object" — applications may adjust it every
        time the object is opened for updates.
        """
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1 page, got {threshold}")
        if adaptive is None:
            adaptive = self.policy.adaptive
        self.policy = ThresholdPolicy(threshold, adaptive)

    def destroy(self) -> None:
        """Delete all content and free the root page."""
        size = self.size()
        if size:
            self.delete(0, size)
        self.tree.pager.free(self.tree.root_page)

    # -- introspection ------------------------------------------------------

    def segments(self) -> list[tuple[int, Entry]]:
        """(global_offset, entry) for every leaf segment, left to right."""
        return self.tree.leaf_entries()

    def extent_runs(self) -> list[tuple[int, int]]:
        """Physically contiguous ``(first_page, n_pages)`` runs of the leaves.

        Adjacent leaf segments whose page runs abut on disk are merged:
        the result is the sequence of disk runs a full sequential scan
        visits (index pages excluded), the basis of the layout metrics
        in :mod:`repro.obs.health`.
        """
        runs: list[tuple[int, int]] = []
        for _, entry in self.tree.leaf_entries():
            if runs and runs[-1][0] + runs[-1][1] == entry.child:
                first, pages = runs[-1]
                runs[-1] = (first, pages + entry.pages)
            else:
                runs.append((entry.child, entry.pages))
        return runs

    def stats(self) -> ObjectStats:
        """Space accounting (reads the whole index, no leaf I/O)."""
        return tree_stats(self.tree)

    def mean_segment_pages(self) -> float:
        """Average leaf-segment size in pages (clustering metric, E3)."""
        stats = self.stats()
        return stats.leaf_pages / stats.segments if stats.segments else 0.0

    def verify(self) -> None:
        """Check all structural invariants (:meth:`LargeObjectTree.verify`)."""
        self.tree.verify()
