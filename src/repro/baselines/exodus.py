"""Exodus large objects [Care86], as characterized in Section 2.

Exodus "handles large objects of unlimited size by storing them on data
pages that are indexed by a B-tree-like structure, where the key is the
maximum byte position stored in a leaf data page."  It is the system the
EOS positional tree is "identical" to structurally; the difference is at
the leaves:

* Exodus leaves are **fixed-size blocks** — "clients can set the size of
  data pages of all large objects within a file to be some fixed number
  of disk blocks" — which may each be *partially full* anywhere in the
  object (B-tree style: between half and completely full after
  maintenance);
* EOS leaves are variable-size segments where only the last page of a
  segment may be partial.

That one difference is the paper's critique: "large pages waste too much
space at the end of partially full pages (but offer good search time),
and small pages offer good storage utilization (but require doing many
I/O's for reads)" — the trade-off experiment E6 sweeps.

Structure reuse: the index machinery is *shared with* the EOS
implementation (:class:`~repro.core.tree.LargeObjectTree`) because the
paper says the data structure is identical; only the leaf-level
algorithms differ, and they live here.  Leaf blocks are allocated whole
(contiguous within a block) but independently of each other, so
consecutive blocks are generally not adjacent — especially under the
SCATTERED placement policy.
"""

from __future__ import annotations

from repro.baselines.base import LargeObjectStore, Placement, PlacementAllocator, StoreStats
from repro.buddy.manager import BuddyManager
from repro.core.config import EOSConfig
from repro.core.node import Entry
from repro.core.pager import InPlacePager
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree, walk_index
from repro.errors import ByteRangeError
from repro.util.bitops import ceil_div


class ExodusStore(LargeObjectStore):
    """Fixed-leaf-block positional-tree large objects."""

    name = "Exodus"

    def __init__(
        self,
        buddy: BuddyManager,
        segio: SegmentIO,
        pager: InPlacePager,
        *,
        leaf_pages: int = 1,
        placement: Placement = Placement.SCATTERED,
    ) -> None:
        if leaf_pages < 1:
            raise ValueError(f"leaf block must be >= 1 page, got {leaf_pages}")
        self.buddy = buddy
        self.segio = segio
        self.pager = pager
        self.allocator = PlacementAllocator(buddy, placement)
        self.page_size = segio.page_size
        self.leaf_pages = leaf_pages
        self.capacity = leaf_pages * self.page_size  # bytes per leaf block
        self.config = EOSConfig(page_size=self.page_size)
        self.name = f"Exodus({leaf_pages}p)"

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------

    def create(self, data: bytes = b"", size_hint: int | None = None) -> LargeObjectTree:
        tree = LargeObjectTree.create(self.pager, self.config)
        if data:
            self.append(tree, data)
        return tree

    def size(self, tree: LargeObjectTree) -> int:
        return tree.size()

    def read(self, tree: LargeObjectTree, offset: int, length: int) -> bytes:
        size = tree.size()
        if length < 0 or offset < 0 or offset + length > size:
            raise ByteRangeError(offset, length, size)
        chunks = []
        for seg_offset, entry in tree.iter_segments(offset, offset + length):
            lo = max(offset, seg_offset) - seg_offset
            hi = min(offset + length, seg_offset + entry.count) - seg_offset
            chunks.append(self.segio.read_bytes(entry.child, lo, hi))
        return b"".join(chunks)

    def append(self, tree: LargeObjectTree, data: bytes) -> None:
        position = 0
        size = tree.size()
        if size:
            path, _ = tree.descend(size)
            entry = path[-1].node.entries[path[-1].index]
            room = self.capacity - entry.count
            if room > 0:
                take = min(room, len(data))
                # Complete the block in place: read-modify-write its tail
                # page, then whole-page writes for the rest.
                self._write_into_block(entry, entry.count, data[:take])
                tree.update_tail(take)
                position = take
        new_entries = []
        while position < len(data):
            take = min(self.capacity, len(data) - position)
            ref = self.allocator.allocate(self.leaf_pages)
            self.segio.write_segment(ref.first_page, data[position : position + take])
            new_entries.append(Entry(take, ref.first_page, self.leaf_pages))
            position += take
        if new_entries:
            tree.append_leaf_entries(new_entries)

    def replace(self, tree: LargeObjectTree, offset: int, data: bytes) -> None:
        size = tree.size()
        if offset < 0 or offset + len(data) > size:
            raise ByteRangeError(offset, len(data), size)
        for seg_offset, entry in tree.iter_segments(offset, offset + len(data)):
            lo = max(offset, seg_offset) - seg_offset
            hi = min(offset + len(data), seg_offset + entry.count) - seg_offset
            self._write_into_block(entry, lo, data[seg_offset + lo - offset : seg_offset + hi - offset])

    def insert(self, tree: LargeObjectTree, offset: int, data: bytes) -> None:
        size = tree.size()
        if offset < 0 or offset > size:
            raise ByteRangeError(offset, len(data), size)
        if not data:
            return
        if size == 0 or offset == size:
            self.append(tree, data)
            return
        path, local = tree.descend(offset)
        step = path[-1]
        entry = step.node.entries[step.index]
        block_lo = offset - local
        if entry.count + len(data) <= self.capacity:
            # Fits: shift the block's tail right in place.
            content = self.segio.read_bytes(entry.child, 0, entry.count)
            updated = content[:local] + data + content[local:]
            self.segio.write_segment(entry.child, updated)
            tree.replace_leaf_range(
                block_lo,
                block_lo + entry.count,
                [Entry(len(updated), entry.child, entry.pages)],
            )
            return
        # Overflow: split the block's bytes across as few blocks as
        # possible, reusing the original block for the first part.
        content = self.segio.read_bytes(entry.child, 0, entry.count)
        combined = content[:local] + data + content[local:]
        parts = self._split_bytes(combined)
        new_entries = []
        for i, part in enumerate(parts):
            if i == 0:
                self.segio.write_segment(entry.child, part)
                new_entries.append(Entry(len(part), entry.child, entry.pages))
            else:
                ref = self.allocator.allocate(self.leaf_pages)
                self.segio.write_segment(ref.first_page, part)
                new_entries.append(Entry(len(part), ref.first_page, self.leaf_pages))
        tree.replace_leaf_range(block_lo, block_lo + entry.count, new_entries)

    def delete(self, tree: LargeObjectTree, offset: int, length: int) -> None:
        size = tree.size()
        if length < 0 or offset < 0 or offset + length > size:
            raise ByteRangeError(offset, length, size)
        if length == 0:
            return
        lo, hi = offset, offset + length
        # Collect the boundary blocks' surviving bytes (reading them),
        # then replace the whole covered block range in one edit.
        touched: list[tuple[int, Entry]] = list(tree.iter_segments(lo, hi))
        first_offset, first_entry = touched[0]
        last_offset, last_entry = touched[-1]
        head = b""
        if first_offset < lo:
            head = self.segio.read_bytes(first_entry.child, 0, lo - first_offset)
        tail = b""
        last_end = last_offset + last_entry.count
        if last_end > hi:
            tail = self.segio.read_bytes(
                last_entry.child, hi - last_offset, last_entry.count
            )
        survivors = head + tail
        new_entries = []
        if survivors:
            parts = self._split_bytes(survivors)
            for i, part in enumerate(parts):
                if i == 0:
                    self.segio.write_segment(first_entry.child, part)
                    new_entries.append(Entry(len(part), first_entry.child, first_entry.pages))
                else:
                    ref = self.allocator.allocate(self.leaf_pages)
                    self.segio.write_segment(ref.first_page, part)
                    new_entries.append(Entry(len(part), ref.first_page, self.leaf_pages))
        dropped = tree.replace_leaf_range(first_offset, last_end, new_entries)
        reused = {e.child for e in new_entries}
        for e in dropped:
            if e.child not in reused:
                self.allocator.free(e.child, e.pages)
        if new_entries:
            self._maybe_merge(tree, first_offset)

    def delete_object(self, tree: LargeObjectTree) -> None:
        size = tree.size()
        if size:
            dropped = tree.replace_leaf_range(0, size, [])
            for e in dropped:
                self.allocator.free(e.child, e.pages)
        self.pager.free(tree.root_page)

    def stats(self, tree: LargeObjectTree) -> StoreStats:
        data_pages = meta_pages = 0
        for _, node in walk_index(tree.root_page, tree.read_root(), self.pager.read):
            meta_pages += 1
            if node.level == 0:
                data_pages += sum(node.pages)
        return StoreStats(
            size_bytes=tree.size(), data_pages=data_pages, meta_pages=meta_pages
        )

    # ------------------------------------------------------------------
    # Leaf-block helpers
    # ------------------------------------------------------------------

    def _write_into_block(self, entry: Entry, local: int, data: bytes) -> None:
        """Read-modify-write the affected page span of one leaf block."""
        if not data:
            return
        ps = self.page_size
        page_lo = local // ps
        page_hi = (local + len(data) - 1) // ps
        span, base = self.segio.read_span(entry.child, page_lo, page_hi)
        patched = bytearray(span)
        patched[local - base : local - base + len(data)] = data
        self.segio.write_segment(entry.child, bytes(patched), at_page=page_lo)

    def _split_bytes(self, data: bytes) -> list[bytes]:
        """Split bytes across blocks, each at least half full (B-tree style)."""
        n_parts = ceil_div(len(data), self.capacity)
        base = len(data) // n_parts
        extra = len(data) % n_parts
        parts = []
        position = 0
        for i in range(n_parts):
            take = base + (1 if i < extra else 0)
            parts.append(data[position : position + take])
            position += take
        return parts

    def _maybe_merge(self, tree: LargeObjectTree, around: int) -> None:
        """Merge an underfull boundary block with its right neighbour.

        Exodus keeps leaves at least half full; after a delete the
        boundary block may have shrunk below that.
        """
        size = tree.size()
        if size == 0:
            return
        path, local = tree.descend(min(around, size - 1))
        step = path[-1]
        entry = step.node.entries[step.index]
        if entry.count * 2 >= self.capacity:
            return
        block_lo = min(around, size - 1) - local
        _neighbours = list(
            tree.iter_segments(block_lo, min(size, block_lo + entry.count + 1))
        )
        # Find a right neighbour to merge with.
        right = None
        for seg_offset, seg_entry in tree.iter_segments(
            block_lo + entry.count, min(size, block_lo + entry.count + 1)
        ):
            right = (seg_offset, seg_entry)
            break
        if right is None:
            return
        r_offset, r_entry = right
        combined_bytes = entry.count + r_entry.count
        mine = self.segio.read_bytes(entry.child, 0, entry.count)
        theirs = self.segio.read_bytes(r_entry.child, 0, r_entry.count)
        combined = mine + theirs
        if combined_bytes <= self.capacity:
            self.segio.write_segment(entry.child, combined)
            tree.replace_leaf_range(
                block_lo,
                r_offset + r_entry.count,
                [Entry(combined_bytes, entry.child, entry.pages)],
            )
            self.allocator.free(r_entry.child, r_entry.pages)
        else:
            # Rotate: even the bytes out between the two blocks.
            split = combined_bytes // 2
            self.segio.write_segment(entry.child, combined[:split])
            self.segio.write_segment(r_entry.child, combined[split:])
            tree.replace_leaf_range(
                block_lo,
                r_offset + r_entry.count,
                [
                    Entry(split, entry.child, entry.pages),
                    Entry(combined_bytes - split, r_entry.child, r_entry.pages),
                ],
            )
