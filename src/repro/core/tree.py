"""The positional tree: structure maintenance for one large object.

This module owns the B-tree mechanics that Sections 4.1-4.4 rely on:

* descending by byte position (the paper's Section 4.2 traversal);
* replacing a run of leaf entries with new ones — the single structural
  primitive behind insert ("fix parent so that it includes a pair for
  each of the segments L, N, and R"), delete (dropping covered subtrees,
  splicing in the survivors) and append;
* node splits on overflow, and the paper's delete-side maintenance:
  "check if a node in one of the two stacks has now less than the
  allowed number of pairs and if so, merge or rotate with a sibling";
* the root rules: the client-visible root page never moves (only an
  unversioned compaction relocation carries it, :meth:`move_root`), a
  root with a single index-node child collapses ("copy the pairs of
  this child to the root and repeat this step"), and an optional byte
  limit on the root (footnote 3) caps its fan-out.

Writes go through a :class:`~repro.core.pager.NodePager`, and children
are always written before their parents.  This ordering is what lets a
shadowing pager (Section 4.5) relocate every modified index page and
commit the whole update with one in-place root write.

Deleting a subtree never touches a leaf page: "the address and size of
each segment are stored in the corresponding parent index nodes, and
they can be given directly to the buddy system."  The structural
primitive therefore *returns* the dropped leaf entries and lets the
operation executor free exactly the right page ranges (boundary
segments are partially kept).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator

from repro.core.config import EOSConfig
from repro.core.node import ENTRY_SIZE, HEADER_SIZE, Entry, Node, fanout, min_entries
from repro.core.pager import NodePager
from repro.errors import ByteRangeError, TreeCorrupt
from repro.obs.tracer import NULL_OBS, Observability
from repro.storage.page import PageId
from repro.util.bitops import ceil_div


def walk_index(
    page: PageId, node: Node, read: Callable[[PageId], Node]
) -> Iterator[tuple[PageId, Node]]:
    """Yield ``(page, node)`` for ``node`` and then each of its subtrees,
    depth-first and left to right: the whole index in the order Section
    4.2's stack traversal visits it.

    Each child is read through ``read`` only when its turn comes, so the
    caller's reader (the buffer pool, the snapshot cache, ``disk.peek``)
    sees every index page once, in this order, and a caller that stops
    early reads no further.  Leaf segments are never read: they are the
    ``(child, pages)`` runs of the level-0 nodes yielded.
    """
    yield page, node
    if node.level:
        for child in node.child:
            yield from walk_index(child, read(child), read)


class PathStep:
    """One step of a root-to-leaf descent: a node and the child taken."""

    __slots__ = ("page", "node", "index")

    def __init__(self, page: PageId, node: Node, index: int) -> None:
        self.page = page
        self.node = node
        self.index = index


class LargeObjectTree:
    """Structure and bookkeeping of one large object's positional tree."""

    def __init__(
        self,
        pager: NodePager,
        config: EOSConfig,
        root_page: PageId,
        *,
        obs: Observability | None = None,
    ):
        self.pager = pager
        self.config = config
        self.root_page = root_page
        self.obs = obs if obs is not None else NULL_OBS
        self.fanout = fanout(config.page_size)
        self.min_entries = min_entries(config.page_size)
        if config.max_root_bytes is not None:
            limit = (config.max_root_bytes - HEADER_SIZE) // ENTRY_SIZE
            if limit < 2:
                raise ValueError(
                    f"max_root_bytes={config.max_root_bytes} leaves room for "
                    f"{limit} root entries; need at least 2"
                )
            self.root_fanout = min(self.fanout, limit)
        else:
            self.root_fanout = self.fanout

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        pager: NodePager,
        config: EOSConfig,
        *,
        obs: Observability | None = None,
    ) -> "LargeObjectTree":
        """Allocate a root page holding an empty object."""
        root_page = pager.allocate()
        tree = cls(pager, config, root_page, obs=obs)
        pager.write_new(root_page, Node(level=0))
        return tree

    def move_root(self, page: PageId) -> None:
        """Install the root on the freshly allocated ``page`` and free its
        old page: the compactor's unversioned relocation, which puts the
        root back in front of the object's new first segment."""
        node = self.read_root()
        self.pager.write_new(page, node)
        self.pager.free(self.root_page)
        self.root_page = page

    # ------------------------------------------------------------------
    # Reading structure
    # ------------------------------------------------------------------

    def read_root(self) -> Node:
        """Load the root node from its (stable) page."""
        return self.pager.read(self.root_page)

    def size(self) -> int:
        """Total object size: "the count value of the rightmost pair of
        the root" (Section 4)."""
        return self.read_root().total_bytes

    def height(self) -> int:
        """Tree levels (a level-0 root is height 1)."""
        return self.read_root().level + 1

    def descend(self, byte: int) -> tuple[list[PathStep], int]:
        """Root-to-leaf-parent path for the child holding ``byte``.

        ``byte`` may equal the object size (append position).  The final
        step's node is level 0 and its index selects the leaf segment;
        the returned int is the byte's offset *within* that segment (the
        paper's "B" after the Section 4.2 loop).
        """
        with self.obs.tracer.span(
            "tree.descend", root=self.root_page, byte=byte
        ) as span:
            path: list[PathStep] = []
            page = self.root_page
            node = self.read_root()
            local = byte
            while True:
                if not node.n_entries:
                    raise ByteRangeError(byte, 0, 0)
                index, local = node.find_child(local)
                path.append(PathStep(page, node, index))
                if node.level == 0:
                    span.set(depth=len(path))
                    return path, local
                page = node.child[index]
                node = self.pager.read(page)

    def leaf_entries(self) -> list[tuple[int, Entry]]:
        """All leaf entries with their global byte offsets (left to right).

        A full scan over :func:`walk_index`, independent of
        :meth:`iter_segments`'s pruned descent: tests hold the two
        against each other.
        """
        out: list[tuple[int, Entry]] = []
        offset = 0
        for _, node in walk_index(self.root_page, self.read_root(), self.pager.read):
            if node.level == 0:
                for i in range(node.n_entries):
                    entry = node.entry(i)
                    out.append((offset, entry))
                    offset += entry.count
        return out

    def iter_segments(
        self, lo: int, hi: int, *, root: Node | None = None
    ) -> Iterator[tuple[int, Entry]]:
        """Yield ``(global_offset, entry)`` for leaf entries overlapping
        [lo, hi), reading only the index pages on the way (Section 4.2's
        stack traversal, expressed recursively).

        Each node is entered by binary search at the first child ending
        after ``lo``, not scanned from its first entry.  A caller that
        already holds the freshly read root passes it as ``root``.
        """

        def walk(node: Node, base: int) -> Iterator[tuple[int, Entry]]:
            cum, child, pages = node.cum, node.child, node.pages
            i = bisect_right(cum, lo - base)
            offset = base + (cum[i - 1] if i else 0)
            while i < len(cum) and offset < hi:
                end = base + cum[i]
                if node.level == 0:
                    yield offset, Entry(end - offset, child[i], pages[i])
                else:
                    yield from walk(self.pager.read(child[i]), offset)
                offset = end
                i += 1

        if lo < hi:
            yield from walk(root if root is not None else self.read_root(), 0)

    # ------------------------------------------------------------------
    # The structural primitive
    # ------------------------------------------------------------------

    def replace_leaf_range(
        self, lo: int, hi: int, new_entries: list[Entry]
    ) -> list[Entry]:
        """Replace the leaf entries covering [lo, hi) with ``new_entries``.

        ``lo`` and ``hi`` must fall on leaf-segment boundaries (the
        executors choose them that way: an insert replaces exactly the
        segment it hits; a delete replaces from the start of its left
        boundary segment to the end of its right one).  Returns the
        dropped leaf entries, whose segments the caller disposes of; this
        method itself never reads or writes a leaf page.  The edit is one
        :meth:`~repro.core.pager.NodePager.atomic` unit of the pager: a
        split that finds no free page leaves the tree as it was.
        """
        root = self.read_root()
        size = root.total_bytes
        if not (0 <= lo < hi <= size):
            raise ByteRangeError(lo, hi - lo, size)
        dropped: list[Entry] = []
        with self.pager.atomic():
            if root.level == 0:
                entries = self._splice_leaf(root.entries, lo, hi, new_entries, dropped)
                root.entries = entries
            else:
                root.entries = self._edit_internal(root, lo, hi, new_entries, dropped)
            self._finish_root(root)
        return dropped

    def append_leaf_entries(self, new_entries: list[Entry]) -> None:
        """Add entries after the rightmost leaf entry (the append path),
        as one atomic edit like :meth:`replace_leaf_range`."""
        if not new_entries:
            return
        root = self.read_root()
        with self.pager.atomic():
            if not root.n_entries:
                root.entries = [e.copy() for e in new_entries]
            else:
                root.entries = self._append_into(root, new_entries)
            self._finish_root(root)

    def update_tail(self, count_delta: int, pages: int | None = None) -> None:
        """Adjust the rightmost leaf entry (append fills, trims).

        Children are rewritten bottom-up so a shadowing pager works: each
        ancestor's last entry gets the child's (possibly new) page id.
        """
        path, _ = self.descend(self.size())
        leaf_step = path[-1]
        entry = leaf_step.node.entries[leaf_step.index]
        entry.count += count_delta
        if pages is not None:
            entry.pages = pages
        if entry.count < 0 or (entry.count == 0 and entry.pages):
            raise TreeCorrupt(f"tail update produced an invalid entry {entry}")
        child_page = None
        for step in reversed(path):
            if child_page is not None:
                step.node.entries[step.index].child = child_page
                step.node.entries[step.index].count += count_delta
            if step.page == self.root_page:
                self.pager.write_root(step.page, step.node)
                child_page = step.page
            else:
                child_page = self.pager.write(step.page, step.node)

    # ------------------------------------------------------------------
    # Recursive editing internals
    # ------------------------------------------------------------------

    def _splice_leaf(
        self,
        entries: list[Entry],
        lo: int,
        hi: int,
        new_entries: list[Entry],
        dropped: list[Entry],
    ) -> list[Entry]:
        """Level-0 edit: drop covered entries, insert replacements."""
        out: list[Entry] = []
        insert_at: int | None = None
        offset = 0
        for entry in entries:
            start, end = offset, offset + entry.count
            offset = end
            if end <= lo or start >= hi:
                out.append(entry)
                continue
            if start < lo or end > hi:
                raise TreeCorrupt(
                    f"replace range [{lo}, {hi}) cuts through the leaf entry "
                    f"covering [{start}, {end})"
                )
            dropped.append(entry)
            if insert_at is None:
                insert_at = len(out)
        if insert_at is None:
            raise TreeCorrupt(f"replace range [{lo}, {hi}) covered no leaf entry")
        out[insert_at:insert_at] = [e.copy() for e in new_entries]
        return out

    def _edit_node(
        self,
        page: PageId,
        lo: int,
        hi: int,
        new_entries: list[Entry],
        dropped: list[Entry],
    ) -> list[Entry]:
        """Edit a non-root node; returns its replacement parent entries."""
        node = self.pager.read(page)
        if node.level == 0:
            node.entries = self._splice_leaf(
                node.entries, lo, hi, new_entries, dropped
            )
        else:
            node.entries = self._edit_internal(node, lo, hi, new_entries, dropped)
        return self._emit(page, node)

    def _edit_internal(
        self,
        node: Node,
        lo: int,
        hi: int,
        new_entries: list[Entry],
        dropped: list[Entry],
    ) -> list[Entry]:
        """Shared internal-node edit body (used for root and non-root)."""
        out: list[Entry] = []
        fix_positions: list[int] = []
        gave_new = False
        offset = 0
        for entry in node.entries:
            start, end = offset, offset + entry.count
            offset = end
            if end <= lo or start >= hi:
                out.append(entry)
                continue
            fully_covered = start >= lo and end <= hi
            if fully_covered and (gave_new or not new_entries):
                # Whole subtree dies: free its index pages, collect its
                # leaf entries — without touching any leaf page.
                self._free_subtree(entry.child, node.level - 1, dropped)
                continue
            # Boundary child (or the first covered child, which carries
            # the replacement entries down to leaf level).
            child_lo = max(lo, start) - start
            child_hi = min(hi, end) - start
            pass_new: list[Entry] = []
            if not gave_new:
                pass_new = new_entries
                gave_new = True
            replacements = self._edit_node(
                entry.child, child_lo, child_hi, pass_new, dropped
            )
            fix_positions.extend(range(len(out), len(out) + len(replacements)))
            out.extend(replacements)
        if new_entries and not gave_new:
            raise TreeCorrupt(
                f"range [{lo}, {hi}) found no child to carry replacements"
            )
        node.entries = out
        self._fix_underflows(node, fix_positions)
        return node.entries

    def _append_into(self, node: Node, new_entries: list[Entry]) -> list[Entry]:
        """Append-path edit body: add entries below the rightmost child."""
        if node.level == 0:
            node.entries = node.entries + [e.copy() for e in new_entries]
            return node.entries
        last = node.entries[-1]
        child = self.pager.read(last.child)
        child.entries = self._append_into(child, new_entries)
        replacements = self._emit(last.child, child)
        node.entries = node.entries[:-1] + replacements
        return node.entries

    def _emit(self, page: PageId, node: Node) -> list[Entry]:
        """Persist an edited non-root node; split on overflow.

        Returns the parent entries describing where the content now
        lives.  An emptied node frees its page and returns nothing.
        """
        if not node.entries:
            self.pager.free(page)
            return []
        if len(node.entries) <= self.fanout:
            new_page = self.pager.write(page, node)
            return [Entry(node.total_bytes, new_page, 0)]
        # Overflow: split into as few nodes as possible, each at least
        # half full.  (A single insert adds at most two entries, giving
        # the classic two-way split; bulk appends may need more parts.)
        parts = self._partition(node.entries)
        out: list[Entry] = []
        for i, part in enumerate(parts):
            part_node = Node(node.level, part, node.lsn)
            if i == 0:
                target = self.pager.write(page, part_node)
            else:
                target = self.pager.write_new(self.pager.allocate(), part_node)
            out.append(Entry(part_node.total_bytes, target, 0))
        return out

    def _partition(self, entries: list[Entry]) -> list[list[Entry]]:
        """Split an overfull entry list into balanced, legal chunks."""
        n_parts = ceil_div(len(entries), self.fanout)
        base = len(entries) // n_parts
        extra = len(entries) % n_parts
        parts = []
        position = 0
        for i in range(n_parts):
            take = base + (1 if i < extra else 0)
            parts.append(entries[position : position + take])
            position += take
        if any(len(p) < self.min_entries for p in parts):
            raise TreeCorrupt(
                f"cannot partition {len(entries)} entries into legal nodes"
            )
        return parts

    def _free_subtree(self, page: PageId, level: int, dropped: list[Entry]) -> None:
        """Collect the leaf entries below ``page`` and free its index pages.

        Only index pages are read; the leaf segments are reported via
        ``dropped`` for the caller to hand "directly to the buddy
        system" (Section 4.3.2).
        """
        node = self.pager.read(page)
        if node.level != level:
            raise TreeCorrupt(
                f"expected a level-{level} node at page {page}, "
                f"found level {node.level}"
            )
        if node.level == 0:
            dropped.extend(node.entries)
        else:
            for child in node.child:
                self._free_subtree(child, level - 1, dropped)
        self.pager.free(page)

    # ------------------------------------------------------------------
    # Underflow maintenance (delete step 5)
    # ------------------------------------------------------------------

    def _fix_underflows(self, node: Node, positions: list[int]) -> None:
        """Merge or rotate children that dropped below half full."""
        # Positions shift as merges remove entries; walk right-to-left.
        for position in sorted(set(positions), reverse=True):
            if position >= len(node.entries):
                position = len(node.entries) - 1
            if position < 0 or len(node.entries) <= 1:
                continue
            self._fix_child(node, position)

    def _fix_child(self, node: Node, index: int) -> None:
        entry = node.entries[index]
        child = self.pager.read(entry.child)
        if child.n_entries >= self.min_entries:
            return
        sibling_index = index - 1 if index > 0 else index + 1
        if not 0 <= sibling_index < len(node.entries):
            return
        left_index = min(index, sibling_index)
        right_index = max(index, sibling_index)
        left_entry = node.entries[left_index]
        right_entry = node.entries[right_index]
        left = self.pager.read(left_entry.child) if left_entry is not entry else child
        right = (
            self.pager.read(right_entry.child) if right_entry is not entry else child
        )
        if left.n_entries + right.n_entries <= self.fanout:
            # Merge right into left; free the right page.
            left.entries = left.entries + right.entries
            new_left = self.pager.write(left_entry.child, left)
            self.pager.free(right_entry.child)
            node.entries[left_index] = Entry(left.total_bytes, new_left, 0)
            del node.entries[right_index]
        else:
            # Rotate: even the entries out between the two nodes.
            combined = left.entries + right.entries
            split = len(combined) // 2
            left.entries = combined[:split]
            right.entries = combined[split:]
            new_left = self.pager.write(left_entry.child, left)
            new_right = self.pager.write(right_entry.child, right)
            node.entries[left_index] = Entry(left.total_bytes, new_left, 0)
            node.entries[right_index] = Entry(right.total_bytes, new_right, 0)

    # ------------------------------------------------------------------
    # Root maintenance
    # ------------------------------------------------------------------

    def _finish_root(self, root: Node) -> None:
        """Apply the root rules and write the root page in place."""
        # Grow: the root holds at most root_fanout entries (footnote 3's
        # byte limit); overflow pushes entries down into new children.
        while len(root.entries) > self.root_fanout:
            parts = self._partition_for_root(root.entries)
            child_entries = []
            for part in parts:
                page = self.pager.allocate()
                child = Node(root.level, part)
                self.pager.write_new(page, child)
                child_entries.append(Entry(child.total_bytes, page, 0))
            root.level += 1
            root.entries = child_entries
        # Shrink: "If the root has exactly one child, copy the pairs of
        # this child to the root and repeat this step."
        while root.level > 0 and len(root.entries) == 1:
            child_page = root.entries[0].child
            child = self.pager.read(child_page)
            root.level = child.level
            root.entries = child.entries
            self.pager.free(child_page)
        if not root.entries:
            root.level = 0
        self.pager.write_root(self.root_page, root)

    def _partition_for_root(self, entries: list[Entry]) -> list[list[Entry]]:
        """Split root overflow into balanced children.

        With an unrestricted root, overflow means more than ``fanout``
        entries, so the balanced parts are automatically at least half
        full.  With a byte-limited root (footnote 3) the tree may be so
        small that half-fullness is unattainable for the root's direct
        children; they are allowed to be under-full (and
        :meth:`verify` knows this).
        """
        n_parts = max(2, ceil_div(len(entries), self.fanout))
        base = len(entries) // n_parts
        extra = len(entries) % n_parts
        parts = []
        position = 0
        for i in range(n_parts):
            take = base + (1 if i < extra else 0)
            parts.append(entries[position : position + take])
            position += take
        if any(not p for p in parts):
            raise TreeCorrupt("root partition produced an empty child")
        return parts

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Check every structural invariant; raises TreeCorrupt on failure.

        * counts: each internal entry equals its child's total;
        * levels: each child is exactly one level below its parent;
        * occupancy: non-root nodes are at least half full;
        * leaf entries: positive byte counts, pages >= ceil(count/PS),
          and only the rightmost segment may hold spare pages;
        * segments and index pages are pairwise disjoint.
        """
        claimed_pages: list[tuple[int, int, str]] = []
        # (level, bytes) each upcoming child must have, the next one on top.
        expected: list[tuple[int, int]] = []
        spare = None  # (page, pages, needed): spare pages are legal only in the tail

        # A byte-limited root (footnote 3) can force under-half-full
        # nodes: a root capped at k entries may have to push fewer than
        # 2*min entries down into children.  Such trees trade the
        # occupancy floor for the embeddable root.
        root_is_limited = self.root_fanout < self.fanout
        occupancy_floor = 1 if root_is_limited else self.min_entries

        for page, node in walk_index(self.root_page, self.read_root(), self.pager.read):
            n = node.n_entries
            if not expected:
                limit, what = self.root_fanout, "root"
            else:
                limit, what = self.fanout, "index"
                level, count = expected.pop()
                if node.level != level:
                    raise TreeCorrupt(
                        f"level skew: node level {level + 1} has child "
                        f"level {node.level}"
                    )
                if node.total_bytes != count:
                    raise TreeCorrupt(
                        f"entry says {count} bytes, child holds {node.total_bytes}"
                    )
                if n < occupancy_floor:
                    raise TreeCorrupt(
                        f"non-root node has {n} entries; minimum is {occupancy_floor}"
                    )
            if n > limit:
                raise TreeCorrupt("node exceeds its fan-out")
            claimed_pages.append((page, 1, what))
            counts = [end - start for start, end in zip((0, *node.cum), node.cum)]
            if node.level:
                expected.extend((node.level - 1, count) for count in reversed(counts))
                continue
            for count, child, pages in zip(counts, node.child, node.pages):
                if count <= 0:
                    raise TreeCorrupt(f"leaf entry with {count} bytes")
                needed = ceil_div(count, self.config.page_size)
                if pages < needed:
                    raise TreeCorrupt(
                        f"segment at page {child} has {pages} pages for {count} bytes"
                    )
                if spare is not None:
                    raise TreeCorrupt(
                        "non-tail segment at page {} holds spare pages ({} vs {})"
                        .format(*spare)
                    )
                if pages != needed:
                    spare = (child, pages, needed)
                claimed_pages.append((child, pages, "segment"))
        # Disjointness.
        spans = sorted((p, p + n, what) for p, n, what in claimed_pages)
        for (a_lo, a_hi, a_what), (b_lo, b_hi, b_what) in zip(spans, spans[1:]):
            if b_lo < a_hi:
                raise TreeCorrupt(
                    f"{a_what} pages [{a_lo},{a_hi}) overlap {b_what} pages "
                    f"[{b_lo},{b_hi})"
                )
