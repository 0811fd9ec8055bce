"""Index nodes of the positional tree (paper Section 4, Figure 5).

"Each node N of the tree contains a sequence of (c[i], p[i]) pairs, one
for each child of N ... The number of bytes stored in the subtree rooted
at p[i] is c[i] - c[i-1]."  The serialized form stores the cumulative
counts exactly as the paper describes, and so does a decoded node: it
holds the page's three columns — ``cum`` (the paper's c[]), ``child``
(p[]) and ``pages`` — as immutable tuples, so the object size is
``cum[-1]`` and a descent step is one binary search (Section 4.2).

Structural edits (splice, split, merge, rotate) want per-child counts
in a plain mutable list.  :attr:`Node.entries` materialises that list on
first use; from then on the node is *editing*: the list is its only
state, it belongs to this ``Node`` object alone, and the column
accessors recompute from it.  The columns of a decoded page may be
shared between any number of ``Node`` objects (see :meth:`Node.copy`);
an entry list never is.

A node at ``level == 0`` points to leaf segments: each entry carries the
segment's first (physical) page and its allocated page count — "the
address and size of each segment are stored in the corresponding parent
index nodes" (Section 4.3.2), which is what lets whole subtrees be
deleted without touching a single leaf page.  Nodes at higher levels
point to child index pages (``pages`` is 0 there).

Serialized page layout::

    offset 0   u8   level (0 = children are leaf segments)
    offset 1   u16  number of entries
    offset 3   u64  LSN (meaningful on root pages; see Section 4.5)
    offset 11  entries: u64 cumulative count, u32 child page, u16 pages
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub

from repro.errors import TreeCorrupt

_HEADER = struct.Struct("<BHQ")
_ENTRY = struct.Struct("<QIH")

HEADER_SIZE = _HEADER.size  # 11
ENTRY_SIZE = _ENTRY.size  # 14

#: Deepest level a header may claim.  Every internal node of a non-empty
#: tree has at least two children and every leaf at least one byte, so a
#: level-64 root would hold more bytes than a u64 count can say.
MAX_LEVEL = 64


@lru_cache(maxsize=512)
def _columns_struct(n: int) -> struct.Struct:
    """All ``n`` entries of a page as one flat (c, p, pages, c, p, ...) record."""
    return struct.Struct("<" + "QIH" * n)


def fanout(page_size: int) -> int:
    """Maximum entries an index node of one page can hold."""
    n = (page_size - HEADER_SIZE) // ENTRY_SIZE
    if n < 4:
        raise ValueError(
            f"page size {page_size} holds only {n} index entries; need >= 4"
        )
    return n


def min_entries(page_size: int) -> int:
    """B-tree occupancy floor: internal nodes are at least half full."""
    return fanout(page_size) // 2


@dataclass(slots=True)
class Entry:
    """One (count, pointer) pair, held with its per-child byte count."""

    count: int  # bytes stored in the subtree / segment
    child: int  # child index page (level >= 1) or segment first page (level 0)
    pages: int = 0  # segment page count (level 0 only)

    def copy(self) -> "Entry":
        """A detached copy of this entry."""
        return Entry(self.count, self.child, self.pages)


class Node:
    """An index node: a level tag, an LSN and one (c, p, pages) per child.

    A node is in one of two states.  *Decoded* (what :meth:`from_page`
    returns): the three columns are immutable tuples straight off the
    page and nothing else exists.  *Editing* (built from an entry list,
    or after the first use of :attr:`entries`): a private mutable
    ``list[Entry]`` of per-child counts is the only state.  Every
    accessor answers in both states; only the decoded state is O(1) /
    O(log n).
    """

    __slots__ = ("level", "lsn", "_cum", "_child", "_pages", "_entries")

    def __init__(self, level: int, entries: list[Entry] | None = None, lsn: int = 0):
        self.level = level
        self.lsn = lsn
        self._cum: tuple[int, ...] = ()
        self._child: tuple[int, ...] = ()
        self._pages: tuple[int, ...] = ()
        self._entries: list[Entry] | None = entries if entries is not None else []

    # -- the columns ----------------------------------------------------------

    @property
    def cum(self) -> tuple[int, ...]:
        """The paper's c[]: cumulative byte counts, one per child."""
        if self._entries is None:
            return self._cum
        return tuple(accumulate(e.count for e in self._entries))

    @property
    def child(self) -> tuple[int, ...]:
        """The paper's p[]: child index page, or segment first page."""
        if self._entries is None:
            return self._child
        return tuple(e.child for e in self._entries)

    @property
    def pages(self) -> tuple[int, ...]:
        """Allocated pages of each leaf segment (0 above level 0)."""
        if self._entries is None:
            return self._pages
        return tuple(e.pages for e in self._entries)

    @property
    def n_entries(self) -> int:
        """Number of children."""
        if self._entries is None:
            return len(self._cum)
        return len(self._entries)

    def entry(self, index: int) -> Entry:
        """A detached :class:`Entry` for child ``index`` — changing it does
        not change the node."""
        if self._entries is not None:
            return self._entries[index].copy()
        cum = self._cum
        previous = cum[index - 1] if index else 0
        return Entry(cum[index] - previous, self._child[index], self._pages[index])

    # -- the editing form -----------------------------------------------------

    @property
    def entries(self) -> list[Entry]:
        """The node as a mutable list of per-child counts.

        Materialised on first use and owned by this ``Node`` object: the
        columns it came from are let go, so nothing else — not another
        reader of the same page, not the buffer pool — can observe an
        edit before the node is written through a pager.
        """
        entries = self._entries
        if entries is None:
            cum = self._cum
            entries = self._entries = list(
                map(Entry, map(sub, cum, (0,) + cum[:-1]), self._child, self._pages)
            )
            self._cum = self._child = self._pages = ()
        return entries

    @entries.setter
    def entries(self, entries: list[Entry]) -> None:
        self._entries = entries
        self._cum = self._child = self._pages = ()

    def copy(self) -> "Node":
        """A node the caller may edit freely: shares the immutable
        columns of a decoded node, never an entry list."""
        node = Node.__new__(Node)
        node.level = self.level
        node.lsn = self.lsn
        node._cum = self._cum
        node._child = self._child
        node._pages = self._pages
        entries = self._entries
        node._entries = None if entries is None else [e.copy() for e in entries]
        return node

    # -- derived ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total bytes stored below this node (the paper's rightmost c[i])."""
        cum = self.cum
        return cum[-1] if cum else 0

    def cumulative(self) -> tuple[int, ...]:
        """The paper's c[] array: cumulative byte counts."""
        return self.cum

    def find_child(self, byte: int) -> tuple[int, int]:
        """Binary-search for the child holding ``byte``.

        "Binary search S to find the smallest c[i] such that c[i] > B.
        Set B = B - c[i-1]" (Section 4.2).  Returns ``(i, local_byte)``.
        ``byte`` may equal the total (the append position), which maps to
        one past the end of the last child: ``(len-1, count_of_last)``.
        """
        cum = self.cum
        if not cum:
            raise TreeCorrupt("find_child on an empty node")
        total = cum[-1]
        if byte == total:
            i = len(cum) - 1
        elif byte < 0 or byte > total:
            raise TreeCorrupt(f"byte {byte} outside node holding {total} bytes")
        else:
            i = bisect_right(cum, byte)
        return i, byte - (cum[i - 1] if i else 0)

    def child_offset(self, index: int) -> int:
        """Byte offset of child ``index``'s first byte within this node."""
        return self.cum[index - 1] if index else 0

    # -- serialization --------------------------------------------------------

    def to_page(self, page_size: int) -> bytearray:
        """Serialise to a page image in the paper's cumulative form."""
        cum = self.cum
        n = len(cum)
        if HEADER_SIZE + n * ENTRY_SIZE > page_size:
            raise TreeCorrupt(f"{n} entries do not fit in a {page_size}-byte page")
        if not 0 <= self.level <= MAX_LEVEL:
            raise TreeCorrupt(f"node level {self.level} outside 0..{MAX_LEVEL}")
        image = bytearray(page_size)
        _HEADER.pack_into(image, 0, self.level, n, self.lsn)
        flat = [0] * (3 * n)
        flat[0::3] = cum
        flat[1::3] = self.child
        flat[2::3] = self.pages
        _columns_struct(n).pack_into(image, HEADER_SIZE, *flat)
        return image

    @classmethod
    def from_page(cls, image: bytes | bytearray) -> "Node":
        """Decode a page image into its columns — one bulk unpack.

        Rejects anything that is not an index page by itself: an image
        too short for its header or for the entries the header claims, an
        impossible level, cumulative counts that decrease.
        """
        if len(image) < HEADER_SIZE:
            raise TreeCorrupt(f"{len(image)}-byte image is shorter than a node header")
        level, n, lsn = _HEADER.unpack_from(image, 0)
        if level > MAX_LEVEL:
            raise TreeCorrupt(f"node level {level} outside 0..{MAX_LEVEL}")
        if HEADER_SIZE + n * ENTRY_SIZE > len(image):
            raise TreeCorrupt(
                f"header claims {n} entries; a {len(image)}-byte page holds "
                f"{(len(image) - HEADER_SIZE) // ENTRY_SIZE}"
            )
        flat = _columns_struct(n).unpack_from(image, HEADER_SIZE)
        cum = flat[0::3]
        if list(cum) != sorted(cum):
            raise TreeCorrupt("cumulative counts are not non-decreasing")
        node = cls.__new__(cls)
        node.level = level
        node.lsn = lsn
        node._cum = cum
        node._child = flat[1::3]
        node._pages = flat[2::3]
        node._entries = None
        return node

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (self.level, self.lsn, self.cum, self.child, self.pages) == (
            other.level, other.lsn, other.cum, other.child, other.pages
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "seg" if self.level == 0 else "pg"
        inner = ", ".join(
            f"({e.count}b {kind}{e.child}" + (f"x{e.pages})" if self.level == 0 else ")")
            for e in map(self.entry, range(self.n_entries))
        )
        return f"Node(level={self.level}, [{inner}])"
