"""I/O accounting with a disk-head position model.

The paper reasons about operation cost as *seeks* plus *page transfers*:
reading a 6-page range spread over 3 segments costs "3 disk seeks plus
the cost to transfer 6 pages" (Section 4.2).  :class:`IOStats` produces
those numbers mechanically:

* every page transferred (read or written) increments a transfer counter;
* a transfer *run* that does not begin where the head was left after the
  previous run costs one seek.

A contiguous multi-page read issued as a single call is one run: one seek
(at most) plus N transfers.  Reading the same N pages with N single-page
calls is still seek-free *if* they are physically consecutive — the head
model, not the call structure, decides — which matches how a real drive
behaves and keeps comparisons between EOS and the page-at-a-time
baselines honest.  The head (``IOStats.head``) is the only one there is:
:class:`~repro.storage.timing.TimedDisk` charges its seeks from it too.

Use :meth:`IOStats.delta` to measure a region of code::

    with stats.delta() as d:
        obj.read(0, 1 << 20)
    print(d.seeks, d.page_reads)

The counter helpers (:func:`difference`, :func:`zero`, :func:`measure`)
work field by field on any counter dataclass, so the ``db.stats`` facade
composes the buffer pool's and allocator's counters without re-declaring
them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Iterator, TypeVar

C = TypeVar("C")


def seeks_per_mb(seeks: int, page_transfers: int, page_size: int) -> float:
    """Seeks per MiB transferred — the layout-quality number the paper's
    cost model cares about (0.0 when nothing moved)."""
    transferred = page_transfers * page_size
    if transferred <= 0:
        return 0.0
    return seeks / (transferred / (1 << 20))


def difference(after: C, before: C) -> C:
    """``after - before`` field by field, as a new instance of ``after``'s
    counter dataclass; a field that is itself a dataclass recurses."""
    changes = {}
    for f in fields(after):
        a, b = getattr(after, f.name), getattr(before, f.name)
        changes[f.name] = difference(a, b) if is_dataclass(a) else a - b
    return replace(after, **changes)


def zero(counters, kind=None) -> None:
    """Zero, in place, every field ``kind`` declares (default: every field
    of ``counters``)."""
    for f in fields(kind or counters):
        setattr(counters, f.name, 0)


@contextlib.contextmanager
def measure(snapshot: Callable[[], C]) -> Iterator[C]:
    """Yield a zeroed snapshot; when the block exits it holds what
    ``snapshot()`` gained over the block."""
    before = snapshot()
    change = difference(before, before)
    try:
        yield change
    finally:
        vars(change).update(vars(difference(snapshot(), before)))


@dataclass
class IOSnapshot:
    """The disk counters at one instant, or their change over a block.

    A plain mutable copy: subtracting two gives the I/O between them, and
    :meth:`IOStats.delta` fills one in when its block exits.
    """

    seeks: int = 0
    page_reads: int = 0
    page_writes: int = 0
    read_calls: int = 0
    write_calls: int = 0

    @property
    def page_transfers(self) -> int:
        """Total pages moved in either direction."""
        return self.page_reads + self.page_writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return difference(self, other)


@dataclass
class IOStats(IOSnapshot):
    """The live counters of one disk volume, plus its head position."""

    # Physical page the head would be positioned after the last transfer,
    # or None before any I/O (the first access always seeks).
    head: int | None = field(default=None, repr=False)
    # Optional per-transfer hook (an object with ``on_transfer``).  The
    # slot belongs to spies (tests, benchmark taps); observability reads
    # the counters above instead of installing one.
    observer: object | None = field(default=None, repr=False, compare=False)

    def record_read(self, first_page: int, n_pages: int) -> None:
        """Account for a contiguous read of ``n_pages`` starting at ``first_page``."""
        self._record(first_page, n_pages, is_write=False)

    def record_write(self, first_page: int, n_pages: int) -> None:
        """Account for a contiguous write of ``n_pages`` starting at ``first_page``."""
        self._record(first_page, n_pages, is_write=True)

    def _record(self, first_page: int, n_pages: int, *, is_write: bool) -> None:
        if n_pages <= 0:
            return
        seeked = self.head != first_page
        if seeked:
            self.seeks += 1
        self.head = first_page + n_pages
        if is_write:
            self.page_writes += n_pages
            self.write_calls += 1
        else:
            self.page_reads += n_pages
            self.read_calls += 1
        if self.observer is not None:
            self.observer.on_transfer(
                first_page, n_pages, is_write=is_write, seeked=seeked
            )

    def snapshot(self) -> IOSnapshot:
        """A copy of the current counters."""
        return IOSnapshot(**{f.name: getattr(self, f.name) for f in fields(IOSnapshot)})

    def reset(self) -> None:
        """Zero all counters and forget the head position."""
        zero(self, IOSnapshot)
        self.head = None

    def delta(self) -> contextlib.AbstractContextManager[IOSnapshot]:
        """Context manager yielding the I/O performed inside the block."""
        return measure(self.snapshot)
