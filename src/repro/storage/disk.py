"""The simulated disk volume.

:class:`DiskVolume` is an array of ``num_pages`` fixed-size pages backed
by a single in-memory ``bytearray``, with optional save/load to a file
for persistence across processes.  Its device surface is two transfer
primitives, both zero-copy:

* borrow a read-only :class:`memoryview` of a contiguous run of pages
  (:meth:`view_pages`);
* gather an iovec list into one contiguous run (:meth:`write_pages_v`).

:meth:`read_page` and :meth:`write_page` are one-page conveniences over
them.  A device variant subclasses the volume and overrides just the two
primitives: :class:`~repro.storage.faults.FaultyDisk` fails them on
demand, :class:`~repro.storage.timing.TimedDisk` charges service time for
them.

All accesses flow through an :class:`~repro.storage.iostats.IOStats`
instance, which models the disk head: a run that does not start where
the head was left costs a seek.  The large object manager's claim that a
multi-page read within one segment is "1 disk seek plus N page
transfers" (Section 4.2) is therefore measured, not assumed.

The volume knows nothing about allocation — that is the buddy system's
job — and nothing about caching — that is the buffer pool's job.
"""

from __future__ import annotations

import os
import struct

from repro.errors import PageOutOfRange, PageSizeMismatch
from repro.storage.iostats import IOStats
from repro.storage.page import PageId, validate_page_size
from repro.util import copytrace

_FILE_MAGIC = b"EOSVOL01"
_FILE_HEADER = struct.Struct("<8sQQ")  # magic, page_size, num_pages


class DiskVolume:
    """A flat array of pages with seek-accurate I/O accounting."""

    def __init__(self, num_pages: int, page_size: int = 4096) -> None:
        if num_pages <= 0:
            raise ValueError(f"a volume needs at least one page, got {num_pages}")
        validate_page_size(page_size)
        self.num_pages = num_pages
        self.page_size = page_size
        self.stats = IOStats()
        self._data = bytearray(num_pages * page_size)

    # -- geometry -----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total raw capacity of the volume."""
        return self.num_pages * self.page_size

    def _check_range(self, first_page: PageId, n_pages: int) -> None:
        if n_pages <= 0:
            raise ValueError(f"transfer length must be positive, got {n_pages}")
        if first_page < 0 or first_page + n_pages > self.num_pages:
            raise PageOutOfRange(first_page, self.num_pages)

    # -- transfers ----------------------------------------------------------
    #
    # view_pages and write_pages_v are the device surface: every accounted
    # transfer reaches exactly one of them, so a subclass that overrides
    # the two (FaultyDisk, TimedDisk) sees each call once.

    def read_page(self, page: PageId) -> bytes:
        """Read one page into bytes the caller owns (one run)."""
        return copytrace.materialize(self.view_pages(page, 1), "disk.read_page")

    def view_pages(self, first_page: PageId, n_pages: int) -> memoryview:
        """Borrow a read-only view of a contiguous run — no copy.

        The view aliases the live volume image: it is valid until the
        next write to those pages.  Callers must consume (or copy out
        of) the view before issuing further writes; the read path does —
        it plans all its transfers first and assembles into its own
        buffer before any update can run.
        """
        self._check_range(first_page, n_pages)
        self.stats.record_read(first_page, n_pages)
        lo = first_page * self.page_size
        hi = lo + n_pages * self.page_size
        return memoryview(self._data)[lo:hi].toreadonly()

    def write_page(self, page: PageId, image: bytes | bytearray) -> None:
        """Write one page image (one run)."""
        self.write_pages_v(page, (image,))

    def write_pages_v(self, first_page: PageId, iovecs) -> None:
        """Vectored write: gather ``iovecs`` into one contiguous run.

        The chunks land back to back starting at ``first_page``; their
        total length must be a whole number of pages (segments own whole
        pages; the caller pads a partial final page).  One call is one
        transfer run (one seek at most), which is how the run-coalescer
        turns writes of physically adjacent segments into a single
        multi-page transfer without first concatenating the payload.
        """
        views = [memoryview(iov).cast("B") for iov in iovecs]
        total = sum(len(v) for v in views)
        if total % self.page_size:
            raise PageSizeMismatch(total, self.page_size)
        n_pages = total // self.page_size
        self._check_range(first_page, n_pages)
        self.stats.record_write(first_page, n_pages)
        position = first_page * self.page_size
        for view in views:
            self._data[position : position + len(view)] = view
            position += len(view)

    # -- maintenance --------------------------------------------------------

    def peek(self, first_page: PageId, n_pages: int = 1) -> bytes:
        """Read pages *without* I/O accounting (for tests and verifiers)."""
        self._check_range(first_page, n_pages)
        lo = first_page * self.page_size
        view = memoryview(self._data)[lo : lo + n_pages * self.page_size]
        return copytrace.materialize(view, "disk.peek")

    def poke(self, first_page: PageId, data: bytes | bytearray) -> None:
        """Write pages without I/O accounting (for tests and fault injection)."""
        if len(data) % self.page_size:
            raise PageSizeMismatch(len(data), self.page_size)
        self._check_range(first_page, len(data) // self.page_size)
        lo = first_page * self.page_size
        self._data[lo : lo + len(data)] = data

    # -- persistence --------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist the volume image to a file."""
        header = _FILE_HEADER.pack(_FILE_MAGIC, self.page_size, self.num_pages)
        with open(path, "wb") as f:
            f.write(header)
            f.write(self._data)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "DiskVolume":
        """Restore a volume previously written by :meth:`save`."""
        with open(path, "rb") as f:
            header = f.read(_FILE_HEADER.size)
            magic, page_size, num_pages = _FILE_HEADER.unpack(header)
            if magic != _FILE_MAGIC:
                raise ValueError(f"{path!s} is not a saved DiskVolume image")
            volume = cls(num_pages=num_pages, page_size=page_size)
            data = f.read(num_pages * page_size)
            if len(data) != num_pages * page_size:
                raise ValueError(f"{path!s} is truncated")
            volume._data[:] = data
        return volume

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(num_pages={self.num_pages}, page_size={self.page_size}, "
            f"stats={self.stats!r})"
        )
