"""Leaf-segment I/O: contiguous multi-page transfers, bypassing the pool.

Leaf segments are read and written with single contiguous transfers —
that is the entire point of variable-size segments ("disk space is
allocated in large units of physically adjacent disk blocks", Section 1)
— and they bypass the buffer pool so a multi-megabyte scan cannot evict
the object's own index pages.

Writing a segment pads the final partial page with zeros: "there are no
holes in each segment in that all of its pages must get filled up except
the last one which may be partially full" (Section 4).  The pad bytes
are physically present but logically dead; the byte counts in the index
mask them.

The zero-copy data path enters here: :meth:`SegmentIO.view_run` borrows
a read-only :class:`memoryview` of a page run (no copy), writes accept
any buffer-protocol object and gather data + zero pad as an iovec list
(:meth:`~repro.storage.disk.DiskVolume.write_pages_v`), and
:func:`allocate_and_write` coalesces physically adjacent segments into
single vectored transfers.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager, SegmentRef
from repro.errors import LargeObjectError, OutOfSpace
from repro.obs.tracer import NULL_OBS, Observability
from repro.storage.disk import DiskVolume
from repro.storage.page import PageId
from repro.util import copytrace
from repro.util.bitops import ceil_div


class SegmentIO:
    """Byte-addressed access to leaf segments on the raw disk."""

    def __init__(
        self, disk: DiskVolume, page_size: int, *, obs: Observability | None = None
    ) -> None:
        if disk.page_size != page_size:
            raise LargeObjectError(
                f"config page size {page_size} != disk page size {disk.page_size}"
            )
        self.disk = disk
        self.page_size = page_size
        self.obs = obs if obs is not None else NULL_OBS

    def view_run(self, first_page: PageId, n_pages: int) -> memoryview:
        """Borrow a read-only view of a contiguous page run — no copy.

        The view aliases the live volume (see
        :meth:`~repro.storage.disk.DiskVolume.view_pages`): consume it
        before the next write.  The read planner does — it assembles all
        its views into the result buffer before returning.
        """
        with self.obs.tracer.span(
            "segio.read", first_page=first_page, pages=n_pages
        ):
            return self.disk.view_pages(first_page, n_pages)

    def read_bytes(self, first_page: PageId, byte_lo: int, byte_hi: int) -> bytes:
        """Read bytes [byte_lo, byte_hi) of a segment: one contiguous run.

        Copying contract: the caller owns the returned ``bytes``.  The
        zero-copy path plans through :meth:`view_run` instead.
        """
        if byte_lo >= byte_hi:
            return b""
        ps = self.page_size
        page_lo = byte_lo // ps
        page_hi = (byte_hi - 1) // ps
        view = self.view_run(first_page + page_lo, page_hi - page_lo + 1)
        base = page_lo * ps
        return copytrace.materialize(
            view[byte_lo - base : byte_hi - base], "segio.read_bytes"
        )

    def read_span(
        self, first_page: PageId, page_lo: int, page_hi: int
    ) -> tuple[bytes, int]:
        """Read pages [page_lo, page_hi] of a segment in one run.

        Returns ``(bytes, base_byte_offset)`` so callers can slice by
        segment-relative byte offsets.  The caller owns the bytes (this
        feeds read-modify-write, which must not alias the volume).
        """
        view = self.view_run(first_page + page_lo, page_hi - page_lo + 1)
        return copytrace.materialize(view, "segio.read_span"), page_lo * self.page_size

    def write_segment(self, first_page: PageId, data, at_page: int = 0) -> None:
        """Write ``data`` into a segment starting at page ``at_page``,
        padding the final partial page with zeros.

        ``data`` is any buffer-protocol object (bytes, bytearray,
        memoryview); it is gathered with the pad as an iovec list, never
        re-materialized.
        """
        view = memoryview(data).cast("B")
        if not len(view):
            return
        ps = self.page_size
        n_pages = ceil_div(len(view), ps)
        pad = n_pages * ps - len(view)
        iovecs = (view, b"\0" * pad) if pad else (view,)
        with self.obs.tracer.span(
            "segio.write", first_page=first_page, pages=n_pages
        ):
            self.disk.write_pages_v(first_page + at_page, iovecs)

    def write_run_v(self, first_page: PageId, iovecs, n_pages: int) -> None:
        """Vectored write of a coalesced run of physically adjacent
        segments: one transfer, one seek at most."""
        with self.obs.tracer.span(
            "segio.write", first_page=first_page, pages=n_pages
        ):
            self.disk.write_pages_v(first_page, iovecs)

    def read_page(self, page: PageId) -> bytes:
        """Read one whole page (for the page-granular baseline schemes)."""
        with self.obs.tracer.span("segio.read", first_page=page, pages=1):
            return self.disk.read_page(page)

    def write_page(self, page: PageId, data) -> None:
        """Write one page, zero-padding a partial image."""
        if len(data) > self.page_size:
            raise LargeObjectError(
                f"page write of {len(data)} bytes exceeds page size {self.page_size}"
            )
        pad = self.page_size - len(data)
        iovecs = (data, b"\0" * pad) if pad else (data,)
        with self.obs.tracer.span("segio.write", first_page=page, pages=1):
            self.disk.write_pages_v(page, iovecs)

    def patch_page(self, page: PageId, offset: int, data) -> bytes:
        """Read-modify-write one page; returns the pre-image (for logging)."""
        ps = self.page_size
        if offset + len(data) > ps:
            raise LargeObjectError(
                f"patch of {len(data)} bytes at offset {offset} overruns a page"
            )
        with self.obs.tracer.span("segio.patch", page=page, bytes=len(data)):
            old = self.disk.read_page(page)
            new = bytearray(old)
            new[offset : offset + len(data)] = data
            self.disk.write_page(page, new)
        return old


def allocate_and_write(
    segio: SegmentIO,
    buddy: BuddyManager,
    data,
    *,
    avoid_space: int | None = None,
) -> list[tuple[SegmentRef, int]]:
    """Allocate exact-size segments for ``data`` and write them.

    Returns ``[(segment, byte_count), ...]``.  Data longer than the
    maximum segment size spans several segments; under fragmentation the
    allocator may return shorter runs and the data simply continues in
    the next segment (the tree indexes them independently).

    The buddy system hands out consecutive allocations that are very
    often physically adjacent; writes to adjacent segments are coalesced
    into single vectored multi-page transfers (one seek per contiguous
    run, the paper's cost model), with the input sliced as memoryviews —
    no intermediate copies.

    When the volume runs out of space mid-write, the segments already
    allocated are freed before :class:`~repro.errors.OutOfSpace`
    propagates.  Inside a copy-on-write unit that free is final too: the
    unit's allocator forgets a page it frees, so its abort does not free
    it twice.
    """
    out: list[tuple[SegmentRef, int]] = []
    ps = segio.page_size
    view = memoryview(data).cast("B")
    position = 0
    run_first: PageId | None = None
    run_pages = 0
    run_iov: list = []

    def flush() -> None:
        nonlocal run_first, run_pages, run_iov
        if run_first is not None:
            segio.write_run_v(run_first, run_iov, run_pages)
            run_first, run_pages, run_iov = None, 0, []

    while position < len(view):
        remaining = len(view) - position
        want = min(ceil_div(remaining, ps), buddy.max_segment_pages)
        try:
            if avoid_space is not None:
                ref = buddy.allocate_up_to(want, avoid_space=avoid_space)
            else:
                ref = buddy.allocate_up_to(want)
        except OutOfSpace:
            for done, _ in out:
                buddy.free(done.first_page, done.n_pages)
            raise
        take = min(remaining, ref.n_pages * ps)
        if ref.n_pages > ceil_div(take, ps):
            # Trim immediately: these segments never carry spare pages.
            spare = ref.n_pages - ceil_div(take, ps)
            buddy.free(ref.first_page + ref.n_pages - spare, spare)
            ref = SegmentRef(ref.first_page, ref.n_pages - spare)
        pad = ref.n_pages * ps - take
        if run_first is None or run_first + run_pages != ref.first_page:
            flush()
            run_first = ref.first_page
        run_iov.append(view[position : position + take])
        if pad:
            run_iov.append(b"\0" * pad)
        run_pages += ref.n_pages
        out.append((ref, take))
        position += take
    flush()
    return out
