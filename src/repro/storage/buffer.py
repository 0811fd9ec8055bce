"""An LRU buffer pool for single-page structures.

Index pages of the positional tree and buddy-space directory pages are
hot, single-page structures; the paper assumes they are cached ("at most
one disk access is needed to serve block allocation requests" presumes
the directory is fetched once).  Leaf segments, by contrast, are read
with large contiguous transfers and deliberately bypass the pool — a
multi-megabyte object must not wipe out the cache of its own index.

The pool implements the classic protocol:

* :meth:`fetch` pins a page frame and returns a mutable ``bytearray``;
* :meth:`unpin` releases it, optionally marking it dirty;
* dirty frames are written back on eviction or :meth:`flush_all`;
  before either writes one, :attr:`~BufferPool.write_ahead` (when set)
  runs first — the write-ahead rule: the index pool's owner writes the
  allocator's directory there, so a written page never names a page the
  disk still marks free;
* eviction is LRU over unpinned frames; if every frame is pinned,
  :class:`~repro.errors.AllPagesPinned` is raised.

A ``with pool.page(pid) as frame:`` form handles pin/unpin pairing.

Readers that only want a page's *meaning* — an index node — use
:meth:`decoded` instead: the frame keeps the decoded form of its clean
image beside the image, so a resident page is decoded once, not once per
touch.  The decoded form has no life of its own: it is void the moment
the mutable image is handed out and it goes wherever the frame goes.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, TypeVar

from repro.analysis.confine import ThreadConfinement
from repro.analysis.pinleak import PinLeakSanitizer
from repro.analysis.sanitize import sanitizers_from_env
from repro.errors import AllPagesPinned, InvariantViolation, PageNotPinned
from repro.storage.disk import DiskVolume
from repro.storage.page import PageId

T = TypeVar("T")


@dataclass(slots=True)
class _Frame:
    image: bytearray
    pin_count: int = 0
    dirty: bool = False
    # What ``image`` means to the last :meth:`BufferPool.decoded` caller;
    # None whenever the image may have changed since it was computed.
    decoded: Any = None


@dataclass
class BufferPoolStats:
    """Hit/miss counters, exposed for the superdirectory experiment (E9)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    #: :meth:`BufferPool.decoded` calls that had to run the decoder (the
    #: frame was new, or its image had been handed out since).
    decodes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """LRU cache of single pages over a :class:`DiskVolume`."""

    def __init__(self, disk: DiskVolume, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool needs at least one frame, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferPoolStats()
        # Ordered oldest-first for LRU; move_to_end on every touch.
        self._frames: "OrderedDict[PageId, _Frame]" = OrderedDict()
        self.pin_sanitizer: PinLeakSanitizer | None = None
        if sanitizers_from_env().pins:
            self.attach_pin_sanitizer()
        # Thread-confinement guard; attached by the owning shard (see
        # repro.analysis.confine), None means unconfined.
        self.confinement: ThreadConfinement | None = None
        #: Run before an eviction or :meth:`flush_all` writes a dirty
        #: frame back; if it raises, the frames stay resident and dirty.
        self.write_ahead: Callable[[], None] | None = None

    def attach_pin_sanitizer(self) -> PinLeakSanitizer:
        """Enable pin-origin tracking (see :mod:`repro.analysis.pinleak`)."""
        if self.pin_sanitizer is None:
            self.pin_sanitizer = PinLeakSanitizer()
        return self.pin_sanitizer

    def attach_confinement(self, confinement: ThreadConfinement) -> None:
        """Confine every entry point to the claiming worker thread."""
        self.confinement = confinement

    def _confine(self, entry: str) -> None:
        if self.confinement is not None:
            self.confinement.check(entry)

    # -- core protocol ------------------------------------------------------

    def _touch(self, page: PageId) -> _Frame:
        """Make ``page`` resident and most recently used; count the access."""
        frame = self._frames.get(page)
        if frame is None:
            self.stats.misses += 1
            self._make_room()
            frame = _Frame(image=bytearray(self.disk.read_page(page)))
            self._frames[page] = frame
        else:
            self.stats.hits += 1
            self._frames.move_to_end(page)
        return frame

    def fetch(self, page: PageId) -> bytearray:
        """Pin ``page`` and return its (shared, mutable) in-memory image."""
        self._confine("BufferPool.fetch")
        frame = self._touch(page)
        frame.decoded = None  # the holder may write through the image
        frame.pin_count += 1
        if self.pin_sanitizer is not None:
            self.pin_sanitizer.record_pin(page)
        return frame.image

    def decoded(self, page: PageId, decode: Callable[[bytearray], T]) -> T:
        """What ``page`` holds, as ``decode(image)`` computed at most once
        per clean residency.

        Residency is accounted exactly as by :meth:`fetch` (hit or miss,
        LRU touch, eviction, the disk read on a miss) but no pin is taken
        and the image itself never leaves the pool.  The result is shared
        between callers, so ``decode`` must return something immutable or
        the caller must copy before editing.  It is remembered on the
        frame and forgotten when :meth:`fetch`/:meth:`fetch_new` hand the
        image out or the frame leaves the pool; while a pin is out it is
        not remembered at all.
        """
        self._confine("BufferPool.decoded")
        return self._form(page, self._touch(page), decode)

    def resident_decoded(
        self, page: PageId, decode: Callable[[bytearray], T]
    ) -> T | None:
        """What a *resident* ``page`` holds, as :meth:`decoded` would
        return it, or None when the page is not in the pool.

        Unlike :meth:`decoded` this is not an access: no hit or miss, no
        LRU touch, never a disk read.  A decode it has to run is counted
        and remembered on the frame exactly as there.
        """
        self._confine("BufferPool.resident_decoded")
        frame = self._frames.get(page)
        return None if frame is None else self._form(page, frame, decode)

    def _form(
        self, page: PageId, frame: _Frame, decode: Callable[[bytearray], T]
    ) -> T:
        """The frame's decoded form, computed (and remembered while no pin
        is out) if it has none; checked against the image under the pin
        sanitizer."""
        form = frame.decoded
        if form is None:
            self.stats.decodes += 1
            form = decode(frame.image)
            if not frame.pin_count:
                frame.decoded = form
        elif self.pin_sanitizer is not None and decode(frame.image) != form:
            raise InvariantViolation(
                f"page {page}: the frame's decoded form no longer matches its "
                f"image (the image was written without a pin)"
            )
        return form

    def fetch_new(self, page: PageId, image: bytes | bytearray) -> bytearray:
        """Install a freshly built page image without reading the disk.

        Used when a page has just been allocated: its on-disk content is
        garbage, so reading it would charge I/O for bytes nobody needs.
        The frame starts dirty and pinned.
        """
        self._confine("BufferPool.fetch_new")
        existing = self._frames.get(page)
        if existing is not None and existing.pin_count:
            raise AllPagesPinned(f"page {page} is pinned and cannot be replaced")
        if existing is not None:
            del self._frames[page]
        self._make_room()
        frame = _Frame(image=bytearray(image), pin_count=1, dirty=True)
        self._frames[page] = frame
        if self.pin_sanitizer is not None:
            self.pin_sanitizer.record_pin(page)
        return frame.image

    def put_new(self, page: PageId, image: bytes | bytearray) -> None:
        """Install a freshly built page image and release it at once.

        The paired form of :meth:`fetch_new` for callers that do not
        need to keep the page pinned: the frame lands dirty and
        immediately unpinned, so no pin can leak.
        """
        self.fetch_new(page, image)
        self.unpin(page, dirty=True)

    def unpin(self, page: PageId, *, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` schedules write-back."""
        self._confine("BufferPool.unpin")
        frame = self._frames.get(page)
        if frame is None or frame.pin_count == 0:
            raise PageNotPinned(f"page {page} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty
        if self.pin_sanitizer is not None:
            self.pin_sanitizer.record_unpin(page)

    @contextlib.contextmanager
    def page(self, page: PageId, *, dirty: bool = False) -> Iterator[bytearray]:
        """``with`` form of fetch/unpin.

        ``dirty=True`` marks the page dirty on release (for mutating
        callers); otherwise mark it mid-block via :meth:`mark_dirty`.
        """
        image = self.fetch(page)
        try:
            yield image
        finally:
            self.unpin(page, dirty=dirty)

    def mark_dirty(self, page: PageId) -> None:
        """Mark a currently resident page dirty without changing pins."""
        self._confine("BufferPool.mark_dirty")
        frame = self._frames.get(page)
        if frame is None:
            raise PageNotPinned(f"page {page} is not resident")
        frame.dirty = True

    # -- write-back ---------------------------------------------------------

    def flush_page(self, page: PageId) -> None:
        """Write one dirty frame back to disk (no-op if clean or absent)."""
        self._confine("BufferPool.flush_page")
        frame = self._frames.get(page)
        if frame is not None and frame.dirty:
            self.disk.write_page(page, frame.image)
            self.stats.writebacks += 1
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay resident)."""
        self._confine("BufferPool.flush_all")
        if self.write_ahead is not None and any(
            frame.dirty for frame in self._frames.values()
        ):
            self.write_ahead()
        for page in list(self._frames):
            self.flush_page(page)

    def drop(self, page: PageId) -> None:
        """Discard a frame without write-back (page was freed)."""
        self._confine("BufferPool.drop")
        frame = self._frames.get(page)
        if frame is not None:
            if frame.pin_count:
                raise AllPagesPinned(f"page {page} is pinned and cannot be dropped")
            del self._frames[page]

    def clear(self) -> None:
        """Flush everything and empty the pool (simulates a cold cache)."""
        self._confine("BufferPool.clear")
        self.flush_all()
        for page, frame in self._frames.items():
            if frame.pin_count:
                raise AllPagesPinned(f"page {page} is pinned; cannot clear pool")
        self._frames.clear()

    # -- eviction -----------------------------------------------------------

    def _make_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        # Scan oldest-first.  A pinned frame at the LRU end is rotated to
        # the MRU end rather than skipped in place: it is in active use,
        # and rotating keeps the next scan O(unpinned-prefix) instead of
        # re-walking the same pinned run on every eviction.
        for _ in range(len(self._frames)):
            page, frame = next(iter(self._frames.items()))
            if frame.pin_count:
                self._frames.move_to_end(page)
                continue
            if frame.dirty:
                if self.write_ahead is not None:
                    self.write_ahead()
                self.disk.write_page(page, frame.image)
                self.stats.writebacks += 1
            del self._frames[page]
            self.stats.evictions += 1
            return
        raise AllPagesPinned(
            f"all {self.capacity} buffer frames are pinned; cannot evict"
        )

    # -- introspection ------------------------------------------------------

    def resident(self, page: PageId) -> bool:
        """True if the page is currently cached (used by tests)."""
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)
