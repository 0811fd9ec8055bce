"""The common interface the comparative experiments sweep over.

Section 2 of the paper reviews four earlier designs — System R long
fields, WiSS slices, Starburst long fields, and Exodus large objects —
and argues each satisfies some but not all of EOS's six objectives.  To
measure that, every store (including EOS itself, via
:class:`~repro.baselines.eos_adapter.EOSStore`) implements this
interface; a store raises :class:`~repro.errors.UnsupportedOperation`
for operations the original system did not provide, which is itself one
of the paper's points of comparison.

Placement: systems that allocate storage a page (or slice) at a time end
up with logically consecutive data physically scattered — "blocks that
store consecutive byte ranges of the object are scattered over a disk
volume.  As a result, reads will be slow because virtually every disk
page fetch will most likely result in a disk seek."  The
:class:`Placement` policy makes that explicit and controllable: the
``CLUSTERED`` policy allocates first-fit (a fresh, single-tenant
volume); ``SCATTERED`` spreads successive allocations round-robin across
buddy spaces, modelling an aged, shared volume.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.buddy.manager import BuddyManager, SegmentRef
from repro.errors import OutOfSpace


class Placement(enum.Enum):
    """How page-at-a-time allocations land on the volume."""

    CLUSTERED = "clustered"
    SCATTERED = "scattered"


class PlacementAllocator:
    """Wraps a BuddyManager with a placement policy for small allocations."""

    def __init__(self, buddy: BuddyManager, placement: Placement) -> None:
        self.buddy = buddy
        self.placement = placement
        self._next_space = 0

    def allocate(self, n_pages: int) -> SegmentRef:
        """Allocate ``n_pages`` under the placement policy."""
        if self.placement is Placement.CLUSTERED:
            return self.buddy.allocate(n_pages)
        # Scattered: rotate the starting space so consecutive allocations
        # land in different regions of the volume.
        n_spaces = self.buddy.volume.n_spaces
        for attempt in range(n_spaces):
            index = (self._next_space + attempt) % n_spaces
            ref = self.buddy.allocate_in(index, n_pages)
            if ref is None:
                continue
            self._next_space = (index + 1) % n_spaces
            return ref
        raise OutOfSpace(n_pages)

    def free(self, first_page: int, n_pages: int) -> None:
        """Return a previously allocated run."""
        self.buddy.free(first_page, n_pages)


@dataclass(frozen=True)
class StoreStats:
    """Space accounting every store can report for one object."""

    size_bytes: int
    data_pages: int
    meta_pages: int  # directories, descriptors, index pages

    @property
    def total_pages(self) -> int:
        return self.data_pages + self.meta_pages

    def utilization(self, page_size: int) -> float:
        """Live bytes over all allocated bytes (data + metadata)."""
        if self.total_pages == 0:
            return 0.0
        return self.size_bytes / (self.total_pages * page_size)


class LargeObjectStore(ABC):
    """A storage system for large byte-string objects.

    Handles are opaque; each store defines its own.  Stores must honour
    the byte-string semantics exactly (the cross-baseline property test
    runs all of them against one reference model) and raise
    ``UnsupportedOperation`` where the original system had no such
    operation.
    """

    #: Human-readable system name, used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def create(self, data: bytes = b"", size_hint: int | None = None) -> Any:
        """Create an object, returning a handle."""

    @abstractmethod
    def size(self, handle: Any) -> int:
        """Object size in bytes."""

    @abstractmethod
    def read(self, handle: Any, offset: int, length: int) -> bytes:
        """Read a byte range (partial reads may be unsupported)."""

    @abstractmethod
    def append(self, handle: Any, data: bytes) -> None:
        """Append bytes at the end."""

    @abstractmethod
    def replace(self, handle: Any, offset: int, data: bytes) -> None:
        """Overwrite a byte range in place."""

    @abstractmethod
    def insert(self, handle: Any, offset: int, data: bytes) -> None:
        """Insert bytes at an arbitrary offset."""

    @abstractmethod
    def delete(self, handle: Any, offset: int, length: int) -> None:
        """Delete a byte range."""

    @abstractmethod
    def delete_object(self, handle: Any) -> None:
        """Destroy the object, returning its space."""

    @abstractmethod
    def stats(self, handle: Any) -> StoreStats:
        """Space accounting."""

    # -- conveniences ---------------------------------------------------

    def read_all(self, handle: Any) -> bytes:
        """Read the whole object."""
        return self.read(handle, 0, self.size(handle))

    def supports(self, operation: str) -> bool:
        """Whether the original system provided ``operation``.

        Subclasses override; defaults to True for everything.
        """
        return True
