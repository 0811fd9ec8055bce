"""Simulated disk substrate: pages, volumes, I/O accounting, buffering.

The paper's performance claims are stated in terms of disk-head seeks and
page transfers ("the cost of the operation would be 1 disk seek plus 5
page transfers", Section 4.2).  This package provides a disk simulator
that produces exactly those counts:

* :class:`~repro.storage.disk.DiskVolume` — an array of fixed-size pages
  supporting single-page and contiguous multi-page transfers;
* :class:`~repro.storage.iostats.IOStats` — seek/transfer counters with a
  head-position model (an access that does not continue from the previous
  physical position costs a seek);
* :class:`~repro.storage.geometry.DiskGeometry` — converts counts into
  estimated milliseconds with early-1990s or modern disk constants;
* :class:`~repro.storage.buffer.BufferPool` — an LRU page cache with
  pin/unpin and dirty write-back, used for index and directory pages;
* :class:`~repro.storage.volume.Volume` — carves a disk into a header
  page plus a sequence of buddy segment spaces.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskVolume
from repro.storage.geometry import (
    DISK_1992,
    MODERN_HDD,
    MODERN_SSD,
    DiskGeometry,
)
from repro.storage.iostats import IOStats
from repro.storage.page import PageId
from repro.storage.volume import SpaceExtent, Volume

__all__ = [
    "BufferPool",
    "DiskVolume",
    "DiskGeometry",
    "DISK_1992",
    "MODERN_HDD",
    "MODERN_SSD",
    "IOStats",
    "PageId",
    "SpaceExtent",
    "Volume",
]
