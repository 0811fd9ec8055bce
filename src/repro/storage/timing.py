"""A disk volume that charges real wall-clock service time per transfer.

The in-memory :class:`~repro.storage.disk.DiskVolume` completes
transfers instantly, which makes "one database per disk arm" sharding
(the deployment the paper's independent buddy spaces and per-volume
ownership anticipate) unmeasurable: with zero service time, a single
worker thread is never the bottleneck.  :class:`TimedDisk` is a volume
whose two transfer primitives sleep for a modelled seek + per-page
transfer time on every accounted run.  Whether a run seeks is read off
the volume's own :class:`~repro.storage.iostats.IOStats` head — the one
head model — so the charged time always equals the counted cost:
``busy_ms == seeks * seek_ms + page_transfers * transfer_ms_per_page``.

``time.sleep`` releases the GIL, so N shards over N TimedDisks overlap
their service time exactly as N real disk arms would — that is what the
SRV2 scaling benchmark measures.  ``EOSDatabase.create(...,
disk=TimedDisk(...))`` is the usual seam.  ``peek``/``poke`` stay free —
they are unaccounted test helpers.
"""

from __future__ import annotations

import threading
import time

from repro.storage.disk import DiskVolume
from repro.storage.page import PageId


class TimedDisk(DiskVolume):
    """A volume with modelled seek/transfer service time.

    ``seek_ms`` is charged when a run does not start at the head
    position; ``transfer_ms_per_page`` is charged per page moved.  A lock
    is held across the charge and the transfer, so concurrent callers
    serialize on the device — one arm, one transfer at a time — exactly
    like a real spindle.
    """

    def __init__(
        self,
        num_pages: int,
        page_size: int = 4096,
        *,
        seek_ms: float = 0.0,
        transfer_ms_per_page: float = 0.0,
    ) -> None:
        if seek_ms < 0 or transfer_ms_per_page < 0:
            raise ValueError("service times must be >= 0")
        super().__init__(num_pages, page_size)
        self.seek_ms = seek_ms
        self.transfer_ms_per_page = transfer_ms_per_page
        self.busy_ms = 0.0  # cumulative modelled service time
        self._lock = threading.Lock()

    def _serve(self, first_page: PageId, n_pages: int, transfer, *args):
        """Run one transfer on the arm, then sleep its service time."""
        with self._lock:
            seeked = self.stats.head != first_page
            result = transfer(first_page, *args)
            delay_ms = self.transfer_ms_per_page * n_pages + self.seek_ms * seeked
            self.busy_ms += delay_ms
            if delay_ms:
                time.sleep(delay_ms / 1000.0)
            return result

    def view_pages(self, first_page: PageId, n_pages: int) -> memoryview:
        """Borrow a read-only view after the run's modelled service time."""
        return self._serve(first_page, n_pages, super().view_pages, n_pages)

    def write_pages_v(self, first_page: PageId, iovecs) -> None:
        """Vectored write after the gathered run's modelled service time."""
        n_pages = sum(memoryview(iov).nbytes for iov in iovecs) // self.page_size
        self._serve(first_page, n_pages, super().write_pages_v, iovecs)
