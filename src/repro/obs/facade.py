"""``db.stats``: one snapshot/reset/delta surface over every layer.

Before this facade, measuring a workload meant poking three counter bags
(``db.disk.stats``, ``db.pool.stats``, ``db.buddy.stats``) and manually
resetting the disk-head position for cold-cache runs.  The facade keeps
those attributes intact but gives benchmarks and examples one call:

    with db.stats.delta(cold=True) as d:
        obj.read(0, 1 << 20)
    print(d.seeks, d.page_transfers, d.hit_ratio)

:class:`StatsSnapshot` holds the disk's
:class:`~repro.storage.iostats.IOSnapshot` plus copies of the buffer
pool's :class:`~repro.storage.buffer.BufferPoolStats` and the allocator's
:class:`~repro.buddy.manager.AllocatorStats`.  Each counter is declared
once, on its layer's dataclass; the facade copies, subtracts, zeroes and
serialises them field by field, so a new counter needs no edit here.
The disk counters (``seeks``, ``page_reads`` …) also read at the top
level.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from repro.storage.iostats import IOSnapshot, difference, measure, zero

if TYPE_CHECKING:
    from repro.buddy.manager import AllocatorStats
    from repro.storage.buffer import BufferPoolStats


@dataclass
class StatsSnapshot:
    """All layers' counters at one instant, or their change over a block.

    Subtract two snapshots for a delta; :meth:`DatabaseStats.delta` fills
    one in when its block exits.
    """

    io: IOSnapshot
    buffer: BufferPoolStats
    alloc: AllocatorStats

    def __getattr__(self, name: str):
        # Only reached for names the snapshot lacks: the disk counters
        # (``seeks``, ``page_transfers`` …) read through to ``io``.
        io = vars(self).get("io")
        if io is None:
            raise AttributeError(name)
        return getattr(io, name)

    @property
    def hit_ratio(self) -> float:
        """The buffer pool's hit ratio."""
        return self.buffer.hit_ratio

    def __sub__(self, other: "StatsSnapshot") -> "StatsSnapshot":
        return difference(self, other)

    def as_dict(self) -> dict:
        """Plain-values form, for JSON sidecars and sinks."""
        doc = asdict(self)
        doc["buffer"]["hit_ratio"] = round(self.buffer.hit_ratio, 4)
        return doc


class DatabaseStats:
    """The ``db.stats`` facade bound to one database's layers."""

    def __init__(self, db) -> None:
        self._db = db

    def snapshot(self) -> StatsSnapshot:
        """A copy of every layer's counters, as one object."""
        db = self._db
        snapshot = StatsSnapshot(
            io=db.disk.stats.snapshot(),
            buffer=replace(db.pool.stats),
            alloc=replace(db.buddy.stats),
        )
        # Keep the registry's gauges current whenever somebody looks.
        metrics = db.obs.metrics
        if metrics.enabled:
            metrics.gauge("buffer.hit_ratio").set(snapshot.buffer.hit_ratio)
            metrics.gauge("buffer.resident_pages").set(len(db.pool))
        return snapshot

    def metrics(self) -> dict:
        """The observability registry's snapshot ({} when disabled)."""
        return self._db.obs.metrics.snapshot()

    def reset(self) -> None:
        """Zero every layer's counters and the metrics registry."""
        db = self._db
        db.disk.stats.reset()
        zero(db.pool.stats)
        zero(db.buddy.stats)
        db.obs.metrics.reset()

    def delta(self, *, cold: bool = False) -> AbstractContextManager[StatsSnapshot]:
        """Measure a block; ``cold=True`` clears the pool and forgets the
        disk-head position first (a cold-cache run)."""
        db = self._db
        if cold:
            db.pager.flush()
            db.pool.clear()
            db.disk.stats.head = None
        return measure(self.snapshot)
