"""``db.stats``: one snapshot/reset/delta surface over every layer.

Before this facade, measuring a workload meant poking three counter bags
(``db.disk.stats``, ``db.pool.stats``, ``db.buddy.stats``) and manually
resetting the disk-head position for cold-cache runs.  The facade keeps
those attributes intact but gives benchmarks and examples one call:

    with db.stats.delta(cold=True) as d:
        obj.read(0, 1 << 20)
    print(d.seeks, d.page_transfers, d.hit_ratio)

:class:`StatsSnapshot` composes immutable copies of the disk, buffer
pool and allocator counters and subtracts componentwise; the forwarding
properties make the common disk numbers (``seeks``, ``page_reads`` …)
reachable without spelling the layer, so code written against
:class:`~repro.storage.iostats.IODelta` keeps working.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

from repro.storage.iostats import IOSnapshot


@dataclass(frozen=True)
class BufferSnapshot:
    """Immutable copy of the buffer pool's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    decodes: int = 0

    @property
    def accesses(self) -> int:
        """Hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over accesses (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def __sub__(self, other: "BufferSnapshot") -> "BufferSnapshot":
        """Componentwise difference."""
        return BufferSnapshot(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            writebacks=self.writebacks - other.writebacks,
            decodes=self.decodes - other.decodes,
        )


@dataclass(frozen=True)
class AllocSnapshot:
    """Immutable copy of the buddy manager's counters."""

    allocations: int = 0
    frees: int = 0
    directory_loads: int = 0
    superdirectory_skips: int = 0
    superdirectory_corrections: int = 0
    scans: int = 0
    scan_probes: int = 0

    @property
    def probes_per_scan(self) -> float:
        """Map bytes examined per jump scan (0.0 when none ran)."""
        return self.scan_probes / self.scans if self.scans else 0.0

    def __sub__(self, other: "AllocSnapshot") -> "AllocSnapshot":
        """Componentwise difference."""
        return AllocSnapshot(
            allocations=self.allocations - other.allocations,
            frees=self.frees - other.frees,
            directory_loads=self.directory_loads - other.directory_loads,
            superdirectory_skips=(
                self.superdirectory_skips - other.superdirectory_skips
            ),
            superdirectory_corrections=(
                self.superdirectory_corrections - other.superdirectory_corrections
            ),
            scans=self.scans - other.scans,
            scan_probes=self.scan_probes - other.scan_probes,
        )


class _IOForwarding:
    """Convenience properties lifting the common disk counters to the top."""

    io: IOSnapshot

    @property
    def seeks(self) -> int:
        """Disk seeks (``io.seeks``)."""
        return self.io.seeks

    @property
    def page_reads(self) -> int:
        """Pages read (``io.page_reads``)."""
        return self.io.page_reads

    @property
    def page_writes(self) -> int:
        """Pages written (``io.page_writes``)."""
        return self.io.page_writes

    @property
    def page_transfers(self) -> int:
        """Pages read plus pages written."""
        return self.io.page_transfers

    @property
    def read_calls(self) -> int:
        """Read operations issued."""
        return self.io.read_calls

    @property
    def write_calls(self) -> int:
        """Write operations issued."""
        return self.io.write_calls


@dataclass(frozen=True)
class StatsSnapshot(_IOForwarding):
    """All layers' counters at one instant; subtract to get a delta."""

    io: IOSnapshot
    buffer: BufferSnapshot
    alloc: AllocSnapshot

    @property
    def hit_ratio(self) -> float:
        """The buffer pool's hit ratio."""
        return self.buffer.hit_ratio

    def __sub__(self, other: "StatsSnapshot") -> "StatsSnapshot":
        """Componentwise difference across every layer."""
        return StatsSnapshot(
            io=self.io - other.io,
            buffer=self.buffer - other.buffer,
            alloc=self.alloc - other.alloc,
        )

    def as_dict(self) -> dict:
        """Plain-values form, for JSON sidecars and sinks."""
        return {
            "io": {
                "seeks": self.io.seeks,
                "page_reads": self.io.page_reads,
                "page_writes": self.io.page_writes,
                "read_calls": self.io.read_calls,
                "write_calls": self.io.write_calls,
            },
            "buffer": {
                "hits": self.buffer.hits,
                "misses": self.buffer.misses,
                "evictions": self.buffer.evictions,
                "writebacks": self.buffer.writebacks,
                "decodes": self.buffer.decodes,
                "hit_ratio": round(self.buffer.hit_ratio, 4),
            },
            "alloc": {
                "allocations": self.alloc.allocations,
                "frees": self.alloc.frees,
                "directory_loads": self.alloc.directory_loads,
                "superdirectory_skips": self.alloc.superdirectory_skips,
                "superdirectory_corrections": (
                    self.alloc.superdirectory_corrections
                ),
                "scans": self.alloc.scans,
                "scan_probes": self.alloc.scan_probes,
            },
        }


class StatsDelta(_IOForwarding):
    """Mutable view populated when a :meth:`DatabaseStats.delta` block exits."""

    def __init__(self) -> None:
        self.io = IOSnapshot()
        self.buffer = BufferSnapshot()
        self.alloc = AllocSnapshot()

    @property
    def hit_ratio(self) -> float:
        """The buffer pool's hit ratio over the measured block."""
        return self.buffer.hit_ratio

    def _fill(self, snapshot: StatsSnapshot) -> None:
        self.io = snapshot.io
        self.buffer = snapshot.buffer
        self.alloc = snapshot.alloc

    def as_dict(self) -> dict:
        """Plain-values form, for JSON sidecars and sinks."""
        return StatsSnapshot(
            io=self.io, buffer=self.buffer, alloc=self.alloc
        ).as_dict()


class DatabaseStats:
    """The ``db.stats`` facade bound to one database's layers."""

    def __init__(self, db) -> None:
        self._db = db

    def snapshot(self) -> StatsSnapshot:
        """Immutable copy of every layer's counters, as one object."""
        db = self._db
        pool = db.pool.stats
        alloc = db.buddy.stats
        snapshot = StatsSnapshot(
            io=db.disk.stats.snapshot(),
            buffer=BufferSnapshot(
                hits=pool.hits,
                misses=pool.misses,
                evictions=pool.evictions,
                writebacks=pool.writebacks,
                decodes=pool.decodes,
            ),
            alloc=AllocSnapshot(
                allocations=alloc.allocations,
                frees=alloc.frees,
                directory_loads=alloc.directory_loads,
                superdirectory_skips=alloc.superdirectory_skips,
                superdirectory_corrections=alloc.superdirectory_corrections,
                scans=alloc.scans,
                scan_probes=alloc.scan_probes,
            ),
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
        pool = db.pool.stats
        pool.hits = pool.misses = pool.evictions = pool.writebacks = 0
        pool.decodes = 0
        alloc = db.buddy.stats
        alloc.allocations = alloc.frees = alloc.directory_loads = 0
        alloc.superdirectory_skips = alloc.superdirectory_corrections = 0
        alloc.scans = alloc.scan_probes = 0
        db.obs.metrics.reset()

    @contextlib.contextmanager
    def delta(self, *, cold: bool = False) -> Iterator[StatsDelta]:
        """Measure a block; ``cold=True`` clears the pool and forgets the
        disk-head position first (a cold-cache run)."""
        db = self._db
        if cold:
            db.pool.clear()
            db.disk.stats.head = None
        before = self.snapshot()
        delta = StatsDelta()
        try:
            yield delta
        finally:
            delta._fill(self.snapshot() - before)
