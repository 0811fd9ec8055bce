"""Storage-health observability: fragmentation, layout, and heat.

EOS's own experiments (PAPER.md Section 4) measure allocation cost on
*fresh* volumes; long-object stores degrade as free space fragments
over weeks of churn (Sears & van Ingen, PAPERS.md).  This module is the
measurement half of the ROADMAP's "fragmentation aging + online
compaction" item: the future compactor (and today's operators) get to
*see* volume health instead of guessing.

Three layers:

* :func:`collect_volume_health` walks the buddy allocation maps and the
  catalogued objects' positional trees into one :class:`VolumeHealth`
  snapshot — per-space free-extent histograms, a fragmentation index
  (``1 - largest_free_extent / total_free``), utilization, and
  per-object *layout* stats (extent count, contiguity ratio, estimated
  seeks/MB for a full scan, CoW page-sharing ratio across the version
  chain).
* :class:`HeatTracker` keeps exponentially-decayed per-object read and
  write temperatures, fed by the server's request accounting, so
  hot-but-fragmented objects are rankable.
* :class:`HealthMonitor` samples health on an interval from a daemon
  thread, publishes aggregates to the metrics registry (``health.*``
  series; per-shard ``eos_frag_index{shard=...}`` gauges come from the
  exposition layer), and appends every sample to an append-only
  ``health.jsonl`` time series.

Thread confinement (EOS008): the collector reads buddy directories and
object index pages *through the buffer pool*.  On a served database
those structures belong to the shard worker, so the monitor submits the
walk via ``shard.submit(collect_volume_health, shard.db)`` — exactly
the pattern :func:`repro.server.expo._space_doc` uses — and only walks
inline (under ``db.op_lock``) for unserved databases.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

from repro.buddy.stats import extent_size_histogram, free_extents
from repro.util.bitops import ceil_div

#: Default seconds between background samples (also the rate limit for
#: explicit ``sample_once`` calls).
DEFAULT_INTERVAL_S = 5.0

#: Default cap on objects walked per sample, bounding sampling cost on
#: volumes with large catalogs (``None`` = walk everything).
DEFAULT_MAX_OBJECTS = 64


# ---------------------------------------------------------------------------
# The collector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectLayout:
    """How one object's bytes are laid out on disk."""

    oid: int
    size_bytes: int
    #: Leaf segments in the positional tree.
    extents: int
    #: Physically contiguous disk runs those extents merge into.
    runs: int
    leaf_pages: int
    #: 1.0 when every adjacent extent pair abuts on disk, 0.0 when none do.
    contiguity: float
    #: Disk runs a full sequential scan visits, per MiB of content
    #: (index pages excluded — they are read once, not per-MB).
    est_seeks_per_mb: float
    #: ``1 - distinct_pages / total_page_refs`` across the version
    #: chain; None on an unversioned database.
    cow_sharing: float | None = None
    #: Buddy space holding the object's first extent (-1 when empty);
    #: the compaction planner's coldest-space ordering key.
    home_space: int = -1
    #: Every buddy space the object's extents touch (extents never span
    #: space boundaries), and on an unversioned database its root's,
    #: which a relocation moves with the data; the evacuation pass
    #: selects victims by it.
    spaces: tuple[int, ...] = ()
    #: Leaf pages past what the bytes need: the tail segment's spare
    #: pages (at most T - 1 after any ``op_*`` except a create whose
    #: size hint exceeds its data).
    spare_pages: int = 0

    def to_doc(self) -> dict:
        """A JSON-ready document for one object's layout."""
        doc = {
            "oid": self.oid,
            "size_bytes": self.size_bytes,
            "extents": self.extents,
            "runs": self.runs,
            "leaf_pages": self.leaf_pages,
            "spare_pages": self.spare_pages,
            "contiguity": round(self.contiguity, 4),
            "est_seeks_per_mb": round(self.est_seeks_per_mb, 3),
            "home_space": self.home_space,
        }
        if self.cow_sharing is not None:
            doc["cow_sharing"] = round(self.cow_sharing, 4)
        return doc


@dataclass(frozen=True)
class SpaceHealth:
    """Free-space quality of one buddy space."""

    index: int
    capacity: int
    free_pages: int
    free_extent_count: int
    largest_free_extent: int
    #: Extent count per power-of-two bucket (upper-inclusive key).
    free_extent_histogram: dict[int, int]

    @property
    def utilization(self) -> float:
        if not self.capacity:
            return 0.0
        return 1.0 - self.free_pages / self.capacity

    @property
    def frag_index(self) -> float:
        """1 - largest_free_extent/free_pages: 0 when free space is one run."""
        if not self.free_pages:
            return 0.0
        return 1.0 - self.largest_free_extent / self.free_pages

    def to_doc(self) -> dict:
        """A JSON-ready document for one space's free-extent picture."""
        return {
            "index": self.index,
            "capacity": self.capacity,
            "free_pages": self.free_pages,
            "free_extent_count": self.free_extent_count,
            "largest_free_extent": self.largest_free_extent,
            "free_extent_histogram": {
                str(k): v for k, v in self.free_extent_histogram.items()
            },
            "utilization": round(self.utilization, 4),
            "frag_index": round(self.frag_index, 4),
        }


@dataclass(frozen=True)
class VolumeHealth:
    """One point-in-time health snapshot of a whole database volume."""

    page_size: int
    spaces: list[SpaceHealth]
    objects: list[ObjectLayout]
    #: Catalogued object count (``objects`` may be a truncated sample).
    objects_total: int

    # -- volume-wide rollups ------------------------------------------------

    @property
    def total_pages(self) -> int:
        return sum(s.capacity for s in self.spaces)

    @property
    def free_pages(self) -> int:
        return sum(s.free_pages for s in self.spaces)

    @property
    def free_extent_count(self) -> int:
        return sum(s.free_extent_count for s in self.spaces)

    @property
    def largest_free_extent(self) -> int:
        # Extents never span space boundaries (each space has its own
        # directory page between data regions), so the volume-wide
        # largest is the max over spaces.
        return max((s.largest_free_extent for s in self.spaces), default=0)

    @property
    def utilization(self) -> float:
        total = self.total_pages
        if not total:
            return 0.0
        return 1.0 - self.free_pages / total

    @property
    def spare_pages(self) -> int:
        """Spare tail pages over the sampled objects: allocated pages
        that hold no byte."""
        return sum(o.spare_pages for o in self.objects)

    @property
    def frag_index(self) -> float:
        free = self.free_pages
        if not free:
            return 0.0
        return 1.0 - self.largest_free_extent / free

    @property
    def free_extent_histogram(self) -> dict[int, int]:
        merged: dict[int, int] = {}
        for space in self.spaces:
            for bucket, count in space.free_extent_histogram.items():
                merged[bucket] = merged.get(bucket, 0) + count
        return dict(sorted(merged.items()))

    def worst_objects(self, k: int = 8) -> list[ObjectLayout]:
        """The sampled objects ranked worst-layout-first (seeks/MB)."""
        ranked = sorted(
            self.objects, key=lambda o: (-o.est_seeks_per_mb, o.oid)
        )
        return ranked[:k]

    def mean_contiguity(self) -> float:
        """Mean contiguity over the sampled objects (1.0 when none)."""
        if not self.objects:
            return 1.0
        return sum(o.contiguity for o in self.objects) / len(self.objects)

    def mean_seeks_per_mb(self) -> float:
        """Mean estimated seeks/MB over the sampled objects."""
        if not self.objects:
            return 0.0
        return sum(o.est_seeks_per_mb for o in self.objects) / len(self.objects)

    def mean_cow_sharing(self) -> float | None:
        """Mean CoW page-sharing ratio, or ``None`` without versioning."""
        shared = [o.cow_sharing for o in self.objects if o.cow_sharing is not None]
        if not shared:
            return None
        return sum(shared) / len(shared)

    def to_doc(self, *, top_objects: int = 8) -> dict:
        """A JSON-ready document (jsonl sample / HEALTH status section)."""
        sampled = self.objects
        doc = {
            "page_size": self.page_size,
            "total_pages": self.total_pages,
            "free_pages": self.free_pages,
            "utilization": round(self.utilization, 4),
            "frag_index": round(self.frag_index, 4),
            "largest_free_extent": self.largest_free_extent,
            "free_extent_count": self.free_extent_count,
            "free_extent_histogram": {
                str(k): v for k, v in self.free_extent_histogram.items()
            },
            "spaces": [s.to_doc() for s in self.spaces],
            "objects": {
                "count": self.objects_total,
                "sampled": len(sampled),
                "spare_pages": self.spare_pages,
                "worst": [o.to_doc() for o in self.worst_objects(top_objects)],
            },
        }
        if sampled:
            doc["objects"]["mean_contiguity"] = round(self.mean_contiguity(), 4)
            doc["objects"]["mean_seeks_per_mb"] = round(
                self.mean_seeks_per_mb(), 3
            )
        sharing = self.mean_cow_sharing()
        if sharing is not None:
            doc["objects"]["cow_sharing"] = round(sharing, 4)
        return doc


def _object_layout(db, obj, *, cow_sharing: bool) -> ObjectLayout:
    entries = obj.segments()
    extents = len(entries)
    leaf_pages = sum(entry.pages for _, entry in entries)
    needed = sum(ceil_div(entry.count, db.config.page_size) for _, entry in entries)
    runs = obj.extent_runs()
    size = obj.size()
    if extents > 1:
        contiguity = (extents - len(runs)) / (extents - 1)
    else:
        contiguity = 1.0
    mib = size / (1 << 20)
    est_seeks = len(runs) / mib if mib > 0 else 0.0
    pages = {first for first, _ in runs}
    if db.versions is None:
        pages.add(obj.root_page)
    sharing = None
    oid = getattr(obj, "oid", -1)
    if cow_sharing and db.versions is not None and oid >= 0:
        total_refs, distinct = db.versions.sharing_stats(oid)
        sharing = 1.0 - distinct / total_refs if total_refs else 0.0
    return ObjectLayout(
        oid=oid,
        size_bytes=size,
        extents=extents,
        runs=len(runs),
        leaf_pages=leaf_pages,
        contiguity=contiguity,
        est_seeks_per_mb=est_seeks,
        cow_sharing=sharing,
        home_space=db.buddy.space_of(runs[0][0]) if runs else -1,
        spaces=tuple(sorted({db.buddy.space_of(page) for page in pages})),
        spare_pages=leaf_pages - needed,
    )


def collect_volume_health(
    db,
    *,
    max_objects: int | None = DEFAULT_MAX_OBJECTS,
    cow_sharing: bool = True,
) -> VolumeHealth:
    """Walk the allocator and object trees into one health snapshot.

    Buddy directories and object index pages are read through the
    buffer pool, so on a served database this must run on the owning
    shard's worker — submit it via ``shard.submit(collect_volume_health,
    shard.db)`` (EOS008); an unserved database is walked inline.  The
    op lock serialises the walk against mutations either way.

    ``max_objects`` bounds the per-object layout pass (``None`` walks
    the whole catalog, ``0`` skips it); the space pass always covers
    every buddy space.
    """
    with db.op_lock:
        spaces: list[SpaceHealth] = []
        for index in range(db.volume.n_spaces):
            space = db.buddy.load_space(index)
            extents = free_extents(space.amap.decode())
            sizes = [pages for _, pages in extents]
            spaces.append(
                SpaceHealth(
                    index=index,
                    capacity=space.capacity,
                    free_pages=sum(sizes),
                    free_extent_count=len(extents),
                    largest_free_extent=max(sizes, default=0),
                    free_extent_histogram=extent_size_histogram(sizes),
                )
            )
        catalog = db.objects()
        sample = catalog if max_objects is None else catalog[:max_objects]
        layouts = [
            _object_layout(db, obj, cow_sharing=cow_sharing) for obj in sample
        ]
    return VolumeHealth(
        page_size=db.config.page_size,
        spaces=spaces,
        objects=layouts,
        objects_total=len(catalog),
    )


# ---------------------------------------------------------------------------
# Heat
# ---------------------------------------------------------------------------


class HeatTracker:
    """Exponentially-decayed per-object read/write temperatures.

    Every :meth:`touch` adds one unit of heat to the object's read or
    write temperature; temperatures halve every ``half_life_s`` seconds
    of inactivity, so recent traffic dominates.  The table is bounded:
    when full, the coldest entry is evicted to make room.  Thread-safe
    (the server's request path and the monitor both call in).
    """

    def __init__(
        self,
        *,
        half_life_s: float = 300.0,
        max_objects: int = 1024,
        clock=time.monotonic,
    ) -> None:
        if half_life_s <= 0:
            raise ValueError(f"half_life_s must be positive, got {half_life_s}")
        self.half_life_s = half_life_s
        self.max_objects = max_objects
        self._clock = clock
        self._lock = threading.Lock()
        # oid -> [read_temp, write_temp, last_decay_ts]
        self._table: dict[int, list[float]] = {}

    def _decay(self, entry: list[float], now: float) -> None:
        dt = now - entry[2]
        if dt > 0:
            factor = 0.5 ** (dt / self.half_life_s)
            entry[0] *= factor
            entry[1] *= factor
            entry[2] = now

    def touch(self, oid: int, *, write: bool = False, weight: float = 1.0) -> None:
        """Record one operation against ``oid``."""
        now = self._clock()
        with self._lock:
            entry = self._table.get(oid)
            if entry is None:
                if len(self._table) >= self.max_objects:
                    coldest = min(
                        self._table,
                        key=lambda o: self._table[o][0] + self._table[o][1],
                    )
                    del self._table[coldest]
                entry = self._table[oid] = [0.0, 0.0, now]
            self._decay(entry, now)
            if write:
                entry[1] += weight
            else:
                entry[0] += weight

    def top(self, k: int = 8) -> list[dict]:
        """The hottest objects, as JSON-ready rows, hottest first."""
        now = self._clock()
        with self._lock:
            rows = []
            for oid, entry in self._table.items():
                self._decay(entry, now)
                rows.append(
                    {
                        "oid": oid,
                        "read": round(entry[0], 3),
                        "write": round(entry[1], 3),
                        "heat": round(entry[0] + entry[1], 3),
                    }
                )
        rows.sort(key=lambda r: (-r["heat"], r["oid"]))
        return rows[:k]

    def snapshot(self) -> dict[int, tuple[float, float]]:
        """All tracked temperatures as ``oid -> (read, write)``, decayed.

        The compaction planner scores a whole victim list against one
        consistent heat picture, so it takes one snapshot per plan.
        """
        now = self._clock()
        with self._lock:
            out = {}
            for oid, entry in self._table.items():
                self._decay(entry, now)
                out[oid] = (entry[0], entry[1])
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)


# ---------------------------------------------------------------------------
# The background monitor
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Rate-limited background sampler of volume health.

    Targets either one unserved database (``db=``, walked inline) or a
    list of shard-like objects (``shards=``, each with ``index``,
    ``alive``, ``db`` and ``submit``; every sample runs on the shard's
    worker thread so the walk respects thread confinement).  Each tick
    produces one document per target, updates the registry's
    ``health.*`` instruments, appends the documents to
    ``<health_dir>/health.jsonl``, and caches them for the HEALTH
    section of :func:`repro.server.expo.status_snapshot`.

    Explicit :meth:`sample_once` calls are rate-limited to the sampling
    interval (scrape storms must not turn into directory-walk storms);
    pass ``force=True`` to bypass, as the paced background loop does.
    """

    def __init__(
        self,
        db=None,
        *,
        shards=None,
        interval_s: float = DEFAULT_INTERVAL_S,
        health_dir: str | os.PathLike | None = None,
        registry=None,
        max_objects: int | None = DEFAULT_MAX_OBJECTS,
        cow_sharing: bool = True,
        top_heat: int = 8,
        heat_half_life_s: float = 300.0,
    ) -> None:
        if (db is None) == (shards is None):
            raise ValueError("pass exactly one of db= or shards=")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.db = db
        self.shards = list(shards) if shards is not None else None
        self.interval_s = interval_s
        self.health_dir = os.fspath(health_dir) if health_dir is not None else None
        self.registry = registry
        self.max_objects = max_objects
        self.cow_sharing = cow_sharing
        self.top_heat = top_heat
        self.heat = HeatTracker(half_life_s=heat_half_life_s)
        self.samples_taken = 0
        self.total_sample_ms = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._last_docs: list[dict] = []
        self._last_ts = 0.0
        if self.health_dir is not None:
            os.makedirs(self.health_dir, exist_ok=True)

    @property
    def jsonl_path(self) -> str | None:
        if self.health_dir is None:
            return None
        return os.path.join(self.health_dir, "health.jsonl")

    # -- sampling ------------------------------------------------------------

    def _targets(self):
        if self.db is not None:
            return [(None, self.db)]
        return [(shard, shard.db) for shard in self.shards]

    def sample_once(self, *, force: bool = False) -> list[dict]:
        """Take (or, within the rate limit, reuse) one sample per target."""
        now = time.time()
        with self._lock:
            fresh_enough = (
                self._last_docs and now - self._last_ts < self.interval_s
            )
            if not force and fresh_enough:
                return list(self._last_docs)
        docs: list[dict] = []
        for shard, db in self._targets():
            doc: dict = {"ts": round(time.time(), 3)}
            if shard is not None:
                doc["shard"] = shard.index
            t0 = time.perf_counter()
            try:
                if shard is not None:
                    health = shard.submit(
                        collect_volume_health,
                        db,
                        max_objects=self.max_objects,
                        cow_sharing=self.cow_sharing,
                    ).result()
                else:
                    health = collect_volume_health(
                        db,
                        max_objects=self.max_objects,
                        cow_sharing=self.cow_sharing,
                    )
                doc.update(health.to_doc(top_objects=self.top_heat))
            except Exception as exc:  # one sick target must not stop the tick
                doc["error"] = f"{exc.__class__.__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1000.0
            doc["sample_ms"] = round(ms, 3)
            self.total_sample_ms += ms
            docs.append(doc)
        self.samples_taken += 1
        self._publish(docs)
        self._persist(docs)
        with self._lock:
            self._last_docs = docs
            self._last_ts = now
        return list(docs)

    def _publish(self, docs: list[dict]) -> None:
        """Update the registry's aggregate ``health.*`` instruments."""
        registry = self.registry
        if registry is None:
            return
        registry.counter("health.samples").inc()
        for doc in docs:
            registry.histogram("health.sample_ms").observe(doc["sample_ms"])
        good = [d for d in docs if "error" not in d]
        if good:
            free = sum(d["free_pages"] for d in good)
            total = sum(d["total_pages"] for d in good)
            largest = max(d["largest_free_extent"] for d in good)
            registry.gauge("health.free_pages").set(free)
            registry.gauge("health.largest_free_extent").set(largest)
            registry.gauge("health.utilization").set(
                round(1.0 - free / total, 4) if total else 0.0
            )
            registry.gauge("health.frag_index").set(
                round(1.0 - largest / free, 4) if free else 0.0
            )
        registry.gauge("health.heat_tracked").set(len(self.heat))

    def _persist(self, docs: list[dict]) -> None:
        path = self.jsonl_path
        if path is None:
            return
        # Append-open per tick: crash-tolerant, and rotation-friendly
        # (an operator may truncate or move the file between ticks).
        with open(path, "a", encoding="utf-8") as f:
            for doc in docs:
                f.write(json.dumps(doc, sort_keys=True) + "\n")

    # -- exposition ----------------------------------------------------------

    def last(self) -> list[dict]:
        """The most recent tick's documents (empty before the first)."""
        with self._lock:
            return list(self._last_docs)

    def status_doc(self) -> dict:
        """The HEALTH section for :func:`~repro.server.expo.status_snapshot`."""
        with self._lock:
            docs = list(self._last_docs)
            ts = self._last_ts
        return {
            "interval_s": self.interval_s,
            "ts": round(ts, 3),
            "samples_taken": self.samples_taken,
            "samples": docs,
            "heat": self.heat.top(self.top_heat),
        }

    # -- lifecycle -----------------------------------------------------------

    def _loop(self) -> None:
        # An immediate first sample: a fresh server exposes health
        # before the first interval elapses.
        self.sample_once(force=True)
        while not self._stop.wait(self.interval_s):
            self.sample_once(force=True)

    def start(self) -> "HealthMonitor":
        """Start the daemon sampling thread (idempotent); returns self."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="eos-health", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None

    def __enter__(self) -> "HealthMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
