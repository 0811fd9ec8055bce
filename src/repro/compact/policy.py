"""Victim selection, pacing, and backpressure for online compaction.

The cost model ranks objects by the I/O a relocation would *save*,
weighted by how often the object is actually read:

    score = est_seeks_saved_per_mb x (1 + read_heat)

``est_seeks_saved_per_mb`` is the health collector's measured
``est_seeks_per_mb`` minus the post-compaction ideal (one seek per
maximum-size segment), so an object already laid out contiguously
scores zero and is never touched.  Read heat comes from the
:class:`~repro.obs.health.HeatTracker` the server's request accounting
feeds; a cold object still gets compacted (score floor of its seeks
saved) but a hot fragmented object always goes first.

Ties — and the question of *where* to start — are broken by space
coldness: victims whose home buddy space carries the least heat are
relocated first, so the free extents their old segments leave behind
coalesce in spaces no foreground read depends on.

Pacing is a token bucket over pages (read + written), and the
backpressure guard pauses the compactor outright when the server's
inflight depth or p99 latency says foreground traffic needs the disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.util.bitops import ceil_div

#: Ignore victims saving less than this many seeks/MB — relocating them
#: costs a full rewrite for no measurable scan improvement.
MIN_SEEKS_SAVED_PER_MB = 0.5


@dataclass(frozen=True)
class Victim:
    """One object the cost model wants relocated, with its accounting."""

    oid: int
    score: float
    seeks_saved_per_mb: float
    read_heat: float
    home_space: int
    leaf_pages: int
    runs: int


def ideal_runs(leaf_pages: int, max_segment_pages: int) -> int:
    """Disk runs a freshly compacted object of this size needs, at best."""
    if leaf_pages <= 0:
        return 0
    return ceil_div(leaf_pages, max_segment_pages)


def plan_victims(
    health,
    *,
    max_segment_pages: int,
    heat=None,
    min_seeks_saved: float = MIN_SEEKS_SAVED_PER_MB,
) -> list[Victim]:
    """Rank a health snapshot's sampled objects for relocation.

    ``health`` is a :class:`~repro.obs.health.VolumeHealth`; ``heat`` an
    optional :class:`~repro.obs.health.HeatTracker`.  Returns victims
    best-first: descending score, then coldest home space, then oid
    (so a plan over the same snapshot is deterministic).
    """
    temps = heat.snapshot() if heat is not None else {}
    space_heat: dict[int, float] = {}
    scored: list[Victim] = []
    for layout in health.objects:
        read_temp = temps.get(layout.oid, (0.0, 0.0))[0]
        space_heat[layout.home_space] = (
            space_heat.get(layout.home_space, 0.0) + read_temp
        )
        if layout.size_bytes == 0:
            continue
        mib = layout.size_bytes / (1 << 20)
        ideal = ideal_runs(layout.leaf_pages, max_segment_pages)
        saved = layout.est_seeks_per_mb - (ideal / mib if mib else 0.0)
        if saved < min_seeks_saved:
            continue
        scored.append(
            Victim(
                oid=layout.oid,
                score=saved * (1.0 + read_temp),
                seeks_saved_per_mb=saved,
                read_heat=read_temp,
                home_space=layout.home_space,
                leaf_pages=layout.leaf_pages,
                runs=layout.runs,
            )
        )
    scored.sort(
        key=lambda v: (-v.score, space_heat.get(v.home_space, 0.0), v.oid)
    )
    return scored


def plan_evacuation(health, *, heat=None) -> tuple[int | None, list[Victim]]:
    """Pick one buddy space to empty and the objects to move out of it.

    Relocating fragmented objects improves *their* layout but leaves
    free space shattered across spaces; emptying one whole space turns
    its entire capacity into a single free extent.  The pass picks the
    space that is cheapest to evacuate per page of coalesced gain:
    fewest live pages first, weighted by the read heat resting on it
    (coldest spaces first — evacuating them never contends with a
    foreground read burst).

    Returns ``(space_index, victims)``; ``(None, [])`` when no space
    would improve on the volume's current largest free extent, or when
    the snapshot sampled no objects.  Relocations for these victims
    must allocate with ``avoid_space=space_index``.
    """
    if not health.objects or len(health.spaces) <= 1:
        # Nothing sampled, or nowhere for the evacuees to go: a
        # single-space volume cannot evacuate its only space.
        return None, []
    temps = heat.snapshot() if heat is not None else {}
    by_space: dict[int, list] = {}
    space_heat: dict[int, float] = {}
    for layout in health.objects:
        read_temp = temps.get(layout.oid, (0.0, 0.0))[0]
        for index in layout.spaces:
            by_space.setdefault(index, []).append(layout)
            space_heat[index] = space_heat.get(index, 0.0) + read_temp
    current_largest = health.largest_free_extent
    best: tuple[float, int] | None = None
    for space in health.spaces:
        # Emptying this space yields one free extent of its full
        # capacity; skip spaces that cannot beat what we already have.
        if space.capacity <= current_largest:
            continue
        live = space.capacity - space.free_pages
        occupants = by_space.get(space.index, [])
        if live and not occupants:
            # Live pages belong to unsampled objects (or the catalog's
            # metadata); evacuation cannot reach them.
            continue
        cost = live * (1.0 + space_heat.get(space.index, 0.0))
        if best is None or (cost, space.index) < best:
            best = (cost, space.index)
    if best is None:
        return None, []
    index = best[1]
    victims = [
        Victim(
            oid=layout.oid,
            score=0.0,
            seeks_saved_per_mb=0.0,
            read_heat=temps.get(layout.oid, (0.0, 0.0))[0],
            home_space=layout.home_space,
            leaf_pages=layout.leaf_pages,
            runs=layout.runs,
        )
        for layout in sorted(by_space.get(index, []), key=lambda o: o.oid)
    ]
    return index, victims


class RateLimiter:
    """A token bucket over pages: ``charge`` blocks once the budget is spent.

    ``pages_per_s <= 0`` disables pacing entirely (the one-shot CLI
    path).  The bucket holds at most one second of budget, so a long
    idle period cannot bank an arbitrarily large burst.
    """

    def __init__(
        self,
        pages_per_s: float,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.pages_per_s = pages_per_s
        self._clock = clock
        self._sleep = sleep
        self._tokens = max(pages_per_s, 0.0)
        self._last = clock()
        self.slept_s = 0.0

    def charge(self, pages: int) -> float:
        """Account ``pages`` of compaction I/O; sleep off any overdraft.

        Returns the seconds slept (0.0 when within budget).  A single
        charge larger than one second's budget is allowed — it simply
        sleeps proportionally afterwards, so object size never
        deadlocks the limiter.
        """
        if self.pages_per_s <= 0 or pages <= 0:
            return 0.0
        now = self._clock()
        self._tokens = min(
            self.pages_per_s,
            self._tokens + (now - self._last) * self.pages_per_s,
        )
        self._last = now
        self._tokens -= pages
        if self._tokens >= 0:
            return 0.0
        wait = -self._tokens / self.pages_per_s
        self._sleep(wait)
        self.slept_s += wait
        self._last = self._clock()
        self._tokens = 0.0
        return wait


class BackpressureGuard:
    """Pause compaction when the server's foreground load spikes.

    Two signals, either of which pauses the compactor:

    * **inflight depth** — foreground requests occupying more than
      ``inflight_ratio`` of the server's admission limit means the disk
      already has a queue; background I/O would lengthen it.
    * **p99 latency** — the server's ``server.latency_ms`` p99 rising
      past ``p99_factor`` x the quietest p99 the guard has seen (its
      running baseline, floored at ``min_p99_ms`` so microsecond-fast
      test servers don't trip on noise).

    A guard with no server never pauses (unserved one-shot compaction).
    """

    def __init__(
        self,
        server=None,
        *,
        inflight_ratio: float = 0.5,
        p99_factor: float = 3.0,
        min_p99_ms: float = 5.0,
    ) -> None:
        self.server = server
        self.inflight_ratio = inflight_ratio
        self.p99_factor = p99_factor
        self.min_p99_ms = min_p99_ms
        self._baseline_p99: float | None = None
        self.pauses = 0

    def _p99(self) -> float | None:
        try:
            histogram = self.server.obs.metrics.histogram("server.latency_ms")
            return histogram.percentile(99)
        except (AttributeError, KeyError, TypeError):
            # Stub observability (tests, embedded servers) may lack the
            # metrics registry or the latency histogram entirely.
            return None

    def overloaded(self) -> str | None:
        """The reason compaction should pause right now, or ``None``."""
        server = self.server
        if server is None:
            return None
        inflight = getattr(server, "inflight", 0)
        limit = getattr(server, "max_inflight", 0)
        if limit and inflight > limit * self.inflight_ratio:
            self.pauses += 1
            return f"inflight {inflight}/{limit}"
        p99 = self._p99()
        if p99 is not None and p99 > 0:
            if self._baseline_p99 is None or p99 < self._baseline_p99:
                self._baseline_p99 = p99
            ceiling = max(
                self.min_p99_ms, self._baseline_p99 * self.p99_factor
            )
            if p99 > ceiling:
                self.pauses += 1
                return f"p99 {p99:.1f}ms > {ceiling:.1f}ms"
        return None
