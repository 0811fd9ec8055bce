"""The relocation engine: rewrite fragmented objects contiguously.

One relocation is a wholesale rewrite of one object into freshly
allocated segments, planned by
:func:`repro.core.reshuffle.plan_segmentation` so every new segment
obeys the T-threshold legality rule (no segment of 0 < pages < T).
The write-first / swap / free-old discipline of the edit paths is kept:
the replacement segments are fully on disk before the tree's leaf range
swaps over, and only then are the old extents freed.  On an unversioned
database the root moves with the data, onto the page in front of the
new first segment, as a create places it; when that pair cannot be had,
a root in the space an evacuation is emptying still moves out of it.

Versioning changes nothing structurally — the relocation body runs
through :meth:`~repro.api.EOSDatabase.mutate`, on a versioned database
as one version unit, so the tree pages it touches are copied (never
overwritten), the "frees" of the old extents are deferred to chain
reclamation (snapshot roots stay byte-identical; CoW-shared pages are
copied into the new version, never moved in place), and the new root
commits to a new page: a crash mid-compaction leaves the previous
version intact.

Thread confinement (EOS008): everything here touches the buddy
allocator, the pager, and segment I/O, so on a served database these
functions run on the owning shard's worker — :func:`compact_pass`
receives a ``submit`` callable and routes every substrate-touching step
through it, doing only planning, pacing, and bookkeeping on the calling
thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.compact.policy import (
    BackpressureGuard,
    RateLimiter,
    plan_evacuation,
    plan_victims,
)
from repro.core.node import Entry
from repro.core.reshuffle import pages_of, plan_segmentation
from repro.core.segio import allocate_and_write
from repro.errors import ObjectNotFound, OutOfSpace
from repro.obs.health import collect_volume_health
from repro.obs.tracer import NULL_OBS

#: Re-check the volume-wide frag index every this many relocations when
#: a ``target_frag`` goal is set (a spaces-only health walk — cheap).
FRAG_CHECK_EVERY = 8

#: Give the foreground this long to drain before an overloaded one-shot
#: pass stops early instead of waiting forever.
MAX_PAUSE_S = 10.0


@dataclass(frozen=True)
class MoveResult:
    """Accounting for one relocated object."""

    oid: int
    pages_read: int
    pages_written: int
    runs_before: int
    runs_after: int
    #: True when exact contiguous allocation failed and the rewrite fell
    #: back to best-effort (``allocate_up_to``) placement.
    fallback: bool

    def to_doc(self) -> dict:
        """JSON-ready document for status sections and span payloads."""
        return {
            "oid": self.oid,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "runs_before": self.runs_before,
            "runs_after": self.runs_after,
            "fallback": self.fallback,
        }


@dataclass
class CompactionReport:
    """One compaction pass's outcome (the wire/status progress doc)."""

    objects_moved: int = 0
    objects_skipped: int = 0
    pages_moved: int = 0
    pages_read: int = 0
    frag_before: float = 0.0
    frag_after: float = 0.0
    seeks_saved_per_mb: float = 0.0
    throttle_s: float = 0.0
    duration_ms: float = 0.0
    stopped: str = "done"
    #: Buddy space the coalescing phase chose to empty (None = no
    #: evacuation ran, or no space would beat the current largest free
    #: extent).
    evacuated_space: int | None = None
    moves: list = field(default_factory=list)

    @property
    def frag_delta(self) -> float:
        return self.frag_before - self.frag_after

    def to_doc(self, *, top_moves: int = 16) -> dict:
        """JSON-ready pass summary; keeps the ``top_moves`` largest moves."""
        return {
            "objects_moved": self.objects_moved,
            "objects_skipped": self.objects_skipped,
            "pages_moved": self.pages_moved,
            "pages_read": self.pages_read,
            "frag_before": round(self.frag_before, 4),
            "frag_after": round(self.frag_after, 4),
            "frag_delta": round(self.frag_delta, 4),
            "seeks_saved_per_mb": round(self.seeks_saved_per_mb, 3),
            "throttle_s": round(self.throttle_s, 3),
            "duration_ms": round(self.duration_ms, 3),
            "stopped": self.stopped,
            "evacuated_space": self.evacuated_space,
            "moves": [m.to_doc() for m in self.moves[:top_moves]],
        }


def _rewrite_contiguous(
    obj, *, avoid_space: int | None = None, move_root: bool = False
) -> MoveResult:
    """Rewrite ``obj`` into planned contiguous segments; the move body.

    Runs either directly on the handle (unversioned) or inside a
    version unit with the pager/buddy swapped (versioned) — the caller
    owns the handle and the locking.  Exact allocation per planned
    segment keeps non-tail segments spare-free; if the volume cannot
    supply a planned segment contiguously the rewrite falls back to the
    generic best-effort writer, which still coalesces what it can.
    ``avoid_space`` steers every allocation away from the space the
    evacuation pass is emptying.

    With ``move_root`` (unversioned only: a version unit commits its
    own new root) the root travels with the data, as a create places
    it: the first planned segment is allocated one page longer and the
    root moves onto that leading page.  When the pair does not fit one
    segment or the rewrite fell back, a root inside ``avoid_space``
    moves to a single page outside it, so an evacuation strands no root.
    """
    size = obj.size()
    runs_before = len(obj.extent_runs())
    buddy = obj.buddy
    if size == 0:
        if move_root:
            root = _root_outside(obj, avoid_space)
            if root is not None:
                obj.tree.move_root(root)
        return MoveResult(getattr(obj, "oid", -1), 0, 0, 0, 0, False)
    data = obj.read_all()
    ps = obj.config.page_size
    fallback = False
    new_entries: list[Entry] = []
    new_root = None
    try:
        plan = plan_segmentation(
            size,
            page_size=ps,
            threshold=obj.policy.base,
            max_segment_pages=buddy.max_segment_pages,
        )
        offset = 0
        for seg_bytes in plan:
            pages = pages_of(seg_bytes, ps)
            first = None
            if move_root and not new_entries and pages < buddy.max_segment_pages:
                try:
                    pair = buddy.allocate(1 + pages, avoid_space=avoid_space)
                    new_root, first = pair.first_page, pair.first_page + 1
                except OutOfSpace:
                    pass  # no exact run for the pair: the segment alone
            if first is None:
                first = buddy.allocate(pages, avoid_space=avoid_space).first_page
            obj.segio.write_segment(
                first, memoryview(data)[offset : offset + seg_bytes]
            )
            new_entries.append(Entry(seg_bytes, first, pages))
            offset += seg_bytes
    except OutOfSpace:
        # No contiguous run of the planned size: release the partial
        # rewrite and take best-effort placement instead.
        for entry in new_entries:
            buddy.free(entry.child, entry.pages)
        if new_root is not None:
            buddy.free(new_root, 1)
            new_root = None
        fallback = True
        new_entries = [
            Entry(count, ref.first_page, ref.n_pages)
            for ref, count in allocate_and_write(
                obj.segio, buddy, data, avoid_space=avoid_space
            )
        ]
    if move_root and new_root is None:
        try:
            new_root = _root_outside(obj, avoid_space)
        except OutOfSpace:
            for entry in new_entries:
                buddy.free(entry.child, entry.pages)
            raise
    dropped = obj.tree.replace_leaf_range(0, size, new_entries)
    if new_root is not None:
        obj.tree.move_root(new_root)
    pages_read = 0
    for entry in dropped:
        pages_read += entry.pages
        buddy.free(entry.child, entry.pages)
    return MoveResult(
        oid=getattr(obj, "oid", -1),
        pages_read=pages_read,
        pages_written=sum(e.pages for e in new_entries),
        runs_before=runs_before,
        runs_after=len(obj.extent_runs()),
        fallback=fallback,
    )


def _root_outside(obj, avoid_space: int | None):
    """A fresh page outside ``avoid_space`` for a root that lies in it;
    None when the root is not in the way."""
    buddy = obj.buddy
    if avoid_space is None or buddy.space_of(obj.root_page) != avoid_space:
        return None
    return buddy.allocate(1, avoid_space=avoid_space).first_page


def relocate_object(
    db, oid: int, *, avoid_space: int | None = None
) -> MoveResult:
    """Relocate one object's extents into contiguous segments.

    One :meth:`~repro.api.EOSDatabase.mutate`: under the database op
    lock, and on a versioned database one version unit, so snapshots of
    older versions keep reading their original, untouched pages.  Runs
    on the owning shard's worker when the database is served.
    """
    return db.mutate(
        oid,
        lambda o: _rewrite_contiguous(o, avoid_space=avoid_space, move_root=True),
        lambda o: _rewrite_contiguous(o, avoid_space=avoid_space),
    )


def _max_segment_pages(db) -> int:
    """The volume's maximum segment size (probed on the worker)."""
    return db.buddy.max_segment_pages


def _inline_submit(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class _PassDriver:
    """Shared pacing/accounting for the two phases of one pass."""

    def __init__(self, db, submit, report, *, target_frag, max_pages,
                 limiter, guard, metrics):
        self.db = db
        self.submit = submit
        self.report = report
        self.target_frag = target_frag
        self.max_pages = max_pages
        self.limiter = limiter
        self.guard = guard
        self.metrics = metrics
        self._since_check = 0

    def _stop_reason(self) -> str | None:
        report = self.report
        if self.target_frag is not None and report.frag_after <= self.target_frag:
            return "target_frag"
        if self.max_pages is not None and report.pages_moved >= self.max_pages:
            return "max_pages"
        if self.guard is not None:
            waited = 0.0
            reason = self.guard.overloaded()
            while reason is not None and waited < MAX_PAUSE_S:
                time.sleep(0.05)
                waited += 0.05
                reason = self.guard.overloaded()
            report.throttle_s += waited
            if reason is not None:
                return f"backpressure: {reason}"
        return None

    def refresh_frag(self) -> float:
        self.report.frag_after = self.submit(
            collect_volume_health, self.db, max_objects=0
        ).frag_index
        return self.report.frag_after

    def run(self, victims, *, avoid_space: int | None = None) -> str | None:
        """Relocate ``victims`` in order; a stop reason, or None if done."""
        report = self.report
        for victim in victims:
            reason = self._stop_reason()
            if reason is not None:
                return reason
            try:
                move = self.submit(
                    relocate_object, self.db, victim.oid,
                    avoid_space=avoid_space,
                )
            except (ObjectNotFound, OutOfSpace):
                # Deleted underneath us, or no room even best-effort:
                # skip and let a later pass retry what remains.
                report.objects_skipped += 1
                self.metrics.counter("compaction.objects_skipped").inc()
                continue
            report.objects_moved += 1
            report.pages_moved += move.pages_written
            report.pages_read += move.pages_read
            report.seeks_saved_per_mb += victim.seeks_saved_per_mb
            report.moves.append(move)
            self.metrics.counter("compaction.objects_moved").inc()
            self.metrics.counter("compaction.pages_moved").inc(
                move.pages_written
            )
            if self.limiter is not None:
                report.throttle_s += self.limiter.charge(
                    move.pages_read + move.pages_written
                )
            self._since_check += 1
            if self.target_frag is not None and self._since_check >= FRAG_CHECK_EVERY:
                self._since_check = 0
                self.refresh_frag()
        return None


def compact_pass(
    db,
    *,
    submit=None,
    heat=None,
    target_frag: float | None = None,
    max_pages: int | None = None,
    limiter: RateLimiter | None = None,
    guard: BackpressureGuard | None = None,
    max_objects: int | None = None,
    coalesce: bool = True,
    obs=None,
) -> CompactionReport:
    """One cost-model-driven compaction pass over one database.

    ``submit(fn, *args, **kwargs)`` runs substrate-touching steps —
    health walks and relocations — and defaults to calling inline for
    an unserved database; a served database passes the shard's
    ``submit(...).result()`` so every step rides the worker (EOS008).
    Between steps this thread enforces the page budget (``limiter``)
    and yields to foreground pressure (``guard``), pausing up to
    ``MAX_PAUSE_S`` before giving up the pass.

    Two phases: first the scored victims (hot fragmented objects, the
    read-path payback), then — with ``coalesce`` on — one space
    evacuation (:func:`~repro.compact.policy.plan_evacuation`), which
    is what actually rebuilds a large free extent.  Stops when both
    phases finish, the volume-wide frag index reaches ``target_frag``,
    or ``max_pages`` of writes are spent.
    """
    submit = submit or _inline_submit
    obs = obs if obs is not None else NULL_OBS
    report = CompactionReport()
    t0 = time.perf_counter()
    with obs.tracer.span("compaction.run") as span:
        health = submit(collect_volume_health, db, max_objects=max_objects,
                        cow_sharing=False)
        report.frag_before = report.frag_after = health.frag_index
        victims = plan_victims(
            health,
            max_segment_pages=submit(_max_segment_pages, db),
            heat=heat,
        )
        metrics = obs.metrics
        metrics.counter("compaction.runs").inc()
        driver = _PassDriver(
            db, submit, report, target_frag=target_frag, max_pages=max_pages,
            limiter=limiter, guard=guard, metrics=metrics,
        )
        stop = driver.run(victims)
        if stop is None and coalesce:
            # Re-snapshot: the scored phase just moved extents around.
            health = submit(collect_volume_health, db,
                            max_objects=max_objects, cow_sharing=False)
            report.frag_after = health.frag_index
            evac_space, evac_victims = plan_evacuation(health, heat=heat)
            if evac_space is not None:
                report.evacuated_space = evac_space
                stop = driver.run(evac_victims, avoid_space=evac_space)
        report.stopped = stop if stop is not None else "done"
        driver.refresh_frag()
        report.duration_ms = (time.perf_counter() - t0) * 1000.0
        metrics.gauge("compaction.frag_delta").set(round(report.frag_delta, 4))
        span.set(
            objects=report.objects_moved,
            pages=report.pages_moved,
            frag_delta=round(report.frag_delta, 4),
            stopped=report.stopped,
        )
    return report
