"""Multi-space allocation and the superdirectory (paper Section 3.3).

A database larger than one buddy space has many directory pages, and a
naive allocator might have to visit every one of them to find a segment.
The paper's remedy is the **superdirectory**: a main-memory array holding
"the size of the largest free segment in each buddy space".  It starts
out optimistic — every space is assumed to hold a maximum-size free
segment — and is *self-correcting*: "the first wrong guess about the
maximum segment size available in a particular buddy space will correct
the superdirectory information regarding this buddy space".

:class:`BuddyManager` owns the superdirectory, translates between
physical page numbers and space-local segment addresses, and accounts
for how many directory pages each request inspects (experiment E9).
Directory pages travel through a buffer pool, so a hot directory costs
no physical I/O — matching the paper's "at most one disk access ...
regardless of the segment size" for databases that fit in one space.

In the same main-memory spirit the manager keeps each space's directory
*decoded* across calls (and with it the space's scan-start hints), so an
allocation costs in proportion to the map bytes it looks at rather than
to the size of the page.  The buffer-pool frame stays the truth: every
call still pins it, every mutation is serialised into it, and whenever
a mutation fails the decoded copy is thrown away and rebuilt from the
frame.

Directory frames live in the manager's own small buffer pool.  An
allocation outside a copy-on-write unit is written through at once (an
in-place index write may name the page right after); inside a unit
(:meth:`deferring`) an allocation, and anywhere a free, only dirties the
frame.  Every other directory write is :meth:`write_dirty`, called by
the write-order barrier alone (:meth:`repro.core.pager.InPlacePager.flush`;
INTERNALS, "Write order").  A crash can then leak freed pages, which
fsck reports, and never leave a page claimed twice.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from repro.analysis.buddycheck import check_scan_hints, check_space
from repro.analysis.confine import ThreadConfinement
from repro.analysis.sanitize import sanitizers_from_env
from repro.buddy.space import BuddySpace, ScanStats
from repro.concurrency.latch import Latch
from repro.errors import BadSegment, InvariantViolation, OutOfSpace, SegmentTooLarge
from repro.obs.tracer import NULL_OBS, Observability
from repro.storage.buffer import BufferPool
from repro.storage.page import PageId
from repro.storage.volume import Volume
from repro.util.bitops import ceil_log2


class SegmentRef(NamedTuple):
    """A physically contiguous run of pages handed out by the allocator."""

    first_page: PageId
    n_pages: int

    @property
    def end(self) -> PageId:
        return self.first_page + self.n_pages


@dataclass
class AllocatorStats:
    """Counters for the allocation-cost experiments (E1, E9)."""

    allocations: int = 0
    frees: int = 0
    directory_loads: int = 0       # directory pages inspected (buffered or not)
    superdirectory_skips: int = 0  # spaces skipped thanks to the superdirectory
    superdirectory_corrections: int = 0  # wrong optimistic guesses corrected
    scans: int = 0                 # jump scans run (Section 3.1)
    scan_probes: int = 0           # map bytes those scans examined

    @property
    def probes_per_scan(self) -> float:
        """Map bytes examined per jump scan (0.0 when none ran)."""
        return self.scan_probes / self.scans if self.scans else 0.0


class BuddyManager:
    """Allocate and free physically contiguous page runs across buddy spaces."""

    def __init__(
        self,
        volume: Volume,
        *,
        use_superdirectory: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.volume = volume
        #: The directory frames: this manager's own, never shared.
        self.pool = BufferPool(volume.disk, capacity=volume.n_spaces + 8)
        self.use_superdirectory = use_superdirectory
        self.obs = obs if obs is not None else NULL_OBS
        self.stats = AllocatorStats()
        self.page_size = volume.disk.page_size
        # "Initially, it indicates that each buddy space available in the
        # system contains a free segment of the maximum size possible.
        # This information may be erroneous."
        probe = BuddySpace(self.page_size, volume.space_capacity)
        self.max_type = probe.max_type
        self.max_segment_pages = probe.max_segment_pages
        self._super = [self.max_type] * volume.n_spaces
        # The decoded directory of each space, kept across calls (None
        # until first use and again after any failed mutation).  Trusted
        # only as a mirror of the directory page's buffer-pool frame.
        self._decoded: list[BuddySpace | None] = [None] * volume.n_spaces
        # Inside a copy-on-write unit allocations only dirty the frame.
        self._deferring = False
        # The superdirectory is latched, not transaction-locked, "otherwise
        # it would quickly become a hot spot".
        self.superdirectory_latch = Latch("superdirectory")
        # Debug-mode invariant checking: revalidate a space's directory
        # right after every alloc/free (see repro.analysis.buddycheck).
        self.check_invariants = sanitizers_from_env().buddy
        # Thread-confinement guard; attached by the owning shard (see
        # repro.analysis.confine), None means unconfined.
        self.confinement: ThreadConfinement | None = None

    def attach_invariant_sanitizer(self) -> None:
        """Enable post-operation directory revalidation on this manager."""
        self.check_invariants = True

    def attach_confinement(self, confinement: ThreadConfinement) -> None:
        """Confine alloc/free entry points to the claiming worker thread."""
        self.confinement = confinement

    def _confine(self, entry: str) -> None:
        if self.confinement is not None:
            self.confinement.check(entry)

    def _check_after(self, operation: str, index: int, space: BuddySpace) -> None:
        # The in-memory space is checked (not a reload) so the sanitizer
        # perturbs no I/O accounting and sees exactly what will be stored.
        check = check_space(space)
        problems = check.problems or check_scan_hints(space, check.segments)
        if problems:
            raise InvariantViolation(
                f"buddy space {index} inconsistent after {operation}: "
                + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Formatting and directory paging
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, volume: Volume, **kwargs: object) -> "BuddyManager":
        """Write fresh (fully free) directories for every space."""
        manager = cls(volume, **kwargs)  # type: ignore[arg-type]
        for extent in volume.spaces:
            space = BuddySpace.create(manager.page_size, extent.capacity)
            volume.disk.write_page(extent.directory_page, space.to_page())
        return manager

    def load_space(self, index: int) -> BuddySpace:
        """Fetch a space's directory page and decode it.

        Always decodes what the page holds — fsck, the health collector
        and ``inspect`` judge the stored directory, not the manager's
        decoded copy of it.
        """
        self.stats.directory_loads += 1
        extent = self.volume.spaces[index]
        with self.pool.page(extent.directory_page) as image:
            return BuddySpace.from_page(self.page_size, image)

    def store_space(self, index: int, space: BuddySpace) -> None:
        """Write a space's directory back through the buffer pool.

        A directory stored from outside replaces whatever the manager had
        decoded: its copy is dropped and rebuilt from the page on next use.
        """
        self._decoded[index] = None
        self._write_directory(index, space, force=True)

    def decoded_space(self, index: int) -> BuddySpace | None:
        """The decoded directory currently held for a space, if any.

        For the invariant checker (``check_manager``); no I/O, no pin.
        """
        return self._decoded[index]

    def _pinned_space(self, index: int) -> BuddySpace:
        """Pin a space's directory page and return its decoded form.

        The alloc/free path's :meth:`load_space`: same pin, same
        hit-or-modelled-read, but the page is decoded only when no
        decoded copy is held.
        """
        self.stats.directory_loads += 1
        extent = self.volume.spaces[index]
        with self.pool.page(extent.directory_page) as image:
            space = self._decoded[index]
            if space is None:
                space = BuddySpace.from_page(self.page_size, image)
                self._decoded[index] = space
            elif self.check_invariants and space.to_page() != image:
                self._decoded[index] = None
                raise InvariantViolation(
                    f"buddy space {index}: the decoded directory no longer "
                    f"matches its page (the page was written behind the "
                    f"manager's back)"
                )
        return space

    def _write_directory(
        self, index: int, space: BuddySpace, *, force: bool
    ) -> None:
        """Serialise ``space`` into its pinned frame; write it through if
        ``force``, else leave the frame dirty for the next write.

        If a forced flush fails the frame gets its previous image back, so
        the pool never shows an allocation the disk write did not follow.
        (Packing validates before it writes, so it cannot tear the frame.)
        """
        page = self.volume.spaces[index].directory_page
        with self.pool.page(page, dirty=True) as image:
            before = bytes(image) if force else b""
            space.to_page(into=image)
        if force:
            try:
                self.pool.flush_page(page)
            except BaseException:
                with self.pool.page(page) as image:
                    image[:] = before
                raise

    @contextmanager
    def deferring(self) -> Iterator[None]:
        """Inside the block an allocation only dirties its frame.

        For a copy-on-write unit, whose pages nothing can reference
        before its switch point, where the barrier writes them.
        """
        self._deferring = True
        try:
            yield
        finally:
            self._deferring = False

    def write_dirty(self) -> None:
        """Write every directory page whose frame is ahead of the disk,
        once each: the second half of the write-order barrier.

        A failed write leaves the frame as it is: the unit that forced it
        aborts, and its frees bring the frame back to the pre-unit state.
        """
        for extent in self.volume.spaces:
            self.pool.flush_page(extent.directory_page)

    def _account_scans(self, ran: ScanStats) -> None:
        """Fold the jump scans one space operation ran into the stats."""
        if ran.scans:
            self.stats.scans += ran.scans
            self.stats.scan_probes += ran.probes
            self.obs.metrics.histogram("buddy.scan.probes").observe(ran.probes)

    def _update_guess(self, index: int, space: BuddySpace) -> None:
        with self.superdirectory_latch:
            self._super[index] = space.max_free_type()

    def superdirectory(self) -> list[int]:
        """A copy of the current guesses (max free type per space)."""
        with self.superdirectory_latch:
            return list(self._super)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(
        self, n_pages: int, *, avoid_space: int | None = None
    ) -> SegmentRef:
        """Allocate ``n_pages`` contiguous pages from some space.

        Raises :class:`OutOfSpace` when no space can satisfy the request,
        and :class:`SegmentTooLarge` above the maximum segment size (the
        large object manager splits such objects across segments).
        ``avoid_space`` excludes one space from consideration — the
        compactor's evacuation pass steers relocations away from the
        space it is emptying.
        """
        self._confine("BuddyManager.allocate")
        if n_pages > self.max_segment_pages:
            raise SegmentTooLarge(n_pages, self.max_segment_pages)
        with self.obs.tracer.span("buddy.alloc", pages=n_pages) as span:
            self.stats.allocations += 1
            ref = self._try_allocate(n_pages, exact=True, avoid=avoid_space)
            if ref is None:
                raise OutOfSpace(n_pages)
            span.set(first_page=ref.first_page)
            self.obs.metrics.histogram("buddy.alloc.pages").observe(ref.n_pages)
            return ref

    def allocate_up_to(
        self, n_pages: int, *, avoid_space: int | None = None
    ) -> SegmentRef:
        """Allocate the largest contiguous run available, at most ``n_pages``."""
        self._confine("BuddyManager.allocate_up_to")
        want = min(n_pages, self.max_segment_pages)
        with self.obs.tracer.span("buddy.alloc", pages=want, up_to=True) as span:
            self.stats.allocations += 1
            ref = self._try_allocate(want, exact=True, avoid=avoid_space)
            if ref is None:
                ref = self._try_allocate(want, exact=False, avoid=avoid_space)
            if ref is None:
                raise OutOfSpace(n_pages)
            span.set(first_page=ref.first_page, granted=ref.n_pages)
            self.obs.metrics.histogram("buddy.alloc.pages").observe(ref.n_pages)
            return ref

    def _space_order(
        self, guesses: list[int], *, exact: bool, avoid: int | None = None
    ) -> list[int]:
        """Spaces to probe, in order.

        Exact requests go first-fit (keeps related data clustered in low
        spaces); best-effort requests try the space the superdirectory
        (``guesses``) believes has the largest free segment first.
        ``avoid`` drops one space from the candidates entirely.
        """
        indices = [i for i in range(self.volume.n_spaces) if i != avoid]
        if not exact and self.use_superdirectory:
            indices.sort(key=lambda i: guesses[i], reverse=True)
        return indices

    def _try_allocate(
        self, n_pages: int, *, exact: bool, avoid: int | None = None
    ) -> SegmentRef | None:
        needed_type = ceil_log2(n_pages) if exact else 0
        # One latched read of the guesses serves the whole request: a
        # guess only changes for a space this loop has already visited.
        guesses = self.superdirectory()
        for index in self._space_order(guesses, exact=exact, avoid=avoid):
            if self.use_superdirectory and guesses[index] < needed_type:
                # "...to eliminate unnecessary access to an individual
                # buddy space directory, if the maximum segment size in
                # that space is less than the one requested."
                self.stats.superdirectory_skips += 1
                continue
            space = self._pinned_space(index)
            space.scan_stats = ran = ScanStats()  # this operation's scans only
            try:
                if exact:
                    start = space.allocate(n_pages)
                    got = n_pages
                else:
                    start, got = space.allocate_up_to(n_pages) or (None, 0)
                self._account_scans(ran)
                if start is None:
                    if self.use_superdirectory:
                        self.stats.superdirectory_corrections += 1
                    self._update_guess(index, space)
                    continue
                if self.check_invariants:
                    self._check_after("allocate", index, space)
                self._write_directory(index, space, force=not self._deferring)
            except BaseException:
                # The frame still holds the last good directory; the
                # half-applied decoded copy (and its hints) must go.
                self._decoded[index] = None
                raise
            self._update_guess(index, space)
            extent = self.volume.spaces[index]
            return SegmentRef(extent.to_physical(start), got)
        return None

    # ------------------------------------------------------------------
    # Deallocation
    # ------------------------------------------------------------------

    def free(self, first_page: PageId, n_pages: int) -> None:
        """Free any previously allocated run (whole segments or portions)."""
        self._confine("BuddyManager.free")
        if n_pages <= 0:
            raise ValueError(f"free size must be positive, got {n_pages}")
        extent = self.volume.space_of_physical(first_page)
        local = extent.to_local(first_page)
        if local + n_pages > extent.capacity:
            raise BadSegment(
                f"free of [{first_page}, {first_page + n_pages}) crosses out "
                f"of buddy space {extent.index}"
            )
        with self.obs.tracer.span(
            "buddy.free", first_page=first_page, pages=n_pages
        ):
            self.stats.frees += 1
            space = self._pinned_space(extent.index)
            try:
                space.free(local, n_pages)
                if self.check_invariants:
                    self._check_after("free", extent.index, space)
                self._write_directory(extent.index, space, force=False)
            except BaseException:
                self._decoded[extent.index] = None
                raise
            self._update_guess(extent.index, space)

    def free_segment(self, ref: SegmentRef) -> None:
        """Free a whole segment previously returned by :meth:`allocate`."""
        self.free(ref.first_page, ref.n_pages)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def free_pages(self) -> int:
        """Total free pages across all spaces (reads every directory)."""
        return sum(
            self.load_space(i).free_pages() for i in range(self.volume.n_spaces)
        )

    def space_of(self, page: PageId) -> int:
        """The index of the buddy space a physical page belongs to."""
        return self.volume.space_of_physical(page).index

    def verify(self) -> None:
        """Verify every space's directory (used by tests)."""
        for i in range(self.volume.n_spaces):
            self.load_space(i).verify()
