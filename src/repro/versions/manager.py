"""Version chains, snapshot reads, and the page reclaimer.

:class:`VersionManager` owns one database's per-object version chains:
ascending lists of :class:`VersionRecord` ``(version, root_page,
commit_ts, byte_size)``.  Writers (already serialized under the
database ``op_lock``) publish a record per committed mutation through
:meth:`mutate`; readers resolve any live record and traverse its frozen
tree without the buffer pool — the shared state they touch is the
chain table, guarded by one short-hold lock that protects record
resolution and per-version pin counts, and the cache of decoded index
nodes in the :class:`~repro.versions.pager.DiskNodePager` they share
with the reclaimer.  That cache's entry and exit rules are kept here:
a commit seeds the pages it published, and every page is forgotten
before it is freed.

A commit's *dead list* — the old index pages its unit superseded, the
old root and the leaf runs whose frees it deferred, i.e. the pages the
old version reaches and the new one does not — goes on the old record.
Reclamation is strictly oldest-first: an unpinned record past the
retention window is *removed from the chain first* (so no new reader
can resolve or pin it) and only then is its dead list freed, walking
no tree.  Pages never re-enter a newer tree while still allocated, so
dead lists are disjoint: every page is freed once (the pin sanitizer
re-proves each list at publish, fsck offline; ``restore`` rebuilds
them at attach).

The chains are persisted as a tolerantly-parsed, magic-tagged section
appended to the page-0 catalog; pre-versioning images simply have no
section and load as empty.
"""

from __future__ import annotations

import struct
import threading
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

from repro.core.node import Node
from repro.core.object import tree_stats
from repro.core.search import read_range, read_range_into
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree
from repro.core.unit import UnitAllocator, page_runs, run_unit
from repro.errors import InvariantViolation, LargeObjectError, ObjectNotFound
from repro.errors import ReproError, VersionNotFound
from repro.ops import ObjectStat, VersionInfo
from repro.storage.page import PageId
from repro.versions.pager import DiskNodePager, VersionPager

# Version-chain catalog section: magic, u16 retention bound, u16 chain
# count; per chain a u64 oid + u16 record count; per record u32 version,
# u32 root page, f64 commit timestamp, u64 byte size.
_SECTION_MAGIC = 0x45565231  # "EVR1"
_MAGIC = struct.Struct("<I")
_COUNT = struct.Struct("<H")
_CHAIN_HEAD = struct.Struct("<QH")
_RECORD = struct.Struct("<IIdQ")


@dataclass(frozen=True)
class VersionRecord:
    """One committed version: an immutable root and its metadata."""

    version: int
    root_page: PageId
    commit_ts: float
    byte_size: int
    #: Runs freed when this version expires (empty on the latest).
    dead: tuple[tuple[PageId, int], ...] = ()

    def info(self) -> VersionInfo:
        """The record as the public :class:`~repro.ops.VersionInfo`."""
        return VersionInfo(self.version, self.byte_size, self.commit_ts)


class VersionManager:
    """Per-object version chains for one :class:`~repro.api.EOSDatabase`."""

    def __init__(self, db) -> None:
        self.db = db
        self.retain = db.config.version_retain
        self._lock = threading.Lock()
        self._chains: dict[int, list[VersionRecord]] = {}
        self._pins: dict[tuple[int, int], int] = {}
        self._live = 0  # records in all chains: the versions.live gauge
        #: Index nodes of every snapshot tree (readers and the reclaimer).
        self.snap_pager = DiskNodePager(db.disk, db.config.page_size)
        self.snap_pager.obs = db.obs
        self.snap_pager.checked = db.pool.pin_sanitizer is not None
        self._snap_segio = SegmentIO(db.disk, db.config.page_size)

    # ------------------------------------------------------------------
    # Writer side (caller holds the database op_lock)
    # ------------------------------------------------------------------

    def publish_initial(self, oid: int, tree: LargeObjectTree) -> None:
        """Record version 1 of a just-created (or adopted) object."""
        self.db.pager.flush((tree.root_page,))
        self._seed((tree.root_page,))
        record = VersionRecord(1, tree.root_page, time.time(), tree.size())
        with self._lock:
            self._chains[oid] = [record]
            self._live += 1
        metrics = self.db.obs.metrics
        metrics.counter("versions.published").inc()
        metrics.gauge("versions.live").set(self._live)

    def mutate(self, oid: int, fn):
        """Run one mutation as a version unit and publish its root.

        ``fn(obj)`` executes inside :func:`~repro.core.unit.run_unit`
        with the object bound to a :class:`VersionPager` and a
        :class:`~repro.core.unit.UnitAllocator`, so index and data
        pages of older versions are never overwritten nor freed.  On
        success the new root is published as the next version, what it
        superseded becomes the previous record's dead list, and the
        retention window is enforced; on failure every unit-local page
        is freed and the old tree is untouched.
        """
        db = self.db
        obj = db.get_object(oid)
        with self._lock:
            next_version = self._chains[oid][-1].version + 1
        pager = VersionPager(db.pager, obs=db.obs)
        unit_buddy = UnitAllocator(db.buddy)
        result, new_root = run_unit(pager, unit_buddy, obj, fn, next_version)
        if new_root is None:
            return result
        tree = obj.tree
        tree.root_page = new_root
        self._seed(pager.published)
        dead = pager.dead.union(*(range(f, f + n) for f, n in unit_buddy.dead))
        record = VersionRecord(
            next_version, new_root, time.time(), tree.size()
        )
        with self._lock:
            chain = self._chains[oid]
            superseded = chain[-1] = replace(chain[-1], dead=tuple(page_runs(dead)))
            chain.append(record)
            self._live += 1
        if self.snap_pager.checked:  # the pin sanitizer proves the list
            expect = self._walked_dead_lists([superseded, record])[0]
            if expect != superseded.dead:
                page = min(_run_pages(expect) ^ _run_pages(superseded.dead))
                raise InvariantViolation(
                    f"object {oid} version {superseded.version}: the dead "
                    f"list and the tree walk disagree at page {page}"
                )
        metrics = db.obs.metrics
        metrics.counter("versions.published").inc()
        metrics.counter("versions.deferred_frees").inc(
            unit_buddy.deferred_pages
        )
        self._reclaim(oid)
        metrics.gauge("versions.live").set(self._live)
        return result

    def drop_object(self, oid: int) -> None:
        """Delete the object: free the union of all versions' pages."""
        with self._lock:
            chain = self._chains.get(oid)
            if chain is None:
                raise ObjectNotFound(f"no version chain for oid {oid}")
            if any(self._pins.get((oid, r.version)) for r in chain):
                raise LargeObjectError(
                    f"object {oid} has pinned versions and cannot be deleted"
                )
            del self._chains[oid]
            self._live -= len(chain)
        pages: set[PageId] = set()
        for record in chain:
            pages |= self._page_set(record.root_page)
        self._free_runs(page_runs(pages))
        self.db.obs.metrics.gauge("versions.live").set(self._live)

    # ------------------------------------------------------------------
    # Lock-free reader side (any thread; never takes the op_lock)
    # ------------------------------------------------------------------

    @contextmanager
    def pinned(self, oid: int, version: int | None = None):
        """Resolve a record (None/0 = latest) and pin it for the scope."""
        with self._lock:
            record = self._resolve(oid, version)
            key = (oid, record.version)
            self._pins[key] = self._pins.get(key, 0) + 1
        try:
            yield record
        finally:
            with self._lock:
                remaining = self._pins[key] - 1
                if remaining:
                    self._pins[key] = remaining
                else:
                    del self._pins[key]

    def read(
        self, oid: int, *, offset: int, length: int, version: int | None = None
    ) -> bytes:
        """Read a byte range of one version's immutable tree, lock-free."""
        with self.pinned(oid, version) as record:
            self.db.obs.metrics.counter("versions.snapshot_reads").inc()
            return read_range(
                self._snap_tree(record), self._snap_segio, offset, length
            )

    def read_into(
        self,
        oid: int,
        dest,
        *,
        offset: int,
        length: int,
        version: int | None = None,
    ) -> int:
        """Read a version's byte range straight into ``dest``."""
        with self.pinned(oid, version) as record:
            self.db.obs.metrics.counter("versions.snapshot_reads").inc()
            return read_range_into(
                self._snap_tree(record), self._snap_segio, offset, length, dest
            )

    def stat(self, oid: int, *, version: int | None = None) -> ObjectStat:
        """Space accounting for one version, walked from its frozen tree."""
        with self.pinned(oid, version) as record:
            return ObjectStat(
                **asdict(tree_stats(self._snap_tree(record))),
                root_page=record.root_page,
                version=record.version,
            )

    def size(self, oid: int, *, version: int | None = None) -> int:
        """A version's byte size (its commit-time record; no tree walk)."""
        with self._lock:
            return self._resolve(oid, version).byte_size

    def versions(self, oid: int) -> list[VersionInfo]:
        """The object's live versions, ascending by version number."""
        with self._lock:
            chain = self._chains.get(oid)
            if chain is None:
                raise ObjectNotFound(f"no version chain for oid {oid}")
            return [record.info() for record in chain]

    def latest(self, oid: int) -> VersionRecord:
        """The newest committed record for ``oid``."""
        with self._lock:
            return self._resolve(oid, None)

    def _resolve(self, oid: int, version: int | None) -> VersionRecord:
        chain = self._chains.get(oid)
        if chain is None:
            raise ObjectNotFound(f"no version chain for oid {oid}")
        if not version:  # None or 0: the latest committed version
            return chain[-1]
        for record in chain:
            if record.version == version:
                return record
        raise VersionNotFound(oid, version)

    def sharing_stats(self, oid: int) -> tuple[int, int]:
        """CoW page sharing for one chain: ``(total_refs, distinct_pages)``.

        ``total_refs`` sums every retained version's reachable page set;
        ``distinct_pages`` is the size of their union.  A chain that
        shares nothing has equal numbers; the health collector turns the
        pair into a sharing ratio.  Unknown oids yield ``(0, 0)``.  The
        frozen trees are walked through the snapshot pager, so no
        buffer-pool or buddy state is touched.  The versions walked are
        not pinned: callers hold the ``op_lock`` (the health collector
        does), which is what lets the walk enter the snapshot cache.
        """
        with self._lock:
            chain = list(self._chains.get(oid, ()))
        total_refs = 0
        union: set[PageId] = set()
        for record in chain:
            pages = self._page_set(record.root_page)
            total_refs += len(pages)
            union |= pages
        return total_refs, len(union)

    def _snap_tree(self, record: VersionRecord) -> LargeObjectTree:
        return LargeObjectTree(
            self.snap_pager, self.db.config, record.root_page
        )

    # ------------------------------------------------------------------
    # Reclamation
    # ------------------------------------------------------------------

    def _reclaim(self, oid: int) -> None:
        """Expire beyond-retention versions, strictly oldest-first.

        Records are removed from the chain *before* their dead lists are
        freed: resolution and pinning go through the same lock, so once
        a record is out of the chain no reader can reach its pages.
        """
        victims: list[VersionRecord] = []
        with self._lock:
            chain = self._chains[oid]
            while len(chain) > self.retain:
                if self._pins.get((oid, chain[0].version)):
                    break  # a reader holds it; retry after the next commit
                victims.append(chain.pop(0))
            self._live -= len(victims)
        if not victims:
            return
        runs = [run for victim in victims for run in victim.dead]
        self._free_runs(runs)
        metrics = self.db.obs.metrics
        metrics.counter("versions.reclaimed").inc(len(victims))
        metrics.counter("versions.pages_reclaimed").inc(sum(n for _, n in runs))

    def _page_set(self, root_page: PageId, read=None) -> set[PageId]:
        """Every page reachable from a version root (index + full runs).

        Leaf runs count all ``entry.pages`` — spare pages a later trim
        deferred are thereby reclaimed with the version that last
        reached them.  Nodes come from ``read`` or the snapshot cache.
        """
        read = read or self.snap_pager.read
        pages: set[PageId] = set()

        def walk(page: PageId) -> None:
            pages.add(page)
            node = read(page)
            for child, n_pages in zip(node.child, node.pages):
                if node.level == 0:
                    pages.update(range(child, child + n_pages))
                else:
                    walk(child)

        walk(root_page)
        return pages

    def _walked_dead_lists(self, chain: list[VersionRecord]) -> list[tuple]:
        """Each record's dead list as walks of the trees give it, read
        with ``disk.peek``: no I/O count moves, nothing enters the
        snapshot cache."""

        def peek(page: PageId) -> Node:
            return Node.from_page(self.db.disk.peek(page))

        sets = [self._page_set(r.root_page, peek) for r in chain]
        return [tuple(page_runs(a - b)) for a, b in zip(sets, sets[1:])] + [()]

    def _free_runs(self, runs: list[tuple[PageId, int]]) -> None:
        """Free versioned page runs, in order — the only place a
        versioned page is ever freed.

        The snapshot cache's exit rule: every page leaves the cache
        before the first run goes back to the allocator, which could
        hand it to another tree.  A free that dies part-way leaks the
        rest, as after a crash, but leaves no entry behind.  The frees
        write no directory page: the next unit's forced write, or a
        checkpoint, carries them to the disk.
        """
        self.snap_pager.forget(_run_pages(runs))
        pool, buddy = self.db.pool, self.db.buddy
        for first, count in runs:
            for page in range(first, first + count):
                pool.drop(page)
            buddy.free(first, count)

    def _seed(self, pages: Iterable[PageId]) -> None:
        """The snapshot cache's commit-time entry: each just-flushed
        page's decoded form from the writer's pool frame, if resident."""
        pool = self.db.pool
        for page in pages:
            node = pool.resident_decoded(page, Node.from_page)
            if node is not None:
                self.snap_pager.seed(page, node)

    # ------------------------------------------------------------------
    # Persistence (page-0 catalog section)
    # ------------------------------------------------------------------

    def snapshot_chains(self) -> dict[int, list[VersionRecord]]:
        """A consistent copy of every chain (for the catalog and fsck)."""
        with self._lock:
            return {oid: list(chain) for oid, chain in self._chains.items()}

    def restore(self, chains: dict[int, list[VersionRecord]]) -> None:
        """Replace the chain table (catalog attach path); the snapshot
        cache starts empty.  The catalog has no dead lists: they are
        rebuilt with one walk per retained version.  A chain whose trees
        do not walk (fsck flags it) keeps empty lists and leaks."""
        rebuilt = {}
        for oid, chain in chains.items():
            try:
                lists = self._walked_dead_lists(chain)
            except (ReproError, RecursionError):
                lists = [()] * len(chain)
            rebuilt[oid] = [replace(r, dead=d) for r, d in zip(chain, lists)]
        with self._lock:
            self._chains = rebuilt
            self._live = sum(map(len, rebuilt.values()))
        self.snap_pager.clear()
        self.db.obs.metrics.gauge("versions.live").set(self._live)


def _run_pages(runs: Iterable[tuple[PageId, int]]) -> set[PageId]:
    return {page for first, n in runs for page in range(first, first + n)}


def pack_version_section(
    chains: dict[int, list[VersionRecord]], retain: int
) -> bytes:
    """Serialize version chains (and the retention bound) for page 0."""
    out = bytearray(_MAGIC.pack(_SECTION_MAGIC))
    out += _COUNT.pack(retain)
    out += _COUNT.pack(len(chains))
    for oid in sorted(chains):
        chain = chains[oid]
        out += _CHAIN_HEAD.pack(oid, len(chain))
        for r in chain:
            out += _RECORD.pack(r.version, r.root_page, r.commit_ts, r.byte_size)
    return bytes(out)


def unpack_version_section(
    buf: bytes, offset: int
) -> tuple[dict[int, list[VersionRecord]], int | None]:
    """Parse the catalog's version section; tolerant of its absence.

    Returns ``(chains, retain)``.  Pre-versioning images have zeros (or
    nothing) where the section would start; any malformed read yields
    ``({}, None)`` rather than an error, so old volumes attach cleanly.
    A ``retain`` that is not ``None`` marks the image as written by a
    versioning-enabled database — the attach path uses it to turn
    versioning back on with the saved retention bound.
    """
    try:
        (magic,) = _MAGIC.unpack_from(buf, offset)
        if magic != _SECTION_MAGIC:
            return {}, None
        offset += _MAGIC.size
        (retain,) = _COUNT.unpack_from(buf, offset)
        offset += _COUNT.size
        if retain < 1:
            return {}, None
        (n_chains,) = _COUNT.unpack_from(buf, offset)
        offset += _COUNT.size
        chains: dict[int, list[VersionRecord]] = {}
        for _ in range(n_chains):
            oid, n_records = _CHAIN_HEAD.unpack_from(buf, offset)
            offset += _CHAIN_HEAD.size
            chain: list[VersionRecord] = []
            for _ in range(n_records):
                version, root, ts, size = _RECORD.unpack_from(buf, offset)
                offset += _RECORD.size
                chain.append(VersionRecord(version, root, ts, size))
            if chain:
                chains[oid] = chain
        return chains, retain
    except struct.error:
        return {}, None
