"""The copy-on-write unit (repro.core.unit): the allocator half against
a set model, and both commit policies against I/O recorded before the
shadow and version implementations were merged."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EOSConfig, EOSDatabase
from repro.buddy.manager import SegmentRef
from repro.core.unit import UnitAllocator, page_runs
from repro.recovery import RecoveryManager

# ---------------------------------------------------------------------------
# UnitAllocator against a set model
# ---------------------------------------------------------------------------

OLD_PAGES = 24  # pages 0..23 belong to the old tree


class RecordingBuddy:
    """A bump allocator above the old pages that records every call."""

    max_segment_pages = 64

    def __init__(self):
        self.next_page = OLD_PAGES
        self.freed: list[tuple[int, int]] = []

    def allocate(self, n_pages):
        ref = SegmentRef(self.next_page, n_pages)
        self.next_page += n_pages
        return ref

    allocate_up_to = allocate

    def free(self, first_page, n_pages):
        self.freed.append((first_page, n_pages))


def split_runs(pages, member):
    """Ascending maximal runs of a page range inside / outside ``member``."""
    inside, outside = [], []
    previous = None
    for page in pages:
        is_member = page in member
        runs = inside if is_member else outside
        if is_member == previous:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
        previous = is_member
    return inside, outside


class TestUnitAllocatorProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_local_freed_once_old_deferred_once_calls_ascending(self, data):
        base = RecordingBuddy()
        unit = UnitAllocator(base)
        local: set[int] = set()     # model: live unit-local pages
        unfreed = set(range(OLD_PAGES))  # model: pages nobody freed yet
        deferred: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(0, 24))):
            if not unfreed or data.draw(st.booleans()):
                n = data.draw(st.integers(1, 9))
                take = unit.allocate if data.draw(st.booleans()) else unit.allocate_up_to
                ref = take(n)
                pages = range(ref.first_page, ref.end)
                local.update(pages)
                unfreed.update(pages)
                continue
            # A range of not-yet-freed pages, local and old mixed freely.
            first = data.draw(st.sampled_from(sorted(unfreed)))
            longest = 1
            while first + longest in unfreed:
                longest += 1
            n = data.draw(st.integers(1, longest))
            pages = range(first, first + n)
            want_freed, want_deferred = split_runs(pages, local)
            calls_before = len(base.freed)
            unit.free(first, n)
            # Real frees: exactly the maximal local sub-runs, ascending.
            assert base.freed[calls_before:] == want_freed
            deferred += want_deferred
            assert unit.deferred == deferred
            local.difference_update(pages)
            unfreed.difference_update(pages)
            assert unit.local == local
        assert unit.deferred_pages == sum(n for _, n in deferred)
        calls_before = len(base.freed)
        if data.draw(st.booleans()):
            unit.abort_unit()
            # Every still-live local page goes back, once, as maximal runs.
            assert base.freed[calls_before:] == page_runs(local)
        else:
            unit.commit_unit()
            assert base.freed[calls_before:] == []
        assert unit.local == set() and unit.deferred == []
        # No page reached the base twice, and no old page ever did.
        reached = [p for first, n in base.freed for p in range(first, first + n)]
        assert len(reached) == len(set(reached))
        assert all(page >= OLD_PAGES for page in reached)


# ---------------------------------------------------------------------------
# Golden I/O scripts: both commit policies, values from the parent commit
# ---------------------------------------------------------------------------

PAGE = 512


def _observed(db, roots):
    io = db.disk.stats
    observed = {
        "seeks": io.seeks, "page_reads": io.page_reads,
        "page_writes": io.page_writes, "free_pages": db.free_pages(),
    }
    db.checkpoint()
    digest = hashlib.sha256()
    for root in roots():
        digest.update(root.to_bytes(4, "little"))
        digest.update(db.disk.peek(root))
    observed["roots"] = digest.hexdigest()
    db.verify()
    return observed


def _edit(rng, size, append, insert, delete, write):
    """One seeded edit through the four callables."""
    kind = rng.choice(("append", "insert", "insert", "delete", "write"))
    n = rng.randint(1, 3000)
    fill = bytes([rng.randrange(256)])
    if kind == "append":
        append(fill * n)
    elif kind == "insert":
        insert(rng.randint(0, size), fill * n)
    elif size == 0:
        append(fill * n)
    elif kind == "delete":
        lo = rng.randrange(size)
        delete(lo, min(n, size - lo))
    else:
        lo = rng.randrange(size)
        write(lo, fill * min(n, size - lo))


def versioned_script():
    """300 seeded edits of six objects on a ``retain=3`` versioned
    database with a 16-frame pool."""
    config = EOSConfig(
        page_size=PAGE, threshold=2, versioning=True, version_retain=3
    )
    db = EOSDatabase.create(8192, PAGE, config=config, pool_capacity=16)
    rng = random.Random(22)
    oids = [db.op_create(bytes([i]) * rng.randint(1, 9000)) for i in range(6)]
    db.checkpoint()
    db.stats.reset()
    for _ in range(300):
        oid = rng.choice(oids)
        _edit(
            rng, db.op_size(oid),
            lambda data: db.op_append(oid, data),
            lambda at, data: db.op_insert(oid, data, offset=at),
            lambda at, n: db.op_delete(oid, offset=at, length=n),
            lambda at, data: db.op_write(oid, data, offset=at),
        )
    chains = db.versions.snapshot_chains()
    return _observed(
        db, lambda: [r.root_page for oid in oids for r in chains[oid]]
    )


def transactional_script():
    """The same edits through ``RecoveryManager`` transactions of one to
    three ops, a quarter of them aborted."""
    config = EOSConfig(page_size=PAGE, threshold=2)
    db = EOSDatabase.create(8192, PAGE, config=config, pool_capacity=16)
    manager = RecoveryManager(db)
    rng = random.Random(22)
    objs = [db.create_object(bytes([i]) * rng.randint(1, 9000)) for i in range(6)]
    db.checkpoint()
    db.stats.reset()
    ops = 0
    while ops < 300:
        txn = manager.begin()
        tobj = txn.open(rng.choice(objs))
        for _ in range(rng.randint(1, 3)):
            _edit(
                rng, tobj.size(),
                tobj.append, tobj.insert, tobj.delete, tobj.replace,
            )
            ops += 1
        if rng.random() < 0.25:
            txn.abort()
        else:
            txn.commit()
    return _observed(db, lambda: [obj.root_page for obj in objs])


class TestGoldenUnitScripts:
    """The free-page count and every root page are what the two separate
    implementations produced at 9cc35e6 (the commit before
    ``ShadowPager``/``VersionPager`` and
    ``TransactionalAllocator``/``DeferredFreeBuddy`` were merged), so no
    allocation decision has moved since.  The disk transfers were lowered
    on purpose five times: the versioned script's reads by the snapshot
    node cache, both scripts' directory writes by forcing a unit's
    allocations once at its switch point and letting frees ride the next
    write, both scripts' leaf reads by reading a delete's movers in one
    run, the transactional script's directory writes again when a
    barrier stopped writing a space that had only freed, and both
    scripts' directory writes once more when a commit stopped writing
    the directory at all."""

    #: Was 2 783 page writes while every allocation and free wrote its
    #: directory page through, then 1 909 writes, 7 156 free pages and
    #: roots a44f5bac… until a versioned append began filling the tail's
    #: reservation (an append that needs fewer than T pages allocates T),
    #: which moves versioned allocation on purpose; then 1 907 writes
    #: while a commit wrote its directory page.
    VERSIONED = {
        "page_writes": 1607, "free_pages": 7155,
        "roots": "7949518b3e6209e09a3bfd498f79d66120930ed54268a8dbaaf86c4e37580b58",
    }
    #: Was 2 680 seeks / 1 327 page reads before the snapshot pager kept
    #: decoded nodes (every saved read was a reclaimer walk of an index
    #: page some earlier commit had already published), then 2 100 seeks
    #: before the directory writes above went, then 1 223 / 739 before
    #: the tail reservation, then 1 232 seeks while a commit wrote its
    #: directory pages before its index pages (the write-order barrier
    #: writes them after, next to the data, so the head stops jumping),
    #: then 1 208 / 738 before a delete inside one segment read L's
    #: moved tail and the pivot page in one run, then 1 207 seeks while a
    #: commit wrote its directory page.
    VERSIONED_READS = {"seeks": 905, "page_reads": 737}
    #: Was 1 727 seeks / 1 842 page writes with write-through directories;
    #: then 1 422 seeks / 1 196 page reads before the one-run delete read;
    #: then 1 413 seeks / 1 543 page writes while a unit's barrier also
    #: wrote a space that had only freed (its frees now wait for the
    #: in-place roots that named them); then 1 396 seeks / 1 526 page
    #: writes while a commit wrote its directory page.
    TRANSACTIONAL = {
        "seeks": 1137, "page_reads": 1187, "page_writes": 1267,
        "free_pages": 7352,
        "roots": "85394fad549a002e0651e09ed778c7352a94a753e3a5e6d3071ba66ed7ea9823",
    }

    def test_version_units(self):
        observed = versioned_script()
        reads = {key: observed.pop(key) for key in self.VERSIONED_READS}
        assert observed == self.VERSIONED
        assert reads == self.VERSIONED_READS

    def test_shadow_units_with_aborts(self):
        assert transactional_script() == self.TRANSACTIONAL
