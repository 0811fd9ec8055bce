"""When pages reach the disk: the declared write order.

Every allocation and every free only dirties its directory frame.  An
allocation reaches the disk ahead of the first write that could make
something on disk name it (INTERNALS, "Write order"): just before the
index pool writes back a dirty frame, and behind a copy-on-write unit's
fresh pages at its barrier, just before its switch point.  A free is
held back until a checkpoint has written every index page that could
name it.  The invariant it buys: at every write, the on-disk directory
marks allocated every page that an index page image on disk names.  A
crash can then leak pages, never leave one claimed twice.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import EOSDatabase
from repro.buddy.space import BuddySpace
from repro.core.config import EOSConfig
from repro.core.node import Node
from repro.recovery import RecoveryManager
from repro.storage.faults import DiskFault, FaultyDisk
from repro.tools.fsck import fsck

#: Eight entries per index node, so a few edits give index pages below
#: the root; three buddy spaces of 416 pages.
PAGE = 128
PAGES = 1 + 3 * (1 + 416)


def make_db(kind, *, disk=None, pool_capacity=8):
    versioned = kind == "versioned"
    config = EOSConfig(
        page_size=PAGE, threshold=2, versioning=versioned, version_retain=2
    )
    return EOSDatabase.create(
        PAGES, PAGE, config=config, pool_capacity=pool_capacity, disk=disk
    )


def disk_directories(db) -> list[bytes]:
    """Every directory page as the disk holds it (unaccounted)."""
    return [db.disk.peek(extent.directory_page) for extent in db.volume.spaces]


def frame_directories(db) -> list[bytes]:
    """Every directory page as the allocator's frames hold it."""
    return [
        bytes(db.buddy.load_space(i).to_page()) for i in range(db.volume.n_spaces)
    ]


def free_on_disk(db) -> set[int]:
    """The pages the on-disk directories mark free."""
    free = set()
    for extent, image in zip(db.volume.spaces, disk_directories(db)):
        for seg in BuddySpace.from_page(PAGE, image).amap.decode():
            if not seg.allocated:
                start = extent.to_physical(seg.start)
                free.update(range(start, start + seg.size))
    return free


def node_at(db, page) -> Node:
    """The index node on ``page`` as the database sees it — its pool
    frame when resident, else the disk — with no access accounted."""
    node = db.pool.resident_decoded(page, Node.from_page)
    return node if node is not None else Node.from_page(db.disk.peek(page))


def live_roots(db) -> list[int]:
    """Each catalogued object's root, or each retained version's."""
    if db.versions is not None:
        chains = db.versions.snapshot_chains().values()
        return [record.root_page for chain in chains for record in chain]
    return [obj.root_page for obj in db.objects()]


def index_nodes(db, roots):
    """``(page, node)`` for every index page reachable from ``roots``,
    each node as :func:`node_at` gives it."""
    stack, seen = list(roots), set()
    while stack:
        page = stack.pop()
        if page in seen:
            continue
        seen.add(page)
        node = node_at(db, page)
        yield page, node
        if node.level:
            stack.extend(node.child)


def named_pages(node) -> set[int]:
    """The pages an index node names: child index pages, or every page
    of each leaf segment."""
    if node.level:
        return set(node.child)
    return {
        page for child, n_pages in zip(node.child, node.pages)
        for page in range(child, child + n_pages)
    }


def referenced_pages(db) -> set[int]:
    """Every index and leaf page reachable from a live root."""
    pages = set()
    for page, node in index_nodes(db, live_roots(db)):
        pages.add(page)
        if node.level == 0:
            pages |= named_pages(node)
    return pages


def assert_directory_covers(db) -> None:
    claimed_free = referenced_pages(db) & free_on_disk(db)
    assert not claimed_free, (
        f"pages {sorted(claimed_free)[:8]} are referenced but free on disk"
    )


def assert_write_order(db) -> None:
    """The write order as the disk alone shows it, at a versioned db.

    Walks with ``disk.peek`` only, from every durable publish point (each
    retained version's root): every page the walk reaches is allocated
    in the on-disk directory, and every index page decodes at one level
    below its parent and holds the byte total its parent's entry names
    (the version record's size, for a root).
    """
    free = free_on_disk(db)
    chains = db.versions.snapshot_chains().values()
    stack = [
        (record.root_page, None, record.byte_size)
        for chain in chains for record in chain
    ]
    seen: set[int] = set()
    while stack:
        page, level, total = stack.pop()
        assert page not in free, f"index page {page} is published but free on disk"
        node = Node.from_page(db.disk.peek(page))
        assert level is None or node.level == level, (
            f"index page {page} is at level {node.level}, its parent wants {level}"
        )
        assert node.total_bytes == total, (
            f"index page {page} holds {node.total_bytes} bytes, its parent "
            f"names {total}"
        )
        if page in seen:
            continue
        seen.add(page)
        counts = [c - b for b, c in zip((0, *node.cum), node.cum)]
        for child, n_pages, count in zip(node.child, node.pages, counts):
            if node.level > 0:
                stack.append((child, node.level - 1, count))
                continue
            leaked = free.intersection(range(child, child + n_pages))
            assert not leaked, (
                f"leaf pages {sorted(leaked)[:8]} are published but free on disk"
            )


class WriteAheadCheck:
    """A ``disk.stats.observer`` for the plain path, where an index page
    is written in place, by an eviction, whenever the pool needs room.

    At every write, each index page of the pool's trees names only pages
    the on-disk directory marks allocated: the pool's image when the
    page is being written or its frame is clean, and the disk's image
    too when the run wrote the page before (a dirty frame's stale image
    still names what the op freed; the frees are held back until every
    index page is on disk).  For a run that checkpoints only at its end:
    a checkpoint lets the frees go, after which a page reused for a new
    node may hold an old node's image.  Counts the index-page and
    directory writes it judged.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.directory_pages = {e.directory_page for e in db.volume.spaces}
        #: Pages whose disk image is an index node this run wrote.
        self.nodes_on_disk: set[int] = set()
        self.index_writes = 0
        self.stale_images = 0
        self.directory_writes = 0

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        if not is_write:
            return
        db, written = self.db, range(first_page, first_page + n_pages)
        free = free_on_disk(db)
        self.nodes_on_disk.difference_update(written)
        for page, node in index_nodes(db, live_roots(db)):
            frame = db.pool._frames.get(page)
            if page in written:
                self.index_writes += 1
                self.nodes_on_disk.add(page)
            elif frame is not None and frame.dirty:
                if page not in self.nodes_on_disk:
                    continue
                self.stale_images += 1
                node = Node.from_page(db.disk.peek(page))
            named = named_pages(node) & free
            assert not named, (
                f"index page {page} names {sorted(named)[:8]}, free on disk"
            )
        self.directory_writes += len(self.directory_pages.intersection(written))

class WriteBoundaryCheck:
    """A ``disk.stats.observer``: at every write, the disk as the writes
    before it left it must pass every check."""

    def __init__(self, db, *checks) -> None:
        self.db = db
        self.checks = checks

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        if is_write:
            for check in self.checks:
                check(self.db)


class Mutator:
    """The five mutations on one kind of database, plus a byte mirror."""

    def __init__(self, kind: str, *, db=None, n_objects=2) -> None:
        self.db = make_db(kind) if db is None else db
        self.manager = RecoveryManager(self.db) if kind == "shadow" else None
        self.objects: list[tuple[int, bytearray]] = []
        for i in range(n_objects):
            self.create(bytes([i + 1]) * (300 + 700 * i))

    def create(self, data: bytes) -> None:
        oid = self.db.op_create(data)
        self.objects.append((oid, bytearray(data)))

    def run(self, op: str, which: int, position: int, n: int, abort: bool) -> None:
        oid, mirror = self.objects[which % len(self.objects)]
        size = len(mirror)
        at = position % (size + 1)
        data = bytes([(position + n) % 251 + 1]) * n
        if op == "destroy":
            self.db.delete_object(oid)
            self.objects.remove((oid, mirror))
            self.create(data)
            return
        if op in ("delete", "write") and at == size:
            op = "append"
        if self.manager is None:
            self._plain_or_versioned(op, oid, at, data)
        else:
            txn = self.manager.begin()
            self._shadowed(txn.open(self.db.get_object(oid)), op, at, data)
            if abort:
                txn.abort()
                return
            txn.commit()
        if op == "append":
            mirror += data
        elif op == "insert":
            mirror[at:at] = data
        elif op == "delete":
            del mirror[at:at + n]
        else:
            mirror[at:at + n] = data[: size - at]

    def _plain_or_versioned(self, op, oid, at, data):
        db = self.db
        if op == "append":
            db.op_append(oid, data)
        elif op == "insert":
            db.op_insert(oid, data, offset=at)
        elif op == "delete":
            db.op_delete(oid, offset=at, length=min(len(data), db.op_size(oid) - at))
        else:
            db.op_write(oid, data[: db.op_size(oid) - at], offset=at)

    @staticmethod
    def _shadowed(tobj, op, at, data):
        if op == "append":
            tobj.append(data)
        elif op == "insert":
            tobj.insert(at, data)
        elif op == "delete":
            tobj.delete(at, min(len(data), tobj.size() - at))
        else:
            tobj.replace(at, data[: tobj.size() - at])

    def check_contents(self) -> None:
        for oid, mirror in self.objects:
            assert self.db.op_read(oid, offset=0, length=len(mirror)) == mirror


OP = st.tuples(
    st.sampled_from(["append", "insert", "delete", "write", "destroy"]),
    st.integers(0, 1),
    st.integers(0, 1 << 20),
    st.integers(1, 900),
    st.booleans(),
)


#: What is checked at every disk write, per kind of database.  The plain
#: path is judged at every write by
#: ``test_plain_directory_covers_at_every_write``.
CHECKS_AT_EVERY_WRITE = {
    "plain": (),
    "versioned": (assert_directory_covers, assert_write_order),
    "shadow": (assert_directory_covers,),
}

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestWriteBoundaryInvariant:
    @pytest.mark.parametrize("kind", ["plain", "versioned", "shadow"])
    @SETTINGS
    @given(ops=st.lists(OP, min_size=1, max_size=25))
    def test_every_referenced_page_is_allocated_on_disk(self, kind, ops):
        with mock.patch.dict("os.environ", {"EOS_SANITIZE": "all"}):
            mutator = Mutator(kind)
            db = mutator.db
            db.checkpoint()  # the plain creates, as after every op below
            db.disk.stats.observer = WriteBoundaryCheck(
                db, *CHECKS_AT_EVERY_WRITE[kind]
            )
            for op in ops:
                mutator.run(*op)
                if kind == "versioned":
                    # Each commit's barrier wrote the directory.
                    assert_directory_covers(db)
                    continue
                # A plain allocation, and a shadow db's plain creates,
                # wait in the frames: judge them after the barrier.  Its
                # directory write is what covers them, so the pool-tree
                # check is not run at its writes.
                db.disk.stats.observer, watching = None, db.disk.stats.observer
                db.checkpoint()
                db.disk.stats.observer = watching
                assert disk_directories(db) == frame_directories(db)
                assert_directory_covers(db)
            db.disk.stats.observer = None
            mutator.check_contents()
            report = fsck(db)
            assert report.clean, report.summary()
            db.checkpoint()
            assert disk_directories(db) == frame_directories(db)
            db.close()

    # Was a strict xfail: an insert that reshuffled freed its old leaves,
    # then write-through-allocated a root-split page before the root
    # stopped naming them.  Insert and delete now free old segments only
    # after the tree edit, and the edit frees its own index pages at its
    # end (``InPlacePager.atomic``); this example is that insert.
    # Restated when allocations stopped writing the directory through:
    # the on-disk directory no longer covers the pool's trees at every
    # write, only what index pages on disk name (``WriteAheadCheck``).
    # Two frames for three roots, so the pool evicts dirty roots mid-op.
    @SETTINGS
    @given(ops=st.lists(OP, min_size=1, max_size=25))
    @example(ops=[("append", 0, 0, 1, False)] * 19 + [
        ("append", 0, 0, 67, False), ("insert", 0, 0, 65, False),
        ("insert", 0, 0, 192, False), ("append", 0, 0, 408, False),
        ("append", 0, 0, 595, False), ("insert", 0, 0, 1, False),
        ("append", 0, 0, 20, False), ("insert", 0, 129, 1, False),
    ])
    def test_plain_directory_covers_at_every_write(self, ops):
        db = make_db("plain", pool_capacity=2)
        check = db.disk.stats.observer = WriteAheadCheck(db)
        mutator = Mutator("plain", db=db, n_objects=3)
        for op in ops:
            mutator.run(*op)
        assert db.pool.stats.writebacks >= 1          # evictions wrote roots
        db.checkpoint()                               # judged as well
        assert check.index_writes >= 1 and check.directory_writes >= 1
        db.disk.stats.observer = None
        mutator.check_contents()
        report = fsck(db)
        assert report.clean, report.summary()


class TestCheckpointCrash:
    """A checkpoint after a plain op, cut short after each of its writes
    in turn: whatever it got to, the root on disk names only pages the
    directory on disk marks allocated.  The directory goes first with
    the op's allocations and without its frees; the frees go last."""

    @pytest.mark.parametrize("op", ["delete", "insert", "append"])
    def test_every_prefix_of_the_checkpoint(self, op):
        cut = 0
        while True:
            disk = FaultyDisk(num_pages=PAGES, page_size=PAGE)
            db = make_db("plain", disk=disk)
            oid = db.op_create(bytes(range(1, 201)) * 4)
            db.checkpoint()
            root = db.get_object(oid).root_page
            Mutator("plain", db=db, n_objects=0)._plain_or_versioned(
                op, oid, 150, bytes([7]) * 300
            )
            disk.arm(fail_after_writes=cut)
            try:
                db.checkpoint()
                done = True
            except DiskFault:
                done = False
            disk.heal()
            node = Node.from_page(disk.peek(root))
            assert node.level == 0
            named = named_pages(node) & free_on_disk(db)
            assert not named, (
                f"after {cut} checkpoint writes the root names free pages "
                f"{sorted(named)[:8]}"
            )
            if done:
                break
            cut += 1
        assert cut >= 2                     # directory, root, directory


def run_unit_op(kind, db, manager, oid, op):
    """One unit-running mutation of ``oid`` on a versioned or shadow db."""
    data = b"q" * 500
    if kind == "versioned":
        {
            "append": lambda: db.op_append(oid, data),
            "insert": lambda: db.op_insert(oid, data, offset=100),
            "delete": lambda: db.op_delete(oid, offset=100, length=700),
            "write": lambda: db.op_write(oid, data, offset=100),
        }[op]()
        return
    txn = manager.begin()
    tobj = txn.open(db.get_object(oid))
    try:
        {
            "append": lambda: tobj.append(data),
            "insert": lambda: tobj.insert(100, data),
            "delete": lambda: tobj.delete(100, 700),
        }[op]()
    except BaseException:
        txn.abort()
        raise
    txn.commit()


class TestFailedForcedWrite:
    """The unit's one forced directory write dies: the unit aborts as a
    failed allocation would abort it, the next unit's barrier writes the
    directory with every allocation, and a checkpoint the frees it held
    back."""

    CASES = [
        ("versioned", "append"), ("versioned", "insert"),
        ("versioned", "delete"), ("versioned", "write"),
        ("shadow", "append"), ("shadow", "insert"), ("shadow", "delete"),
    ]

    @pytest.mark.parametrize("kind,op", CASES)
    def test_the_unit_aborts_and_the_next_unit_heals_the_disk(
        self, kind, op, monkeypatch
    ):
        disk = FaultyDisk(num_pages=PAGES, page_size=PAGE)
        db = make_db(kind, disk=disk)
        manager = RecoveryManager(db) if kind == "shadow" else None
        oid = db.op_create(bytes(range(1, 201)) * 12)
        for step in ("insert", "append", "delete", "insert"):
            run_unit_op(kind, db, manager, oid, step)
        # Frees of the last commit are still only in the frames.
        assert disk_directories(db) != frame_directories(db)
        frames, on_disk = frame_directories(db), disk_directories(db)
        versions, content = db.op_versions(oid), db.get_object(oid).read_all()
        root_lsn = db.get_object(oid).tree.read_root().lsn

        real = db.buddy.write_ahead
        barriers = []

        def dying() -> None:
            disk.arm(fail_after_writes=0)
            real()

        def spying() -> None:
            real()
            barriers.append(True)

        monkeypatch.setattr(db.buddy, "write_ahead", dying)
        with pytest.raises(DiskFault):
            run_unit_op(kind, db, manager, oid, op)
        disk.heal()
        assert db.op_versions(oid) == versions          # nothing published
        assert db.get_object(oid).read_all() == content
        assert db.get_object(oid).tree.read_root().lsn == root_lsn
        assert frame_directories(db) == frames          # the pre-unit directory
        assert disk_directories(db) == on_disk          # the write never landed
        if manager is not None:
            assert not manager.shadow.in_unit
        report = fsck(db)
        assert report.clean, report.summary()

        monkeypatch.setattr(db.buddy, "write_ahead", spying)
        run_unit_op(kind, db, manager, oid, "append")
        assert len(barriers) == 1
        assert_directory_covers(db)                     # the barrier healed it
        report = fsck(db)
        assert report.clean, report.summary()
        db.checkpoint()
        assert disk_directories(db) == frame_directories(db)


class TestDeferredFreesAreDurable:
    """Frees wait in the allocator's own pool: ``save`` and ``close``
    must write them, or the reopened volume leaks what they freed."""

    def churned_db(self):
        config = EOSConfig(page_size=512, versioning=True, version_retain=2)
        db = EOSDatabase.create(4096, 512, config=config)
        oids = [db.op_create(bytes([i + 1]) * 2000) for i in range(2)]
        for i in range(6):
            for oid in oids:
                db.op_insert(oid, bytes([i + 7]) * 300, offset=150 * i)
                db.op_delete(oid, offset=40 * i, length=200)
        assert len(db.op_versions(oids[0])) == db.versions.retain
        return db, oids

    def assert_reopened_like(self, reopened, free_pages, contents):
        report = fsck(reopened, expect_no_leaks=True)
        assert report.clean, report.summary()
        assert reopened.free_pages() == free_pages
        for oid, content in contents.items():
            assert reopened.op_read(oid, offset=0, length=len(content)) == content

    def test_save_then_open_file(self, tmp_path):
        db, oids = self.churned_db()
        contents = {oid: db.get_object(oid).read_all() for oid in oids}
        assert disk_directories(db) != frame_directories(db)
        path = tmp_path / "volume.db"
        db.save(path)
        free_pages = db.free_pages()  # the catalog object included
        db.close()
        self.assert_reopened_like(EOSDatabase.open_file(path), free_pages, contents)

    def test_close_then_attach(self, tmp_path):
        db, oids = self.churned_db()
        contents = {oid: db.get_object(oid).read_all() for oid in oids}
        db.save(tmp_path / "volume.db")  # the catalog names these objects
        # An object the catalog never saw: created, churned and dropped,
        # so the last thing its pages saw was a free.
        extra = db.op_create(b"e" * 3000)
        for i in range(4):
            db.op_insert(extra, b"f" * 200, offset=100 * i)
        db.delete_object(extra)
        assert disk_directories(db) != frame_directories(db)
        free_pages = db.free_pages()
        disk = db.disk
        db.close()
        self.assert_reopened_like(EOSDatabase.attach(disk), free_pages, contents)
