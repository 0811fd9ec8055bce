"""Unit tests for the positional tree's structural maintenance."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EOSConfig, EOSDatabase
from repro.core.node import Entry, Node
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError, TreeCorrupt
from repro.workloads.aging import AgingWorkload

PAGE = 100  # fanout 6, min 3


def make_db(**cfg):
    config = EOSConfig(page_size=PAGE, **cfg)
    return EOSDatabase.create(num_pages=4000, page_size=PAGE, config=config)


def make_tree(db):
    return LargeObjectTree.create(db.pager, db.config)


def add_segments(db, tree, counts, seed=0):
    """Append one leaf entry per byte count, each in its own segment."""
    entries = []
    for i, count in enumerate(counts):
        pages = -(-count // PAGE)
        ref = db.buddy.allocate(pages)
        db.segio.write_segment(
            ref.first_page, bytes((j + seed + i) % 251 for j in range(count))
        )
        entries.append(Entry(count, ref.first_page, pages))
    tree.append_leaf_entries(entries)
    return entries


class TestDescend:
    def test_empty_tree(self):
        db = make_db()
        tree = make_tree(db)
        assert tree.size() == 0
        with pytest.raises(ByteRangeError):
            tree.descend(0)

    def test_single_level(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [250, 130, 400])
        path, local = tree.descend(300)
        assert len(path) == 1
        assert path[0].index == 1
        assert local == 50

    def test_multi_level(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 30)  # forces height >= 2
        assert tree.height() >= 2
        path, local = tree.descend(1550)
        assert path[-1].node.level == 0
        assert local == 50
        # The path's count arithmetic reconstructs the global offset.
        offset = 0
        for step in path:
            offset += step.node.child_offset(step.index)
        assert offset + local == 1550

    def test_append_position(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100, 60])
        path, local = tree.descend(160)
        assert path[-1].index == 1
        assert local == 60


class TestAppendEntriesAndSplits:
    def test_growth_increases_height(self):
        db = make_db()
        tree = make_tree(db)
        heights = []
        for batch in range(12):
            add_segments(db, tree, [50] * 5, seed=batch)
            heights.append(tree.height())
            tree.verify()
        assert heights[0] == 1
        assert heights[-1] >= 2
        assert heights == sorted(heights)  # height never shrinks on appends

    def test_update_tail_propagates_counts(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 30)
        size_before = tree.size()
        assert tree.height() >= 2  # the delta must climb several levels
        # Grow the tail segment by one (spare) page holding 50 more bytes.
        path, _ = tree.descend(size_before)
        entry = path[-1].node.entries[path[-1].index]
        tree.update_tail(50, pages=entry.pages + 1)
        assert tree.size() == size_before + 50
        # Every internal entry on the rightmost path agrees with its child.
        node = tree.read_root()
        while node.level > 0:
            child = tree.pager.read(node.entries[-1].child)
            assert node.entries[-1].count == child.total_bytes
            node = child
        assert node.entries[-1].count == 150
        assert node.entries[-1].pages == entry.pages + 1


class TestReplaceLeafRange:
    def test_alignment_enforced(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [250, 130])
        with pytest.raises(TreeCorrupt):
            tree.replace_leaf_range(100, 250, [])  # cuts through entry 0

    def test_bounds_enforced(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [250])
        with pytest.raises(ByteRangeError):
            tree.replace_leaf_range(0, 300, [])
        with pytest.raises(ByteRangeError):
            tree.replace_leaf_range(100, 100, [])  # empty range

    def test_returns_dropped_entries(self):
        db = make_db()
        tree = make_tree(db)
        entries = add_segments(db, tree, [250, 130, 400])
        dropped = tree.replace_leaf_range(250, 380, [])
        assert [(e.count, e.child) for e in dropped] == [
            (entries[1].count, entries[1].child)
        ]
        assert tree.size() == 650
        tree.verify()

    def test_deep_delete_collapses_root(self):
        """"If the root has exactly one child, copy the pairs of this
        child to the root and repeat this step."
        """
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 36)
        assert tree.height() >= 2
        root_page = tree.root_page
        dropped = tree.replace_leaf_range(100, 3600, [])
        for e in dropped:
            db.buddy.free(e.child, e.pages)
        assert tree.size() == 100
        assert tree.height() == 1
        assert tree.root_page == root_page  # the root page never moves
        tree.verify()

    def test_underflow_merges_or_rotates(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 36)
        # Delete entry-by-entry from the middle; occupancy must hold
        # after every structural edit.
        for _ in range(30):
            size = tree.size()
            lo = (size // 2 // 100) * 100
            dropped = tree.replace_leaf_range(lo, lo + 100, [])
            for e in dropped:
                db.buddy.free(e.child, e.pages)
            tree.verify()
        assert tree.size() == 600

    def test_replacement_entries_split_overfull_leaf_node(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 6)  # exactly one full level-0 root
        # Replace one entry with three: 8 entries > fanout 6 -> must split.
        refs = [db.buddy.allocate(1) for _ in range(3)]
        for ref in refs:
            db.segio.write_segment(ref.first_page, bytes(30))
        new = [Entry(30, r.first_page, 1) for r in refs]
        dropped = tree.replace_leaf_range(200, 300, new)
        db.buddy.free(dropped[0].child, dropped[0].pages)
        assert tree.size() == 590
        assert tree.height() == 2
        tree.verify()


class TestRootByteLimit:
    """Footnote 3: clients can restrict the root's size in bytes."""

    def test_limited_root_has_small_fanout(self):
        db = make_db(max_root_bytes=11 + 2 * 14)  # room for 2 entries
        tree = make_tree(db)
        assert tree.root_fanout == 2

    def test_limited_root_still_supports_growth(self):
        db = make_db(max_root_bytes=11 + 3 * 14)
        config = db.config
        tree = LargeObjectTree.create(db.pager, config)
        for batch in range(10):
            entries = []
            for i in range(4):
                ref = db.buddy.allocate(1)
                db.segio.write_segment(ref.first_page, bytes(80))
                entries.append(Entry(80, ref.first_page, 1))
            tree.append_leaf_entries(entries)
            assert len(tree.read_root().entries) <= 3
            tree.verify()
        assert tree.size() == 10 * 4 * 80

    def test_object_operations_under_limited_root(self):
        db = make_db(max_root_bytes=11 + 3 * 14, threshold=2)
        obj = db.create_object()
        payload = bytes(i % 251 for i in range(4000))
        obj.append(payload)
        obj.insert(2000, b"x" * 250)
        obj.delete(100, 500)
        model = bytearray(payload)
        model[2000:2000] = b"x" * 250
        del model[100:600]
        assert obj.read_all() == bytes(model)
        assert len(obj.tree.read_root().entries) <= 3

    def test_too_small_limit_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            LargeObjectTree(
                db.pager,
                EOSConfig(page_size=PAGE, max_root_bytes=20),
                root_page=1,
            )


class TestVerify:
    def test_detects_count_mismatch(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100] * 30)
        root = tree.read_root()
        root.entries[0].count += 7
        db.pager.write_root(tree.root_page, root)
        with pytest.raises(TreeCorrupt):
            tree.verify()

    def test_detects_overlapping_segments(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [250])
        ref = db.buddy.allocate(1)
        # Add an entry whose pages overlap the first segment.
        first = tree.read_root().entries[0]
        tree.append_leaf_entries([Entry(50, first.child + 1, 1)])
        with pytest.raises(TreeCorrupt):
            tree.verify()
        db.buddy.free(ref.first_page, 1)

    def test_detects_undersized_segment(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [250])
        root = tree.read_root()
        root.entries[0].pages = 1  # 250 bytes cannot fit in one page
        db.pager.write_root(tree.root_page, root)
        with pytest.raises(TreeCorrupt):
            tree.verify()


class TestIterSegmentsSeeks:
    """Entering each node by binary search yields what the scan did."""

    def build(self):
        db = make_db()
        tree = make_tree(db)
        add_segments(db, tree, [100 + 7 * (i % 5) for i in range(60)])  # height 3
        return db, tree

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-5, 7000), st.integers(-5, 7000))
    def test_matches_filtering_every_leaf(self, lo, hi):
        _, tree = self.build()
        everything = tree.leaf_entries()
        expected = [
            (offset, entry) for offset, entry in everything
            if offset + entry.count > lo and offset < hi and lo < hi
        ]
        assert list(tree.iter_segments(lo, hi)) == expected

    def test_reads_only_the_pages_on_the_way(self):
        db, tree = self.build()
        size = tree.size()
        db.pool.clear()
        before = db.pool.stats.misses
        assert len(list(tree.iter_segments(size - 1, size))) == 1
        assert db.pool.stats.misses - before == tree.height()

    def test_a_root_in_hand_is_not_read_again(self):
        db, tree = self.build()
        stats = db.pool.stats
        before = stats.accesses
        plain = list(tree.iter_segments(300, 900))
        touched = stats.accesses - before
        root = tree.read_root()
        before = stats.accesses
        assert list(tree.iter_segments(300, 900, root=root)) == plain
        assert stats.accesses - before == touched - 1


def assert_decoded_forms_coherent(db):
    """Every decoded form a frame holds is what its image decodes to."""
    for page, frame in db.pool._frames.items():
        if frame.decoded is not None:
            assert frame.decoded == Node.from_page(frame.image), f"page {page}"


class TestDecodedFormsStayCoherent:
    """Random edits through a 4-frame pool: index pages are evicted,
    re-read, rewritten and freed between every read and write, and no
    frame may ever hold a decoded form its image does not back."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_edits_on_a_four_frame_pool(self, data):
        config = EOSConfig(page_size=PAGE, threshold=2)
        db = EOSDatabase.create(
            num_pages=4000, page_size=PAGE, config=config, pool_capacity=4
        )
        obj = db.create_object(bytes(range(200)) * 20)
        mirror = bytearray(bytes(range(200)) * 20)
        i = 0
        while obj.tree.height() < 3:  # fragment it
            i += 1
            at = (i * 487) % len(mirror)
            obj.insert(at, b"ab" * 60)
            mirror[at:at] = b"ab" * 60
        evictions = db.pool.stats.evictions
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            kind = data.draw(
                st.sampled_from(["insert", "delete", "append", "replace", "read"])
            )
            size = len(mirror)
            n = data.draw(st.integers(1, 400), label="n")
            at = data.draw(st.integers(0, max(0, size - 1)), label="at")
            payload = bytes([n % 251]) * n
            if kind == "insert":
                obj.insert(at, payload)
                mirror[at:at] = payload
            elif kind == "append":
                obj.append(payload)
                mirror += payload
            elif size == 0:
                continue
            elif kind == "delete":
                obj.delete(at, min(n, size - at))
                del mirror[at : at + n]
            elif kind == "replace":
                payload = payload[: size - at]
                obj.replace(at, payload)
                mirror[at : at + len(payload)] = payload
            else:
                assert obj.read(at, min(n, size - at)) == mirror[at : at + n]
            assert_decoded_forms_coherent(db)
        # A short script may fit in four frames; the closing whole-object
        # read walks every index page, so the run always evicts.
        assert obj.read(0, len(mirror)) == mirror
        assert_decoded_forms_coherent(db)
        assert db.pool.stats.evictions > evictions
        obj.verify()
        assert obj.read_all() == mirror
        assert_decoded_forms_coherent(db)


class TestGoldenEditScript:
    """A seeded 1 000-op edit script on an aged volume, against values
    recorded from the commit before index nodes were decoded as columns
    and kept on their frames (PR 14, 718527b): every disk transfer and
    every pool miss, eviction and write-back is the same, and so is
    every root page.  Pool hits differ by exactly the duplicate root
    reads that commit made and this one does not.  The writes, and the
    seeks they cost, differ by the 510 directory writes that commit made
    for frees and this one lets ride the next allocation's write."""

    PARENT = {
        "seeks": 3576, "page_reads": 5414, "page_writes": 5437,
        "read_calls": 1858, "write_calls": 1801,
        "misses": 680, "evictions": 679, "writebacks": 459,
        "roots": "59b605c79b5503d37ed892a701e478d0d288c9c900e4dcf789c64e76a8f7fde9",
    }
    PARENT_HITS = 5579
    #: One per ``replace_leaf_range`` (size, then the root again) and one
    #: per non-empty read or replace (size, then ``iter_segments``).
    DUPLICATE_ROOT_READS = 851

    def test_same_io_same_pool_traffic_same_roots(self, monkeypatch):
        db = EOSDatabase.create(num_pages=8192, page_size=4096, pool_capacity=4)
        aging = AgingWorkload(db, mix="mixed", seed=1992, target_utilization=0.6)
        aging.build()
        for _ in range(2):
            aging.run_epoch(200)
        rng = random.Random(15)
        docs = [db.get_object(oid) for oid in rng.sample(aging.live_oids(), 12)]
        db.checkpoint()
        db.stats.reset()

        duplicates = 0
        replace_leaf_range = LargeObjectTree.replace_leaf_range

        def counting(tree, lo, hi, new_entries):
            nonlocal duplicates
            duplicates += 1
            return replace_leaf_range(tree, lo, hi, new_entries)

        monkeypatch.setattr(LargeObjectTree, "replace_leaf_range", counting)
        for _ in range(1000):
            obj = docs[rng.randrange(len(docs))]
            size = obj.size()
            kind = rng.choice(
                ("insert", "insert", "delete", "append", "replace", "read", "read")
            )
            n = rng.randint(1, 6000)
            if kind == "insert":
                obj.insert(rng.randint(0, size), bytes([rng.randrange(256)]) * n)
            elif kind == "append":
                obj.append(bytes([rng.randrange(256)]) * n)
            elif size == 0:
                continue
            elif kind == "delete":
                lo = rng.randrange(size)
                obj.delete(lo, min(n, size - lo))
            elif kind == "replace":
                lo = rng.randrange(size)
                obj.replace(lo, bytes([rng.randrange(256)]) * min(n, size - lo))
                duplicates += 1
            else:
                lo = rng.randrange(size)
                obj.read(lo, min(n, size - lo))
                duplicates += 1

        pool, io = db.pool.stats, db.disk.stats
        observed = {
            "seeks": io.seeks, "page_reads": io.page_reads,
            "page_writes": io.page_writes,
            "read_calls": io.read_calls, "write_calls": io.write_calls,
            "misses": pool.misses, "evictions": pool.evictions,
            "writebacks": pool.writebacks,
        }
        hits = pool.hits
        db.checkpoint()
        digest = hashlib.sha256()
        for obj in docs:
            digest.update(db.disk.peek(obj.root_page))
            obj.verify()
        observed["roots"] = digest.hexdigest()
        assert observed == self.PARENT
        assert duplicates == self.DUPLICATE_ROOT_READS
        assert hits == self.PARENT_HITS - self.DUPLICATE_ROOT_READS
