"""Integration tests of the large object manager's public operations.

These tests use small pages (100 bytes — the paper's Figure 5 scale) so
multi-level trees and multi-segment objects appear quickly.
"""

import pytest

from repro import EOSConfig, EOSDatabase
from repro.errors import ByteRangeError


def make_db(threshold=1, page_size=100, num_pages=2000, **cfg):
    config = EOSConfig(page_size=page_size, threshold=threshold, **cfg)
    return EOSDatabase.create(num_pages=num_pages, page_size=page_size, config=config)


def pattern(n: int, seed: int = 0) -> bytes:
    return bytes((i * 31 + seed * 7) % 251 for i in range(n))


class TestCreateAppendRead:
    def test_empty_object(self):
        db = make_db()
        obj = db.create_object()
        assert obj.size() == 0
        assert obj.read_all() == b""
        obj.verify()

    def test_small_append_and_read(self):
        db = make_db()
        obj = db.create_object(pattern(57))
        assert obj.size() == 57
        assert obj.read_all() == pattern(57)
        obj.verify()

    def test_multi_page_append(self):
        db = make_db()
        data = pattern(1820)  # the Figure 5 object size
        obj = db.create_object(data)
        assert obj.read_all() == data
        obj.verify()

    def test_known_size_hint_gives_single_segment(self):
        """Figure 5.a: 1820 bytes with a size hint -> one 19-page segment."""
        db = make_db()
        obj = db.create_object(size_hint=1820)
        obj.append(pattern(1820))
        obj.trim()
        segs = obj.segments()
        assert len(segs) == 1
        assert segs[0][1].pages == 19
        assert obj.read_all() == pattern(1820)
        obj.verify()

    def test_unknown_size_doubling(self):
        """Figure 5.b: chunk-wise appends grow segments 1, 2, 4, 8, ..."""
        db = make_db()
        obj = db.create_object()
        data = pattern(1820)
        for start in range(0, 1820, 70):  # chunks smaller than a page
            obj.append(data[start : start + 70])
        obj.trim()
        sizes = [entry.pages for _, entry in obj.segments()]
        assert sizes[:4] == [1, 2, 4, 8]
        assert sum(sizes) == 19  # trimmed: no spare pages anywhere
        assert obj.read_all() == data
        obj.verify()

    def test_append_fills_partial_page_in_place(self):
        db = make_db()
        obj = db.create_object(pattern(30))
        first_seg = obj.segments()[0][1].child
        obj.append(pattern(40, seed=1))
        assert obj.segments()[0][1].child == first_seg  # same page reused
        assert obj.read_all() == pattern(30) + pattern(40, seed=1)
        obj.verify()

    def test_object_larger_than_max_segment(self):
        db = make_db(page_size=100, num_pages=4000)
        max_seg_bytes = db.buddy.max_segment_pages * 100
        data = pattern(max_seg_bytes * 2 + 57)
        obj = db.create_object(size_hint=len(data))
        obj.append(data)
        obj.trim()
        assert obj.read_all() == data
        sizes = [entry.pages for _, entry in obj.segments()]
        assert sizes[0] == db.buddy.max_segment_pages
        obj.verify()

    def test_read_bounds(self):
        db = make_db()
        obj = db.create_object(pattern(100))
        with pytest.raises(ByteRangeError):
            obj.read(50, 51)
        with pytest.raises(ByteRangeError):
            obj.read(-1, 10)
        assert obj.read(99, 1) == pattern(100)[99:]
        assert obj.read(100, 0) == b""

    def test_sequential_chunk_reads(self):
        db = make_db()
        data = pattern(5000)
        obj = db.create_object(data, size_hint=5000)
        got = b"".join(obj.read(i, min(333, 5000 - i)) for i in range(0, 5000, 333))
        assert got == data


class TestReplace:
    def test_replace_within_page(self):
        db = make_db()
        obj = db.create_object(pattern(500))
        obj.replace(120, b"HELLO")
        expected = bytearray(pattern(500))
        expected[120:125] = b"HELLO"
        assert obj.read_all() == bytes(expected)
        assert obj.size() == 500
        obj.verify()

    def test_replace_across_segments(self):
        db = make_db()
        obj = db.create_object()
        for i in range(6):
            obj.append(pattern(300, seed=i))
        blob = bytes(250) + b"\xff" * 700 + bytes(250)
        obj.replace(300, blob)
        assert obj.read(300, len(blob)) == blob
        obj.verify()

    def test_replace_keeps_structure(self):
        db = make_db()
        obj = db.create_object(pattern(1000), size_hint=1000)
        before = [(off, e.child, e.pages) for off, e in obj.segments()]
        obj.replace(0, pattern(1000, seed=9))
        after = [(off, e.child, e.pages) for off, e in obj.segments()]
        assert before == after  # replace never restructures

    def test_replace_bounds(self):
        db = make_db()
        obj = db.create_object(pattern(100))
        with pytest.raises(ByteRangeError):
            obj.replace(99, b"ab")


class TestInsert:
    def test_insert_middle_of_page(self):
        db = make_db()
        obj = db.create_object(pattern(500), size_hint=500)
        obj.insert(250, b"INSERTED")
        expected = pattern(500)[:250] + b"INSERTED" + pattern(500)[250:]
        assert obj.read_all() == expected
        assert obj.size() == 508
        obj.verify()

    def test_insert_at_zero(self):
        db = make_db()
        obj = db.create_object(pattern(300), size_hint=300)
        obj.insert(0, b"head")
        assert obj.read_all() == b"head" + pattern(300)
        obj.verify()

    def test_insert_at_end_is_append(self):
        db = make_db()
        obj = db.create_object(pattern(300), size_hint=300)
        obj.insert(300, b"tail")
        assert obj.read_all() == pattern(300) + b"tail"
        obj.verify()

    def test_insert_into_empty(self):
        db = make_db()
        obj = db.create_object()
        obj.insert(0, pattern(150))
        assert obj.read_all() == pattern(150)
        obj.verify()

    def test_insert_splits_segment(self):
        """Basic algorithm (T=1): a middle insert makes (up to) L, N, R."""
        db = make_db(threshold=1)
        obj = db.create_object(pattern(1000), size_hint=1000)
        assert len(obj.segments()) == 1
        obj.insert(500, pattern(120, seed=3))
        segs = obj.segments()
        assert len(segs) == 3
        assert obj.read_all() == (
            pattern(1000)[:500] + pattern(120, seed=3) + pattern(1000)[500:]
        )
        obj.verify()

    def test_insert_on_page_boundary(self):
        db = make_db()
        obj = db.create_object(pattern(1000), size_hint=1000)
        obj.insert(400, b"x" * 10)  # page boundary: Pb == 0
        expected = pattern(1000)[:400] + b"x" * 10 + pattern(1000)[400:]
        assert obj.read_all() == expected
        obj.verify()

    def test_large_insert_multiple_segments(self):
        db = make_db(num_pages=4000)
        obj = db.create_object(pattern(500), size_hint=500)
        big = pattern(30_000, seed=5)
        obj.insert(250, big)
        assert obj.size() == 30_500
        assert obj.read(250, len(big)) == big
        obj.verify()

    def test_many_inserts_build_tree(self):
        db = make_db(num_pages=4000)
        obj = db.create_object(pattern(2000), size_hint=2000)
        expected = bytearray(pattern(2000))
        for i in range(40):
            at = (i * 97) % len(expected)
            blob = pattern(23, seed=i)
            obj.insert(at, blob)
            expected[at:at] = blob
        assert obj.read_all() == bytes(expected)
        assert obj.tree.height() >= 2
        obj.verify()

    def test_insert_bounds(self):
        db = make_db()
        obj = db.create_object(pattern(100))
        with pytest.raises(ByteRangeError):
            obj.insert(101, b"x")


class TestDelete:
    def test_delete_within_one_page(self):
        db = make_db()
        obj = db.create_object(pattern(500), size_hint=500)
        obj.delete(120, 30)
        expected = pattern(500)[:120] + pattern(500)[150:]
        assert obj.read_all() == expected
        obj.verify()

    def test_delete_whole_object(self):
        db = make_db()
        free_before = db.free_pages()
        obj = db.create_object(pattern(1500), size_hint=1500)
        obj.delete(0, 1500)
        assert obj.size() == 0
        assert obj.read_all() == b""
        obj.verify()
        # Everything except the root page came back.
        assert db.free_pages() == free_before - 1

    def test_truncate(self):
        db = make_db()
        obj = db.create_object(pattern(1000), size_hint=1000)
        with db.disk.stats.delta() as d:
            obj.truncate(400)
        assert obj.read_all() == pattern(1000)[:400]
        obj.verify()

    def test_truncation_touches_no_leaf_pages(self, pages_transferred):
        """E10: truncation "does not need to access any segment"."""
        db = make_db()
        obj = db.create_object(pattern(1000), size_hint=1000)
        db.checkpoint()
        leaf_pages = {
            entry.child + i
            for _, entry in obj.segments()
            for i in range(entry.pages)
        }
        read = pages_transferred(db, lambda: obj.truncate(300), writes=False)
        assert not read & leaf_pages
        # Control: a read of the surviving bytes does read leaves, and is seen.
        read = pages_transferred(db, lambda: obj.read(0, 300), writes=False)
        assert read & leaf_pages

    def test_delete_ending_on_page_boundary_reads_no_leaf(self):
        db = make_db()
        obj = db.create_object(pattern(1000), size_hint=1000)
        with db.disk.stats.delta() as d:
            obj.delete(250, 150)  # ends at byte 399, last byte of page 3
        expected = pattern(1000)[:250] + pattern(1000)[400:]
        assert obj.read_all() == expected
        obj.verify()

    def test_delete_across_segments(self):
        db = make_db()
        obj = db.create_object()
        parts = [pattern(400, seed=i) for i in range(5)]
        for part in parts:
            obj.append(part)
        obj.trim()
        obj.delete(350, 1400)  # from inside part 0 to inside part 4
        whole = b"".join(parts)
        assert obj.read_all() == whole[:350] + whole[1750:]
        obj.verify()

    def test_delete_frees_space(self):
        db = make_db()
        free0 = db.free_pages()
        obj = db.create_object(pattern(1500), size_hint=1500)
        used = free0 - db.free_pages()
        obj.delete(100, 1300)
        assert db.free_pages() > free0 - used  # pages came back
        obj.verify()

    def test_many_deletes_shrink_tree(self):
        db = make_db(num_pages=4000)
        data = pattern(20_000)
        obj = db.create_object(data, size_hint=len(data))
        expected = bytearray(data)
        for i in range(30):
            obj.insert((i * 613) % len(expected), pattern(40, seed=i))
        # (inserts tracked separately below for clarity)
        db2 = make_db(num_pages=4000)
        obj2 = db2.create_object(data, size_hint=len(data))
        model = bytearray(data)
        for i in range(25):
            at = (i * 613) % (len(model) - 200)
            obj2.delete(at, 200)
            del model[at : at + 200]
            assert obj2.size() == len(model)
        assert obj2.read_all() == bytes(model)
        obj2.verify()

    def test_delete_bounds(self):
        db = make_db()
        obj = db.create_object(pattern(100))
        with pytest.raises(ByteRangeError):
            obj.delete(50, 51)


class TestThreshold:
    def test_threshold_prevents_fragmentation(self):
        """Section 4.4: with T, small inserts do not strand tiny segments."""
        db = make_db(threshold=8, num_pages=8000)
        obj = db.create_object(pattern(40_000), size_hint=40_000)
        model = bytearray(pattern(40_000))
        for i in range(50):
            at = (i * 977) % len(model)
            blob = pattern(15, seed=i)
            obj.insert(at, blob)
            model[at:at] = blob
        assert obj.read_all() == bytes(model)
        obj.verify()
        # Every segment (except possibly boundary leftovers capped by the
        # object ends) respects the threshold far better than T=1 would.
        assert obj.mean_segment_pages() >= 4

    def test_t1_degrades_mean_segment_size(self):
        db = make_db(threshold=1, num_pages=8000)
        obj = db.create_object(pattern(40_000), size_hint=40_000)
        for i in range(50):
            obj.insert((i * 977) % obj.size(), pattern(15, seed=i))
        obj.verify()
        db8 = make_db(threshold=8, num_pages=8000)
        obj8 = db8.create_object(pattern(40_000), size_hint=40_000)
        for i in range(50):
            obj8.insert((i * 977) % obj8.size(), pattern(15, seed=i))
        assert obj8.mean_segment_pages() > obj.mean_segment_pages()

    def test_small_object_not_inflated(self):
        """With T=8, "a large object that is 1 page and a half long is
        kept in two pages, not in 8 pages"."""
        db = make_db(threshold=8)
        obj = db.create_object(pattern(150), size_hint=150)
        assert obj.stats().leaf_pages == 2
        obj.verify()

    def test_set_threshold_at_runtime(self):
        db = make_db(threshold=1)
        obj = db.create_object(pattern(5000), size_hint=5000)
        obj.set_threshold(16)
        obj.insert(2500, b"x")
        obj.verify()
        assert obj.policy.base == 16


class TestObjectStats:
    def test_stats_accounting(self):
        db = make_db()
        obj = db.create_object(pattern(1820), size_hint=1820)
        stats = obj.stats()
        assert stats.size_bytes == 1820
        assert stats.segments == 1
        assert stats.leaf_pages == 19
        assert stats.index_pages == 1
        assert stats.height == 1
        assert stats.leaf_utilization(100) == pytest.approx(1820 / 1900)

    def test_destroy_returns_all_pages(self):
        db = make_db()
        free0 = db.free_pages()
        obj = db.create_object(pattern(3000))
        for i in range(10):
            obj.insert(i * 250, pattern(30, seed=i))
        db.delete_object(obj)
        assert db.free_pages() == free0

    def test_root_page_is_stable(self):
        db = make_db()
        obj = db.create_object()
        root = obj.root_page
        obj.append(pattern(5000))
        for i in range(20):
            obj.insert(i * 111, pattern(25, seed=i))
        obj.delete(100, 3000)
        assert obj.root_page == root
        reopened = db.open_root(root)
        assert reopened.read_all() == obj.read_all()


class TestCompact:
    def test_compact_restores_single_segment(self):
        db = make_db(threshold=1, num_pages=4000)
        data = pattern(20_000)
        obj = db.create_object(data, size_hint=len(data))
        for i in range(40):
            obj.insert((i * 487) % obj.size(), pattern(20, seed=i))
        assert obj.stats().segments > 10
        obj.compact()
        stats = obj.stats()
        assert stats.segments <= 2  # exact segments, maybe split at max size
        assert stats.leaf_utilization(100) > 0.99
        obj.verify()

    def test_compact_preserves_content(self):
        db = make_db(num_pages=4000)
        obj = db.create_object(pattern(5000), size_hint=5000)
        obj.delete(100, 2000)
        obj.insert(500, pattern(700, seed=3))
        before = obj.read_all()
        obj.compact()
        assert obj.read_all() == before

    def test_compact_returns_pages(self):
        db = make_db(threshold=1, num_pages=4000)
        obj = db.create_object(pattern(10_000), size_hint=10_000)
        for i in range(30):
            obj.insert((i * 331) % obj.size(), pattern(15, seed=i))
        pages_before = obj.stats().total_pages
        free_before = db.free_pages()
        obj.compact()
        assert obj.stats().total_pages < pages_before
        assert db.free_pages() > free_before

    def test_compact_empty_object(self):
        db = make_db()
        obj = db.create_object()
        assert obj.compact() == 0
