"""Reproductions of the paper's worked examples (Figures 5-7, Section 4.2).

The objects of Figure 5 are built with 100-byte pages, "just to make
calculations in our examples easier to follow", and the Section 4.2
search example is replayed with exact seek/transfer accounting.
"""

import pytest

from repro import EOSConfig, EOSDatabase
from repro.core.node import Entry, Node


def make_db(**cfg):
    config = EOSConfig(page_size=100, **cfg)
    return EOSDatabase.create(num_pages=3000, page_size=100, config=config)


def fill(db, first_page, n_pages, byte_count, seed=0):
    data = bytes((i * 17 + seed) % 251 for i in range(byte_count))
    db.segio.write_segment(first_page, data)
    return data


class TestFigure5a:
    """1820 bytes created with a size hint: one 19-page segment."""

    def build(self):
        db = make_db()
        obj = db.create_object(size_hint=1820)
        obj.append(bytes((i * 3) % 251 for i in range(1820)))
        obj.trim()
        return db, obj

    def test_shape(self):
        db, obj = self.build()
        assert obj.size() == 1820
        segs = obj.segments()
        assert len(segs) == 1
        assert segs[0][1].pages == 19  # ceil(1820/100)
        root = obj.tree.read_root()
        assert root.level == 0
        assert len(root.entries) == 1  # "a single pair pointing to a leaf"
        assert root.total_bytes == 1820  # size read off the root

    def test_search_cost_one_seek(self):
        """Reading 320 bytes at offset 1470 within one segment: one seek.

        (The paper's prose says "5 pages"; its own formula — pages
        floor(1470/100) .. floor(1790/100) — gives pages 14..17, i.e.
        4 transfers.  We reproduce the formula and record the erratum in
        EXPERIMENTS.md.)
        """
        db, obj = self.build()
        db.checkpoint()
        obj.tree.read_root()  # warm the root: the paper excludes it
        with db.disk.stats.delta() as d:
            data = obj.read(1470, 320)
        assert len(data) == 320
        assert d.seeks == 1
        assert d.page_reads == 4


class TestFigure5c:
    """The post-edit two-level object: root -> two children, the right
    child holding segments of 280, 430 and 90 bytes."""

    def build(self):
        db = make_db()
        # Leaf segments (left child gets three segments summing 1020).
        layout_left = [(400, 4, 1), (400, 4, 2), (220, 3, 3)]
        layout_right = [(280, 3, 4), (430, 5, 5), (90, 1, 6)]
        content = b""
        left_entries, right_entries = [], []
        for entries, layout in ((left_entries, layout_left), (right_entries, layout_right)):
            for byte_count, pages, seed in layout:
                ref = db.buddy.allocate(pages)
                content += fill(db, ref.first_page, pages, byte_count, seed)
                entries.append(Entry(byte_count, ref.first_page, pages))
        left_page = db.pager.allocate()
        db.pager.write_new(left_page, Node(0, left_entries))
        right_page = db.pager.allocate()
        db.pager.write_new(right_page, Node(0, right_entries))
        obj = db.create_object()
        root = Node(1, [Entry(1020, left_page, 0), Entry(800, right_page, 0)])
        db.pager.write_root(obj.root_page, root)
        db.checkpoint()
        return db, obj, content, right_page

    def test_shape_matches_paper(self):
        db, obj, content, _ = self.build()
        assert obj.size() == 1820
        root = obj.tree.read_root()
        assert root.level == 1
        assert root.cumulative() == (1020, 1820)
        right = db.pager.read(root.entries[1].child)
        # "The first segment contains the first 280 bytes of these 800
        # bytes, the second the next 710-280=430, and the third the
        # remaining 800-710=90 bytes."
        assert right.cumulative() == (280, 710, 800)
        obj.tree.verify()

    def test_traversal_arithmetic(self):
        """Locating byte 1470: root c[1]=1820 > 1470; child B=450;
        c[1]=710 > 450; segment byte B=170 -> page S+1, byte 70."""
        db, obj, _, _ = self.build()
        path, local = obj.tree.descend(1470)
        assert path[0].index == 1  # root: right child
        assert path[1].index == 1  # child: second segment
        assert local == 450 - 280 == 170
        assert local // 100 == 1 and local % 100 == 70

    def test_search_cost_three_seeks_six_pages(self):
        """"The cost of the above example operation, including indices
        except the root, is the cost of 3 disk seeks plus the cost to
        transfer 6 pages."
        """
        db, obj, content, _ = self.build()
        db.pool.clear()  # cold cache ...
        obj.tree.read_root()  # ... except the root, which the paper excludes
        with db.disk.stats.delta() as d:
            data = obj.read(1470, 320)
        assert data == content[1470:1790]
        # right child index page (1+1), segment B pages S+1..S+4 (1+4),
        # segment C page (1+1).
        assert d.seeks == 3
        assert d.page_reads == 6

    def test_read_spanning_both_children(self):
        db, obj, content, _ = self.build()
        assert obj.read(900, 300) == content[900:1200]

    def test_insert_and_delete_keep_content(self):
        """Figure 6/7 structural sanity on the hand-built object."""
        db, obj, content, _ = self.build()
        obj.insert(1470, b"NEW")
        expected = content[:1470] + b"NEW" + content[1470:]
        assert obj.read_all() == expected
        obj.tree.verify()
        obj.delete(1000, 500)
        expected = expected[:1000] + expected[1500:]
        assert obj.read_all() == expected
        obj.tree.verify()


class TestFigure5b:
    """Doubling growth: 1, 2, 4, 8, ... pages, trimmed at the end."""

    def test_segment_growth_pattern(self):
        db = make_db()
        obj = db.create_object()
        data = bytes(i % 251 for i in range(1820))
        for start in range(0, 1820, 90):  # "byte chunks of size less than a page"
            obj.append(data[start : start + 90])
        obj.trim()
        pages = [e.pages for _, e in obj.segments()]
        assert pages == [1, 2, 4, 8, 4]  # 19 pages total, last one trimmed
        assert obj.read_all() == data

    def test_trim_returns_spare_pages(self):
        db = make_db()
        obj = db.create_object()
        for start in range(0, 1820, 90):
            obj.append(bytes(90) if start + 90 <= 1820 else bytes(1820 - start))
        before = db.free_pages()
        freed = obj.trim()
        assert freed > 0
        assert db.free_pages() == before + freed


class TestInsertExample:
    """Figure 6: inserting into page P creates L, N (with P's tail), R."""

    def test_l_n_r_counts(self):
        db = make_db(threshold=1)
        data = bytes(i % 251 for i in range(1000))
        obj = db.create_object(data, size_hint=1000)
        seg_before = obj.segments()[0][1]
        obj.insert(550, b"I" * 30)  # P=5, Pb=50
        segs = obj.segments()
        # L keeps pages 0..5 of S (bytes 0..549 + page reshuffling is off,
        # but byte reshuffling may rebalance the boundary), R keeps the
        # pages after P.
        assert obj.read_all() == data[:550] + b"I" * 30 + data[550:]
        assert segs[0][1].child == seg_before.child  # L in place
        last = segs[-1][1]
        assert last.child > seg_before.child  # R is a suffix of S
        obj.verify()

    def test_never_overwrites_existing_leaf_pages(self, pages_transferred):
        """Section 4.5: insert writes only freshly allocated leaf pages."""
        db = make_db(threshold=1)
        data = bytes(i % 251 for i in range(1000))
        obj = db.create_object(data, size_hint=1000)
        db.checkpoint()
        old_pages = {
            e.child + i for _, e in obj.segments() for i in range(e.pages)
        }
        inserted = pages_transferred(db, lambda: obj.insert(550, b"I" * 30), writes=True)
        assert not inserted & old_pages
        # Control: an in-place replace does overwrite a leaf, and is seen.
        old_pages = {
            e.child + i for _, e in obj.segments() for i in range(e.pages)
        }
        replaced = pages_transferred(db, lambda: obj.replace(0, b"R" * 300), writes=True)
        assert replaced & old_pages


class TestDeleteExample:
    """Figure 7: partial deletes across two segments."""

    def test_two_segment_delete_shape(self):
        db = make_db(threshold=1)
        obj = db.create_object()
        a = bytes([1] * 700)
        b = bytes([2] * 900)
        obj.append(a)
        obj.trim()
        # Force a second, separate segment by inserting at the boundary
        # via append of a fresh object region.
        obj.append(b)
        obj.trim()
        if len(obj.segments()) < 2:
            pytest.skip("appends coalesced into one segment on this layout")
        # Delete from inside segment 1 to inside segment 2.
        obj.delete(650, 300)
        assert obj.read_all() == a[:650] + b[250:]
        obj.verify()

    def test_delete_creates_new_entries(self):
        """"Unlike the B-tree algorithms ... a partial segment delete may
        create new entries that need to be added in the parent."
        """
        db = make_db(threshold=1)
        data = bytes(i % 251 for i in range(1500))
        obj = db.create_object(data, size_hint=1500)
        assert len(obj.segments()) == 1
        obj.delete(420, 120)  # interior delete: L, N, R from one segment
        assert len(obj.segments()) >= 2
        assert obj.read_all() == data[:420] + data[540:]
        obj.verify()
