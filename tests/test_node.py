"""Unit tests for positional-tree index nodes (serialization, search)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import ENTRY_SIZE, HEADER_SIZE, Entry, Node, fanout, min_entries
from repro.errors import TreeCorrupt


class TestFanout:
    def test_hundred_byte_pages(self):
        # (100 - 11) // 14 = 6 entries, min 3 — matches the Figure 5 scale.
        assert fanout(100) == 6
        assert min_entries(100) == 3

    def test_4k_pages(self):
        assert fanout(4096) == (4096 - HEADER_SIZE) // ENTRY_SIZE
        assert fanout(4096) >= 250

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            fanout(40)


class TestSerialization:
    def test_round_trip_leaf_parent(self):
        node = Node(0, [Entry(280, 17, 3), Entry(430, 40, 5), Entry(90, 99, 1)])
        node.lsn = 1234
        restored = Node.from_page(node.to_page(100))
        assert restored.level == 0
        assert restored.lsn == 1234
        assert [(e.count, e.child, e.pages) for e in restored.entries] == [
            (280, 17, 3), (430, 40, 5), (90, 99, 1),
        ]

    def test_round_trip_internal(self):
        node = Node(2, [Entry(1020, 7), Entry(800, 9)])
        restored = Node.from_page(node.to_page(100))
        assert restored.level == 2
        assert restored.cumulative() == (1020, 1820)

    def test_serialized_form_is_cumulative(self):
        """The page stores the paper's c[i] values, not per-child counts."""
        import struct

        node = Node(0, [Entry(100, 1, 1), Entry(250, 2, 3)])
        image = node.to_page(100)
        c0 = struct.unpack_from("<Q", image, HEADER_SIZE)[0]
        c1 = struct.unpack_from("<Q", image, HEADER_SIZE + ENTRY_SIZE)[0]
        assert (c0, c1) == (100, 350)

    def test_empty_node(self):
        restored = Node.from_page(Node(0).to_page(100))
        assert restored.entries == []
        assert restored.total_bytes == 0

    def test_overflow_rejected(self):
        node = Node(0, [Entry(1, i, 1) for i in range(10)])
        with pytest.raises(TreeCorrupt):
            node.to_page(100)

    def test_corrupt_cumulative_detected(self):
        node = Node(0, [Entry(100, 1, 1), Entry(50, 2, 1)])
        image = node.to_page(100)
        # Swap the two cumulative counts so they decrease.
        import struct

        struct.pack_into("<Q", image, HEADER_SIZE, 150)
        struct.pack_into("<Q", image, HEADER_SIZE + ENTRY_SIZE, 100)
        with pytest.raises(TreeCorrupt):
            Node.from_page(image)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10 ** 9),
                st.integers(0, 2 ** 32 - 1),
                st.integers(0, 2 ** 16 - 1),
            ),
            max_size=6,
        ),
        st.integers(0, 30),
    )
    def test_round_trip_property(self, raw_entries, level):
        node = Node(level, [Entry(c, p, g) for c, p, g in raw_entries])
        restored = Node.from_page(node.to_page(100))
        assert restored.level == level
        assert [(e.count, e.child, e.pages) for e in restored.entries] == raw_entries


class TestFindChild:
    def setup_method(self):
        # The Figure 5.c right child: cumulative counts 280, 710, 800.
        self.node = Node(0, [Entry(280, 1, 3), Entry(430, 2, 5), Entry(90, 3, 1)])

    def test_paper_arithmetic(self):
        """"We find that c[1] = 710 is the smallest count greater than
        450, and thus, we set S=p[1], and B = 450 - c[0] = 170."
        """
        index, local = self.node.find_child(450)
        assert index == 1
        assert local == 170

    def test_first_byte(self):
        assert self.node.find_child(0) == (0, 0)

    def test_boundary_bytes_go_right(self):
        # Byte 280 is the first byte of child 1 (c[0] is not > 280).
        assert self.node.find_child(280) == (1, 0)
        assert self.node.find_child(279) == (0, 279)

    def test_last_byte(self):
        assert self.node.find_child(799) == (2, 89)

    def test_append_position(self):
        # byte == total maps to one past the end of the last child.
        assert self.node.find_child(800) == (2, 90)

    def test_out_of_range(self):
        with pytest.raises(TreeCorrupt):
            self.node.find_child(801)
        with pytest.raises(TreeCorrupt):
            self.node.find_child(-1)

    def test_empty_node_raises(self):
        with pytest.raises(TreeCorrupt):
            Node(0).find_child(0)

    def test_child_offset(self):
        assert self.node.child_offset(0) == 0
        assert self.node.child_offset(1) == 280
        assert self.node.child_offset(2) == 710

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=6), st.data())
    def test_find_child_consistency(self, counts, data):
        node = Node(0, [Entry(c, i, 1) for i, c in enumerate(counts)])
        total = sum(counts)
        byte = data.draw(st.integers(0, total - 1))
        index, local = node.find_child(byte)
        assert node.child_offset(index) + local == byte
        assert 0 <= local < counts[index]


# ---------------------------------------------------------------------------
# The columnar form against the per-child-count arithmetic it replaced
# ---------------------------------------------------------------------------


def ref_cumulative(counts):
    out, running = [], 0
    for count in counts:
        running += count
        out.append(running)
    return out


def ref_find_child(counts, byte):
    """The pre-columnar ``find_child``, on a plain list of child counts."""
    from bisect import bisect_right

    if not counts:
        raise TreeCorrupt("find_child on an empty node")
    cum = ref_cumulative(counts)
    if byte == cum[-1]:
        return len(counts) - 1, counts[-1]
    if byte < 0 or byte > cum[-1]:
        raise TreeCorrupt("outside")
    i = bisect_right(cum, byte)
    return i, byte - (cum[i - 1] if i else 0)


def outcome(fn, *args):
    try:
        return fn(*args)
    except TreeCorrupt:
        return TreeCorrupt


# Zero-count children are legal on a page (an emptied tail) and are the
# case where "smallest c[i] > B" and a linear scan could disagree.
child_counts = st.lists(st.integers(0, 400), max_size=6)


class TestColumnsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(child_counts, st.integers(-2, 2500))
    def test_decoded_node(self, counts, byte):
        entries = [Entry(c, 10 + i, i % 3) for i, c in enumerate(counts)]
        node = Node.from_page(Node(0, entries).to_page(100))
        total = sum(counts)
        assert node.n_entries == len(counts)
        assert node.total_bytes == total
        assert node.cumulative() == tuple(ref_cumulative(counts))
        assert node.child == tuple(e.child for e in entries)
        assert node.pages == tuple(e.pages for e in entries)
        for i in range(len(counts)):
            assert node.child_offset(i) == sum(counts[:i])
            assert node.entry(i) == entries[i]
        for probe in (byte, total, total - 1, 0):
            assert outcome(node.find_child, probe) == outcome(
                ref_find_child, counts, probe
            )
        # Materialising the editing form changes no answer.
        assert node.entries == entries
        assert node.cumulative() == tuple(ref_cumulative(counts))
        assert outcome(node.find_child, byte) == outcome(ref_find_child, counts, byte)

    @settings(max_examples=100, deadline=None)
    @given(child_counts, st.integers(-2, 2500))
    def test_editing_node(self, counts, byte):
        node = Node(1, [Entry(c, i) for i, c in enumerate(counts)])
        assert node.total_bytes == sum(counts)
        assert node.cumulative() == tuple(ref_cumulative(counts))
        assert outcome(node.find_child, byte) == outcome(ref_find_child, counts, byte)
        for i in range(len(counts)):
            assert node.child_offset(i) == sum(counts[:i])

    def test_edits_follow_the_entry_list(self):
        node = Node.from_page(Node(0, [Entry(100, 1, 1), Entry(50, 2, 1)]).to_page(100))
        node.entries[0].count += 7
        node.entries.append(Entry(3, 9, 1))
        assert node.cumulative() == (107, 157, 160)
        assert node.child == (1, 2, 9)
        assert node.find_child(158) == (2, 1)
        assert Node.from_page(node.to_page(100)) == node


class TestPrivateCopies:
    def image(self):
        return Node(0, [Entry(100, 1, 1), Entry(50, 2, 1)], lsn=5).to_page(100)

    def test_copy_shares_columns_not_edits(self):
        shared = Node.from_page(self.image())
        mine, theirs = shared.copy(), shared.copy()
        assert mine.cum is shared.cum  # no per-reader decode, no per-entry objects
        mine.entries[0].count = 1
        mine.entries.pop()
        mine.level = 3
        assert theirs == shared == Node.from_page(self.image())
        assert theirs.entries == [Entry(100, 1, 1), Entry(50, 2, 1)]

    def test_copy_of_an_editing_node_is_deep(self):
        node = Node(0, [Entry(100, 1, 1)])
        twin = node.copy()
        twin.entries[0].count = 1
        assert node.entries[0].count == 100

    def test_entry_is_detached(self):
        for node in (Node.from_page(self.image()), Node(0, [Entry(100, 1, 1)])):
            node.entry(0).count = 1
            assert node.entry(0) == Entry(100, 1, 1)


class TestDecodeRejectsGarbage:
    """``from_page`` is total: a node or ``TreeCorrupt``, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=160))
    def test_arbitrary_bytes(self, image):
        try:
            node = Node.from_page(image)
        except TreeCorrupt:
            return
        used = HEADER_SIZE + node.n_entries * ENTRY_SIZE
        assert used <= len(image)
        assert bytes(node.to_page(len(image))[:used]) == image[:used]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.integers(0, 8), st.binary(min_size=89, max_size=89))
    def test_plausible_header_over_arbitrary_entries(self, level, n, body):
        import struct

        image = struct.pack("<BHQ", level, n, 0) + body
        fits = n <= 6
        cum = [struct.unpack_from("<Q", body, i * ENTRY_SIZE)[0] for i in range(n)] if fits else []
        legal = level <= 64 and fits and cum == sorted(cum)
        try:
            node = Node.from_page(image)
        except TreeCorrupt:
            assert not legal
            return
        assert legal
        assert (node.level, node.n_entries, node.cumulative()) == (level, n, tuple(cum))

    def test_truncated_images(self):
        image = bytes(Node(0, [Entry(100, 1, 1), Entry(50, 2, 1)]).to_page(100))
        for cut in (0, 5, HEADER_SIZE, HEADER_SIZE + ENTRY_SIZE + 3):
            with pytest.raises(TreeCorrupt):
                Node.from_page(image[:cut])
        assert Node.from_page(image[: HEADER_SIZE + 2 * ENTRY_SIZE]).total_bytes == 150

    def test_impossible_level(self):
        image = Node(0, [Entry(100, 1, 1)]).to_page(100)
        image[0] = 200
        with pytest.raises(TreeCorrupt):
            Node.from_page(image)
        with pytest.raises(TreeCorrupt):
            Node(200, [Entry(100, 1, 0)]).to_page(100)
