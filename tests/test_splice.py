"""The §4.3 splice behind insert and delete: any range replaced by any
bytes against a bytearray, the layout a seeded edit script leaves at
four thresholds, and the leaf reads of a delete that stays inside one
segment."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EOSConfig, EOSDatabase
from repro.core.splice import splice
from repro.tools.fsck import fsck

PAGE = 512


def _segment_at(obj, rng):
    """A random leaf entry and the global offset where it starts."""
    return rng.choice(obj.segments())


def _edit(obj, model, rng):
    """One step of the layout script; ``model`` tracks the content."""
    size = obj.size()
    kind = rng.choice(
        ("insert", "insert", "in_segment", "cross", "page_end", "truncate")
    )
    if size < 4 * PAGE:
        kind = "append"
    if kind == "append":
        data = rng.randbytes(rng.randint(PAGE, 8 * PAGE))
        obj.append(data)
        model += data
    elif kind == "insert":
        at = rng.randrange(size)
        data = rng.randbytes(rng.randint(1, 3 * PAGE))
        obj.insert(at, data)
        model[at:at] = data
    elif kind == "truncate":
        new_size = size - rng.randint(1, min(size, 4 * PAGE))
        obj.truncate(new_size)
        del model[new_size:]
    else:
        seg_lo, entry = _segment_at(obj, rng)
        seg_hi = seg_lo + entry.count
        if kind == "in_segment":
            lo = rng.randrange(seg_lo, seg_hi)
            hi = rng.randint(lo + 1, min(seg_hi, lo + 3 * PAGE))
        elif kind == "cross":
            if seg_hi == size:
                return
            lo = rng.randrange(seg_lo, seg_hi)
            hi = rng.randint(seg_hi + 1, min(size, seg_hi + 3 * PAGE))
        else:  # a delete whose last byte ends a page of its segment
            pages = -(-entry.count // PAGE)
            if pages < 2:
                return
            hi = seg_lo + rng.randint(1, pages - 1) * PAGE
            lo = rng.randint(max(seg_lo, hi - 3 * PAGE), hi - 1)
        obj.delete(lo, hi - lo)
        del model[lo:hi]


def layout_script(threshold: int) -> dict:
    """A seeded script of inserts, deletes inside one segment and across
    segments, deletes ending on a page boundary and truncates, on four
    objects; returns the leaf layout it leaves and what it wrote."""
    config = EOSConfig(page_size=PAGE, threshold=threshold)
    db = EOSDatabase.create(num_pages=4096, page_size=PAGE, config=config)
    rng = random.Random(43)
    objs, models = [], []
    for _ in range(4):
        obj = db.create_object()
        model = bytearray()
        for _ in range(6):
            data = rng.randbytes(rng.randint(PAGE, 12 * PAGE))
            obj.append(data)
            model += data
        objs.append(obj)
        models.append(model)
    db.checkpoint()
    db.stats.reset()
    for _ in range(300):
        i = rng.randrange(len(objs))
        _edit(objs[i], models[i], rng)
    db.checkpoint()
    digest = hashlib.sha256()
    for obj, model in zip(objs, models):
        assert obj.read_all() == model
        obj.verify()
        entries = [(e.count, e.child, e.pages) for _, e in obj.segments()]
        digest.update(repr(entries).encode())
    return {
        "leaves": digest.hexdigest(),
        "free_pages": db.free_pages(),
        "page_writes": db.disk.stats.page_writes,
    }


class TestGoldenSpliceLayout:
    """Recorded before insert and delete were folded into one splice:
    where every segment lies, how many pages are free and how many
    pages the script wrote, at T = 1, 2, 8 and 32.  The fold moved no
    allocation and no write."""

    RECORDED = {
        1: {
            "leaves": "f349bac175aaa53a19a44d7dec8769a4bff8788c35b93cd3eb812996c3b4a855",
            "free_pages": 3734, "page_writes": 552,
        },
        2: {
            "leaves": "7c675550b11f4bf4c09ef18a308403b2332857a5ba89a1a2cb26fa8f2adcdaeb",
            "free_pages": 3755, "page_writes": 696,
        },
        8: {
            "leaves": "2cfa1053990b5ac31c578189cb80d56fd83ae5d9b90bd9348f857dc2499102e9",
            "free_pages": 3787, "page_writes": 1398,
        },
        32: {
            "leaves": "d754eb998ddce0ea515fb7238d82595a2debd852c0721879edf7ba550845cc66",
            "free_pages": 3814, "page_writes": 1844,
        },
    }

    @pytest.mark.parametrize("threshold", [1, 2, 8, 32])
    def test_layout_matches_recording(self, threshold):
        assert layout_script(threshold) == self.RECORDED[threshold]


class _LeafReads:
    """An ``IOStats.observer`` listing each read transfer that touches
    one page run, in issue order."""

    def __init__(self, first: int, n_pages: int) -> None:
        self.pages = range(first, first + n_pages)
        self.calls: list[range] = []

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        run = range(first_page, first_page + n_pages)
        if not is_write and run.start < self.pages.stop and self.pages.start < run.stop:
            self.calls.append(run)


class TestInSegmentDeleteReads:
    """A delete inside one segment reads the bytes L's tail gives N and
    the pivot page's surviving bytes in one run when the two share a
    page or abut (100-byte pages, one 40-page segment)."""

    @pytest.mark.parametrize("threshold", [1, 8])
    @pytest.mark.parametrize(
        "lo, length, pivot_page",
        [
            (1020, 30, 10),  # L's tail page is the pivot page
            (1080, 50, 11),  # L's tail page is the one before it
        ],
        ids=["shared", "abutting"],
    )
    def test_one_leaf_read_call(self, threshold, lo, length, pivot_page):
        config = EOSConfig(page_size=100, threshold=threshold)
        db = EOSDatabase.create(num_pages=2000, page_size=100, config=config)
        data = bytes(i % 251 for i in range(4000))
        obj = db.create_object(data, size_hint=len(data))
        [(_, entry)] = obj.segments()
        db.checkpoint()
        spy = db.disk.stats.observer = _LeafReads(entry.child, entry.pages)
        try:
            obj.delete(lo, length)
        finally:
            db.disk.stats.observer = None
        assert obj.read_all() == data[:lo] + data[lo + length :]
        obj.verify()
        [run] = spy.calls
        # The run holds both of N's sources: L's moved tail (the page of
        # ``lo``) and the pivot page.
        assert entry.child + lo // 100 in run
        assert entry.child + pivot_page in run


class TestSpliceModel:
    """``splice(lo, hi, data)`` with both a range and new bytes — the
    replace that neither insert nor delete makes — against a
    bytearray, on an object of several segments with a spare tail, with
    and without the adaptive coalesce."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_a_bytearray(self, draw):
        threshold = draw.draw(st.sampled_from([1, 2, 8]), label="T")
        adaptive = draw.draw(st.booleans(), label="adaptive")
        config = EOSConfig(
            page_size=100, threshold=threshold, adaptive_threshold=adaptive
        )
        db = EOSDatabase.create(num_pages=3000, page_size=100, config=config)
        obj = db.create_object()
        model = bytearray()
        for i in range(4):
            chunk = bytes((i * 41 + j) % 251 for j in range(draw.draw(st.integers(1, 900))))
            obj.append(chunk)  # doubling growth: several segments, a spare tail
            model += chunk
        for step in range(draw.draw(st.integers(1, 8), label="steps")):
            size = len(model)
            lo = draw.draw(st.integers(0, size - 1), label="lo")
            hi = draw.draw(st.integers(lo, size), label="hi")
            data = bytes([step + 1]) * draw.draw(st.integers(0, 450), label="n")
            splice(obj.tree, obj.segio, obj.buddy, lo, hi, data, policy=obj.policy)
            model[lo:hi] = data
            if not model:
                break
            assert obj.read_all() == model
            obj.verify()
        db.checkpoint()
        report = fsck(db, expect_no_leaks=True)
        assert report.clean, report.summary()
