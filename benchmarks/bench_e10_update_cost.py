"""E10 — the Section 4.3 I/O-cost statements, measured one by one.

* Insert: "one or two (physically adjacent) pages from the original leaf
  segment have to be read" and "the algorithm will add at most two new
  entries in the parent" (basic algorithm, T=1).
* Delete: "deletions where the last byte to be deleted happens to be the
  last byte of a page ... can be completed without accessing any
  segment"; truncation and whole-object deletion likewise.
* Otherwise one leaf page is read (the one with the last deleted byte),
  plus one or two more if bytes are shuffled.
"""

from repro.bench.harness import make_database
from repro.bench.reporting import ExperimentReport

PAGE = 512
SIZE = 100_000


def fresh_object(db):
    payload = bytes(i % 251 for i in range(SIZE))
    obj = db.create_object(payload, size_hint=SIZE)
    db.checkpoint()
    return obj


class _ReadTap:
    """``IOStats.observer`` collecting every page read."""

    def __init__(self):
        self.pages = set()

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        if not is_write:
            self.pages.update(range(first_page, first_page + n_pages))


def leaf_reads_during(db, obj, action):
    """Count reads that touch the object's current leaf pages.

    Reads are recorded through ``db.disk.stats.observer``, the hook every
    accounted transfer passes, so no read entry point can slip past it.
    """
    leaf_pages = {
        e.child + i for _, e in obj.segments() for i in range(e.pages)
    }
    db.pool.clear()
    stats = db.disk.stats
    assert stats.observer is None
    stats.observer = tap = _ReadTap()
    try:
        action()
    finally:
        stats.observer = None
    return len(tap.pages & leaf_pages)


def test_e10_update_cost_statements(benchmark):
    report = ExperimentReport(
        "E10",
        "Leaf pages read per update (basic algorithms, T=1)",
        ["operation", "leaf pages read", "paper's statement"],
        page_size=PAGE,
    )
    db = make_database(page_size=PAGE, num_pages=8192, threshold=1)

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.insert(SIZE // 2 + 100, b"i" * 50))
    report.add_row(["insert mid-page", n, "one or two pages"])
    assert 1 <= n <= 2

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.insert(SIZE // 2 + 100, b"i" * 3000))
    report.add_row(["insert large blob", n, "one or two pages"])
    assert 1 <= n <= 2

    obj = fresh_object(db)
    entries_before = len(obj.segments())
    obj.insert(SIZE // 2 + 100, b"x" * 40)
    assert len(obj.segments()) <= entries_before + 2  # at most two new entries

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.delete(3 * PAGE + 100, 50))
    report.add_row(["delete mid-page", n, "one page (+shuffle donors)"])
    assert 1 <= n <= 3

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.delete(2 * PAGE, 4 * PAGE))
    report.add_row(["delete ending on page boundary", n, "no segment access"])
    assert n == 0

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.truncate(SIZE // 3))
    report.add_row(["truncate", n, "no segment access"])
    assert n == 0

    obj = fresh_object(db)
    n = leaf_reads_during(db, obj, lambda: obj.delete(0, SIZE))
    report.add_row(["delete whole object", n, "no segment access"])
    assert n == 0

    report.note("index pages are read (buffered); leaf segments only when bytes move")
    report.attach_stats(db)
    report.emit()

    db2 = make_database(page_size=PAGE, num_pages=8192, threshold=1)
    obj2 = fresh_object(db2)
    offsets = iter(range(1000, SIZE, 997))

    def one_insert():
        obj2.insert(next(offsets), b"y" * 30)

    benchmark.pedantic(one_insert, rounds=20, iterations=1)
