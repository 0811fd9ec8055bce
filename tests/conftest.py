"""Fixtures shared by several test modules."""

import pytest


class _PageTap:
    """An ``IOStats.observer`` that collects the pages of one direction."""

    def __init__(self, writes: bool) -> None:
        self.writes = writes
        self.pages: set[int] = set()

    def on_transfer(self, first_page, n_pages, *, is_write, seeked):
        if is_write == self.writes:
            self.pages.update(range(first_page, first_page + n_pages))


@pytest.fixture
def pages_transferred():
    """``pages_transferred(db, action, writes=...)`` runs ``action()`` and
    returns the set of pages the disk wrote (``writes=True``) or read.

    It records through ``db.disk.stats.observer``, the hook every
    accounted transfer passes, so no transfer method can slip past it.
    """

    def run(db, action, *, writes):
        stats = db.disk.stats
        assert stats.observer is None, "another spy holds the observer slot"
        stats.observer = tap = _PageTap(writes)
        try:
            action()
        finally:
            stats.observer = None
        return tap.pages

    return run
