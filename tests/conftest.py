"""Fixtures shared by several test modules."""

import pytest

from repro import catalog


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


def _rewrite_catalog(db, edit):
    """Rewrite, in place, the catalog object page 0 names.

    ``edit`` gets the decoded :class:`~repro.catalog.Catalog` and returns
    either a catalog, stored through the codec (a well-formed edit), or
    raw bytes, stored as they are (an undecodable one).  The pages reach
    the disk image, so ``db.disk.save`` writes the edited catalog.
    """
    obj = db.open_root(catalog.root_of(db.disk.read_page(0)))
    data = edit(catalog.decode(obj.read_all()))
    if isinstance(data, catalog.Catalog):
        data = catalog.encode(data)
    obj.delete(0, obj.size())
    obj.append(data)
    db.checkpoint()


@pytest.fixture
def rewrite_catalog():
    """``rewrite_catalog(db, edit)``: see :func:`_rewrite_catalog`."""
    return _rewrite_catalog
