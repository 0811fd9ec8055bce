"""Page primitives.

A *page* is the unit of disk transfer: ``page_size`` bytes.  The paper
also calls pages "blocks"; we use *page* throughout and keep the size
configurable.  Worked examples from the paper use 100-byte pages (to
match Figure 5's arithmetic); the benchmarks use 4096-byte pages.

Pages are addressed by a plain integer :data:`PageId`.  We deliberately
avoid a heavyweight Page class: a page image is just ``bytes`` (read) or
``bytearray`` (being assembled), and the type alias documents intent.
"""

from __future__ import annotations

# A physical page number on a disk volume.  Page 0 is the first page.
PageId = int

# Minimum page size that can hold a buddy-space directory with at least a
# one-byte allocation map (see repro.buddy.directory for the layout).
MIN_PAGE_SIZE = 32


def validate_page_size(page_size: int) -> None:
    """Reject page sizes the directory layout cannot work with."""
    if page_size < MIN_PAGE_SIZE:
        raise ValueError(
            f"page size must be at least {MIN_PAGE_SIZE} bytes, got {page_size}"
        )
