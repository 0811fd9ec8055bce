"""Byte-range deletion (paper Section 4.3.2 + 4.4).

A delete is the §4.3 splice of a range with no new bytes: S holds the
first deleted byte, S′ the last, the pivot page is the page Q of S′
holding the last, and N is Q's surviving tail.  Everything between S and
S′ dies without a leaf page being touched.  The algorithm lives in
:mod:`repro.core.splice`.

Cost notes reproduced by experiment E10: a deletion whose last byte is
the last byte of a page has N_c = 0 and "can be completed without
accessing any segment"; truncation (delete to the end) and whole-object
deletion are special cases of that.  "Unlike the B-tree algorithms as
well as the ones used in Exodus, a partial segment delete may create new
entries that need to be added in the parent" — L, N and R can be three
entries where one segment stood.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.segio import SegmentIO
from repro.core.splice import splice
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import LargeObjectTree
from repro.errors import ByteRangeError


def delete_range(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    offset: int,
    length: int,
    *,
    policy: ThresholdPolicy,
) -> None:
    """Delete ``length`` bytes starting at byte ``offset``."""
    splice(tree, segio, buddy, offset, offset + length, b"", policy=policy)


def truncate(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    new_size: int,
    *,
    policy: ThresholdPolicy,
) -> None:
    """Delete from ``new_size`` to the end of the object.

    "With B=0 truncation becomes equivalent to deleting the entire
    object and thus, this operation too does not need to access any
    segment of the object."
    """
    size = tree.size()
    if new_size < 0 or new_size > size:
        raise ByteRangeError(new_size, 0, size)
    if new_size < size:
        delete_range(tree, segio, buddy, new_size, size - new_size, policy=policy)
