"""Byte insertion at an arbitrary position (paper Section 4.3.1 + 4.4).

An insert is the §4.3 splice of an empty range: S is the segment
holding the target byte, the pivot page is the page of S holding it,
and N is the inserted bytes followed by that page's bytes from the
target on.  The algorithm lives in :mod:`repro.core.splice`.
"""

from __future__ import annotations

from repro.buddy.manager import BuddyManager
from repro.core.segio import SegmentIO
from repro.core.splice import splice
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import LargeObjectTree


def insert(
    tree: LargeObjectTree,
    segio: SegmentIO,
    buddy: BuddyManager,
    offset: int,
    data: bytes,
    *,
    policy: ThresholdPolicy,
) -> None:
    """Insert ``data`` so its first byte lands at byte ``offset``.

    ``offset`` must fall inside the object.  Inserting at the very end
    is an append, and which append is the caller's choice: the plain one
    fills the tail in place, a versioned one must not
    (:func:`repro.versions.ops.cow_append`).
    """
    splice(tree, segio, buddy, offset, offset, data, policy=policy)
