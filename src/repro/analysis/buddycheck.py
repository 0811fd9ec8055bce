"""The buddy-directory invariant checker — one core, two consumers.

A buddy-space directory page is internally redundant: the count array
and the allocation map describe the same free list twice, and the
coalescing rules promise a canonical form (paper Section 2.2/3.2).
This module validates all of it and returns *findings* rather than
raising, so the same core serves:

* the **runtime sanitizer** — :class:`~repro.buddy.manager.BuddyManager`
  revalidates a space right after each alloc/free in debug mode and
  raises :class:`~repro.errors.InvariantViolation` on any finding;
* the **on-disk fsck** — :func:`repro.tools.fsck.fsck` runs the same
  checks on every directory page of a saved volume (and, on a live
  database, :func:`check_manager_space` on what the manager holds in
  main memory about it) and reports findings instead of raising.

Checked invariants:

1. map well-formedness and full coverage — segments tile the space with
   no gaps or overlapping extents (delegated to ``BuddySpace.verify``);
2. utilization accounting — the count array and the map agree on the
   free list (also ``verify``), so ``free_pages()`` is trustworthy;
3. free-list pairing — no two free buddies of equal size coexist:
   deallocation coalesces eagerly ("the buddy of a segment can easily
   be found by simply taking the exclusive OR of the segment address
   with its size"), so an unmerged pair means a free path skipped its
   merge and the space will fragment permanently;
4. scan-start hints — the allocator's main-memory ``scan_hints[t]`` must
   be a lower bound on the lowest free type-``t`` segment, or the jump
   scan starts past it and first-fit order (and so layout) silently
   changes; and the manager's decoded copy of a directory must be what
   its page stores.

The module deliberately avoids importing :mod:`repro.buddy` — the
manager imports *us*, and the checker only needs the ``verify()`` /
``max_segment_pages`` surface of a space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.util.bitops import floor_log2


@dataclass
class SpaceCheck:
    """Findings for one buddy space.

    ``segments`` is the decoded segment list when the map decoded at
    all (consumers like fsck walk it); ``None`` when even decoding
    failed.  ``problems`` is empty iff every invariant held.
    """

    segments: list[Any] | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_space(space: Any) -> SpaceCheck:
    """Validate one :class:`~repro.buddy.space.BuddySpace` in memory."""
    check = SpaceCheck()
    try:
        check.segments = space.verify()
    except ReproError as exc:
        check.problems.append(str(exc))
        return check
    # Free-list pairing: eager XOR coalescing must leave no mergeable
    # buddy pair behind.  Segments at the maximum type cannot merge
    # further (the directory page bounds the segment size).
    free = {
        (seg.start, seg.size) for seg in check.segments if not seg.allocated
    }
    for start, size in sorted(free):
        if size >= space.max_segment_pages:
            continue
        buddy = start ^ size
        if buddy > start and (buddy, size) in free:
            check.problems.append(
                f"free buddies at pages {start} and {buddy} (size {size}) "
                f"were left unmerged; coalescing is eager, so a free path "
                f"skipped its merge"
            )
    return check


def check_scan_hints(space: Any, segments: list[Any]) -> list[str]:
    """Validate a space's scan-start hints against a decoded segment list.

    ``segments`` is the ground truth (the space's own map, or the stored
    directory the space mirrors).  Every hint must be a lower bound on
    the lowest free segment of its type; and, as the end-to-end form of
    the same promise, the hinted jump scan must return what an un-hinted
    scan from segment 0 returns.
    """
    problems: list[str] = []
    lowest: dict[int, int] = {}
    for seg in segments:
        if not seg.allocated:
            lowest.setdefault(floor_log2(seg.size), seg.start)
    for size_type, start in sorted(lowest.items()):
        hint = space.scan_hints[size_type]
        if hint > start:
            problems.append(
                f"scan hint for type {size_type} is page {hint} but a free "
                f"segment of that type lies below it at page {start} (the "
                f"jump scan would never find it)"
            )
        if not space.counts[size_type]:
            continue  # the count/map disagreement is check_space's finding
        try:
            hinted = space.find_free(size_type)
            unhinted = space.find_free(size_type, hinted=False)
        except ReproError as exc:
            problems.append(f"jump scan for type {size_type} failed: {exc}")
            continue
        if hinted != unhinted:
            problems.append(
                f"hinted jump scan for type {size_type} found page {hinted}, "
                f"a scan from segment 0 finds page {unhinted}"
            )
    return problems


def check_manager_space(
    manager: Any, index: int, space: Any, check: SpaceCheck
) -> list[str]:
    """Cross-check a manager's main-memory state for one space.

    ``space`` is the stored directory (``manager.load_space(index)``)
    and ``check`` its :func:`check_space` result; nothing is compared
    against a directory that is itself inconsistent.

    * The superdirectory: guesses start optimistic and are corrected
      downward on first contact, so a guess *below* the space's actual
      best free segment means an update was lost and the allocator will
      skip a space that could serve requests.
    * The decoded directory the manager keeps across calls: it must
      serialise to the stored page byte for byte, and its scan hints
      must hold against the stored map.
    """
    if not check.ok:
        return []
    problems: list[str] = []
    guess = manager.superdirectory()[index]
    if guess < space.max_free_type():
        problems.append(
            f"superdirectory guesses max free type {guess} but the directory "
            f"holds a free segment of type {space.max_free_type()} (lost "
            f"update; the allocator will wrongly skip this space)"
        )
    decoded = manager.decoded_space(index)
    if decoded is None:
        return problems
    if decoded.to_page() != space.to_page():
        problems.append(
            "the manager's decoded directory differs from the stored page (a "
            "write bypassed the manager, or a mutation was applied and not "
            "written)"
        )
    else:
        problems.extend(check_scan_hints(decoded, check.segments or []))
    return problems


def check_manager(manager: Any) -> list[str]:
    """Validate every space of a :class:`~repro.buddy.manager.BuddyManager`:
    each stored directory (:func:`check_space`) and the manager's
    main-memory state about it (:func:`check_manager_space`)."""
    problems: list[str] = []
    for index in range(manager.volume.n_spaces):
        space = manager.load_space(index)
        check = check_space(space)
        found = check.problems + check_manager_space(manager, index, space, check)
        problems.extend(f"space {index}: {p}" for p in found)
    return problems
