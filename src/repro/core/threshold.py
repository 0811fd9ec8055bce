"""Segment-size threshold policies (paper Section 4.4 and [Bili91a]).

The fixed policy is the paper's main mechanism: a single T per object
(or per file), specifiable "as a hint to the storage manager", with the
stated trade-off — larger T improves utilization and read performance,
and only insert/delete costs can suffer.

The adaptive policy implements the extension the paper sketches from
[Bili91a]: "the closer we are to splitting an index, the higher the
value of T should become.  When the parent node is indeed going to be
split if the child segment is split, the entire node is scanned and for
any two or more logically adjacent segments that have less than T pages,
a single larger segment is allocated to accommodate this group of unsafe
adjacent segments."  Here that is two pieces:

* :meth:`ThresholdPolicy.effective` scales T with the parent's fill
  ratio, and
* the splice (:mod:`repro.core.splice`) calls :func:`find_unsafe_runs`
  to coalesce adjacent unsafe segments when its parent would otherwise
  split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import Entry
from repro.util.bitops import ceil_div


@dataclass(frozen=True)
class ThresholdPolicy:
    """Computes the effective T for one update operation."""

    base: int
    adaptive: bool = False

    def effective(self, parent_fill_ratio: float) -> int:
        """The T to use given how full the parent index node is.

        The fixed policy ignores the fill ratio.  The adaptive policy
        doubles T as the parent passes 3/4 full and doubles again when
        it is essentially full, so segments consolidate *before* the
        node must split.
        """
        if not self.adaptive:
            return self.base
        if parent_fill_ratio >= 0.95:
            return self.base * 4
        if parent_fill_ratio >= 0.75:
            return self.base * 2
        return self.base


def find_unsafe_runs(
    entries: list[Entry], threshold: int, page_size: int
) -> list[tuple[int, int]]:
    """Maximal runs of >=2 adjacent leaf entries that are all unsafe.

    Returns ``(start_index, end_index)`` pairs (half-open).  Each run is
    a candidate for coalescing into a single segment; runs whose
    combined size would still be a legal segment are the ones the
    adaptive mechanism rewrites.
    """
    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(entries):
        pages = ceil_div(entries[i].count, page_size)
        if 0 < pages < threshold:
            j = i
            while j < len(entries):
                p = ceil_div(entries[j].count, page_size)
                if not 0 < p < threshold:
                    break
                j += 1
            if j - i >= 2:
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs
