"""The EOS large object manager (paper Section 4).

Layering within this package:

* :mod:`~repro.core.node` — positional-tree index nodes (Figure 5);
* :mod:`~repro.core.pager` — index-page storage policies (in-place vs
  the shadowing of Section 4.5);
* :mod:`~repro.core.unit` — the copy-on-write unit both recovery and
  versioning run their updates in;
* :mod:`~repro.core.tree` — descent and structural maintenance;
* :mod:`~repro.core.reshuffle` — byte/page reshuffling (4.3/4.4);
* :mod:`~repro.core.segio` — contiguous leaf-segment I/O;
* :mod:`~repro.core.search` / :mod:`~repro.core.append` /
  :mod:`~repro.core.insert` / :mod:`~repro.core.delete` — the four
  update operations plus read;
* :mod:`~repro.core.threshold` — fixed and adaptive threshold policies;
* :mod:`~repro.core.object` — the public :class:`LargeObject` handle.
"""

from repro.core.config import EOSConfig
from repro.core.node import Entry, Node, fanout, min_entries
from repro.core.object import LargeObject, ObjectStats
from repro.core.pager import InPlacePager, NodePager
from repro.core.reshuffle import ReshufflePlan, plan_reshuffle
from repro.core.stream import ObjectStream
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import LargeObjectTree

__all__ = [
    "EOSConfig",
    "Entry",
    "Node",
    "fanout",
    "min_entries",
    "LargeObject",
    "ObjectStats",
    "InPlacePager",
    "NodePager",
    "ReshufflePlan",
    "plan_reshuffle",
    "ObjectStream",
    "ThresholdPolicy",
    "LargeObjectTree",
]
