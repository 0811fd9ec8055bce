"""Configuration of the large object manager.

Most knobs correspond to explicit levers in the paper:

* ``threshold`` — the segment-size threshold T of Section 4.4: "it can
  not be the case that a number of bytes are kept in two (logically)
  adjacent segments, one of which has less than T pages, if they can be
  stored in one."  ``threshold=1`` disables page reshuffling (every
  nonempty segment is safe), reproducing the basic algorithms of
  Section 4.3.
* ``max_root_bytes`` — footnote 3: "clients may pass a parameter to EOS
  restricting the maximum size of the root to some given number of
  bytes", e.g. to embed the root in a field of a small object.
* ``adaptive_threshold`` — the [Bili91a] extension sketched at the end of
  Section 4.4: when the parent index node is about to split, logically
  adjacent unsafe segments are coalesced into one larger segment instead.

The unknown-size append policy of Section 4.1 (borrowed from Starburst)
has no knob: the first segment is one page and "successive segments
allocated for storage double in size until the maximum segment size is
reached."
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EOSConfig:
    """Tunables for one large object manager instance."""

    page_size: int = 4096
    # Segment-size threshold T, in pages (Section 4.4).  1 = no page
    # reshuffling; the paper discusses 4, 16 and 64.
    threshold: int = 8
    # Optional cap on the root node's size in bytes (footnote 3).
    max_root_bytes: int | None = None
    # [Bili91a] extension: coalesce adjacent unsafe segments when the
    # parent index node would otherwise split.
    adaptive_threshold: bool = False
    # Copy-on-write versioning (repro.versions): every committed
    # mutation publishes a new persistent root, chained in the page-0
    # catalog; readers resolve old versions lock-free.
    versioning: bool = False
    # How many committed versions per object the reclaimer retains
    # (the latest version never expires; must be >= 1).
    version_retain: int = 8
    # Debug-mode runtime sanitizers (see repro.analysis).  Off by
    # default: they cost a stack capture per pin / a directory
    # revalidation per alloc-free.  The EOS_SANITIZE environment
    # variable enables them globally regardless of these flags.
    sanitize_pins: bool = False
    sanitize_locks: bool = False
    sanitize_buddy: bool = False
    # Thread-confinement sanitizer (EOS008's runtime twin): a shard
    # claims its pool/buddy and any other thread touching them raises.
    # Not part of EOS_SANITIZE=all; see repro.analysis.confine.
    sanitize_confinement: bool = False

    def __post_init__(self) -> None:
        if self.page_size < 32:
            raise ValueError(f"page size too small: {self.page_size}")
        if self.threshold < 1:
            raise ValueError(
                f"threshold is a page count >= 1, got {self.threshold}"
            )
        if self.version_retain < 1:
            raise ValueError(
                f"version_retain must be >= 1, got {self.version_retain}"
            )
