"""Payload-copy accounting for the data path.

The zero-copy work (memoryview I/O from disk to wire) is only
verifiable if copies are *counted*, not assumed: this module is a
process-wide ledger the data-path layers report to whenever they
materialize a Python-level copy of payload bytes.  The copy-counting
benchmark (``benchmarks/bench_datapath_copies.py``) enables it around a
scan and divides bytes-copied by bytes-delivered; the perf-regression
gate fails if that ratio ever grows.

What counts as a copy: any intermediate Python buffer holding payload
bytes — a ``bytes()`` materialization, a slice of a ``bytes`` span, a
``join``, a frame concatenation.  What does not: the disk transfer
itself (the simulated device's own buffer is the platter, not a hop)
and kernel-side socket copies (that is the wire).

Accounting is disabled by default and costs one attribute check per
transfer when off.  Sites are labelled so the benchmark can print a
per-layer copy inventory.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class CopyLedger:
    """Bytes copied per site, accumulated while enabled."""

    __slots__ = ("enabled", "bytes_copied", "by_site", "_lock")

    def __init__(self) -> None:
        self.enabled = False
        self.bytes_copied = 0
        self.by_site: dict[str, int] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Zero the counters (leaves enablement alone)."""
        with self._lock:
            self.bytes_copied = 0
            self.by_site = {}

    def record(self, site: str, nbytes: int) -> None:
        """Account ``nbytes`` of payload copied at ``site``."""
        if nbytes <= 0:
            return
        with self._lock:
            self.bytes_copied += nbytes
            self.by_site[site] = self.by_site.get(site, 0) + nbytes


#: The process-wide ledger the data-path layers report to.
LEDGER = CopyLedger()


def record(site: str, nbytes: int) -> None:
    """Report a payload copy (no-op unless tracking is enabled)."""
    if LEDGER.enabled:
        LEDGER.record(site, nbytes)


def materialize(view, site: str) -> bytes:
    """An intentional contract copy: ``view`` as caller-owned ``bytes``.

    The one sanctioned way for a hot-path layer to hand ownership of
    payload bytes to its caller — the copy is explicit and accounted to
    ``site``.  (The EOS006 lint flags bare ``bytes(...)`` in those
    layers precisely so every materialization goes through here.)
    """
    data = bytes(view)
    record(site, len(data))
    return data


@contextmanager
def tracking() -> Iterator[CopyLedger]:
    """Enable copy accounting inside the block; yields the ledger."""
    LEDGER.reset()
    LEDGER.enabled = True
    try:
        yield LEDGER
    finally:
        LEDGER.enabled = False


__all__ = ["CopyLedger", "LEDGER", "record", "materialize", "tracking"]
