"""Small measurement helpers shared by the e2e harness.

Nothing here knows about the program under test: percentiles over
latency samples, the machine-speed sentinel, process-level readings
(peak RSS, CPU pinning).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..1)."""
    n = len(sorted_values)
    if not n:
        return 0.0
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))]


def median(values) -> float:
    """Median of any iterable of numbers (0.0 when empty)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Microseconds for a fixed Python + memcpy kernel (best of 25).

    The kernel never touches the program under test, so a change in
    this number between the start and the end of a run means the host
    got slower or faster, not the program.
    """
    # Non-zero source: a calloc'ed buffer would alias one zero page.
    src = bytes(range(256)) * 4096
    dst = bytearray(src)
    best = math.inf
    for _ in range(25):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i & 7
        for _ in range(16):
            dst[:] = src
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_last_cpu() -> None:
    """Pin the process to the last CPU it may run on; no-op where the
    platform has no affinity call."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
