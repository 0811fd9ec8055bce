"""Named counters, gauges and histograms.

Instruments are created lazily through a :class:`MetricsRegistry` and
identified by dotted names (``span.op.append.cost_ms``,
``disk.read_run_pages``).  A registry snapshot is a plain dict of plain
values, so sinks can serialise it without knowing instrument internals.

Every primitive is thread-safe: the serving layer mutates instruments
from executor worker threads while the event loop reads gauges and the
metrics endpoint snapshots the registry, so ``inc``/``set``/``observe``
and ``snapshot``/``reset`` all take the instrument's lock.  The lock is
per-instrument, so contention is limited to callers of the same metric.

When observability is disabled the registry in use is
:data:`NULL_METRICS`, whose instruments share a single no-op object —
recording into it costs one method call and touches no state.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable

#: Default histogram boundaries.  Values are unit-free: the same ladder
#: works for modelled milliseconds, seek counts and page-run lengths.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        """The current value."""
        with self._lock:
            return self.value

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value

    def snapshot(self) -> float:
        """The current value."""
        with self._lock:
            return self.value

    def reset(self) -> None:
        """Zero the gauge."""
        with self._lock:
            self.value = 0.0


class Histogram:
    """A fixed-boundary histogram with count/sum/min/max.

    ``bounds`` are upper-inclusive bucket edges; one overflow bucket
    catches everything above the last edge.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.buckets[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket (the overflow
        bucket interpolates toward the recorded max), clamped to the
        observed min/max.  Returns 0.0 when nothing has been observed.
        Estimates are monotone in ``q``, so p50 <= p95 <= p99 always
        holds even for skewed distributions.
        """
        with self._lock:
            return self._percentile(q)

    def _percentile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        if q <= 0.0:
            return float(self.min)
        if q >= 1.0:
            return float(self.max)
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if cum + n >= rank:
                lo = float(self.bounds[i - 1]) if i > 0 else 0.0
                hi = (
                    float(self.bounds[i])
                    if i < len(self.bounds)
                    else float(self.max)
                )
                value = lo + (hi - lo) * ((rank - cum) / n)
                return min(max(value, float(self.min)), float(self.max))
            cum += n
        return float(self.max)

    def snapshot(self) -> dict:
        """Count, sum, min/max/mean, p50/p95/p99, labelled bucket counts."""
        with self._lock:
            labels = [f"<={b:g}" for b in self.bounds] + [f">{self.bounds[-1]:g}"]
            return {
                "count": self.count,
                "sum": round(self.total, 6),
                "min": self.min,
                "max": self.max,
                "mean": round(self.mean, 6),
                "p50": round(self._percentile(0.50), 6),
                "p95": round(self._percentile(0.95), 6),
                "p99": round(self._percentile(0.99), 6),
                "buckets": dict(zip(labels, self.buckets)),
            }

    def reset(self) -> None:
        """Zero all buckets and statistics."""
        with self._lock:
            self.buckets = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None


class MetricsRegistry:
    """Get-or-create access to named instruments, plus bulk snapshot/reset."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, *args):
        # A hit takes no lock: instruments are never removed, and a dict
        # lookup is atomic under the GIL.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(f"metric {name!r} already exists with another type")
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._get_or_create(name, Histogram, bounds)

    def instruments(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """``(name, instrument)`` pairs, sorted by name (for exposition)."""
        with self._lock:
            return sorted(self._instruments.items())

    def snapshot(self) -> dict:
        """All instruments as plain values, sorted by name."""
        return {name: inst.snapshot() for name, inst in self.instruments()}

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for _, instrument in self.instruments():
            instrument.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


class _NullInstrument:
    """One object stands in for every instrument when metrics are off."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """A registry whose instruments discard everything."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def instruments(self) -> list:
        """Always empty."""
        return []

    def snapshot(self) -> dict:
        """Always empty."""
        return {}

    def reset(self) -> None:
        """Nothing to reset."""

    def __len__(self) -> int:
        return 0


NULL_METRICS = NullMetrics()
