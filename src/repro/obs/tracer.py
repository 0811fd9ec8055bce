"""Nested spans with per-span I/O deltas, and the per-database bundle.

A :class:`Span` is opened with ``with tracer.span("op.append", oid=7,
bytes=65536):`` and nests by call structure: spans opened while another
is active become its children.  At entry the tracer snapshots the bound
:class:`~repro.storage.iostats.IOStats`; at exit it computes

* ``io`` — the cumulative seek/transfer delta over the span (children
  included), straight from the disk-head model, and
* ``self_io`` — ``io`` minus the children's cumulative deltas, i.e. the
  I/O attributable to this span's own code,

plus the modelled cost of ``io`` under the bound
:class:`~repro.storage.geometry.DiskGeometry`.  Finished spans are
rendered to plain dicts and pushed to every sink; per-name counters and
cost/seek histograms are recorded into the metrics registry.

:class:`Observability` is the per-database bundle: it starts disabled
(no-op tracer, no-op registry) and :meth:`Observability.enable` swaps in
live instances — components hold the bundle, not the tracer, so a
database can be observed without rebuilding it.  :data:`NULL_OBS` is the
shared always-disabled bundle that standalone components default to.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.storage.geometry import DISK_1992, DiskGeometry


class NullSpan:
    """The span produced by a disabled tracer: enters, exits, records nothing."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        """Discard the attributes."""
        return self

    def under(self, trace_id: int, parent_id: int | None = None,
              *, remote: bool = False) -> "NullSpan":
        """Discard the preset context."""
        return self


_NULL_SPAN = NullSpan()


class NullTracer:
    """A tracer whose spans are one shared no-op object."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs) -> NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def new_span_id(self) -> int:
        """Disabled tracers allocate nothing."""
        return 0

    def new_trace_id(self) -> int:
        """Disabled tracers allocate nothing."""
        return 0

    def record_span(self, name: str, **kwargs) -> None:
        """Discard the hand-built record."""


NULL_TRACER = NullTracer()


class Span:
    """One timed, I/O-accounted region of work."""

    __slots__ = (
        "tracer", "name", "attrs", "trace_id", "span_id", "parent_id",
        "elapsed_ms", "io", "self_io", "cost_ms", "error", "remote_parent",
        "_t0", "_io0", "_child_io", "_preset",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: int | None = None
        self.elapsed_ms = 0.0
        self.io = (0, 0, 0)        # (seeks, page_reads, page_writes)
        self.self_io = (0, 0, 0)
        self.cost_ms = 0.0
        self.error: str | None = None
        self.remote_parent = False
        self._t0 = 0.0
        self._io0 = (0, 0, 0)
        self._child_io = [0, 0, 0]
        self._preset: tuple[int, int | None, bool] | None = None

    def set(self, **attrs) -> "Span":
        """Attach more attributes mid-span (e.g. the allocation result)."""
        self.attrs.update(attrs)
        return self

    def under(self, trace_id: int, parent_id: int | None = None,
              *, remote: bool = False) -> "Span":
        """Preset the trace context this span roots under when it lands at
        the bottom of the tracer's stack.

        Used by the serving layer to hang a worker-thread span tree under
        a per-request root (``remote=False``) or a client-propagated wire
        context (``remote=True``).  Ignored when the span nests under an
        already-open local span — call structure wins.
        """
        self._preset = (trace_id, parent_id, remote)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.error = exc_type.__name__
        self.tracer._pop(self)
        return False


class Tracer:
    """Produces spans, captures their I/O deltas, and feeds the sinks."""

    enabled = True

    def __init__(
        self,
        iostats=None,
        *,
        metrics=NULL_METRICS,
        sinks: Iterable = (),
        geometry: DiskGeometry = DISK_1992,
        page_size: int = 4096,
        first_trace_id: int = 1,
        first_span_id: int = 1,
    ) -> None:
        self.iostats = iostats
        self.metrics = metrics
        self.sinks = list(sinks)
        self.geometry = geometry
        self.page_size = page_size
        self._stack: list[Span] = []
        # Span name -> its (counter, cost_ms, seeks) instruments.
        self._instruments: dict[str, tuple] = {}
        self._next_span = first_span_id
        self._next_trace = first_trace_id
        # Span/trace ids are handed out to the serving layer from both the
        # event loop and executor threads; emission interleaves the same
        # way, so both take small locks.
        self._id_lock = threading.Lock()
        self._emit_lock = threading.Lock()

    def span(self, name: str, **attrs) -> Span:
        """A new span; it joins the trace tree when entered."""
        return Span(self, name, attrs)

    def new_span_id(self) -> int:
        """Allocate a span id (thread-safe; for hand-built records)."""
        with self._id_lock:
            span_id = self._next_span
            self._next_span += 1
            return span_id

    def new_trace_id(self) -> int:
        """Allocate a trace id (thread-safe; for hand-built records)."""
        with self._id_lock:
            trace_id = self._next_trace
            self._next_trace += 1
            return trace_id

    # -- span lifecycle ------------------------------------------------------

    def _io_now(self) -> tuple[int, int, int]:
        stats = self.iostats
        if stats is None:
            return (0, 0, 0)
        return (stats.seeks, stats.page_reads, stats.page_writes)

    def _push(self, span: Span) -> None:
        span.span_id = self.new_span_id()
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        elif span._preset is not None:
            span.trace_id, span.parent_id, span.remote_parent = span._preset
        else:
            span.parent_id = None
            span.trace_id = self.new_trace_id()
        span._t0 = time.perf_counter()
        span._io0 = self._io_now()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not any(s is span for s in self._stack):
            return  # double exit; already finished
        # Tolerate mis-nested exits: finish still-open children first, so
        # their I/O lands in this span's child accumulator.
        while self._stack[-1] is not span:
            self._pop(self._stack[-1])
        self._stack.pop()
        span.elapsed_ms = (time.perf_counter() - span._t0) * 1000.0
        now = self._io_now()
        span.io = tuple(a - b for a, b in zip(now, span._io0))
        span.self_io = tuple(a - b for a, b in zip(span.io, span._child_io))
        span.cost_ms = self.geometry.cost_ms(
            span.io[0], span.io[1] + span.io[2], self.page_size
        )
        if self._stack:
            parent = self._stack[-1]
            for i in range(3):
                parent._child_io[i] += span.io[i]
        self._emit(span)

    def _pop_all(self) -> None:
        """Finish any spans left open (used when tracing is torn down)."""
        while self._stack:
            self._pop(self._stack[-1])

    def _span_instruments(self, name: str) -> tuple:
        """The counter and the cost/seek histograms of one span name,
        looked up in the registry on the name's first span only."""
        bound = self._instruments.get(name)
        if bound is None:
            metrics = self.metrics
            bound = (
                metrics.counter(f"span.{name}"),
                metrics.histogram(f"span.{name}.cost_ms"),
                metrics.histogram(f"span.{name}.seeks"),
            )
            self._instruments[name] = bound
        return bound

    def _emit(self, span: Span) -> None:
        count, cost_ms, seeks = self._span_instruments(span.name)
        count.inc()
        cost_ms.observe(span.cost_ms)
        seeks.observe(span.io[0])
        if not self.sinks:
            return
        record = {
            "kind": "span",
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "attrs": span.attrs,
            "elapsed_ms": round(span.elapsed_ms, 3),
            "io": {
                "seeks": span.io[0],
                "page_reads": span.io[1],
                "page_writes": span.io[2],
            },
            "self_io": {
                "seeks": span.self_io[0],
                "page_reads": span.self_io[1],
                "page_writes": span.self_io[2],
            },
            "cost_ms": round(span.cost_ms, 3),
        }
        if span.error is not None:
            record["error"] = span.error
        if span.remote_parent:
            record["remote_parent"] = True
        self._dispatch(record)

    def _dispatch(self, record: dict) -> None:
        with self._emit_lock:
            for sink in self.sinks:
                sink.on_span(record)

    def record_span(
        self,
        name: str,
        *,
        trace_id: int,
        span_id: int,
        parent_id: int | None = None,
        remote_parent: bool = False,
        elapsed_ms: float = 0.0,
        attrs: dict | None = None,
        error: str | None = None,
    ) -> None:
        """Emit a hand-built span record (no stack, no I/O attribution).

        The serving layer uses this for spans whose lifetime does not
        follow call structure — per-request roots that stay open across
        event-loop awaits while other requests interleave, and phase
        children (admission/encode) measured with plain timers.
        Ids come from :meth:`new_span_id`/:meth:`new_trace_id`;
        ``remote_parent`` marks a ``parent_id`` that lives in another
        process's trace file (the wire-propagated client span id).
        """
        self.metrics.counter(f"span.{name}").inc()
        record = {
            "kind": "span",
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "attrs": attrs or {},
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if error is not None:
            record["error"] = error
        if remote_parent:
            record["remote_parent"] = True
        if self.sinks:
            self._dispatch(record)


class _DiskObserver:
    """Feeds per-transfer metrics from the head model into the registry."""

    __slots__ = ("read_runs", "write_runs", "seeks")

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.read_runs = metrics.histogram("disk.read_run_pages")
        self.write_runs = metrics.histogram("disk.write_run_pages")
        self.seeks = metrics.counter("disk.seeks")

    def on_transfer(
        self, first_page: int, n_pages: int, *, is_write: bool, seeked: bool
    ) -> None:
        (self.write_runs if is_write else self.read_runs).observe(n_pages)
        if seeked:
            self.seeks.inc()


class Observability:
    """Tracer + metrics + sinks for one database, swappable in place.

    Components keep a reference to this object and read ``obs.tracer`` /
    ``obs.metrics`` on every use, so enabling or disabling observability
    mid-life needs no rewiring.  Disabled (the initial state), both are
    shared no-op singletons.
    """

    def __init__(
        self,
        *,
        iostats=None,
        geometry: DiskGeometry = DISK_1992,
        page_size: int = 4096,
    ) -> None:
        self.iostats = iostats
        self.geometry = geometry
        self.page_size = page_size
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.sinks: list = []
        self._shared = False

    @property
    def enabled(self) -> bool:
        """Whether a live tracer is installed."""
        return self.tracer.enabled

    def enable(
        self,
        sinks: Iterable = (),
        *,
        metrics: MetricsRegistry | None = None,
        geometry: DiskGeometry | None = None,
        first_trace_id: int = 1,
        first_span_id: int = 1,
    ) -> "Observability":
        """Switch tracing and metrics on; returns self for chaining.

        ``first_trace_id`` seeds the tracer's trace-id allocator — a
        client that will merge its trace file with a server's picks a
        random seed so concurrent clients' trace ids don't collide in
        the server-side file.  ``first_span_id`` seeds the span-id
        allocator the same way: a sharded server gives each shard's
        tracer a disjoint span-id block, because shard spans hang under
        coordinator-allocated request roots inside one trace.
        """
        if self._shared:
            raise RuntimeError(
                "NULL_OBS is the shared disabled bundle; create an "
                "Observability of your own (or use the database's) to enable"
            )
        if geometry is not None:
            self.geometry = geometry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks = list(sinks)
        self.tracer = Tracer(
            self.iostats,
            metrics=self.metrics,
            sinks=self.sinks,
            geometry=self.geometry,
            page_size=self.page_size,
            first_trace_id=first_trace_id,
            first_span_id=first_span_id,
        )
        if self.iostats is not None:
            self.iostats.observer = _DiskObserver(self.metrics)
        return self

    def disable(self) -> None:
        """Switch back to the no-op tracer and registry (sinks are kept
        neither open nor closed — use :meth:`close` to finalise them)."""
        if isinstance(self.tracer, Tracer):
            self.tracer._pop_all()
        if self.iostats is not None:
            self.iostats.observer = None
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.sinks = []

    def flush(self) -> None:
        """Push the current metrics snapshot to sinks and flush them."""
        if self.metrics.enabled:
            snapshot = self.metrics.snapshot()
            for sink in self.sinks:
                on_metrics = getattr(sink, "on_metrics", None)
                if on_metrics is not None:
                    on_metrics(snapshot)
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        """Flush, close every sink that supports it, and disable."""
        sinks = list(self.sinks)
        self.flush()
        self.disable()
        for sink in sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: The shared always-disabled bundle standalone components default to.
NULL_OBS = Observability()
NULL_OBS._shared = True
