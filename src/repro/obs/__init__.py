"""Structured observability: tracing, metrics, and the stats facade.

The paper's claims are *cost* claims — piece-wise operations proportional
to the bytes touched, ~1 disk access per allocation, near-transfer-rate
scans — and this package is how the repository attributes those costs to
individual operations instead of reading three global counter bags:

* :mod:`repro.obs.tracer` — :class:`Tracer` produces nested spans
  (``op=append oid=7 bytes=65536`` with child spans for tree descent,
  buddy allocation and segment I/O), each carrying the seek/transfer
  delta the disk-head model recorded while the span was open;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` holds named
  counters, gauges and histograms (modelled-cost latencies, seek
  distributions, allocation sizes; a scrape reads the disk counters
  from ``IOStats`` itself);
* :mod:`repro.obs.sinks` — pluggable receivers: an in-memory ring for
  tests, a JSON-lines file for offline analysis (rendered by
  ``python -m repro.tools.tracefmt``), and a human summary;
* :mod:`repro.obs.facade` — ``db.stats``: one snapshot/reset/delta
  surface over the disk, buffer-pool and allocator counters;
* :mod:`repro.obs.health` — storage health: the :class:`VolumeHealth`
  fragmentation/layout collector, decayed per-object heat, and the
  background :class:`HealthMonitor` with its jsonl time series.

Tracing is off by default: every component holds a shared
:data:`NULL_OBS` whose tracer and registry are no-op singletons, so hot
paths pay one attribute lookup and an empty method call (and a server
builds spans only for the requests that ask for them)::

    db = EOSDatabase.create(num_pages=8192)
    ring = RingSink()
    db.obs.enable(sinks=[ring])
    obj = db.create_object(b"...")
    obj.read(0, obj.size())
    print(SummarySink.render_records(ring.records))
"""

from repro.obs.facade import DatabaseStats, StatsSnapshot
from repro.obs.flight import FlightRecorder, load_flight
from repro.obs.health import (
    HealthMonitor,
    HeatTracker,
    ObjectLayout,
    SpaceHealth,
    VolumeHealth,
    collect_volume_health,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prom import render_prometheus
from repro.obs.sinks import JsonLinesSink, RingSink, SummarySink
from repro.obs.summary import aggregate_spans, format_summary, format_tree
from repro.obs.tracer import (
    NULL_OBS,
    NULL_TRACER,
    NullTracer,
    Observability,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "DatabaseStats",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "HeatTracker",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "ObjectLayout",
    "Observability",
    "RingSink",
    "Span",
    "SpaceHealth",
    "StatsSnapshot",
    "SummarySink",
    "Tracer",
    "VolumeHealth",
    "aggregate_spans",
    "collect_volume_health",
    "format_summary",
    "format_tree",
    "load_flight",
    "render_prometheus",
]
