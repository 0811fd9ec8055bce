"""Glue between workload traces, stores, and I/O measurement.

``apply_trace`` replays a trace against any
:class:`~repro.baselines.base.LargeObjectStore`;
``run_trace_measured`` does the same inside the database's
:meth:`~repro.obs.facade.DatabaseStats.delta` and returns the
:class:`~repro.obs.facade.StatsSnapshot` — seeks and transfers (the paper's
cost currency) at the top level, buffer/allocator counters alongside.
"""

from __future__ import annotations

from typing import Iterable

from repro.api import EOSDatabase
from repro.baselines.base import LargeObjectStore
from repro.core.config import EOSConfig
from repro.obs.facade import StatsSnapshot
from repro.obs.tracer import Observability
from repro.workloads.generator import Operation


def make_database(
    *,
    page_size: int = 4096,
    num_pages: int = 8192,
    threshold: int = 8,
    adaptive: bool = False,
    space_capacity: int | None = None,
    obs: Observability | None = None,
) -> EOSDatabase:
    """A fresh database with benchmark-friendly defaults."""
    config = EOSConfig(
        page_size=page_size, threshold=threshold, adaptive_threshold=adaptive
    )
    return EOSDatabase.create(
        num_pages=num_pages,
        page_size=page_size,
        config=config,
        space_capacity=space_capacity,
        obs=obs,
    )


def apply_trace(store: LargeObjectStore, handle, trace: Iterable[Operation]) -> int:
    """Replay a trace; returns the number of operations applied."""
    count = 0
    for op in trace:
        if op.kind == "append":
            store.append(handle, op.data)
        elif op.kind == "insert":
            store.insert(handle, op.offset, op.data)
        elif op.kind == "delete":
            store.delete(handle, op.offset, op.length)
        elif op.kind == "replace":
            store.replace(handle, op.offset, op.data)
        elif op.kind == "read":
            store.read(handle, op.offset, op.length)
        else:
            raise ValueError(f"unknown operation kind {op.kind!r}")
        count += 1
    return count


def run_trace_measured(
    db: EOSDatabase,
    store: LargeObjectStore,
    handle,
    trace: Iterable[Operation],
    *,
    cold_cache: bool = False,
) -> StatsSnapshot:
    """Replay a trace under ``db.stats.delta``; returns the counts."""
    with db.stats.delta(cold=cold_cache) as delta:
        apply_trace(store, handle, trace)
    return delta
