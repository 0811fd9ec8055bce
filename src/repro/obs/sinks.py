"""Span/metrics sinks: in-memory ring, JSON-lines file, human summary.

A sink is anything with ``on_span(record: dict)``; ``on_metrics``,
``flush`` and ``close`` are optional and discovered by ``getattr``.
Records are plain dicts (see :class:`~repro.obs.tracer.Tracer`), so
sinks never need to know about span internals.
"""

from __future__ import annotations

import io
import json
import os
from collections import deque

from repro.obs.summary import format_summary, format_tree


class RingSink:
    """Keeps the last ``capacity`` span records in memory (all of them
    when ``capacity`` is None)."""

    def __init__(self, capacity: int | None = 4096) -> None:
        self._ring: deque = deque(maxlen=capacity)
        self.metrics: dict | None = None

    def on_span(self, record: dict) -> None:
        """Store one finished-span record."""
        self._ring.append(record)

    def on_metrics(self, snapshot: dict) -> None:
        """Remember the latest metrics snapshot."""
        self.metrics = snapshot

    @property
    def records(self) -> list[dict]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonLinesSink:
    """Appends one JSON object per finished span to a file.

    Span lines carry ``"kind": "span"``; the metrics snapshot pushed by
    :meth:`Observability.flush`/:meth:`close` is written as one
    ``"kind": "metrics"`` line.  ``python -m repro.tools.tracefmt``
    renders the result.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._file: io.TextIOBase | None = open(self.path, "w")

    def on_span(self, record: dict) -> None:
        """Write the record as one compact JSON line."""
        if self._file is None:
            raise ValueError(f"trace sink {self.path!r} is closed")
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def on_metrics(self, snapshot: dict) -> None:
        """Write the metrics snapshot as one ``kind: metrics`` line."""
        if self._file is None:
            raise ValueError(f"trace sink {self.path!r} is closed")
        line = {"kind": "metrics", "metrics": snapshot}
        self._file.write(json.dumps(line, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Flush buffered lines to the file."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Close the file; further writes raise ``ValueError``."""
        if self._file is not None:
            self._file.close()
            self._file = None


class SummarySink(RingSink):
    """Keeps every record and renders a per-operation summary on demand."""

    def __init__(self) -> None:
        super().__init__(capacity=None)

    def render(self, *, tree: bool = False) -> str:
        """The aggregate table, optionally preceded by the span tree."""
        return self.render_records(self.records, tree=tree)

    @staticmethod
    def render_records(records: list[dict], *, tree: bool = False) -> str:
        """Render any record list (used by the tracefmt CLI)."""
        parts = []
        if tree:
            parts.append(format_tree(records))
        parts.append(format_summary(records))
        return "\n\n".join(parts)
