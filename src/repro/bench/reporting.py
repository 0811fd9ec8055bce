"""Experiment reports: paper-style tables, printed and persisted.

Each benchmark builds an :class:`ExperimentReport`, fills rows, then
calls :meth:`emit` — which prints the table (visible with ``pytest -s``)
and writes it to ``benchmarks/results/<experiment>.txt`` so
EXPERIMENTS.md can reference stable artifacts.

A report with an attached stats source (:meth:`attach_stats`, usually
the database under test) also writes a ``<experiment>.metrics.json``
sidecar: the ``db.stats`` snapshot plus the observability registry's
metrics, when enabled.

Every ``emit`` additionally writes a machine-readable
``BENCH_<ID>.json`` artifact (see :mod:`repro.bench.jsonout`): the raw
row values, the declared parameters (:meth:`set_params`), cumulative
seeks/transfers from the attached stats source, and wall-clock ms from
report construction to emit.  CI diffs these instead of parsing tables.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterable, Mapping, Sequence

from repro.bench.jsonout import write_bench_json
from repro.storage.geometry import DISK_1992, DiskGeometry
from repro.storage.iostats import IOSnapshot
from repro.util.fmt import TextTable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "benchmarks", "results")


class ExperimentReport:
    """One experiment's table plus free-form notes."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        columns: Sequence[str],
        *,
        geometry: DiskGeometry = DISK_1992,
        page_size: int = 4096,
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.table = TextTable(f"[{experiment_id}] {title}", columns)
        self.notes: list[str] = []
        self.geometry = geometry
        self.page_size = page_size
        self.params: dict[str, object] = {
            "geometry": geometry.name,
            "page_size": page_size,
        }
        self.rows: list[list[object]] = []
        self._io: dict[str, object] = {}
        self._wall_ms: float | None = None
        self._stats_source = None
        self._t0 = time.perf_counter()

    def attach_stats(self, source) -> None:
        """Bind a stats source (anything with a ``stats`` facade, e.g. an
        :class:`~repro.api.EOSDatabase`); :meth:`emit` then writes its
        snapshot and metrics to a ``.metrics.json`` sidecar."""
        self._stats_source = source

    def set_params(self, params: Mapping[str, object] | None = None, **kw) -> None:
        """Record experiment parameters for the ``BENCH_<ID>.json`` artifact."""
        if params:
            self.params.update(params)
        self.params.update(kw)

    def set_io(self, io: Mapping[str, object] | None = None, **kw) -> None:
        """Record I/O totals explicitly for the JSON artifact.

        For benchmarks that close their database before :meth:`emit`
        (so the attached stats source is no longer live) — capture
        ``seeks``/``page_transfers`` first and hand them over here.
        """
        if io:
            self._io.update(io)
        self._io.update(kw)

    def set_wall_ms(self, wall_ms: float) -> None:
        """Override the artifact's wall-clock time (default: init→emit)."""
        self._wall_ms = wall_ms

    def add_row(self, values: Iterable[object]) -> None:
        """Append one table row (cells in column order)."""
        values = list(values)
        self.rows.append(values)
        self.table.add_row(values)

    def note(self, text: str) -> None:
        """Attach a free-form footnote to the report."""
        self.notes.append(text)

    def cost_ms(self, delta: IOSnapshot) -> float:
        """Model time for an I/O delta under the configured geometry."""
        return self.geometry.cost_ms(
            delta.seeks, delta.page_transfers, self.page_size
        )

    def render(self) -> str:
        """Render the table, notes and geometry line as text."""
        parts = [self.table.render()]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {n}" for n in self.notes)
        parts.append(
            f"  (geometry: {self.geometry.name}, seek {self.geometry.seek_ms} ms, "
            f"{self.geometry.transfer_ms(self.page_size):.2f} ms per "
            f"{self.page_size}-byte page)"
        )
        return "\n".join(parts)

    def emit(self, directory: str | None = None) -> str:
        """Print the report and persist it; returns the rendered text."""
        text = self.render()
        print("\n" + text)
        target_dir = directory or RESULTS_DIR
        os.makedirs(target_dir, exist_ok=True)
        path = os.path.join(target_dir, f"{self.experiment_id.lower()}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        self._emit_metrics(target_dir)
        self._emit_json(target_dir)
        return text

    def _live_stats(self):
        """The attached source's stats facade, or None if gone/closed."""
        source = self._stats_source
        if source is None:
            return None
        stats = getattr(source, "stats", None)
        if stats is None or getattr(source, "is_closed", False):
            return None
        return stats

    def _emit_json(self, target_dir: str) -> None:
        io = dict(self._io)
        stats = self._live_stats()
        if not io and stats is not None:
            snapshot = stats.snapshot()
            io = {
                "seeks": snapshot.seeks,
                "page_transfers": snapshot.page_transfers,
                "page_reads": snapshot.page_reads,
                "page_writes": snapshot.page_writes,
            }
        write_bench_json(
            target_dir,
            bench=self.experiment_id,
            title=self.title,
            params=self.params,
            columns=self.table.columns,
            rows=self.rows,
            io=io,
            wall_ms=(
                self._wall_ms
                if self._wall_ms is not None
                else (time.perf_counter() - self._t0) * 1000.0
            ),
            notes=self.notes,
        )

    def _emit_metrics(self, target_dir: str) -> None:
        stats = self._live_stats()
        if stats is None:
            return
        sidecar = {
            "experiment": self.experiment_id,
            "stats": stats.snapshot().as_dict(),
            "metrics": stats.metrics(),
        }
        path = os.path.join(
            target_dir, f"{self.experiment_id.lower()}.metrics.json"
        )
        with open(path, "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
            f.write("\n")
