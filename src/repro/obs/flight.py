"""The flight recorder: an always-on ring of recent request evidence.

Overload and error incidents on a long-running server are only
diagnosable if the requests *leading up to* the incident left evidence
behind — after the fact, counters say how much went wrong but not what
the traffic looked like.  :class:`FlightRecorder` keeps two fixed-size
rings in memory at negligible cost:

* **summaries** — one record per finished request (opcode, oid, status,
  per-phase timings, byte counts, the shard's I/O delta, trace context),
  appended by the server for every request, traced or not;
* **spans** — the finished-span records of recent *traced* requests: the
  server makes the recorder a sink (``on_span``) of the tracers a traced
  request runs on.  It is not every tracer's sink, and untraced requests
  build no spans.

On an incident (a :class:`~repro.errors.ServerOverloaded` rejection, an
error response, or an operator signal) the server calls
:meth:`maybe_dump`, which snapshots both rings to a JSON-lines file —
rate-limited so an error storm produces one dump, not thousands.  The
dump opens with a ``kind: "flight_header"`` line, then ``kind:
"flight"`` summary lines, then ``kind: "span"`` lines; because span
lines use the ordinary trace schema, ``python -m repro.tools.tracefmt``
renders a dump directly.

Recording only appends, so the serving hot path stays cheap.  A summary
is a dict or a fixed-shape record whose ``as_doc()`` makes the dict
when it leaves; :meth:`entries`, :meth:`spans`, :meth:`to_jsonl` and
:meth:`dump` also drop payload-carrying keys and truncate long strings
then.  Nothing the recorder hands out contains object bytes, so a dump
is safe to ship off-box.  A recorded summary must not be mutated
afterwards; the server and the tracer build a fresh one per record.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

#: Keys that may carry object payloads; never recorded.
_REDACTED_KEYS = frozenset({"data", "payload", "body", "bytes"})

#: Longest string (error messages, attr values) kept in an entry.
_MAX_STRING = 256


def _redact(value):
    """Return ``value`` with payload keys dropped and strings truncated."""
    if isinstance(value, dict):
        return {
            k: _redact(v) for k, v in value.items() if k not in _REDACTED_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_redact(v) for v in value]
    if isinstance(value, str) and len(value) > _MAX_STRING:
        return value[: _MAX_STRING - 1] + "…"
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)} bytes redacted>"
    return value


class FlightRecorder:
    """Fixed-size rings of request summaries and span records.

    Thread-safe: the server records from the event loop while the
    tracer's ``on_span`` arrives from shard worker threads and
    ``to_jsonl`` runs on whatever thread serves the dump.
    """

    def __init__(self, capacity: int = 256, *, min_dump_interval: float = 5.0) -> None:
        self.capacity = capacity
        self.min_dump_interval = min_dump_interval
        self._entries: deque = deque(maxlen=capacity)
        # A traced request leaves a few spans per storage call.
        self._spans: deque = deque(maxlen=capacity * 8)
        self._lock = threading.Lock()
        self._last_dump = 0.0
        self.dumps = 0
        self.last_dump_path: str | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, entry) -> None:
        """Append one request summary (evicts the oldest): a dict, or a
        record whose ``as_doc()`` returns one.

        Nothing is rendered, copied or redacted here; that happens when
        the summary leaves the recorder.
        """
        with self._lock:
            self._entries.append(entry)

    def on_span(self, record: dict) -> None:
        """Tracer-sink hook: retain one finished-span record as is."""
        with self._lock:
            self._spans.append(record)

    def entries(self) -> list[dict]:
        """The retained request summaries, oldest first, redacted."""
        with self._lock:
            entries = list(self._entries)
        return [
            {**_redact(e if isinstance(e, dict) else e.as_doc()), "kind": "flight"}
            for e in entries
        ]

    def spans(self) -> list[dict]:
        """The retained span records, oldest first, redacted."""
        with self._lock:
            spans = list(self._spans)
        return [_redact(s) for s in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Snapshots and dumps
    # ------------------------------------------------------------------

    def to_jsonl(self, *, reason: str = "snapshot") -> str:
        """The whole ring as JSON-lines text (header, summaries, spans),
        every record redacted."""
        entries, spans = self.entries(), self.spans()
        header = {
            "kind": "flight_header",
            "reason": reason,
            "dumped_at": round(time.time(), 3),
            "capacity": self.capacity,
            "entries": len(entries),
            "spans": len(spans),
        }
        lines = [json.dumps(header, separators=(",", ":"))]
        lines.extend(json.dumps(e, separators=(",", ":")) for e in entries)
        lines.extend(json.dumps(s, separators=(",", ":")) for s in spans)
        return "\n".join(lines) + "\n"

    def dump(self, directory: str | os.PathLike, reason: str = "manual") -> str:
        """Write a snapshot to ``directory``; returns the file path.

        The directory is created if missing; file names carry a
        millisecond timestamp plus the reason, so successive dumps never
        overwrite each other.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        stamp = int(time.time() * 1000)
        safe_reason = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in reason
        ) or "dump"
        path = os.path.join(directory, f"flight-{stamp}-{safe_reason}.jsonl")
        text = self.to_jsonl(reason=reason)
        with open(path, "w") as f:
            f.write(text)
        with self._lock:
            self._last_dump = time.monotonic()
            self.dumps += 1
            self.last_dump_path = path
        return path

    def maybe_dump(
        self, directory: str | os.PathLike, reason: str = "incident"
    ) -> str | None:
        """Dump unless one happened within ``min_dump_interval`` seconds.

        The rate limit makes incident-triggered dumping safe to wire to
        *every* error response: a storm costs one file per interval.
        Returns the path written, or None when suppressed.
        """
        with self._lock:
            now = time.monotonic()
            if self._last_dump and now - self._last_dump < self.min_dump_interval:
                return None
            # Claim the slot before the (unlocked) file write so two
            # racing incidents produce one dump, not two.
            self._last_dump = now
        return self.dump(directory, reason)


def load_flight(path: str | os.PathLike) -> tuple[dict | None, list[dict], list[dict]]:
    """Parse a flight dump: ``(header, summaries, span_records)``.

    Unparseable lines are skipped, matching the tracefmt loader's
    posture — a dump truncated by a crash still loads.
    """
    header: dict | None = None
    entries: list[dict] = []
    spans: list[dict] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            if kind == "flight_header":
                header = record
            elif kind == "flight":
                entries.append(record)
            elif kind == "span":
                spans.append(record)
    return header, entries, spans
