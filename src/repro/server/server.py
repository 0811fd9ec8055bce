"""The asyncio object server.

One :class:`EOSServer` serves a :class:`~repro.server.sharding.ShardSet`
— one or more shared-nothing :class:`~repro.api.EOSDatabase` shards —
over TCP.  Each connection is a session: a sequence of request frames
(see :mod:`repro.server.protocol`), answered in order.  Concurrency
comes from connections, not pipelining — a session has at most one
request in flight, which keeps per-connection state to a read loop.

Sharding
--------
The event loop is a thin coordinator.  At admission each request is
routed by pure arithmetic on its oid (``oid % n_shards`` names the
owning shard; creates go to the least-loaded shard and the response
carries the shard-tagged oid home).  The op then runs on the owning
shard's dedicated worker thread against that shard's own database
and buffer pool — no storage state is shared between shards, so they
scale like independent disk arms.  Multi-object ops
(LIST, the METRICS snapshot) fan out to every shard and merge; a dead
shard answers :class:`~repro.errors.ShardUnavailable` instead of
hanging.  A server constructed from a single database (``EOSServer(db)``)
adopts it as a one-shard set whose oid mapping is the identity, so the
unsharded wire surface and metrics registry are preserved exactly.

Request scheduling
------------------
Every request passes two stages:

1. **Admission control** — decided synchronously, before any queueing.
   If ``max_inflight`` requests are already being served, or the request
   is a write and ``max_write_queue`` writes are already queued or
   running, the server answers :class:`~repro.errors.ServerOverloaded`
   immediately.  Nothing is buffered for a rejected request, so overload
   degrades into fast, explicit rejections rather than growing queues
   and eventual timeouts.

2. **Execution** — the op runs as one call on the owning shard's
   single worker thread, under the database's ``op_lock``, through its
   thread-safe ``op_*`` entry points.  That worker is the isolation: two
   ops on one shard never interleave, so every op is atomic and ops on
   one object run in submission order.  On a shard whose database has
   versioning enabled (:mod:`repro.versions`), READ, SIZE, STAT and
   VERSIONS skip the worker instead: they read an immutable, pinned
   version from the in-memory volume to completion on the event loop,
   so they never queue behind an appender.  Each request has a deadline
   ``request_timeout`` seconds out, applied wherever it awaits; past
   it the client gets :class:`~repro.errors.RequestTimeout` instead of
   silence.  A timeout means "outcome unknown": the op may already be
   queued or running on the worker, and it then still completes whole
   — the client learns only that no answer came in time.

Observability
-------------
Every request leaves one fixed-shape record (:class:`_Request`) that
feeds the ``server.*`` counters and phase histograms and lands in the
:class:`~repro.obs.flight.FlightRecorder` ring as is.  A span tree is
built only for a request that asks: it carries
:data:`~repro.server.protocol.FLAG_TRACE`, or the coordinator's bundle
has sinks of its own (``servectl serve --trace``).  It is a
``server.request`` root with ``server.admission``, ``server.execute``
(the worker-thread span the storage spans nest under) and
``server.encode`` children; under a wire context the root hangs below
the client's span (``remote_parent``), so ``tracefmt --merge`` renders
one tree across both processes.  Any other request runs its op with the
shard's tracer muted.  Any non-OK response or admission rejection dumps
the ring, rate-limited, to ``flight_dump_dir``.  The METRICS and FLIGHT
opcodes are answered *before* admission control, so an overloaded
server can still be inspected remotely.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Awaitable, Callable

from repro.api import EOSDatabase
from repro.errors import (
    ProtocolError,
    ReproError,
    RequestTimeout,
    ServerOverloaded,
    ShardUnavailable,
)
from repro.obs.flight import FlightRecorder
from repro.server import protocol
from repro.server.expo import status_snapshot
from repro.server.protocol import Opcode, Status
from repro.server.sharding import Shard, ShardSet, make_oid


_IO_KEYS = ("seeks", "page_reads", "page_writes")
_MS_FIELDS = (("total", "total_ms"), ("admission", "admission_ms"),
              ("execute", "exec_ms"), ("encode", "encode_ms"))


class _Request:
    """One request's fixed-shape record: opcode, outcome, oid and shard,
    bytes out, the four phase timings, the shard's ``IOStats`` delta
    (read on each side of the op) and, when traced, the trace context.

    The flight ring keeps it as is; :meth:`as_doc` makes the ring's JSON
    dict on the way out.  A traced request's root and its admission and
    encode phases are hand-emitted span records, because the event loop
    interleaves requests (only the execution phase, serialized on a
    worker under ``db.op_lock``, is a real stack span).
    """

    __slots__ = (
        "opcode", "request_id", "traced", "trace_id", "root_id", "parent_id",
        "remote", "oid", "shard", "status", "error", "bytes_out", "ts",
        "admission_ms", "exec_ms", "encode_ms", "total_ms", "io", "deadline",
    )

    def __init__(self, tracer, opcode: Opcode, request_id: int,
                 wire_trace: tuple[int, int] | None, traced: bool,
                 admission_ms: float) -> None:
        self.opcode = opcode
        self.request_id = request_id
        self.traced = traced
        self.oid = self.shard = self.error = None
        self.status = Status.OK
        self.bytes_out = 0
        self.ts = self.exec_ms = self.encode_ms = self.total_ms = 0.0
        self.admission_ms = admission_ms
        self.io = (0, 0, 0)
        self.remote = wire_trace is not None
        if self.remote:
            self.trace_id, self.parent_id = wire_trace
        else:
            self.trace_id = tracer.new_trace_id() if traced else 0
            self.parent_id = None
        self.root_id = tracer.new_span_id() if traced else 0

    def remaining(self) -> float:
        """Seconds left before ``deadline`` (absolute, loop clock)."""
        return self.deadline - asyncio.get_running_loop().time()

    def add_io(self, seeks: int, page_reads: int, page_writes: int) -> None:
        """Add one op's ``IOStats`` delta (a LIST adds one per shard)."""
        io = self.io
        self.io = (io[0] + seeks, io[1] + page_reads, io[2] + page_writes)

    def _known(self, *names: str) -> dict:
        return {n: getattr(self, n) for n in names if getattr(self, n) is not None}

    def emit(self, tracer) -> None:
        """Emit a traced request's phase children and root."""
        for name, elapsed_ms in (("server.admission", self.admission_ms),
                                 ("server.encode", self.encode_ms)):
            tracer.record_span(
                name, trace_id=self.trace_id, span_id=tracer.new_span_id(),
                parent_id=self.root_id, elapsed_ms=elapsed_ms,
            )
        tracer.record_span(
            "server.request",
            trace_id=self.trace_id,
            span_id=self.root_id,
            parent_id=self.parent_id,
            remote_parent=self.remote,
            elapsed_ms=self.total_ms,
            attrs={"opcode": self.opcode.name.lower(),
                   "status": self.status.name.lower(), **self._known("oid", "shard")},
            error=self.error,
        )

    def as_doc(self) -> dict:
        """The flight ring's JSON form of this record."""
        doc = {
            "ts": round(self.ts, 3),
            "request_id": self.request_id,
            "opcode": self.opcode.name.lower(),
            "status": self.status.name.lower(),
            "bytes_out": self.bytes_out,
            "ms": {key: round(getattr(self, f), 3) for key, f in _MS_FIELDS},
            "io": dict(zip(_IO_KEYS, self.io)),
            **self._known("oid", "shard", "error"),
        }
        if self.traced:
            doc["trace"], doc["span"] = self.trace_id, self.root_id
        return doc


class _Instruments:
    """The server's per-request instruments, bound to one registry once."""

    def __init__(self, registry, n_shards: int) -> None:
        self.registry = registry
        counter, histogram = registry.counter, registry.histogram
        self.requests = counter("server.requests")
        self.by_opcode = {
            op: counter(f"server.requests.{op.name.lower()}")
            for op in Opcode if op not in protocol.EXPOSITION_OPCODES
        }
        self.by_shard = [  # only a multi-shard server counts per shard
            counter(f"server.shard.{index}.requests") for index in range(n_shards)
        ] if n_shards > 1 else []
        self.errors = counter("server.errors")
        self.rejections = counter("server.rejections")
        self.exposition = counter("server.exposition")
        self.bytes_in = counter("server.bytes_in")
        self.bytes_out = counter("server.bytes_out")
        self.inflight = registry.gauge("server.inflight")
        self.latency = histogram("server.latency_ms")
        self.admission = histogram("server.admission_wait_ms")
        self.execute = histogram("server.execute_ms")
        self.encode = histogram("server.encode_ms")


class EOSServer:
    """Serve a shard set over TCP with admission control.

    Construct with either one database (adopted as a single identity-
    mapped shard — the unsharded-compatible form) or an explicit
    :class:`~repro.server.sharding.ShardSet`.
    """

    def __init__(
        self,
        db: EOSDatabase | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: ShardSet | None = None,
        max_inflight: int = 64,
        max_write_queue: int = 16,
        request_timeout: float = 30.0,
        max_payload: int = protocol.MAX_PAYLOAD,
        op_hook: Callable[[Opcode], Awaitable[None]] | None = None,
        flight_capacity: int = 256,
        flight_dump_dir: str | os.PathLike | None = None,
        flight_min_dump_interval: float = 5.0,
    ) -> None:
        if shards is None:
            if db is None:
                raise ValueError("EOSServer needs a database or a ShardSet")
            shards = ShardSet.adopt(db)
        elif db is not None:
            raise ValueError("pass either db or shards, not both")
        self.shards = shards
        #: The coordinator's observability bundle (the adopted database's
        #: own bundle for a single-shard server, so its metrics surface
        #: is unchanged from the unsharded server).
        self.obs = shards.obs
        #: The single shard's database, or None for a multi-shard server
        #: (which has no one database to point at).
        self.db = shards.shards[0].db if shards.single else None
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.max_inflight = max_inflight
        self.max_write_queue = max_write_queue
        self.request_timeout = request_timeout
        self.max_payload = max_payload
        #: Test seam: awaited at the start of every request's execution
        #: stage, inside the in-flight window (used to pin requests in
        #: flight so admission control can be exercised deterministically).
        self.op_hook = op_hook
        self.flight = FlightRecorder(
            flight_capacity, min_dump_interval=flight_min_dump_interval
        )
        self.flight_dump_dir = (
            os.fspath(flight_dump_dir) if flight_dump_dir is not None else None
        )
        #: Optional storage-health monitor (:mod:`repro.obs.health`).
        #: servectl attaches one; when present, request accounting feeds
        #: its per-object heat counters and status_snapshot/Prometheus
        #: expose its HEALTH section.
        self.health = None
        #: Optional background compactor (:mod:`repro.compact`).
        #: servectl attaches one under ``serve --compact``; COMPACT
        #: requests reuse it (sharing its tick lock) and status_snapshot
        #: exposes its COMPACTION section.  Without one, each COMPACT
        #: request builds a transient compactor over the live shards.
        self.compactor = None
        self.started_at = 0.0
        self.inflight = 0
        self.write_queued = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._bound = _Instruments(self.obs.metrics, shards.n_shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        """Run until cancelled (servectl's serve loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop every session, and wait for their tasks."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        if self._conn_tasks:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        # Last: from Python 3.12 wait_closed() also waits for open
        # connections, so it would hang on a session parked mid-request.
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    def _instruments(self) -> _Instruments:
        """The per-request instruments, rebound only if the coordinator's
        registry was replaced (``obs.enable`` after construction)."""
        bound = self._bound
        if bound.registry is not self.obs.metrics:
            bound = self._bound = _Instruments(
                self.obs.metrics, self.shards.n_shards
            )
        return bound

    def _attach_flight_sink(self) -> None:
        """Capture a traced request's spans into the flight ring: join it
        to the *live* sinks of the coordinator's and every shard's tracer
        (any of them can be re-enabled at any point in the server's life).
        """
        for tracer in [self.obs.tracer, *(s.db.obs.tracer for s in self.shards.shards)]:
            if tracer.enabled and self.flight not in tracer.sinks:
                tracer.sinks.append(self.flight)

    def dump_flight(self, reason: str = "manual") -> str | None:
        """Force a flight dump (``flight_dump_dir`` must be configured)."""
        if self.flight_dump_dir is None:
            return None
        return self.flight.dump(self.flight_dump_dir, reason)

    def _incident(self, reason: str) -> None:
        """Rate-limited evidence dump on an error or rejection.

        Writes a JSONL file; never call it from the event loop — async
        paths go through :meth:`_dump_incident_async` (EOS009).
        """
        if self.flight_dump_dir is None:
            return
        try:
            self.flight.maybe_dump(self.flight_dump_dir, reason)
        except OSError:
            pass  # a full disk must not take the serving path down

    async def _dump_incident_async(self, reason: str) -> None:
        """The executor-hopped :meth:`_incident` for async serving paths."""
        if self.flight_dump_dir is None:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._incident, reason)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            # Removed only once the task is truly done, so stop() can
            # await the final wait_closed() step too.
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        try:
            await self._session(reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass  # peer went away; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            raw = await reader.readexactly(protocol.HEADER.size)
            try:
                header = protocol.decode_header(raw, max_payload=self.max_payload)
                if header.kind != protocol.KIND_REQUEST:
                    raise ProtocolError("expected a request frame")
                opcode = Opcode(header.code)
            except (ProtocolError, ValueError) as exc:
                # The stream is unframed from here on; answer and hang up.
                if not isinstance(exc, ProtocolError):
                    exc = ProtocolError(f"unknown opcode {header.code}")
                writer.write(protocol.encode_error(exc, 0))
                await writer.drain()
                return
            wire_trace: tuple[int, int] | None = None
            frame_bytes = protocol.HEADER.size + header.length
            if header.has_trace:
                ctx = await reader.readexactly(protocol.TRACE_CTX.size)
                wire_trace = protocol.TRACE_CTX.unpack(ctx)
                frame_bytes += protocol.TRACE_CTX.size
            payload = await reader.readexactly(header.length)
            bound = self._instruments()
            bound.bytes_in.inc(frame_bytes)

            # Exposition opcodes bypass admission control: an overloaded
            # server must stay observable.
            if opcode in protocol.EXPOSITION_OPCODES:
                await self._serve_exposition(opcode, header.request_id, writer)
                continue

            # Stage 1: admission control, before anything is queued.
            a0 = time.perf_counter()
            rejection = self._admission_check(opcode)
            admission_ms = (time.perf_counter() - a0) * 1000.0
            if rejection is not None:
                bound.rejections.inc()
                self.flight.record({
                    "ts": round(time.time(), 3),
                    "request_id": header.request_id,
                    "opcode": opcode.name.lower(),
                    "status": "overloaded",
                    "error": "ServerOverloaded",
                    "inflight": self.inflight,
                    "write_queued": self.write_queued,
                })
                response = protocol.encode_error(rejection, header.request_id)
                bound.bytes_out.inc(len(response))
                writer.write(response)
                await writer.drain()
                await self._dump_incident_async("overloaded")
                continue

            await self._serve_request(
                opcode, header.request_id, payload, writer,
                wire_trace=wire_trace, admission_ms=admission_ms,
            )

    def _admission_check(self, opcode: Opcode) -> ServerOverloaded | None:
        if self.inflight >= self.max_inflight:
            return ServerOverloaded(
                f"server at capacity ({self.inflight} requests in flight, "
                f"cap {self.max_inflight}); retry later"
            )
        if opcode in protocol.WRITE_OPCODES and self.write_queued >= self.max_write_queue:
            return ServerOverloaded(
                f"write queue full ({self.write_queued} writes pending, "
                f"cap {self.max_write_queue}); retry later"
            )
        return None

    async def _serve_exposition(
        self, opcode: Opcode, request_id: int, writer: asyncio.StreamWriter
    ) -> None:
        """Answer METRICS/FLIGHT; counted separately from server.requests."""
        bound = self._instruments()
        bound.exposition.inc()
        try:
            if opcode is Opcode.METRICS:
                # free_pages() does page I/O under op_lock; keep it off
                # the event loop like any other op.
                loop = asyncio.get_running_loop()
                doc = await loop.run_in_executor(
                    None, lambda: status_snapshot(self.db, self)
                )
                body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            else:
                body = self.flight.to_jsonl(reason="remote").encode("utf-8")
            response = protocol.encode_response(Status.OK, request_id, body)
        except Exception as exc:
            response = protocol.encode_error(
                ReproError(f"{exc.__class__.__name__}: {exc}"), request_id
            )
        bound.bytes_out.inc(len(response))
        writer.write(response)
        await writer.drain()

    # ------------------------------------------------------------------
    # Request scheduling
    # ------------------------------------------------------------------

    async def _serve_request(
        self,
        opcode: Opcode,
        request_id: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        *,
        wire_trace: tuple[int, int] | None = None,
        admission_ms: float = 0.0,
    ) -> None:
        bound = self._instruments()
        self.inflight += 1
        is_write = opcode in protocol.WRITE_OPCODES
        if is_write:
            self.write_queued += 1
        bound.inflight.set(self.inflight)
        traced = wire_trace is not None or bool(self.obs.sinks)
        req = _Request(
            self.obs.tracer, opcode, request_id, wire_trace, traced, admission_ms
        )
        if traced:
            self._attach_flight_sink()
        req.deadline = asyncio.get_running_loop().time() + self.request_timeout
        t0 = time.perf_counter()
        result = b""
        failure: BaseException | None = None
        try:
            result = await self._execute(opcode, payload, req)
        except asyncio.TimeoutError:
            failure = RequestTimeout(
                f"request exceeded the {self.request_timeout:g}s budget"
            )
            req.status, req.error = Status.TIMEOUT, failure.__class__.__name__
        except ReproError as exc:
            failure = exc
            req.status = protocol.status_for_exception(exc)
            req.error = exc.__class__.__name__
        except Exception as exc:  # never let one request kill the session
            failure = ReproError(f"{exc.__class__.__name__}: {exc}")
            req.status, req.error = Status.SERVER_ERROR, exc.__class__.__name__
        finally:
            self.inflight -= 1
            if is_write:
                self.write_queued -= 1
            bound.inflight.set(self.inflight)

        # Then serialize the response.  Accounting happens *before*
        # the frame is written, so a client that has seen the response is
        # guaranteed to see the request in the metrics too.  The frames
        # borrow the result buffer (a READ hands out the read path's
        # assembled bytes) and go to the transport one by one — the
        # writer batches them; nothing re-concatenates the payload.
        e0 = time.perf_counter()
        if failure is None:
            frames = protocol.response_frames(Status.OK, request_id, result)
        else:
            frames = [protocol.encode_error(failure, request_id)]
        req.encode_ms = (time.perf_counter() - e0) * 1000.0
        req.total_ms = admission_ms + (time.perf_counter() - t0) * 1000.0
        req.bytes_out = sum(len(frame) for frame in frames)
        self._account(req)
        if req.status is not Status.OK:
            # The evidence dump is disk I/O: hop off the event loop.
            await self._dump_incident_async(f"status-{req.status.name.lower()}")
        bound.bytes_out.inc(req.bytes_out)
        for frame in frames:
            writer.write(frame)
        await writer.drain()

    def _account(self, req: _Request) -> None:
        """Feed the instruments from one finished request's record, emit
        its spans when traced, and append the record to the flight ring."""
        bound = self._instruments()
        bound.requests.inc()
        bound.by_opcode[req.opcode].inc()
        if req.shard is not None and bound.by_shard:
            bound.by_shard[req.shard].inc()
        if req.error is not None:
            bound.errors.inc()
        bound.latency.observe(req.total_ms)
        bound.admission.observe(req.admission_ms)
        bound.execute.observe(req.exec_ms)
        bound.encode.observe(req.encode_ms)
        if self.health is not None and req.oid is not None:
            self.health.heat.touch(
                req.oid, write=req.opcode in protocol.WRITE_OPCODES
            )
        if req.traced:
            req.emit(self.obs.tracer)
        req.ts = time.time()
        self.flight.record(req)

    async def _run_on(
        self, shard: Shard, opcode: Opcode, req: _Request,
        op: Callable[[], object],
    ) -> object:
        """Run ``op`` on the shard's worker under its op lock.

        The worker reads the shard's ``IOStats`` on each side of the op
        for the record.  A traced op runs in a ``server.execute`` span
        opened there, so span nesting stays sound (``.under()`` hangs it
        below the request's root); an untraced one with the shard's
        tracer muted.  The worker is a :class:`~repro.server.sharding.Shard`'s single
        thread, so ops on one shard serialize while shards proceed
        independently; a killed shard raises
        :class:`~repro.errors.ShardUnavailable` here.  The wait ends at
        the request's deadline (no task: it awaits a future), but the op
        is shielded: once submitted it runs whole, so a timed-out request
        never drops a queued op (nor leaks the shard's ``pending``).
        """
        db = shard.db
        io = (0, 0, 0)

        def locked() -> object:
            nonlocal io
            with db.op_lock:
                tracer, stats = db.obs.tracer, db.obs.iostats
                seeks, reads, writes = stats.seeks, stats.page_reads, stats.page_writes
                try:
                    if req.traced:
                        with tracer.span(
                            "server.execute", opcode=opcode.name.lower(),
                            shard=shard.index,
                        ).under(req.trace_id, req.root_id):
                            return op()
                    muted = tracer.mute()
                    try:
                        return op()
                    finally:
                        tracer.mute(muted)
                finally:
                    io = (stats.seeks - seeks, stats.page_reads - reads,
                          stats.page_writes - writes)

        t0 = time.perf_counter()
        try:
            future = asyncio.wrap_future(shard.submit(locked))
            return await asyncio.wait_for(asyncio.shield(future), req.remaining())
        finally:
            req.exec_ms += (time.perf_counter() - t0) * 1000.0
            # Added here, on the loop: a LIST's workers finish concurrently.
            req.add_io(*io)

    async def _run_snapshot(
        self, shard: Shard, opcode: Opcode, req: _Request,
        op: Callable[[], object],
    ) -> object:
        """Run a snapshot read to completion on the event loop.

        Versioned reads resolve an immutable, pinned version and read it
        from the node cache and the in-memory volume — never the buffer
        pool, allocator or op lock — so they skip the shard's worker (no
        queueing behind a writer) and any thread hop (under the GIL an
        executor adds only context switches and a wake-up).  Nothing is
        awaited, so the deadline cannot interrupt one.  A killed shard
        refuses them.  I/O and tracing are handled as in :meth:`_run_on`,
        but a traced read's execute span is hand-emitted, ``snapshot`` set.
        """
        if not shard.alive:
            raise ShardUnavailable(f"shard {shard.index} is not serving")
        tracer, stats = shard.db.obs.tracer, shard.db.obs.iostats
        seeks, reads, writes = stats.seeks, stats.page_reads, stats.page_writes
        muted = False if req.traced else tracer.mute()
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            elapsed = (time.perf_counter() - t0) * 1000.0
            req.exec_ms += elapsed
            req.add_io(stats.seeks - seeks, stats.page_reads - reads,
                       stats.page_writes - writes)
            if req.traced:
                tracer.record_span(
                    "server.execute",
                    trace_id=req.trace_id,
                    span_id=tracer.new_span_id(),
                    parent_id=req.root_id,
                    elapsed_ms=elapsed,
                    attrs={"opcode": opcode.name.lower(), "shard": shard.index, "snapshot": True},
                )
            else:
                tracer.mute(muted)

    async def _run_read(
        self, shard: Shard, opcode: Opcode, req: _Request,
        op: Callable[[], object],
    ) -> object:
        """Run a read-side op: a snapshot read on the loop when the
        shard is versioned, else on its worker like any other op."""
        if shard.db.versions is not None:
            return await self._run_snapshot(shard, opcode, req, op)
        return await self._run_on(shard, opcode, req, op)

    async def _execute(
        self, opcode: Opcode, payload: bytes, req: _Request
    ) -> bytes:
        if self.op_hook is not None:
            await asyncio.wait_for(self.op_hook(opcode), req.remaining())
        shards = self.shards
        n = shards.n_shards

        if opcode is Opcode.PING:
            return payload
        if opcode is Opcode.CREATE:
            data, size_hint = protocol.unpack_create(payload)
            shard = shards.pick_for_create()
            req.shard = shard.index
            local = await self._run_on(
                shard, opcode, req,
                lambda: shard.db.op_create(data, size_hint=size_hint),
            )
            shard.note_created()
            oid = make_oid(shard.index, local, n)
            req.oid = oid
            return protocol.pack_u64(oid)
        if opcode is Opcode.LIST:
            # Coordinator fan-out: every shard lists concurrently (each
            # under its own op lock, execute span and the deadline), then
            # the tagged oids merge into one ascending listing.  gather()
            # without return_exceptions: one dead shard fails the whole
            # listing with ShardUnavailable rather than dropping its objects.
            parts = await asyncio.gather(*(
                self._run_on(shard, opcode, req, shard.db.op_list)
                for shard in shards.shards
            ))
            return protocol.pack_listing(sorted(
                (make_oid(shard.index, loid, n), size)
                for shard, part in zip(shards.shards, parts)
                for loid, size in part
            ))
        if opcode is Opcode.COMPACT:
            # Coordinator fan-out like LIST, but driven by the compactor:
            # run_once() itself submits every substrate-touching step to
            # the owning shard's worker (EOS008), so here it only needs
            # to get off the event loop.  An attached background
            # compactor is reused — its tick lock serializes the
            # operator's one-shot pass against background ticks.  Like
            # a worker op, a pass outliving the deadline runs whole.
            target_frag, max_pages = protocol.unpack_compact_req(payload)
            compactor = self.compactor
            if compactor is None:
                from repro.compact import Compactor

                # target_frag=None: a one-shot with no --target-frag
                # compacts until the victim list is exhausted, not to
                # the background daemon's default goal.  The compactor
                # is kept (not started) so status_snapshot and /metrics
                # expose the pass's progress afterwards.
                compactor = Compactor(
                    shards=shards.shards, monitor=self.health, server=self,
                    target_frag=None,
                )
                self.compactor = compactor

            def one_pass() -> list[dict]:
                return compactor.run_once(target_frag=target_frag, max_pages=max_pages)

            future = asyncio.get_running_loop().run_in_executor(None, one_pass)
            docs = await asyncio.wait_for(asyncio.shield(future), req.remaining())
            return json.dumps(docs, separators=(",", ":")).encode("utf-8")

        # Everything below is a single-object op, declared once in
        # protocol.OBJECT_OPCODES: route by the oid's shard tag and run
        # the declared ObjectOps method against the shard-local oid.
        spec = protocol.OBJECT_OPCODES.get(opcode)
        if spec is None:
            raise ProtocolError(f"opcode {opcode} not implemented")
        decoded = getattr(protocol, spec.decode)(payload)
        oid, *fields = decoded if isinstance(decoded, tuple) else (decoded,)
        args = dict(zip(spec.args, fields))
        req.oid = oid
        shard = shards.shard_for(oid)
        req.shard = shard.index
        method = getattr(shard.db, spec.method)
        local = shard.local_oid(oid)
        if opcode is Opcode.READ and args["length"] > self.max_payload:
            raise ProtocolError(
                f"read of {args['length']} bytes exceeds the "
                f"{self.max_payload}-byte response cap"
            )
        run = self._run_read if spec.read_side else self._run_on
        result = await run(shard, opcode, req, lambda: method(local, **args))
        if spec.encode is None:
            return result
        return getattr(protocol, spec.encode)(result, *fields[len(spec.args):])
