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
Every request becomes a ``server.request`` root span with phase
children — ``server.admission``, ``server.execute`` (the
worker-thread span that carries the storage stack's own child spans)
and ``server.encode`` — plus matching phase histograms
(``server.admission_wait_ms``, ``server.execute_ms``,
``server.encode_ms``) and the end-to-end
``server.latency_ms``.  When the client propagated a wire trace context
(:data:`~repro.server.protocol.FLAG_TRACE`), the root hangs under the
client's span id with ``remote_parent`` set, so ``tracefmt --merge``
renders one tree across both processes.

A :class:`~repro.obs.flight.FlightRecorder` retains the last N request
summaries (and recent spans, when tracing is on); any non-OK response or
admission rejection triggers a rate-limited dump to ``flight_dump_dir``.
The METRICS and FLIGHT opcodes are answered *before* admission control,
so an overloaded server can still be inspected remotely.
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


class _RequestTrace:
    """One request's trace context and phase accounting.

    Per-request span trees cannot come from the tracer's stack alone:
    the event loop interleaves requests, so the root stays open across
    awaits while other requests run.  The root and the phase children
    are therefore hand-emitted records
    (:meth:`~repro.obs.tracer.Tracer.record_span`); only the execution
    phase is a real stack span (it runs serialized under ``db.op_lock``
    in a worker thread, where nesting is sound).
    """

    __slots__ = (
        "tracer", "opcode", "trace_id", "root_id", "parent_id", "remote",
        "oid", "shard", "admission_ms", "exec_ms", "encode_ms", "deadline",
    )

    def __init__(self, tracer, opcode: Opcode,
                 wire_trace: tuple[int, int] | None, admission_ms: float) -> None:
        self.tracer = tracer
        self.opcode = opcode
        self.oid: int | None = None
        self.shard: int | None = None
        self.admission_ms = admission_ms
        self.exec_ms = 0.0
        self.encode_ms = 0.0
        if wire_trace is not None:
            self.trace_id, self.parent_id = wire_trace
            self.remote = True
        else:
            self.trace_id = tracer.new_trace_id()
            self.parent_id = None
            self.remote = False
        self.root_id = tracer.new_span_id()

    def remaining(self) -> float:
        """Seconds left before ``deadline`` (absolute, loop clock)."""
        return self.deadline - asyncio.get_running_loop().time()

    def _phase(self, name: str, elapsed_ms: float, **attrs) -> None:
        self.tracer.record_span(
            f"server.{name}",
            trace_id=self.trace_id,
            span_id=self.tracer.new_span_id(),
            parent_id=self.root_id,
            elapsed_ms=elapsed_ms,
            attrs=attrs or None,
        )

    def emit(self, status: Status, error: str | None, total_ms: float) -> None:
        """Emit the phase children and the request root."""
        if not self.tracer.enabled:
            return
        self._phase("admission", self.admission_ms)
        self._phase("encode", self.encode_ms)
        attrs = {"opcode": self.opcode.name.lower(), "status": status.name.lower()}
        if self.oid is not None:
            attrs["oid"] = self.oid
        if self.shard is not None:
            attrs["shard"] = self.shard
        self.tracer.record_span(
            "server.request",
            trace_id=self.trace_id,
            span_id=self.root_id,
            parent_id=self.parent_id,
            remote_parent=self.remote,
            elapsed_ms=total_ms,
            attrs=attrs,
            error=error,
        )


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
        self._flight_tracers: dict[int, object] = {}

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
        self._attach_flight_sink()

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

    def _attach_flight_sink(self) -> None:
        """Capture spans into the flight ring while tracing is on.

        Any tracer can be enabled (or re-enabled, producing a new Tracer)
        at any point in the server's life, so this re-checks identity and
        appends to each *live* ``tracer.sinks`` list — the coordinator's
        (request roots and phases) and every shard's (execute spans).
        The FlightRecorder is thread-safe, so one ring can take spans
        from all of them.
        """
        tracers = [self.obs.tracer]
        tracers.extend(shard.db.obs.tracer for shard in self.shards.shards)
        for tracer in tracers:
            if not tracer.enabled or id(tracer) in self._flight_tracers:
                continue
            tracer.sinks.append(self.flight)
            # Hold the tracer so its id() cannot be recycled by a new one.
            self._flight_tracers[id(tracer)] = tracer

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
        metrics = self.obs.metrics
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
            metrics.counter("server.bytes_in").inc(frame_bytes)
            self._attach_flight_sink()

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
                metrics.counter("server.rejections").inc()
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
                metrics.counter("server.bytes_out").inc(len(response))
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
        metrics = self.obs.metrics
        metrics.counter("server.exposition").inc()
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
        metrics.counter("server.bytes_out").inc(len(response))
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
        metrics = self.obs.metrics
        self.inflight += 1
        is_write = opcode in protocol.WRITE_OPCODES
        if is_write:
            self.write_queued += 1
        metrics.gauge("server.inflight").set(self.inflight)
        req = _RequestTrace(self.obs.tracer, opcode, wire_trace, admission_ms)
        req.deadline = asyncio.get_running_loop().time() + self.request_timeout
        t0 = time.perf_counter()
        status = Status.OK
        error: str | None = None
        result = b""
        failure: BaseException | None = None
        try:
            result = await self._execute(opcode, payload, req)
        except asyncio.TimeoutError:
            failure = RequestTimeout(
                f"request exceeded the {self.request_timeout:g}s budget"
            )
            status, error = Status.TIMEOUT, failure.__class__.__name__
        except ReproError as exc:
            failure = exc
            status = protocol.status_for_exception(exc)
            error = exc.__class__.__name__
        except Exception as exc:  # never let one request kill the session
            failure = ReproError(f"{exc.__class__.__name__}: {exc}")
            status, error = Status.SERVER_ERROR, exc.__class__.__name__
        finally:
            self.inflight -= 1
            if is_write:
                self.write_queued -= 1
            metrics.gauge("server.inflight").set(self.inflight)

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
        total_ms = admission_ms + (time.perf_counter() - t0) * 1000.0
        bytes_out = sum(len(frame) for frame in frames)
        self._account(req, request_id, status, error, total_ms, bytes_out)
        if status is not Status.OK:
            # The evidence dump is disk I/O: hop off the event loop.
            await self._dump_incident_async(f"status-{status.name.lower()}")
        metrics.counter("server.bytes_out").inc(bytes_out)
        for frame in frames:
            writer.write(frame)
        await writer.drain()

    def _account(
        self,
        req: _RequestTrace,
        request_id: int,
        status: Status,
        error: str | None,
        total_ms: float,
        bytes_out: int,
    ) -> None:
        """Metrics, spans and the flight entry for one finished request."""
        metrics = self.obs.metrics
        metrics.counter("server.requests").inc()
        metrics.counter(f"server.requests.{req.opcode.name.lower()}").inc()
        if req.shard is not None and not self.shards.single:
            metrics.counter(f"server.shard.{req.shard}.requests").inc()
        if error is not None:
            metrics.counter("server.errors").inc()
        metrics.histogram("server.latency_ms").observe(total_ms)
        metrics.histogram("server.admission_wait_ms").observe(req.admission_ms)
        metrics.histogram("server.execute_ms").observe(req.exec_ms)
        metrics.histogram("server.encode_ms").observe(req.encode_ms)
        if self.health is not None and req.oid is not None:
            self.health.heat.touch(
                req.oid, write=req.opcode in protocol.WRITE_OPCODES
            )
        req.emit(status, error, total_ms)
        entry = {
            "ts": round(time.time(), 3),
            "request_id": request_id,
            "opcode": req.opcode.name.lower(),
            "status": status.name.lower(),
            "bytes_out": bytes_out,
            "ms": {
                "total": round(total_ms, 3),
                "admission": round(req.admission_ms, 3),
                "execute": round(req.exec_ms, 3),
                "encode": round(req.encode_ms, 3),
            },
        }
        if req.oid is not None:
            entry["oid"] = req.oid
        if req.shard is not None:
            entry["shard"] = req.shard
        if error is not None:
            entry["error"] = error
        if req.trace_id:
            entry["trace"] = req.trace_id
            entry["span"] = req.root_id
        self.flight.record(entry)

    async def _run_on(
        self, shard: Shard, opcode: Opcode, req: _RequestTrace,
        op: Callable[[], object],
    ) -> object:
        """Run ``op`` on the shard's worker under its op lock and span.

        The span covers exactly the op, opened in the shard's worker
        thread under that shard's database op lock so span nesting stays
        sound; ``.under()`` hangs it below this request's root span.  The
        worker is a :class:`~repro.server.sharding.Shard`'s single
        thread, so ops on one shard serialize while shards proceed
        independently; a killed shard raises
        :class:`~repro.errors.ShardUnavailable` here.  The wait ends at
        the request's deadline (no task: it awaits a future), but the op
        is shielded: once submitted it runs whole, so a timed-out request
        never drops a queued op (nor leaks the shard's ``pending``).
        """
        db = shard.db

        def locked() -> object:
            with db.op_lock:
                with db.obs.tracer.span(
                    "server.execute", opcode=opcode.name.lower(),
                    shard=shard.index,
                ).under(req.trace_id, req.root_id):
                    return op()

        t0 = time.perf_counter()
        try:
            future = asyncio.wrap_future(shard.submit(locked))
            return await asyncio.wait_for(asyncio.shield(future), req.remaining())
        finally:
            req.exec_ms += (time.perf_counter() - t0) * 1000.0

    async def _run_snapshot(
        self, shard: Shard, opcode: Opcode, req: _RequestTrace,
        op: Callable[[], object],
    ) -> object:
        """Run a snapshot read to completion on the event loop.

        Versioned reads resolve an immutable, pinned version and read it
        from the node cache and the in-memory volume — never the buffer
        pool, allocator or op lock — so they skip the shard's worker (no
        queueing behind a writer) and any thread hop (under the GIL an
        executor adds only context switches and a wake-up).  Nothing is
        awaited, so the deadline cannot interrupt one.  A killed shard
        refuses them.  The execute span is hand-emitted, ``snapshot`` set.
        """
        if not shard.alive:
            raise ShardUnavailable(f"shard {shard.index} is not serving")
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            elapsed = (time.perf_counter() - t0) * 1000.0
            req.exec_ms += elapsed
            tracer = shard.db.obs.tracer
            if tracer.enabled:
                tracer.record_span(
                    "server.execute",
                    trace_id=req.trace_id,
                    span_id=tracer.new_span_id(),
                    parent_id=req.root_id,
                    elapsed_ms=elapsed,
                    attrs={"opcode": opcode.name.lower(), "shard": shard.index, "snapshot": True},
                )

    async def _run_read(
        self, shard: Shard, opcode: Opcode, req: _RequestTrace,
        op: Callable[[], object],
    ) -> object:
        """Run a read-side op: a snapshot read on the loop when the
        shard is versioned, else on its worker like any other op."""
        if shard.db.versions is not None:
            return await self._run_snapshot(shard, opcode, req, op)
        return await self._run_on(shard, opcode, req, op)

    async def _execute(
        self, opcode: Opcode, payload: bytes, req: _RequestTrace
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
