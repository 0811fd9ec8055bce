"""The blocking client: one socket, one request in flight.

:class:`EOSClient` speaks the frame protocol of
:mod:`repro.server.protocol` over a plain TCP socket.  Calls block until
the response arrives; server-side errors re-raise as the matching class
from the :mod:`repro.errors` hierarchy, so remote and in-process code
handle failures identically::

    with EOSClient("127.0.0.1", 7433) as c:
        oid = c.op_create(b"hello", size_hint=1 << 20)
        c.op_append(oid, b" world")
        assert c.op_read(oid, offset=0, length=11) == b"hello world"

The object operations are the :class:`~repro.ops.ObjectOps` surface
(``op_*``), each one wire exchange, so code written against the
interface runs unchanged over a local database or this client.

Tracing: :meth:`EOSClient.enable_tracing` writes client-side spans to a
JSON-lines file and propagates the trace context on the wire (the
request frame carries :data:`~repro.server.protocol.FLAG_TRACE` plus the
trace id and sending span id).  Each call becomes a ``client.request``
root with ``client.send``/``client.recv`` children; a tracing server
roots its ``server.request`` tree under the same trace id, so ::

    python -m repro.tools.tracefmt client.jsonl --merge server.jsonl

renders one tree spanning both processes.  Trace ids are seeded randomly
per client so concurrent clients' traces stay distinct in the server's
file.

The client is not thread-safe — a connection carries one conversation.
Concurrent callers each open their own client (connections are what the
server scales by).
"""

from __future__ import annotations

import json
import os
import random
import socket

from repro.errors import ConnectionClosed, ProtocolError
from repro.obs.sinks import JsonLinesSink
from repro.obs.tracer import NULL_TRACER, Observability
from repro.ops import ObjectStat, VersionInfo
from repro.server import protocol
from repro.server.protocol import Opcode, Status
from repro.util import copytrace


class EOSClient:
    """A blocking connection to an :class:`~repro.server.server.EOSServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7433,
        *,
        timeout: float | None = 30.0,
        max_payload: int = protocol.MAX_PAYLOAD,
        obs: Observability | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_payload = max_payload
        #: Optional observability bundle; when enabled, every call is a
        #: traced span and the trace context rides the wire.
        self.obs = obs
        self._owns_obs = False
        self._sock: socket.socket | None = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> "EOSClient":
        """Open the TCP connection (idempotent); returns self."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        """Close the connection (and a tracing bundle this client owns)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        if self._owns_obs and self.obs is not None:
            obs, self.obs = self.obs, None
            self._owns_obs = False
            obs.close()

    def enable_tracing(self, path: str | os.PathLike) -> "EOSClient":
        """Trace every call to a JSON-lines file and propagate on the wire.

        Creates (and owns) an :class:`~repro.obs.tracer.Observability`
        bundle writing to ``path``; :meth:`close` flushes and closes it.
        The trace-id allocator is seeded randomly so ids from concurrent
        clients don't collide in the server's trace file.
        """
        if self.obs is None:
            self.obs = Observability()
            self._owns_obs = True
        if not self.obs.enabled:
            self.obs.enable(
                sinks=[JsonLinesSink(path)],
                first_trace_id=random.randrange(1 << 32, 1 << 62),
            )
        return self

    def __enter__(self) -> "EOSClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def _send_frames(self, frames) -> None:
        """Flush an iovec list to the socket without concatenating it.

        Uses ``socket.sendmsg`` scatter-gather where available, looping
        on partial sends; falls back to per-frame ``sendall``.
        """
        assert self._sock is not None
        sock = self._sock
        if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
            for frame in frames:
                sock.sendall(frame)
            return
        views = [memoryview(frame).cast("B") for frame in frames if len(frame)]
        while views:
            sent = sock.sendmsg(views)
            while views and sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            if sent and views:
                views[0] = views[0][sent:]

    def _recv_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket — kernel to buffer, no
        Python-side reassembly."""
        assert self._sock is not None
        n = len(view)
        position = 0
        while position < n:
            got = self._sock.recv_into(view[position:])
            if not got:
                self.close()
                raise ConnectionClosed(
                    f"server closed the connection ({n - position} of {n} "
                    "bytes outstanding)"
                )
            position += got

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        if n:
            self._recv_into(memoryview(buf))
        return buf

    def _recv_response(self, request_id: int, dest: memoryview | None = None):
        """Receive one response frame.

        Returns ``(header, payload)``; with ``dest`` given and an OK
        status, the payload lands directly in ``dest`` and the byte
        count is returned in its place.
        """
        header = protocol.decode_header(
            self._recv_exact(protocol.HEADER.size), max_payload=self.max_payload
        )
        if header.kind != protocol.KIND_RESPONSE:
            raise ProtocolError("expected a response frame")
        if header.request_id not in (request_id, 0):
            raise ProtocolError(
                f"response id {header.request_id} does not match request "
                f"{request_id}"
            )
        if dest is not None and header.code == Status.OK:
            if header.length > len(dest):
                raise ProtocolError(
                    f"response payload of {header.length} bytes exceeds the "
                    f"{len(dest)}-byte destination buffer"
                )
            self._recv_into(dest[: header.length])
            return header, header.length
        return header, self._recv_exact(header.length)

    def _exchange(self, opcode: Opcode, payload, *, oid: int | None = None,
                  dest: memoryview | None = None):
        """One request/response exchange over the frame protocol.

        The request goes out as an iovec list (header, trace ctx,
        borrowed payload); error responses re-raise as the mapped
        exception class.  Returns the response payload buffer, or the
        byte count when ``dest`` captured it.
        """
        self.connect()
        request_id = self._next_id
        self._next_id += 1
        tracer = self.obs.tracer if self.obs is not None else NULL_TRACER
        if not tracer.enabled:
            self._send_frames(protocol.request_frames(opcode, request_id, payload))
            header, body = self._recv_response(request_id, dest)
            if header.code != Status.OK:
                raise protocol.exception_from(
                    header.code, body.decode("utf-8", "replace")
                )
            return body
        attrs = {"opcode": opcode.name.lower()}
        if oid is not None:
            attrs["oid"] = oid
        with tracer.span("client.request", **attrs) as root:
            frames = protocol.request_frames(
                opcode, request_id, payload,
                trace=(root.trace_id, root.span_id),
            )
            with tracer.span("client.send", bytes=sum(len(f) for f in frames)):
                self._send_frames(frames)
            with tracer.span("client.recv"):
                header, body = self._recv_response(request_id, dest)
            try:
                root.set(status=Status(header.code).name.lower())
            except ValueError:
                root.set(status=int(header.code))
            if header.code != Status.OK:
                raise protocol.exception_from(
                    header.code, body.decode("utf-8", "replace")
                )
            return body

    def call(self, opcode: Opcode, payload: bytes = b"", *, oid: int | None = None) -> bytes:
        """One request/response exchange; returns the response payload.

        ``oid`` is trace metadata only (it tags the ``client.request``
        span so ``tracefmt --oid`` can filter); the object id itself
        always travels inside ``payload``.  The returned ``bytes`` is
        the one client-side payload copy; :meth:`op_read_into` avoids it.
        """
        return copytrace.materialize(
            self._exchange(opcode, payload, oid=oid), "client.recv"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self, data: bytes = b"") -> bytes:
        """Round-trip ``data`` through the server."""
        return self.call(Opcode.PING, data)

    def op_create(self, data: bytes = b"", *, size_hint: int | None = None) -> int:
        """Create an object (optionally with initial content); returns its oid."""
        return protocol.unpack_u64(
            self.call(Opcode.CREATE, protocol.pack_create(data, size_hint))
        )

    def op_append(self, oid: int, data: bytes) -> int:
        """Append bytes; returns the object's new size."""
        return protocol.unpack_u64(
            self.call(Opcode.APPEND, protocol.pack_oid_data(oid, data), oid=oid)
        )

    def op_read(
        self, oid: int, *, offset: int, length: int,
        version: int | None = None,
    ) -> bytes:
        """Read ``length`` bytes at ``offset`` (of ``version``, if given).

        With no ``version`` the request goes out in the short (legacy)
        form, so the client interoperates with version-unaware servers.
        """
        return self.call(
            Opcode.READ, protocol.pack_read(oid, offset, length, version), oid=oid
        )

    def op_read_into(
        self, oid: int, dest, *, offset: int, length: int,
        version: int | None = None,
    ) -> int:
        """Read ``length`` bytes at ``offset`` directly into ``dest``.

        The zero-copy client read: the payload goes from the socket
        into the caller's writable buffer with no intermediate Python
        copies.  Returns the byte count received.
        """
        out = memoryview(dest).cast("B")
        if len(out) < length:
            raise ValueError(
                f"destination of {len(out)} bytes cannot hold a "
                f"{length}-byte read"
            )
        return self._exchange(
            Opcode.READ,
            protocol.pack_read(oid, offset, length, version),
            oid=oid,
            dest=out[:length],
        )

    def op_write(self, oid: int, data: bytes, *, offset: int) -> int:
        """Overwrite bytes in place; returns the (unchanged) size."""
        return protocol.unpack_u64(
            self.call(
                Opcode.WRITE, protocol.pack_oid_offset_data(oid, offset, data), oid=oid
            )
        )

    def op_insert(self, oid: int, data: bytes, *, offset: int) -> int:
        """Insert bytes at ``offset``; returns the new size."""
        return protocol.unpack_u64(
            self.call(
                Opcode.INSERT, protocol.pack_oid_offset_data(oid, offset, data), oid=oid
            )
        )

    def op_delete(self, oid: int, *, offset: int, length: int) -> int:
        """Delete a byte range; returns the new size."""
        return protocol.unpack_u64(
            self.call(
                Opcode.DELETE,
                protocol.pack_oid_offset_length(oid, offset, length),
                oid=oid,
            )
        )

    def op_size(self, oid: int) -> int:
        """The object's size in bytes."""
        return protocol.unpack_u64(
            self.call(Opcode.SIZE, protocol.pack_oid(oid), oid=oid)
        )

    def op_stat(self, oid: int, *, version: int | None = None) -> ObjectStat:
        """Space accounting plus the root page (of ``version``, if given).

        A plain ``op_stat(oid)`` sends the short (legacy) request form
        and gets the short response, so it round-trips with
        version-unaware servers; passing ``version`` (including ``0``
        for "latest, with its version number") opts into the long forms.
        """
        return protocol.unpack_stat(
            self.call(Opcode.STAT, protocol.pack_stat_req(oid, version), oid=oid)
        )

    def op_versions(self, oid: int) -> list[VersionInfo]:
        """The object's committed versions, ascending (empty when the
        server's database has versioning disabled)."""
        return protocol.unpack_versions(
            self.call(Opcode.VERSIONS, protocol.pack_oid(oid), oid=oid)
        )

    def op_list(self) -> list[tuple[int, int]]:
        """Every object on the server as ``(oid, size)``."""
        return protocol.unpack_listing(self.call(Opcode.LIST))

    def compact(
        self,
        *,
        target_frag: float | None = None,
        max_pages: int | None = None,
    ) -> list[dict]:
        """Run one compaction pass on every live shard (COMPACT opcode).

        Blocks until the pass finishes; returns the per-shard progress
        documents (objects/pages moved, frag before/after, stop reason).
        ``target_frag`` stops each shard early once its volume frag
        index reaches the goal; ``max_pages`` caps pages written per
        shard.  Long passes can exceed the client timeout — cap the
        work with ``max_pages`` or raise ``timeout`` for aged volumes.
        """
        return json.loads(
            self.call(
                Opcode.COMPACT,
                protocol.pack_compact_req(target_frag, max_pages),
            ).decode("utf-8")
        )

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """The server's live status document (METRICS opcode).

        Served before admission control, so it works against an
        overloaded server.
        """
        return json.loads(self.call(Opcode.METRICS).decode("utf-8"))

    def flight(self) -> str:
        """The server's flight-recorder snapshot as JSON-lines text."""
        return self.call(Opcode.FLIGHT).decode("utf-8")
