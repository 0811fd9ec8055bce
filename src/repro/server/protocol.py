"""The wire protocol: length-prefixed binary frames over a byte stream.

Every message — request or response — is one *frame*::

    magic    4 bytes   b"EOS1"
    kind     u8        low nibble: 0 = request, 1 = response
                       high nibble: flags (:data:`FLAG_TRACE`)
    code     u8        request: opcode        response: status
    id       u32       request id, echoed verbatim in the response
    length   u32       payload length in bytes (trace ctx not counted)
    [trace   12 bytes  only when FLAG_TRACE: u64 trace id, u32 span id]
    payload  <length>  opcode-specific encoding (little-endian structs)

Frames are self-delimiting, so a connection is just a sequence of them;
the server answers each request with exactly one response carrying the
same ``id``.  Payloads are capped (:data:`MAX_PAYLOAD` by default) so a
corrupt or hostile length field cannot make either side buffer without
bound — an oversized length is a :class:`~repro.errors.ProtocolError`,
not an allocation.

Trace propagation: a client with tracing enabled sets
:data:`FLAG_TRACE` in the kind byte and appends a 12-byte trace context
(:data:`TRACE_CTX`: its trace id and the sending span's id) directly
after the fixed header.  The server roots its per-request span tree
under that context, so ``python -m repro.tools.tracefmt client.jsonl
--merge server.jsonl`` renders one tree spanning both processes.  The
flag is optional and ignored on responses; a non-tracing peer never
sets it, which keeps the wire format backward compatible.

Errors travel as a response whose status names a class in the
:mod:`repro.errors` hierarchy and whose payload is the UTF-8 message;
:func:`exception_from` rebuilds an instance of the mapped class on the
client so ``except ObjectNotFound:`` works across the wire exactly as it
does in-process.

``TIMEOUT`` (:class:`~repro.errors.RequestTimeout`) means "outcome
unknown", not "not applied": the request's budget ran out, but an op
already handed to its shard's worker still runs to completion, whole.
A later read sees either the old bytes or the op's new bytes, never a
mix; a client that must know re-reads before it retries.

Request payload encodings (sizes in bytes):

=========  =====================================  ======================
opcode     request payload                        response payload
=========  =====================================  ======================
PING       opaque echo bytes                      the same bytes
CREATE     u64 size_hint (0 = none) + data        u64 oid
APPEND     u64 oid + data                         u64 new size
READ       u64 oid, u64 offset, u64 length        the bytes read
           [+ u64 version]
WRITE      u64 oid, u64 offset + data             u64 size (unchanged)
INSERT     u64 oid, u64 offset + data             u64 new size
DELETE     u64 oid, u64 offset, u64 length        u64 new size
SIZE       u64 oid                                u64 size
STAT       u64 oid [+ u64 version]                u64 size + u32 ×5
                                                  (segments, leaf pages,
                                                  index pages, height,
                                                  root page) [+ u32
                                                  version, long-form
                                                  requesters only]
VERSIONS   u64 oid                                u16 count + count ×
                                                  (u32 version, u64
                                                  size, f64 commit ts)
COMPACT    f64 target_frag (0 = none),            UTF-8 JSON per-shard
           u64 max_pages (0 = none)               compaction progress
LIST       (empty)                                u32 count + count ×
                                                  (u64 oid, u64 size)
METRICS    (empty)                                UTF-8 JSON status
                                                  document (server,
                                                  metrics, stats)
FLIGHT     (empty)                                UTF-8 JSON-lines
                                                  flight snapshot
=========  =====================================  ======================

METRICS and FLIGHT are exposition opcodes: the server answers them
before admission control, so an overloaded server stays observable.

Versioned reads are length-discriminated: READ and STAT requests carry
an optional trailing u64 version number (0 = latest), so old clients'
fixed-size payloads decode exactly as before, and the server replies
with the version-carrying STAT form only to clients that sent the long
request form.  :data:`Status.VERSION_NOT_FOUND` marshals
:class:`~repro.errors.VersionNotFound` for expired or never-committed
versions.

Oids on the wire are *shard-tagged*: a server running N shards encodes
the owning shard in the low bits (``oid % N`` names the shard; see
:mod:`repro.server.sharding`), so routing needs no lookup table and a
1-shard server's wire oids equal its local oids — the tagging is
invisible to clients, which treat oids as opaque u64 handles either
way.  :data:`Status.SHARD_UNAVAILABLE` marshals
:class:`~repro.errors.ShardUnavailable` when the owning shard is down.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import (
    ByteRangeError,
    ConnectionClosed,
    DatabaseClosed,
    LockConflict,
    ObjectNotFound,
    OutOfSpace,
    ProtocolError,
    ReproError,
    RequestTimeout,
    ServerError,
    ServerOverloaded,
    ShardUnavailable,
    StorageError,
    VersionNotFound,
)
from repro.ops import ObjectStat, VersionInfo

MAGIC = b"EOS1"
HEADER = struct.Struct("<4sBBII")

#: Default cap on one frame's payload (requests and responses alike).
MAX_PAYLOAD = 16 * 1024 * 1024

KIND_REQUEST = 0
KIND_RESPONSE = 1

#: The kind byte's low nibble is the frame kind; the high nibble is flags.
KIND_MASK = 0x0F
FLAG_TRACE = 0x80
_KNOWN_FLAGS = FLAG_TRACE

#: The optional trace context after the header: u64 trace id, u32 span id.
TRACE_CTX = struct.Struct("<QI")


class Opcode(enum.IntEnum):
    PING = 1
    CREATE = 2
    APPEND = 3
    READ = 4
    WRITE = 5
    INSERT = 6
    DELETE = 7
    SIZE = 8
    STAT = 9
    LIST = 10
    METRICS = 11
    FLIGHT = 12
    VERSIONS = 13
    COMPACT = 14


#: Opcodes answered before admission control (see the module docstring).
EXPOSITION_OPCODES = frozenset({Opcode.METRICS, Opcode.FLIGHT})


#: Opcodes that mutate the database (admission control's write queue).
WRITE_OPCODES = frozenset(
    {
        Opcode.CREATE,
        Opcode.APPEND,
        Opcode.WRITE,
        Opcode.INSERT,
        Opcode.DELETE,
        Opcode.COMPACT,
    }
)


class Status(enum.IntEnum):
    OK = 0
    SERVER_ERROR = 1        # anything without a more precise mapping
    PROTOCOL_ERROR = 2
    OVERLOADED = 3
    TIMEOUT = 4             # outcome unknown: the op may still complete
    OBJECT_NOT_FOUND = 5
    BYTE_RANGE = 6
    STORAGE = 7             # disk-level failures (including DiskFault)
    OUT_OF_SPACE = 8
    LOCK_CONFLICT = 9
    DATABASE_CLOSED = 10
    SHARD_UNAVAILABLE = 11
    VERSION_NOT_FOUND = 12


# Ordered most-specific-first: the first isinstance match wins when a
# server-side exception is marshalled onto the wire.
_STATUS_OF: tuple[tuple[type[Exception], Status], ...] = (
    (ServerOverloaded, Status.OVERLOADED),
    (RequestTimeout, Status.TIMEOUT),
    (ProtocolError, Status.PROTOCOL_ERROR),
    (ObjectNotFound, Status.OBJECT_NOT_FOUND),
    (VersionNotFound, Status.VERSION_NOT_FOUND),
    (ByteRangeError, Status.BYTE_RANGE),
    (OutOfSpace, Status.OUT_OF_SPACE),
    (LockConflict, Status.LOCK_CONFLICT),
    (ShardUnavailable, Status.SHARD_UNAVAILABLE),
    (DatabaseClosed, Status.DATABASE_CLOSED),
    (StorageError, Status.STORAGE),
)

_CLASS_OF: dict[Status, type[ReproError]] = {
    Status.SERVER_ERROR: ServerError,
    Status.PROTOCOL_ERROR: ProtocolError,
    Status.OVERLOADED: ServerOverloaded,
    Status.TIMEOUT: RequestTimeout,
    Status.OBJECT_NOT_FOUND: ObjectNotFound,
    Status.BYTE_RANGE: ByteRangeError,
    Status.OUT_OF_SPACE: OutOfSpace,
    Status.LOCK_CONFLICT: LockConflict,
    Status.SHARD_UNAVAILABLE: ShardUnavailable,
    Status.DATABASE_CLOSED: DatabaseClosed,
    Status.STORAGE: StorageError,
    Status.VERSION_NOT_FOUND: VersionNotFound,
}


def status_for_exception(exc: BaseException) -> Status:
    """The wire status an exception marshals to."""
    for cls, status in _STATUS_OF:
        if isinstance(exc, cls):
            return status
    return Status.SERVER_ERROR


def exception_from(status: int, message: str) -> ReproError:
    """Rebuild the client-side exception for an error response.

    Some classes in the hierarchy have structured constructors
    (:class:`ByteRangeError` takes offset/length/size), so instances are
    made without calling ``__init__`` — the message carries everything
    the remote side knew.
    """
    try:
        cls = _CLASS_OF.get(Status(status), ServerError)
    except ValueError:
        cls = ServerError
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    return exc


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Header:
    """A decoded frame header (payload not yet read).

    ``kind`` is the bare frame kind (flags already stripped); ``flags``
    holds the validated flag bits.  ``length`` never includes the
    optional trace context — a flagged frame carries
    :data:`TRACE_CTX.size` extra bytes before the payload.
    """

    kind: int
    code: int
    request_id: int
    length: int
    flags: int = 0

    @property
    def has_trace(self) -> bool:
        return bool(self.flags & FLAG_TRACE)


def encode_frame(
    kind: int, code: int, request_id: int, payload: bytes = b"", *, flags: int = 0
) -> bytes:
    """One complete frame, header plus payload."""
    return HEADER.pack(MAGIC, kind | flags, code, request_id, len(payload)) + payload


def request_frames(
    opcode: Opcode,
    request_id: int,
    payload=b"",
    *,
    trace: tuple[int, int] | None = None,
) -> list:
    """A request as an iovec list: header, optional trace ctx, payload.

    The payload (any buffer-protocol object) is *borrowed*, never
    concatenated — senders flush the list with ``socket.sendmsg`` or
    sequential writes.  ``trace`` — a ``(trace_id, span_id)`` pair —
    sets :data:`FLAG_TRACE` and inserts the 12-byte trace context.
    """
    flags = 0 if trace is None else FLAG_TRACE
    frames: list = [
        HEADER.pack(MAGIC, KIND_REQUEST | flags, int(opcode), request_id, len(payload))
    ]
    if trace is not None:
        frames.append(TRACE_CTX.pack(*trace))
    if len(payload):
        frames.append(payload)
    return frames


def response_frames(status: Status, request_id: int, payload=b"") -> list:
    """A response as an iovec list: header, then the borrowed payload.

    The payload buffer (bytes, bytearray, memoryview) is referenced
    as-is — a GET response hands out the read path's assembled buffer
    without re-copying it into a contiguous frame.
    """
    header = HEADER.pack(MAGIC, KIND_RESPONSE, int(status), request_id, len(payload))
    return [header, payload] if len(payload) else [header]


def encode_request(
    opcode: Opcode,
    request_id: int,
    payload: bytes = b"",
    *,
    trace: tuple[int, int] | None = None,
) -> bytes:
    """A request frame carrying ``opcode``, as one contiguous buffer.

    The copying form of :func:`request_frames`, kept for callers that
    want a single buffer (tests, simple scripts).
    """
    return b"".join(request_frames(opcode, request_id, payload, trace=trace))


def encode_response(status: Status, request_id: int, payload: bytes = b"") -> bytes:
    """A response frame carrying ``status`` (copying form of
    :func:`response_frames`)."""
    return b"".join(response_frames(status, request_id, payload))


def encode_error(exc: BaseException, request_id: int) -> bytes:
    """The error response frame for a server-side exception."""
    message = str(exc) or exc.__class__.__name__
    return encode_response(
        status_for_exception(exc), request_id, message.encode("utf-8", "replace")
    )


def decode_header(data: bytes, *, max_payload: int = MAX_PAYLOAD) -> Header:
    """Validate and decode :data:`HEADER.size` bytes of frame header."""
    if len(data) != HEADER.size:
        raise ProtocolError(
            f"frame header is {HEADER.size} bytes, got {len(data)}"
        )
    magic, kind_byte, code, request_id, length = HEADER.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    kind = kind_byte & KIND_MASK
    flags = kind_byte & ~KIND_MASK
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown frame flags 0x{flags & ~_KNOWN_FLAGS:02x}")
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ProtocolError(f"unknown frame kind {kind}")
    if length > max_payload:
        raise ProtocolError(
            f"payload of {length} bytes exceeds the {max_payload}-byte cap"
        )
    return Header(kind, code, request_id, length, flags)


# ---------------------------------------------------------------------------
# Request payload codecs
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q")
_OID_OFF = struct.Struct("<QQ")
_OID_OFF_LEN = struct.Struct("<QQQ")
_OID_OFF_LEN_VER = struct.Struct("<QQQQ")
_OID_VER = struct.Struct("<QQ")
_STAT = struct.Struct("<QIIIII")
_STAT_VER = struct.Struct("<QIIIIII")
_VERSION_COUNT = struct.Struct("<H")
_VERSION_REC = struct.Struct("<IQd")


def _unpack_prefix(fmt: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) < fmt.size:
        raise ProtocolError(
            f"{what}: payload of {len(payload)} bytes is shorter than the "
            f"{fmt.size}-byte fixed part"
        )
    return fmt.unpack_from(payload)


def pack_create(data: bytes, size_hint: int | None) -> bytes:
    """CREATE request payload: u64 size hint (0 = none) + initial data."""
    return _U64.pack(size_hint or 0) + data


def unpack_create(payload: bytes) -> tuple[bytes, int | None]:
    """Split a CREATE payload into (data, size_hint-or-None)."""
    (hint,) = _unpack_prefix(_U64, payload, "create")
    return payload[_U64.size:], (hint or None)


def pack_oid(oid: int) -> bytes:
    """A bare u64 oid payload (SIZE/STAT requests)."""
    return _U64.pack(oid)


def unpack_oid(payload: bytes) -> int:
    """Decode a bare u64 oid payload."""
    if len(payload) != _U64.size:
        raise ProtocolError(f"expected an 8-byte oid payload, got {len(payload)}")
    return _U64.unpack(payload)[0]


def pack_oid_data(oid: int, data: bytes) -> bytes:
    """APPEND request payload: u64 oid + the bytes to append."""
    return _U64.pack(oid) + data


def unpack_oid_data(payload: bytes) -> tuple[int, bytes]:
    """Split an APPEND payload into (oid, data)."""
    (oid,) = _unpack_prefix(_U64, payload, "append")
    return oid, payload[_U64.size:]


def pack_oid_offset_data(oid: int, offset: int, data: bytes) -> bytes:
    """WRITE/INSERT request payload: u64 oid, u64 offset + data."""
    return _OID_OFF.pack(oid, offset) + data


def unpack_oid_offset_data(payload: bytes) -> tuple[int, int, bytes]:
    """Split a WRITE/INSERT payload into (oid, offset, data)."""
    oid, offset = _unpack_prefix(_OID_OFF, payload, "write/insert")
    return oid, offset, payload[_OID_OFF.size:]


def pack_oid_offset_length(oid: int, offset: int, length: int) -> bytes:
    """READ/DELETE request payload: u64 oid, u64 offset, u64 length."""
    return _OID_OFF_LEN.pack(oid, offset, length)


def unpack_oid_offset_length(payload: bytes) -> tuple[int, int, int]:
    """Decode a READ/DELETE payload into (oid, offset, length)."""
    if len(payload) != _OID_OFF_LEN.size:
        raise ProtocolError(
            f"expected a 24-byte (oid, offset, length) payload, got {len(payload)}"
        )
    return _OID_OFF_LEN.unpack(payload)


def pack_read(
    oid: int, offset: int, length: int, version: int | None = None
) -> bytes:
    """READ request payload; the versioned form appends a u64 version.

    Version-unaware clients send the plain 24-byte form, which every
    server reads as "latest" — the two forms are discriminated by
    payload length, so no flag bits are spent and old clients
    interoperate unchanged.
    """
    if not version:
        return _OID_OFF_LEN.pack(oid, offset, length)
    return _OID_OFF_LEN_VER.pack(oid, offset, length, version)


def unpack_read(payload: bytes) -> tuple[int, int, int, int | None]:
    """Decode a READ payload into (oid, offset, length, version-or-None)."""
    if len(payload) == _OID_OFF_LEN.size:
        oid, offset, length = _OID_OFF_LEN.unpack(payload)
        return oid, offset, length, None
    if len(payload) == _OID_OFF_LEN_VER.size:
        oid, offset, length, version = _OID_OFF_LEN_VER.unpack(payload)
        return oid, offset, length, (version or None)
    raise ProtocolError(
        f"expected a 24-byte (oid, offset, length) or 32-byte versioned "
        f"read payload, got {len(payload)}"
    )


def pack_stat_req(oid: int, version: int | None = None) -> bytes:
    """STAT request payload; the versioned form appends a u64 version.

    ``None`` keeps the legacy 8-byte form (and the 28-byte response);
    any integer — including ``0`` for "latest, but tell me its version
    number" — opts into the 16-byte form and the long response.
    """
    if version is None:
        return _U64.pack(oid)
    return _OID_VER.pack(oid, version)


def unpack_stat_req(payload: bytes) -> tuple[int, int | None, bool]:
    """Decode a STAT payload into (oid, version-or-None, long_form).

    ``long_form`` tells the server which response shape the requester
    understands: old 8-byte requesters get the 28-byte versionless stat
    response, 16-byte requesters get the version-carrying one.
    """
    if len(payload) == _U64.size:
        return _U64.unpack(payload)[0], None, False
    if len(payload) == _OID_VER.size:
        oid, version = _OID_VER.unpack(payload)
        return oid, (version or None), True
    raise ProtocolError(
        f"expected an 8-byte oid or 16-byte versioned stat payload, "
        f"got {len(payload)}"
    )


# ---------------------------------------------------------------------------
# Response payload codecs
# ---------------------------------------------------------------------------


def pack_u64(value: int) -> bytes:
    """A u64 response payload (oid, size)."""
    return _U64.pack(value)


def unpack_u64(payload: bytes) -> int:
    """Decode a u64 response payload."""
    if len(payload) != _U64.size:
        raise ProtocolError(f"expected an 8-byte integer payload, got {len(payload)}")
    return _U64.unpack(payload)[0]


def pack_stat(stat: ObjectStat, with_version: bool = False) -> bytes:
    """The STAT response payload for an :class:`~repro.ops.ObjectStat`.

    The server packs the version-carrying long form only for requesters
    that sent the long request form; version-unaware clients keep
    receiving the exact 28-byte payload they always did.
    """
    if with_version:
        return _STAT_VER.pack(
            stat.size_bytes, stat.segments, stat.leaf_pages,
            stat.index_pages, stat.height, stat.root_page, stat.version,
        )
    return _STAT.pack(
        stat.size_bytes, stat.segments, stat.leaf_pages,
        stat.index_pages, stat.height, stat.root_page,
    )


def unpack_stat(payload: bytes) -> ObjectStat:
    """Decode a STAT response payload into an :class:`~repro.ops.ObjectStat`.

    Accepts both response shapes; the short form decodes with
    ``version=0`` (its dataclass default).
    """
    if len(payload) == _STAT.size:
        return ObjectStat(*_STAT.unpack(payload))
    if len(payload) == _STAT_VER.size:
        return ObjectStat(*_STAT_VER.unpack(payload))
    raise ProtocolError(
        f"expected a {_STAT.size}- or {_STAT_VER.size}-byte stat payload, "
        f"got {len(payload)}"
    )


def pack_versions(versions: list[VersionInfo]) -> bytes:
    """The VERSIONS response payload: u16 count + per-record
    (u32 version, u64 size, f64 commit timestamp)."""
    out = bytearray(_VERSION_COUNT.pack(len(versions)))
    for v in versions:
        out += _VERSION_REC.pack(v.version, v.size_bytes, v.commit_ts)
    return bytes(out)


def unpack_versions(payload: bytes) -> list[VersionInfo]:
    """Decode a VERSIONS response payload into [VersionInfo, ...]."""
    (count,) = _unpack_prefix(_VERSION_COUNT, payload, "versions")
    need = _VERSION_COUNT.size + count * _VERSION_REC.size
    if len(payload) != need:
        raise ProtocolError(
            f"versions payload of {len(payload)} bytes does not hold "
            f"{count} records"
        )
    out = []
    offset = _VERSION_COUNT.size
    for _ in range(count):
        version, size, ts = _VERSION_REC.unpack_from(payload, offset)
        offset += _VERSION_REC.size
        out.append(VersionInfo(version, size, ts))
    return out


_COMPACT_REQ = struct.Struct("<dQ")


def pack_compact_req(
    target_frag: float | None = None, max_pages: int | None = None
) -> bytes:
    """The COMPACT request payload: f64 target_frag + u64 max_pages.

    Zero means "unset" for both fields (a target_frag of exactly 0.0 is
    indistinguishable from none — harmless, since compaction to a zero
    frag index stops only when the victim list is exhausted anyway).
    """
    return _COMPACT_REQ.pack(
        target_frag if target_frag is not None else 0.0,
        max_pages if max_pages is not None else 0,
    )


def unpack_compact_req(payload: bytes) -> tuple[float | None, int | None]:
    """Decode a COMPACT request into ``(target_frag, max_pages)``."""
    if len(payload) != _COMPACT_REQ.size:
        raise ProtocolError(
            f"expected a {_COMPACT_REQ.size}-byte compact payload, "
            f"got {len(payload)}"
        )
    target_frag, max_pages = _COMPACT_REQ.unpack(payload)
    return (
        target_frag if target_frag > 0.0 else None,
        max_pages if max_pages > 0 else None,
    )


def pack_listing(entries: list[tuple[int, int]]) -> bytes:
    """The LIST response payload: u32 count + (u64 oid, u64 size) each."""
    out = bytearray(struct.pack("<I", len(entries)))
    for oid, size in entries:
        out += _OID_OFF.pack(oid, size)
    return bytes(out)


def unpack_listing(payload: bytes) -> list[tuple[int, int]]:
    """Decode a LIST response payload into [(oid, size), ...]."""
    (count,) = _unpack_prefix(struct.Struct("<I"), payload, "list")
    need = 4 + count * _OID_OFF.size
    if len(payload) != need:
        raise ProtocolError(
            f"list payload of {len(payload)} bytes does not hold {count} entries"
        )
    out = []
    offset = 4
    for _ in range(count):
        oid, size = _OID_OFF.unpack_from(payload, offset)
        offset += _OID_OFF.size
        out.append((oid, size))
    return out


# ---------------------------------------------------------------------------
# Single-object opcodes: one declaration each
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectOpcode:
    """How the server runs one single-object opcode.

    ``decode`` and ``encode`` name codec functions of this module; the
    server looks them up here when it calls them, so a codec rebound on
    the module is the one that runs.  ``decode`` yields the oid, alone
    or first in a tuple; the next ``len(args)`` fields are keyword
    arguments of the :class:`~repro.ops.ObjectOps` ``method``, and any
    left over follow the result into ``encode`` (STAT's long form).
    ``encode`` None sends the result itself (READ).  A ``read_side`` op
    reads an immutable snapshot on a versioned shard.
    """

    method: str
    decode: str
    args: tuple[str, ...] = ()
    encode: str | None = "pack_u64"
    read_side: bool = False


#: Every single-object opcode.  CREATE (placement), LIST (fan-out),
#: COMPACT and PING are the server's special cases.
OBJECT_OPCODES: dict[Opcode, ObjectOpcode] = {
    Opcode.APPEND: ObjectOpcode("op_append", "unpack_oid_data", ("data",)),
    Opcode.READ: ObjectOpcode(
        "op_read", "unpack_read", ("offset", "length", "version"),
        encode=None, read_side=True,
    ),
    Opcode.WRITE: ObjectOpcode(
        "op_write", "unpack_oid_offset_data", ("offset", "data")
    ),
    Opcode.INSERT: ObjectOpcode(
        "op_insert", "unpack_oid_offset_data", ("offset", "data")
    ),
    Opcode.DELETE: ObjectOpcode(
        "op_delete", "unpack_oid_offset_length", ("offset", "length")
    ),
    Opcode.SIZE: ObjectOpcode("op_size", "unpack_oid", read_side=True),
    Opcode.STAT: ObjectOpcode(
        "op_stat", "unpack_stat_req", ("version",), "pack_stat", read_side=True
    ),
    Opcode.VERSIONS: ObjectOpcode(
        "op_versions", "unpack_oid", encode="pack_versions", read_side=True
    ),
}

__all__ = [
    "MAGIC",
    "HEADER",
    "MAX_PAYLOAD",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_MASK",
    "FLAG_TRACE",
    "TRACE_CTX",
    "Opcode",
    "Status",
    "WRITE_OPCODES",
    "EXPOSITION_OPCODES",
    "ObjectOpcode",
    "OBJECT_OPCODES",
    "Header",
    "ConnectionClosed",
    "encode_frame",
    "encode_request",
    "encode_response",
    "request_frames",
    "response_frames",
    "encode_error",
    "decode_header",
    "status_for_exception",
    "exception_from",
    "pack_read",
    "unpack_read",
    "pack_stat_req",
    "unpack_stat_req",
    "pack_versions",
    "unpack_versions",
    "pack_compact_req",
    "unpack_compact_req",
]
