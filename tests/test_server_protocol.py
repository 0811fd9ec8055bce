"""Unit tests for the wire protocol: framing, codecs, error marshalling."""

import pytest

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import (
    ByteRangeError,
    DatabaseClosed,
    LockConflict,
    ObjectNotFound,
    OutOfSpace,
    ProtocolError,
    RequestTimeout,
    ServerError,
    ServerOverloaded,
    StorageError,
)
from repro.ops import ObjectOps, ObjectStat
from repro.server import EOSClient, ServerThread, protocol
from repro.server.protocol import Opcode, Status
from repro.storage.faults import DiskFault


class TestFraming:
    def test_request_roundtrip(self):
        frame = protocol.encode_request(Opcode.READ, 42, b"payload")
        header = protocol.decode_header(frame[: protocol.HEADER.size])
        assert header.kind == protocol.KIND_REQUEST
        assert Opcode(header.code) is Opcode.READ
        assert header.request_id == 42
        assert header.length == 7
        assert frame[protocol.HEADER.size :] == b"payload"

    def test_response_roundtrip(self):
        frame = protocol.encode_response(Status.OK, 7, b"x")
        header = protocol.decode_header(frame[: protocol.HEADER.size])
        assert header.kind == protocol.KIND_RESPONSE
        assert Status(header.code) is Status.OK
        assert header.request_id == 7

    def test_bad_magic_rejected(self):
        frame = bytearray(protocol.encode_request(Opcode.PING, 1))
        frame[:4] = b"NOPE"
        with pytest.raises(ProtocolError):
            protocol.decode_header(bytes(frame[: protocol.HEADER.size]))

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_header(b"EOS1\x00")

    def test_unknown_kind_rejected(self):
        frame = bytearray(protocol.encode_request(Opcode.PING, 1))
        frame[4] = 9
        with pytest.raises(ProtocolError):
            protocol.decode_header(bytes(frame[: protocol.HEADER.size]))

    def test_oversized_payload_rejected_without_allocation(self):
        header = protocol.HEADER.pack(
            protocol.MAGIC, protocol.KIND_REQUEST, int(Opcode.READ), 1, 1 << 31
        )
        with pytest.raises(ProtocolError):
            protocol.decode_header(header)

    def test_custom_payload_cap(self):
        frame = protocol.encode_request(Opcode.PING, 1, b"x" * 100)
        with pytest.raises(ProtocolError):
            protocol.decode_header(frame[: protocol.HEADER.size], max_payload=10)


class TestErrorMarshalling:
    CASES = [
        (ServerOverloaded("busy"), Status.OVERLOADED, ServerOverloaded),
        (RequestTimeout("slow"), Status.TIMEOUT, RequestTimeout),
        (ProtocolError("bad"), Status.PROTOCOL_ERROR, ProtocolError),
        (ObjectNotFound("no oid 9"), Status.OBJECT_NOT_FOUND, ObjectNotFound),
        (ByteRangeError(10, 5, 3), Status.BYTE_RANGE, ByteRangeError),
        (OutOfSpace(16), Status.OUT_OF_SPACE, OutOfSpace),
        (LockConflict("r", 2), Status.LOCK_CONFLICT, LockConflict),
        (DatabaseClosed("read"), Status.DATABASE_CLOSED, DatabaseClosed),
        (DiskFault("boom"), Status.STORAGE, StorageError),
        (StorageError("io"), Status.STORAGE, StorageError),
        (ValueError("whatever"), Status.SERVER_ERROR, ServerError),
    ]

    @pytest.mark.parametrize(
        "exc,status,client_class", CASES, ids=lambda c: getattr(c, "name", None)
    )
    def test_roundtrip(self, exc, status, client_class):
        assert protocol.status_for_exception(exc) is status
        frame = protocol.encode_error(exc, 5)
        header = protocol.decode_header(frame[: protocol.HEADER.size])
        assert Status(header.code) is status
        rebuilt = protocol.exception_from(
            header.code, frame[protocol.HEADER.size :].decode()
        )
        assert isinstance(rebuilt, client_class)
        assert str(exc) in str(rebuilt)

    def test_unknown_status_becomes_server_error(self):
        exc = protocol.exception_from(200, "???")
        assert isinstance(exc, ServerError)

    def test_structured_constructors_bypassed(self):
        # ByteRangeError takes (offset, length, size); the rebuilt instance
        # must still carry the message without needing those arguments.
        rebuilt = protocol.exception_from(Status.BYTE_RANGE, "range gone")
        assert isinstance(rebuilt, ByteRangeError)
        assert "range gone" in str(rebuilt)


class TestPayloadCodecs:
    def test_create(self):
        data, hint = protocol.unpack_create(protocol.pack_create(b"abc", 512))
        assert (data, hint) == (b"abc", 512)
        data, hint = protocol.unpack_create(protocol.pack_create(b"", None))
        assert (data, hint) == (b"", None)

    def test_oid_data(self):
        assert protocol.unpack_oid_data(protocol.pack_oid_data(9, b"zz")) == (9, b"zz")

    def test_oid_offset_data(self):
        packed = protocol.pack_oid_offset_data(3, 77, b"body")
        assert protocol.unpack_oid_offset_data(packed) == (3, 77, b"body")

    def test_oid_offset_length(self):
        packed = protocol.pack_oid_offset_length(3, 77, 1000)
        assert protocol.unpack_oid_offset_length(packed) == (3, 77, 1000)

    def test_stat(self):
        stat = ObjectStat(
            size_bytes=1 << 33, segments=4, leaf_pages=9,
            index_pages=2, height=2, root_page=101,
        )
        assert protocol.unpack_stat(protocol.pack_stat(stat)) == stat

    def test_listing(self):
        entries = [(1, 100), (2, 0), (9, 1 << 40)]
        assert protocol.unpack_listing(protocol.pack_listing(entries)) == entries
        assert protocol.unpack_listing(protocol.pack_listing([])) == []

    @pytest.mark.parametrize(
        "unpack,payload",
        [
            (protocol.unpack_create, b"abc"),          # shorter than the hint
            (protocol.unpack_oid, b"\x01"),
            (protocol.unpack_oid_data, b"\x01"),
            (protocol.unpack_oid_offset_length, b"\x01" * 8),
            (protocol.unpack_u64, b""),
            (protocol.unpack_stat, b"\x00" * 3),
            (protocol.unpack_listing, b"\x02\x00\x00\x00" + b"\x00" * 8),
        ],
    )
    def test_short_payloads_raise(self, unpack, payload):
        with pytest.raises(ProtocolError):
            unpack(payload)

    def test_write_opcodes_cover_all_mutations(self):
        assert protocol.WRITE_OPCODES == {
            Opcode.CREATE, Opcode.APPEND, Opcode.WRITE,
            Opcode.INSERT, Opcode.DELETE, Opcode.COMPACT,
        }


# ---------------------------------------------------------------------------
# Wire compatibility: the bytes each op puts on the wire, pinned
# ---------------------------------------------------------------------------

#: (opcode, request payload hex, response payload hex) for the fixed
#: session in :func:`_wire_session`.  Recorded before the served path was
#: rewritten around protocol.OBJECT_OPCODES; any difference is a wire
#: format change.  The COMPACT, METRICS and FLIGHT responses carry
#: timings, so only their requests are pinned.  The STAT bodies' root
#: page was 1018 (fa03) until a plain create began placing the root on
#: the page in front of its first segment; it is 994 (e203) since.
PLAIN_SESSION = [
    ("PING", "6563686f", "6563686f"),
    ("CREATE", "001000000000000068656c6c6f", "0100000000000000"),
    ("APPEND", "010000000000000020776f726c64", "0b00000000000000"),
    ("READ", "010000000000000000000000000000000500000000000000", "68656c6c6f"),
    ("READ", "010000000000000006000000000000000500000000000000", "776f726c64"),
    ("WRITE", "0100000000000000000000000000000048454c4c4f", "0b00000000000000"),
    ("INSERT", "010000000000000005000000000000003c2d3e", "0e00000000000000"),
    ("DELETE", "010000000000000005000000000000000300000000000000", "0b00000000000000"),
    ("SIZE", "0100000000000000", "0b00000000000000"),
    ("STAT", "0100000000000000",
     "0b0000000000000001000000010000000100000001000000e2030000"),
    ("STAT", "01000000000000000000000000000000",
     "0b0000000000000001000000010000000100000001000000e203000000000000"),
    ("VERSIONS", "0100000000000000", "0000"),
    ("LIST", "", "0100000001000000000000000b00000000000000"),
    ("COMPACT", "00000000000000000000000000000000", None),
    ("METRICS", "", None),
    ("FLIGHT", "", None),
]
#: The versioned STAT bodies were re-recorded when versioned appends
#: began filling a tail reservation: version 2 (the created "hello")
#: now holds a T-page segment, and the roots land on other pages.
VERSIONED_SESSION = [
    ("CREATE", "001000000000000068656c6c6f", "0100000000000000"),
    ("APPEND", "010000000000000020776f726c64", "0b00000000000000"),
    ("READ", "010000000000000000000000000000000500000000000000", "68656c6c6f"),
    ("READ", "010000000000000006000000000000000500000000000000", "776f726c64"),
    ("WRITE", "0100000000000000000000000000000048454c4c4f", "0b00000000000000"),
    ("INSERT", "010000000000000005000000000000003c2d3e", "0e00000000000000"),
    ("DELETE", "010000000000000005000000000000000300000000000000", "0b00000000000000"),
    ("SIZE", "0100000000000000", "0b00000000000000"),
    ("STAT", "0100000000000000",
     "0b0000000000000002000000020000000100000001000000e6030000"),
    ("STAT", "01000000000000000000000000000000",
     "0b0000000000000002000000020000000100000001000000e603000006000000"),
    ("READ", "0100000000000000000000000000000005000000000000000200000000000000",
     "68656c6c6f"),
    ("STAT", "01000000000000000200000000000000",
     "050000000000000001000000080000000100000001000000fb03000002000000"),
    ("LIST", "", "0100000001000000000000000b00000000000000"),
]


def _wire_session(versioning, monkeypatch):
    """Run the fixed op sequence; every exchange as (opcode, req, resp)."""
    log = []
    exchange = EOSClient._exchange

    def spy(self, opcode, payload, *, oid=None, dest=None):
        out = exchange(self, opcode, payload, oid=oid, dest=dest)
        body = bytes(dest[:out]) if dest is not None else bytes(out)
        log.append((opcode.name, bytes(payload).hex(), body.hex()))
        return out

    monkeypatch.setattr(EOSClient, "_exchange", spy)
    config = EOSConfig(page_size=512, versioning=versioning)
    db = EOSDatabase.create(num_pages=1024, page_size=512, config=config)
    with ServerThread(db, port=0) as srv:
        with EOSClient(port=srv.port) as c:
            if not versioning:
                c.ping(b"echo")
            oid = c.op_create(b"hello", size_hint=4096)
            c.op_append(oid, b" world")
            c.op_read(oid, offset=0, length=5)
            c.op_read_into(oid, bytearray(5), offset=6, length=5)
            c.op_write(oid, b"HELLO", offset=0)
            c.op_insert(oid, b"<->", offset=5)
            c.op_delete(oid, offset=5, length=3)
            c.op_size(oid)
            c.op_stat(oid)
            c.op_stat(oid, version=0)
            if versioning:
                c.op_read(oid, offset=0, length=5, version=2)
                c.op_stat(oid, version=2)
            else:
                c.op_versions(oid)
            c.op_list()
            if not versioning:
                c.compact()
                c.metrics()
                c.flight()
    db.close()
    return log


class TestWireCompatibility:
    @pytest.mark.parametrize(
        "versioning, expected",
        [(False, PLAIN_SESSION), (True, VERSIONED_SESSION)],
        ids=["plain", "versioned"],
    )
    def test_payload_bytes_pinned(self, versioning, expected, monkeypatch):
        log = _wire_session(versioning, monkeypatch)
        assert [(op, req) for op, req, _ in log] == [
            (op, req) for op, req, _ in expected
        ]
        for (op, _, got), (_, _, want) in zip(log, expected):
            if want is not None:
                assert (op, got) == (op, want)


class TestOneObjectOpsSurface:
    @staticmethod
    def _object_ops_methods():
        return {name for name in vars(ObjectOps) if name.startswith("op_")}

    def test_declaration_covers_every_object_op_once(self):
        declared = [spec.method for spec in protocol.OBJECT_OPCODES.values()]
        # CREATE places and LIST fans out, so the server serves those two
        # itself; op_read_into is READ received into a caller's buffer.
        served_elsewhere = ["op_create", "op_list", "op_read_into"]
        assert sorted(declared + served_elsewhere) == sorted(self._object_ops_methods())

    def test_client_spells_each_op_once(self):
        public = {
            name for name, value in vars(EOSClient).items()
            if callable(value) and not name.startswith("_")
        }
        lifecycle = {"connect", "close", "enable_tracing"}
        assert public - lifecycle == self._object_ops_methods() | {
            "ping", "compact", "metrics", "flight", "call",
        }
