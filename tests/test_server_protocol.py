"""Unit tests for the wire protocol: framing, codecs, error marshalling."""

import pytest

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
from repro.ops import ObjectStat
from repro.server import protocol
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
