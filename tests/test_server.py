"""Integration tests for the object server: sessions, scheduling,
admission control, fault behaviour, and the end-to-end acceptance run."""

import asyncio
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import (
    ByteRangeError,
    ObjectNotFound,
    RequestTimeout,
    ServerOverloaded,
    StorageError,
)
from repro.server import EOSClient, ServerThread, protocol
from repro.server.protocol import Status
from repro.storage.disk import DiskVolume
from repro.storage.faults import FaultyDisk
from repro.tools.fsck import fsck

PAGE = 512


def make_db(num_pages=8192, versioning=False):
    config = EOSConfig(page_size=PAGE, versioning=versioning, version_retain=4)
    db = EOSDatabase.create(num_pages=num_pages, page_size=PAGE, config=config)
    db.obs.enable()
    return db


@pytest.fixture
def served():
    """A database served on an ephemeral port; asserts a leak-free stop."""
    db = make_db()
    srv = ServerThread(db, port=0).start()
    yield db, srv
    assert srv.stop() == [], "asyncio tasks leaked across server shutdown"
    db.close()


class TestSessions:
    def test_ping_roundtrip(self, served):
        _, srv = served
        with EOSClient(port=srv.port) as c:
            assert c.ping(b"hello?") == b"hello?"

    def test_full_op_surface(self, served):
        db, srv = served
        with EOSClient(port=srv.port) as c:
            oid = c.create(b"hello", size_hint=4096)
            assert c.append(oid, b" world") == 11
            assert c.read(oid, 0, 11) == b"hello world"
            assert c.write(oid, 0, b"HELLO") == 11
            assert c.insert(oid, 5, b"!!") == 13
            assert c.read(oid, 0, 13) == b"HELLO!! world"
            assert c.delete(oid, 5, 2) == 11
            assert c.size(oid) == 11
            stat = c.stat(oid)
            assert stat.size_bytes == 11
            assert stat.height >= 1
            assert stat.root_page == db.get_object(oid).root_page
            other = c.create(b"x" * 2000)
            listing = dict(c.list_objects())
            assert listing[oid] == 11
            assert listing[other] == 2000

    def test_remote_errors_rebuild_locally(self, served):
        _, srv = served
        with EOSClient(port=srv.port) as c:
            with pytest.raises(ObjectNotFound):
                c.size(999)
            oid = c.create(b"tiny")
            with pytest.raises(ByteRangeError):
                c.read(oid, 0, 1000)
            # The session survives both errors.
            assert c.read(oid, 0, 4) == b"tiny"

    def test_many_requests_one_session(self, served):
        _, srv = served
        with EOSClient(port=srv.port) as c:
            oid = c.create(size_hint=PAGE * 40)
            blob = bytes(i % 251 for i in range(PAGE * 10))
            for i in range(0, len(blob), PAGE):
                c.append(oid, blob[i : i + PAGE])
            assert c.read(oid, 0, len(blob)) == blob

    def test_garbage_frame_gets_protocol_error_reply(self, served):
        _, srv = served
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as s:
            s.sendall(b"GARBAGE-THAT-IS-NOT-A-FRAME!!!")
            raw = s.recv(4096)
        header = protocol.decode_header(raw[: protocol.HEADER.size])
        assert header.kind == protocol.KIND_RESPONSE
        assert Status(header.code) is Status.PROTOCOL_ERROR

    def test_unknown_opcode_gets_protocol_error(self, served):
        _, srv = served
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as s:
            s.sendall(protocol.encode_frame(protocol.KIND_REQUEST, 200, 1))
            raw = s.recv(4096)
        header = protocol.decode_header(raw[: protocol.HEADER.size])
        assert Status(header.code) is Status.PROTOCOL_ERROR


def _gated_hook(gate):
    """An op hook that parks every request while ``gate['closed']``."""

    async def hook(opcode):
        while gate["closed"]:
            await asyncio.sleep(0.005)

    return hook


def _saturate(port, oid, n, gate, server):
    """Park ``n`` read requests in flight; returns (threads, errors)."""
    errors = []

    def held_read(i):
        try:
            with EOSClient(port=port, timeout=60.0) as c:
                c.read(oid, 0, 4)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"held client {i}: {exc}")

    threads = [
        threading.Thread(target=held_read, args=(i,), daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 10
    while server.inflight < n:
        assert time.monotonic() < deadline, (
            f"only {server.inflight}/{n} requests in flight"
        )
        time.sleep(0.005)
    return threads, errors


class TestAdmissionControl:
    def test_ninth_client_rejected_not_timed_out(self):
        db = make_db()
        gate = {"closed": True}
        srv = ServerThread(
            db, port=0, max_inflight=8, op_hook=_gated_hook(gate)
        ).start()
        try:
            gate["closed"] = False
            with EOSClient(port=srv.port) as admin:
                oid = admin.create(b"shared")
            gate["closed"] = True
            threads, errors = _saturate(srv.port, oid, 8, gate, srv.server)
            t0 = time.monotonic()
            with EOSClient(port=srv.port) as ninth:
                with pytest.raises(ServerOverloaded):
                    ninth.read(oid, 0, 4)
            assert time.monotonic() - t0 < 5.0, "rejection was not immediate"
            gate["closed"] = False
            for t in threads:
                t.join(30)
            assert errors == []
        finally:
            gate["closed"] = False
            assert srv.stop() == []
            db.close()

    def test_write_queue_backpressure(self):
        db = make_db()
        gate = {"closed": True}
        srv = ServerThread(
            db, port=0, max_inflight=8, max_write_queue=1,
            op_hook=_gated_hook(gate),
        ).start()
        try:
            gate["closed"] = False
            with EOSClient(port=srv.port) as admin:
                oid = admin.create(b"shared")
            gate["closed"] = True
            errors = []

            def held_append():
                try:
                    with EOSClient(port=srv.port, timeout=60.0) as c:
                        c.append(oid, b"q")
                except Exception as exc:  # pragma: no cover
                    errors.append(str(exc))

            t = threading.Thread(target=held_append, daemon=True)
            t.start()
            deadline = time.monotonic() + 10
            while srv.server.write_queued < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # A second write is refused: the write queue is bounded, and
            # backpressure is an explicit reply, not silent buffering.
            with EOSClient(port=srv.port) as c:
                with pytest.raises(ServerOverloaded):
                    c.append(oid, b"r")
            gate["closed"] = False
            t.join(30)
            assert errors == []
            # Reads were never subject to the write queue.
            with EOSClient(port=srv.port) as c:
                assert c.read(oid, 0, 6) == b"shared"
        finally:
            gate["closed"] = False
            assert srv.stop() == []
            db.close()

    def test_request_timeout_reply(self):
        db = make_db()
        gate = {"closed": True}
        srv = ServerThread(
            db, port=0, request_timeout=0.2, op_hook=_gated_hook(gate)
        ).start()
        try:
            gate["closed"] = False
            with EOSClient(port=srv.port) as admin:
                oid = admin.create(b"slow")
            gate["closed"] = True
            with EOSClient(port=srv.port, timeout=30.0) as c:
                with pytest.raises(RequestTimeout):
                    c.read(oid, 0, 4)
                # The budget applies per request; the session lives on.
                gate["closed"] = False
                assert c.read(oid, 0, 4) == b"slow"
        finally:
            gate["closed"] = False
            assert srv.stop() == []
            db.close()


class TestDiskFaults:
    def _served_faulty_db(self, tmp_path):
        base = make_db(num_pages=4096)
        oid = base.op_create(bytes(range(256)) * 64)  # 16 KB, multi-segment
        path = str(tmp_path / "faulty.db")
        base.save(path)
        base.close()
        faulty = FaultyDisk(DiskVolume.load(path))
        db = EOSDatabase.attach(faulty)
        db.obs.enable()
        return db, faulty, oid

    def test_mid_read_fault_is_a_clean_error_not_a_hang(self, tmp_path):
        db, faulty, oid = self._served_faulty_db(tmp_path)
        srv = ServerThread(db, port=0, request_timeout=10.0).start()
        try:
            with EOSClient(port=srv.port, timeout=10.0) as c:
                whole = c.read(oid, 0, 16384)
                assert len(whole) == 16384
                # The very next disk read dies mid-request.
                faulty.arm(fail_after_reads=0)
                t0 = time.monotonic()
                with pytest.raises(StorageError):
                    c.read(oid, 0, 16384)
                # A marshalled error, within the request budget — the
                # connection did not hang until the socket gave up.
                assert time.monotonic() - t0 < 5.0
                # Same session: the device heals, service resumes.
                faulty.heal()
                assert c.read(oid, 0, 16384) == whole
                assert c.ping(b"still here") == b"still here"
        finally:
            assert srv.stop() == []
            db.close()


CLIENTS = 8
ROUNDS = 6
CHUNK = struct.Struct("<II")


def _piece(cid, seq):
    tag = CHUNK.pack(cid, seq)
    return tag + bytes((cid * 17 + seq + i) % 251 for i in range(56))


class TestEndToEnd:
    """The acceptance run: 8 concurrent clients on shared and private
    objects, every byte verified, spans/metrics nonzero, and a 9th
    client past the in-flight cap gets ServerOverloaded."""

    def test_eight_clients_then_overload(self):
        db = make_db(num_pages=16384)
        gate = {"closed": False}
        srv = ServerThread(
            db, port=0, max_inflight=CLIENTS, op_hook=_gated_hook(gate)
        ).start()
        errors = []
        try:
            with EOSClient(port=srv.port) as admin:
                shared = admin.create(size_hint=CLIENTS * ROUNDS * 64)

            def worker(cid):
                try:
                    with EOSClient(port=srv.port, timeout=60.0) as c:
                        private = c.create(size_hint=(ROUNDS + 1) * 64)
                        expect = bytearray()
                        for seq in range(ROUNDS):
                            piece = _piece(cid, seq)
                            c.append(private, piece)
                            expect += piece
                            c.append(shared, piece)
                        marker = _piece(cid, ROUNDS)
                        mid = len(expect) // 2
                        c.insert(private, mid, marker)
                        expect[mid:mid] = marker
                        got = c.read(private, 0, len(expect))
                        if got != bytes(expect):
                            raise AssertionError(
                                f"client {cid}: private bytes diverged"
                            )
                except Exception as exc:
                    errors.append(f"client {cid}: {exc}")

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert errors == []

            # Shared object: all appends landed, chunk-atomic, none torn.
            with EOSClient(port=srv.port) as admin:
                blob = admin.read(shared, 0, admin.size(shared))
            assert len(blob) == CLIENTS * ROUNDS * 64
            seen = sorted(
                CHUNK.unpack_from(blob, i) for i in range(0, len(blob), 64)
            )
            assert seen == sorted(
                (cid, seq) for cid in range(CLIENTS) for seq in range(ROUNDS)
            )

            # Observability: nonzero per-request spans and counters.
            metrics = db.stats.metrics()
            expected_requests = 3 + CLIENTS * (2 * ROUNDS + 3)
            assert metrics["server.requests"] == expected_requests
            assert metrics["span.server.request"] == expected_requests
            assert metrics["server.latency_ms"]["count"] == expected_requests
            assert metrics["server.bytes_in"] > 0
            assert metrics["server.bytes_out"] > 0
            assert db.stats.snapshot().page_writes > 0

            # A 9th client past the in-flight cap is rejected, fast.
            gate["closed"] = True
            held, held_errors = _saturate(
                srv.port, shared, CLIENTS, gate, srv.server
            )
            t0 = time.monotonic()
            with EOSClient(port=srv.port) as ninth:
                with pytest.raises(ServerOverloaded):
                    ninth.read(shared, 0, 4)
            assert time.monotonic() - t0 < 5.0
            assert db.stats.metrics()["server.rejections"] >= 1
            gate["closed"] = False
            for t in held:
                t.join(30)
            assert held_errors == []
        finally:
            gate["closed"] = False
            assert srv.stop() == []
            db.close()


def _race(port, work, n_clients):
    """Run ``work(cid, client)`` on ``n_clients`` threads at once, each
    with its own session; returns the per-client results.  A tiny GIL
    switch interval makes the server's threads interleave mid-op, so an
    op that is not atomic shows up here instead of passing by luck."""
    start = threading.Barrier(n_clients)
    results, errors = [None] * n_clients, []

    def run(cid):
        try:
            with EOSClient(port=port, timeout=60.0) as c:
                start.wait(10)
                results[cid] = work(cid, c)
        except Exception as exc:
            errors.append(f"client {cid}: {exc!r}")

    threads = [
        threading.Thread(target=run, args=(cid,), daemon=True)
        for cid in range(n_clients)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a client hung"
    assert errors == []
    return results


def _tagged(cid, seq, length):
    tag = CHUNK.pack(cid, seq)
    fill = bytes([(cid * 31 + seq) % 251]) * length
    return (tag + fill)[:length]


@pytest.fixture(scope="class", params=["plain", "versioned"])
def one_oid_server(request):
    """A server shared by every example of a class; plain or versioned."""
    db = make_db(versioning=request.param == "versioned")
    srv = ServerThread(db, port=0).start()
    yield db, srv
    assert srv.stop() == [], "asyncio tasks leaked across server shutdown"
    db.close()


class TestConcurrentClientsOneOid:
    """Several clients mutate one oid over the wire at once.  Nothing but
    the owning shard's single worker orders them, so every op must still
    land whole, in some serial order, on plain and versioned shards."""

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.lists(st.integers(CHUNK.size, 700), min_size=1, max_size=6),
        min_size=3, max_size=4,
    ))
    def test_appends_are_atomic(self, one_oid_server, lengths):
        _, srv = one_oid_server
        with EOSClient(port=srv.port) as admin:
            oid = admin.create()

        def append_all(cid, c):
            return [
                (c.append(oid, _tagged(cid, seq, n)), _tagged(cid, seq, n))
                for seq, n in enumerate(lengths[cid])
            ]

        placed = [
            entry for entries in _race(srv.port, append_all, len(lengths))
            for entry in entries
        ]
        sizes = [size for size, _ in placed]
        assert len(set(sizes)) == len(sizes), "two appends saw one size"
        total = sum(map(sum, lengths))
        with EOSClient(port=srv.port) as admin:
            assert admin.size(oid) == total
            blob = admin.read(oid, 0, total)
        for size, chunk in placed:
            assert blob[size - len(chunk):size] == chunk

    @settings(max_examples=15, deadline=None)
    @given(
        lo=st.integers(0, 1500), span=st.integers(1, 1500),
        widen=st.lists(
            st.tuples(st.integers(0, 600), st.integers(0, 600)),
            min_size=2, max_size=3,
        ),
    )
    def test_writes_are_never_torn(self, one_oid_server, lo, span, widen):
        _, srv = one_oid_server
        size = 3600
        hi = lo + span
        with EOSClient(port=srv.port) as admin:
            oid = admin.create(bytes(size))
        writers = len(widen)

        def work(cid, c):
            if cid >= writers:  # a reader of [lo, hi)
                return [set(c.read(oid, lo, span)) for _ in range(12)]
            start = max(0, lo - widen[cid][0])
            stop = min(size, hi + widen[cid][1])
            for seq in range(6):
                pattern = bytes([1 + cid * 16 + seq])
                c.write(oid, start, pattern * (stop - start))
            return []

        seen = _race(srv.port, work, writers + 2)
        written = {0} | {1 + cid * 16 + seq for cid in range(writers)
                         for seq in range(6)}
        for patterns in seen[writers:]:
            for pattern in patterns:
                assert len(pattern) == 1, f"torn read: {sorted(pattern)}"
                assert pattern <= written

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 2000),
                      st.integers(1, 400)),
            min_size=1, max_size=8,
        ),
        min_size=3, max_size=4,
    ))
    def test_insert_delete_traffic_leaves_fsck_clean(
        self, one_oid_server, scripts
    ):
        db, srv = one_oid_server
        floor = 2400
        with EOSClient(port=srv.port) as admin:
            oid = admin.create(bytes(floor))

        def work(cid, c):
            # Each client deletes at most what it has inserted, so the
            # object never shrinks below ``floor`` and every offset
            # below is in range whatever the others do.
            net = 0
            for insert, offset, n in scripts[cid]:
                if insert:
                    c.insert(oid, offset, _tagged(cid, offset, n))
                    net += n
                elif net:
                    n = min(n, net)
                    c.delete(oid, offset=offset, length=n)
                    net -= n
            return net

        grown = sum(_race(srv.port, work, len(scripts)))
        with EOSClient(port=srv.port) as admin:
            assert admin.size(oid) == floor + grown
        shard = srv.server.shards.shards[0]
        report = shard.submit(fsck, db).result()
        assert report.clean, report.summary()

    def test_timed_out_write_still_lands_whole(self, one_oid_server):
        _, srv = one_oid_server
        old, new = b"o" * 3000, b"n" * 2000
        with EOSClient(port=srv.port) as admin:
            oid = admin.create(old)
        shard = srv.server.shards.shards[0]
        budget = srv.server.request_timeout
        blocker = shard.submit(time.sleep, 0.6)
        with EOSClient(port=srv.port, timeout=30.0) as c:
            srv.server.request_timeout = 0.2
            try:
                with pytest.raises(RequestTimeout):
                    c.write(oid, 500, new)
            finally:
                srv.server.request_timeout = budget
            # TIMEOUT means "outcome unknown": the write is still queued
            # behind the blocker.  A plain read queues behind it and sees
            # the new bytes; a snapshot read may still see the old ones.
            landed = old[:500] + new + old[2500:]
            assert c.read(oid, 0, 3000) in (old, landed)
            blocker.result()
            shard.submit(lambda: None).result()  # the write has run
            assert c.read(oid, 0, 3000) == landed
        # The op was not dropped from the queue, so its pending count
        # was settled too.
        assert shard.pending == 0
