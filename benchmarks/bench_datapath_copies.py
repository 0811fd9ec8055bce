"""DATAPATH — copies per scanned byte, disk to caller and disk to wire.

The zero-copy data path promises exactly one Python-level payload copy
per read: the final assembly that hands the caller owned bytes.  This
bench *measures* it with the :mod:`repro.util.copytrace` ledger — every
sanctioned copy site reports its byte count — rather than trusting the
code to be as zero-copy as it claims:

* ``direct`` — 1 MB chunked scan of a 64 MB object via
  :meth:`LargeObject.read`; the one copy is the final
  ``b"".join`` of borrowed page views (``search.assemble``).
* ``server_e2e`` — the same scan through a live TCP server with
  :meth:`EOSClient.op_read_into`; the one copy is the server-side
  assembly, the response rides the wire as borrowed iovec frames and
  lands in the client's buffer via ``recv_into``.

The committed pre-change baseline (``benchmarks/results/baseline/``)
recorded 2 copies/byte direct and 4 copies/byte end-to-end;
``benchmarks/regress.py`` fails CI if either count ever rises again.
"""

import time

from common import ExperimentReport

from repro.api import EOSDatabase
from repro.server import EOSClient, ServerThread
from repro.util import copytrace

PAGE = 4096
OBJECT_MB = 64
OBJECT_BYTES = OBJECT_MB << 20
CHUNK = 1 << 20
# Any copy site beyond the single sanctioned assembly shows up as at
# least one page per chunk, i.e. >> this slack (which only absorbs
# stray index-page pool misses).
COPY_SLACK = 0.02


# Copy counts are deterministic; wall time is not.  Each path scans
# PASSES times and reports the best pass, which damps scheduler noise
# without hiding a real regression.
PASSES = 2


def _scan_direct(obj):
    """Best-of-PASSES full scans; returns (copies_per_byte, mb_per_s)."""
    best = 0.0
    for _ in range(PASSES):
        with copytrace.tracking() as ledger:
            t0 = time.perf_counter()
            got = 0
            for off in range(0, OBJECT_BYTES, CHUNK):
                got += len(obj.read(off, min(CHUNK, OBJECT_BYTES - off)))
            elapsed = time.perf_counter() - t0
        assert got == OBJECT_BYTES
        best = max(best, OBJECT_MB / elapsed)
    return ledger.bytes_copied / OBJECT_BYTES, best


def _scan_server(port, oid):
    """Best-of-PASSES scans via read_into; returns (copies_per_byte, mb_per_s)."""
    dest = bytearray(CHUNK)
    best = 0.0
    with EOSClient(port=port, timeout=120.0) as c:
        c.op_read_into(oid, dest, offset=0, length=CHUNK)  # warm the connection
        for _ in range(PASSES):
            with copytrace.tracking() as ledger:
                t0 = time.perf_counter()
                got = 0
                for off in range(0, OBJECT_BYTES, CHUNK):
                    got += c.op_read_into(
                        oid, dest, offset=off, length=min(CHUNK, OBJECT_BYTES - off)
                    )
                elapsed = time.perf_counter() - t0
            assert got == OBJECT_BYTES
            best = max(best, OBJECT_MB / elapsed)
    return ledger.bytes_copied / OBJECT_BYTES, best


def run_all():
    db = EOSDatabase.create(num_pages=33000, page_size=PAGE)
    payload = bytes(i % 251 for i in range(OBJECT_BYTES))
    obj = db.create_object(size_hint=OBJECT_BYTES)
    obj.append(payload)
    obj.trim()
    # Warm-up pass: pools the index pages and checks content fidelity,
    # so the measured passes count data-path copies only.
    assert obj.read(0, CHUNK) == payload[:CHUNK]
    assert obj.read(OBJECT_BYTES - CHUNK, CHUNK) == payload[-CHUNK:]

    direct_copies, direct_mbs = _scan_direct(obj)
    with ServerThread(db, port=0) as srv:
        server_copies, server_mbs = _scan_server(srv.port, obj.oid)

    snap = db.stats.snapshot()
    io = {
        "seeks": snap.seeks,
        "page_transfers": snap.page_transfers,
        "page_reads": snap.page_reads,
        "page_writes": snap.page_writes,
    }
    db.close()
    return (
        [
            ["direct", round(direct_copies, 3), round(direct_mbs, 1)],
            ["server_e2e", round(server_copies, 3), round(server_mbs, 1)],
        ],
        io,
    )


def test_datapath_copies(benchmark):
    t0 = time.perf_counter()
    rows, io = run_all()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = ExperimentReport(
        "DATAPATH",
        f"Data-path copy count and throughput, {OBJECT_MB} MB sequential scan",
        ["path", "copies_per_byte", "mb_per_s"],
        page_size=PAGE,
    )
    report.set_params(object_mb=OBJECT_MB, chunk_bytes=CHUNK)
    report.set_io(io)
    report.set_wall_ms(wall_ms)
    for row in rows:
        report.add_row(row)
    by_path = {row[0]: row for row in rows}
    # The acceptance bar: at most one Python-level copy per byte on both
    # paths (the baseline measured 2 direct, 4 end-to-end).
    assert by_path["direct"][1] <= 1.0 + COPY_SLACK, by_path
    assert by_path["server_e2e"][1] <= 1.0 + COPY_SLACK, by_path
    report.note(
        "copies measured by the copytrace ledger: the single sanctioned "
        "copy is the read's final assembly; the wire path adds none "
        "(iovec send, recv_into receive)"
    )
    report.emit()

    benchmark.pedantic(run_all, rounds=1, iterations=1)


if __name__ == "__main__":
    rows, io = run_all()
    for path, copies, mbs in rows:
        print(f"{path}: {copies:.3f} copies/byte, {mbs:.0f} MB/s")
