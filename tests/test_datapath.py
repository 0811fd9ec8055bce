"""The zero-copy data path: view I/O, run coalescing, the perf gate.

Covers the storage primitives (:meth:`DiskVolume.view_pages`,
:meth:`DiskVolume.write_pages_v`), the read path's run coalescing and
its aliasing safety (results must be immune to later writes), the
no-copy streaming write, LRU eviction order in the buffer pool, and the
:mod:`repro.bench.regress` comparison gate CI runs over BENCH_*.json
artifacts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EOSConfig, EOSDatabase
from repro.bench.jsonout import write_bench_json
from repro.bench.regress import (
    GATED_BENCHES,
    Tolerances,
    compare_dirs,
    compare_docs,
    extract_metrics,
)
from repro.core.search import _plan_reads
from repro.core.stream import ObjectStream
from repro.errors import AllPagesPinned, PageSizeMismatch
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskVolume
from repro.util import copytrace

ROOT = Path(__file__).resolve().parents[1]


def make_db(threshold=1, page_size=100, num_pages=2000, **cfg):
    config = EOSConfig(page_size=page_size, threshold=threshold, **cfg)
    return EOSDatabase.create(num_pages=num_pages, page_size=page_size, config=config)


def pattern(n: int, seed: int = 0) -> bytes:
    return bytes((i * 31 + seed * 7) % 251 for i in range(n))


class TestViewPages:
    def test_view_matches_read_pages(self):
        disk = DiskVolume(num_pages=8, page_size=64)
        disk.poke(2, pattern(128))
        view = disk.view_pages(2, 2)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert bytes(view) == disk.peek(2, 2) == pattern(128)

    def test_view_is_readonly(self):
        disk = DiskVolume(num_pages=4, page_size=64)
        view = disk.view_pages(0, 1)
        with pytest.raises(TypeError):
            view[0] = 1

    def test_view_aliases_live_image(self):
        """The documented contract: a held view observes later writes
        (it borrows the volume image) but is never *invalidated* — the
        buffer stays alive and readable across them."""
        disk = DiskVolume(num_pages=4, page_size=64)
        view = disk.view_pages(1, 1)
        assert bytes(view) == bytes(64)
        disk.write_pages_v(1, [b"\xab" * 64])
        assert bytes(view) == b"\xab" * 64  # no BufferError, new content

    def test_view_accounts_one_run(self):
        disk = DiskVolume(num_pages=16, page_size=64)
        with disk.stats.delta() as d:
            disk.view_pages(3, 5)
        assert (d.read_calls, d.seeks, d.page_reads) == (1, 1, 5)

    def test_write_pages_v_gathers_mixed_buffers(self):
        disk = DiskVolume(num_pages=8, page_size=64)
        chunks = [pattern(50), bytearray(pattern(100, 1)), memoryview(pattern(42, 2))]
        with disk.stats.delta() as d:
            disk.write_pages_v(2, chunks)
        assert (d.write_calls, d.seeks, d.page_writes) == (1, 1, 3)
        assert disk.peek(2, 3) == b"".join(bytes(c) for c in chunks)

    def test_write_pages_v_rejects_partial_page(self):
        disk = DiskVolume(num_pages=8, page_size=64)
        with pytest.raises(PageSizeMismatch):
            disk.write_pages_v(0, [b"x" * 63])


class TestRunCoalescing:
    """Physically adjacent segments must read as one transfer run."""

    def _doubling_object(self, db):
        # Figure 5.b growth: chunk appends give segments of 1, 2, 4, ...
        # pages; fresh-volume buddy allocation places the first three
        # physically back to back (asserted below as a precondition).
        obj = db.create_object()
        data = pattern(1820)
        for off in range(0, 1820, 100):
            obj.append(data[off : off + 100])
        segs = obj.segments()
        assert segs[0][1].child + segs[0][1].pages == segs[1][1].child
        assert segs[1][1].child + segs[1][1].pages == segs[2][1].child
        return obj, data, segs

    def test_adjacent_segments_read_in_one_run(self):
        db = make_db()
        obj, data, segs = self._doubling_object(db)
        span = segs[0][1].count + segs[1][1].count + segs[2][1].count
        with db.segio.disk.stats.delta() as d:
            got = obj.read(0, span)
        assert got == data[:span]
        # Three segments, one contiguous run: one seek, one read call.
        assert d.read_calls == 1
        assert d.seeks == 1

    def test_plan_matches_observed_calls(self):
        db = make_db()
        obj, data, _ = self._doubling_object(db)
        runs = _plan_reads(obj.tree, db.segio, 0, 1820)
        with db.segio.disk.stats.delta() as d:
            assert obj.read(0, 1820) == data
        assert d.read_calls == len(runs)
        assert d.read_calls < len(obj.segments())  # coalescing happened
        # Every planned part must land inside its run.
        for first, n_pages, parts in runs:
            for part_off, take in parts:
                assert 0 <= part_off <= part_off + take <= n_pages * 100

    def test_read_into_borrows_no_intermediate(self):
        db = make_db()
        obj, data, _ = self._doubling_object(db)
        dest = bytearray(1820)
        with copytrace.tracking() as ledger:
            n = obj.read_into(0, 1820, dest)
        assert n == 1820 and bytes(dest) == data
        # The assembly lands straight in dest: no site copied the payload.
        assert ledger.by_site.get("search.assemble") is None
        assert ledger.by_site.get("search.assemble_into") == 1820


class TestReadStability:
    """Read results are owned copies — later updates must not mutate
    them, however the underlying pages get rewritten or reallocated."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_reads_immune_to_later_writes(self, data):
        db = make_db()
        shadow = bytearray(pattern(1234))
        obj = db.create_object(bytes(shadow))
        taken: list[tuple[bytes, bytes]] = []
        for _ in range(data.draw(st.integers(1, 8), label="ops")):
            op = data.draw(st.sampled_from(["read", "append", "replace"]))
            size = len(shadow)
            if op == "read" and size:
                off = data.draw(st.integers(0, size - 1), label="off")
                length = data.draw(st.integers(1, size - off), label="len")
                got = obj.read(off, length)
                want = bytes(shadow[off : off + length])
                assert got == want
                taken.append((got, want))
            elif op == "append":
                chunk = pattern(data.draw(st.integers(1, 400)), seed=7)
                obj.append(chunk)
                shadow.extend(chunk)
            elif op == "replace" and size:
                off = data.draw(st.integers(0, size - 1), label="roff")
                length = data.draw(st.integers(1, min(300, size - off)))
                chunk = pattern(length, seed=3)
                obj.replace(off, chunk)
                shadow[off : off + length] = chunk
        # Every previously returned read must still hold its value.
        for got, want in taken:
            assert got == want
        assert obj.read_all() == bytes(shadow)


class TestStreamNoCopy:
    def test_large_write_stages_no_full_copy(self):
        db = make_db()
        stream = ObjectStream(db.create_object(), buffer_pages=4)
        payload = pattern(10_000)
        with copytrace.tracking() as ledger:
            n = stream.write(memoryview(payload))
        assert n == 10_000
        # No layer may have materialized the whole input; only stray
        # page-sized metadata reads are tolerated.
        assert all(v < len(payload) for v in ledger.by_site.values()), ledger.by_site
        assert ledger.bytes_copied < len(payload) // 2
        stream.flush()
        assert db.get_object(stream.obj.oid).read_all() == payload

    def test_small_writes_still_batch(self):
        db = make_db()
        stream = ObjectStream(db.create_object(), buffer_pages=4)
        for i in range(10):
            stream.write(memoryview(pattern(37, seed=i)))
        stream.flush()
        want = b"".join(pattern(37, seed=i) for i in range(10))
        assert stream.obj.read_all() == want


class TestBufferPoolLRU:
    def test_eviction_follows_recency_order(self):
        disk = DiskVolume(num_pages=16, page_size=64)
        pool = BufferPool(disk, capacity=3)
        for page in (1, 2, 3):
            pool.fetch(page)
            pool.unpin(page)
        pool.fetch(1)  # 1 becomes most-recent; LRU order is now 2, 3, 1
        pool.unpin(1)
        pool.fetch(4)  # must evict 2, the least recently used
        pool.unpin(4)
        assert not pool.resident(2)
        assert pool.resident(3) and pool.resident(1) and pool.resident(4)

    def test_pinned_pages_rotate_not_evict(self):
        disk = DiskVolume(num_pages=16, page_size=64)
        pool = BufferPool(disk, capacity=2)
        pool.fetch(1)  # stays pinned
        pool.fetch(2)
        pool.unpin(2)
        pool.fetch(3)  # evicts 2, never 1
        pool.unpin(3)
        assert pool.resident(1) and pool.resident(3) and not pool.resident(2)

    def test_all_pinned_raises(self):
        disk = DiskVolume(num_pages=16, page_size=64)
        pool = BufferPool(disk, capacity=2)
        pool.fetch(1)
        pool.fetch(2)
        with pytest.raises(AllPagesPinned):
            pool.fetch(3)


def _bench_doc(directory, bench, rows, io=None, params=None):
    write_bench_json(
        directory,
        bench=bench,
        title=f"test doc {bench}",
        params=params or {"page_size": 4096},
        columns=["c1", "c2", "c3", "c4"],
        rows=rows,
        io=io or {},
        wall_ms=1.0,
        notes=[],
    )


def _write_trio(directory, *, copies=1.0, mbps=1000.0, seeks=100, rps=3000):
    """One artifact per gated bench (the name predates SRV2)."""
    _bench_doc(directory, "DATAPATH",
               [["direct", copies, mbps], ["server_e2e", copies, mbps]])
    _bench_doc(directory, "E4", [["EOS", "195 KB", 2, 392]],
               io={"seeks": seeks, "page_transfers": 6000})
    _bench_doc(directory, "SRV1",
               [[1, rps * 0.8, 0.3, 0.6], [8, rps, 2.0, 4.0]])
    _bench_doc(directory, "SRV2",
               [[1, 8, rps * 0.3, 2.0, 4.0], [4, 8, rps, 2.0, 4.0]])
    _bench_doc(directory, "VER1",
               [["versioned", "idle", rps * 0.05, 6.0, 7.5],
                ["versioned", "appender", rps * 0.045, 7.0, 9.0],
                ["unversioned", "idle", rps * 0.05, 6.0, 7.5],
                ["unversioned", "appender", rps * 0.045, 7.0, 9.5]])
    _bench_doc(directory, "AGE1",
               [["mixed", 0, 0.55, 0.40, seeks * 0.5, 120],
                ["mixed", 5, 0.55, 0.90, seeks * 0.7, 130]],
               params={"page_size": 4096,
                       "scan": {"mixed": {"fresh_mb_s": 2.0,
                                          "aged_mb_s": 2.0 * mbps / 1000.0 * 0.85,
                                          "ratio": mbps / 1000.0 * 0.85}}})
    _bench_doc(directory, "AGE2",
               [["aged", 0.63, 0.90, seeks * 0.7, mbps / 1000.0 * 0.8],
                ["compacted", 0.44, 0.40, seeks * 0.5, mbps / 1000.0]],
               params={"frag": {"aged": 0.90, "compacted": 0.40,
                                "drop": 0.55},
                       "scan": {"compacted_ratio": mbps / 1000.0 * 0.98}})


class TestRegressGate:
    def test_identical_runs_pass(self, tmp_path):
        _write_trio(tmp_path / "base")
        _write_trio(tmp_path / "cur")
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert report.ok and not report.failures
        assert any("DATAPATH" in line for line in report.checked)

    def test_throughput_within_tolerance_passes(self, tmp_path):
        _write_trio(tmp_path / "base", mbps=1000.0)
        _write_trio(tmp_path / "cur", mbps=900.0)  # -10% < 15% tolerance
        assert compare_dirs(tmp_path / "base", tmp_path / "cur").ok

    def test_throughput_regression_fails(self, tmp_path):
        _write_trio(tmp_path / "base", mbps=1000.0, rps=3000)
        _write_trio(tmp_path / "cur", mbps=1000.0, rps=2000)  # -33%
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.ok
        assert any(f.metric.startswith("req_per_s") for f in report.failures)

    def test_any_copy_increase_fails(self, tmp_path):
        _write_trio(tmp_path / "base", copies=1.0)
        _write_trio(tmp_path / "cur", copies=1.001)
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.ok
        assert any("copies_per_byte" in f.metric for f in report.failures)

    def test_seek_increase_fails(self, tmp_path):
        _write_trio(tmp_path / "base", seeks=100)
        _write_trio(tmp_path / "cur", seeks=101)
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert any(f.metric == "io.seeks" for f in report.failures)

    def test_missing_current_artifact_fails(self, tmp_path):
        _write_trio(tmp_path / "base")
        (tmp_path / "cur").mkdir()
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.ok and len(report.failures) == len(GATED_BENCHES)

    def test_missing_baseline_skips(self, tmp_path):
        (tmp_path / "base").mkdir()
        _write_trio(tmp_path / "cur")
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert report.ok
        assert len(report.skipped) == len(GATED_BENCHES)

    def test_disappeared_metric_fails(self, tmp_path):
        base = {"bench": "DATAPATH",
                "rows": [["direct", 1.0, 1000.0], ["server_e2e", 1.0, 900.0]]}
        cur = {"bench": "DATAPATH", "rows": [["direct", 1.0, 1000.0]]}
        report = compare_docs(base, cur, Tolerances())
        assert not report.ok
        assert {f.metric for f in report.failures} == {
            "copies_per_byte[server_e2e]", "mb_per_s[server_e2e]"
        }

    def test_unknown_bench_extracts_nothing(self):
        assert extract_metrics({"bench": "NOPE", "rows": [[1, 2]]}) == []

    def test_cli_exits_nonzero_on_injected_regression(self, tmp_path):
        _write_trio(tmp_path / "base", mbps=1000.0)
        _write_trio(tmp_path / "cur", mbps=100.0)  # synthetic collapse
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = lambda cur: subprocess.run(  # noqa: E731
            [sys.executable, str(ROOT / "benchmarks" / "regress.py"),
             "--baseline", str(tmp_path / "base"), "--current", str(cur)],
            env=env, capture_output=True, text=True,
        )
        bad = run(tmp_path / "cur")
        assert bad.returncode != 0
        assert "FAIL" in bad.stdout and "mb_per_s" in bad.stdout
        good = run(tmp_path / "base")
        assert good.returncode == 0, good.stdout + good.stderr
        assert "PASS" in good.stdout
