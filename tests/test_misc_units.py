"""Unit tests for the smaller supporting modules.

Covers pieces that otherwise only get incidental coverage: buddy space
usage metrics, geometry presets, log record descriptions, the report
renderer, threshold run-finding, and config validation.
"""

import pytest

from repro.buddy import BuddySpace, internal_waste_pages, space_usage
from repro.bench.reporting import ExperimentReport
from repro.core.config import EOSConfig
from repro.core.node import Entry
from repro.core.threshold import ThresholdPolicy, find_unsafe_runs
from repro.recovery.log import LogRecord, OpKind
from repro.storage.geometry import DISK_1992, MODERN_HDD, MODERN_SSD
from repro.storage.iostats import IOSnapshot


class TestSpaceUsage:
    def test_fresh_space(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        usage = space_usage(space)
        assert usage.capacity == 16
        assert usage.free_pages == 16
        assert usage.allocated_pages == 0
        assert usage.largest_free == 16
        assert usage.fill_ratio == 0.0
        assert usage.external_fragmentation == 0.0

    def test_fragmented_space(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        a = space.allocate(4)
        space.allocate(4)
        space.free(a, 4)  # hole: free space split into two runs
        usage = space_usage(space)
        assert usage.free_pages == 12
        assert usage.allocated_pages == 4
        assert usage.largest_free == 8
        assert 0.0 < usage.external_fragmentation < 1.0

    def test_full_space(self):
        space = BuddySpace.create(page_size=128, capacity=16)
        space.allocate(16)
        usage = space_usage(space)
        assert usage.fill_ratio == 1.0
        assert usage.external_fragmentation == 0.0  # vacuous: nothing free

    def test_internal_waste(self):
        assert internal_waste_pages(11, 11) == 0
        assert internal_waste_pages(11, 16) == 5
        with pytest.raises(ValueError):
            internal_waste_pages(11, 10)


class TestGeometryPresets:
    def test_presets_are_ordered_by_era(self):
        assert DISK_1992.seek_ms > MODERN_HDD.seek_ms > MODERN_SSD.seek_ms
        assert DISK_1992.transfer_ms(4096) > MODERN_HDD.transfer_ms(4096)

    def test_seek_equivalents(self):
        # The paper-era disk: a seek costs ~12 page transfers at 4 KB.
        assert 8 < DISK_1992.seek_equivalent_pages(4096) < 16
        # Modern HDD: hundreds.
        assert MODERN_HDD.seek_equivalent_pages(4096) > 100
        # SSD: single digits.
        assert MODERN_SSD.seek_equivalent_pages(4096) < 4

    def test_snapshot_subtraction(self):
        a = IOSnapshot(seeks=5, page_reads=10, page_writes=3)
        b = IOSnapshot(seeks=2, page_reads=4, page_writes=1)
        d = a - b
        assert (d.seeks, d.page_reads, d.page_writes) == (3, 6, 2)
        assert d.page_transfers == 8

    def test_delta_transfers(self):
        d = IOSnapshot(page_reads=4, page_writes=2)
        assert d.page_transfers == 6


class TestLogRecordDescriptions:
    def test_inverse_descriptions(self):
        r = LogRecord(1, 1, OpKind.INSERT, offset=10, data=b"abc")
        assert "delete 3 bytes at 10" in r.inverse_description()
        r = LogRecord(2, 1, OpKind.DELETE, offset=5, data=b"xy")
        assert "re-insert 2 bytes" in r.inverse_description()
        r = LogRecord(3, 1, OpKind.REPLACE, offset=0, data=b"n", old_data=b"o")
        assert "restore 1 bytes" in r.inverse_description()
        r = LogRecord(4, 1, OpKind.COMMIT)
        assert r.inverse_description() == "nothing"


class TestExperimentReport:
    def test_render_and_emit(self, tmp_path):
        report = ExperimentReport("T1", "A test table", ["a", "b"], page_size=512)
        report.add_row([1, 2])
        report.note("a footnote")
        text = report.emit(directory=str(tmp_path))
        assert "[T1] A test table" in text
        assert "a footnote" in text
        assert (tmp_path / "t1.txt").read_text().startswith("[T1]")

    def test_cost_ms_uses_geometry(self):
        report = ExperimentReport("T2", "t", ["x"], page_size=4096)
        delta = IOSnapshot(seeks=2, page_reads=3)
        assert report.cost_ms(delta) == pytest.approx(2 * 16.0 + 3 * 1.33)

    def test_emit_writes_bench_json_artifact(self, tmp_path):
        from repro.bench.jsonout import bench_json_path, load_bench_json

        report = ExperimentReport("T3", "json artifact", ["n", "ms"], page_size=512)
        report.set_params(object_bytes=4096, mode="unit")
        report.add_row([1, 2.5])
        report.add_row([2, 3.75])
        report.note("a footnote")
        report.set_io(seeks=11, page_transfers=16)
        report.emit(directory=str(tmp_path))
        doc = load_bench_json(bench_json_path(tmp_path, "T3"))
        assert doc["schema"] == "eos-bench-v1"
        assert doc["bench"] == "T3"
        assert doc["columns"] == ["n", "ms"]
        # Raw values survive (the text table formats, the JSON does not).
        assert doc["rows"] == [[1, 2.5], [2, 3.75]]
        assert doc["params"]["object_bytes"] == 4096
        assert doc["params"]["page_size"] == 512
        assert doc["io"] == {"seeks": 11, "page_transfers": 16}
        assert doc["wall_ms"] > 0
        assert doc["notes"] == ["a footnote"]

    def test_bench_json_io_from_live_stats_source(self, tmp_path):
        from repro import EOSDatabase
        from repro.bench.jsonout import bench_json_path, load_bench_json

        db = EOSDatabase.create(num_pages=256, page_size=512)
        try:
            db.create_object(b"x" * 4096)
            report = ExperimentReport("T4", "io capture", ["x"], page_size=512)
            report.attach_stats(db)
            report.add_row([1])
            report.emit(directory=str(tmp_path))
        finally:
            db.close()
        doc = load_bench_json(bench_json_path(tmp_path, "T4"))
        assert doc["io"]["seeks"] > 0
        assert doc["io"]["page_transfers"] > 0

    def test_load_bench_json_rejects_wrong_schema(self, tmp_path):
        import json

        from repro.bench.jsonout import load_bench_json

        path = tmp_path / "BENCH_X.json"
        path.write_text(json.dumps({"schema": "other-v9"}))
        with pytest.raises(ValueError, match="unexpected schema"):
            load_bench_json(path)


class TestThresholdPolicy:
    def test_fixed_ignores_fill(self):
        policy = ThresholdPolicy(base=8, adaptive=False)
        assert policy.effective(0.99) == 8

    def test_adaptive_scales_with_fill(self):
        policy = ThresholdPolicy(base=8, adaptive=True)
        assert policy.effective(0.5) == 8
        assert policy.effective(0.8) == 16
        assert policy.effective(0.99) == 32

    def test_find_unsafe_runs(self):
        entries = [
            Entry(1000, 0, 10),  # safe (10 pages at PS=100)
            Entry(150, 1, 2),    # unsafe
            Entry(250, 2, 3),    # unsafe
            Entry(900, 3, 9),    # safe
            Entry(50, 4, 1),     # unsafe but alone -> no run
        ]
        runs = find_unsafe_runs(entries, threshold=8, page_size=100)
        assert runs == [(1, 3)]

    def test_no_runs_when_all_safe(self):
        entries = [Entry(1000, i, 10) for i in range(4)]
        assert find_unsafe_runs(entries, threshold=8, page_size=100) == []


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EOSConfig(page_size=8)
        with pytest.raises(ValueError):
            EOSConfig(threshold=0)

    def test_frozen(self):
        config = EOSConfig()
        with pytest.raises(Exception):
            config.threshold = 4  # type: ignore[misc]
