"""Online compaction: cost model, pacing, engine, daemon, wire, fsck.

The compactor's contract is behavioural — relocations must preserve
every byte, obey the T-threshold and buddy invariants, leave versioned
snapshots readable mid-pass, and honour its stop conditions — so the
unit tests here pin the policy/pacing pieces with synthetic inputs and
the engine/daemon/wire pieces against real aged volumes, and a
Hypothesis property test churns random volumes through
:class:`~repro.workloads.aging.AgingWorkload` with all sanitizers on.
"""

import threading
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EOSDatabase
from repro.compact import (
    BackpressureGuard,
    Compactor,
    RateLimiter,
    compact_pass,
    plan_victims,
    relocate_object,
)
from repro.compact.policy import plan_evacuation
from repro.core.config import EOSConfig
from repro.errors import OutOfSpace
from repro.obs.health import (
    HeatTracker,
    ObjectLayout,
    SpaceHealth,
    collect_volume_health,
)
from repro.server import EOSClient, ServerThread, ShardSet
from repro.server import protocol
from repro.tools.fsck import fsck
from repro.workloads.aging import AgingWorkload

PAGE = 512


def make_db(num_pages=4096, *, threshold=4, versioning=False, retain=4,
            space_capacity=None):
    config = EOSConfig(
        page_size=PAGE, threshold=threshold,
        versioning=versioning, version_retain=retain,
    )
    return EOSDatabase.create(
        num_pages=num_pages, page_size=PAGE, config=config,
        space_capacity=space_capacity,
    )


def fragment_object(db, n_chunks=8, chunk=3 * PAGE):
    """One object whose extents are interleaved with freed neighbours."""
    holes = []
    target = db.create_object()
    for i in range(n_chunks):
        target.append(bytes([i % 251]) * chunk)
        spacer = db.create_object()
        spacer.append(b"x" * chunk)
        holes.append(spacer)
    for spacer in holes:
        db.delete_object(spacer.oid)
    return target


def layout(oid, *, seeks=100.0, runs=4, pages=2048, home=0, size=None,
           spaces=None):
    # Defaults describe a 1 MiB object, so ``seeks`` compares directly
    # against the ideal of ceil(pages / max_segment_pages) runs per MiB.
    return ObjectLayout(
        oid=oid,
        size_bytes=size if size is not None else 1 << 20,
        extents=runs,
        runs=runs,
        leaf_pages=pages,
        contiguity=0.0,
        est_seeks_per_mb=seeks,
        home_space=home,
        spaces=spaces if spaces is not None else (home,),
    )


def space(index, *, capacity=1024, free=512, largest=64):
    return SpaceHealth(
        index=index, capacity=capacity, free_pages=free,
        free_extent_count=4, largest_free_extent=largest,
        free_extent_histogram={},
    )


def fake_health(objects, spaces, largest=64):
    return SimpleNamespace(
        objects=objects, spaces=spaces, largest_free_extent=largest
    )


class FakeHeat:
    def __init__(self, temps):
        self._temps = temps

    def snapshot(self):
        return dict(self._temps)


# ---------------------------------------------------------------------------
# Policy: victim selection and evacuation planning
# ---------------------------------------------------------------------------


class TestPlanVictims:
    def test_contiguous_objects_never_selected(self):
        health = fake_health(
            [layout(1, seeks=50.0, runs=4), layout(2, seeks=0.0, runs=1)],
            [space(0)],
        )
        victims = plan_victims(health, max_segment_pages=64)
        assert [v.oid for v in victims] == [1]

    def test_min_seeks_filter(self):
        # An object already near its ideal layout saves ~nothing: the
        # ideal for 2048 pages at 64-page segments is 32 runs/MiB, so
        # 32.2 measured saves only 0.2 — under the 0.5 floor.
        near_ideal = layout(3, seeks=32.2, runs=33)
        health = fake_health([near_ideal], [space(0)])
        assert plan_victims(health, max_segment_pages=64) == []

    def test_heat_raises_priority(self):
        a = layout(1, seeks=50.0)
        b = layout(2, seeks=50.0)
        health = fake_health([a, b], [space(0)])
        # The same temperature from a stub and from a real tracker whose
        # six reads have decayed through one half-life to three.
        now = [0.0]
        tracker = HeatTracker(half_life_s=10.0, clock=lambda: now[0])
        for _ in range(6):
            tracker.touch(2)
        now[0] = 10.0
        scores = []
        for heat in (FakeHeat({2: (3.0, 0.0)}), tracker):
            victims = plan_victims(health, max_segment_pages=64, heat=heat)
            assert [v.oid for v in victims] == [2, 1]
            assert victims[0].score > victims[1].score
            scores.append([v.score for v in victims])
        assert scores[1] == pytest.approx(scores[0])

    def test_cold_home_space_breaks_ties(self):
        # Same score; oid 2's home space carries the heat, so oid 1
        # (cold space) is relocated first.
        a = layout(1, seeks=50.0, home=0)
        b = layout(2, seeks=50.0, home=1)
        hot_b = FakeHeat({3: (9.0, 0.0)})
        bystander = layout(3, seeks=0.0, runs=1, home=1)
        health = fake_health([a, b, bystander], [space(0), space(1)])
        victims = plan_victims(health, max_segment_pages=64, heat=hot_b)
        assert [v.oid for v in victims] == [1, 2]

    def test_deterministic_order(self):
        objs = [layout(i, seeks=50.0) for i in range(6)]
        health = fake_health(objs, [space(0)])
        first = plan_victims(health, max_segment_pages=64)
        second = plan_victims(health, max_segment_pages=64)
        assert [v.oid for v in first] == [v.oid for v in second]


class TestPlanEvacuation:
    def test_single_space_volume_never_evacuates(self):
        health = fake_health([layout(1)], [space(0)])
        assert plan_evacuation(health) == (None, [])

    def test_empty_snapshot_never_evacuates(self):
        health = fake_health([], [space(0), space(1)])
        assert plan_evacuation(health) == (None, [])

    def test_picks_cheapest_cold_space(self):
        # Space 0 has fewer live pages; both beat the current largest.
        spaces = [
            space(0, capacity=1024, free=1000),
            space(1, capacity=1024, free=200),
        ]
        objs = [
            layout(1, pages=24, home=0, spaces=(0,)),
            layout(2, pages=800, home=1, spaces=(1,)),
        ]
        index, victims = plan_evacuation(fake_health(objs, spaces, largest=64))
        assert index == 0
        assert [v.oid for v in victims] == [1]

    def test_skips_spaces_not_beating_current_largest(self):
        spaces = [space(0, capacity=64), space(1, capacity=64)]
        health = fake_health([layout(1, home=0)], spaces, largest=64)
        assert plan_evacuation(health) == (None, [])

    def test_skips_live_but_unsampled_spaces(self):
        # Space 0 has live pages no sampled object accounts for:
        # evacuation cannot reach them, so it must not be chosen.
        spaces = [
            space(0, capacity=1024, free=1000),
            space(1, capacity=1024, free=100),
        ]
        objs = [layout(2, pages=900, home=1, spaces=(1,))]
        index, victims = plan_evacuation(fake_health(objs, spaces, largest=8))
        assert index == 1
        assert [v.oid for v in victims] == [2]


# ---------------------------------------------------------------------------
# Pacing and backpressure
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, s):
        self.slept.append(s)
        self.now += s


class TestRateLimiter:
    def test_within_budget_never_sleeps(self):
        clock = FakeClock()
        limiter = RateLimiter(100.0, clock=clock, sleep=clock.sleep)
        assert limiter.charge(50) == 0.0
        assert clock.slept == []

    def test_overdraft_sleeps_proportionally(self):
        clock = FakeClock()
        limiter = RateLimiter(100.0, clock=clock, sleep=clock.sleep)
        limiter.charge(100)  # drains the bucket
        waited = limiter.charge(50)
        assert waited == pytest.approx(0.5)
        assert limiter.slept_s == pytest.approx(0.5)

    def test_bucket_caps_at_one_second(self):
        clock = FakeClock()
        limiter = RateLimiter(100.0, clock=clock, sleep=clock.sleep)
        clock.now += 60.0  # a long idle period banks no extra burst
        limiter.charge(100)
        assert limiter.charge(100) == pytest.approx(1.0)

    def test_disabled_limiter_is_free(self):
        clock = FakeClock()
        limiter = RateLimiter(0.0, clock=clock, sleep=clock.sleep)
        assert limiter.charge(10_000) == 0.0
        assert clock.slept == []


class TestBackpressureGuard:
    def test_no_server_never_pauses(self):
        assert BackpressureGuard(None).overloaded() is None

    def test_inflight_depth_pauses(self):
        server = SimpleNamespace(inflight=9, max_inflight=10)
        guard = BackpressureGuard(server)
        reason = guard.overloaded()
        assert reason is not None and "inflight" in reason
        assert guard.pauses == 1

    def test_p99_spike_pauses(self):
        histogram = mock.Mock()
        histogram.percentile.return_value = 2.0
        server = SimpleNamespace(
            inflight=0, max_inflight=10,
            obs=SimpleNamespace(metrics=mock.Mock(
                histogram=mock.Mock(return_value=histogram)
            )),
        )
        guard = BackpressureGuard(server, min_p99_ms=1.0)
        assert guard.overloaded() is None  # 2.0ms becomes the baseline
        histogram.percentile.return_value = 50.0
        reason = guard.overloaded()
        assert reason is not None and "p99" in reason


# ---------------------------------------------------------------------------
# Engine: relocation and the pass
# ---------------------------------------------------------------------------


class TestRelocation:
    def test_preserves_bytes_and_coalesces_runs(self):
        db = make_db()
        obj = fragment_object(db)
        before = obj.read_all()
        runs_before = len(obj.extent_runs())
        assert runs_before > 1
        move = relocate_object(db, obj.oid)
        assert db.get_object(obj.oid).read_all() == before
        assert move.runs_after < runs_before
        assert move.pages_written > 0
        db.verify()

    def test_empty_object_is_a_noop(self):
        db = make_db()
        obj = db.create_object()
        move = relocate_object(db, obj.oid)
        assert move.pages_written == 0 and move.pages_read == 0

    def test_versioned_snapshot_survives_relocation(self):
        db = make_db(versioning=True)
        oid = db.op_create(b"A" * (6 * PAGE))
        db.op_append(oid, b"B" * (6 * PAGE))
        versions = db.versions.versions(oid)
        old = versions[-2].version
        frozen = db.op_read(oid, offset=0, length=6 * PAGE, version=old)
        relocate_object(db, oid)
        assert db.op_read(oid, offset=0, length=6 * PAGE, version=old) == frozen
        assert db.op_read(
            oid, offset=0, length=12 * PAGE
        ) == b"A" * (6 * PAGE) + b"B" * (6 * PAGE)
        db.verify()


class TestRootTravelsWithTheData:
    """An unversioned relocation carries the root along, so it stays on
    the page in front of the first segment, as a create placed it."""

    @staticmethod
    def spaces_of_runs(db, obj):
        return {db.buddy.space_of(first) for first, _ in obj.extent_runs()}

    def test_root_lands_in_front_of_the_new_first_segment(self):
        db = make_db()
        obj = fragment_object(db)
        data, old_root = obj.read_all(), obj.root_page
        move = relocate_object(db, obj.oid)
        assert not move.fallback and move.runs_after == 1
        assert obj.root_page != old_root
        assert obj.root_page == obj.segments()[0][1].child - 1
        assert db.get_object(obj.oid).read_all() == data
        check = fsck(db, expect_no_leaks=True)
        assert check.clean, check.summary()

    def test_fallback_moves_the_root_out_of_the_avoided_space(self, monkeypatch):
        db = make_db(1024, space_capacity=256)
        obj = fragment_object(db)
        data, home = obj.read_all(), db.buddy.space_of(obj.root_page)
        assert self.spaces_of_runs(db, obj) == {home}
        allocate = db.buddy.allocate

        def single_pages_only(n_pages, **kwargs):
            if n_pages > 1:
                raise OutOfSpace(n_pages)
            return allocate(n_pages, **kwargs)

        monkeypatch.setattr(db.buddy, "allocate", single_pages_only)
        move = relocate_object(db, obj.oid, avoid_space=home)
        monkeypatch.undo()
        assert move.fallback
        assert db.buddy.space_of(obj.root_page) != home
        assert home not in self.spaces_of_runs(db, obj)
        assert obj.read_all() == data
        check = fsck(db, expect_no_leaks=True)
        assert check.clean, check.summary()

    def test_evacuation_empties_a_space_whose_only_occupant_is_a_root(self):
        db = make_db(600, space_capacity=256)
        assert db.volume.n_spaces == 2
        obj = db.create_object(size_hint=10 * PAGE)  # the root alone
        assert db.buddy.space_of(obj.root_page) == 0
        # Fill the rest of space 0 so the data lands in space 1.
        held = [db.buddy.allocate(1 << k) for k in range(7, -1, -1)]
        assert {db.buddy.space_of(ref.first_page) for ref in held} == {0}
        obj.append(bytes(range(256)) * 20)
        for ref in held:
            db.buddy.free_segment(ref)
        data = obj.read_all()
        assert self.spaces_of_runs(db, obj) == {1}
        assert collect_volume_health(db).objects[0].spaces == (0, 1)

        report = compact_pass(db)
        assert report.evacuated_space == 0
        assert db.buddy.space_of(obj.root_page) == 1
        assert obj.root_page == obj.segments()[0][1].child - 1
        emptied = collect_volume_health(db).spaces[0]
        assert emptied.free_pages == emptied.capacity
        assert obj.read_all() == data
        check = fsck(db, expect_no_leaks=True)
        assert check.clean, check.summary()


class TestCompactPass:
    def aged(self, *, versioning=False):
        db = make_db(
            8192, versioning=versioning,
            space_capacity=1024 if not versioning else None,
        )
        workload = AgingWorkload(
            db, mix="small", seed=5, target_utilization=0.55
        )
        workload.build()
        for _ in range(3):
            workload.run_epoch(80)
        return db, workload

    def test_report_accounting_and_fsck_clean(self):
        db, workload = self.aged()
        before = {
            oid: db.get_object(oid).read_all() for oid in workload.live_oids()
        }
        report = compact_pass(db)
        assert report.stopped == "done"
        assert report.objects_moved == len(report.moves) or len(report.moves) > 0
        assert report.pages_moved == sum(m.pages_written for m in report.moves)
        assert report.frag_after <= report.frag_before
        doc = report.to_doc()
        assert doc["stopped"] == "done"
        assert doc["frag_delta"] == round(report.frag_delta, 4)
        for oid, data in before.items():
            assert db.get_object(oid).read_all() == data
        db.verify()
        check = fsck(db)
        assert check.clean, check.summary()

    def test_max_pages_stops_early(self):
        db, _ = self.aged()
        report = compact_pass(db, max_pages=1)
        assert report.stopped == "max_pages"
        assert report.objects_moved <= 1

    def test_target_frag_already_met_moves_nothing(self):
        db = make_db()
        fragment_object(db)
        # frag_index can never exceed 1.0, so the goal is met before
        # the first relocation: the pass stops without moving anything.
        report = compact_pass(db, target_frag=1.0)
        assert report.stopped == "target_frag"
        assert report.objects_moved == 0

    def test_versioned_pass_keeps_snapshots(self):
        db, workload = self.aged(versioning=True)
        oid = sorted(workload.live_oids())[0]
        record = db.versions.versions(oid)[-1]
        length = min(record.size_bytes, 4 * PAGE)
        frozen = db.op_read(oid, offset=0, length=length, version=record.version)
        report = compact_pass(db)
        assert report.stopped == "done"
        assert db.op_read(
            oid, offset=0, length=length, version=record.version
        ) == frozen
        check = fsck(db)
        assert check.clean, check.summary()


# ---------------------------------------------------------------------------
# fsck: the compaction cross-check actually fires
# ---------------------------------------------------------------------------


class TestFsckLayoutCrossCheck:
    def test_detects_collector_ledger_divergence(self):
        db = make_db()
        obj = fragment_object(db)
        relocate_object(db, obj.oid)
        # Free one of the object's pages behind the ledger's back: the
        # page ledger flags the claim of a free page AND the layout
        # cross-check flags the extent as missing from the buddy map.
        first, _pages = obj.extent_runs()[0]
        db.buddy.free(first, 1)
        report = fsck(db)
        assert not report.clean
        assert report.claims_of_free_pages
        assert any("not in the buddy allocation map" in d
                   for d in report.layout_disagreements)


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------


class TestCompactor:
    def test_run_once_unserved(self):
        db = make_db()
        fragment_object(db)
        compactor = Compactor(db, target_frag=None)
        docs = compactor.run_once()
        assert len(docs) == 1
        assert docs[0]["objects_moved"] >= 1
        status = compactor.status_doc()
        assert status["runs"] == 1
        assert status["running"] is False

    def test_loop_skips_when_overloaded(self):
        db = make_db()
        guard = mock.Mock()
        guard.overloaded.return_value = "inflight 9/10"
        guard.pauses = 0
        compactor = Compactor(db, guard=guard, interval_s=0.01)
        compactor.start()
        try:
            deadline = threading.Event()
            deadline.wait(0.2)
            assert compactor.status_doc()["paused_ticks"] >= 1
            assert compactor.status_doc()["runs"] == 0
        finally:
            compactor.stop()


# ---------------------------------------------------------------------------
# Wire protocol and server
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_compact_req_roundtrip(self):
        payload = protocol.pack_compact_req(0.25, 100)
        assert protocol.unpack_compact_req(payload) == (0.25, 100)

    def test_unset_fields_are_none(self):
        payload = protocol.pack_compact_req(None, None)
        assert protocol.unpack_compact_req(payload) == (None, None)

    def test_compact_is_a_write_op(self):
        assert protocol.Opcode.COMPACT in protocol.WRITE_OPCODES

    def test_short_payload_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_compact_req(b"\x00")


class TestServedCompaction:
    def test_compact_over_the_wire(self):
        db = make_db()
        fragment_object(db)
        with ServerThread(db, port=0) as srv:
            with EOSClient(port=srv.port, timeout=60.0) as c:
                docs = c.compact()
        assert len(docs) == 1
        assert docs[0]["objects_moved"] >= 1
        db.verify()
        db.close()

    def test_sharded_compact_reports_per_shard(self):
        ss = ShardSet.create(2, 4096, PAGE)
        try:
            with ServerThread(shards=ss, port=0) as srv:
                with EOSClient(port=srv.port, timeout=60.0) as c:
                    for _ in range(8):
                        c.op_create(b"y" * (2 * PAGE))
                    docs = c.compact()
            assert {doc["shard"] for doc in docs} == {0, 1}
            assert all(doc["stopped"] == "done" for doc in docs)
        finally:
            ss.close()


# ---------------------------------------------------------------------------
# Hypothesis: compaction preserves content and invariants on random
# aged volumes, with every sanitizer on
# ---------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mix=st.sampled_from(["small", "mixed"]),
    epochs=st.integers(1, 3),
)
def test_compaction_preserves_random_aged_volumes(seed, mix, epochs):
    with mock.patch.dict("os.environ", {"EOS_SANITIZE": "all"}):
        config = EOSConfig(page_size=4096, threshold=8)
        db = EOSDatabase.create(
            num_pages=4096, page_size=4096, config=config, space_capacity=1024
        )
        workload = AgingWorkload(
            db, mix=mix, seed=seed, target_utilization=0.5
        )
        workload.build()
        for _ in range(epochs):
            workload.run_epoch(60)
        before = {
            oid: db.get_object(oid).read_all() for oid in workload.live_oids()
        }
        report = compact_pass(db)
        assert report.stopped == "done"
        for oid, data in before.items():
            assert db.get_object(oid).read_all() == data
        db.verify()
        check = fsck(db)
        assert check.clean, check.summary()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_versioned_snapshots_stable_under_random_compaction(seed):
    with mock.patch.dict("os.environ", {"EOS_SANITIZE": "all"}):
        config = EOSConfig(
            page_size=4096, threshold=8, versioning=True, version_retain=3
        )
        db = EOSDatabase.create(num_pages=4096, page_size=4096, config=config)
        workload = AgingWorkload(
            db, mix="small", seed=seed, target_utilization=0.4
        )
        workload.build()
        workload.run_epoch(40)
        # Pin the newest version of every survivor before the pass; a
        # CoW relocation must leave those frozen trees byte-identical.
        frozen = {}
        for oid in workload.live_oids():
            record = db.versions.versions(oid)[-1]
            frozen[oid] = (
                record.version,
                db.op_read(
                    oid, offset=0, length=record.size_bytes,
                    version=record.version,
                ),
            )
        report = compact_pass(db)
        assert report.stopped == "done"
        for oid, (version, data) in frozen.items():
            assert db.op_read(
                oid, offset=0, length=len(data), version=version
            ) == data
        db.verify()
        check = fsck(db)
        assert check.clean, check.summary()
