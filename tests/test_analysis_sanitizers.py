"""Tests for the runtime sanitizers (pin-leak, lock-order, buddy-invariant)
and the buffer-pool additions that support them."""

import pytest

from repro.analysis.buddycheck import check_manager, check_scan_hints, check_space
from repro.analysis.lockorder import LockOrderSanitizer
from repro.analysis.pinleak import PinLeakSanitizer
from repro.analysis.sanitize import ENV_VAR, SanitizerSettings, sanitizers_from_env
from repro.api import EOSDatabase
from repro.buddy import BuddyManager
from repro.buddy.space import BuddySpace
from repro.concurrency.locks import LockManager, LockMode
from repro.core.config import EOSConfig
from repro.errors import InvariantViolation, LockOrderViolation, PinLeak
from repro.recovery.transaction import RecoveryManager
from repro.storage import DiskVolume, Volume
from repro.storage.buffer import BufferPool
from repro.tools.fsck import fsck


def make_manager(n_spaces=1, capacity=16, page_size=128, **kwargs):
    disk = DiskVolume(num_pages=1 + n_spaces * (1 + capacity), page_size=page_size)
    volume = Volume.format(disk, n_spaces=n_spaces, space_capacity=capacity)
    return BuddyManager.format(volume, **kwargs)


def unmerge_free_buddies(space):
    """Corrupt a space: leave two free size-1 buddies uncoalesced.

    This is exactly the state a free path that skipped its XOR merge
    would leave behind; the checker reports the uncoalesced pair.
    """
    start = space.allocate(2)
    assert start is not None and start % 2 == 0
    space.amap.set_segment(start, 1, allocated=False)
    space.amap.set_segment(start + 1, 1, allocated=False)
    space.counts[0] += 2


class TestPinLeakSanitizer:
    def test_leaked_pin_is_reported_with_origin(self):
        db = EOSDatabase.create(64, page_size=256)
        db.pool.attach_pin_sanitizer()
        db.pool.fetch(0)  # deliberately never unpinned
        with pytest.raises(PinLeak) as excinfo:
            db.close()
        message = str(excinfo.value)
        assert "1 leaked buffer-pool pin(s)" in message
        assert "page 0 pinned at:" in message
        # The origin stack names the function that took the pin.
        assert "test_leaked_pin_is_reported_with_origin" in message
        db.pool.unpin(0)
        db.close()

    def test_balanced_pins_close_clean(self):
        db = EOSDatabase.create(64, page_size=256)
        db.pool.attach_pin_sanitizer()
        oid = db.op_create(b"x" * 1000)
        assert db.op_read(oid, offset=0, length=1000) == b"x" * 1000
        db.close()  # no leaks: every fetch was paired

    def test_lifo_accounting_of_nested_pins(self):
        sanitizer = PinLeakSanitizer()
        sanitizer.record_pin(7)
        sanitizer.record_pin(7)
        sanitizer.record_unpin(7)
        assert len(sanitizer.leaks()) == 1
        sanitizer.record_unpin(7)
        assert sanitizer.leaks() == []
        assert sanitizer.report() == ""
        sanitizer.assert_no_leaks()

    def test_reset_forgets_everything(self):
        sanitizer = PinLeakSanitizer()
        sanitizer.record_pin(3)
        sanitizer.reset()
        sanitizer.assert_no_leaks()


class TestDecodedFormCoherence:
    """With the pin sanitizer attached, every hit on a frame's decoded
    form is re-derived from the image and compared."""

    def make(self, **config):
        db = EOSDatabase.create(
            64, page_size=256, config=EOSConfig(page_size=256, **config)
        )
        oid = db.op_create(b"x" * 1000)
        obj = db.get_object(oid)
        assert obj.size() == 1000  # the root's decoded form is resident
        return db, obj

    def scribble(self, db, obj):
        """The seeded bug: change a resident image without a pin."""
        frame = db.pool._frames[obj.root_page]
        assert frame.decoded is not None
        bent = obj.tree.read_root()
        bent.entries[0].count += 1
        frame.image[:] = bent.to_page(256)

    def test_stale_decoded_form_is_caught(self):
        db, obj = self.make(sanitize_pins=True)
        self.scribble(db, obj)
        with pytest.raises(InvariantViolation) as excinfo:
            obj.size()
        assert f"page {obj.root_page}" in str(excinfo.value)

    def test_attached_later_checks_too(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        db, obj = self.make()
        assert db.pool.pin_sanitizer is None
        db.pool.attach_pin_sanitizer()
        self.scribble(db, obj)
        with pytest.raises(InvariantViolation):
            obj.read(0, 10)

    def test_unsanitized_pool_trusts_the_frame(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        db, obj = self.make()
        self.scribble(db, obj)
        assert obj.size() == 1000  # exactly the bug the sanitizer exists for

    def test_legitimate_writes_stay_silent(self):
        db, obj = self.make(sanitize_pins=True)
        obj.insert(500, b"y" * 300)
        obj.append(b"z" * 2000)
        obj.delete(0, 100)
        assert obj.size() == 3200
        obj.verify()
        db.close()


class TestLockOrderSanitizer:
    def test_opposite_order_raises_cycle(self):
        locks = LockManager()
        locks.attach_order_sanitizer()
        locks.acquire_root(1, 10, LockMode.S)
        locks.acquire_root(1, 20, LockMode.S)
        locks.release_all(1)
        locks.acquire_root(2, 20, LockMode.S)
        with pytest.raises(LockOrderViolation) as excinfo:
            locks.acquire_root(2, 10, LockMode.S)
        message = str(excinfo.value)
        assert "lock-order cycle" in message
        assert "('object', 10)" in message and "('object', 20)" in message

    def test_consistent_order_is_clean(self):
        locks = LockManager()
        sanitizer = locks.attach_order_sanitizer()
        locks.acquire_root(1, 10, LockMode.S)
        locks.acquire_root(1, 20, LockMode.S)
        locks.release_all(1)
        locks.acquire_root(2, 10, LockMode.S)
        locks.acquire_root(2, 20, LockMode.S)
        locks.release_all(2)
        sanitizer.assert_no_cycles()

    def test_record_mode_collects_instead_of_raising(self):
        sanitizer = LockOrderSanitizer(mode="record")
        sanitizer.record_acquire(1, ("a",))
        sanitizer.record_acquire(1, ("b",))
        sanitizer.record_release_all(1)
        sanitizer.record_acquire(2, ("b",))
        sanitizer.record_acquire(2, ("a",))
        assert len(sanitizer.cycles) == 1
        assert "1 lock-order cycle(s)" in sanitizer.report()
        with pytest.raises(LockOrderViolation):
            sanitizer.assert_no_cycles()

    def test_range_locks_share_the_object_key(self):
        locks = LockManager()
        sanitizer = locks.attach_order_sanitizer()
        # Many ranges of one object are one resource: no self-edges.
        locks.acquire_range(1, 10, 0, 100, LockMode.S)
        locks.acquire_range(1, 10, 200, 300, LockMode.S)
        locks.release_all(1)
        assert sanitizer.edges() == {}

    def test_segment_release_locks_recorded(self):
        locks = LockManager()
        sanitizer = locks.attach_order_sanitizer()
        locks.acquire_root(1, 10, LockMode.X)
        locks.acquire_release_lock(1, 0, 4, 16)
        assert sanitizer.edges() == {("object", 10): {("segments",)}}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            LockOrderSanitizer(mode="explode")


class TestBuddyInvariantSanitizer:
    def test_unmerged_free_buddies_detected(self):
        space = BuddySpace.create(128, 16)
        unmerge_free_buddies(space)
        check = check_space(space)
        assert not check.ok
        assert "coalesced" in check.problems[0]

    def test_consistent_space_is_clean(self):
        space = BuddySpace.create(128, 16)
        space.allocate(4)
        check = check_space(space)
        assert check.ok and check.segments is not None

    def test_manager_raises_after_operation_on_corrupt_space(self):
        manager = make_manager()
        manager.attach_invariant_sanitizer()
        space = manager.load_space(0)
        unmerge_free_buddies(space)
        manager.store_space(0, space)
        with pytest.raises(InvariantViolation) as excinfo:
            manager.allocate(4)
        # The corruption round-trips through the map encoding as a
        # count/map disagreement; either way the checker trips.
        assert "after allocate" in str(excinfo.value)
        assert "disagrees" in str(excinfo.value)

    def test_count_map_disagreement_detected(self):
        manager = make_manager()
        manager.attach_invariant_sanitizer()
        space = manager.load_space(0)
        space.counts[0] += 1  # accounting lie: map unchanged
        manager.store_space(0, space)
        with pytest.raises(InvariantViolation):
            manager.allocate(4)

    def test_clean_manager_operations_pass(self):
        manager = make_manager()
        manager.attach_invariant_sanitizer()
        ref = manager.allocate(8)
        manager.free_segment(ref)
        manager.verify()


class TestScanHintAndMirrorChecks:
    """The allocator's main-memory state (scan hints, the decoded
    directory) is checked the way the superdirectory is."""

    @staticmethod
    def fragmented_manager():
        manager = make_manager(capacity=64)
        refs = [manager.allocate(4) for _ in range(8)]
        manager.free_segment(refs[2])
        manager.free_segment(refs[5])
        return manager

    def test_valid_hints_pass(self):
        manager = self.fragmented_manager()
        decoded = manager.decoded_space(0)
        assert check_scan_hints(decoded, decoded.verify()) == []
        assert check_manager(manager) == []

    def test_hint_above_the_lowest_free_segment_is_reported(self):
        manager = self.fragmented_manager()
        decoded = manager.decoded_space(0)
        decoded.scan_hints[2] = 16      # the free type-2 at page 8 lies below
        problems = check_manager(manager)
        assert any("scan hint for type 2 is page 16" in p for p in problems)
        assert any("a scan from segment 0 finds page 8" in p for p in problems)

    def test_sanitizer_raises_on_a_bad_hint_before_it_can_move_data(self):
        manager = self.fragmented_manager()
        manager.attach_invariant_sanitizer()
        manager.decoded_space(0).scan_hints[2] = 16
        before = manager.load_space(0).to_page()
        with pytest.raises(InvariantViolation, match="scan hint"):
            manager.allocate(1)
        assert manager.load_space(0).to_page() == before
        assert manager.decoded_space(0) is None
        assert manager.allocate(4).first_page == 2 + 8   # first fit again

    def test_page_written_behind_the_managers_back(self):
        manager = self.fragmented_manager()
        # A second manager on the volume allocates, and its directory
        # image lands in this manager's frame behind its back.
        manager.write_dirty()  # the other manager must see the frees
        other = BuddyManager(manager.volume)
        other.allocate(4)
        other.write_dirty()
        page = manager.volume.spaces[0].directory_page
        with manager.pool.page(page) as image:
            image[:] = manager.volume.disk.peek(page)
        problems = check_manager(manager)
        assert len(problems) == 1 and "differs from the stored page" in problems[0]
        manager.attach_invariant_sanitizer()
        with pytest.raises(InvariantViolation, match="no longer matches its page"):
            manager.allocate(4)
        # The stale copy is gone; the manager carries on from the page.
        assert check_manager(manager) == []
        assert manager.allocate(4).first_page == 2 + 20

    def test_fsck_covers_the_decoded_directory(self):
        db = EOSDatabase.create(64, page_size=256)
        db.op_create(b"y" * 900)
        assert db.buddy.decoded_space(0) is not None
        assert fsck(db).clean
        decoded = db.buddy.decoded_space(0)
        free_type = decoded.max_free_type()
        decoded.scan_hints[free_type] = decoded.capacity
        report = fsck(db)
        assert not report.clean
        assert any(
            f"scan hint for type {free_type}" in error for error in report.errors
        )


class TestFsckSharesTheChecker:
    def test_fsck_reports_unmerged_buddies(self):
        db = EOSDatabase.create(64, page_size=256)
        space = db.buddy.load_space(0)
        unmerge_free_buddies(space)
        db.buddy.store_space(0, space)
        report = fsck(db)
        assert not report.clean
        assert any("disagrees" in error for error in report.errors)

    def test_fsck_clean_on_healthy_database(self):
        db = EOSDatabase.create(64, page_size=256)
        db.op_create(b"y" * 900)
        report = fsck(db)
        assert report.clean, report.summary()


class TestGating:
    def test_env_parsing(self):
        assert sanitizers_from_env("") == SanitizerSettings()
        assert sanitizers_from_env("all").any
        assert sanitizers_from_env("1") == SanitizerSettings(True, True, True)
        assert sanitizers_from_env("pins,buddy") == SanitizerSettings(
            pins=True, locks=False, buddy=True
        )
        # Typos never enable anything (nor crash).
        assert not sanitizers_from_env("pnis").any

    def test_env_var_enables_everywhere(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "all")
        db = EOSDatabase.create(64, page_size=256)
        assert db.pool.pin_sanitizer is not None
        assert db.buddy.check_invariants
        assert LockManager().order_sanitizer is not None
        db.close()

    def test_env_var_subset(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "locks")
        disk = DiskVolume(num_pages=8, page_size=128)
        assert BufferPool(disk).pin_sanitizer is None
        assert LockManager().order_sanitizer is not None

    def test_config_flags_enable_per_instance(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        config = EOSConfig(
            page_size=256, sanitize_pins=True, sanitize_locks=True,
            sanitize_buddy=True,
        )
        db = EOSDatabase.create(64, page_size=256, config=config)
        assert db.pool.pin_sanitizer is not None
        assert db.buddy.check_invariants
        assert RecoveryManager(db).locks.order_sanitizer is not None
        db.close()

    def test_default_is_everything_off(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        db = EOSDatabase.create(64, page_size=256)
        assert db.pool.pin_sanitizer is None
        assert not db.buddy.check_invariants
        assert LockManager().order_sanitizer is None
        db.close()


class TestBothPoolsAreArmed:
    """The allocator's directory pool is sanitized wherever ``db.pool`` is."""

    @staticmethod
    def sanitized_db(monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        config = EOSConfig(page_size=256, sanitize_pins=True)
        return EOSDatabase.create(64, page_size=256, config=config)

    def test_config_flag_arms_the_directory_pool(self, monkeypatch):
        db = self.sanitized_db(monkeypatch)
        assert db.buddy.pool is not db.pool
        assert db.buddy.pool.pin_sanitizer is not None
        db.close()

    def test_close_reports_a_leaked_directory_pin(self, monkeypatch):
        db = self.sanitized_db(monkeypatch)
        page = db.volume.spaces[0].directory_page
        db.buddy.pool.fetch(page)  # deliberately never unpinned
        with pytest.raises(PinLeak, match=f"page {page} pinned at:"):
            db.close()
        db.buddy.pool.unpin(page)
        db.close()


class TestBufferPoolAdditions:
    def test_page_context_manager_dirty(self):
        disk = DiskVolume(num_pages=8, page_size=128)
        pool = BufferPool(disk, capacity=4)
        with pool.page(3, dirty=True) as image:
            image[:5] = b"hello"
        pool.flush_all()
        assert disk.read_page(3)[:5] == b"hello"

    def test_page_context_manager_clean_by_default(self):
        disk = DiskVolume(num_pages=8, page_size=128)
        pool = BufferPool(disk, capacity=4)
        with pool.page(3) as image:
            image[:5] = b"hello"
        pool.flush_all()
        # Not marked dirty: the mutation never reaches the disk.
        assert disk.read_page(3)[:5] == bytes(5)

    def test_put_new_installs_dirty_and_unpinned(self):
        disk = DiskVolume(num_pages=8, page_size=128)
        pool = BufferPool(disk, capacity=4)
        pool.put_new(2, b"Z" * 128)
        pool.clear()  # would raise if the page were still pinned
        assert disk.read_page(2) == b"Z" * 128
