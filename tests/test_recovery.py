"""Tests for Section 4.5: logging, shadowing, transactions, crash recovery."""

import pytest

from repro import EOSConfig, EOSDatabase
from repro.errors import LockConflict, RecoveryError, TransactionError
from repro.storage.faults import DiskFault, FaultyDisk
from repro.tools.fsck import fsck
from repro.recovery import (
    OpKind,
    RecoveryManager,
    ShadowPager,
    SimulatedCrash,
    WriteAheadLog,
)

PAGE = 100


def fresh():
    config = EOSConfig(page_size=PAGE, threshold=2)
    db = EOSDatabase.create(num_pages=6000, page_size=PAGE, config=config)
    return db, RecoveryManager(db)


def payload(n, seed=0):
    return bytes((i * 19 + seed) % 251 for i in range(n))


class TestWriteAheadLog:
    def test_lsns_are_monotonic(self):
        log = WriteAheadLog()
        lsns = [log.append(1, OpKind.BEGIN), log.append(1, OpKind.COMMIT)]
        assert lsns == sorted(lsns)
        assert lsns[0] < lsns[1]

    def test_round_trip(self):
        log = WriteAheadLog()
        log.append(1, OpKind.BEGIN)
        log.append(1, OpKind.INSERT, root_page=5, offset=10, data=b"abc")
        log.append(1, OpKind.REPLACE, root_page=5, offset=3, data=b"new", old_data=b"old")
        log.append(1, OpKind.COMMIT)
        restored = WriteAheadLog.from_bytes(log.to_bytes())
        assert restored.records == log.records

    def test_loser_analysis(self):
        log = WriteAheadLog()
        log.append(1, OpKind.BEGIN)
        log.append(2, OpKind.BEGIN)
        log.append(1, OpKind.COMMIT)
        assert log.loser_transactions() == [2]

    def test_compensated_lsns(self):
        log = WriteAheadLog()
        lsn = log.append(1, OpKind.INSERT, root_page=1, data=b"x")
        log.append(1, OpKind.CLR, root_page=1, undoes=lsn)
        assert log.compensated_lsns() == {lsn}


class TestShadowing:
    def test_committed_update_moves_index_pages(self):
        db, manager = fresh()
        obj = db.create_object(payload(2000), size_hint=2000)
        txn = manager.begin()
        tobj = txn.open(obj)
        tobj.insert(500, b"shadowed")
        txn.commit()
        assert obj.read_all() == payload(2000)[:500] + b"shadowed" + payload(2000)[500:]
        obj.verify()

    def test_abort_restores_content(self):
        db, manager = fresh()
        original = payload(3000)
        obj = db.create_object(original, size_hint=3000)
        free_before = db.free_pages()
        txn = manager.begin()
        tobj = txn.open(obj)
        tobj.insert(100, payload(500, seed=1))
        tobj.delete(1000, 700)
        tobj.replace(0, b"XXXX")
        assert tobj.read_all() != original
        txn.abort()
        assert obj.read_all() == original
        obj.verify()
        assert db.free_pages() == free_before

    def test_abort_of_append(self):
        db, manager = fresh()
        obj = db.create_object(payload(800), size_hint=800)
        txn = manager.begin()
        tobj = txn.open(obj)
        tobj.append(payload(900, seed=4))
        txn.abort()
        assert obj.read_all() == payload(800)
        obj.verify()

    def test_crash_before_root_write_preserves_old_tree(self):
        """The root write is the atomic switch: a crash before it leaves
        the old version fully intact."""
        db, manager = fresh()
        original = payload(2500)
        obj = db.create_object(original, size_hint=2500)
        txn = manager.begin()
        tobj = txn.open(obj)
        manager.crash_before_root_write = True
        with pytest.raises(SimulatedCrash):
            tobj.insert(1234, b"never happened")
        manager.crash_before_root_write = False
        assert obj.read_all() == original
        obj.verify()
        # Recovery finds the loser txn; the insert needs no undo because
        # its root write never happened (root LSN predates the record).
        results = manager.recover()
        assert results == {txn.txn_id: 0}
        assert obj.read_all() == original

    def test_recovery_undoes_committed_units_of_loser_txn(self):
        """Units that DID reach their root switch are rolled back with
        inverse operations at restart."""
        db, manager = fresh()
        original = payload(2500)
        obj = db.create_object(original, size_hint=2500)
        txn = manager.begin()
        tobj = txn.open(obj)
        tobj.insert(700, payload(300, seed=2))
        tobj.delete(100, 50)
        # No commit: the process "dies" here.
        results = manager.recover()
        assert results[txn.txn_id] == 2
        assert obj.read_all() == original
        obj.verify()

    def test_recovery_is_idempotent(self):
        db, manager = fresh()
        original = payload(1500)
        obj = db.create_object(original, size_hint=1500)
        txn = manager.begin()
        txn.open(obj).insert(10, b"ghost")
        manager.recover()
        manager.recover()  # CLRs make the second pass a no-op
        assert obj.read_all() == original
        obj.verify()

    def test_replace_is_undone_from_the_log(self):
        db, manager = fresh()
        original = payload(600)
        obj = db.create_object(original, size_hint=600)
        txn = manager.begin()
        txn.open(obj).replace(200, b"REPLACED!")
        manager.recover()
        assert obj.read_all() == original

    def test_log_survives_serialisation_during_recovery(self):
        db, manager = fresh()
        obj = db.create_object(payload(1000), size_hint=1000)
        txn = manager.begin()
        txn.open(obj).delete(100, 300)
        # "Restart": rebuild the manager from the serialized log.
        raw = manager.log.to_bytes()
        reborn = RecoveryManager(db)
        reborn.log = WriteAheadLog.from_bytes(raw)
        reborn.recover()
        assert obj.read_all() == payload(1000)

    def test_transaction_state_machine(self):
        db, manager = fresh()
        obj = db.create_object(payload(100))
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.open(obj).insert(0, b"x")

    def test_shadow_pager_outside_unit_raises(self):
        db, _ = fresh()
        shadow = ShadowPager(db.pager)
        obj = db.create_object(payload(500))
        node = shadow.read(obj.root_page)  # reads pass through
        for call in (
            lambda: shadow.write(obj.root_page, node),
            lambda: shadow.write_root(obj.root_page, node),
            lambda: shadow.free(obj.root_page),
        ):
            with pytest.raises(RecoveryError):
                call()
        assert db.pager.read(obj.root_page) == node


class TestFailedUnitClosesTheShadowPager:
    """A shadow unit that dies anywhere — the commit's own root write
    included — is over: the long-lived pager is out of it, the old tree
    is what the object is, and the next transaction runs."""

    def check_then_commit_another(self, db, manager, obj, txn, old):
        assert not manager.shadow.in_unit
        txn.abort()  # undoes the op if its root switch did happen
        assert obj.read_all() == old
        fresh_txn = manager.begin()
        fresh_txn.open(obj).insert(100, b"again")
        fresh_txn.commit()
        assert obj.read_all() == old[:100] + b"again" + old[100:]
        db.verify()
        return fsck(db)

    def test_root_write_fails_inside_the_commit(self, monkeypatch):
        db, manager = fresh()
        old = payload(3000)
        obj = db.create_object(old)
        free0 = db.free_pages()

        def failing_once(page, node):
            monkeypatch.undo()
            raise DiskFault("one-shot root write failure")

        monkeypatch.setattr(db.pager, "write_root", failing_once)
        txn = manager.begin()
        with pytest.raises(DiskFault):
            txn.open(obj).insert(500, b"x" * 800)
        # The device is alive: the abort freed every page of the unit.
        assert db.free_pages() == free0
        assert self.check_then_commit_another(db, manager, obj, txn, old).clean

    def test_device_dies_at_every_write_of_the_op(self):
        def begun():
            config = EOSConfig(page_size=PAGE, threshold=2)
            disk = FaultyDisk(num_pages=6000, page_size=PAGE)
            db = EOSDatabase.create(
                6000, PAGE, config=config, pool_capacity=2, disk=disk
            )
            manager = RecoveryManager(db)
            obj = db.create_object(payload(3000))
            db.checkpoint()
            return db, disk, manager, obj, manager.begin()

        db, disk, manager, obj, txn = begun()
        with disk.stats.delta() as unfaulted:
            txn.open(obj).insert(500, b"x" * 800)
        old = payload(3000)
        faults = 0
        for k in range(64):
            db, disk, manager, obj, txn = begun()
            disk.arm(k)
            try:
                txn.open(obj).insert(500, b"x" * 800)
            except DiskFault:
                faults += 1
            else:
                break
            finally:
                disk.heal()
            report = self.check_then_commit_another(db, manager, obj, txn, old)
            assert report.double_claimed == []
            assert report.claims_of_free_pages == []
            assert report.errors == [], report.summary()
        else:
            pytest.fail("the op never completed")
        # A fault at every write of the op: its leaf write and the unit's
        # page writes (the root switch itself stays in the pool).
        assert faults == unfaulted.write_calls


class TestTransactionLocks:
    def test_conflicting_writers_detected(self):
        db, manager = fresh()
        obj = db.create_object(payload(1000), size_hint=1000)
        t1 = manager.begin()
        t2 = manager.begin()
        t1.open(obj).insert(100, b"one")
        with pytest.raises(LockConflict):
            t2.open(obj).insert(105, b"two")
        t1.commit()
        t2.open(obj).insert(105, b"two")  # lock released by commit
        t2.commit()

    def test_disjoint_ranges_do_not_conflict(self):
        """"...or, for finer granularity, the byte range affected"."""
        db, manager = fresh()
        obj = db.create_object(payload(2000), size_hint=2000)
        t1 = manager.begin()
        t2 = manager.begin()
        t1.open(obj).replace(0, b"aa")
        t2.open(obj).replace(1500, b"bb")  # no conflict
        t1.commit()
        t2.commit()

    def test_readers_share(self):
        db, manager = fresh()
        obj = db.create_object(payload(500), size_hint=500)
        t1 = manager.begin()
        t2 = manager.begin()
        assert t1.open(obj).read(0, 100) == t2.open(obj).read(0, 100)
        t1.commit()
        t2.commit()

    def test_reader_writer_conflict(self):
        db, manager = fresh()
        obj = db.create_object(payload(500), size_hint=500)
        t1 = manager.begin()
        t2 = manager.begin()
        t1.open(obj).read(0, 100)
        with pytest.raises(LockConflict):
            t2.open(obj).replace(50, b"x")
        t1.commit()
        t2.commit()


class TestSegmentReleaseLockIntegration:
    """Transactional frees take the [Lehm89] hierarchical locks and hold
    them to transaction end."""

    def test_delete_takes_release_locks(self):
        db, manager = fresh()
        obj = db.create_object(payload(2000), size_hint=2000)
        txn = manager.begin()
        txn.open(obj).delete(300, 1200)  # frees whole pages of the segment
        _, seg_locks = manager.locks.held_by(txn.txn_id)
        release = [l for l in seg_locks if l.mode.name == "RELEASE"]
        intents = [l for l in seg_locks if l.mode.name == "INTENTION_RELEASE"]
        assert release, "a transactional free must take a RELEASE lock"
        assert intents, "...and intention locks on the ancestors"
        txn.commit()
        _, after = manager.locks.held_by(txn.txn_id)
        assert not after  # commit releases everything

    def test_conflicting_frees_detected(self):
        from repro.errors import LockConflict

        db, manager = fresh()
        obj = db.create_object(payload(4000), size_hint=4000)
        entry = obj.segments()[0][1]
        extent = db.volume.space_of_physical(entry.child)
        local = extent.to_local(entry.child)
        t1 = manager.begin()
        t2 = manager.begin()
        ns = extent.index << manager.allocator._SPACE_NAMESPACE_SHIFT
        manager.allocator.current_txn = t1.txn_id
        manager.allocator.free(entry.child + 8, 4)  # t1 frees pages 8..11
        manager.allocator.deferred.clear()          # (bookkeeping only)
        # t2 tries to free an overlapping descendant of the same region.
        manager.allocator.current_txn = t2.txn_id
        with pytest.raises(LockConflict):
            manager.locks.acquire_release_lock(
                t2.txn_id, ns + local + 9, 1, manager.allocator.max_segment_pages
            )
        t1.commit()
        t2.commit()

    def test_abort_releases_segment_locks(self):
        db, manager = fresh()
        obj = db.create_object(payload(2000), size_hint=2000)
        txn = manager.begin()
        txn.open(obj).delete(300, 1200)
        txn.abort()
        _, held = manager.locks.held_by(txn.txn_id)
        assert not held
