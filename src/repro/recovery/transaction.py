"""Transactions over large objects: logging + shadowing glued together.

Section 4.5's recipe, mechanised:

* **replace** overwrites leaf pages in place and is protected by
  *logging* (old and new images recorded before the write);
* **insert / delete / append / truncate** never overwrite existing leaf
  pages; each runs as one *shadow unit* — modified index pages are
  relocated, freed leaf space is deferred, and a single in-place root
  write carrying the operation's LSN commits the unit atomically;
* every update's logical log record carries "the operation that caused
  the update as well as its parameters", so aborting a transaction (or
  recovering a crashed one) applies *inverse operations*, each guarded
  by the root LSN and marked with a compensation record so recovery is
  idempotent.

The EOS prototype itself ran "with no support for transactions"; this
module implements the design the paper lays out for it.
"""

from __future__ import annotations

from repro.api import EOSDatabase
from repro.buddy.manager import BuddyManager
from repro.concurrency.locks import LockManager, LockMode
from repro.util.bitops import aligned_run_decomposition
from repro.core.object import LargeObject
from repro.core.tree import LargeObjectTree
from repro.core.unit import UnitAllocator, run_unit
from repro.errors import TransactionError
from repro.recovery.log import OpKind, WriteAheadLog
from repro.recovery.shadow import ShadowPager


class TransactionalAllocator(UnitAllocator):
    """The leaf-page half of a shadow unit, with the paper's free locks.

    During a shadow unit the old tree must stay fully materialised, so
    pages it references cannot return to the buddy system until the root
    switch: :meth:`commit_unit` performs the frees the unit deferred.

    When a lock manager and transaction id are bound, every deferred
    free also takes the [Lehm89] hierarchical locks the paper adopts:
    "when a segment is freed, a (release) lock is placed on the segment
    and an intention (release) lock is placed on all of the segment's
    ancestors", held until the transaction ends.  Lock addresses are
    space-local, namespaced by ``space_index << 40`` so buddy alignment
    arithmetic still holds across spaces.
    """

    _SPACE_NAMESPACE_SHIFT = 40

    def __init__(self, buddy: BuddyManager, locks: LockManager | None = None) -> None:
        super().__init__(buddy)
        self.locks = locks
        self.current_txn: int | None = None

    def _defer(self, first_page: int, n_pages: int) -> None:
        """Take RELEASE + intention locks on a transactionally freed run."""
        if self.locks is not None and self.current_txn is not None:
            extent = self.base.volume.space_of_physical(first_page)
            local = extent.to_local(first_page)
            namespace = extent.index << self._SPACE_NAMESPACE_SHIFT
            max_size = self.max_segment_pages
            for addr, size in aligned_run_decomposition(local, n_pages):
                self.locks.acquire_release_lock(
                    self.current_txn, namespace + addr, size, max_size
                )
        super()._defer(first_page, n_pages)

    def commit_unit(self) -> None:
        """Perform the deferred frees; the unit's root switch happened."""
        _, deferred = self._close()
        for first_page, n_pages in deferred:
            self.base.free(first_page, n_pages)


class Transaction:
    """One transaction: a txn id, its open objects, and undo knowledge."""

    def __init__(self, manager: "RecoveryManager", txn_id: int) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.state = "active"
        manager.log.append(txn_id, OpKind.BEGIN)

    def open(self, obj: LargeObject) -> "TransactionalObject":
        """Bind an object to this transaction (locked, logged, shadowed)."""
        self._check_active()
        return TransactionalObject(self, obj)

    def commit(self) -> None:
        """Commit: log the COMMIT record and release all locks."""
        self._check_active()
        self.manager.log.append(self.txn_id, OpKind.COMMIT)
        self.manager.locks.release_all(self.txn_id)
        self.state = "committed"

    def abort(self) -> None:
        """Undo every update in reverse order with inverse operations."""
        self._check_active()
        self.manager.undo_transaction(self.txn_id)
        self.manager.log.append(self.txn_id, OpKind.ABORT)
        self.manager.locks.release_all(self.txn_id)
        self.state = "aborted"

    def _check_active(self) -> None:
        if self.state != "active":
            raise TransactionError(f"transaction {self.txn_id} is {self.state}")


class TransactionalObject:
    """A large object accessed under a transaction."""

    def __init__(self, txn: Transaction, obj: LargeObject) -> None:
        self.txn = txn
        manager = txn.manager
        # Rebind the object's tree onto the shadow pager and the
        # unit's allocator; leaf I/O and config stay shared.
        self.tree = LargeObjectTree(
            manager.shadow, obj.config, obj.root_page, obs=manager.db.obs
        )
        self.base = obj
        self.manager = manager

    # -- reads (locked shared) ------------------------------------------

    def size(self) -> int:
        """Current object size in bytes."""
        return self.tree.size()

    def read(self, offset: int, length: int) -> bytes:
        """Read a byte range under a shared lock."""
        self.txn._check_active()
        self.manager.locks.acquire_range(
            self.txn.txn_id, self.base.root_page, offset, offset + length, LockMode.S
        )
        return self._plain().read(offset, length)

    def read_all(self) -> bytes:
        """Read the whole object under a shared lock."""
        return self.read(0, self.size())

    # -- updates ----------------------------------------------------------

    # A length-changing update shifts every byte after its offset, so its
    # byte-range lock extends to the end of the object (replace, which
    # shifts nothing, locks only the bytes it touches).
    _TO_END = 1 << 62

    def append(self, data: bytes) -> None:
        """Append bytes as one logged, shadowed unit."""
        size = self.size()
        self._locked(size, self._TO_END)
        lsn = self.manager.log.append(
            self.txn.txn_id, OpKind.APPEND,
            root_page=self.base.root_page, offset=size, data=data,
        )
        self._shadowed(lambda o: o.append(data), lsn)

    def insert(self, offset: int, data: bytes) -> None:
        """Insert bytes as one logged, shadowed unit."""
        self._locked(offset, self._TO_END)
        lsn = self.manager.log.append(
            self.txn.txn_id, OpKind.INSERT,
            root_page=self.base.root_page, offset=offset, data=data,
        )
        self._shadowed(lambda o: o.insert(offset, data), lsn)

    def delete(self, offset: int, length: int) -> None:
        """Delete a range as one logged, shadowed unit (old bytes logged for undo)."""
        self._locked(offset, self._TO_END)
        old = self._plain().read(offset, length)
        lsn = self.manager.log.append(
            self.txn.txn_id, OpKind.DELETE,
            root_page=self.base.root_page, offset=offset, data=old,
        )
        self._shadowed(lambda o: o.delete(offset, length), lsn)

    def truncate(self, new_size: int) -> None:
        """Delete from ``new_size`` to the end, transactionally."""
        size = self.size()
        if new_size < size:
            self.delete(new_size, size - new_size)

    def replace(self, offset: int, data: bytes) -> None:
        """Logged, in-place: the one update that overwrites leaf pages."""
        self.txn._check_active()
        self._locked(offset, offset + len(data))
        old = self._plain().read(offset, len(data))
        self.manager.log.append(
            self.txn.txn_id, OpKind.REPLACE,
            root_page=self.base.root_page, offset=offset, data=data, old_data=old,
        )
        self._plain().replace(offset, data)

    # -- plumbing -----------------------------------------------------------

    def _locked(self, lo: int, hi: int) -> None:
        self.txn._check_active()
        self.manager.locks.acquire_range(
            self.txn.txn_id, self.base.root_page, lo, max(hi, lo + 1), LockMode.X
        )

    def _plain(self) -> LargeObject:
        """The object bound to the current pagers (shadow-aware reads)."""
        return LargeObject(
            self.tree, self.base.segio, self.manager.allocator,
            obs=self.manager.db.obs,
        )

    def _shadowed(self, operation, lsn: int) -> None:
        manager = self.manager

        def unit(obj: LargeObject) -> None:
            operation(obj)
            if manager.crash_before_root_write:
                # Fault injection: the unit never reaches its root switch.
                manager.shadow.crash_unit()
                raise SimulatedCrash(lsn)

        with manager.db.obs.tracer.span(
            "txn.unit", txn=self.txn.txn_id, lsn=lsn
        ):
            manager.allocator.current_txn = self.txn.txn_id
            run_unit(
                manager.shadow, manager.allocator, self._plain(), unit, lsn
            )


class SimulatedCrash(Exception):
    """Raised by fault injection to emulate losing the process mid-update."""

    def __init__(self, lsn: int) -> None:
        super().__init__(f"simulated crash before the root write of LSN {lsn}")
        self.lsn = lsn


class RecoveryManager:
    """Owns the log, the shadow pager, the lock table, and recovery."""

    def __init__(self, db: EOSDatabase) -> None:
        self.db = db
        self.log = WriteAheadLog(obs=db.obs)
        self.shadow = ShadowPager(db.pager, obs=db.obs)
        self.locks = LockManager()
        if db.config.sanitize_locks:
            self.locks.attach_order_sanitizer()
        self.allocator = TransactionalAllocator(db.buddy, self.locks)
        self.crash_before_root_write = False
        self._next_txn = 1

    def begin(self) -> Transaction:
        """Start a new transaction."""
        txn = Transaction(self, self._next_txn)
        self._next_txn += 1
        return txn

    # ------------------------------------------------------------------
    # Undo machinery (shared by abort and restart recovery)
    # ------------------------------------------------------------------

    def undo_transaction(self, txn_id: int) -> int:
        """Undo a transaction's applied updates in reverse; returns the
        number of operations undone."""
        compensated = self.log.compensated_lsns()
        undone = 0
        for record in reversed(self.log.updates_of(txn_id)):
            if record.lsn in compensated:
                continue
            obj = self._object_for(record.root_page)
            # The LSN in the root page tells whether the update's shadow
            # unit ever committed: "the log sequence number of the update
            # must be placed in the root page of the object to ensure
            # that the update can be undone or redone idempotently."
            root_lsn = obj.tree.read_root().lsn
            if record.kind in (OpKind.INSERT, OpKind.DELETE, OpKind.APPEND):
                if root_lsn < record.lsn:
                    continue  # the crash hit before this unit's root write
            clr = self.log.append(
                txn_id, OpKind.CLR, root_page=record.root_page, undoes=record.lsn
            )
            self._apply_inverse(obj, record, clr)
            undone += 1
        return undone

    def recover(self) -> dict[int, int]:
        """Restart recovery: undo every loser transaction.

        Committed updates need no redo — their shadow units' root writes
        made them durable, and replaces were logged before being applied.
        Returns {txn_id: operations undone}; running it twice is a no-op
        thanks to the CLRs.
        """
        results = {}
        for txn_id in self.log.loser_transactions():
            results[txn_id] = self.undo_transaction(txn_id)
            self.log.append(txn_id, OpKind.ABORT)
            self.locks.release_all(txn_id)
        return results

    def _object_for(self, root_page: int) -> LargeObject:
        tree = LargeObjectTree(self.shadow, self.db.config, root_page, obs=self.db.obs)
        return LargeObject(tree, self.db.segio, self.allocator, obs=self.db.obs)

    def _apply_inverse(self, obj: LargeObject, record, clr_lsn: int) -> None:
        inverse = {
            OpKind.INSERT: lambda o: o.delete(record.offset, len(record.data)),
            OpKind.APPEND: lambda o: o.delete(record.offset, len(record.data)),
            OpKind.DELETE: lambda o: o.insert(record.offset, record.data),
            OpKind.REPLACE: lambda o: o.replace(record.offset, record.old_data),
        }[record.kind]
        if record.kind == OpKind.REPLACE:
            inverse(obj)  # in place, already logged via the CLR
        else:
            run_unit(self.shadow, self.allocator, obj, inverse, clr_lsn)
