"""Fault injection for crash testing at the disk layer.

:class:`FaultyDisk` is a :class:`~repro.storage.disk.DiskVolume` whose
two transfer primitives fail (raising :class:`DiskFault`) after a
configured number of write calls — the classic "power loss mid-flush"
model — or, separately, after a configured number of read calls (a media
error on the return path: the data is intact, but the device stops
answering).  Every public transfer reaches exactly one primitive, so each
call spends one unit of its budget.  Writes up to the fault point are
durable, the failing transfer is *not* applied or returned (whole-page
atomicity, the assumption Section 4.5's single-root-write commit relies
on), and everything after the fault raises until :meth:`FaultyDisk.heal`
is called.

Tests use it to show that wherever the crash lands inside an update,
the committed state remains exactly the old version or exactly the new
one — never a torn mixture.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.disk import DiskVolume
from repro.storage.page import PageId


class DiskFault(StorageError):
    """The simulated device failed (power loss / controller fault)."""


class FaultyDisk(DiskVolume):
    """A volume that dies after N write calls and/or N read calls.

    By default reads always succeed (the platters survive a write-path
    crash); arming ``fail_after_reads`` models the read path failing
    too.  ``peek``/``poke`` stay unaccounted and never fail.
    """

    def __init__(self, num_pages: int, page_size: int = 4096) -> None:
        super().__init__(num_pages, page_size)
        self.fail_after_writes: int | None = None
        self.fail_after_reads: int | None = None
        self.writes_seen = 0
        self.reads_seen = 0
        self.faulted = False       # write path down (power loss)
        self.read_faulted = False  # read path down (media error)

    # -- fault control -------------------------------------------------------

    def arm(
        self,
        fail_after_writes: int | None = None,
        *,
        fail_after_reads: int | None = None,
    ) -> None:
        """Fail the (N+1)-th page-write and/or page-read call from now on.

        Either budget may be armed alone; arming replaces any previous
        arming and clears standing faults.  The two paths fail
        independently: a write fault (power loss) leaves reads working —
        the platters survive — and a read fault (media error) leaves
        writes working.
        """
        if fail_after_writes is None and fail_after_reads is None:
            raise ValueError("arm at least one of writes/reads")
        if fail_after_writes is not None and fail_after_writes < 0:
            raise ValueError("fail_after_writes must be >= 0")
        if fail_after_reads is not None and fail_after_reads < 0:
            raise ValueError("fail_after_reads must be >= 0")
        self.fail_after_writes = fail_after_writes
        self.fail_after_reads = fail_after_reads
        self.writes_seen = 0
        self.reads_seen = 0
        self.faulted = False
        self.read_faulted = False

    def heal(self) -> None:
        """Clear the faults (the machine rebooted; the device is fine)."""
        self.fail_after_writes = None
        self.fail_after_reads = None
        self.faulted = False
        self.read_faulted = False

    def _check_write(self) -> None:
        if self.faulted:
            raise DiskFault("device offline after fault")
        if self.fail_after_writes is not None:
            if self.writes_seen >= self.fail_after_writes:
                self.faulted = True
                raise DiskFault(
                    f"simulated power loss at write #{self.writes_seen + 1}"
                )
            self.writes_seen += 1

    def _check_read(self) -> None:
        if self.read_faulted:
            raise DiskFault("read path offline after media error")
        if self.fail_after_reads is not None:
            if self.reads_seen >= self.fail_after_reads:
                self.read_faulted = True
                raise DiskFault(
                    f"simulated media error at read #{self.reads_seen + 1}"
                )
            self.reads_seen += 1

    # -- the two transfer primitives ------------------------------------------

    def view_pages(self, first_page: PageId, n_pages: int) -> memoryview:
        """Borrow a read-only view, or die at an armed read-fault point."""
        self._check_read()
        return super().view_pages(first_page, n_pages)

    def write_pages_v(self, first_page: PageId, iovecs) -> None:
        """Vectored write, or die at the armed fault point."""
        self._check_write()
        super().write_pages_v(first_page, iovecs)
