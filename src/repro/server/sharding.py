"""Shared-nothing shards: N databases, N worker threads, one address space.

The paper gives every storage structure its own buddy space, directory
and buffer pool precisely so that independent volumes never contend; a
:class:`ShardSet` applies the same ownership rule at process scale.
Each :class:`Shard` owns one complete :class:`~repro.api.EOSDatabase`
(disk volume + buffer pool + allocator) and one dedicated worker
thread — no page, buffer frame or allocator state is ever touched from
outside that shard's worker, so shards scale like independent disk
arms (which is exactly what the SRV2 benchmark puts under them).  The worker is also the shard's concurrency control: it
runs one op at a time, so every op is atomic and ops on one object
apply in submission order, with no lock table.

Oid tagging
-----------
Wire oids carry their owning shard in the residue class modulo the
shard count::

    wire_oid  = local_oid * n_shards + shard_index
    shard     = wire_oid % n_shards
    local_oid = wire_oid // n_shards

Routing is pure arithmetic — no directory, no rebalancing, and a
client cannot tell a 1-shard server from an N-shard one (for
``n_shards == 1`` the mapping is the identity, which keeps every
pre-sharding oid valid).  Creates have no oid yet, so the coordinator
places them on the least-loaded shard and the response carries the
tagged oid home.

Coordinator fan-out
-------------------
Single-object ops touch exactly one shard.  Multi-object ops (the
server's LIST, stats/space rollups) fan out to every shard and merge; a
dead shard fails the fan-out with
:class:`~repro.errors.ShardUnavailable` rather than silently returning
partial state.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable

from repro.analysis.confine import ThreadConfinement
from repro.analysis.sanitize import sanitizers_from_env
from repro.api import EOSDatabase
from repro.concurrency import LockManager
from repro.core.config import EOSConfig
from repro.errors import ObjectNotFound, ShardUnavailable
from repro.obs.tracer import Observability

__all__ = ["Shard", "ShardSet", "make_oid", "split_oid", "shard_of"]

#: Disjoint span-id block size per shard tracer (see ShardSet.create).
_SPAN_ID_BLOCK = 1 << 40


def make_oid(shard_index: int, local_oid: int, n_shards: int) -> int:
    """The wire oid for a shard-local oid (identity when n_shards == 1)."""
    return local_oid * n_shards + shard_index


def split_oid(oid: int, n_shards: int) -> tuple[int, int]:
    """A wire oid as ``(shard_index, local_oid)``."""
    return oid % n_shards, oid // n_shards


def shard_of(oid: int, n_shards: int) -> int:
    """The index of the shard owning a wire oid."""
    return oid % n_shards


class Shard:
    """One shard: a database and a dedicated worker.

    All database work submitted through :meth:`submit` runs on the
    shard's single worker thread, which keeps the database's tracer
    span stack sound and makes the shared-nothing claim structural:
    there is exactly one thread that ever executes this shard's ops.
    A shard is not itself an :class:`~repro.ops.ObjectOps` backend: the
    server runs ``shard.db.op_*`` through :meth:`submit` against
    :meth:`local_oid`, and in-process code does the same.
    """

    def __init__(
        self,
        index: int,
        db: EOSDatabase,
        n_shards: int,
        *,
        confine: bool = True,
    ) -> None:
        self.index = index
        self.db = db
        self.n_shards = n_shards
        # Nothing in repro acquires through this table: the worker
        # orders every op.  It stays only because the e2e benchmark's
        # traced run reads its ``acquisitions`` counter.
        self.locks = LockManager()
        self.alive = True
        self.created = 0  # objects placed here (the create-balance signal)
        self.pending = 0  # ops submitted but not finished
        self._count_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"eos-shard-{index}"
        )
        # Thread-confinement sanitizer (EOS008's runtime twin): claim
        # the substrate from the worker itself, then arm the guards.
        # The .result() barrier orders the claim before any real op.
        # ``confine=False`` is for adopted databases, whose outside
        # owner legitimately keeps direct access.
        self.confinement: ThreadConfinement | None = None
        if confine and (
            sanitizers_from_env().confinement or db.config.sanitize_confinement
        ):
            self.confinement = ThreadConfinement(f"shard-{index}")
            self._pool.submit(self.confinement.claim).result()
            db.pool.attach_confinement(self.confinement)
            db.buddy.attach_confinement(self.confinement)

    # -- scheduling ----------------------------------------------------------

    @property
    def load(self) -> int:
        """The create-placement signal: objects held plus ops queued."""
        return self.created + self.pending

    def note_created(self) -> None:
        """Record that a create was placed on this shard."""
        with self._count_lock:
            self.created += 1

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run ``fn`` on the shard's worker thread; a Future of its result.

        Raises :class:`~repro.errors.ShardUnavailable` once the shard
        has been killed or closed — fail fast, never queue onto a dead
        worker.
        """
        if not self.alive:
            raise ShardUnavailable(f"shard {self.index} is not serving")
        with self._count_lock:
            self.pending += 1

        def call():
            try:
                return fn(*args, **kwargs)
            finally:
                with self._count_lock:
                    self.pending -= 1

        try:
            return self._pool.submit(call)
        except RuntimeError:  # lost the race with kill()/close()
            with self._count_lock:
                self.pending -= 1
            raise ShardUnavailable(
                f"shard {self.index} is not serving"
            ) from None

    def local_oid(self, oid: int) -> int:
        """The shard-local oid for a wire oid this shard owns."""
        shard_index, local = split_oid(oid, self.n_shards)
        if shard_index != self.index:
            raise ObjectNotFound(
                f"oid {oid} belongs to shard {shard_index}, not {self.index}"
            )
        return local

    # -- lifecycle -----------------------------------------------------------

    def kill(self) -> None:
        """Take the shard down hard (fault injection / shard-death tests).

        Queued work is cancelled, the database is left as-is, and every
        subsequent :meth:`submit` raises
        :class:`~repro.errors.ShardUnavailable`.
        """
        self.alive = False
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.confinement is not None:
            self.confinement.release()

    def close(self) -> None:
        """Drain the worker and close the shard's database."""
        self.alive = False
        self._pool.shutdown(wait=True)
        if self.confinement is not None:
            self.confinement.release()
        if not self.db.is_closed:
            self.db.close()


class ShardSet:
    """The coordinator: routes by oid, balances creates, fans out the rest."""

    def __init__(self, shards: Iterable[Shard], *, obs: Observability | None = None):
        self.shards: list[Shard] = list(shards)
        if not self.shards:
            raise ValueError("a ShardSet needs at least one shard")
        self.n_shards = len(self.shards)
        #: The coordinator's observability bundle: request roots, server
        #: metrics and flight spans land here.  A single adopted shard
        #: shares its database's bundle, preserving the unsharded
        #: server's metrics surface exactly.
        self.obs = obs if obs is not None else self.shards[0].db.obs

    # -- construction --------------------------------------------------------

    @classmethod
    def adopt(cls, db: EOSDatabase) -> "ShardSet":
        """Wrap one existing database as a single-shard set.

        The oid mapping is the identity and the database's own
        observability bundle is used, so a server over an adopted set
        is wire- and metrics-compatible with the pre-sharding server.
        The caller keeps direct access to the database it handed in, so
        the thread-confinement sanitizer is not armed for adopted sets.
        """
        return cls([Shard(0, db, 1, confine=False)])

    @classmethod
    def create(
        cls,
        n_shards: int,
        num_pages: int,
        page_size: int = 4096,
        *,
        config: EOSConfig | None = None,
        pool_capacity: int = 128,
        disk_factory: Callable[[int], object] | None = None,
        sinks: Iterable = (),
    ) -> "ShardSet":
        """Format ``n_shards`` fresh databases of ``num_pages`` pages each.

        Every shard gets its own volume (``disk_factory(index)`` may
        supply the device, a ``DiskVolume`` subclass of the shard's
        geometry — e.g. a :class:`~repro.storage.timing.TimedDisk` per
        simulated arm),
        its own metrics registry, and a tracer whose span ids live in a
        disjoint block so per-shard spans merge cleanly under
        coordinator-allocated request roots.  A server over the set
        builds span trees only for requests that carry the wire's trace
        flag — or for every request when ``sinks`` is given.  ``sinks``
        (span sinks, e.g. a JSON-lines file) are shared by the
        coordinator and every shard tracer; sinks used this way must
        tolerate concurrent ``on_span`` calls.
        """
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        sinks = list(sinks)
        shards = []
        for index in range(n_shards):
            disk = disk_factory(index) if disk_factory is not None else None
            db = EOSDatabase.create(
                num_pages,
                page_size,
                config=config,
                pool_capacity=pool_capacity,
                disk=disk,
            )
            db.obs.enable(
                sinks=sinks,
                first_span_id=(index + 1) * _SPAN_ID_BLOCK,
            )
            shards.append(Shard(index, db, n_shards))
        obs = Observability(page_size=page_size).enable(sinks=sinks)
        return cls(shards, obs=obs)

    # -- routing -------------------------------------------------------------

    @property
    def single(self) -> bool:
        """True for a one-shard set (the unsharded-compatible case)."""
        return self.n_shards == 1

    def shard_for(self, oid: int) -> Shard:
        """The shard owning a wire oid (pure arithmetic, no lookup)."""
        return self.shards[shard_of(oid, self.n_shards)]

    def pick_for_create(self) -> Shard:
        """The least-loaded live shard (ties break on the lowest index)."""
        live = [s for s in self.shards if s.alive]
        if not live:
            raise ShardUnavailable("no shard is serving")
        return min(live, key=lambda s: (s.load, s.index))

    def close(self) -> None:
        """Close every shard (drains workers) and the coordinator bundle."""
        for shard in self.shards:
            shard.close()
        if self.obs is not self.shards[0].db.obs:
            self.obs.close()
