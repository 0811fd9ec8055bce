"""The four workloads: set-up, the timed region, and the integrity check.

Each workload is a fixed, seeded op script (op *counts* scale with
``--seconds``; nothing is ever time-boxed), driven by one closed-loop
caller per client.  A workload object is used for exactly one volume:

    w = WORKLOADS[name](seed, scale)
    w.setup()            # build + age the volume, preload, warm-up (verified)
    region = w.run()     # the timed region (or ``w.run(n)`` for a prefix)
    w.finish()           # read-back against the mirror, verify(), fsck
    w.close()

Timing wraps only the call into the program; mirror updates and content
checks happen outside the timed window.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from array import array
from dataclasses import dataclass, field

import scripts
from oracle import Mirror, MirroredDB
from scripts import (
    APPEND, DELETE, INSERT, READ, READ_INTO, STAT, TRIM, WRITE, SCAN_CHUNK,
)

from repro.api import EOSDatabase
from repro.core.config import EOSConfig
from repro.errors import ReproError
from repro.obs.health import collect_volume_health
from repro.server.client import EOSClient
from repro.server.runner import ServerThread
from repro.server.sharding import ShardSet
from repro.storage.iostats import IOSnapshot
from repro.tools.fsck import fsck
from repro.workloads.aging import AgingWorkload

PAGE_SIZE = 4096
VOLUME_PAGES = 32768
#: ``--seconds`` at which the op counts below are the run's op counts;
#: other values scale them linearly.
REFERENCE_SECONDS = 15
#: Timed ops per block of a one-shot (mutating) script; every timing is
#: reported as the median over blocks, so a host burst shorter than half
#: the run cannot move it, and a block's p99 has ten samples beyond it.
BLOCK_OPS = 1000
#: Seed of the seed-independent part of every aged volume's history.
FIXTURE_SEED = 1992


@dataclass(frozen=True)
class Scale:
    """How much of each script a run executes."""

    seconds: float = REFERENCE_SECONDS
    quick: bool = False

    def count(self, at_reference: int) -> int:
        """Scale an op count defined at ``REFERENCE_SECONDS``."""
        factor = self.seconds / REFERENCE_SECONDS / (20 if self.quick else 1)
        return max(1, round(at_reference * factor))


@dataclass
class Region:
    """What one timed region measured."""

    streams: list               # per client: seconds per timed op, script order
    block_len: int              # ops per block (read loops: one identical pass)
    user_bytes: int             # bytes the timed ops asked to move
    io: IOSnapshot              # modelled-disk delta, summed over disks

    @property
    def n_ops(self) -> int:
        return sum(len(stream) for stream in self.streams)

    @property
    def busy(self) -> float:
        """Seconds spent inside timed ops, all clients together."""
        return sum(sum(stream) for stream in self.streams)

    def blocks_of(self, stream):
        """One client's stream cut into sorted ``block_len``-op blocks (a
        stream shorter than one block is one block)."""
        whole = len(stream) - len(stream) % self.block_len
        for begin in range(0, whole or len(stream), self.block_len):
            yield sorted(stream[begin : begin + self.block_len])


@dataclass
class VolumeState:
    """End-of-run space and layout readings (summed over volumes)."""

    data_pages: int = 0
    free_pages: int = 0
    volume_bytes: int = 0
    pages_written: int = 0
    frag_index: list = field(default_factory=list)


def sum_io(disks) -> IOSnapshot:
    total = IOSnapshot()
    for disk in disks:
        snap = disk.stats.snapshot()
        total = IOSnapshot(
            total.seeks + snap.seeks,
            total.page_reads + snap.page_reads,
            total.page_writes + snap.page_writes,
            total.read_calls + snap.read_calls,
            total.write_calls + snap.write_calls,
        )
    return total


def build_aged_volume(seed: int, *, utilization: float, epochs: int, epoch_ops: int):
    """A 127 MB two-space volume aged by mixed-size churn, plus the
    mirror of every surviving object.

    The fill and all but the last epoch replay one fixed history
    (``FIXTURE_SEED``); the last epoch — a day of creates, appends and
    deletes — is drawn from ``seed``.  A whole history per seed makes
    volume-level aggregates (bytes per object, seeks per MB, space per
    byte) differ by 5-8 % between seeds, which no bound below that could
    tell from a regression; one seeded day keeps seeds distinct (about a
    sixth of the objects differ) with a quarter of that spread.
    """
    db = EOSDatabase.create(num_pages=VOLUME_PAGES, page_size=PAGE_SIZE)
    mirror = Mirror()
    aging = AgingWorkload(
        MirroredDB(db, mirror), mix="mixed", seed=FIXTURE_SEED,
        target_utilization=utilization,
    )
    aging.build()
    for _ in range(epochs - 1):
        aging.run_epoch(epoch_ops)
    aging.rng = random.Random(seed)
    aging.run_epoch(epoch_ops)
    return db, mirror


def split_after(script: list[tuple], n_ops: int) -> int:
    """Index just past the first ``n_ops`` non-trim ops (and the trims
    that directly follow them)."""
    seen = 0
    for index, op in enumerate(script):
        if op[0] != TRIM:
            if seen == n_ops:
                return index
            seen += 1
    return len(script)


def apply_script(
    target, docs, ops, mirror: Mirror, pool, latencies=None,
    *, verify: bool = False, readback: int = 0,
):
    """Drive ``ops`` against ``target`` — anything with the ``ObjectOps``
    ``op_*`` surface, a database or a client — and keep ``mirror`` in step.

    Only the call into the program is timed (into ``latencies`` when
    given; trims are never timed).  With ``verify`` every read is
    compared with the mirror, and with ``readback`` as well every edit
    is followed by a read of that many bytes around it.  Returns
    ``(ops attempted, ops failed, bytes the ops asked to move)``.
    """
    clock = time.perf_counter
    done = failed = user_bytes = 0
    for kind, doc, offset, length, src in ops:
        oid = docs[doc]
        data = pool[src : src + length]
        ok = True
        try:
            if kind == READ:
                t0 = clock()
                got = target.op_read(oid, offset=offset, length=length)
                t1 = clock()
                ok = len(got) == length and (
                    not verify or mirror.matches(oid, offset, got)
                )
            elif kind == INSERT:
                t0 = clock()
                target.op_insert(oid, data, offset=offset)
                t1 = clock()
                mirror.insert(oid, offset, data)
            elif kind == DELETE:
                t0 = clock()
                target.op_delete(oid, offset=offset, length=length)
                t1 = clock()
                mirror.delete(oid, offset, length)
            elif kind == APPEND:
                t0 = clock()
                target.op_append(oid, data)
                t1 = clock()
                mirror.append(oid, data)
            elif kind == WRITE:
                t0 = clock()
                target.op_write(oid, data, offset=offset)
                t1 = clock()
                mirror.write(oid, offset, data)
            elif kind == STAT:
                t0 = clock()
                stat = target.op_stat(oid)
                t1 = clock()
                ok = stat.size_bytes == mirror.size(oid)
            else:  # TRIM: bounds growth, never timed
                target.op_delete(oid, offset=0, length=length)
                mirror.delete(oid, 0, length)
                continue
        except ReproError:
            t1 = clock()
            ok = False
        if ok and verify and readback and kind not in (READ, STAT):
            lo = max(0, offset - readback // 2)
            n = min(readback, mirror.size(oid) - lo)
            try:
                ok = mirror.matches(oid, lo, target.op_read(oid, offset=lo, length=n))
            except ReproError:
                ok = False
        if latencies is not None:
            latencies[done] = t1 - t0
        done += 1
        failed += not ok
        user_bytes += length
    return done, failed, user_bytes


class Workload:
    """Common surface; see the module docstring for the call order."""

    name = ""
    why = ""
    read_only = False
    served = False

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.script_hash = ""
        self.attempted = 0
        self.failed = 0

    # Subclasses provide setup(), run(n_ops=None) -> Region, timed_ops(),
    # finish(), close() and databases(), and keep ``self.mirror``.

    def on_worker(self, db, fn, *args, **kwargs):
        """Run ``fn`` where ``db``'s substrate may be touched (inline
        for an in-process database)."""
        return fn(*args, **kwargs)

    def live_bytes(self) -> int:
        return self.mirror.live_bytes()

    def disks(self) -> list:
        return [db.disk for db in self.databases()]

    def volume_state(self) -> VolumeState:
        state = VolumeState()
        for db in self.databases():
            health = self.on_worker(db, collect_volume_health, db, max_objects=0)
            state.data_pages += db.volume.total_data_pages
            state.free_pages += health.free_pages
            state.volume_bytes += db.disk.size_bytes
            state.pages_written += db.disk.stats.page_writes
            state.frag_index.append(health.frag_index)
        return state

    def check(self, ok: bool) -> None:
        """Count one attempted op and whether it passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check_volumes(self) -> None:
        """``verify()`` and ``fsck`` on every volume; each counts as an op."""
        for db in self.databases():
            try:
                self.on_worker(db, db.verify)
                clean = self.on_worker(db, fsck, db).clean
            except (ReproError, AssertionError):
                clean = False
            self.check(clean)


class _ReadLoop(Workload):
    """Identical passes over a fixed read plan on an aged volume."""

    read_only = True
    passes_at_reference = 0

    def make_plan(self, sizes: dict[int, int]) -> list[tuple]:
        raise NotImplementedError

    def setup(self) -> None:
        self.db, self.mirror = build_aged_volume(
            self.seed, utilization=0.6, epochs=6, epoch_ops=200
        )
        sizes = {oid: len(buf) for oid, buf in self.mirror.content.items()}
        self.plan = self.make_plan(sizes)
        self.script_hash = scripts.script_hash(self.plan)
        self.passes = self.scale.count(self.passes_at_reference)
        self.buf = bytearray(SCAN_CHUNK)
        self.verified_pass()  # the warm-up pass checks every byte it reads

    def verified_pass(self) -> None:
        db, buf, mirror = self.db, self.buf, self.mirror
        view = memoryview(buf)
        for kind, oid, offset, length, _ in self.plan:
            try:
                if kind == READ_INTO:
                    got = db.op_read_into(oid, buf, offset=offset, length=length)
                    data = view[:got]
                else:
                    data = db.op_read(oid, offset=offset, length=length)
                ok = len(data) == length and mirror.matches(oid, offset, data)
            except ReproError:
                ok = False
            self.check(ok)

    def timed_ops(self) -> int:
        return self.passes * len(self.plan)

    def run(self, n_ops: int | None = None) -> Region:
        if n_ops is None:
            n_ops = self.timed_ops()
        plan = self.plan
        latencies = array("d", bytes(8 * n_ops))
        read_into, read, buf = self.db.op_read_into, self.db.op_read, self.buf
        clock = time.perf_counter
        failed = done = 0
        gc.collect()
        before = sum_io(self.disks())
        while done < n_ops:
            for kind, oid, offset, length, _ in plan:
                try:
                    if kind == READ_INTO:
                        t0 = clock()
                        got = read_into(oid, buf, offset=offset, length=length)
                        t1 = clock()
                    else:
                        t0 = clock()
                        got = len(read(oid, offset=offset, length=length))
                        t1 = clock()
                except ReproError:
                    t1 = clock()
                    got = -1
                latencies[done] = t1 - t0
                done += 1
                if got != length:
                    failed += 1
                if done == n_ops:
                    break
        io = sum_io(self.disks()) - before
        self.attempted += n_ops
        self.failed += failed
        per_pass = sum(op[3] for op in plan)
        user_bytes = (n_ops // len(plan)) * per_pass + sum(
            op[3] for op in plan[: n_ops % len(plan)]
        )
        return Region([latencies], len(plan), user_bytes, io)

    def finish(self) -> None:
        self.verified_pass()
        self.check_volumes()

    def close(self) -> None:
        self.db.close()

    def databases(self) -> list:
        return [self.db]


class ScanAged(_ReadLoop):
    name = "scan_aged"
    why = ("export job: every live object of an aged 61 MB volume in 256 KB "
           "chunks; bytes moved dominate, the pool is cold on every object, "
           "layout quality shows in seeks")
    passes_at_reference = 375

    def make_plan(self, sizes):
        return scripts.scan_plan(sizes)


class PointRead(_ReadLoop):
    name = "point_read"
    why = ("20 000 Zipf-chosen 4 KB reads per pass on the same aged volume; "
           "almost no bytes, hot roots resident, so tree descent, node decode "
           "and pool dominate and the disk does little")
    passes_at_reference = 45
    plan_ops = 20_000

    def make_plan(self, sizes):
        rng = random.Random(f"point_read-{self.seed}")
        return scripts.point_read_plan(rng, sizes, self.plan_ops)


class Edit(Workload):
    name = "edit"
    why = ("document editing: inserts, deletes, appends and in-place writes "
           "inside 16 documents on an aged volume; the write side of "
           "core/segio/storage and the only heavy user of buddy and reshuffle")
    doc_sizes = (256 << 10, 512 << 10, 1 << 20)
    n_docs = 16
    warmup_at_reference = 1000
    timed_at_reference = 20_000
    check_window = 64 << 10

    def setup(self) -> None:
        self.db, self.mirror = build_aged_volume(
            self.seed, utilization=0.5, epochs=4, epoch_ops=150
        )
        rng = random.Random(f"edit-{self.seed}")
        self.pool = scripts.payload_pool(rng)
        sizes = [self.doc_sizes[i % len(self.doc_sizes)] for i in range(self.n_docs)]
        self.docs = []
        for size in sizes:
            data = rng.randbytes(size)
            oid = self.db.op_create(data, size_hint=size)
            self.mirror.create(oid, data)
            self.docs.append(oid)
        warmup = self.scale.count(self.warmup_at_reference)
        self.n_timed = self.scale.count(self.timed_at_reference)
        self.script = scripts.edit_script(rng, sizes, warmup + self.n_timed)
        self.script_hash = scripts.script_hash(self.script)
        self.position = split_after(self.script, warmup)
        self.execute(self.script[: self.position], verify=True)

    def timed_ops(self) -> int:
        return self.n_timed

    def execute(self, ops: list[tuple], latencies=None, *, verify: bool = False) -> int:
        """Apply ``ops``; returns the bytes they asked to move."""
        done, failed, user_bytes = apply_script(
            self.db, self.docs, ops, self.mirror, self.pool, latencies,
            verify=verify, readback=self.check_window,
        )
        self.attempted += done
        self.failed += failed
        return user_bytes

    def run(self, n_ops: int | None = None) -> Region:
        if n_ops is None:
            n_ops = self.n_timed
        end = split_after(self.script[self.position :], n_ops) + self.position
        ops = self.script[self.position : end]
        self.position = end
        latencies = array("d", bytes(8 * n_ops))
        gc.collect()
        before = sum_io(self.disks())
        user_bytes = self.execute(ops, latencies)
        io = sum_io(self.disks()) - before
        return Region([latencies], BLOCK_OPS, user_bytes, io)

    def finish(self) -> None:
        for oid in self.docs:
            size = self.mirror.size(oid)
            try:
                ok = self.db.op_size(oid) == size and self.mirror.matches(
                    oid, 0, self.db.op_read(oid, offset=0, length=size)
                )
            except ReproError:
                ok = False
            self.check(ok)
        self.check_volumes()

    def close(self) -> None:
        self.db.close()

    def databases(self) -> list:
        return [self.db]


class ServedMix(Workload):
    name = "served_mix"
    why = ("production configuration: two EOSClient threads against a "
           "two-shard versioned server; wire codec, admission, LockManager, "
           "shard hand-off and CoW commit/reclaim run only here")
    served = True
    n_shards = 2
    shard_pages = 8192
    n_docs = 16
    doc_size = 1 << 20
    warmup_at_reference = 500
    timed_at_reference = 5000   # per client
    read_chunk = 256 << 10

    def setup(self) -> None:
        self.shards = ShardSet.create(
            self.n_shards, self.shard_pages, PAGE_SIZE,
            config=EOSConfig(versioning=True),
        )
        self.server = ServerThread(shards=self.shards).start()
        self.admin = EOSClient(port=self.server.port).connect()
        rng = random.Random(f"served_mix-{self.seed}")
        self.pool = scripts.payload_pool(rng)
        self.mirror = Mirror()
        owned: list[list[int]] = [[] for _ in range(self.n_shards)]
        for _ in range(self.n_docs):
            data = rng.randbytes(self.doc_size)
            oid = self.admin.op_create(data, size_hint=self.doc_size)
            self.mirror.create(oid, data)
            # Client i owns shard i's objects, so each shard sees one
            # sequential stream and every count repeats exactly.
            owned[oid % self.n_shards].append(oid)
        self.owned = owned
        warmup = self.scale.count(self.warmup_at_reference)
        self.n_timed = self.scale.count(self.timed_at_reference)
        self.scripts = [
            scripts.served_script(
                random.Random(f"served_mix-{self.seed}-client{i}"),
                [self.doc_size] * len(owned[i]), warmup + self.n_timed,
            )
            for i in range(self.n_shards)
        ]
        self.script_hash = scripts.script_hash(*self.scripts)
        self.clients = [
            EOSClient(port=self.server.port).connect() for _ in range(self.n_shards)
        ]
        self.positions = [0] * self.n_shards
        self.drive(warmup, verify=True)

    def timed_ops(self) -> int:
        return self.n_timed * self.n_shards

    def drive(self, n_ops: int, *, verify: bool = False, timed: bool = False):
        """Run the next ``n_ops`` requests of every client's script, all
        clients starting together.  Returns ``(user bytes, per-client
        latency arrays)``."""
        slices = []
        for index, script in enumerate(self.scripts):
            begin = self.positions[index]
            end = split_after(script[begin:], n_ops) + begin
            self.positions[index] = end
            slices.append(script[begin:end])
        latencies = [
            array("d", bytes(8 * n_ops)) if timed else None for _ in slices
        ]
        results: list = [None] * len(slices)
        barrier = threading.Barrier(len(slices))

        def body(index: int) -> None:
            try:
                barrier.wait()
                # One closed-loop client; its counters are merged on
                # the driving thread, not bumped from two threads.
                results[index] = apply_script(
                    self.clients[index], self.owned[index], slices[index],
                    self.mirror, self.pool, latencies[index], verify=verify,
                )
            except BaseException as exc:  # re-raised on the driving thread
                results[index] = exc
                barrier.abort()

        threads = [
            threading.Thread(target=body, args=(i,), name=f"e2e-client-{i}")
            for i in range(len(slices))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            if isinstance(result, BaseException):
                raise result
        for attempted, failed, _ in results:
            self.attempted += attempted
            self.failed += failed
        return sum(r[2] for r in results), latencies

    def run(self, n_ops: int | None = None) -> Region:
        per_client = self.n_timed if n_ops is None else n_ops // self.n_shards
        gc.collect()
        before = sum_io(self.disks())
        user_bytes, latencies = self.drive(per_client, timed=True)
        io = sum_io(self.disks()) - before
        return Region(latencies, BLOCK_OPS, user_bytes, io)

    def finish(self) -> None:
        for oid, want in self.mirror.content.items():
            try:
                ok = self.admin.op_size(oid) == len(want)
                for offset in range(0, len(want), self.read_chunk):
                    n = min(self.read_chunk, len(want) - offset)
                    ok = ok and self.mirror.matches(
                        oid, offset, self.admin.op_read(oid, offset=offset, length=n)
                    )
            except ReproError:
                ok = False
            self.check(ok)
        self.check_volumes()

    def on_worker(self, db, fn, *args, **kwargs):
        shard = next(s for s in self.shards.shards if s.db is db)
        return shard.submit(fn, *args, **kwargs).result()

    def close(self) -> None:
        for client in [self.admin, *self.clients]:
            client.close()
        leaked = self.server.stop()
        self.shards.close()
        if leaked:
            raise RuntimeError(f"server leaked tasks: {leaked}")

    def databases(self) -> list:
        return [shard.db for shard in self.shards.shards]


WORKLOADS = {w.name: w for w in (ScanAged, PointRead, Edit, ServedMix)}
