"""The top-level database facade.

Persistence: :meth:`EOSDatabase.save` flushes all buffered state, writes
the catalog (:mod:`repro.catalog`: object roots, version chains with
their dead lists, files) as a fresh large object that page 0 names, and
dumps the disk image to a file; :meth:`EOSDatabase.open_file` (or
:meth:`EOSDatabase.attach` for an in-memory disk) restores everything —
the buddy directories and object trees live on the "disk" already, so
only the catalog needs reading.


:class:`EOSDatabase` wires the whole stack together — disk, volume
layout, buddy manager, buffer pool, pager — and manufactures
:class:`~repro.core.object.LargeObject` handles.  This is the API the
examples and benchmarks use::

    db = EOSDatabase.create(num_pages=20_000, page_size=4096)
    obj = db.create_object(size_hint=1_000_000)
    obj.append(payload)
    obj.insert(500, b"hello")
    db.checkpoint()

Object roots live on buddy-allocated pages; the database keeps an
oid -> root-page catalog.  (The paper leaves root placement "to the
client"; the catalog here plays that client role and can also hand the
root page to callers who want to embed it elsewhere.)
"""

from __future__ import annotations

import dataclasses
import os
import threading

from repro import catalog
from repro.buddy.directory import max_capacity
from repro.buddy.manager import BuddyManager
from repro.core.append import create as create_tree
from repro.core.append import trim as _core_trim
from repro.core.config import EOSConfig
from repro.core.delete import delete_range as _core_delete
from repro.core.insert import insert as _core_insert
from repro.core.object import LargeObject
from repro.core.pager import InPlacePager
from repro.core.segio import SegmentIO
from repro.core.tree import LargeObjectTree
from repro.errors import (
    DatabaseClosed,
    ObjectNotFound,
    VersionNotFound,
    VolumeLayoutError,
)
from repro.obs.facade import DatabaseStats
from repro.obs.tracer import Observability
from repro.ops import ObjectStat, VersionInfo
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskVolume
from repro.storage.volume import Volume
from repro.versions import VersionManager, cow_append, cow_replace


# The ``(plain, cow)`` executor pairs for :meth:`EOSDatabase.mutate`.
# Both paths leave an object at most T - 1 spare tail pages (T is its
# ``policy.base``; INTERNALS, "How much tail an object keeps").  A plain
# append ends with Section 4.1's trim down to that bound; a plain insert
# or delete trims to 0 first (``LargeObject`` does it).  A versioned
# object keeps its spare pages as an append reservation, so its
# executors call the core without a trim, and append through
# ``cow_append`` (which fills the reservation and keeps the same bound)
# instead of patching the partial tail page an older snapshot may still
# read.


def _trim_tail(o: LargeObject) -> None:
    """Section 4.1's trim at the end of a plain append, down to T - 1."""
    _core_trim(o.tree, o.buddy, keep=o.policy.base - 1)


def _cow_append(o: LargeObject, data) -> None:
    cow_append(o.tree, o.segio, o.buddy, data, threshold=o.policy.base)


def _append(data):
    """The executor pair of an append."""

    def plain(o: LargeObject) -> None:
        o.append(data)
        _trim_tail(o)

    return plain, lambda o: _cow_append(o, data)


def _insert(offset: int, data):
    """The executor pair of an insert; at the very end it is an append."""

    def plain(o: LargeObject) -> None:
        at_end = offset == o.size()
        o.insert(offset, data)
        if at_end:
            _trim_tail(o)

    def cow(o: LargeObject) -> None:
        if offset == o.size():
            _cow_append(o, data)
            return
        with o._span("insert", offset=offset, bytes=len(data)):
            _core_insert(o.tree, o.segio, o.buddy, offset, data, policy=o.policy)

    return plain, cow


def _delete(offset: int, length: int):
    """The executor pair of a range delete."""

    def cow(o: LargeObject) -> None:
        with o._span("delete", offset=offset, bytes=length):
            _core_delete(o.tree, o.segio, o.buddy, offset, length, policy=o.policy)

    return lambda o: o.delete(offset, length), cow


class EOSDatabase:
    """A formatted volume plus the managers needed to use it.

    Databases are context managers: ``with EOSDatabase.create(...) as
    db:`` closes them on exit — flushing every dirty page, releasing the
    buffer pool and finalising any observability sinks.  A closed
    database raises :class:`~repro.errors.DatabaseClosed` on use.

    Observability: every database carries an
    :class:`~repro.obs.tracer.Observability` bundle at ``db.obs``
    (disabled by default; ``db.obs.enable(sinks=[...])`` switches on
    tracing and metrics) and a :class:`~repro.obs.facade.DatabaseStats`
    facade at ``db.stats`` (always available).
    """

    def __init__(
        self,
        disk: DiskVolume,
        volume: Volume,
        config: EOSConfig,
        *,
        pool_capacity: int = 128,
        obs: Observability | None = None,
    ) -> None:
        if config.page_size != disk.page_size:
            raise VolumeLayoutError(
                f"config page size {config.page_size} != disk {disk.page_size}"
            )
        self.disk = disk
        self.volume = volume
        self.config = config
        if obs is None:
            obs = Observability(iostats=disk.stats, page_size=config.page_size)
        elif obs.iostats is None:
            obs.iostats = disk.stats
        self.obs = obs
        self.pool = BufferPool(disk, capacity=pool_capacity)
        self.buddy = BuddyManager(volume, obs=self.obs)
        # An allocation only dirties its directory frame; the directory
        # reaches the disk ahead of any index page the pool writes back.
        self.pool.write_ahead = self.buddy.write_ahead
        # Per-instance sanitizers (the EOS_SANITIZE env var enables the
        # same checks globally; see repro.analysis.sanitize).
        if config.sanitize_pins:
            for pool in (self.pool, self.buddy.pool):
                pool.attach_pin_sanitizer()
        if config.sanitize_buddy:
            self.buddy.attach_invariant_sanitizer()
        self.pager = InPlacePager(self.pool, self.buddy, config.page_size)
        self.segio = SegmentIO(disk, config.page_size, obs=self.obs)
        #: Copy-on-write version chains (None when versioning is off).
        #: With versioning on, mutations go through op_* only — direct
        #: handle mutations would overwrite pages older snapshots read.
        self.versions = VersionManager(self) if config.versioning else None
        self.stats = DatabaseStats(self)
        self._objects: dict[int, LargeObject] = {}
        self._files: dict[str, "ObjectFile"] = {}
        self._next_oid = 1
        self._closed = False
        #: Serialises the oid-addressed ``op_*`` entry points; reentrant so
        #: holders may call further ops (the serving layer wraps a span
        #: around an op while already holding it).
        self.op_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        num_pages: int,
        page_size: int = 4096,
        *,
        config: EOSConfig | None = None,
        space_capacity: int | None = None,
        pool_capacity: int = 128,
        obs: Observability | None = None,
        disk: DiskVolume | None = None,
    ) -> "EOSDatabase":
        """Format a fresh in-memory database of ``num_pages`` pages.

        The volume is carved into as many buddy spaces as fit; each
        space's capacity defaults to the largest a one-page directory
        supports (or the usable disk size, if smaller).  ``disk``
        substitutes a pre-built device for the default in-memory
        :class:`~repro.storage.disk.DiskVolume`: any ``DiskVolume``
        subclass, e.g. a :class:`~repro.storage.timing.TimedDisk`
        (modelled service time) or a
        :class:`~repro.storage.faults.FaultyDisk` (injected faults).
        Every layer of the database — pool, allocator, segment I/O —
        then transfers through it.  Its geometry must match
        ``num_pages``/``page_size``.
        """
        config = config or EOSConfig(page_size=page_size)
        if config.page_size != page_size:
            raise VolumeLayoutError("config/page_size mismatch")
        if disk is None:
            disk = DiskVolume(num_pages=num_pages, page_size=page_size)
        elif disk.num_pages != num_pages or disk.page_size != page_size:
            raise VolumeLayoutError(
                f"supplied disk is {disk.num_pages} x {disk.page_size}B pages; "
                f"requested {num_pages} x {page_size}B"
            )
        if space_capacity is None:
            usable = num_pages - 2  # volume header + 1 directory minimum
            space_capacity = min(max_capacity(page_size), usable - usable % 4)
        n_spaces = max(1, (num_pages - 1) // (1 + space_capacity))
        volume = Volume.format(disk, n_spaces=n_spaces, space_capacity=space_capacity)
        BuddyManager.format(volume)
        return cls(disk, volume, config, pool_capacity=pool_capacity, obs=obs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise DatabaseClosed(operation)

    def close(self) -> None:
        """Flush all dirty state, release the buffer pool, finalise sinks.

        Idempotent: closing a closed database is a no-op.  The disk
        image survives (pass it to :meth:`attach`, or :meth:`save` the
        database *before* closing to persist it to a file).
        """
        if self._closed:
            return
        for pool in (self.pool, self.buddy.pool):
            if pool.pin_sanitizer is not None:
                # Report leaked pins with their origin stacks *before*
                # clear() dies on the bare pin count with no clue attached.
                pool.pin_sanitizer.assert_no_leaks()
        self.pager.flush()
        self.pool.clear()
        self.obs.close()
        self._closed = True

    def __enter__(self) -> "EOSDatabase":
        self._ensure_open("enter a context")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def create_object(
        self, data: bytes = b"", *, size_hint: int | None = None
    ) -> LargeObject:
        """Create a large object (optionally with initial content).

        ``size_hint`` is the paper's known-eventual-size hint: segments
        for the object are allocated "just large enough to hold the
        entire object."
        """
        self._ensure_open("create an object")
        versions = self.versions
        with self.op_lock, self.obs.tracer.span("op.create", bytes=len(data)):
            # Plain content goes in with the root on the page in front of
            # it (INTERNALS, "Where an object's root lives").  A versioned
            # object starts empty: version 1, then its content commits as
            # version 2 through the uniform mutation path.
            tree = create_tree(
                self.pager, self.segio, self.buddy, self.config,
                data if versions is None else b"", size_hint=size_hint,
                obs=self.obs,
            )
            obj = LargeObject(
                tree, self.segio, self.buddy, size_hint=size_hint, obs=self.obs
            )
            oid = self._next_oid
            self._next_oid += 1
            obj.oid = oid  # type: ignore[attr-defined]
            self._objects[oid] = obj
            if versions is not None:
                versions.publish_initial(oid, tree)
                if data:
                    self.mutate(oid, *_append(data))
            return obj

    def get_object(self, oid: int) -> LargeObject:
        """Look up a catalogued object by its oid."""
        self._ensure_open("look up an object")
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFound(f"no object with oid {oid}") from None

    def open_root(self, root_page: int) -> LargeObject:
        """Open an object by its root page (client-placed roots)."""
        self._ensure_open("open an object")
        tree = LargeObjectTree(self.pager, self.config, root_page, obs=self.obs)
        return LargeObject(tree, self.segio, self.buddy, obs=self.obs)

    def delete_object(self, obj: LargeObject | int) -> None:
        """Destroy the object (a handle or its oid); drop it from the catalog.

        On a versioned database this frees the union of every live
        version's pages (old snapshot roots included), not just the
        current tree.
        """
        self._ensure_open("delete an object")
        if isinstance(obj, int):
            obj = self.get_object(obj)
        oid = getattr(obj, "oid", None)
        # Uncatalogued handles (open_root) never published a version
        # chain, so only catalogued objects dispatch to the reclaimer;
        # anything else provably has no versions and may destroy in
        # place.
        versions = self.versions if oid is not None else None
        if versions is not None:
            versions.drop_object(oid)
        else:
            obj.destroy()
        if oid is not None:
            self._objects.pop(oid, None)

    def objects(self) -> list[LargeObject]:
        """All catalogued objects, in creation order."""
        self._ensure_open("list objects")
        return list(self._objects.values())

    # ------------------------------------------------------------------
    # Thread-safe operation entry points (the serving layer's surface)
    # ------------------------------------------------------------------
    #
    # The object handles above are not thread-safe — they share the
    # buffer pool, allocator and tracer.  The ``op_*`` methods are: each
    # is one whole operation, addressed by oid, executed under
    # ``op_lock``.  This is what `repro.server`'s request scheduler
    # calls from each shard's single worker thread, which is all the
    # concurrency control a served op needs: ops run one at a time.

    def op_create(self, data: bytes = b"", *, size_hint: int | None = None) -> int:
        """Create an object; returns its oid.

        Without a hint the content went into doubling segments, so a
        plain create ends with the append's trim to T - 1 spare pages;
        a hinted one keeps what its hint reserved.  (The handle
        :meth:`create_object` returns is the multi-append API and leaves
        the trim to its caller, as :meth:`LargeObject.append` does.)
        """
        with self.op_lock:
            obj = self.create_object(data, size_hint=size_hint)
            if self.versions is None and (size_hint or 0) <= 0 and len(data):
                _trim_tail(obj)
            return obj.oid  # type: ignore[attr-defined]

    def mutate(self, oid: int, plain, cow=None):
        """Run one mutation of a catalogued object; the only sanctioned
        route, and the one place that asks whether it is versioned.

        Under ``op_lock``: an unversioned database runs ``plain(obj)`` on
        the handle in place; a versioned one runs ``cow`` (default:
        ``plain``, for executors that never overwrite a live page) as
        one version unit, so older snapshots stay intact and the result
        is published as the next version.  Returns the callable's result.
        """
        with self.op_lock:
            if self.versions is not None:
                return self.versions.mutate(oid, cow or plain)
            return plain(self.get_object(oid))

    def op_append(self, oid: int, data: bytes) -> int:
        """Append to the object; returns its new size."""
        with self.op_lock:
            self.mutate(oid, *_append(data))
            return self.get_object(oid).size()

    def op_read(
        self, oid: int, *, offset: int, length: int,
        version: int | None = None,
    ) -> bytes:
        """Read ``length`` bytes at ``offset``.

        On a versioned database every read — latest or explicit
        ``version`` — resolves an immutable snapshot root and runs
        lock-free (no ``op_lock``, no buffer pool)."""
        if self.versions is not None:
            self._ensure_open("read an object")
            return self.versions.read(
                oid, offset=offset, length=length, version=version
            )
        if version:
            raise VersionNotFound(oid, version)
        with self.op_lock:
            return self.get_object(oid).read(offset, length)

    def op_read_into(
        self, oid: int, dest, *, offset: int, length: int,
        version: int | None = None,
    ) -> int:
        """Read ``length`` bytes at ``offset`` into a writable buffer.

        The zero-copy read: coalesced page views land directly in
        ``dest``.  Returns the byte count written.
        """
        if self.versions is not None:
            self._ensure_open("read an object")
            return self.versions.read_into(
                oid, dest, offset=offset, length=length, version=version
            )
        if version:
            raise VersionNotFound(oid, version)
        with self.op_lock:
            return self.get_object(oid).read_into(offset, length, dest)

    def op_write(self, oid: int, data: bytes, *, offset: int) -> int:
        """Overwrite bytes in place; returns the (unchanged) size."""
        with self.op_lock:
            self.mutate(
                oid,
                lambda o: o.replace(offset, data),
                lambda o: cow_replace(o.tree, o.segio, o.buddy, offset, data),
            )
            return self.get_object(oid).size()

    def op_insert(self, oid: int, data: bytes, *, offset: int) -> int:
        """Insert bytes at ``offset``; returns the new size."""
        with self.op_lock:
            self.mutate(oid, *_insert(offset, data))
            return self.get_object(oid).size()

    def op_delete(self, oid: int, *, offset: int, length: int) -> int:
        """Delete a byte range; returns the new size."""
        with self.op_lock:
            self.mutate(oid, *_delete(offset, length))
            return self.get_object(oid).size()

    def op_size(self, oid: int) -> int:
        """The object's size in bytes."""
        if self.versions is not None:
            self._ensure_open("stat an object")
            return self.versions.size(oid)
        with self.op_lock:
            return self.get_object(oid).size()

    def op_stat(self, oid: int, *, version: int | None = None) -> ObjectStat:
        """Space accounting plus the root page (lock-free when versioned)."""
        if self.versions is not None:
            self._ensure_open("stat an object")
            return self.versions.stat(oid, version=version)
        if version:
            raise VersionNotFound(oid, version)
        with self.op_lock:
            obj = self.get_object(oid)
            return ObjectStat(
                **dataclasses.asdict(obj.stats()), root_page=obj.root_page
            )

    def op_versions(self, oid: int) -> list[VersionInfo]:
        """The object's committed versions, ascending (lock-free).

        An unversioned database returns ``[]`` for a live oid — the
        object exists but nothing tracks its history.
        """
        if self.versions is not None:
            self._ensure_open("list versions")
            return self.versions.versions(oid)
        with self.op_lock:
            self.get_object(oid)
            return []

    def op_list(self) -> list[tuple[int, int]]:
        """Every catalogued object as ``(oid, size)``, ascending by oid."""
        with self.op_lock:
            return [
                (oid, obj.size()) for oid, obj in sorted(self._objects.items())
            ]

    # ------------------------------------------------------------------
    # Files (per-file threshold hints)
    # ------------------------------------------------------------------

    def create_file(
        self, name: str, *, threshold: int | None = None,
        adaptive: bool | None = None,
    ) -> "ObjectFile":
        """Create a named object group with its own threshold default.

        "Threshold values can be specified as a hint to the storage
        manager on a per-object or per-file (for all objects in the
        file) basis" (Section 4.4).  Objects created through the file
        inherit its threshold; individual objects may still override via
        :meth:`~repro.core.object.LargeObject.set_threshold`.
        """
        self._ensure_open("create a file")
        if name in self._files:
            raise VolumeLayoutError(f"file {name!r} already exists")
        handle = ObjectFile(
            self,
            name,
            threshold if threshold is not None else self.config.threshold,
            adaptive if adaptive is not None else self.config.adaptive_threshold,
        )
        self._files[name] = handle
        return handle

    def get_file(self, name: str) -> "ObjectFile":
        """Look up a previously created file by name."""
        self._ensure_open("look up a file")
        try:
            return self._files[name]
        except KeyError:
            raise ObjectNotFound(f"no file named {name!r}") from None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _write_catalog(self) -> None:
        """Store the catalog as a fresh object and point page 0 at it:
        every dirty index page (no stale image may name a page the object
        takes), the object, the held-back directory, page 0, then the
        checkpoint that lets the frees go (the old catalog's too)."""
        versions = self.versions
        files = [
            catalog.FileGroup(f.name, f.threshold, f.adaptive,
                              tuple(o.oid for o in f.objects()))
            for f in self._files.values()
        ]
        data = catalog.encode(catalog.Catalog(
            {oid: o.root_page for oid, o in self._objects.items()},
            versions.snapshot_chains() if versions else {}, files,
            versions.retain if versions else 0,
        ))
        header = self.disk.read_page(0)
        old = catalog.root_of(header)
        self.pool.flush_all()
        root = catalog.store(self, data)
        self.pool.flush_all()
        self.buddy.write_ahead()
        self.disk.write_page(0, catalog.with_root(header, root))
        if old:
            catalog.discard(self, old)
        self.pager.flush()

    def _read_catalog(self) -> None:
        """Load the catalog page 0 names.  A versioned one turns
        versioning on with its retention bound if the config left it off;
        a plain one opened versioned starts each object at version 1."""
        saved = catalog.load(self, catalog.root_of(self.disk.read_page(0)))
        if saved.retain and self.versions is None:
            self.config = dataclasses.replace(
                self.config, versioning=True, version_retain=saved.retain
            )
            self.versions = VersionManager(self)
        for oid, root in saved.roots.items():
            obj = self.open_root(root)
            obj.oid = oid  # type: ignore[attr-defined]
            self._objects[oid] = obj
        self._next_oid = max(saved.roots, default=0) + 1
        for group in saved.files:
            unknown = set(group.members) - saved.roots.keys()
            if group.name in self._files or unknown:
                raise VolumeLayoutError(
                    f"catalog: file {group.name!r} is named twice or lists "
                    f"oids it does not hold: {sorted(unknown)}"
                )
            handle = ObjectFile(self, group.name, group.threshold, group.adaptive)
            handle._oids = list(group.members)
            handle.set_threshold(group.threshold)
            self._files[group.name] = handle
        if self.versions is None:
            return
        self.versions.restore(saved.chains)
        if not saved.retain:
            for oid, obj in self._objects.items():
                self.versions.publish_initial(oid, obj.tree)

    def save(self, path: str | os.PathLike) -> None:
        """Flush everything and persist the volume image to ``path``."""
        self._ensure_open("save")
        self._write_catalog()
        self.disk.save(path)

    @classmethod
    def open_file(
        cls,
        path: str | os.PathLike,
        *,
        config: EOSConfig | None = None,
        obs: Observability | None = None,
    ) -> "EOSDatabase":
        """Re-open a database previously written by :meth:`save`."""
        disk = DiskVolume.load(path)
        return cls.attach(disk, config=config, obs=obs)

    @classmethod
    def attach(
        cls,
        disk: DiskVolume,
        *,
        config: EOSConfig | None = None,
        obs: Observability | None = None,
    ) -> "EOSDatabase":
        """Bind a database to an already formatted disk image."""
        volume = Volume.open(disk)
        config = config or EOSConfig(page_size=disk.page_size)
        db = cls(disk, volume, config, obs=obs)
        db._read_catalog()
        return db

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush every dirty buffered page to the disk image, then the
        whole directory (:meth:`~repro.core.pager.InPlacePager.flush`).
        """
        self._ensure_open("checkpoint")
        self.pager.flush()

    def free_pages(self) -> int:
        """Free pages across all buddy spaces."""
        self._ensure_open("count free pages")
        return self.buddy.free_pages()

    def verify(self) -> None:
        """Verify the allocator and every catalogued object."""
        self._ensure_open("verify")
        self.buddy.verify()
        for obj in self._objects.values():
            obj.verify()


class ObjectFile:
    """A named group of objects sharing a threshold default (Section 4.4).

    The file is an organisational unit only — all objects live on the
    same volume and allocator; what the file provides is the per-file
    threshold hint the paper describes, applied to every object created
    through it.
    """

    def __init__(
        self, db: EOSDatabase, name: str, threshold: int, adaptive: bool
    ) -> None:
        self.db = db
        self.name = name
        self.threshold = threshold
        self.adaptive = adaptive
        self._oids: list[int] = []

    def create_object(
        self, data: bytes = b"", *, size_hint: int | None = None
    ) -> LargeObject:
        """Create an object inheriting the file's threshold hint."""
        obj = self.db.create_object(data, size_hint=size_hint)
        obj.set_threshold(self.threshold, adaptive=self.adaptive)
        self._oids.append(obj.oid)  # type: ignore[attr-defined]
        return obj

    def set_threshold(self, threshold: int, *, adaptive: bool | None = None) -> None:
        """Change the file's threshold; applies to all its live objects.

        "Applications that could not possibly determine access patterns
        at creation time are allowed to change the T value every time
        the object is opened for updates."
        """
        self.threshold = threshold
        if adaptive is not None:
            self.adaptive = adaptive
        for obj in self.objects():
            obj.set_threshold(self.threshold, adaptive=self.adaptive)

    def objects(self) -> list[LargeObject]:
        """The file's live objects (destroyed ones drop out)."""
        out = []
        for oid in list(self._oids):
            try:
                out.append(self.db.get_object(oid))
            except ObjectNotFound:
                self._oids.remove(oid)
        return out
