"""The typed object-operation surface: one interface, two backends.

:class:`ObjectOps` is the canonical oid-addressed operation set — the
contract the serving layer dispatches against and the conformance suite
tests once.  Two implementations conform:

* :class:`~repro.api.EOSDatabase` — the in-process database (ops run
  under its ``op_lock``).  A shard of the server is one of these, run
  on the shard's worker against shard-local oids;
* :class:`~repro.server.client.EOSClient` — the remote client, where
  each op is one wire exchange.  The server's side of each exchange is
  declared once, in :data:`repro.server.protocol.OBJECT_OPCODES`.

Canonical signatures put the payload (``data``/``dest``) positionally
and all geometry — ``offset``, ``length``, ``size_hint`` — keyword-only,
so call sites read unambiguously (``op_write(oid, data, offset=0)``)
and the historical positional orders (which disagreed between methods:
``op_write(oid, offset, data)`` but ``op_read(oid, offset, length)``)
can never be silently transposed again.

:class:`ObjectStat` replaces the loose dict ``op_stat`` used to return:
a frozen dataclass whose field order matches the STAT wire encoding
(:data:`repro.server.protocol._STAT`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Protocol, runtime_checkable

__all__ = ["ObjectOps", "ObjectStat", "VersionInfo"]


@dataclass(frozen=True)
class ObjectStat:
    """One object's space accounting plus its root page.

    Field order matches the STAT response wire struct (u64 size, then
    five u32 counters), so ``pack_stat(stat)`` serializes positionally.
    ``version`` is appended last (with a default) so positional packing
    of the pre-versioning prefix is unchanged; it is 0 on backends that
    do not version objects.
    """

    size_bytes: int
    segments: int
    leaf_pages: int
    index_pages: int
    height: int
    root_page: int
    version: int = 0

    def as_dict(self) -> dict[str, int]:
        """The stat as a plain dict (for JSON documents)."""
        return asdict(self)


@dataclass(frozen=True)
class VersionInfo:
    """One committed version of an object, as listed by ``op_versions``.

    Field order matches the VERSIONS response wire record (u32 version,
    u64 size, f64 timestamp).
    """

    version: int
    size_bytes: int
    commit_ts: float

    def as_dict(self) -> dict[str, int | float]:
        """The version record as a plain dict (for JSON documents)."""
        return asdict(self)


@runtime_checkable
class ObjectOps(Protocol):
    """The canonical oid-addressed operation set.

    Every method is one whole, atomic operation on one backend;
    ``op_list`` is the only multi-object op (a sharded backend fans it
    out and merges).  Implementations raise from :mod:`repro.errors` —
    notably :class:`~repro.errors.ObjectNotFound` for a dangling oid —
    identically in-process and across the wire.
    """

    def op_create(
        self, data: bytes = b"", *, size_hint: int | None = None
    ) -> int:
        """Create an object (optionally with initial content); its oid."""
        ...

    def op_append(self, oid: int, data: bytes) -> int:
        """Append bytes; the object's new size."""
        ...

    def op_read(
        self,
        oid: int,
        *,
        offset: int,
        length: int,
        version: int | None = None,
    ) -> bytes:
        """Read ``length`` bytes at ``offset``.

        ``version`` selects a committed snapshot on versioned backends
        (None or 0 = latest); versioned backends serve all reads
        lock-free against the immutable version root.
        """
        ...

    def op_read_into(
        self,
        oid: int,
        dest: Any,
        *,
        offset: int,
        length: int,
        version: int | None = None,
    ) -> int:
        """Read ``length`` bytes at ``offset`` into a writable buffer
        (anything exposing a writable buffer protocol); the byte count."""
        ...

    def op_write(self, oid: int, data: bytes, *, offset: int) -> int:
        """Overwrite bytes in place; the (unchanged) size."""
        ...

    def op_insert(self, oid: int, data: bytes, *, offset: int) -> int:
        """Insert bytes at ``offset``; the new size."""
        ...

    def op_delete(self, oid: int, *, offset: int, length: int) -> int:
        """Delete a byte range; the new size."""
        ...

    def op_size(self, oid: int) -> int:
        """The object's size in bytes."""
        ...

    def op_stat(self, oid: int, *, version: int | None = None) -> ObjectStat:
        """Space accounting plus the root page (of the selected version
        on versioned backends; None or 0 = latest)."""
        ...

    def op_versions(self, oid: int) -> list["VersionInfo"]:
        """The object's committed versions, ascending by version number
        (empty on backends that do not version objects)."""
        ...

    def op_list(self) -> list[tuple[int, int]]:
        """Every object as ``(oid, size)``, ascending by oid."""
        ...
