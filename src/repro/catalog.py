"""The volume catalog: one codec, stored as an EOS large object.

The catalog is the client the paper leaves root placement to (footnote
3): every object's root — on a versioned volume its retained version
chain, each record with the dead list the reclaimer frees when it
expires — the file groups (Section 4.4) and the retention bound.
Layout, little-endian::

    header  "EOSCAT01", u32 retention bound (0: unversioned),
            u32 object count, u32 file count
    object  u64 oid, then unversioned: u32 root page (the chain is its
            root alone); versioned: u32 record count >= 1, records
    record  u32 version, u32 root page, f64 commit time, u64 byte size,
            u32 dead-run count, per run u32 first page + u32 page count
    file    u8 name length, UTF-8 name, u32 threshold, u8 adaptive,
            u32 member count, u64 member oids

:func:`decode` is strict: bytes that do not parse exactly raise
:class:`~repro.errors.VolumeLayoutError` naming the catalog.

Every :meth:`~repro.api.EOSDatabase.save` stores the bytes as a fresh
large object.  After the volume header, page 0 holds only its root page:
a u32 at :data:`ROOT_OFFSET`, 0 on a volume never saved.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.append import create
from repro.errors import ReproError, VolumeLayoutError
from repro.storage.page import PageId
from repro.versions.manager import VersionRecord

if TYPE_CHECKING:
    from repro.api import EOSDatabase

#: Where page 0 keeps the catalog object's root, after the volume header.
ROOT_OFFSET = 64

_MAGIC = b"EOSCAT01"
_HEADER = struct.Struct("<8sIII")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_RECORD = struct.Struct("<IIdQI")
_RUN = struct.Struct("<II")
_FILE = struct.Struct("<IBI")


@dataclass(frozen=True)
class FileGroup:
    """One persisted file: its name, threshold hint and member oids."""

    name: str
    threshold: int
    adaptive: bool
    members: tuple[int, ...]


@dataclass
class Catalog:
    """Everything a volume needs besides its pages."""

    roots: dict[int, PageId] = field(default_factory=dict)  # oid -> latest root
    #: oid -> retained records, oldest first (empty when unversioned).
    chains: dict[int, list[VersionRecord]] = field(default_factory=dict)
    files: list[FileGroup] = field(default_factory=list)
    retain: int = 0


def _malformed(problem: str) -> VolumeLayoutError:
    return VolumeLayoutError(f"catalog: {problem}")


def encode(catalog: Catalog) -> bytes:
    """The catalog's bytes; a value the layout cannot hold raises
    :class:`~repro.errors.VolumeLayoutError`."""
    out = bytearray()
    try:
        out += _HEADER.pack(
            _MAGIC, catalog.retain, len(catalog.roots), len(catalog.files)
        )
        for oid, root in sorted(catalog.roots.items()):
            out += _U64.pack(oid)
            if not catalog.retain:
                out += _U32.pack(root)
                continue
            chain = catalog.chains.get(oid, [])
            if not chain or chain[-1].root_page != root:
                raise _malformed(f"object {oid}'s root is not its latest version's")
            out += _U32.pack(len(chain))
            for r in chain:
                out += _RECORD.pack(
                    r.version, r.root_page, r.commit_ts, r.byte_size, len(r.dead)
                )
                for run in r.dead:
                    out += _RUN.pack(*run)
        for group in catalog.files:
            name = group.name.encode("utf-8")
            if len(name) > 255:
                raise _malformed(f"file name {group.name!r} exceeds 255 bytes encoded")
            out += _U8.pack(len(name)) + name
            out += _FILE.pack(group.threshold, group.adaptive, len(group.members))
            for oid in group.members:
                out += _U64.pack(oid)
    except struct.error as exc:
        raise _malformed(str(exc)) from None
    return bytes(out)


def decode(data: bytes) -> Catalog:
    """Parse :func:`encode`'s bytes, strictly."""
    at = 0

    def take(fmt: struct.Struct) -> tuple[Any, ...]:
        nonlocal at
        out = fmt.unpack_from(data, at)
        at += fmt.size
        return out

    try:
        magic, retain, n_objects, n_files = take(_HEADER)
        if magic != _MAGIC:
            raise _malformed(f"bad magic {magic!r}")
        catalog = Catalog(retain=retain)
        for _ in range(n_objects):
            oid, word = take(_U64)[0], take(_U32)[0]  # word: root or record count
            if oid in catalog.roots:
                raise _malformed(f"object {oid} appears twice")
            if not retain:
                catalog.roots[oid] = word
                continue
            if not word:
                raise _malformed(f"object {oid} has an empty version chain")
            chain: list[VersionRecord] = []
            for _ in range(word):
                version, root, ts, size, n_runs = take(_RECORD)
                dead = tuple(take(_RUN) for _ in range(n_runs))
                chain.append(VersionRecord(version, root, ts, size, dead))
            catalog.chains[oid] = chain
            catalog.roots[oid] = chain[-1].root_page
        for _ in range(n_files):
            (name,) = take(struct.Struct(f"{take(_U8)[0]}s"))
            threshold, adaptive, n_members = take(_FILE)
            members = tuple(take(_U64)[0] for _ in range(n_members))
            catalog.files.append(
                FileGroup(name.decode("utf-8"), threshold, bool(adaptive), members)
            )
    except struct.error:
        raise _malformed(f"truncated at byte {at} of {len(data)}") from None
    except UnicodeDecodeError as exc:
        raise _malformed(f"a file name is not UTF-8: {exc}") from None
    if at != len(data):
        raise _malformed(f"{len(data) - at} bytes past its end")
    return catalog


def root_of(header: bytes) -> PageId:
    """The catalog's root page as the page-0 image ``header`` names it."""
    (root,) = _U32.unpack_from(header, ROOT_OFFSET)
    return PageId(root)


def with_root(header: bytes, root: PageId) -> bytes:
    """``header`` naming ``root``: what the catalog's publish writes."""
    out = bytearray(header)
    _U32.pack_into(out, ROOT_OFFSET, root)
    return bytes(out)


def store(db: EOSDatabase, data: bytes) -> PageId:
    """Write ``data`` as a fresh object in exact-size segments, its root
    in front of the first; returns the root.  Its index pages wait in
    the pool until the catalog's write-back ahead of page 0."""
    return create(
        db.pager, db.segio, db.buddy, db.config, data, size_hint=len(data)
    ).root_page


def load(db: EOSDatabase, root: PageId) -> Catalog:
    """The catalog object at ``root``, decoded (0: the empty catalog)."""
    if not root:
        return Catalog()
    try:
        data = db.open_root(root).read_all()
    except (ReproError, ValueError) as exc:
        raise _malformed(f"root page {root} does not read: {exc}") from None
    return decode(data)


def discard(db: EOSDatabase, root: PageId) -> None:
    """Free a superseded catalog object."""
    db.open_root(root).destroy()
