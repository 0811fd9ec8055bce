"""Copy-on-write object versioning with lock-free snapshot reads.

Every committed mutation of a versioned object publishes a brand-new
persistent root page, chained per object as ``(version_no, root_pid,
commit_ts, byte_size)`` records in the page-0 catalog.  Because the
update algorithms never overwrite existing leaf pages (paper
Section 4.5) and :class:`VersionPager` never overwrites existing index
pages either, every published root freezes a complete, immutable tree:
readers traverse it straight from disk without the buffer pool or the
``op_lock``, so they never wait behind a writer.

Retention is bounded (:attr:`~repro.core.config.EOSConfig.version_retain`);
a reclaimer frees exactly the pages reachable from an expired version
but from no surviving one.
"""

from repro.versions.manager import (
    VersionManager,
    VersionRecord,
    pack_version_section,
    unpack_version_section,
)
from repro.versions.ops import cow_append, cow_replace
from repro.versions.pager import DiskNodePager, VersionPager

__all__ = [
    "VersionManager",
    "VersionRecord",
    "VersionPager",
    "DiskNodePager",
    "cow_append",
    "cow_replace",
    "pack_version_section",
    "unpack_version_section",
]
