"""The content oracle: an in-harness mirror of every object's bytes.

The mirror is the judge of correctness — it never reads from the
program under test.  :class:`MirroredDB` stands between
:class:`~repro.workloads.aging.AgingWorkload` and the database so the
seeded churn that ages a volume also builds the expected content of
every surviving object; the workloads then apply their own mutations to
the same mirror and compare what they read against it.
"""

from __future__ import annotations


class Mirror:
    """Expected content per object id."""

    def __init__(self) -> None:
        self.content: dict[int, bytearray] = {}

    def create(self, oid: int, data) -> None:
        self.content[oid] = bytearray(data)

    def drop(self, oid: int) -> None:
        del self.content[oid]

    def size(self, oid: int) -> int:
        return len(self.content[oid])

    def append(self, oid: int, data) -> None:
        self.content[oid] += data

    def insert(self, oid: int, offset: int, data) -> None:
        self.content[oid][offset:offset] = data

    def delete(self, oid: int, offset: int, length: int) -> None:
        del self.content[oid][offset : offset + length]

    def write(self, oid: int, offset: int, data) -> None:
        self.content[oid][offset : offset + len(data)] = data

    def matches(self, oid: int, offset: int, got) -> bool:
        """True when ``got`` equals the expected bytes at ``offset``
        (compared through views: no copy of either side)."""
        want = memoryview(self.content[oid])[offset : offset + len(got)]
        return len(want) == len(got) and want == memoryview(got)

    def live_bytes(self) -> int:
        return sum(len(buf) for buf in self.content.values())


class MirroredDB:
    """The slice of ``EOSDatabase`` that ``AgingWorkload`` drives,
    forwarding each call and recording its effect in a :class:`Mirror`."""

    def __init__(self, db, mirror: Mirror) -> None:
        self.db = db
        self.mirror = mirror
        self.volume = db.volume

    def free_pages(self) -> int:
        return self.db.free_pages()

    def op_create(self, data=b"", *, size_hint=None) -> int:
        oid = self.db.op_create(data, size_hint=size_hint)
        self.mirror.create(oid, data)
        return oid

    def op_append(self, oid: int, data) -> int:
        size = self.db.op_append(oid, data)
        self.mirror.append(oid, data)
        return size

    def delete_object(self, oid: int) -> None:
        self.db.delete_object(oid)
        self.mirror.drop(oid)
