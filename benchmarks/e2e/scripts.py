"""Seeded op scripts: every workload's inputs, generated before timing.

A script is a plain list of ``(kind, target, offset, length, src)``
tuples.  ``target`` is an object id (read-only workloads) or an index
into the workload's document list (mutating ones); ``src`` is where in
the shared payload pool a mutation's bytes come from.  Generators track
object sizes arithmetically, so a script is a pure function of the seed
(and, for the read loops, of the seeded aged volume) — the program
under test only ever receives the generated ops.

``TRIM`` ops are part of the script but are never timed: they bound
document growth so a run of any length stays inside the volume.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array

READ, READ_INTO, INSERT, DELETE, APPEND, WRITE, STAT, TRIM = range(8)

PAYLOAD_POOL_BYTES = 1 << 20
SCAN_CHUNK = 256 << 10


def script_hash(*scripts) -> str:
    """sha256 over the generated op lists — the proof that two runs (or
    a parent and a change) were handed the same inputs."""
    digest = hashlib.sha256()
    for script in scripts:
        digest.update(array("q", itertools.chain.from_iterable(script)).tobytes())
    return digest.hexdigest()


def payload_pool(rng: random.Random) -> memoryview:
    """Random bytes every mutation slices its payload from."""
    return memoryview(rng.randbytes(PAYLOAD_POOL_BYTES))


def scan_plan(sizes: dict[int, int]) -> list[tuple]:
    """Every live object in oid order, in ``SCAN_CHUNK`` pieces."""
    plan = []
    for oid in sorted(sizes):
        for offset in range(0, sizes[oid], SCAN_CHUNK):
            plan.append(
                (READ_INTO, oid, offset, min(SCAN_CHUNK, sizes[oid] - offset), 0)
            )
    return plan


def point_read_plan(
    rng: random.Random, sizes: dict[int, int], n_ops: int,
    *, length: int = 4096, min_size: int = 8192, zipf_s: float = 1.1,
    block: int = 500,
) -> list[tuple]:
    """``n_ops`` reads of ``length`` bytes at uniform offsets in objects
    larger than ``min_size``, chosen Zipf(``zipf_s``) by popularity rank.

    Popularity drifts: every ``block`` reads the ranking is re-drawn, so
    a pass averages over many hot sets instead of inheriting the shape
    of the one or two objects a single ranking would send a third of
    its reads to (which made latency differ by 10-20 % between seeds).
    """
    oids = [oid for oid in sorted(sizes) if sizes[oid] > min_size]
    weights = [1.0 / rank ** zipf_s for rank in range(1, len(oids) + 1)]
    plan = []
    for begin in range(0, n_ops, block):
        rng.shuffle(oids)
        for oid in rng.choices(oids, weights=weights, k=min(block, n_ops - begin)):
            plan.append((READ, oid, rng.randint(0, sizes[oid] - length), length, 0))
    return plan


def edit_script(
    rng: random.Random, doc_sizes: list[int], n_ops: int,
    *, grow_limit: int = 2 << 20, trim: int = 1 << 20,
) -> list[tuple]:
    """``n_ops`` edits (plus interleaved trims) over the documents:
    35 % insert and 35 % delete of 100 B-16 KB at a uniform offset,
    15 % append of 8 KB, 15 % in-place write of 4 KB."""
    sizes = list(doc_sizes)
    script = []
    for _ in range(n_ops):
        doc = rng.randrange(len(sizes))
        size = sizes[doc]
        point = rng.random()
        if point < 0.35:
            n = rng.randint(100, 16384)
            script.append((INSERT, doc, rng.randint(0, size), n,
                           rng.randrange(PAYLOAD_POOL_BYTES - n)))
            sizes[doc] += n
        elif point < 0.70:
            n = rng.randint(100, 16384)
            script.append((DELETE, doc, rng.randint(0, size - n), n, 0))
            sizes[doc] -= n
        elif point < 0.85:
            n = 8192
            script.append((APPEND, doc, size, n,
                           rng.randrange(PAYLOAD_POOL_BYTES - n)))
            sizes[doc] += n
        else:
            n = 4096
            script.append((WRITE, doc, rng.randint(0, size - n), n,
                           rng.randrange(PAYLOAD_POOL_BYTES - n)))
        if sizes[doc] > grow_limit:
            script.append((TRIM, doc, 0, trim, 0))
            sizes[doc] -= trim
    return script


def served_script(
    rng: random.Random, doc_sizes: list[int], n_ops: int,
    *, grow_slack: int = 256 << 10, trim: int = 256 << 10,
) -> list[tuple]:
    """One client's requests over its own documents: 70 % read 16 KB,
    12 % append 8 KB, 8 % insert 4 KB, 8 % delete 4 KB, 2 % stat."""
    sizes = list(doc_sizes)
    script = []
    for _ in range(n_ops):
        doc = rng.randrange(len(sizes))
        size = sizes[doc]
        point = rng.random()
        if point < 0.70:
            n = 16384
            script.append((READ, doc, rng.randint(0, size - n), n, 0))
        elif point < 0.82:
            n = 8192
            script.append((APPEND, doc, size, n,
                           rng.randrange(PAYLOAD_POOL_BYTES - n)))
            sizes[doc] += n
        elif point < 0.90:
            n = 4096
            script.append((INSERT, doc, rng.randint(0, size), n,
                           rng.randrange(PAYLOAD_POOL_BYTES - n)))
            sizes[doc] += n
        elif point < 0.98:
            n = 4096
            script.append((DELETE, doc, rng.randint(0, size - n), n, 0))
            sizes[doc] -= n
        else:
            script.append((STAT, doc, 0, 0, 0))
        if sizes[doc] > doc_sizes[doc] + grow_slack:
            script.append((TRIM, doc, 0, trim, 0))
            sizes[doc] -= trim
    return script
