"""Human-readable dumps of on-disk structures.

``dump_space`` renders a buddy space the way Figure 3 is drawn — one row
per canonical segment, with the raw map bytes alongside — and
``dump_object`` prints a positional tree the way Figure 5 is drawn.

CLI::

    python -m repro.tools.inspect image.db            # whole volume
    python -m repro.tools.inspect image.db --objects  # + layout table
    python -m repro.tools.inspect image.db --space 0  # one directory
    python -m repro.tools.inspect image.db --root 42  # one object tree

The volume summary is computed by the storage-health collector
(:func:`repro.obs.health.collect_volume_health`), so the offline report
shows exactly what a running server's ``servectl health`` would.
"""

from __future__ import annotations

import argparse

from repro.api import EOSDatabase
from repro.buddy.space import BuddySpace
from repro.core.tree import LargeObjectTree, walk_index
from repro.obs.health import VolumeHealth, collect_volume_health
from repro.util.fmt import human_bytes


def dump_space(space: BuddySpace, *, max_rows: int = 64) -> str:
    """Render one buddy space's directory: counts plus the segment list."""
    lines = [
        f"buddy space: {space.capacity} pages of {space.page_size} bytes, "
        f"max segment 2^{space.max_type} = {space.max_segment_pages} pages",
        "count array: "
        + "  ".join(
            f"[{t}]={c}" for t, c in enumerate(space.counts) if c
        ),
        f"free pages: {space.free_pages()} / {space.capacity}",
        "segments:",
    ]
    segments = space.amap.decode()
    for seg in segments[:max_rows]:
        byte_index = seg.start // 4
        raw = space.amap.raw[byte_index]
        status = "alloc" if seg.allocated else "free "
        lines.append(
            f"  [{seg.start:>6} .. {seg.end - 1:>6}]  {status}  "
            f"{seg.size:>5} pages   map[{byte_index}]=0x{raw:02X}"
        )
    if len(segments) > max_rows:
        lines.append(f"  ... {len(segments) - max_rows} more segments")
    return "\n".join(lines)


def dump_object(tree: LargeObjectTree, *, max_entries: int = 32) -> str:
    """Render an object's positional tree, Figure 5 style."""
    root = tree.read_root()
    lines = [
        f"object @ root page {tree.root_page}: {root.total_bytes} bytes, "
        f"height {root.level + 1}"
    ]
    if not root.n_entries:
        return lines[0] + "\n  (empty)"
    offset = 0  # bytes held by the leaf-parents already rendered
    for page, node in walk_index(tree.root_page, root, tree.pager.read):
        pad = "  " * (root.level - node.level + 1)
        kind = "leaf-parent" if node.level == 0 else f"level {node.level}"
        lines.append(f"{pad}node @ page {page} ({kind}): cumulative {list(node.cum)}")
        if node.level:
            continue
        start = offset
        for end, child, n_pages in zip(node.cum[:max_entries], node.child, node.pages):
            lines.append(
                f"{pad}  bytes [{start} .. {offset + end - 1}] "
                f"-> segment @ page {child} x{n_pages}"
            )
            start = offset + end
        if node.n_entries > max_entries:
            lines.append(f"{pad}  ... {node.n_entries - max_entries} more segments")
        offset += node.total_bytes
    return "\n".join(lines)


#: ``--sort`` keys for the layout table: column label -> sort key.
_OBJECT_SORTS = {
    "seeks": lambda layout: -layout.est_seeks_per_mb,
    "extents": lambda layout: (-layout.runs, -layout.extents),
}


def dump_objects(
    health: VolumeHealth, *, sort: str | None = None, heat=None
) -> str:
    """The per-object layout table (extents, contiguity, est. seeks/MB).

    ``sort`` orders rows worst-first by ``seeks`` (est. seeks/MB),
    ``extents`` (disk runs), or ``heat`` (read temperature; needs a
    ``heat`` mapping ``oid -> (read, write)`` such as
    :meth:`~repro.obs.health.HeatTracker.snapshot` returns — offline
    images have no heat, so every row shows 0).
    """
    temps = heat if heat is not None else {}
    rows = list(health.objects)
    if sort == "heat":
        rows.sort(key=lambda layout: -temps.get(layout.oid, (0.0, 0.0))[0])
    elif sort is not None:
        rows.sort(key=_OBJECT_SORTS[sort])
    lines = [
        f"{'oid':>6}  {'size':>10}  {'extents':>7}  {'runs':>5}  "
        f"{'contig':>6}  {'seeks/MB':>8}  {'heat':>6}  {'cow':>5}"
    ]
    for layout in rows:
        cow = "-" if layout.cow_sharing is None else f"{layout.cow_sharing:.2f}"
        read_temp = temps.get(layout.oid, (0.0, 0.0))[0]
        lines.append(
            f"{layout.oid:>6}  {human_bytes(layout.size_bytes):>10}  "
            f"{layout.extents:>7}  {layout.runs:>5}  "
            f"{layout.contiguity:>6.2f}  {layout.est_seeks_per_mb:>8.1f}  "
            f"{read_temp:>6.2f}  {cow:>5}"
        )
    if health.objects_total > len(health.objects):
        lines.append(
            f"  ... {health.objects_total - len(health.objects)} more objects"
        )
    return "\n".join(lines)


def dump_candidates(db, health: VolumeHealth, *, heat=None) -> str:
    """The compaction-candidates view: the cost model's ranked victims.

    Runs the same :func:`~repro.compact.policy.plan_victims` the online
    compactor runs, so the offline report answers "what would
    ``servectl compact`` move, and in what order" without moving
    anything.
    """
    from repro.compact.policy import plan_victims

    victims = plan_victims(
        health, max_segment_pages=db.buddy.max_segment_pages, heat=heat
    )
    if not victims:
        return "compaction candidates: none (no object saves enough seeks)"
    lines = [
        f"compaction candidates ({len(victims)}), best payback first:",
        f"{'oid':>6}  {'score':>7}  {'saves/MB':>8}  {'heat':>6}  "
        f"{'space':>5}  {'pages':>6}  {'runs':>5}",
    ]
    for victim in victims:
        lines.append(
            f"{victim.oid:>6}  {victim.score:>7.2f}  "
            f"{victim.seeks_saved_per_mb:>8.2f}  {victim.read_heat:>6.2f}  "
            f"{victim.home_space:>5}  {victim.leaf_pages:>6}  "
            f"{victim.runs:>5}"
        )
    return "\n".join(lines)


def dump_volume(
    db: EOSDatabase,
    *,
    objects: bool = False,
    sort: str | None = None,
    candidates: bool = False,
) -> str:
    """Summarise a database: layout, free-space health, catalogued objects.

    The space and layout numbers come from one
    :func:`~repro.obs.health.collect_volume_health` walk — the same
    collector the server's HealthMonitor samples — so the offline
    report and the live HEALTH section can never disagree about what
    "fragmented" means.  ``objects=True`` appends the full per-object
    layout table.
    """
    health = collect_volume_health(db, max_objects=None)
    lines = [
        f"volume: {db.disk.num_pages} pages of {db.disk.page_size} bytes "
        f"({human_bytes(db.disk.size_bytes)}), {db.volume.n_spaces} buddy "
        f"space(s) of {db.volume.space_capacity} pages",
        f"free: {health.free_pages} pages "
        f"({human_bytes(health.free_pages * db.disk.page_size)}) in "
        f"{health.free_extent_count} extent(s), largest "
        f"{health.largest_free_extent} pages",
        f"health: utilization {health.utilization:.1%}, fragmentation "
        f"index {health.frag_index:.3f}",
        f"objects: {health.objects_total}",
    ]
    for layout in health.objects:
        lines.append(
            f"  oid {layout.oid}: {human_bytes(layout.size_bytes)} in "
            f"{layout.extents} extent(s) over {layout.runs} disk run(s), "
            f"contiguity {layout.contiguity:.2f}, "
            f"~{layout.est_seeks_per_mb:.1f} seeks/MB"
        )
    if objects and health.objects:
        lines.append("object layout:")
        lines.append(dump_objects(health, sort=sort))
    if candidates:
        lines.append(dump_candidates(db, health))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: dump a saved volume image (or one space/object)."""
    parser = argparse.ArgumentParser(description="Inspect an EOS volume image")
    parser.add_argument("image", help="file written by EOSDatabase.save()")
    parser.add_argument("--space", type=int, help="dump one buddy space's map")
    parser.add_argument("--root", type=int, help="dump the object tree at this root page")
    parser.add_argument("--objects", action="store_true",
                        help="include the per-object layout table "
                             "(extents, contiguity, est. seeks/MB)")
    parser.add_argument("--sort", choices=("seeks", "heat", "extents"),
                        default=None,
                        help="order the --objects table worst-first by this "
                             "column (heat is always 0 on a saved image)")
    parser.add_argument("--candidates", action="store_true",
                        help="append the compaction-candidates view: what "
                             "the online compactor's cost model would move, "
                             "in order")
    args = parser.parse_args(argv)
    db = EOSDatabase.open_file(args.image)
    if args.space is not None:
        print(dump_space(db.buddy.load_space(args.space)))
    elif args.root is not None:
        print(dump_object(db.open_root(args.root).tree))
    else:
        print(dump_volume(
            db, objects=args.objects, sort=args.sort,
            candidates=args.candidates,
        ))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
