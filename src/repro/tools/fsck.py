"""Whole-database consistency checking ("fsck" for EOS volumes).

Cross-checks four independent sources of truth:

1. every buddy space's directory (count array vs. allocation map,
   maximal coalescing, encoding well-formedness);
2. every catalogued object's tree (counts, occupancy, segment sizes);
3. the *page ledger*: each allocatable page must be either free in its
   buddy space or claimed by exactly one owner (a segment, an index
   page, or an object root).  Pages allocated but claimed by nobody are
   leaks; pages claimed by two owners are corruption;
4. the persisted *catalog* (:mod:`repro.catalog`): the object page 0
   names must walk and decode with the codec's own strict ``decode``,
   its pages join the ledger, file names must be unique, and every
   member oid must resolve to an object the same catalog holds.  A
   volume never saved names no catalog and stays clean;
5. on a versioning-enabled database (:mod:`repro.versions`), every
   object's *version chain*: version numbers must be strictly
   increasing, the newest record's root must be the object's root (a
   mismatch means the chain and the object diverged), and every
   retained version's root must resolve to a readable tree.  Old
   versions' trees join the page ledger — pages shared between two
   versions of the *same* object are the normal CoW case, while a page
   claimed by two different objects is still corruption, and a page
   reachable from no live version (and no latest tree) is a leak.
   Each older retained record's *dead list* (what the reclaimer frees
   when it expires) must equal its pages minus the next version's, by
   fsck's own walks — after an attach these are the lists the catalog
   persisted; every listed page must be allocated and reachable from
   no newer retained version, and the latest's list is empty;
6. the *storage-health collector* (:mod:`repro.obs.health`): its free
   totals and utilization are re-derived from fsck's own segment walk —
   a disagreement means dashboards show numbers the ledger disowns;
7. the *per-object layout metrics* the online compactor
   (:mod:`repro.compact`) plans victims from and claims credit
   against: each object's extent list is re-derived from fsck's own
   tree walk and cross-checked against the buddy allocation map (every
   extent fully allocated, inside one buddy space), the collector's
   extent/run/spare-page/home-space numbers, and — on a versioned
   database — the version manager's page-sharing ledger (the collector's
   ``cow_sharing`` must match the sharing fsck computes from the
   per-version page sets it claimed itself).  After a compaction pass
   this is the check that the relocated layout being reported is the
   layout actually on disk;
8. on a live versioned database, the snapshot readers' node cache
   (:class:`~repro.versions.pager.DiskNodePager`): every cached page
   must be allocated, reachable from a live version, and decode to the
   node the cache holds — an entry that breaks the cache's entry/exit
   rules would serve readers bytes the disk no longer has.

CLI::

    python -m repro.tools.fsck image.db
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro import catalog
from repro.analysis.buddycheck import check_manager_space, check_space
from repro.api import EOSDatabase
from repro.core.node import Node
from repro.core.tree import walk_index
from repro.errors import ReproError, VolumeLayoutError
from repro.util.bitops import ceil_div


@dataclass
class FsckReport:
    """Findings of one check run."""

    objects_checked: int = 0
    spaces_checked: int = 0
    files_checked: int = 0
    versions_checked: int = 0
    pages_free: int = 0
    pages_claimed: int = 0
    #: Leaf pages past what the objects' bytes need (their tails' spare).
    spare_pages: int = 0
    leaked_pages: list[int] = field(default_factory=list)
    double_claimed: list[int] = field(default_factory=list)
    claims_of_free_pages: list[int] = field(default_factory=list)
    duplicate_file_names: list[str] = field(default_factory=list)
    dangling_file_members: list[tuple[str, int]] = field(default_factory=list)
    dangling_version_roots: list[tuple[int, int]] = field(default_factory=list)
    nonmonotonic_chains: list[int] = field(default_factory=list)
    stale_catalog_roots: list[int] = field(default_factory=list)
    health_disagreements: list[str] = field(default_factory=list)
    layout_disagreements: list[str] = field(default_factory=list)
    snapshot_cache_disagreements: list[str] = field(default_factory=list)
    dead_list_disagreements: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.errors
            or self.leaked_pages
            or self.double_claimed
            or self.claims_of_free_pages
            or self.duplicate_file_names
            or self.dangling_file_members
            or self.dangling_version_roots
            or self.nonmonotonic_chains
            or self.stale_catalog_roots
            or self.health_disagreements
            or self.layout_disagreements
            or self.snapshot_cache_disagreements
            or self.dead_list_disagreements
        )

    def summary(self) -> str:
        """One-paragraph human-readable summary of the findings."""
        status = "CLEAN" if self.clean else "CORRUPT"
        lines = [
            f"fsck: {status} — {self.objects_checked} objects, "
            f"{self.spaces_checked} spaces, {self.files_checked} files, "
            f"{self.pages_claimed} pages claimed, {self.pages_free} free, "
            f"{self.spare_pages} spare tail pages",
        ]
        if self.leaked_pages:
            lines.append(f"  leaked pages ({len(self.leaked_pages)}): "
                         f"{self.leaked_pages[:10]}...")
        if self.double_claimed:
            lines.append(f"  double-claimed pages: {self.double_claimed[:10]}")
        if self.claims_of_free_pages:
            lines.append(
                f"  claimed-but-free pages: {self.claims_of_free_pages[:10]}"
            )
        if self.duplicate_file_names:
            lines.append(
                f"  duplicate file names: {self.duplicate_file_names[:10]}"
            )
        if self.dangling_file_members:
            lines.append(
                "  dangling file members: "
                + ", ".join(
                    f"{name!r} -> oid {oid}"
                    for name, oid in self.dangling_file_members[:10]
                )
            )
        if self.dangling_version_roots:
            lines.append(
                "  dangling version roots: "
                + ", ".join(
                    f"oid {oid} v{version}"
                    for oid, version in self.dangling_version_roots[:10]
                )
            )
        if self.nonmonotonic_chains:
            lines.append(
                f"  non-monotonic version chains: {self.nonmonotonic_chains[:10]}"
            )
        if self.stale_catalog_roots:
            lines.append(
                f"  chain/catalog root mismatches: {self.stale_catalog_roots[:10]}"
            )
        if self.health_disagreements:
            lines.extend(
                f"  health collector disagreement: {d}"
                for d in self.health_disagreements[:10]
            )
        if self.layout_disagreements:
            lines.extend(
                f"  object layout disagreement: {d}"
                for d in self.layout_disagreements[:10]
            )
        if self.snapshot_cache_disagreements:
            lines.extend(
                f"  snapshot cache disagreement: {d}"
                for d in self.snapshot_cache_disagreements[:10]
            )
        if self.dead_list_disagreements:
            lines.extend(
                f"  dead list disagreement: {d}"
                for d in self.dead_list_disagreements[:10]
            )
        lines.extend(f"  error: {e}" for e in self.errors)
        return "\n".join(lines)


def fsck(db: EOSDatabase, *, expect_no_leaks: bool = True) -> FsckReport:
    """Run all checks; never raises — findings land in the report.

    ``expect_no_leaks=False`` suppresses leak findings, for volumes known
    to contain objects outside the catalog (client-placed roots).
    """
    report = FsckReport()

    # 1. Allocator state, and the set of allocated pages.  The directory
    # checks are the same core the runtime buddy sanitizer runs
    # (repro.analysis.buddycheck) — fsck reports what the sanitizer
    # raises, so on-disk and in-memory validation cannot drift apart.
    allocated: set[int] = set()
    space_free: dict[int, int] = {}
    for index in range(db.volume.n_spaces):
        extent = db.volume.spaces[index]
        try:
            space = db.buddy.load_space(index)
        except ReproError as exc:
            report.errors.append(f"space {index}: {exc}")
            continue
        check = check_space(space)
        found = check.problems + check_manager_space(db.buddy, index, space, check)
        report.errors.extend(f"space {index}: {p}" for p in found)
        if check.segments is None:
            continue
        segments = check.segments
        if check.ok:
            report.spaces_checked += 1
        space_free[index] = 0
        for seg in segments:
            pages = range(
                extent.to_physical(seg.start),
                extent.to_physical(seg.start) + seg.size,
            )
            if seg.allocated:
                allocated.update(pages)
            else:
                report.pages_free += seg.size
                space_free[index] += seg.size

    # 2. Object trees, and the pages they claim.  ``claim_oid`` records
    # which object a page belongs to: on a versioned database, pages
    # shared between two versions of the *same* object are the normal
    # CoW case and re-claim silently, while a page claimed by two
    # different objects stays a double-claim finding.
    claims: dict[int, str] = {}
    claim_oid: dict[int, object] = {}

    def claim(page: int, n: int, what: str, oid: object = None) -> None:
        for p in range(page, page + n):
            if p in claims:
                if oid is not None and claim_oid.get(p) == oid:
                    continue
                report.double_claimed.append(p)
            elif p not in allocated:
                report.claims_of_free_pages.append(p)
            else:
                claims[p] = what
                if oid is not None:
                    claim_oid[p] = oid

    versioned = db.versions is not None
    # fsck's own record of each object's leaf extents (in scan order) and,
    # on a versioned database, each version's full page set — the raw
    # material for the compaction-layout cross-check below.
    leaf_extents: dict[int, list[tuple[int, int, int]]] = {}
    version_pages: dict[int, list[set[int]]] = {}
    for oid, obj in sorted(db._objects.items()):
        try:
            obj.verify()
        except ReproError as exc:
            report.errors.append(f"object {oid}: {exc}")
            continue
        report.objects_checked += 1
        share = oid if versioned else None
        extents = leaf_extents.setdefault(oid, [])
        latest_pages = _claim_tree(db, obj.root_page, f"oid {oid}", share, claim, extents)
        report.spare_pages += _spare_pages(db, extents)
        if versioned:
            version_pages[oid] = [latest_pages]

    if versioned:
        _check_version_chains(db, report, allocated, claim, version_pages)
        _check_snapshot_cache(db, report, allocated, version_pages)

    # 3. The persisted catalog: its own pages, and its file groups.
    _check_catalog(db, report, claim)

    report.pages_claimed = len(claims)
    if expect_no_leaks:
        report.leaked_pages = sorted(allocated - set(claims))

    # 4. The storage-health collector must agree with this independent
    # segment walk — it is what monitoring dashboards and ``servectl
    # health`` report, so a drift between the two would mean operators
    # see numbers fsck cannot vouch for.
    _check_health_agreement(db, report, space_free)

    # 5. The per-object layout metrics the compactor plans from must
    # describe the extents fsck just walked — the post-compaction
    # cross-check that "frag improved" claims match the disk.
    _check_layout_agreement(db, report, allocated, leaf_extents, version_pages)
    return report


def _claim_tree(
    db: EOSDatabase, root_page: int, label: str, share, claim, extents=None
) -> set[int]:
    """Claim every page one tree reaches: its root, its index pages and
    its whole leaf runs, in :func:`~repro.core.tree.walk_index` order.

    ``label`` names the owner in the ledger (``"oid 7"``, ``"oid 7 v3"``)
    and ``share`` is the oid whose other versions may claim the same
    pages (None on an unversioned database).  The leaf runs are appended
    to ``extents`` in scan order when it is given, as ``(first_page,
    n_pages, byte_count)``.  Returns the tree's page set, the accounting
    the version manager's sharing ledger uses.
    """
    claim(root_page, 1, f"root of {label}", share)
    pages: set[int] = set()
    for page, node in walk_index(root_page, db.pager.read(root_page), db.pager.read):
        if pages:  # every node after the root
            claim(page, 1, f"index of {label}", share)
        pages.add(page)
        if node.level == 0:
            ends = node.cum
            for i, (child, n_pages) in enumerate(zip(node.child, node.pages)):
                claim(child, n_pages, f"segment of {label}", share)
                pages.update(range(child, child + n_pages))
                if extents is not None:
                    count = ends[i] - (ends[i - 1] if i else 0)
                    extents.append((child, n_pages, count))
    return pages


def _spare_pages(db: EOSDatabase, extents: list[tuple[int, int, int]]) -> int:
    """Leaf pages of ``extents`` past what their bytes need."""
    ps = db.config.page_size
    return sum(pages - ceil_div(count, ps) for _, pages, count in extents)


def _check_health_agreement(
    db: EOSDatabase, report: FsckReport, space_free: dict[int, int]
) -> None:
    """Cross-check :func:`~repro.obs.health.collect_volume_health`.

    The collector derives free totals by merging decoded segments into
    extents; fsck derives them from :func:`check_space`'s canonical
    segment list.  Both must report the same free-page totals per space
    and volume-wide, and the collector's utilization must match the
    ledger's.
    """
    from repro.obs.health import collect_volume_health

    try:
        health = collect_volume_health(db, max_objects=0, cow_sharing=False)
    except ReproError as exc:
        # Spaces fsck already reported broken will fail the collector
        # too; that is not a *disagreement*.
        if not report.errors:
            report.health_disagreements.append(f"collector failed: {exc}")
        return
    if health.free_pages != report.pages_free:
        report.health_disagreements.append(
            f"free pages: collector {health.free_pages} "
            f"vs fsck {report.pages_free}"
        )
    for space in health.spaces:
        expected = space_free.get(space.index)
        if expected is not None and space.free_pages != expected:
            report.health_disagreements.append(
                f"space {space.index} free pages: collector "
                f"{space.free_pages} vs fsck {expected}"
            )
    total = db.volume.total_data_pages
    if total:
        ledger_utilization = 1.0 - report.pages_free / total
        if abs(health.utilization - ledger_utilization) > 1e-9:
            report.health_disagreements.append(
                f"utilization: collector {health.utilization:.6f} "
                f"vs fsck {ledger_utilization:.6f}"
            )


def _check_layout_agreement(
    db: EOSDatabase,
    report: FsckReport,
    allocated: set[int],
    leaf_extents: dict[int, list[tuple[int, int, int]]],
    version_pages: dict[int, list[set[int]]],
) -> None:
    """Cross-check the layout metrics the online compactor relies on.

    :func:`repro.compact.policy.plan_victims` scores objects from the
    health collector's per-object layouts, and a compaction pass's
    ``frag_delta`` is computed from the same collector — so after a
    relocation these numbers *are* the claim that pages moved where the
    report says.  fsck re-derives them from its own tree walk
    (``leaf_extents``): every extent must sit fully inside allocated
    buddy segments and inside a single buddy space (extents never span
    space boundaries — the invariant contiguous relocation depends on),
    and the collector's extent/run/home-space numbers must match the
    walk.  On a versioned database the collector's ``cow_sharing`` is
    recomputed from the per-version page sets fsck claimed itself,
    catching a sharing ledger that diverged from the trees (a CoW
    relocation that freed pages an old snapshot still reaches would
    surface here as well as in the page ledger).
    """
    from repro.obs.health import collect_volume_health

    try:
        health = collect_volume_health(db, max_objects=None)
    except ReproError as exc:
        if not report.errors:
            report.health_disagreements.append(f"collector failed: {exc}")
        return
    for layout in health.objects:
        extents = leaf_extents.get(layout.oid)
        if extents is None:
            # verify() already failed (reported above) or the collector
            # sampled an object the catalog walk never saw.
            continue
        runs: list[tuple[int, int]] = []
        for first, pages, _ in extents:
            if any(p not in allocated for p in range(first, first + pages)):
                report.layout_disagreements.append(
                    f"oid {layout.oid}: extent @ {first} x{pages} not in "
                    f"the buddy allocation map"
                )
            if pages and db.buddy.space_of(first) != db.buddy.space_of(
                first + pages - 1
            ):
                report.layout_disagreements.append(
                    f"oid {layout.oid}: extent @ {first} x{pages} spans "
                    f"buddy spaces"
                )
            if runs and runs[-1][0] + runs[-1][1] == first:
                runs[-1] = (runs[-1][0], runs[-1][1] + pages)
            else:
                runs.append((first, pages))
        if layout.extents != len(extents) or layout.runs != len(runs):
            report.layout_disagreements.append(
                f"oid {layout.oid}: collector reports {layout.extents} "
                f"extents / {layout.runs} runs vs fsck "
                f"{len(extents)} / {len(runs)}"
            )
        spare = _spare_pages(db, extents)
        if layout.spare_pages != spare:
            report.layout_disagreements.append(
                f"oid {layout.oid}: collector reports {layout.spare_pages} "
                f"spare pages vs fsck {spare}"
            )
        home = db.buddy.space_of(runs[0][0]) if runs else -1
        if layout.home_space != home:
            report.layout_disagreements.append(
                f"oid {layout.oid}: collector home space "
                f"{layout.home_space} vs fsck {home}"
            )
        if layout.cow_sharing is not None:
            sets = version_pages.get(layout.oid, [])
            total = sum(len(s) for s in sets)
            union = len(set().union(*sets)) if sets else 0
            sharing = 1.0 - union / total if total else 0.0
            if abs(layout.cow_sharing - sharing) > 1e-9:
                report.layout_disagreements.append(
                    f"oid {layout.oid}: collector cow_sharing "
                    f"{layout.cow_sharing:.4f} vs fsck page sets "
                    f"{sharing:.4f}"
                )


def _check_version_chains(
    db: EOSDatabase,
    report: FsckReport,
    allocated: set[int],
    claim,
    version_pages: dict[int, list[set[int]]],
) -> None:
    """Validate every version chain and ledger its retained trees.

    Chains come from the live :class:`~repro.versions.VersionManager`
    (after an attach, the catalog's chains: each object's root is its
    newest record's).  The newest record is the object's current state
    — its tree was walked by the main object pass — so only *older*
    retained versions are walked here, claiming their pages with the
    owning oid so intra-object CoW sharing is not a finding.
    The walks then judge the chain's dead lists.
    """
    for oid, chain in sorted(db.versions.snapshot_chains().items()):
        # Each record's page set, where fsck could walk it.
        walked: list[set[int] | None] = [None] * len(chain)
        if any(a.version >= b.version for a, b in zip(chain, chain[1:])):
            report.nonmonotonic_chains.append(oid)
        try:
            catalog_root = db._objects[oid].root_page
        except KeyError:
            report.errors.append(f"version chain for unknown oid {oid}")
            continue
        if chain and chain[-1].root_page != catalog_root:
            report.stale_catalog_roots.append(oid)
        elif oid in version_pages:
            walked[-1] = version_pages[oid][0]
        for i, record in enumerate(chain):
            if record.root_page not in allocated:
                report.dangling_version_roots.append((oid, record.version))
                continue
            report.versions_checked += 1
            if record is chain[-1]:
                continue  # the latest tree was walked by the object pass
            try:
                pages = _claim_tree(
                    db, record.root_page, f"oid {oid} v{record.version}", oid, claim
                )
                version_pages.setdefault(oid, []).append(pages)
                walked[i] = pages
            except (ReproError, ValueError) as exc:
                report.dangling_version_roots.append((oid, record.version))
                report.errors.append(
                    f"object {oid} version {record.version}: {exc}"
                )
        _check_dead_lists(report, oid, chain, walked, allocated)


def _check_dead_lists(
    report: FsckReport,
    oid: int,
    chain: list,
    walked: list[set[int] | None],
    allocated: set[int],
) -> None:
    """Judge each record's dead list by fsck's own walks: it must be
    pages(record) - pages(next), allocated, and reachable from no newer
    retained version; the latest record's must be empty.  A record
    whose walk (or its successor's) failed is already a finding and is
    skipped here."""
    for i, record in enumerate(chain):
        listed = {p for first, n in record.dead for p in range(first, first + n)}
        where = f"oid {oid} v{record.version}"
        if i == len(chain) - 1:
            if listed:
                report.dead_list_disagreements.append(
                    f"{where} is the latest but lists {len(listed)} dead pages"
                )
            continue
        pages, newer = walked[i], walked[i + 1:]
        if pages is None or newer[0] is None:
            continue
        expect = pages - newer[0]
        if listed != expect:
            report.dead_list_disagreements.append(
                f"{where} differs from the walk at page {min(listed ^ expect)}"
            )
        if listed - allocated:
            report.dead_list_disagreements.append(
                f"{where} lists free page {min(listed - allocated)}"
            )
        reached = listed & set().union(*(s for s in newer if s is not None))
        if reached:
            report.dead_list_disagreements.append(
                f"{where} lists page {min(reached)}, which a newer version reaches"
            )


def _check_snapshot_cache(
    db: EOSDatabase,
    report: FsckReport,
    allocated: set[int],
    version_pages: dict[int, list[set[int]]],
) -> None:
    """Every node the snapshot readers' cache holds must sit on an
    allocated page that a live version reaches and equal what the disk
    decodes to there (read with ``peek``, so unaccounted)."""
    live = set().union(*(pages for sets in version_pages.values() for pages in sets))
    for page, node in sorted(db.versions.snap_pager.cached().items()):
        if page not in allocated:
            report.snapshot_cache_disagreements.append(f"page {page} is free")
        elif page not in live:
            report.snapshot_cache_disagreements.append(
                f"page {page} is reachable from no live version"
            )
        else:
            try:
                same = Node.from_page(db.disk.peek(page)) == node
            except ReproError:
                same = False
            if not same:
                report.snapshot_cache_disagreements.append(
                    f"page {page} differs from disk"
                )


def _check_catalog(db: EOSDatabase, report: FsckReport, claim) -> None:
    """Claim the pages of the catalog page 0 names and judge its file
    groups: member oids resolve against the objects it holds."""
    root = catalog.root_of(db.disk.read_page(0))
    if not root:
        return
    try:
        _claim_tree(db, root, "catalog", None, claim)
    except (ReproError, ValueError) as exc:
        report.errors.append(f"catalog: root page {root} does not walk: {exc}")
        return
    try:
        saved = catalog.load(db, root)
    except VolumeLayoutError as exc:
        report.errors.append(str(exc))
        return
    names: set[str] = set()
    for group in saved.files:
        if group.name in names:
            report.duplicate_file_names.append(group.name)
        names.add(group.name)
        report.dangling_file_members.extend(
            (group.name, oid) for oid in group.members if oid not in saved.roots
        )
        report.files_checked += 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: check a saved volume image; exit 1 if corrupt."""
    parser = argparse.ArgumentParser(description="Check an EOS volume image")
    parser.add_argument("image", help="file written by EOSDatabase.save()")
    parser.add_argument(
        "--allow-leaks", action="store_true",
        help="do not report allocated-but-unclaimed pages",
    )
    args = parser.parse_args(argv)
    try:
        db = EOSDatabase.open_file(args.image)
    except ReproError as exc:  # the image does not attach: one finding
        report = FsckReport(errors=[str(exc)])
    else:
        report = fsck(db, expect_no_leaks=not args.allow_leaks)
    print(report.summary())
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
