"""Tests for database persistence, the stream API, and the tools."""

from dataclasses import replace

import pytest

from repro import EOSConfig, EOSDatabase, catalog
from repro.core.stream import ObjectStream
from repro.errors import VolumeLayoutError
from repro.tools import dump_object, dump_space, dump_volume, fsck
from repro.tools.fsck import main as fsck_main
from repro.tools.inspect import main as inspect_main

PAGE = 256


def make_db(num_pages=4000, **cfg):
    config = EOSConfig(page_size=PAGE, threshold=4, **cfg)
    return EOSDatabase.create(num_pages=num_pages, page_size=PAGE, config=config)


def payload(n, seed=0):
    return bytes((i * 23 + seed) % 251 for i in range(n))


class TestPersistence:
    def test_save_and_reopen(self, tmp_path):
        db = make_db()
        a = db.create_object(payload(5000), size_hint=5000)
        b = db.create_object(payload(777, seed=1))
        b.insert(300, b"edited")
        path = tmp_path / "volume.db"
        db.save(path)

        reopened = EOSDatabase.open_file(
            path, config=EOSConfig(page_size=PAGE, threshold=4)
        )
        assert len(reopened.objects()) == 2
        ra = reopened.get_object(a.oid)
        rb = reopened.get_object(b.oid)
        assert ra.read_all() == a.read_all()
        assert rb.read_all() == b.read_all()
        assert reopened.free_pages() == db.free_pages()

    def test_reopened_objects_are_editable(self, tmp_path):
        db = make_db()
        obj = db.create_object(payload(3000), size_hint=3000)
        path = tmp_path / "volume.db"
        db.save(path)
        reopened = EOSDatabase.open_file(path)
        robj = reopened.get_object(obj.oid)
        robj.insert(1000, b"post-restart")
        robj.delete(0, 100)
        expected = bytearray(payload(3000))
        expected[1000:1000] = b"post-restart"
        del expected[:100]
        assert robj.read_all() == bytes(expected)
        robj.verify()

    def test_oids_continue_after_reopen(self, tmp_path):
        db = make_db()
        first = db.create_object(b"x")
        path = tmp_path / "volume.db"
        db.save(path)
        reopened = EOSDatabase.open_file(path)
        second = reopened.create_object(b"y")
        assert second.oid > first.oid

    def test_catalogs_beyond_one_page_round_trip(self, tmp_path):
        # Neither volume's catalog fits in a 4 KB page: 2 000 plain
        # objects in two files, and 64 objects with 8 retained versions.
        def plain():
            db = EOSDatabase.create(6000, 4096)
            files = [db.create_file(n, threshold=3) for n in ("even", "odd")]
            oids = [files[i % 2].create_object(payload(60, i)).oid for i in range(2000)]
            return db, oids

        def versioned():
            config = EOSConfig(page_size=4096, versioning=True, version_retain=8)
            db = EOSDatabase.create(4000, 4096, config=config)
            oids = [db.op_create(b"") for _ in range(64)]
            for round_ in range(8):
                for oid in oids:
                    db.op_append(oid, payload(100, round_))
            return db, oids

        def contents(db, oids):
            """Each object's bytes: every retained version's, if versioned."""
            return {oid: [
                db.op_read(oid, offset=0, length=v.size_bytes, version=v.version)
                for v in db.op_versions(oid)
            ] or db.op_read(oid, offset=0, length=db.op_size(oid)) for oid in oids}

        def described(db, oids):
            files = {name: (f.threshold, f.adaptive, [o.oid for o in f.objects()])
                     for name, f in db._files.items()}
            return [db.op_versions(oid) for oid in oids], files

        for build in (plain, versioned):
            twin, oids = build()
            before = contents(twin, oids), described(twin, oids)
            path = tmp_path / f"{build.__name__}.db"
            twin.save(path)
            db = EOSDatabase.open_file(path)
            assert (contents(db, oids), described(db, oids)) == before
            report = fsck(db, expect_no_leaks=True)
            assert report.clean, report.summary()
            for i in range(20):
                for oid in oids:
                    for each in (db, twin):
                        each.op_append(oid, payload(30, i))
            assert db.free_pages() == twin.free_pages()
            assert contents(db, oids) == contents(twin, oids)

    def test_attach_in_memory(self):
        db = make_db()
        obj = db.create_object(payload(500))
        db.checkpoint()
        db._write_catalog()
        attached = EOSDatabase.attach(db.disk)
        assert attached.get_object(obj.oid).read_all() == payload(500)


class TestObjectStream:
    def test_sequential_write_then_read(self):
        db = make_db()
        stream = ObjectStream(db.create_object())
        for i in range(50):
            stream.write(payload(123, seed=i))
        stream.flush()
        stream.seek(0)
        assert stream.read() == b"".join(payload(123, seed=i) for i in range(50))

    def test_append_batches_into_few_tree_updates(self):
        db = make_db()
        obj = db.create_object()
        stream = ObjectStream(obj, buffer_pages=8)
        for _ in range(100):
            stream.write(b"x" * 20)  # 2000 bytes, buffer limit 2048
        assert obj.size() < 2000  # most still buffered
        stream.flush()
        assert obj.size() == 2000

    def test_overwrite_mid_stream(self):
        db = make_db()
        stream = ObjectStream(db.create_object(payload(1000)))
        stream.seek(400)
        stream.write(b"OVERWRITE")
        stream.seek(0)
        data = stream.read()
        assert data[400:409] == b"OVERWRITE"
        assert len(data) == 1000

    def test_write_straddling_the_end_extends(self):
        db = make_db()
        stream = ObjectStream(db.create_object(b"abcdef"))
        stream.seek(4)
        stream.write(b"XYZW")
        stream.seek(0)
        assert stream.read() == b"abcdXYZW"

    def test_write_past_end_zero_fills(self):
        db = make_db()
        stream = ObjectStream(db.create_object(b"head"))
        stream.seek(10)
        stream.write(b"tail")
        stream.seek(0)
        assert stream.read() == b"head" + bytes(6) + b"tail"

    def test_seek_whence_variants(self):
        import io

        db = make_db()
        stream = ObjectStream(db.create_object(bytes(100)))
        assert stream.seek(10) == 10
        assert stream.seek(5, io.SEEK_CUR) == 15
        assert stream.seek(-20, io.SEEK_END) == 80
        with pytest.raises(ValueError):
            stream.seek(-1)

    def test_truncate(self):
        db = make_db()
        stream = ObjectStream(db.create_object(payload(500)))
        stream.seek(200)
        stream.truncate()
        stream.seek(0)
        assert stream.read() == payload(500)[:200]
        stream.truncate(300)
        assert len(stream.obj.read_all()) == 300

    def test_close_trims(self):
        db = make_db()
        obj = db.create_object()
        stream = ObjectStream(obj)
        stream.write(payload(700))
        stream.close()
        assert obj.read_all() == payload(700)
        stats = obj.stats()
        assert stats.leaf_pages == -(-700 // PAGE)  # trimmed
        assert stream.closed

    def test_copyfileobj_compatibility(self):
        import io
        import shutil

        db = make_db()
        src = io.BytesIO(payload(5000))
        dst = ObjectStream(db.create_object())
        shutil.copyfileobj(src, dst, length=512)
        dst.flush()
        assert dst.obj.read_all() == payload(5000)


class TestTools:
    def build(self):
        db = make_db()
        obj = db.create_object(payload(4000), size_hint=4000)
        obj.insert(2000, payload(300, seed=2))
        obj.delete(100, 500)
        return db, obj

    def test_dump_space(self):
        db, _ = self.build()
        text = dump_space(db.buddy.load_space(0))
        assert "buddy space" in text
        assert "count array" in text
        assert "alloc" in text and "free" in text

    def test_dump_object(self):
        db, obj = self.build()
        text = dump_object(obj.tree)
        assert f"root page {obj.root_page}" in text
        assert "segment @ page" in text

    def test_dump_volume(self):
        db, _ = self.build()
        text = dump_volume(db)
        assert "objects: 1" in text

    def test_fsck_clean(self):
        db, _ = self.build()
        report = fsck(db)
        assert report.clean, report.summary()
        assert report.objects_checked == 1
        assert "CLEAN" in report.summary()

    def test_fsck_detects_leak(self):
        db, _ = self.build()
        db.buddy.allocate(4)  # allocated, owned by nobody
        report = fsck(db)
        assert not report.clean
        assert len(report.leaked_pages) == 4

    def test_fsck_detects_double_claim(self):
        db, obj = self.build()
        # Second object whose tree points into the first object's segment.
        from repro.core.node import Entry

        thief = db.create_object()
        victim_entry = obj.segments()[0][1]
        thief.tree.append_leaf_entries(
            [Entry(PAGE, victim_entry.child, 1)]
        )
        report = fsck(db)
        assert report.double_claimed

    def test_fsck_detects_claim_of_free_page(self):
        db, obj = self.build()
        entry = obj.segments()[0][1]
        db.buddy.free(entry.child, 1)  # rug-pull one page of a live segment
        report = fsck(db)
        assert report.claims_of_free_pages

    def test_cli_round_trip(self, tmp_path, capsys):
        db, obj = self.build()
        path = str(tmp_path / "vol.db")
        db.save(path)
        assert inspect_main([path]) == 0
        assert "objects: 1" in capsys.readouterr().out
        assert inspect_main([path, "--space", "0"]) == 0
        assert "count array" in capsys.readouterr().out
        assert inspect_main([path, "--root", str(obj.root_page)]) == 0
        assert "segment @ page" in capsys.readouterr().out
        assert fsck_main([path]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_cli_dumps_a_multi_level_tree(self, tmp_path, capsys):
        config = EOSConfig(page_size=PAGE, threshold=1)
        db = EOSDatabase.create(num_pages=4000, page_size=PAGE, config=config)
        obj = db.create_object(payload(4000))
        for i in range(20):
            obj.insert((i * 997) % obj.size(), payload(30, seed=i))
        assert obj.tree.height() == 2
        path = str(tmp_path / "tree.db")
        db.save(path)
        assert inspect_main([path, "--root", str(obj.root_page)]) == 0
        out = capsys.readouterr().out
        assert out == dump_object(obj.tree) + "\n"
        assert "(level 1)" in out and out.count("(leaf-parent)") == 2

    def test_cli_layout_and_candidates_of_a_versioned_image(self, tmp_path, capsys):
        config = EOSConfig(
            page_size=1024, threshold=1, versioning=True, version_retain=2
        )
        db = EOSDatabase.create(num_pages=2000, page_size=1024, config=config)
        edited = db.op_create(payload(3000))
        appended = db.op_create(payload(500, seed=1))
        for i in range(20):
            at = (i * 997) % db.op_size(edited)
            db.op_insert(edited, payload(40, seed=i), offset=at)
            db.op_append(appended, payload(50, seed=i))
        path = str(tmp_path / "versioned.db")
        db.save(path)
        argv = [path, "--objects", "--sort", "extents", "--candidates"]
        assert inspect_main(argv) == 0
        out = capsys.readouterr().out
        table, candidates = out.split("object layout:\n")[1].split("compaction")
        # oid, size (number and unit), extents, runs, ..., cow
        rows = [line.split() for line in table.splitlines()[1:]]
        # Most disk runs first; both versioned objects share pages (cow).
        assert [int(row[0]) for row in rows] == [appended, edited]
        assert int(rows[0][4]) > int(rows[1][4])
        assert all(0 < float(row[-1]) < 1 for row in rows)
        assert candidates.startswith(" candidates (2), best payback first:")
        assert fsck_main([path]) == 0
        assert "CLEAN" in capsys.readouterr().out

class TestFsckFileCatalog:
    """fsck's judgement of the persisted catalog's file groups."""

    def build_saved(self, tmp_path, names=("docs",)):
        db = make_db()
        for name in names:
            handle = db.create_file(name, threshold=4)
            handle.create_object(payload(1000), size_hint=1000)
        db.save(str(tmp_path / "vol.db"))
        return db

    def test_clean_catalog_counts_files(self, tmp_path):
        db = self.build_saved(tmp_path, names=("docs", "media"))
        report = fsck(db)
        assert report.clean, report.summary()
        assert report.files_checked == 2
        assert "2 files" in report.summary()

    def test_detects_dangling_member_oid(self, tmp_path, rewrite_catalog):
        db = self.build_saved(tmp_path)
        rewrite_catalog(
            db, lambda c: replace(c, files=[replace(c.files[0], members=(9999,))])
        )
        report = fsck(db)
        assert not report.clean
        assert report.dangling_file_members == [("docs", 9999)]
        assert "dangling file members" in report.summary()

    def test_detects_duplicate_file_names(self, tmp_path, rewrite_catalog):
        db = self.build_saved(tmp_path, names=("aa", "ab"))
        # Rename the second group to collide with the first.
        rewrite_catalog(
            db, lambda c: replace(c, files=[c.files[0], replace(c.files[1], name="aa")])
        )
        report = fsck(db)
        assert not report.clean
        assert report.duplicate_file_names == ["aa"]
        assert "duplicate file names" in report.summary()

    def test_undecodable_section_is_an_error_not_a_crash(
        self, tmp_path, rewrite_catalog, capsys
    ):
        db = self.build_saved(tmp_path)
        rewrite_catalog(db, lambda c: catalog.encode(c)[:-5])
        report = fsck(db)
        assert not report.clean
        assert [e for e in report.errors if e.startswith("catalog: ")] == report.errors
        assert report.errors and report.leaked_pages == []
        # The command reports the same catalog as a finding: no traceback.
        path = str(tmp_path / "truncated.db")
        db.disk.save(path)
        assert fsck_main([path]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "error: catalog: truncated" in out

    def test_a_root_that_does_not_walk_is_an_error(self, tmp_path, capsys):
        db = self.build_saved(tmp_path)
        # Page 0 names a page past the end of the volume as the root.
        root = db.disk.num_pages
        db.disk.write_page(0, catalog.with_root(db.disk.read_page(0), root))
        report = fsck(db)
        assert not report.clean
        assert [e for e in report.errors if e.startswith("catalog: ")] == [
            f"catalog: root page {root} does not walk: page {root} out of "
            f"range (volume has {root} pages)"
        ]
        path = str(tmp_path / "unrooted.db")
        db.disk.save(path)
        assert fsck_main([path]) == 1
        assert f"error: catalog: root page {root} does not read" in (
            capsys.readouterr().out
        )

    def test_never_saved_volume_parses_clean(self):
        db = make_db()
        db.create_file("live-only").create_object(payload(100))
        report = fsck(db)  # page 0's catalog region is still all zeros
        assert report.clean
        assert report.files_checked == 0
