"""Tests for the flow-sensitive lint rules (EOS007-EOS010).

Three layers:

* per-rule unit tests over inline snippets (the dataflow corner cases:
  laundering copies, with-scope origins, finally-covered returns,
  submit-sanctioned access, transitive blocking, version guards);
* the fixture corpus under ``tests/fixtures/lint/`` — one flagged and
  one clean file per rule EOS001-EOS010, each asserting exactly its
  target code;
* seeded-bug regressions over real shipped source: a pristine copy of
  ``core/search.py`` lints clean, and breaking its view-consuming join
  (the moral equivalent of deleting the unpin) triggers EOS007.
"""

from __future__ import annotations

import json
import re
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lintcore import lint_source, registered_rules
from repro.analysis.sarif import render_sarif
from repro.tools import lint as lint_cli

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def lint_text(source: str, path: str = "scratch.py"):
    return lint_source(textwrap.dedent(source), Path(path))


def codes(findings):
    return [f.rule for f in findings]


class TestEOS007BorrowEscapes:
    def test_alive_view_return_outside_data_path(self):
        findings = lint_text(
            """
            def leak(segio, first, n):
                view = segio.view_run(first, n)
                return view
            """
        )
        assert codes(findings) == ["EOS007"]
        assert "outside the zero-copy data path" in findings[0].message

    def test_materialized_return_is_clean(self):
        findings = lint_text(
            """
            def read(segio, first, n):
                view = segio.view_run(first, n)
                return bytes(view)
            """
        )
        assert findings == []

    def test_storage_module_may_return_alive_views(self, tmp_path):
        target = tmp_path / "repro" / "storage" / "scratch.py"
        target.parent.mkdir(parents=True)
        source = (
            "def hand_out(segio, first, n):\n"
            "    return segio.view_run(first, n)\n"
        )
        assert lint_source(source, target) == []

    def test_return_after_unpin_is_flagged_everywhere(self, tmp_path):
        # Even inside storage/: the frame may already be recycled.
        target = tmp_path / "repro" / "storage" / "scratch.py"
        target.parent.mkdir(parents=True)
        source = textwrap.dedent(
            """
            def bad(pool, page):
                image = pool.fetch(page)
                try:
                    checksum = sum(image)
                finally:
                    pool.unpin(page)
                return image
            """
        )
        findings = lint_source(source, target)
        assert codes(findings) == ["EOS007"]
        assert "after its unpin" in findings[0].message

    def test_with_scope_image_return_is_flagged(self):
        findings = lint_text(
            """
            def bad(pool, page):
                with pool.page(page) as image:
                    return image
            """
        )
        assert "EOS007" in codes(findings)
        assert any("with-scope" in f.message for f in findings)

    def test_with_scope_materialized_is_clean(self):
        findings = lint_text(
            """
            def good(pool, page):
                with pool.page(page) as image:
                    return bytes(image)
            """
        )
        assert findings == []

    def test_return_inside_finally_unpin_try_is_flagged(self):
        findings = lint_text(
            """
            def bad(pool, page):
                image = pool.fetch(page)
                try:
                    return image
                finally:
                    pool.unpin(page)
            """,
            path="repro/storage/scratch.py",
        )
        assert codes(findings) == ["EOS007"]
        assert "finally" in findings[0].message

    def test_store_into_attribute_is_flagged(self):
        findings = lint_text(
            """
            def cache_it(self, segio, first, n):
                self.cache = segio.view_run(first, n)
            """
        )
        assert "EOS007" in codes(findings)
        assert any("attribute .cache" in f.message for f in findings)

    def test_memoryview_wrapper_keeps_the_fact(self):
        findings = lint_text(
            """
            def leak(segio, first, n):
                view = memoryview(segio.view_run(first, n)).cast("B")
                return view
            """
        )
        assert codes(findings) == ["EOS007"]

    def test_closure_to_thread_sink_is_flagged(self):
        findings = lint_text(
            """
            def bad(executor, pool, page):
                image = pool.fetch(page)
                try:
                    executor.submit(lambda: image[0])
                finally:
                    pool.unpin(page)
            """
        )
        assert codes(findings) == ["EOS007"]
        assert "captures borrowed view" in findings[0].message

    def test_branch_join_keeps_tracking(self):
        findings = lint_text(
            """
            def bad(segio, first, n, flip):
                if flip:
                    view = segio.view_run(first, n)
                else:
                    view = b""
                return view
            """
        )
        assert codes(findings) == ["EOS007"]


class TestEOS008ShardConfinement:
    def test_off_worker_substrate_access_is_flagged(self):
        findings = lint_text(
            """
            def poke(shards, oid):
                shard = shards.shard_for(oid)
                return shard.db.pool.stats.hits
            """
        )
        assert codes(findings) == ["EOS008"]
        assert "shard.submit" in findings[0].message

    def test_submit_wrapped_access_is_clean(self):
        findings = lint_text(
            """
            def poke(shards, oid):
                shard = shards.shard_for(oid)
                return shard.submit(lambda: shard.db.pool.stats.hits).result()
            """
        )
        assert findings == []

    def test_worker_function_is_exempt(self):
        findings = lint_text(
            """
            def space_doc(db):
                return db.buddy.stats()

            def fan_out(shards):
                return [
                    s.submit(space_doc, s.db).result() for s in shards.shards
                ]
            """
        )
        assert findings == []

    def test_substrate_param_call_off_worker_is_flagged(self):
        findings = lint_text(
            """
            def space_doc(db):
                return db.buddy.stats()

            def inline(shards, oid):
                shard = shards.shard_for(oid)
                return space_doc(shard.db)
            """
        )
        assert codes(findings) == ["EOS008"]
        assert "off-worker" in findings[0].message

    def test_non_server_repro_module_is_out_of_scope(self, tmp_path):
        target = tmp_path / "repro" / "workloads" / "scratch.py"
        target.parent.mkdir(parents=True)
        source = (
            "def poke(shard):\n"
            "    return shard.db.pool.stats.hits\n"
        )
        assert lint_source(source, target) == []


class TestEOS009AsyncBlocking:
    def test_direct_blocking_call_is_flagged(self):
        findings = lint_text(
            """
            async def serve(volume, page):
                return volume.read_page(page)
            """
        )
        assert codes(findings) == ["EOS009"]
        assert "event loop" in findings[0].message

    def test_transitive_blocking_through_local_helper(self):
        findings = lint_text(
            """
            def persist(pool):
                pool.flush_all()

            async def checkpoint(pool):
                persist(pool)
            """
        )
        assert codes(findings) == ["EOS009"]
        assert "persist()" in findings[0].message

    def test_executor_hop_is_clean(self):
        findings = lint_text(
            """
            import asyncio

            def persist(pool):
                pool.flush_all()

            async def checkpoint(pool):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, persist, pool)
            """
        )
        assert findings == []

    def test_sync_functions_are_not_scanned(self):
        findings = lint_text(
            """
            def serve(volume, page):
                return volume.read_page(page)
            """
        )
        assert findings == []

    def test_time_sleep_is_flagged_asyncio_sleep_clean(self):
        flagged = lint_text(
            """
            import time

            async def nap():
                time.sleep(1)
            """
        )
        clean = lint_text(
            """
            import asyncio

            async def nap():
                await asyncio.sleep(1)
            """
        )
        assert codes(flagged) == ["EOS009"]
        assert clean == []


class TestEOS010VersionDiscipline:
    def test_unguarded_mutator_is_flagged(self):
        findings = lint_text(
            """
            def grow(db, oid, data):
                obj = db.get_object(oid)
                obj.append(data)
            """
        )
        assert codes(findings) == ["EOS010"]
        assert "versions" in findings[0].message

    def test_none_guard_sanctions_the_branch(self):
        findings = lint_text(
            """
            def grow(db, oid, data):
                obj = db.get_object(oid)
                if db.versions is None:
                    obj.append(data)
                else:
                    db.versions.mutate(oid, lambda o: o.append(data))
            """
        )
        assert findings == []

    def test_wrong_branch_of_the_guard_is_flagged(self):
        findings = lint_text(
            """
            def grow(db, oid, data):
                obj = db.get_object(oid)
                if db.versions is not None:
                    obj.append(data)
            """
        )
        assert codes(findings) == ["EOS010"]

    def test_mutate_unit_lambda_is_sanctioned(self):
        findings = lint_text(
            """
            def grow(versions, oid, data):
                versions.mutate(oid, lambda obj: obj.append(data))
            """
        )
        assert findings == []

    def test_non_handle_receiver_is_ignored(self):
        findings = lint_text(
            """
            def accumulate(items, data):
                items.append(data)
            """
        )
        assert findings == []


class TestFixtureCorpus:
    """Each fixture proves its rule fires (or stays quiet) end to end."""

    LINT_AS = re.compile(r"# lint-as: (\S+)")

    def fixture_findings(self, path: Path):
        source = path.read_text()
        match = self.LINT_AS.match(source)
        lint_path = Path("repro") / match.group(1) if match else path
        return lint_source(source, lint_path)

    @pytest.mark.parametrize("code", [f"EOS{n:03d}" for n in range(1, 11)])
    def test_flagged_fixture_fires_exactly_its_rule(self, code):
        path = FIXTURES / f"{code.lower()}_flagged.py"
        assert codes(self.fixture_findings(path)) == [code]

    @pytest.mark.parametrize("code", [f"EOS{n:03d}" for n in range(1, 11)])
    def test_clean_fixture_is_silent(self, code):
        path = FIXTURES / f"{code.lower()}_clean.py"
        assert self.fixture_findings(path) == []

    # Compaction-specific fixtures: a compactor that touches shard
    # substrate off-worker (EOS008) or relocates leaf extents without
    # versions.mutate (EOS010) must be caught by the same rules that
    # police the shipped compact/ modules.
    COMPACT_FIXTURES = [
        ("eos008_compactor", "EOS008"),
        ("eos010_relocate", "EOS010"),
    ]

    @pytest.mark.parametrize("stem,code", COMPACT_FIXTURES)
    def test_compact_flagged_fixture_fires_exactly_its_rule(
        self, stem, code
    ):
        path = FIXTURES / f"{stem}_flagged.py"
        assert codes(self.fixture_findings(path)) == [code]

    @pytest.mark.parametrize("stem", [s for s, _ in COMPACT_FIXTURES])
    def test_compact_clean_fixture_is_silent(self, stem):
        path = FIXTURES / f"{stem}_clean.py"
        assert self.fixture_findings(path) == []


class TestSeededBugsInShippedSource:
    """Mutating real shipped code must wake the rules up."""

    def test_pristine_search_copy_is_clean(self):
        source = (SRC / "repro" / "core" / "search.py").read_text()
        assert lint_source(source, Path("repro/core/search.py")) == []

    def test_unconsumed_view_in_search_triggers_eos007(self):
        """``read_range`` joins borrowed views into an owning ``bytes``
        before returning — that join is what licenses the views dying
        with the loop.  Replace it with a pass-through (the moral
        equivalent of deleting the unpin) and EOS007 fires."""
        source = (SRC / "repro" / "core" / "search.py").read_text()
        assert 'data = b"".join(pieces)' in source
        broken = source.replace(
            'data = b"".join(pieces)', "data = pieces[0]"
        )
        findings = lint_source(broken, Path("repro/core/search.py"))
        assert "EOS007" in codes(findings)

    def test_unguarded_destroy_in_api_triggers_eos010(self):
        """``delete_object`` routes catalogued handles through the
        version reclaimer; collapsing the branch to a bare ``destroy()``
        recreates the bug this PR fixed and EOS010 flags it."""
        source = textwrap.dedent(
            """
            def delete_object(self, oid):
                obj = self.get_object(oid)
                obj.destroy()
            """
        )
        findings = lint_source(source, Path("repro/api.py"))
        assert codes(findings) == ["EOS010"]


class TestSarifOutput:
    def sample_findings(self):
        return lint_text(
            """
            def leak(segio, first, n):
                view = segio.view_run(first, n)
                return view
            """
        )

    def test_document_shape(self):
        doc = json.loads(render_sarif(self.sample_findings()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "eos-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for code in ("EOS001", "EOS007", "EOS010"):
            assert code in rule_ids
        assert len(run["results"]) == 1

    def test_result_location_is_one_based(self):
        findings = self.sample_findings()
        doc = json.loads(render_sarif(findings))
        result = doc["runs"][0]["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == findings[0].line
        assert region["startColumn"] == findings[0].col + 1
        assert result["ruleId"] == "EOS007"
        assert result["level"] == "error"

    def test_rule_index_matches_descriptor_order(self):
        doc = json.loads(render_sarif(self.sample_findings()))
        run = doc["runs"][0]
        result = run["results"][0]
        descriptor = run["tool"]["driver"]["rules"][result["ruleIndex"]]
        assert descriptor["id"] == result["ruleId"]

    def test_empty_findings_still_valid(self):
        doc = json.loads(render_sarif([]))
        assert doc["runs"][0]["results"] == []

    def test_descriptors_carry_docstring_summaries(self):
        doc = json.loads(render_sarif([]))
        by_id = {
            r["id"]: r for r in doc["runs"][0]["tool"]["driver"]["rules"]
        }
        assert "escape" in by_id["EOS007"]["shortDescription"]["text"].lower()


class TestCLI:
    def test_sarif_format_flag(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "def leak(segio, first, n):\n"
            "    view = segio.view_run(first, n)\n"
            "    return view\n"
        )
        assert lint_cli.main(["--format", "sarif", str(target)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "EOS007"

    def test_list_rules_includes_flow_rules(self, capsys):
        assert lint_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("EOS007", "EOS008", "EOS009", "EOS010"):
            assert code in out

    def test_registry_has_all_ten_rules(self):
        assert sorted(registered_rules()) == [
            f"EOS{n:03d}" for n in range(1, 11)
        ]

    def test_changed_only_against_a_git_repo(self, tmp_path, monkeypatch, capsys):
        repo = tmp_path
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}

        def git(*args):
            subprocess.run(
                ["git", *args], cwd=repo, check=True,
                capture_output=True, env={**env, "HOME": str(tmp_path)},
            )

        git("init", "-q")
        clean = repo / "clean.py"
        clean.write_text("def ok():\n    return 1\n")
        bad = repo / "bad.py"
        bad.write_text("def ok():\n    return 2\n")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        # Introduce a violation in one file only.
        bad.write_text(
            "def leak(segio, first, n):\n"
            "    return segio.view_run(first, n)\n"
        )
        monkeypatch.chdir(repo)
        code = lint_cli.main(
            ["--changed-only", "--base-ref", "HEAD", "--format", "json", "."]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        flagged_paths = {f["path"] for f in payload["findings"]}
        assert flagged_paths == {"bad.py"}

    def test_changed_only_with_no_changes_is_clean(self, tmp_path, monkeypatch, capsys):
        repo = tmp_path
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
               "HOME": str(tmp_path)}
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True, env=env)
        (repo / "ok.py").write_text("def ok():\n    return 1\n")
        subprocess.run(["git", "add", "."], cwd=repo, check=True, env=env)
        subprocess.run(
            ["git", "commit", "-q", "-m", "seed"], cwd=repo, check=True,
            capture_output=True, env=env,
        )
        monkeypatch.chdir(repo)
        assert (
            lint_cli.main(["--changed-only", "--base-ref", "HEAD", "."]) == 0
        )

    def test_changed_only_bad_ref_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # not a git repo at all
        (tmp_path / "x.py").write_text("def f():\n    return 0\n")
        assert (
            lint_cli.main(
                ["--changed-only", "--base-ref", "nowhere", str(tmp_path)]
            )
            == 2
        )
