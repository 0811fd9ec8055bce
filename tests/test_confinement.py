"""Runtime thread-confinement sanitizer (EOS008's dynamic twin).

Under ``EOS_SANITIZE=confinement`` a shard claims its database's
buffer pool and buddy manager for its worker thread; any other thread
touching those entry points raises :class:`ConfinementViolation` at
the exact substrate call.  Ownership is released on shard close/kill
so tests (and embedders) can adopt the database afterwards.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.confine import ThreadConfinement
from repro.analysis.sanitize import ENV_VAR, sanitizers_from_env
from repro.core.config import EOSConfig
from repro.errors import ConfinementViolation
from repro.server.sharding import ShardSet

PAGE = 512
PAGES = 512


@pytest.fixture
def confined_set(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "confinement")
    shard_set = ShardSet.create(2, PAGES, PAGE)
    yield shard_set
    shard_set.close()


class TestThreadConfinement:
    def test_unclaimed_guard_is_permissive(self):
        guard = ThreadConfinement("test")
        guard.check("anything")  # no owner yet: any thread may enter

    def test_claim_then_foreign_thread_raises(self):
        guard = ThreadConfinement("shard-9")
        worker = threading.Thread(target=guard.claim, name="owner-thread")
        worker.start()
        worker.join()
        with pytest.raises(ConfinementViolation) as exc:
            guard.check("BufferPool.fetch")
        assert "shard-9" in str(exc.value)
        assert "owner-thread" in str(exc.value)
        assert "BufferPool.fetch" in str(exc.value)

    def test_release_restores_open_access(self):
        guard = ThreadConfinement("shard-9")
        worker = threading.Thread(target=guard.claim)
        worker.start()
        worker.join()
        guard.release()
        guard.check("BufferPool.fetch")  # no raise

    def test_owner_thread_passes(self):
        guard = ThreadConfinement("shard-9")
        guard.claim()
        guard.check("BuddyManager.allocate")  # same thread: fine


class TestShardConfinement:
    def test_worker_routed_ops_pass(self, confined_set):
        shard = confined_set.shards[0]
        oid = shard.submit(shard.db.op_create, b"payload").result()
        got = shard.submit(shard.db.op_read, oid, offset=0, length=7).result()
        assert got == b"payload"

    def test_foreign_pool_access_raises(self, confined_set):
        shard = confined_set.shards[0]
        with pytest.raises(ConfinementViolation) as exc:
            shard.db.pool.fetch(0)
        assert "shard-0" in str(exc.value)

    def test_foreign_buddy_access_raises(self, confined_set):
        shard = confined_set.shards[1]
        with pytest.raises(ConfinementViolation):
            shard.db.buddy.allocate(4)

    def test_foreign_directory_pool_access_raises(self, confined_set):
        # The allocator's own pool, reached without an alloc/free call.
        shard = confined_set.shards[1]
        with pytest.raises(ConfinementViolation):
            shard.db.buddy.load_space(0)

    def test_each_shard_confines_to_its_own_worker(self, confined_set):
        # Shard 1's worker is a foreign thread to shard 0's substrate.
        first, second = confined_set.shards
        with pytest.raises(ConfinementViolation):
            second.submit(first.db.pool.fetch, 0).result()

    def test_close_releases_ownership(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "confinement")
        shard_set = ShardSet.create(1, PAGES, PAGE)
        shard = shard_set.shards[0]
        oid = shard.submit(shard.db.op_create, b"x").result()
        assert oid >= 0
        shard_set.close()
        # The database is closed, but the guard no longer owns it: a
        # fresh adoption pattern must not trip the sanitizer.
        assert shard_set.shards[0].confinement is not None
        assert shard_set.shards[0].confinement.owner is None

    def test_kill_releases_ownership(self, confined_set):
        shard = confined_set.shards[0]
        shard.kill()
        assert shard.confinement is not None
        assert shard.confinement.owner is None
        shard.db.pool.flush_all()  # adopted access after death: fine

    def test_config_flag_enables_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        config = EOSConfig(page_size=PAGE, sanitize_confinement=True)
        shard_set = ShardSet.create(1, PAGES, PAGE, config=config)
        try:
            with pytest.raises(ConfinementViolation):
                shard_set.shards[0].db.pool.fetch(0)
        finally:
            shard_set.close()

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        shard_set = ShardSet.create(1, PAGES, PAGE)
        try:
            assert shard_set.shards[0].confinement is None
            image = shard_set.shards[0].db.pool.fetch(0)
            assert image is not None
            shard_set.shards[0].db.pool.unpin(0)
        finally:
            shard_set.close()

    def test_all_does_not_include_confinement(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "all")
        assert sanitizers_from_env().confinement is False
        monkeypatch.setenv(ENV_VAR, "confinement")
        settings = sanitizers_from_env()
        assert settings.confinement is True
        assert settings.any is True

    def test_snapshot_reads_stay_lock_free(self, monkeypatch):
        """Versioned reads bypass the pool/buddy by design — they must
        not trip the sanitizer even though they run off-worker."""
        monkeypatch.setenv(ENV_VAR, "confinement")
        config = EOSConfig(page_size=PAGE, versioning=True)
        shard_set = ShardSet.create(1, PAGES, PAGE, config=config)
        try:
            shard = shard_set.shards[0]
            oid = shard.submit(shard.db.op_create, b"versioned payload").result()
            # op_read on a versioning database takes the snapshot path,
            # which executes on the *calling* thread.
            assert shard.db.op_read(oid, offset=0, length=9) == b"versioned"
        finally:
            shard_set.close()
