"""Durability tests for the answer tier (WAL + snapshot backed Task Cache)."""

import pytest

from repro.core.tasks.task_cache import TaskCache
from repro.errors import StorageError
from repro.storage.answer_tier import ANSWERS_LOG_SPEC, ANSWERS_WAL_FILENAME, DurableAnswerTier
from repro.storage.snapshot import write_snapshot
from repro.storage.wal import WriteAheadLog


def _warm_cache(tier):
    cache = TaskCache()
    cache.attach_tier(tier)
    cache.store("findCEO", ("Acme",), {"CEO": "Jane"}, cost=0.075)
    cache.store("findCEO", ("Bolt",), {"CEO": "Ana"}, cost=0.075)
    cache.store("isRed", ("mug",), True, cost=0.045)
    return cache


class TestDurableAnswerTier:
    def test_round_trip_across_restarts(self, tmp_path):
        tier = DurableAnswerTier(tmp_path)
        _warm_cache(tier)
        tier.close()

        reopened = DurableAnswerTier(tmp_path)
        assert reopened.entry_count == 3
        fresh = TaskCache()
        assert reopened.load_into(fresh) == 3
        entry = fresh.lookup("findCEO", ("Acme",))
        assert entry is not None and entry.reduced == {"CEO": "Jane"}
        assert fresh.lookup("isRed", ("mug",)).reduced is True
        reopened.close()

    def test_checkpoint_compacts_and_survives(self, tmp_path):
        tier = DurableAnswerTier(tmp_path)
        _warm_cache(tier)
        tier.checkpoint()
        assert list(tmp_path.glob("snapshot-*"))
        tier.close()

        reopened = DurableAnswerTier(tmp_path)
        assert reopened.entry_count == 3
        # Post-checkpoint stores land in the truncated log and still replay.
        cache = TaskCache()
        reopened.load_into(cache)
        cache.attach_tier(reopened)
        cache.store("isRed", ("cup",), False, cost=0.045)
        reopened.close()
        third = DurableAnswerTier(tmp_path)
        assert third.entry_count == 4
        third.close()

    def test_a_logged_invalidation_still_replays(self, tmp_path):
        """Older logs hold ``answers_invalidated`` records; replay applies them."""
        tier = DurableAnswerTier(tmp_path)
        _warm_cache(tier)
        tier.wal.append("answers_invalidated", {"name": "findCEO"}, durable=True)
        tier.close()
        reopened = DurableAnswerTier(tmp_path)
        assert reopened.entry_count == 1
        fresh = TaskCache()
        reopened.load_into(fresh)
        assert fresh.lookup("findCEO", ("Acme",)) is None
        assert fresh.lookup("isRed", ("mug",)) is not None
        reopened.close()

    def test_a_logged_invalidation_of_every_name_still_replays(self, tmp_path):
        """A nameless ``answers_invalidated`` record drops every answer before it."""
        tier = DurableAnswerTier(tmp_path)
        cache = _warm_cache(tier)
        tier.wal.append("answers_invalidated", {"name": None}, durable=True)
        cache.store("isRed", ("cup",), False, cost=0.045)
        tier.close()
        reopened = DurableAnswerTier(tmp_path)
        assert reopened.entry_count == 1
        fresh = TaskCache()
        assert reopened.load_into(fresh) == 1
        assert fresh.lookup("isRed", ("cup",)) is not None
        assert fresh.lookup("isRed", ("mug",)) is None
        reopened.close()

    def test_imported_entries_are_journaled(self, tmp_path):
        """An answer another shard produced survives this engine's restart."""
        source = TaskCache()
        source.store("findCEO", ("Acme",), {"CEO": "Jane"}, cost=0.075)
        _, items = source.export_since(0)
        tier = DurableAnswerTier(tmp_path)
        cache = TaskCache()
        cache.attach_tier(tier)
        assert cache.import_entries(items) == 1
        tier.close()
        reopened = DurableAnswerTier(tmp_path)
        warmed = TaskCache()
        assert reopened.load_into(warmed) == 1
        assert warmed.lookup("findCEO", ("Acme",)).reduced == {"CEO": "Jane"}
        reopened.close()

    def test_refuses_an_engine_wal_directory(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"")
        with pytest.raises(StorageError):
            DurableAnswerTier(tmp_path)

    def test_fsync_always_survives_a_crash(self, tmp_path):
        tier = DurableAnswerTier(tmp_path, fsync="always")
        _warm_cache(tier)
        tier.wal.simulate_crash()
        reopened = DurableAnswerTier(tmp_path)
        assert reopened.entry_count == 3
        reopened.close()

    def test_unflushed_interval_tail_may_be_lost_but_log_stays_readable(self, tmp_path):
        tier = DurableAnswerTier(tmp_path, fsync="off")
        _warm_cache(tier)
        tier.wal.simulate_crash()
        # Whatever survived, reopening must not raise and must replay a
        # consistent prefix.
        reopened = DurableAnswerTier(tmp_path)
        assert 0 <= reopened.entry_count <= 3
        reopened.close()

    def test_preloaded_entries_do_not_echo_into_the_wal(self, tmp_path):
        tier = DurableAnswerTier(tmp_path)
        _warm_cache(tier)
        tier.close()
        reopened = DurableAnswerTier(tmp_path)
        cache = TaskCache()
        reopened.load_into(cache)
        cache.attach_tier(reopened)
        reopened.close()
        _, info = WriteAheadLog.open(tmp_path / ANSWERS_WAL_FILENAME)
        stored = [r for r in info.records if r.type == "answer_stored"]
        assert len(stored) == 3  # the original stores only, no replay echo


class TestAnswerLogVersion:
    def test_version_1_log_is_refused_by_version(self, tmp_path):
        """A version 1 log tagged each value ``{"t", "v"}`` itself; read with
        today's codec its key would come back as a dict, so it is refused."""
        with WriteAheadLog.create(
            tmp_path / ANSWERS_WAL_FILENAME, spec={"layer": "answer-tier", "version": 1}
        ) as wal:
            wal.append(
                "answer_stored",
                {
                    "name": "findCEO",
                    "key": {"t": "t", "v": [{"t": "s", "v": "Acme"}]},
                    "reduced": {"t": "s", "v": "Jane"},
                    "original_cost": 0.075,
                    "stored_at": 1.0,
                    "confidence": 1.0,
                },
            )
        with pytest.raises(StorageError, match="'version': 1"):
            DurableAnswerTier(tmp_path)

    def test_version_2_records_with_stored_at_and_confidence_still_load(self, tmp_path):
        """Entries once also carried ``stored_at`` and ``confidence``; a log
        and a snapshot holding such records load, and the fields are dropped."""
        record = {
            "name": "findCEO",
            "key": ("Acme",),
            "reduced": {"CEO": "Jane"},
            "original_cost": 0.075,
            "stored_at": 1.0,
            "confidence": 0.95,
        }
        with WriteAheadLog.create(tmp_path / ANSWERS_WAL_FILENAME, spec=ANSWERS_LOG_SPEC) as wal:
            wal.append("answer_stored", record)
        write_snapshot(
            tmp_path, {"layer": "answer-tier", "entries": [dict(record, key=("Bolt",))]}, lsn=0
        )
        tier = DurableAnswerTier(tmp_path)
        cache = TaskCache()
        assert tier.load_into(cache) == 2
        tier.close()
        for key in (("Acme",), ("Bolt",)):
            entry = cache.lookup("findCEO", key)
            assert (entry.reduced, entry.original_cost) == ({"CEO": "Jane"}, 0.075)
            assert list(entry.record("findCEO", key)) == ["name", "key", "reduced", "original_cost"]

    def test_a_log_of_another_layer_is_refused(self, tmp_path):
        WriteAheadLog.create(tmp_path / ANSWERS_WAL_FILENAME, spec={"factory": "m:f"}).close()
        with pytest.raises(StorageError, match="'factory'"):
            DurableAnswerTier(tmp_path)

    def test_tuple_keys_and_answers_round_trip_through_log_and_snapshot(self, tmp_path):
        tier = DurableAnswerTier(tmp_path)
        cache = TaskCache()
        cache.attach_tier(tier)
        cache.store("samePerson", (("a", 1), ("b", 2)), [(1, 2)], cost=0.3)
        tier.checkpoint()
        cache.store("samePerson", (("c", 3),), [(3, 4)], cost=0.3)
        tier.close()
        warmed, reopened = TaskCache(), DurableAnswerTier(tmp_path)
        assert reopened.load_into(warmed) == 2
        reopened.close()
        assert warmed.lookup("samePerson", (("a", 1), ("b", 2))).reduced == [(1, 2)]
        assert type(warmed.lookup("samePerson", (("c", 3),)).reduced[0]) is tuple


class TestEngineWarmRestart:
    def test_second_engine_answers_from_the_shared_tier(self, tmp_path):
        from repro.experiments import build_companies_engine

        sql = (
            "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
            "FROM companies"
        )

        def run_once():
            run = build_companies_engine(n_companies=5, seed=11)
            engine = run.engine
            engine.attach_answer_tier(tmp_path / "answers")
            handle = engine.query(sql)
            engine.scheduler.drain()
            engine.clock.run_until_idle()
            assert handle.is_complete
            cost = engine.total_crowd_cost
            cache_answers = engine.task_manager.stats.cache_answers
            engine.answer_tier.close()
            return cost, cache_answers

        first_cost, first_cache = run_once()
        assert first_cost > 0
        assert first_cache == 0

        second_cost, second_cache = run_once()
        assert second_cost == 0.0
        assert second_cache > 0

    def test_attach_twice_is_an_error(self, tmp_path):
        from repro.errors import QurkError
        from repro.experiments import build_companies_engine

        engine = build_companies_engine(n_companies=2, seed=11).engine
        engine.attach_answer_tier(tmp_path / "answers")
        with pytest.raises(QurkError):
            engine.attach_answer_tier(tmp_path / "other")
        engine.answer_tier.close()
