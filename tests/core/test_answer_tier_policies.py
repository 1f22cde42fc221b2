"""Task Cache and Task Manager bookkeeping regressions.

Covers that every answer is kept for good, the model-answers-are-cached
path, the corrected savings attribution, cross-shard export/import, the
restore of a snapshotted cache, and the per-task record leak regression —
no task record may outlive its task once a workload has fully drained,
whatever terminal path each task took (``check_task_records``).
"""

import pytest

from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import Parameter, TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import ResultSource, Task, TaskKind
from repro.core.tasks.task_cache import CacheEntry, TaskCache
from repro.core.tasks.task_manager import TaskManager
from repro.core.tasks.task_model import TaskModelRegistry
from repro.crowd import (
    MTurkSimulator,
    PopulationMix,
    SimulationClock,
    WorkerPool,
)
from repro.crowd.quality import WorkerReputation
from repro.storage.codec import pack
from repro.testing.invariants import check_task_records

from support import CallbackOracle

FILTER_SPEC = TaskSpec(
    name="isRed",
    task_type=TaskType.FILTER,
    text="Is %s red?",
    response=YesNoResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
    feature_extractor=lambda payload: payload.get("features"),
)

ORACLE = CallbackOracle(predicate=lambda item: item.payload.get("is_red", False))


def build_manager(*, cache=None, models=None, reputation=None, seed=1, pool_size=50):
    clock = SimulationClock()
    pool = WorkerPool(
        size=pool_size, seed=seed, mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0)
    )
    platform = MTurkSimulator(clock, pool, ORACLE)
    manager = TaskManager(
        platform,
        StatisticsManager(),
        BudgetLedger(),
        cache=cache,
        models=models,
        reputation=reputation,
    )
    return clock, platform, manager


def filter_task(results, name="mug", is_red=True, query_id="q1", cache_key=None, features=None):
    payload = {"args": (name,), "name": name, "is_red": is_red}
    if features is not None:
        payload["features"] = features
    return Task(
        kind=TaskKind.FILTER,
        spec=FILTER_SPEC,
        payload=payload,
        callback=results.append,
        cache_key=cache_key,
        query_id=query_id,
    )


class TestEveryAnswerIsKept:
    """As in the paper, the cache neither expires nor vets an answer."""

    def test_an_answer_is_reused_however_much_later(self):
        cache = TaskCache()
        clock, platform, manager = build_manager(cache=cache)
        results = []
        manager.submit(filter_task(results, cache_key=("mug",)))
        manager.flush()
        clock.run_until_idle()
        clock.advance_to(clock.now + 1e9)
        manager.submit(filter_task(results, cache_key=("mug",), query_id="q2"))
        assert results[-1].source is ResultSource.CACHE
        assert platform.stats.hits_created == 1

    def test_answers_of_distrusted_workers_are_cached_too(self):
        reputation = WorkerReputation()
        cache = TaskCache()
        clock, platform, manager = build_manager(
            cache=cache, reputation=reputation, pool_size=3
        )
        for worker in platform.worker_pool.workers:
            for _ in range(20):
                reputation.record_gold(worker.worker_id, False)
        results = []
        manager.submit(filter_task(results, cache_key=("mug",)))
        manager.flush()
        clock.run_until_idle()
        assert set(results[0].answers.worker_ids) <= set(reputation.flagged_workers())
        manager.submit(filter_task(results, cache_key=("mug",), query_id="q2"))
        assert results[-1].source is ResultSource.CACHE
        assert platform.stats.hits_created == 1


class TestSavingsAttribution:
    def test_cache_hit_credits_what_the_requester_avoided(self):
        cache = TaskCache()
        clock, platform, manager = build_manager(cache=cache)
        results = []
        manager.submit(filter_task(results, cache_key=("mug",)))
        manager.flush()
        clock.run_until_idle()
        assert cache.stats.dollars_saved == 0.0
        manager.submit(filter_task(results, cache_key=("mug",), query_id="q2"))
        # assignment_cost(0.01) = 0.01 + max(0.001, 0.005) = 0.015, x3.
        assert cache.stats.dollars_saved == pytest.approx(0.045)
        assert results[-1].avoided_cost == pytest.approx(0.045)
        assert manager.statistics.query("q2").dollars_saved_cache == pytest.approx(0.045)


class TestModelAnswersAreCached:
    def _trained_manager(self):
        models = TaskModelRegistry()
        model = models.register_default(
            FILTER_SPEC,
            min_observations=10,
            trust_accuracy=0.8,
            confidence_threshold=0.3,
            learning_rate=0.5,
        )
        cache = TaskCache()
        clock, platform, manager = build_manager(cache=cache, models=models)
        results = []
        for index in range(40):
            is_red = index % 2 == 0
            manager.submit(
                filter_task(
                    results,
                    name=f"item{index}",
                    is_red=is_red,
                    query_id="train",
                    features=[1.0, 0.0] if is_red else [0.0, 1.0],
                )
            )
        manager.flush()
        clock.run_until_idle()
        assert model.is_trusted
        return clock, platform, manager, cache, results

    def test_model_answer_is_stored_at_zero_cost(self):
        clock, platform, manager, cache, results = self._trained_manager()
        manager.submit(
            filter_task(
                results, name="new", cache_key=("new",), query_id="q9", features=[1.0, 0.0]
            )
        )
        assert results[-1].source is ResultSource.MODEL
        entry = cache.lookup("isRed", ("new",))
        assert entry is not None
        assert entry.original_cost == 0.0

    def test_second_identical_task_hits_the_cache_not_the_model(self):
        clock, platform, manager, cache, results = self._trained_manager()
        manager.submit(
            filter_task(
                results, name="new", cache_key=("new",), query_id="q9", features=[1.0, 0.0]
            )
        )
        hits_before = platform.stats.hits_created
        manager.submit(
            filter_task(
                results, name="new", cache_key=("new",), query_id="q10", features=[1.0, 0.0]
            )
        )
        assert results[-1].source is ResultSource.CACHE
        assert results[-1].reduced == results[-2].reduced
        assert platform.stats.hits_created == hits_before


class TestSubmittedAtBookkeeping:
    def test_empty_after_crowd_and_cache_paths_drain(self):
        cache = TaskCache()
        clock, _platform, manager = build_manager(cache=cache)
        results = []
        for index in range(4):
            manager.submit(filter_task(results, name=f"n{index}", cache_key=(f"n{index}",)))
        manager.flush()
        clock.run_until_idle()
        # Cache hits resolve synchronously and must not leave stamps behind.
        for index in range(4):
            manager.submit(
                filter_task(results, name=f"n{index}", cache_key=(f"n{index}",), query_id="q2")
            )
        assert len(results) == 8
        assert check_task_records(manager) == []

    def test_empty_after_model_answers(self):
        models = TaskModelRegistry()
        models.register_default(
            FILTER_SPEC,
            min_observations=10,
            trust_accuracy=0.8,
            confidence_threshold=0.3,
            learning_rate=0.5,
        )
        clock, _platform, manager = build_manager(cache=TaskCache(), models=models)
        results = []
        for index in range(40):
            is_red = index % 2 == 0
            manager.submit(
                filter_task(
                    results,
                    name=f"item{index}",
                    is_red=is_red,
                    query_id="train",
                    features=[1.0, 0.0] if is_red else [0.0, 1.0],
                )
            )
        manager.flush()
        clock.run_until_idle()
        manager.submit(
            filter_task(results, name="new", query_id="q9", features=[1.0, 0.0])
        )
        assert results[-1].source is ResultSource.MODEL
        assert check_task_records(manager) == []

    def test_empty_after_cancellation(self):
        clock, _platform, manager = build_manager()
        results = []
        for index in range(3):
            manager.submit(filter_task(results, name=f"n{index}"))
        manager.cancel_query("q1")
        clock.run_until_idle()
        assert check_task_records(manager) == []

    def test_empty_after_over_budget_drop(self):
        clock, _platform, manager = build_manager()
        manager.budget.register("q1", 0.05)  # one HIT costs 3 * 0.015 = 0.045
        results = []
        manager.submit(filter_task(results, name="a"))
        manager.submit(filter_task(results, name="b"))
        assert manager.flush() == 1
        assert set(manager.take_budget_errors()) == {"q1"}
        clock.run_until_idle()
        assert len(results) == 1
        assert check_task_records(manager) == []


class TestExportImport:
    def test_round_trip_preserves_entries_and_attributes_cross_shard_hits(self):
        source = TaskCache()
        source.store("findCEO", ("Acme",), {"CEO": "Jane"}, cost=0.075)
        source.store("findCEO", ("Bolt",), {"CEO": "Ana"}, cost=0.075)
        cursor, items = source.export_since(0)
        assert cursor == 2 and len(items) == 2

        sink = TaskCache()
        assert sink.import_entries(items) == 2
        assert sink.stats.entries_imported == 2
        entry = sink.lookup("findCEO", ("Acme",))
        assert entry is not None and entry.reduced == {"CEO": "Jane"}
        assert sink.stats.cross_shard_hits == 1
        # Imports are not re-exported: the sink only ships its own answers.
        assert sink.export_since(0) == (0, [])

    def test_local_entries_win_over_imports(self):
        source = TaskCache()
        source.store("f", ("x",), "theirs", cost=0.1)
        _, items = source.export_since(0)
        sink = TaskCache()
        sink.store("f", ("x",), "mine", cost=0.1)
        assert sink.import_entries(items) == 0
        assert sink.lookup("f", ("x",)).reduced == "mine"
        assert sink.stats.cross_shard_hits == 0

    def test_a_local_store_supersedes_an_imported_copy(self):
        source = TaskCache()
        source.store("f", ("x",), "theirs", cost=0.1)
        _, items = source.export_since(0)
        sink = TaskCache()
        sink.import_entries(items)
        sink.store("f", ("x",), "mine", cost=0.1)
        assert sink.lookup("f", ("x",)).reduced == "mine"
        assert sink.stats.cross_shard_hits == 0
        _, exported = sink.export_since(0)
        assert [item["reduced"] for item in exported] == ["mine"]

    def test_a_shard_still_writing_stored_at_and_confidence_is_imported(self):
        item = pack(
            {
                "name": "findCEO",
                "key": ("Acme",),
                "reduced": {"CEO": "Jane"},
                "original_cost": 0.075,
                "stored_at": 3.0,
                "confidence": 0.9,
            }
        )
        sink = TaskCache()
        assert sink.import_entries([item]) == 1
        entry = sink.lookup("findCEO", ("Acme",))
        assert entry == CacheEntry({"CEO": "Jane"}, 0.075)
        assert sink.stats.cross_shard_hits == 1

    def test_incremental_export_cursor(self):
        cache = TaskCache()
        cache.store("f", ("x",), 1, cost=0.1)
        cursor, items = cache.export_since(0)
        assert len(items) == 1
        cache.store("f", ("y",), 2, cost=0.1)
        cursor, items = cache.export_since(cursor)
        assert [item["name"] for item in items] == ["f"]
        assert len(items) == 1


class TestStateRestore:
    """``state_dict`` / ``load_state_dict``: what an engine snapshot keeps of the cache."""

    def test_restore_replaces_entries_and_counters(self):
        source = TaskCache()
        source.store("f", ("x",), 1, cost=0.1)
        source.lookup("f", ("x",))
        target = TaskCache()
        target.store("g", ("y",), 2, cost=0.2)
        target.lookup("g", ("z",))
        target.load_state_dict(source.state_dict())
        assert ("g", ("y",)) not in target
        assert target.lookup("f", ("x",)) == CacheEntry(1, 0.1)
        assert (target.stats.hits, target.stats.misses, target.stats.entries) == (2, 0, 1)

    def test_restored_entries_export_as_local_in_store_order(self):
        source = TaskCache()
        for name in ("a", "b", "c"):
            source.store("f", (name,), name, cost=0.1)
        restored = TaskCache()
        restored.load_state_dict(source.state_dict())
        cursor, items = restored.export_since(0)
        assert cursor == 3
        assert [item["reduced"] for item in items] == ["a", "b", "c"]

    def test_a_key_stored_twice_is_restored_and_exported_once(self):
        source = TaskCache()
        source.store("f", ("x",), "old", cost=0.1)
        source.store("f", ("x",), "new", cost=0.1)
        assert source.export_since(0)[0] == 2
        restored = TaskCache()
        restored.load_state_dict(source.state_dict())
        cursor, items = restored.export_since(0)
        assert cursor == 1
        assert [item["reduced"] for item in items] == ["new"]

    def test_restored_imports_hit_as_local_answers(self):
        """A snapshot does not remember which entries another shard sent."""
        producer = TaskCache()
        producer.store("f", ("x",), "theirs", cost=0.1)
        _, items = producer.export_since(0)
        sink = TaskCache()
        sink.import_entries(items)
        restored = TaskCache()
        restored.load_state_dict(sink.state_dict())
        assert restored.lookup("f", ("x",)).reduced == "theirs"
        assert restored.stats.cross_shard_hits == 0
        assert restored.stats.entries_imported == 1  # the counter itself is kept

    def test_a_restored_entry_wins_over_a_later_import(self):
        source = TaskCache()
        source.store("f", ("x",), "restored", cost=0.1)
        restored = TaskCache()
        restored.load_state_dict(source.state_dict())
        other = TaskCache()
        other.store("f", ("x",), "imported", cost=0.1)
        assert restored.import_entries(other.export_since(0)[1]) == 0
        assert restored.lookup("f", ("x",)).reduced == "restored"

    def test_state_with_stored_at_and_confidence_records_loads(self, tmp_path):
        """Snapshot records once also carried ``stored_at`` and ``confidence``;
        they load through the snapshot file, and the fields are dropped."""
        from repro.storage.snapshot import load_latest_snapshot, write_snapshot

        cache = TaskCache()
        cache.store("samePerson", (("a", 1), ("b", 2)), [(1, 2)], cost=0.3)
        state = cache.state_dict()
        state["entries"][0].update(stored_at=2.0, confidence=0.9)
        write_snapshot(tmp_path, {"task_cache": state}, lsn=0)
        _, loaded = load_latest_snapshot(tmp_path)
        restored = TaskCache()
        restored.load_state_dict(loaded["task_cache"])
        assert restored.state_dict()["entries"] == cache.state_dict()["entries"]
        assert restored.lookup("samePerson", (("a", 1), ("b", 2))) == CacheEntry([(1, 2)], 0.3)
