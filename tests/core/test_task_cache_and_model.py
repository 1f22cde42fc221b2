"""Unit tests for the Task Cache and the learned Task Model."""

import random

import pytest

from repro.core.tasks.spec import Parameter, TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import Task, TaskKind
from repro.core.tasks.task_cache import CacheEntry, TaskCache
from repro.core.tasks.task_model import LearnedTaskModel, TaskModelRegistry
from repro.errors import TaskError


class TestTaskCache:
    def test_miss_then_hit_tracks_savings(self):
        cache = TaskCache()
        assert cache.lookup("findCEO", ("Acme",)) is None
        cache.store("findCEO", ("Acme",), {"CEO": "Jane"}, cost=0.075)
        entry = cache.lookup("findCEO", ("Acme",))
        assert entry.reduced == {"CEO": "Jane"}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        # Savings are credited by the Task Manager with what the requesting
        # task avoided spending — a lookup alone credits nothing.
        assert cache.stats.dollars_saved == 0.0
        cache.credit_savings(0.075)
        assert cache.stats.dollars_saved == pytest.approx(0.075)

    def test_disabled_cache_never_hits(self):
        cache = TaskCache(enabled=False)
        cache.store("f", ("x",), True, cost=0.1)
        assert cache.lookup("f", ("x",)) is None
        assert len(cache) == 0

    def test_none_key_is_not_cacheable(self):
        cache = TaskCache()
        cache.store("f", None, True, cost=0.1)
        assert cache.lookup("f", None) is None
        assert cache.stats.entries == 0

    def test_keys_are_scoped_by_task_name(self):
        cache = TaskCache()
        cache.store("f", ("x",), True, cost=0.1)
        assert cache.lookup("g", ("x",)) is None
        assert ("f", ("x",)) in cache

    def test_one_record_format_for_export_and_snapshot(self):
        """``CacheEntry.record`` is the one record: the engine-snapshot state
        carries it and packs it at its boundary, the cross-shard export
        carries it packed, and it round-trips tuples exactly."""
        from repro.storage.codec import dumps, loads, pack, unpack

        cache = TaskCache()
        key = (("a", 1), ("b", 2))  # JOIN_BLOCK-style nested tuples
        reduced = [(1, 2), (3, 4)]
        cache.store("samePerson", key, reduced, cost=0.3)
        entry = cache.lookup("samePerson", key)

        record = entry.record("samePerson", key)
        assert list(record) == ["name", "key", "reduced", "original_cost"]
        assert CacheEntry.from_record(record) == (("samePerson", key), entry)
        item = pack(record)
        assert CacheEntry.from_record(unpack(loads(dumps(item)))) == (("samePerson", key), entry)
        assert cache.export_since(0) == (1, [item])
        assert cache.state_dict()["entries"] == [record]

        restored = TaskCache()
        restored.load_state_dict(cache.state_dict())
        assert restored.lookup("samePerson", key) == entry
        sink = TaskCache()
        assert sink.import_entries([item]) == 1
        assert sink.lookup("samePerson", key) == entry


def _filter_spec(extractor):
    return TaskSpec(
        name="isRed",
        task_type=TaskType.FILTER,
        text="Is %s red?",
        response=YesNoResponse(),
        parameters=(Parameter("name"),),
        feature_extractor=extractor,
    )


def _task(spec, features, label=None):
    return Task(
        kind=TaskKind.FILTER,
        spec=spec,
        payload={"features": features},
        callback=lambda result: None,
    )


class TestLearnedTaskModel:
    def separable_spec(self):
        return _filter_spec(lambda payload: payload.get("features"))

    def test_requires_feature_extractor_and_bool_returns(self):
        with pytest.raises(TaskError):
            LearnedTaskModel(_filter_spec(None))

    def test_untrained_model_abstains(self):
        model = LearnedTaskModel(self.separable_spec())
        assert model.predict(_task(self.separable_spec(), [1.0, 0.0])) is None
        assert not model.is_trusted

    def test_learns_a_separable_concept_and_becomes_trusted(self):
        spec = self.separable_spec()
        model = LearnedTaskModel(spec, min_observations=30, trust_accuracy=0.85,
                                 confidence_threshold=0.5, learning_rate=0.5)
        rng = random.Random(0)
        for _ in range(120):
            positive = rng.random() < 0.5
            features = [1.0, 0.0] if positive else [0.0, 1.0]
            model.observe(_task(spec, features), positive)
        assert model.is_trusted
        prediction = model.predict(_task(spec, [1.0, 0.0]))
        assert prediction is not None and prediction[0] is True
        prediction = model.predict(_task(spec, [0.0, 1.0]))
        assert prediction is not None and prediction[0] is False

    def test_non_boolean_labels_are_ignored(self):
        spec = self.separable_spec()
        model = LearnedTaskModel(spec)
        model.observe(_task(spec, [1.0]), "not a bool")
        assert model.stats.observations == 0

    def test_missing_features_are_ignored(self):
        spec = self.separable_spec()
        model = LearnedTaskModel(spec)
        model.observe(Task(kind=TaskKind.FILTER, spec=spec, payload={}, callback=lambda r: None), True)
        assert model.stats.observations == 0

    def test_savings_accounting(self):
        model = LearnedTaskModel(self.separable_spec())
        model.record_savings(0.075)
        model.record_savings(0.075)
        assert model.stats.dollars_saved == pytest.approx(0.15)


class TestTaskModelRegistry:
    def test_register_default_only_for_learnable_specs(self):
        registry = TaskModelRegistry()
        learnable = _filter_spec(lambda payload: [1.0])
        assert registry.register_default(learnable) is not None
        not_learnable = _filter_spec(None)
        assert registry.register_default(not_learnable) is None
        assert registry.model_for("isRed") is not None

    def test_disabled_registry_returns_nothing(self):
        registry = TaskModelRegistry(enabled=False)
        registry.register_default(_filter_spec(lambda payload: [1.0]))
        assert registry.model_for("isRed") is None

    def test_total_savings_sums_models(self):
        registry = TaskModelRegistry()
        model = registry.register_default(_filter_spec(lambda payload: [1.0]))
        model.record_savings(0.2)
        assert registry.total_savings() == pytest.approx(0.2)
