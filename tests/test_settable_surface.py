"""The engine's settable surface, pinned.

A value that only tests set is a module or class constant, not a keyword or
a config field.  Adding a knob means editing these lists, so the new knob
shows in review.
"""

import dataclasses
import inspect

from repro.cluster import ShardCoordinator
from repro.crowd.breaker import BreakerConfig
from repro.crowd.quality import QualityConfig
from repro.crowd.worker_pool import PopulationMix, WorkerPool
from repro.engine import QurkEngine


def test_engine_keywords():
    parameters = inspect.signature(QurkEngine.__init__).parameters.values()
    assert [p.name for p in parameters if p.kind is p.KEYWORD_ONLY] == [
        "seed",
        "worker_pool_size",
        "population_mix",
        "enable_cache",
        "enable_task_model",
        "default_query_config",
        "max_concurrent_queries",
        "fault_profile",
        "quality",
        "clock",
        "admission_queue_limit",
        "overload_policy",
        "circuit_breaker",
    ]


def test_coordinator_keywords():
    parameters = inspect.signature(ShardCoordinator.__init__).parameters.values()
    assert [p.name for p in parameters if p.kind is p.KEYWORD_ONLY] == [
        "placement",
        "durability_root",
        "durability_fsync",
        "durability_fsync_every",
        "share_answers",
    ]


def test_config_fields():
    def fields(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert fields(BreakerConfig) == ["failure_threshold", "cooldown"]
    assert fields(QualityConfig) == [
        "gold_frequency",
        "adaptive_redundancy",
        "confidence_threshold",
        "seed",
    ]
    assert fields(PopulationMix) == ["diligent", "noisy", "lazy", "spammer"]
    assert fields(WorkerPool) == ["size", "mix", "seed"]
