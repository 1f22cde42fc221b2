"""Engine counters are declared once and reach every view by construction.

``QurkEngine.counter_sources()`` registers the engine-wide stats dataclasses;
``QurkEngine.counters()`` reads them by iterating their fields.  The
dashboard snapshot, the shard ``stats`` op and ``ClusterStats.totals`` are
views of that one reader, so a counter cannot be forgotten on the way: these
tests fail if any numeric field of any registered dataclass is missing from
any of the three, and demonstrate that a *new* field needs no other edit.
"""

import dataclasses

from repro.cluster import EngineSpec, ShardCoordinator
from repro.cluster.serialization import encode_query
from repro.cluster.worker import ShardWorker
from repro.core.tasks import task_manager
from repro.dashboard import QueryDashboard
from repro.experiments.harness import build_products_engine

ENGINE_KWARGS = {"n_products": 6, "filter_batch": 2, "seed": 13}
SPEC = EngineSpec("repro.experiments.harness:build_products_engine", ENGINE_KWARGS)
FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


def published(engine) -> dict[str, float]:
    """Published name → current value of every registered numeric field."""
    names = {}
    for prefix, stats in engine.counter_sources():
        for spec in dataclasses.fields(stats):
            value = getattr(stats, spec.name)
            if isinstance(value, (int, float)):
                name = spec.metadata.get("counter", prefix + spec.name)
                assert name not in names, f"two registered fields publish {name!r}"
                names[name] = value
    return names


@dataclasses.dataclass
class ExtendedStats(task_manager.TaskManagerStats):
    """What a PR adding one counter writes: one dataclass field."""

    brand_new_counter: int = 5


def test_every_registered_field_is_in_counters_and_on_the_snapshot():
    engine = build_products_engine(**ENGINE_KWARGS).engine
    handle = engine.query(FILTER_SQL)
    handle.wait()
    expected = published(engine)
    assert len(expected) > 40 and expected["hits_posted"] > 0
    counters = engine.counters()
    assert {name: counters[name] for name in expected} == expected
    snapshot = QueryDashboard(engine).snapshot(handle.query_id)
    assert snapshot.engine == counters
    # No snapshot field is an engine-wide reading: where a field shares its
    # name with a counter (hits_posted, ...) it is the handle's own number,
    # and simulated_time is the instant the snapshot was taken.
    own = {spec.name for spec in dataclasses.fields(handle.stats)} | {"simulated_time"}
    snapshot_fields = {spec.name for spec in dataclasses.fields(snapshot)}
    assert not (set(counters) - own) & snapshot_fields


def test_the_worker_stats_reply_ships_every_counter():
    worker = ShardWorker(SPEC)
    assert worker.handle(
        {"op": "submit_many", "queries": [encode_query(FILTER_SQL, query_id="cq1")]}
    )["ok"]
    assert worker.handle({"op": "drain"})["ok"]
    totals = worker.handle({"op": "stats"})["totals"]
    counters = worker.engine.counters()
    assert set(published(worker.engine)) <= set(counters)
    assert {name: totals[name] for name in counters} == counters
    assert set(totals) - set(counters) == {"queries", "queue_depth", "total_cost"}


def test_cluster_totals_are_the_per_shard_sums_key_by_key():
    with ShardCoordinator(SPEC, 2) as cluster:
        cluster.submit_many([{"sql": FILTER_SQL} for _ in range(3)])
        cluster.drain()
        stats = cluster.stats()
    shards = [report["totals"] for report in stats.per_shard]
    assert len(shards) == 2 and shards[0] != shards[1]
    numeric = {
        key for key, value in shards[0].items() if isinstance(value, (int, float))
    }
    assert set(stats.totals) == numeric
    assert set(published(build_products_engine(**ENGINE_KWARGS).engine)) <= numeric
    for key in numeric:
        merge = max if key == "simulated_time" else sum
        assert stats.totals[key] == merge(shard[key] for shard in shards), key
    assert stats.totals["noop_clock_advances"] > 0  # once absent from the cluster view


def test_a_new_dataclass_field_is_published_everywhere_with_no_other_edit(monkeypatch):
    monkeypatch.setattr(task_manager, "TaskManagerStats", ExtendedStats)
    worker = ShardWorker(SPEC)
    assert worker.engine.counters()["brand_new_counter"] == 5
    assert worker.handle({"op": "stats"})["totals"]["brand_new_counter"] == 5
    # Forked shards build their engines from the patched module.
    with ShardCoordinator(SPEC, 2) as cluster:
        assert cluster.stats().totals["brand_new_counter"] == 10
