"""E16 — horizontal scale-out: sharded engines behind one coordinator.

E15 ran hundreds of concurrent queries on a *single* control plane; this
experiment shards the same workload across N worker processes, each a full
engine + scheduler + simulated marketplace, behind a
:class:`~repro.cluster.ShardCoordinator`.  Every query is the same small
crowd filter as E15 (one task per product, one task per HIT), so total crowd
work is constant across the curve and the only variable is how many engine
processes share it.

Reported per shard count: HITs posted and crowd spend, which must not change
— sharding is a runtime decision, not a semantic one.
"""

from __future__ import annotations

from repro.cluster import EngineSpec, ShardCoordinator
from repro.experiments import print_table

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"

#: The scaling curve: worker processes sharing a fixed query population.
SHARD_COUNTS = (1, 2, 4, 8)

#: Concurrent crowd-filter queries across the whole cluster.
CONCURRENT_QUERIES = 1024

#: Crowd tasks (= HITs) per query.
TASKS_PER_QUERY = 40


def _run_level(
    n_shards: int, n_queries: int, tasks_per_query: int, *, seed: int = 1601
) -> dict:
    spec = EngineSpec(
        factory="repro.experiments.harness:build_products_engine",
        kwargs={"n_products": tasks_per_query, "filter_batch": 1, "seed": seed},
    )
    with ShardCoordinator(spec, n_shards) as cluster:
        cluster.submit_many([{"sql": FILTER_SQL} for _ in range(n_queries)])
        statuses = cluster.drain()
        if len(statuses) != n_queries or any(s != "completed" for s in statuses.values()):
            raise AssertionError(f"not every query completed: {statuses}")
        stats = cluster.stats()
    return {
        "shards": n_shards,
        "queries": n_queries,
        "tasks_per_query": tasks_per_query,
        "hits": int(stats.totals["hits_posted"]),
        "cost_usd": round(stats.totals["total_cost"], 2),
    }


def run_scale_out_curve(
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    n_queries: int = CONCURRENT_QUERIES,
    tasks_per_query: int = TASKS_PER_QUERY,
) -> list[dict]:
    """The scaling curve: fixed workload, growing shard count."""
    return [_run_level(n, n_queries, tasks_per_query) for n in shard_counts]


# -- pytest entry point (quick sizes) -----------------------------------------


def test_e16_scale_out_quick():
    rows = run_scale_out_curve(shard_counts=(1, 2), n_queries=64, tasks_per_query=10)
    print_table(
        "E16: scale-out (quick: 64 crowd-filter queries, 10 tasks each, 1/2 shards)",
        ["shards", "queries", "hits", "cost_usd"],
        rows,
    )
    # Sharding must not change what the crowd is asked or paid: every shard
    # count posts the same HITs and spends the same dollars.
    assert all(row["hits"] == row["queries"] * row["tasks_per_query"] for row in rows)
    assert len({row["cost_usd"] for row in rows}) == 1
