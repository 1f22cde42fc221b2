"""E11 — engine-level multi-query scheduling with cross-query HIT batching.

The Task Manager "maintains a global queue of tasks that have been enqueued
by all operators" — across queries.  This benchmark runs the same crowd
filter as 1 vs. 8 concurrent queries on one marketplace and reports the two
scheduler wins: shared HITs (fewer HITs posted than N independent runs would
need, because one query's partial batch is topped up with another query's
tasks) and concurrency (simulated makespan far below the serial sum).
"""

from repro.experiments import build_products_engine, print_table

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
CONCURRENCY = (1, 8)


def run_multi_query_experiment():
    rows = []
    for n_queries in CONCURRENCY:
        run = build_products_engine(n_products=12, filter_batch=10, seed=1101)
        handles = [run.engine.query(FILTER_SQL) for _ in range(n_queries)]
        for handle in handles:
            handle.wait()
        stats = run.engine.task_manager.stats
        rows.append(
            {
                "queries": n_queries,
                "hits": stats.hits_posted,
                "shared_hits": stats.cross_query_hits,
                "hits_per_query": stats.hits_posted / n_queries,
                "makespan_min": run.engine.clock.now / 60,
                "cost_usd": run.engine.total_crowd_cost,
                "clock_advances": run.engine.scheduler.metrics.clock_advances,
            }
        )
    return rows


def test_e11_multi_query():
    rows = run_multi_query_experiment()
    print_table(
        "E11: 1 vs 8 concurrent queries on one marketplace (crowd filter, 12 products)",
        ["queries", "hits", "shared_hits", "hits_per_query", "makespan_min", "cost_usd", "clock_advances"],
        rows,
    )
    solo, eight = rows
    assert all(r["hits"] > 0 for r in rows)
    # Cross-query batching: 8 concurrent queries need strictly fewer HITs
    # than 8 isolated runs, and some posted HITs mix several queries' tasks.
    assert eight["hits"] < 8 * solo["hits"]
    assert eight["shared_hits"] >= 1
    # Concurrency: the shared clock overlaps the queries' crowd latency, so
    # the 8-query makespan is far below the serial sum of 8 solo runs.
    assert eight["makespan_min"] < 4 * solo["makespan_min"]
