"""E15 — control-plane scaling: hundreds of queries, tens of thousands of HITs.

E13 exercised the *data* plane; this one exercises the *crowd control plane*
— the engine scheduler, the Task Manager and the marketplace simulator —
under growing concurrency.  Every query is a small crowd filter (one task per
product, one task per HIT), so simulated crowd work per query is constant and
only the number of queries sharing one marketplace grows.

Reported per concurrency level: HITs, clock advances, scheduler passes, crowd
spend and simulated makespan.  Every level must post exactly one HIT per
task; a level that does not raises.
"""

from __future__ import annotations

from repro.experiments import build_products_engine

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"

#: The scaling curve: concurrent crowd queries sharing one marketplace.
CONCURRENCIES = (8, 64, 256)

#: Crowd tasks (= HITs, with one-task-per-HIT batching) per query.  At the
#: top of the curve this makes 256 x 40 = 10,240 HITs (30k+ assignments) on
#: one simulated marketplace.
TASKS_PER_QUERY = 40


def _run_level(n_queries: int, tasks_per_query: int, *, seed: int = 1501) -> dict:
    run = build_products_engine(n_products=tasks_per_query, filter_batch=1, seed=seed)
    engine = run.engine
    handles = [engine.query(FILTER_SQL) for _ in range(n_queries)]
    for handle in handles:
        handle.wait()
    if not all(handle.is_complete for handle in handles):
        raise AssertionError("not every concurrent query completed")
    metrics = engine.scheduler.metrics
    stats = engine.task_manager.stats
    if stats.hits_posted != n_queries * tasks_per_query:
        raise AssertionError(
            f"{n_queries} queries of {tasks_per_query} tasks posted {stats.hits_posted} HITs"
        )
    return {
        "queries": n_queries,
        "tasks_per_query": tasks_per_query,
        "hits": stats.hits_posted,
        "clock_advances": metrics.clock_advances,
        "noop_clock_advances": metrics.noop_clock_advances,
        "passes": metrics.passes,
        "cost_usd": round(engine.total_crowd_cost, 2),
        "makespan_min": round(engine.clock.now / 60, 1),
    }


def run_control_plane_scaling(
    concurrencies: tuple[int, ...] = CONCURRENCIES, tasks_per_query: int = TASKS_PER_QUERY
) -> list[dict]:
    """The scaling curve: same per-query crowd work at growing concurrency."""
    return [_run_level(n, tasks_per_query) for n in concurrencies]
