"""E13 — engine overhead on a crowd-free data plane.

The crowd benchmarks (E1–E12) are dominated by simulated HIT latency and
cost; this one exercises the *engine itself*.  A 100k-row, fully local
scan → filter → hash-join → sort → group-by pipeline runs with no crowd
operator anywhere, so the work is the Python data plane alone: columnar
batches, expression evaluation, queue draining and scheduler passes.
Both variants are driven by the engine scheduler, the only driver there is:
the single query through ``submit`` + ``wait``, and a 16-query concurrent
variant of the same pipeline shape on a busy engine.

Reported: rows in, groups out and scheduler passes.  The wall-clock cost of
the data plane is measured by the end-to-end benchmark's ``analytic_local``
workload (``benchmarks/e2e``).
"""

from __future__ import annotations

from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle
from repro.core.exec.scheduler import EngineScheduler
from repro.core.operators.aggregate import AggregateSpec, GroupByOperator
from repro.core.operators.join_local import LocalHashJoinOperator
from repro.core.operators.project import LocalFilterOperator
from repro.core.operators.scan import ScanOperator
from repro.core.operators.sink import ResultSinkOperator
from repro.core.operators.sort_local import LocalSortOperator
from repro.engine import QurkEngine
from repro.experiments import print_table
from repro.storage.expressions import Arithmetic, ColumnRef, Comparison, Literal
from repro.storage.table import Table
from repro.storage.types import DataType

N_CATEGORIES = 100


def _build_engine(n_rows: int) -> QurkEngine:
    engine = QurkEngine(seed=13, worker_pool_size=10)
    items = engine.create_table(
        "items",
        [("id", DataType.INTEGER), ("category", DataType.STRING), ("score", DataType.FLOAT)],
    )
    categories = engine.create_table(
        "categories", [("name", DataType.STRING), ("weight", DataType.FLOAT)]
    )
    items.insert_many(
        (i, f"c{i % N_CATEGORIES}", ((i * 7919) % 1000) / 1000.0) for i in range(n_rows)
    )
    categories.insert_many((f"c{i}", 1.0 + i / N_CATEGORIES) for i in range(N_CATEGORIES))
    return engine


def _build_pipeline(engine: QurkEngine, query_id: str, *, join: bool = True) -> QueryHandle:
    """scan(items) → filter → [hash-join categories] → sort → group-by → sink.

    Returns the plan as an unsubmitted handle: like every query, it runs by
    being submitted to an :class:`EngineScheduler`.
    """
    scan_items = ScanOperator(engine.database.table("items"))
    filt = LocalFilterOperator(
        Comparison(">", ColumnRef("score"), Literal(0.2)), scan_items.output_schema
    )
    filt.add_child(scan_items)
    upstream = filt
    if join:
        scan_cats = ScanOperator(engine.database.table("categories"))
        joined = LocalHashJoinOperator(
            ColumnRef("category"), ColumnRef("name"), filt.output_schema, scan_cats.output_schema
        )
        joined.add_child(filt)
        joined.add_child(scan_cats)
        upstream = joined
    sort = LocalSortOperator(ColumnRef("score"), upstream.output_schema, ascending=False)
    sort.add_child(upstream)
    aggregates = [
        AggregateSpec("n", "count", None),
        AggregateSpec("total_score", "sum", ColumnRef("score")),
    ]
    if join:
        aggregates.append(
            AggregateSpec(
                "weighted", "avg", Arithmetic("*", ColumnRef("score"), ColumnRef("weight"))
            )
        )
    group = GroupByOperator(["category"], aggregates, sort.output_schema)
    group.add_child(sort)
    results = Table(query_id, group.output_schema)
    sink = ResultSinkOperator(results)
    sink.add_child(group)
    engine.budget_ledger.register(query_id, None)
    context = ExecutionContext(
        query_id=query_id,
        database=engine.database,
        task_manager=engine.task_manager,
        statistics=engine.statistics,
        budget=engine.budget_ledger,
        clock=engine.clock,
        config=QueryConfig(),
    )
    return QueryHandle(query_id, "<local pipeline>", QueryExecutor(sink, context), results)


def run_engine_overhead_experiment(n_rows: int = 100_000) -> list[dict]:
    """The single-query 100k-row pipeline through five operators."""
    engine = _build_engine(n_rows)
    handle = engine.scheduler.submit(_build_pipeline(engine, "bench-e13"))
    handle.wait()
    results = handle.results_table
    expected_groups = min(N_CATEGORIES, n_rows)
    if len(results) != expected_groups:
        raise AssertionError(f"expected {expected_groups} groups, got {len(results)}")
    return [
        {
            "rows": n_rows,
            "executor_passes": handle.executor.metrics.passes,
            "groups_out": len(results),
        }
    ]


def run_concurrent_overhead_experiment(n_queries: int = 16, n_rows: int = 20_000) -> list[dict]:
    """16 concurrent local pipelines driven by the engine scheduler."""
    engine = _build_engine(n_rows)
    scheduler = EngineScheduler(engine.clock, engine.task_manager)
    handles = [
        scheduler.submit(_build_pipeline(engine, f"bench-e13-q{q}", join=False))
        for q in range(n_queries)
    ]
    scheduler.drain()
    if not all(handle.is_complete for handle in handles):
        raise AssertionError("not every concurrent query completed")
    return [
        {
            "queries": n_queries,
            "rows_per_query": n_rows,
            "total_rows": n_queries * n_rows,
            "scheduler_passes": scheduler.metrics.passes,
        }
    ]


def test_e13_engine_overhead_quick():
    rows = run_engine_overhead_experiment()
    print_table(
        "E13: crowd-free scan→filter→join→sort→aggregate (100k rows)",
        ["rows", "executor_passes", "groups_out"],
        rows,
    )
    assert rows[0]["groups_out"] == N_CATEGORIES
