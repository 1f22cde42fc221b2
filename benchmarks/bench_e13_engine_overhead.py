"""E13 — engine overhead on a crowd-free data plane.

The crowd benchmarks (E1–E12) are dominated by simulated HIT latency and
cost; this one measures the *engine itself*.  A 100k-row, fully local
scan → filter → hash-join → sort → group-by pipeline runs with no crowd
operator anywhere, so wall time is pure Python data-plane overhead: row
construction, schema name resolution, queue draining, and scheduler passes.
Both variants are driven by the engine scheduler, the only driver there is:
the single query through ``submit`` + ``wait``, and a 16-query concurrent
variant of the same pipeline shape that captures per-pass dispatch overhead
on a busy engine.

Reported as rows/sec; ``baseline`` fields carry the pre-vectorization
numbers (measured on this benchmark before the batched data plane landed)
and ``pr3`` fields carry the batched-but-row-exchanging numbers recorded by
the PR 3 sweep, so ``BENCH_SUMMARY.json`` shows the whole tier ladder:
row-at-a-time → batched drain → columnar execution.
"""

from __future__ import annotations

import time

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
from repro.storage.types import DataType

#: Pre-PR numbers for the same pipelines, measured on the row-at-a-time data
#: plane immediately before the vectorized one replaced it (commit 06efce8,
#: same machine as the recorded "after" run in BENCH_SUMMARY.json).
PRE_PR_BASELINE = {
    "pipeline_100k": {"rows_per_sec": 36_950, "wall_seconds": 2.706},
    "concurrent_16q": {"rows_per_sec": 56_851, "wall_seconds": 5.629},
}

#: The numbers the PR 3 sweep recorded in BENCH_SUMMARY.json for the batched
#: (but still row-exchanging) data plane — the baseline the columnar tier is
#: gated against (the columnar PR's acceptance bar is ≥5x these).
PR3_BATCHED_BASELINE = {
    "pipeline_100k": {"rows_per_sec": 274_291, "wall_seconds": 0.365},
    "concurrent_16q": {"rows_per_sec": 423_960, "wall_seconds": 0.755},
}

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
    results = engine.database.create_results_table(group.output_schema, query_id=query_id)
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
    """The single-query 100k-row pipeline: rows/sec through five operators."""
    engine = _build_engine(n_rows)
    handle = engine.scheduler.submit(_build_pipeline(engine, "bench-e13"))
    started = time.perf_counter()
    handle.wait()
    wall = time.perf_counter() - started
    results = handle.results_table
    expected_groups = min(N_CATEGORIES, n_rows)
    if len(results) != expected_groups:
        raise AssertionError(f"expected {expected_groups} groups, got {len(results)}")
    baseline = PRE_PR_BASELINE["pipeline_100k"]
    pr3 = PR3_BATCHED_BASELINE["pipeline_100k"]
    row = {
        "rows": n_rows,
        "wall_seconds": round(wall, 3),
        "rows_per_sec": round(n_rows / wall),
        "executor_passes": handle.executor.metrics.passes,
        "groups_out": len(results),
        "baseline_rows_per_sec": baseline["rows_per_sec"],
        "speedup_vs_baseline": (
            round((n_rows / wall) / baseline["rows_per_sec"], 2)
            if baseline["rows_per_sec"]
            else None
        ),
        "pr3_rows_per_sec": pr3["rows_per_sec"],
        "speedup_vs_pr3": round((n_rows / wall) / pr3["rows_per_sec"], 2),
    }
    return [row]


def run_concurrent_overhead_experiment(n_queries: int = 16, n_rows: int = 20_000) -> list[dict]:
    """16 concurrent local pipelines driven by the engine scheduler."""
    engine = _build_engine(n_rows)
    scheduler = EngineScheduler(engine.clock, engine.task_manager)
    handles = [
        scheduler.submit(_build_pipeline(engine, f"bench-e13-q{q}", join=False))
        for q in range(n_queries)
    ]
    started = time.perf_counter()
    while scheduler.step():
        pass
    wall = time.perf_counter() - started
    if not all(handle.is_complete for handle in handles):
        raise AssertionError("not every concurrent query completed")
    total_rows = n_queries * n_rows
    baseline = PRE_PR_BASELINE["concurrent_16q"]
    pr3 = PR3_BATCHED_BASELINE["concurrent_16q"]
    row = {
        "queries": n_queries,
        "rows_per_query": n_rows,
        "total_rows": total_rows,
        "wall_seconds": round(wall, 3),
        "rows_per_sec": round(total_rows / wall),
        "scheduler_passes": scheduler.metrics.passes,
        "baseline_rows_per_sec": baseline["rows_per_sec"],
        "speedup_vs_baseline": (
            round((total_rows / wall) / baseline["rows_per_sec"], 2)
            if baseline["rows_per_sec"]
            else None
        ),
        "pr3_rows_per_sec": pr3["rows_per_sec"],
        "speedup_vs_pr3": round((total_rows / wall) / pr3["rows_per_sec"], 2),
    }
    return [row]


# -- pytest entry points (the CI wall-clock regression gate) ------------------

#: Wall-clock budgets for the columnar tier, run at the *recorded* benchmark
#: sizes so the gates guard the new level: both sit well below the PR 3
#: batched-plane walls (0.365s / 0.755s) with ~5x headroom over the columnar
#: walls (~0.06s each).  Tripping one means the engine fell off the columnar
#: fast path — e.g. an operator silently falling back to per-row exchange.
COLUMNAR_PIPELINE_GATE_SECONDS = 0.30
COLUMNAR_CONCURRENT_GATE_SECONDS = 0.50


def test_e13_engine_overhead_quick(once):
    rows = once(run_engine_overhead_experiment)
    print_table(
        "E13: crowd-free scan→filter→join→sort→aggregate (columnar tier: 100k rows)",
        ["rows", "wall_seconds", "rows_per_sec", "executor_passes", "groups_out"],
        rows,
    )
    assert rows[0]["groups_out"] == N_CATEGORIES
    assert rows[0]["wall_seconds"] < COLUMNAR_PIPELINE_GATE_SECONDS


def test_e13_concurrent_quick(once):
    rows = once(run_concurrent_overhead_experiment)
    print_table(
        "E13: 16 concurrent local pipelines (columnar tier: 20k rows each)",
        ["queries", "total_rows", "wall_seconds", "rows_per_sec", "scheduler_passes"],
        rows,
    )
    assert rows[0]["wall_seconds"] < COLUMNAR_CONCURRENT_GATE_SECONDS
