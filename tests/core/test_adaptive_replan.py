"""Tests for mid-query adaptive re-optimization (AdaptiveReplanner)."""

import pytest

from repro.core.exec.context import QueryConfig
from repro.core.operators import CrowdSortOperator
from repro.core.operators.crowd_sort import SortStrategy
from repro.engine import QurkEngine
from repro.errors import ExecutionError
from repro.workloads.products import ProductsWorkload

MISESTIMATED_SQL = (
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name)"
)


def build_engine(*, adaptive: bool, n_products: int = 10, misestimate: bool = True):
    workload = ProductsWorkload(n_products=n_products, target_fraction=0.9, seed=77)
    engine = QurkEngine(
        seed=5,
        enable_cache=False,
        enable_task_model=False,
        default_query_config=QueryConfig(adaptive=adaptive),
    )
    workload.install(engine.database)
    oracle = workload.oracle()
    for task in ("isTargetColor", "biggerItem", "rateSize"):
        engine.register_oracle(task, oracle)
    name_payload = lambda row: {"name": row["name"]}  # noqa: E731 - tiny adapter
    engine.define_task(workload.color_filter_spec(assignments=3), learnable=False)
    engine.define_task(workload.size_compare_spec(assignments=3), payload=name_payload, learnable=False)
    engine.define_task(workload.size_rating_spec(assignments=3), payload=name_payload, learnable=False)
    if misestimate:
        # Deliberately poison the filter's selectivity estimate: "previous
        # queries matched almost nothing", while 90% of products truly match.
        stats = engine.statistics.spec("isTargetColor")
        stats.boolean_total = 36
        stats.boolean_true = 0
    return engine, workload


class TestMidQueryReplan:
    def test_misestimated_sort_is_swapped_to_rating(self):
        engine, _workload = build_engine(adaptive=True)
        handle = engine.query(MISESTIMATED_SQL)
        rows = handle.wait()
        assert len(rows) >= 6  # ~90% of 10 products pass the filter
        swaps = [c for c in handle.plan_history() if c.kind == "sort-strategy"]
        assert len(swaps) == 1
        assert swaps[0].before == "comparison" and swaps[0].after == "rating"
        assert swaps[0].estimated_savings > 0
        # The running plan now contains the rating sort.
        sorts = [
            op for op in handle.executor.operators() if isinstance(op, CrowdSortOperator)
        ]
        assert sorts[0].strategy is SortStrategy.RATING
        # The scheduler surfaced the swap as a lifecycle event.
        events = engine.scheduler.events_for(handle.query_id)
        assert any(event.event == "replanned" for event in events)

    def test_adaptive_run_is_strictly_cheaper_than_static(self):
        static_engine, _ = build_engine(adaptive=False)
        static = static_engine.query(MISESTIMATED_SQL)
        static.wait()
        adaptive_engine, _ = build_engine(adaptive=True)
        adaptive = adaptive_engine.query(MISESTIMATED_SQL)
        adaptive.wait()
        assert adaptive.stats.hits_posted < static.stats.hits_posted
        assert adaptive.total_cost < static.total_cost

    def test_accurate_estimates_are_left_alone(self):
        engine, _workload = build_engine(adaptive=True, misestimate=False)
        # No crowd filter: the sort input is the exact scan cardinality.
        handle = engine.query("SELECT name FROM products ORDER BY biggerItem(name)")
        handle.wait()
        swaps = [c for c in handle.plan_history() if c.kind == "sort-strategy"]
        assert swaps == []

    def test_static_queries_are_never_replanned(self):
        engine, _workload = build_engine(adaptive=False)
        handle = engine.query(MISESTIMATED_SQL)
        handle.wait()
        assert [c for c in handle.plan_history() if c.kind != "plan"] == []

    def test_plan_history_starts_with_initial_choice(self):
        engine, _workload = build_engine(adaptive=True)
        handle = engine.query(MISESTIMATED_SQL)
        history = handle.plan_history()
        assert history and history[0].kind == "plan"

    def test_redundancy_shift_is_recorded_mid_query(self):
        engine, _workload = build_engine(adaptive=True)
        handle = engine.query(MISESTIMATED_SQL)
        # Drive until the first barrier (the scan completing) has seeded the
        # replanner's redundancy baselines for the pending crowd operators.
        while not any(op.is_done() for op in handle.executor.operators()):
            engine.scheduler.step()
        # Observed agreement jumps: one worker now suffices for biggerItem.
        stats = engine.statistics.spec("biggerItem")
        stats.crowd_tasks = 50
        stats.total_agreement = 50 * 0.99
        handle.wait()
        shifts = [c for c in handle.plan_history() if c.kind == "redundancy"]
        assert any(c.operator == "biggerItem" and c.after == "1" for c in shifts)


class TestReplaceOperator:
    def test_replace_pending_sort_preserves_buffered_rows(self):
        engine, workload = build_engine(adaptive=False, misestimate=False)
        handle = engine.query("SELECT name FROM products ORDER BY biggerItem(name)")
        executor = handle.executor
        # Step locally until the sort has buffered the scan output but has
        # not submitted any comparisons (inputs not yet signalled finished).
        executor.open()
        executor.step_local(flush=False, raise_on_budget=False)
        old = next(op for op in executor.operators() if isinstance(op, CrowdSortOperator))
        assert old.metrics.tasks_created == 0
        buffered = sum(len(batch) for batch, _slot in old.consumed_input()) + old.queued_rows()
        assert buffered > 0
        replacement = CrowdSortOperator(
            old.spec,
            old.output_schema,
            strategy=SortStrategy.RATING,
            descending=old.descending,
            items_per_hit=old.items_per_hit,
            payload=old.payload,
        )
        executor.replace_operator(old, replacement)
        assert replacement.parent is old.parent or replacement.parent is not None
        rows = handle.wait()
        assert len(rows) == 10  # nothing lost in the swap
        assert replacement.ratings_asked == 10
        assert replacement.comparisons_asked == 0

    def test_replace_started_operator_is_refused(self):
        engine, _workload = build_engine(adaptive=False, misestimate=False)
        handle = engine.query("SELECT name FROM products ORDER BY rateSize(name)")
        handle.wait()
        executor = handle.executor
        old = next(op for op in executor.operators() if isinstance(op, CrowdSortOperator))
        replacement = CrowdSortOperator(old.spec, old.output_schema)
        with pytest.raises(ExecutionError, match="already started"):
            executor.replace_operator(old, replacement)


class TestExplainOnEngine:
    def test_engine_explain_is_side_effect_free(self):
        engine, _workload = build_engine(adaptive=True)
        tables_before = len(engine.database.catalog)
        text = engine.explain(MISESTIMATED_SQL)
        assert "physical candidates" in text and "(chosen)" in text
        assert len(engine.database.catalog) == tables_before
        assert engine.total_crowd_cost == 0.0
