"""Tests for mid-query adaptive re-optimization (AdaptiveReplanner)."""

import copy

import pytest

from repro.core.exec.context import QueryConfig
from repro.core.lang.sql_parser import parse_select
from repro.core.operators import CrowdFilterOperator, CrowdSortOperator, LocalHashJoinOperator
from repro.core.operators.crowd_sort import SortStrategy
from repro.core.plan.logical import LogicalSort
from repro.core.plan.physical import make_operator
from repro.core.plan.planner import QueryPlanner
from repro.engine import QurkEngine
from repro.errors import ExecutionError
from repro.storage.types import DataType
from repro.workloads.products import ProductsWorkload

MISESTIMATED_SQL = (
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name)"
)
LOCAL_JOIN_SQL = (
    "SELECT products.name FROM products, tags "
    "WHERE products.name = tags.tag_name ORDER BY biggerItem(products.name)"
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


def add_tags(engine, workload, n_tags: int, copies: int = 1) -> None:
    """A ``tags`` table naming each of the first ``n_tags`` products ``copies`` times."""
    names = [[record.name] for record in workload.records[:n_tags] for _ in range(copies)]
    engine.create_table("tags", [("tag_name", DataType.STRING)], rows=names)


class TestMidQueryReplan:
    def test_misestimated_sort_is_swapped_to_rating(self):
        engine, _workload = build_engine(adaptive=True)
        handle = engine.query(MISESTIMATED_SQL)
        # The finished query's executor is retired: hold the plan's root.
        root = handle.executor.root
        rows = handle.wait()
        assert len(rows) >= 6  # ~90% of 10 products pass the filter
        swaps = [c for c in handle.plan_history() if c.kind == "sort-strategy"]
        assert len(swaps) == 1
        assert swaps[0].before == "comparison" and swaps[0].after == "rating"
        assert swaps[0].estimated_savings > 0
        # The running plan now contains the rating sort.
        sorts = [op for op in root.walk() if isinstance(op, CrowdSortOperator)]
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

    @pytest.mark.parametrize(
        "n_products, n_tags, copies, sql",
        [
            # No crowd filter: the sort input is the exact scan cardinality.
            (10, 0, 1, "SELECT name FROM products ORDER BY biggerItem(name)"),
            # A machine join emits exactly its planned 20 rows; while it runs
            # it must not be read as its 200-row left input.
            (200, 20, 1, LOCAL_JOIN_SQL),
            # Duplicate keys on the larger side (four tags for each of five
            # products): 10 x 20 / 10 = 20 rows planned and emitted; while the
            # join runs it must not be read as its 10-row smaller input.
            (10, 5, 4, LOCAL_JOIN_SQL),
        ],
        ids=["scan", "local-join", "local-join-fk"],
    )
    def test_accurate_estimates_are_left_alone(self, n_products, n_tags, copies, sql):
        engine, workload = build_engine(
            adaptive=True, n_products=n_products, misestimate=False
        )
        if n_tags:
            add_tags(engine, workload, n_tags, copies)
        handle = engine.query(sql)
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


class TestReplannerEstimates:
    def test_running_local_join_is_estimated_by_its_logical_node(self):
        engine, workload = build_engine(adaptive=True, n_products=200, misestimate=False)
        add_tags(engine, workload, 20)
        planned = engine.planner.plan(parse_select(LOCAL_JOIN_SQL), query_id="est")
        rows = engine.replanner._estimate_rows(planned.root)
        sort = next(op for op in planned.root.walk() if isinstance(op, CrowdSortOperator))
        join = next(op for op in planned.root.walk() if isinstance(op, LocalHashJoinOperator))
        # Nothing has run: the join is read as the rows it will emit, which
        # is what the sort was planned against — not its 200-row left input.
        assert rows[id(join)] == pytest.approx(20.0)
        assert rows[id(sort.children[0])] == pytest.approx(sort.planned_input_rows)

    def test_finished_operators_report_the_rows_they_emitted(self):
        # The poisoned statistics estimate the filter at ~0 rows; once it
        # has run, the replanner must read what it actually emitted.
        engine, _workload = build_engine(adaptive=False)
        handle = engine.query(MISESTIMATED_SQL)
        root = handle.executor.root
        handle.wait()
        rows = engine.replanner._estimate_rows(root)
        # The results sink has no node and is not estimated.
        done = [op for op in root.children[0].walk() if op.is_done()]
        assert done
        for operator in done:
            assert rows[id(operator)] == float(operator.metrics.rows_out)
        crowd_filter = next(op for op in done if isinstance(op, CrowdFilterOperator))
        assert rows[id(crowd_filter)] >= 6


class TestReplaceOperator:
    def test_replace_pending_sort_preserves_buffered_rows(self):
        engine, workload = build_engine(adaptive=False, misestimate=False)
        handle = engine.query("SELECT name FROM products ORDER BY biggerItem(name)")
        executor = handle.executor
        # Step locally until the sort has buffered the scan output but has
        # not submitted any comparisons (inputs not yet signalled finished).
        executor.open()
        executor.step_local()
        old = next(op for op in executor.operators() if isinstance(op, CrowdSortOperator))
        assert old.metrics.tasks_created == 0
        buffered = sum(len(batch) for batch, _slot in old.consumed_input()) + old.queued_rows()
        assert buffered > 0
        node = copy.copy(old.node)
        node.strategy = SortStrategy.RATING
        replacement = make_operator(node, old.children)
        executor.replace_operator(old, replacement)
        assert replacement.parent is old.parent or replacement.parent is not None
        # The plan tree carries the replacement's node over the old children.
        assert executor.plan_tree.children[0] is node
        assert node.children[0] is old.children[0].node
        rows = handle.wait()
        assert len(rows) == 10  # nothing lost in the swap
        assert replacement.ratings_asked == 10
        assert replacement.comparisons_asked == 0

    def test_replace_started_operator_is_refused(self):
        engine, _workload = build_engine(adaptive=False, misestimate=False)
        handle = engine.query("SELECT name FROM products ORDER BY rateSize(name)")
        executor = handle.executor
        old = next(op for op in executor.operators() if isinstance(op, CrowdSortOperator))
        while old.metrics.tasks_created == 0:
            engine.scheduler.step()
        replacement = make_operator(copy.copy(old.node), old.children)
        with pytest.raises(ExecutionError, match="already started"):
            executor.replace_operator(old, replacement)


class TestTemplateTreesStayReadOnly:
    def test_a_swap_copies_the_plan_tree_and_leaves_the_template_alone(self):
        engine, _workload = build_engine(adaptive=True)
        # A text planned twice keeps a plan template; the query plans from it.
        engine.explain(MISESTIMATED_SQL)
        engine.explain(MISESTIMATED_SQL)
        template = engine._statement(MISESTIMATED_SQL)[1].template
        assert template is not None

        def snapshot():
            return [
                [(node, getattr(node, "strategy", None)) for node in tree.walk()]
                for tree, _decisions in template.trees
            ]

        before = snapshot()
        handle = engine.query(MISESTIMATED_SQL)
        executor = handle.executor
        # Until a swap, the query shares the template's chosen tree.
        assert any(executor.plan_tree is tree for tree, _decisions in template.trees)
        top = executor.root.children[0]
        handle.wait()
        assert [c.after for c in handle.plan_history() if c.kind == "sort-strategy"] == [
            "rating"
        ]

        assert snapshot() == before
        kept = executor.plan_tree
        assert all(kept is not tree for tree, _decisions in template.trees)
        sort = next(node for node in kept.walk() if isinstance(node, LogicalSort))
        assert sort.strategy is SortStrategy.RATING
        operators, nodes = list(top.walk()), list(kept.walk())
        assert len(operators) == len(nodes)
        assert all(operator.node is node for operator, node in zip(operators, nodes))


class TestExplainOnEngine:
    def test_engine_explain_is_side_effect_free(self):
        engine, _workload = build_engine(adaptive=True)
        tables_before = len(engine.database.catalog)
        text = engine.explain(MISESTIMATED_SQL)
        assert "physical candidates" in text and "(chosen)" in text
        assert len(engine.database.catalog) == tables_before
        assert engine.queries == {} and engine.total_crowd_cost == 0.0

    def test_every_query_plans_through_the_engine_planner(self, monkeypatch):
        # The engine keeps one planner and looks ``plan`` up on each query,
        # so a wrapper patched onto the class (as tracers do) sees every call.
        engine, _workload = build_engine(adaptive=True, misestimate=False)
        original = QueryPlanner.plan
        planners = []

        def traced(self, statement, **kwargs):
            planners.append(self)
            return original(self, statement, **kwargs)

        monkeypatch.setattr(QueryPlanner, "plan", traced)
        for _ in range(2):
            engine.query("SELECT name FROM products ORDER BY biggerItem(name)").wait()
        assert planners == [engine.planner, engine.planner]
