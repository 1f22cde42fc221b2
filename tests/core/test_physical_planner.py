"""Unit tests for physical plan enumeration, costing and EXPLAIN."""

import pytest

from repro.core.lang.sql_parser import parse_select
from repro.core.operators import CrowdJoinOperator, CrowdSortOperator, JoinStrategy
from repro.core.operators.crowd_sort import SortStrategy
from repro.core.optimizer.cost_model import CostModel
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.plan.planner import QueryPlanner
from repro.core.plan.registry import TaskRegistry
from repro.core.tasks.spec import (
    JoinColumnsResponse,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.errors import PlanError
from repro.storage import Database, DataType, Schema, Table
from repro.workloads import ProductsWorkload


def build_three_table_db():
    database = Database()
    for name, size in (("a", 4), ("b", 8), ("c", 16)):
        table = Table(name, Schema.of(("x", DataType.STRING)))
        for index in range(size):
            table.insert([f"{name}{index}"])
        database.catalog.register(table)
    registry = TaskRegistry()
    registry.register(
        TaskSpec(
            name="sameAB",
            task_type=TaskType.JOIN_PREDICATE,
            text="?",
            response=JoinColumnsResponse("L", "R", left_per_hit=3, right_per_hit=3),
            price=0.02,
            assignments=3,
        )
    )
    registry.register(
        TaskSpec(
            name="sameBC",
            task_type=TaskType.JOIN_PREDICATE,
            text="?",
            response=YesNoResponse(),
            price=0.02,
            assignments=3,
            batch_size=5,
        )
    )
    return database, registry


def build_planner(database, registry):
    statistics = StatisticsManager()
    optimizer = QueryOptimizer(statistics, CostModel())
    return QueryPlanner(database, registry, optimizer), statistics


TWO_JOIN_SQL = "SELECT a.x FROM a, b, c WHERE sameAB(a.x, b.x) AND sameBC(b.x, c.x)"


class TestJoinEnumeration:
    def test_two_crowd_join_query_enumerates_candidates(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        planned = planner.plan(parse_select(TWO_JOIN_SQL), query_id="q1")
        # 2 valid join orders x 2 interfaces for the JoinColumns predicate.
        assert len(planned.candidates) >= 2
        assert planned.chosen is planned.candidates[
            min(
                range(len(planned.candidates)),
                key=lambda i: (planned.candidates[i].cost.dollars, planned.candidates[i].cost.hits),
            )
        ]
        # The winner is strictly the cost-minimal candidate.
        assert all(
            planned.chosen.cost.dollars <= candidate.cost.dollars
            for candidate in planned.candidates
        )
        orders = {
            decision
            for candidate in planned.candidates
            for decision in candidate.decisions
            if decision.startswith("join order:")
        }
        assert len(orders) == 2  # both left-deep orders were costed

    def test_every_enumerated_candidate_decides_every_strategy(self):
        """``PhysicalPlanner.build`` has no undecided-strategy fallback: the
        only trees it is handed are enumerated candidates, and enumeration
        commits every crowd join interface, crowd sort interface and local
        join build side."""
        from repro.core.plan.logical import LogicalJoin, LogicalLocalJoin, LogicalSort

        database, registry = build_three_table_db()
        for name in ("l", "r"):
            table = Table(name, Schema.of(("id", DataType.INTEGER)))
            table.insert_many([i] for i in range(6))
            database.catalog.register(table)
        products = ProductsWorkload(n_products=6, seed=3)
        products.install(database)
        registry.register(products.size_compare_spec())
        planner, _stats = build_planner(database, registry)
        queries = (
            TWO_JOIN_SQL,
            "SELECT l.id FROM l, r WHERE l.id = r.id",
            "SELECT name FROM products ORDER BY biggerItem(name)",
        )
        for number, sql in enumerate(queries):
            planned = planner.plan(parse_select(sql), query_id=f"q{number}")
            decided = 0
            for candidate in planned.candidates:
                for node in candidate.root.walk():
                    if isinstance(node, LogicalJoin) or (
                        isinstance(node, LogicalSort) and node.is_crowd
                    ):
                        assert node.strategy is not None, (sql, candidate.decisions)
                        decided += 1
                    elif isinstance(node, LogicalLocalJoin):
                        assert node.build_side in ("left", "right"), (sql, candidate.decisions)
                        decided += 1
            assert decided >= len(planned.candidates)

    def test_built_plan_carries_chosen_interfaces(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        planned = planner.plan(parse_select(TWO_JOIN_SQL), query_id="q1")
        joins = [op for op in planned.root.walk() if isinstance(op, CrowdJoinOperator)]
        assert len(joins) == 2
        by_name = {join.spec.name: join for join in joins}
        assert by_name["sameAB"].strategy is JoinStrategy.COLUMNS
        assert by_name["sameBC"].strategy is JoinStrategy.PAIRWISE  # yes/no spec
        # Planned cardinalities are stamped for the adaptive replanner.
        assert all(join.planned_left_rows is not None for join in joins)

    def test_yes_no_spec_never_plans_columns(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        planned = planner.plan(parse_select(TWO_JOIN_SQL), query_id="q1")
        for candidate in planned.candidates:
            assert "join[sameBC]: columns" not in candidate.decisions

    def test_disconnected_tables_rejected(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        statement = parse_select("SELECT a.x FROM a, b, c WHERE sameAB(a.x, b.x)")
        with pytest.raises(PlanError, match="join predicate"):
            planner.plan(statement)


def build_products_planner():
    database = Database()
    products = ProductsWorkload(n_products=12, seed=3)
    products.install(database)
    registry = TaskRegistry()
    registry.register(products.color_filter_spec())
    registry.register(products.size_compare_spec(), payload=lambda row: {"name": row["name"]})
    registry.register(products.size_rating_spec(), payload=lambda row: {"name": row["name"]})
    planner, statistics = build_planner(database, registry)
    return planner, statistics


class TestSortEnumeration:
    def test_response_policy_keeps_comparison(self):
        planner, _stats = build_products_planner()
        planned = planner.plan(
            parse_select("SELECT name FROM products ORDER BY biggerItem(name)"), query_id="q1"
        )
        sorts = [op for op in planned.root.walk() if isinstance(op, CrowdSortOperator)]
        assert sorts[0].strategy is SortStrategy.COMPARISON
        assert len(planned.candidates) == 1

    def test_rating_response_is_never_enumerated_as_comparison(self):
        planner, _stats = build_products_planner()
        planned = planner.plan(
            parse_select("SELECT name FROM products ORDER BY rateSize(name)"), query_id="q1"
        )
        assert len(planned.candidates) == 1
        sorts = [op for op in planned.root.walk() if isinstance(op, CrowdSortOperator)]
        assert sorts[0].strategy is SortStrategy.RATING


class TestFilterPlacement:
    def build(self):
        database = Database()
        for name, size in (("a", 4), ("b", 40)):
            table = Table(name, Schema.of(("x", DataType.STRING)))
            for index in range(size):
                table.insert([f"{name}{index}"])
            database.catalog.register(table)
        registry = TaskRegistry()
        registry.register(
            TaskSpec(
                name="sameAB",
                task_type=TaskType.JOIN_PREDICATE,
                text="?",
                response=YesNoResponse(),  # pairwise: cost scales with the cross product
                price=0.02,
                assignments=3,
            )
        )
        registry.register(
            TaskSpec(
                name="goodB",
                task_type=TaskType.FILTER,
                text="?",
                response=YesNoResponse(),
                price=0.01,
                assignments=3,
            )
        )
        return build_planner(database, registry)

    def test_both_placements_enumerated(self):
        planner, _stats = self.build()
        statement = parse_select("SELECT a.x FROM a, b WHERE sameAB(a.x, b.x) AND goodB(b.x)")
        planned = planner.plan(statement, query_id="q1")
        placements = {
            decision
            for candidate in planned.candidates
            for decision in candidate.decisions
            if decision.startswith("filter[goodB]")
        }
        assert placements == {"filter[goodB]: below join", "filter[goodB]: above join"}
        # A pairwise join pays per pair, so filtering 40 rows down to ~20
        # before the join is cheaper than joining first; and the winner must
        # be the cost-minimal candidate.
        assert "filter[goodB]: below join" in planned.chosen.decisions
        assert all(
            planned.chosen.cost.dollars <= candidate.cost.dollars
            for candidate in planned.candidates
        )


class TestCostingPassCaching:
    def test_spec_stats_fetched_once_per_costing_pass(self):
        """Regression: the generate-node cache-hit rate reads SpecStats once.

        The seed implementation called ``statistics.spec(name)`` twice per
        generate node per costing; the CostingPass snapshots each spec once
        per pass no matter how many quantities derive from it.
        """
        database = Database()
        from repro.workloads import CompaniesWorkload

        companies = CompaniesWorkload(n_companies=10, seed=1)
        companies.install(database)
        registry = TaskRegistry()
        registry.register(companies.findceo_spec())
        statistics = StatisticsManager()
        calls: list[str] = []
        original = StatisticsManager.spec

        def counting_spec(self, name):
            calls.append(name)
            return original(self, name)

        StatisticsManager.spec = counting_spec
        try:
            optimizer = QueryOptimizer(statistics, CostModel())
            planner = QueryPlanner(database, registry, optimizer)
            plan = planner.lower(
                parse_select("SELECT companyName, findCEO(companyName).CEO FROM companies")
            )
            tree = planner.physical.default_tree(plan)
            calls.clear()
            optimizer.estimate_logical_cost(tree)
        finally:
            StatisticsManager.spec = original
        assert calls.count("findCEO") == 1


class TestExplain:
    def test_explain_lists_candidates_and_choice(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        text = planner.explain(parse_select(TWO_JOIN_SQL))
        assert "== logical plan" in text
        assert "== physical candidates (4 enumerated) ==" in text
        assert "(chosen)" in text
        assert "crowd-join(sameAB,columns)" in text

    def test_explain_is_side_effect_free(self):
        database, registry = build_three_table_db()
        planner, _stats = build_planner(database, registry)
        before = set(database.catalog.names()) if hasattr(database.catalog, "names") else None
        planner.explain(parse_select(TWO_JOIN_SQL))
        if before is not None:
            assert set(database.catalog.names()) == before
