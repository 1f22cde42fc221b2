"""Unit tests for the logical plan IR: lowering, costing, annotation."""

import pytest

from repro.core.lang.sql_parser import parse_select
from repro.core.optimizer.cost_model import CostModel
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.plan.logical import (
    LogicalFilter,
    LogicalGenerate,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    render_tree,
)
from repro.core.plan.planner import QueryPlanner
from repro.core.plan.registry import TaskRegistry
from repro.storage import Database
from repro.workloads import CelebrityWorkload, CompaniesWorkload, ProductsWorkload


@pytest.fixture
def environment():
    database = Database()
    companies = CompaniesWorkload(n_companies=10, seed=1)
    celebrities = CelebrityWorkload(n_celebrities=9, n_spotted=9, seed=2)
    products = ProductsWorkload(n_products=12, seed=3)
    companies.install(database)
    celebrities.install(database)
    products.install(database)
    registry = TaskRegistry()
    registry.register(companies.findceo_spec())
    registry.register(
        celebrities.sameperson_spec(),
        left_payload=celebrities.left_payload,
        right_payload=celebrities.right_payload,
    )
    registry.register(products.color_filter_spec())
    registry.register(products.size_rating_spec(), payload=lambda row: {"name": row["name"]})
    registry.register(products.size_compare_spec(), payload=lambda row: {"name": row["name"]})
    statistics = StatisticsManager()
    optimizer = QueryOptimizer(statistics, CostModel())
    planner = QueryPlanner(database, registry, optimizer)
    return planner, optimizer, statistics


def choose(planner, plan):
    """The costed winner among ``plan``'s enumerated trees, and every candidate."""
    return planner.physical.pick(planner.physical.enumerate_trees(plan))


def nodes_of(root, node_type):
    return [node for node in root.walk() if isinstance(node, node_type)]


class TestLowering:
    def test_generate_query_lowering(self, environment):
        planner, _opt, _stats = environment
        plan = planner.lower(
            parse_select("SELECT companyName, findCEO(companyName).CEO FROM companies")
        )
        assert set(plan.table_pipelines) == {"companies"}
        assert not plan.join_predicates and not plan.crowd_filters
        kinds = [type(node) for node in plan.upper]
        assert kinds == [LogicalGenerate, LogicalProject]

    def test_filter_and_sort_lowering(self, environment):
        planner, _opt, _stats = environment
        plan = planner.lower(
            parse_select(
                "SELECT name FROM products WHERE isTargetColor(name) AND price < 50 "
                "ORDER BY biggerItem(name) LIMIT 3"
            )
        )
        # The local predicate is pushed into the table pipeline, below crowd work.
        pipeline = plan.table_pipelines["products"]
        assert isinstance(pipeline, LogicalFilter) and not pipeline.is_crowd
        assert isinstance(pipeline.children[0], LogicalScan)
        crowd = plan.crowd_filters["products"]
        assert len(crowd) == 1 and crowd[0].spec.name == "isTargetColor"
        kinds = [type(node) for node in plan.upper]
        assert kinds == [LogicalSort, LogicalLimit, LogicalProject]
        assert plan.upper[0].is_crowd

    def test_join_lowering(self, environment):
        planner, _opt, _stats = environment
        plan = planner.lower(
            parse_select(
                "SELECT celebrities.name FROM celebrities, spottedstars "
                "WHERE samePerson(celebrities.image, spottedstars.image)"
            )
        )
        assert len(plan.join_predicates) == 1
        join = plan.join_predicates[0]
        assert isinstance(join, LogicalJoin)
        assert (join.left_binding, join.right_binding) == ("celebrities", "spottedstars")

    def test_group_by_lowering(self, environment):
        planner, _opt, _stats = environment
        plan = planner.lower(
            parse_select("SELECT category, count(name) AS n FROM products GROUP BY category")
        )
        groups = [node for node in plan.upper if isinstance(node, LogicalGroupBy)]
        assert len(groups) == 1
        assert groups[0].group_columns == ["category"]


class TestAnnotation:
    def test_filter_applies_selectivity_prior(self, environment):
        planner, optimizer, _stats = environment
        plan = planner.lower(parse_select("SELECT name FROM products WHERE isTargetColor(name)"))
        chosen, _candidates = choose(planner, plan)
        filters = nodes_of(chosen.root, LogicalFilter)
        assert filters[0].estimated_rows == pytest.approx(12 * 0.5)

    def test_negated_filter_uses_complement_selectivity(self, environment):
        planner, optimizer, statistics = environment
        stats = statistics.spec("isTargetColor")
        stats.boolean_total = 36
        stats.boolean_true = 0  # observed selectivity ~0.05 after the prior blend
        plan = planner.lower(
            parse_select("SELECT name FROM products WHERE NOT isTargetColor(name)")
        )
        chosen, _ = choose(planner, plan)
        crowd_filter = next(n for n in nodes_of(chosen.root, LogicalFilter) if n.is_crowd)
        assert crowd_filter.negate
        assert crowd_filter.estimated_rows == pytest.approx(12 * (1 - 2 / 40))

    def test_local_operators_pass_through_cardinality(self, environment):
        """GroupBy, Limit and local Sort annotate with their input cardinality."""
        planner, optimizer, _stats = environment
        plan = planner.lower(
            parse_select(
                "SELECT category, count(name) AS n FROM products "
                "WHERE isTargetColor(name) GROUP BY category LIMIT 2"
            )
        )
        chosen, _ = choose(planner, plan)
        group = nodes_of(chosen.root, LogicalGroupBy)[0]
        limit = nodes_of(chosen.root, LogicalLimit)[0]
        expected = 12 * 0.5
        assert group.estimated_rows == pytest.approx(expected)
        assert limit.estimated_rows == pytest.approx(expected)
        # Local ORDER BY likewise passes through.
        plan = planner.lower(parse_select("SELECT name FROM products ORDER BY price ASC"))
        chosen, _ = choose(planner, plan)
        local_sort = next(n for n in nodes_of(chosen.root, LogicalSort) if not n.is_crowd)
        assert local_sort.estimated_rows == pytest.approx(12)
        assert local_sort.estimated_cost.dollars == 0.0

    def test_render_tree_mentions_rows(self, environment):
        planner, optimizer, _stats = environment
        plan = planner.lower(parse_select("SELECT name FROM products"))
        chosen, _ = choose(planner, plan)
        text = render_tree(chosen.root)
        assert "scan(products)" in text and "rows]" in text


class TestPlanTree:
    def test_operators_keep_the_nodes_that_planned_them(self, environment):
        planner, optimizer, _stats = environment
        planned = planner.plan(
            parse_select("SELECT name FROM products WHERE isTargetColor(name)"),
            query_id="q1",
        )
        sink = planned.root
        assert sink.node is None
        operators = list(sink.children[0].walk())
        nodes = list(planned.chosen.root.walk())
        assert len(operators) == len(nodes)
        assert all(op.node is node for op, node in zip(operators, nodes))
        labels = [node.label() for node in nodes]
        assert labels == ["scan(products)", "crowd-filter(isTargetColor)", "project"]

    def test_estimate_plan_cost_matches_logical_costing(self, environment):
        planner, optimizer, _stats = environment
        planned = planner.plan(
            parse_select(
                "SELECT celebrities.name FROM celebrities, spottedstars "
                "WHERE samePerson(celebrities.image, spottedstars.image)"
            ),
            query_id="q2",
        )
        physical_estimate = optimizer.estimate_plan_cost(planned.root)
        assert physical_estimate.dollars == pytest.approx(planned.chosen.cost.dollars)
        assert physical_estimate.hits == pytest.approx(planned.chosen.cost.hits)

    def test_clone_is_independent(self, environment):
        planner, optimizer, _stats = environment
        plan = planner.lower(parse_select("SELECT name FROM products"))
        original = plan.table_pipelines["products"]
        copy = original.clone()
        optimizer.estimate_logical_cost(copy)
        assert copy.estimated_rows == 12
        assert original.estimated_rows is None

    def test_clone_keeps_decisions_and_resets_annotations_for_every_node_type(self, environment):
        planner, optimizer, _stats = environment
        planned = planner.plan(
            parse_select(
                "SELECT celebrities.name FROM celebrities, spottedstars "
                "WHERE samePerson(celebrities.image, spottedstars.image) LIMIT 3"
            ),
            query_id="q3",
        )
        original = planned.chosen.root
        copy = original.clone()
        pairs = list(zip(original.walk(), copy.walk()))
        assert len(pairs) >= 5
        for before, after in pairs:
            assert type(after) is type(before) and after is not before
            assert after.label() == before.label()  # decisions (strategy, ...) carried
            assert before.estimated_rows is not None
            assert after.estimated_rows is None and after.estimated_cost is None
            assert after.children is not before.children
            kept = {k: v for k, v in vars(before).items() if not k.startswith(("children", "estimated_"))}
            assert {k: vars(after)[k] for k in kept} == kept
        assert optimizer.estimate_logical_cost(copy).dollars == planned.chosen.cost.dollars
