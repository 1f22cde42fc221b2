"""Unit tests for the query planner (SQL → physical operator trees)."""

import pytest

from repro.core.lang.sql_parser import parse_select
from repro.core.operators import (
    CrowdFilterOperator,
    CrowdGenerateOperator,
    CrowdJoinOperator,
    CrowdSortOperator,
    GroupByOperator,
    LimitOperator,
    LocalFilterOperator,
    ProjectOperator,
    ResultSinkOperator,
    ScanOperator,
)
from repro.core.operators.sort_local import LocalSortOperator
from repro.core.optimizer.cost_model import CostModel
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.plan.planner import QueryPlanner
from repro.core.plan.registry import TaskRegistry
from repro.errors import PlanError
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
    optimizer = QueryOptimizer(StatisticsManager(), CostModel())
    planner = QueryPlanner(database, registry, optimizer)
    return planner, database


def operators_of(planned, operator_type):
    return [op for op in planned.root.walk() if isinstance(op, operator_type)]


class TestQuery1Planning:
    def test_generate_operator_inserted_and_fields_rewritten(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies"
        )
        planned = planner.plan(statement, query_id="q1")
        assert isinstance(planned.root, ResultSinkOperator)
        generates = operators_of(planned, CrowdGenerateOperator)
        assert len(generates) == 1  # the two uses share one operator (and one HIT per company)
        assert planned.output_schema.names == ("companyName", "findCEO.CEO", "findCEO.Phone")

    def test_distinct_argument_sets_get_distinct_operators(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT findCEO(companyName).CEO, findCEO(industry).CEO AS other FROM companies"
        )
        planned = planner.plan(statement, query_id="q1")
        assert len(operators_of(planned, CrowdGenerateOperator)) == 2


class TestQuery2Planning:
    def test_join_predicate_becomes_crowd_join(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars "
            "WHERE samePerson(celebrities.image, spottedstars.image)"
        )
        planned = planner.plan(statement, query_id="q2")
        joins = operators_of(planned, CrowdJoinOperator)
        assert len(joins) == 1
        assert len(joins[0].children) == 2
        assert {type(c) for c in joins[0].children} == {ScanOperator}

    def test_two_tables_without_join_predicate_rejected(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT celebrities.name FROM celebrities, spottedstars")
        with pytest.raises(PlanError, match="join predicate"):
            planner.plan(statement)

    def test_more_than_two_tables_rejected(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT companyName FROM companies, celebrities, spottedstars "
            "WHERE samePerson(celebrities.image, spottedstars.image)"
        )
        with pytest.raises(PlanError):
            planner.plan(statement)


class TestFilterPlanning:
    def test_local_predicates_pushed_below_crowd_filters(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT name FROM products WHERE isTargetColor(name) AND price < 50"
        )
        planned = planner.plan(statement, query_id="q3")
        crowd_filters = operators_of(planned, CrowdFilterOperator)
        local_filters = operators_of(planned, LocalFilterOperator)
        assert len(crowd_filters) == 1 and len(local_filters) == 1
        # The local filter must sit below the crowd filter (closer to the scan).
        assert isinstance(crowd_filters[0].children[0], LocalFilterOperator)

    def test_negated_crowd_filter(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name FROM products WHERE NOT isTargetColor(name)")
        planned = planner.plan(statement)
        crowd_filters = operators_of(planned, CrowdFilterOperator)
        assert crowd_filters[0].negate is True

    def test_unknown_udf_treated_as_error(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name FROM products WHERE mysteryFunc(name)")
        with pytest.raises(PlanError):
            planner.plan(statement)

    def test_unknown_column_rejected(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name FROM products WHERE nonexistent > 3")
        with pytest.raises(PlanError, match="unknown column"):
            planner.plan(statement)


class TestOrderGroupLimitPlanning:
    def test_crowd_order_by_uses_crowd_sort(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name FROM products ORDER BY rateSize(name) LIMIT 3")
        planned = planner.plan(statement, query_id="q4")
        sorts = operators_of(planned, CrowdSortOperator)
        limits = operators_of(planned, LimitOperator)
        assert len(sorts) == 1 and len(limits) == 1

    def test_local_order_by_uses_local_sort(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name FROM products ORDER BY price ASC")
        planned = planner.plan(statement)
        assert len(operators_of(planned, LocalSortOperator)) == 1
        assert len(operators_of(planned, CrowdSortOperator)) == 0

    def test_group_by_with_aggregates(self, environment):
        planner, _db = environment
        statement = parse_select(
            "SELECT category, count(name) AS n, avg(price) AS mean_price "
            "FROM products GROUP BY category"
        )
        planned = planner.plan(statement)
        groups = operators_of(planned, GroupByOperator)
        assert len(groups) == 1
        assert planned.output_schema.names == ("category", "n", "mean_price")

    def test_projection_names_are_unique(self, environment):
        planner, _db = environment
        statement = parse_select("SELECT name, name FROM products")
        planned = planner.plan(statement)
        project = operators_of(planned, ProjectOperator)[0]
        names = [item.alias for item in project.items]
        assert len(names) == len(set(names))
