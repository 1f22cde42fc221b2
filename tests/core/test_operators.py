"""Unit tests for physical operators driven through a real (simulated-crowd) context."""

import pytest

from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle
from repro.core.exec.scheduler import EngineScheduler
from repro.core.operators import (
    AggregateSpec,
    CrowdFilterOperator,
    CrowdGenerateOperator,
    CrowdJoinOperator,
    CrowdSortOperator,
    GroupByOperator,
    JoinStrategy,
    LimitOperator,
    LocalFilterOperator,
    ProjectOperator,
    ProjectionItem,
    ResultSinkOperator,
    ScanOperator,
    SortStrategy,
)
from repro.core.operators.sort_local import LocalSortOperator
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.task_manager import TaskManager
from repro.crowd import MTurkSimulator, PopulationMix, SimulationClock, WorkerPool
from repro.errors import OperatorError
from repro.storage import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Database,
    DataType,
    Literal,
    Schema,
    Table,
)
from repro.workloads import CelebrityWorkload, CompaniesWorkload, CompositeOracle, ProductsWorkload


@pytest.fixture
def products():
    return ProductsWorkload(n_products=16, seed=21)


@pytest.fixture
def celebrities():
    return CelebrityWorkload(n_celebrities=6, n_spotted=6, seed=22)


@pytest.fixture
def companies():
    return CompaniesWorkload(n_companies=8, seed=23)


def build_runtime(oracles, seed=3, mix=None):
    database = Database()
    clock = SimulationClock()
    pool = WorkerPool(size=60, seed=seed, mix=mix or PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0))
    platform = MTurkSimulator(clock, pool, CompositeOracle(oracles))
    statistics = StatisticsManager()
    budget = BudgetLedger()
    manager = TaskManager(platform, statistics, budget)
    context = ExecutionContext("q1", database, manager, statistics, budget, clock, QueryConfig(adaptive=False))
    return database, context


def execute(root, context):
    """Run a hand-built plan the way every query runs: submitted to a scheduler."""
    executor = QueryExecutor(root, context)
    scheduler = EngineScheduler(context.clock, context.task_manager)
    handle = QueryHandle(context.query_id, "<hand-built plan>", executor, root.results_table)
    scheduler.submit(handle).wait()
    return executor


def sink_for(operator, database, query_id="q1"):
    table = Table(query_id, operator.output_schema)
    sink = ResultSinkOperator(table)
    sink.add_child(operator)
    return sink, table


class TestLocalOperators:
    def test_project_and_local_filter(self):
        schema = Schema.of(("name", DataType.STRING), ("price", DataType.FLOAT))
        table = Table("t", schema)
        table.insert_many([["a", 5.0], ["b", 15.0], ["c", 25.0]])
        database, context = build_runtime({})
        scan = ScanOperator(table)
        keep = LocalFilterOperator(Comparison(">", ColumnRef("price"), Literal(10.0)), scan.output_schema)
        keep.add_child(scan)
        project = ProjectOperator([
            ProjectionItem("name", ColumnRef("t.name")),
            ProjectionItem("double_price", Arithmetic("*", ColumnRef("price"), Literal(2))),
        ])
        project.add_child(keep)
        sink, results = sink_for(project, database)
        execute(sink, context)
        assert [(r["name"], r["double_price"]) for r in results.rows()] == [("b", 30.0), ("c", 50.0)]

    def test_group_by_and_limit(self):
        schema = Schema.of(("category", DataType.STRING), ("price", DataType.FLOAT))
        table = Table("t", schema)
        table.insert_many([["a", 1.0], ["a", 3.0], ["b", 10.0]])
        database, context = build_runtime({})
        scan = ScanOperator(table)
        group = GroupByOperator(
            ["t.category"],
            [AggregateSpec("n", "count", None), AggregateSpec("total", "sum", ColumnRef("t.price"))],
            scan.output_schema,
        )
        group.add_child(scan)
        limit = LimitOperator(1, group.output_schema)
        limit.add_child(group)
        sink, results = sink_for(limit, database)
        execute(sink, context)
        rows = results.rows()
        assert len(rows) == 1
        assert rows[0]["t.category"] == "a"
        assert rows[0]["n"] == 2 and rows[0]["total"] == pytest.approx(4.0)

    def test_local_sort_orders_and_places_nulls_last(self):
        schema = Schema.of(("name", DataType.STRING), ("price", DataType.FLOAT))
        table = Table("t", schema)
        table.insert_many([["a", 5.0], ["b", None], ["c", 1.0]])
        database, context = build_runtime({})
        scan = ScanOperator(table)
        sort = LocalSortOperator(ColumnRef("price"), scan.output_schema, ascending=True)
        sort.add_child(scan)
        sink, results = sink_for(sort, database)
        execute(sink, context)
        assert [r["name"] for r in results.rows()] == ["c", "a", "b"]

    def test_limit_rejects_negative(self):
        with pytest.raises(OperatorError):
            LimitOperator(-1, Schema.of("a"))

    def test_aggregate_spec_validates_function(self):
        with pytest.raises(OperatorError):
            AggregateSpec("x", "median", None)


class TestCrowdFilterOperator:
    def test_keeps_only_rows_the_crowd_approves(self, products):
        database, context = build_runtime({"isTargetColor": products.oracle()})
        table = products.install(database)
        scan = ScanOperator(table)
        crowd_filter = CrowdFilterOperator(
            products.color_filter_spec(assignments=3), [ColumnRef("products.name")], scan.output_schema
        )
        crowd_filter.add_child(scan)
        sink, results = sink_for(crowd_filter, database)
        execute(sink, context)
        names = {row["products.name"] for row in results.rows()}
        assert names == products.true_target_names()

    def test_negated_filter_returns_complement(self, products):
        database, context = build_runtime({"isTargetColor": products.oracle()})
        table = products.install(database)
        scan = ScanOperator(table)
        crowd_filter = CrowdFilterOperator(
            products.color_filter_spec(assignments=1),
            [ColumnRef("products.name")],
            scan.output_schema,
            negate=True,
        )
        crowd_filter.add_child(scan)
        sink, results = sink_for(crowd_filter, database)
        execute(sink, context)
        names = {row["products.name"] for row in results.rows()}
        assert names == {r.name for r in products.records} - products.true_target_names()


class TestCrowdGenerateOperator:
    def test_widens_schema_with_task_returns(self, companies):
        database, context = build_runtime({"findCEO": companies.oracle()})
        table = companies.install(database)
        scan = ScanOperator(table)
        generate = CrowdGenerateOperator(
            companies.findceo_spec(assignments=3), [ColumnRef("companies.companyName")], scan.output_schema
        )
        generate.add_child(scan)
        sink, results = sink_for(generate, database)
        execute(sink, context)
        rows = results.rows()
        assert len(rows) == 8
        assert "findCEO.CEO" in rows[0].schema.names
        accuracy = companies.score_results(
            rows, company_column="companies.companyName", ceo_column="findCEO.CEO"
        )
        assert accuracy == 1.0


class TestCrowdJoinOperator:
    @pytest.mark.parametrize("strategy", [JoinStrategy.PAIRWISE, JoinStrategy.COLUMNS])
    def test_both_interfaces_find_the_true_matches(self, celebrities, strategy):
        database, context = build_runtime({"samePerson": celebrities.oracle()})
        celebs, spotted = celebrities.install(database)
        left, right = ScanOperator(celebs), ScanOperator(spotted)
        join = CrowdJoinOperator(
            celebrities.sameperson_spec(assignments=3, batch_size=4),
            left.output_schema,
            right.output_schema,
            strategy=strategy,
            left_payload=celebrities.left_payload,
            right_payload=celebrities.right_payload,
        )
        join.add_child(left)
        join.add_child(right)
        sink, results = sink_for(join, database)
        execute(sink, context)
        score = celebrities.score_results(results.rows())
        assert score["precision"] == 1.0 and score["recall"] == 1.0

    def test_columns_interface_posts_far_fewer_hits(self, celebrities):
        def run(strategy):
            database, context = build_runtime({"samePerson": celebrities.oracle()})
            celebs, spotted = celebrities.install(database)
            left, right = ScanOperator(celebs), ScanOperator(spotted)
            join = CrowdJoinOperator(
                celebrities.sameperson_spec(assignments=1),
                left.output_schema,
                right.output_schema,
                strategy=strategy,
                left_payload=celebrities.left_payload,
                right_payload=celebrities.right_payload,
            )
            join.add_child(left)
            join.add_child(right)
            sink, _results = sink_for(join, database)
            execute(sink, context)
            return context.statistics.query("q1").hits_posted

        assert run(JoinStrategy.COLUMNS) < run(JoinStrategy.PAIRWISE)

    def test_prefilter_reduces_pairs_asked(self, celebrities):
        database, context = build_runtime({"samePerson": celebrities.oracle()})
        celebs, spotted = celebrities.install(database)
        left, right = ScanOperator(celebs), ScanOperator(spotted)
        join = CrowdJoinOperator(
            celebrities.sameperson_spec(interface="pairs", assignments=1),
            left.output_schema,
            right.output_schema,
            strategy=JoinStrategy.PAIRWISE,
            left_payload=celebrities.left_payload,
            right_payload=celebrities.right_payload,
            prefilter=celebrities.feature_prefilter(0.5),
        )
        join.add_child(left)
        join.add_child(right)
        sink, results = sink_for(join, database)
        execute(sink, context)
        assert join.pairs_prefiltered > 0
        assert join.pairs_asked < join.pairs_considered
        score = celebrities.score_results(results.rows())
        assert score["recall"] >= 0.8


class TestCrowdSortOperator:
    def test_comparison_sort_recovers_the_true_order(self, products):
        database, context = build_runtime({"biggerItem": products.oracle()})
        table = products.install(database)
        scan = ScanOperator(table)
        sort = CrowdSortOperator(
            products.size_compare_spec(assignments=1, batch_size=10),
            scan.output_schema,
            strategy=SortStrategy.COMPARISON,
            payload=lambda row: {"name": row["name"]},
        )
        sort.add_child(scan)
        sink, results = sink_for(sort, database)
        execute(sink, context)
        observed = [row["products.name"] for row in results.rows()]
        rho = products.rank_correlation(products.true_size_order(), observed)
        assert rho > 0.9

    def test_rating_sort_is_cheaper_but_noisier(self, products):
        def run(strategy, spec):
            database, context = build_runtime({"rateSize": products.oracle(), "biggerItem": products.oracle()})
            table = products.install(database)
            scan = ScanOperator(table)
            sort = CrowdSortOperator(
                spec, scan.output_schema, strategy=strategy,
                payload=lambda row: {"name": row["name"]},
            )
            sort.add_child(scan)
            sink, results = sink_for(sort, database)
            execute(sink, context)
            observed = [row["products.name"] for row in results.rows()]
            rho = products.rank_correlation(products.true_size_order(), observed)
            return rho, context.statistics.query("q1").spent

        rho_rating, cost_rating = run(
            SortStrategy.RATING, products.size_rating_spec(assignments=3, batch_size=5)
        )
        rho_compare, cost_compare = run(
            SortStrategy.COMPARISON, products.size_compare_spec(assignments=3, batch_size=5)
        )
        assert cost_rating < cost_compare
        assert rho_compare >= rho_rating

    def test_empty_and_single_row_inputs(self):
        schema = Schema.of(("name", DataType.STRING),)
        table = Table("t", schema)
        database, context = build_runtime({})
        scan = ScanOperator(table)
        products = ProductsWorkload(n_products=2, seed=1)
        sort = CrowdSortOperator(products.size_compare_spec(), scan.output_schema)
        sort.add_child(scan)
        sink, results = sink_for(sort, database)
        execute(sink, context)
        assert len(results) == 0
