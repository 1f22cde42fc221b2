"""A finished query is a record, and a statement is parsed once.

Once a query has ended and none of its crowd work is in flight, the
scheduler retires its executor: the operator tree, kernels, queues and
execution context go, and the handle answers from what it kept.  Separately,
the engine keeps parsed statements by SQL text, so a repeated query skips the
parser.
"""

import dataclasses
import gc
import weakref

import pytest

import repro.engine
from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryStatus
from repro.core.tasks.task_manager import TaskManager
from repro.core.lang.sql_parser import parse_select
from repro.core.plan.planner import QueryPlanner
from repro.dashboard import QueryDashboard
from repro.errors import ExecutionError, ParseError
from repro.experiments import (
    QUERY1_SQL,
    QUERY2_SQL,
    build_celebrity_engine,
    build_companies_engine,
    build_products_engine,
)
from repro.storage.durability import DurabilityConfig
from repro.storage.wal import WriteAheadLog

LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)


def warm_lookups(n_companies=20):
    """A companies engine whose findCEO answers are all cached, plus lookup SQL."""
    run = build_companies_engine(n_companies=n_companies, seed=83)
    run.engine.query(QUERY1_SQL).wait()
    return run.engine, [LOOKUP_SQL.format(company=r.name) for r in run.workload.records]


def reading(engine, handle):
    """Everything a finished query is still asked about."""
    dashboard = QueryDashboard(engine)
    return (
        dataclasses.asdict(handle.stats),
        handle.describe_plan(),
        [change.describe() for change in handle.plan_history()],
        engine.estimate_query_cost(handle),
        dashboard.snapshot(handle.query_id),
        dashboard.render(handle.query_id),
    )


def lookup_scenario():
    engine, sqls = warm_lookups()
    return engine, engine.query(sqls[3])


def crowd_generate_scenario():
    engine = build_companies_engine(n_companies=6, seed=21).engine
    return engine, engine.query(QUERY1_SQL)


def crowd_sort_scenario():
    engine = build_products_engine(n_products=10, seed=7).engine
    return engine, engine.query("SELECT name FROM products ORDER BY rateSize(name) LIMIT 4")


def crowd_join_scenario():
    engine = build_celebrity_engine(n_celebrities=4, n_spotted=4).engine
    return engine, engine.query(QUERY2_SQL)


def over_budget_scenario(budget):
    engine = build_products_engine(n_products=6, filter_batch=2, seed=3).engine
    sql = "SELECT name FROM products WHERE isTargetColor(name)"
    return engine, engine.query(sql, budget=budget)


def over_budget_in_flight_scenario():
    # $0.05 pays for the first HIT only: it is still out when the query ends.
    return over_budget_scenario(0.05)


def over_budget_nothing_posted_scenario():
    # $0.01 pays for no HIT.  The cancelled tasks still count as outstanding
    # on the filter, but none of them can call back.
    return over_budget_scenario(0.01)


def degraded_scenario():
    # Six companies at 200s: two findCEO HITs are still out at the deadline.
    engine = build_companies_engine(n_companies=6, seed=21, enable_cache=False).engine
    config = QueryConfig(deadline=200.0, degradation="partial")
    return engine, engine.query(QUERY1_SQL, config=config)


class TestRetirement:
    def test_a_finished_lookup_keeps_a_record_not_its_tree(self):
        engine, sqls = warm_lookups()
        handle = engine.query(sqls[0])
        root = weakref.ref(handle.executor.root)
        context = weakref.ref(handle.executor.context)
        handle.wait()
        gc.collect()
        assert root() is None and context() is None
        assert handle.status is QueryStatus.COMPLETED
        assert handle.executor.is_complete() is True
        assert handle.executor.step_local() is False
        assert handle.executor.operators() == []
        assert handle.executor.metrics.finished_at is not None
        assert [row.values for row in handle.results()] == [
            row.values for row in engine.query(sqls[0]).wait()
        ]

    def test_a_retired_executor_refuses_to_replace_an_operator(self):
        engine, sqls = warm_lookups()
        handle = engine.query(sqls[0])
        old = handle.executor.operators()[0]
        handle.wait()
        with pytest.raises(ExecutionError, match="not part of this plan"):
            handle.executor.replace_operator(old, old)

    def test_a_finished_query_retains_few_tracked_objects(self):
        engine, sqls = warm_lookups()
        lookups = [sqls[i % len(sqls)] for i in range(300)]
        for sql in lookups[:100]:
            engine.query(sql).wait()
        gc.collect()
        before = len(gc.get_objects())
        for sql in lookups[100:]:
            engine.query(sql).wait()
        gc.collect()
        per_query = (len(gc.get_objects()) - before) / 200
        # 130 per query while every handle kept its live executor; 46 while
        # each plan built its own results schema and a record kept named
        # tuples and dataclasses, which the collector never stops tracking.
        assert per_query <= 16

    def test_plans_of_one_text_share_their_results_schema(self):
        engine, sqls = warm_lookups()
        engine.query(sqls[0]).wait()  # the text's first plan keeps no template
        first, second = (engine.query(sqls[0]) for _ in range(2))
        assert first.results_table.schema is second.results_table.schema
        first.wait()
        second.wait()
        aliased = engine.query(sqls[0].replace(".Phone ", ".Phone AS phone "))
        assert aliased.results_table.schema is not first.results_table.schema
        assert aliased.results_table.schema.names[-1] == "phone"

    def test_queries_leave_no_table_in_the_catalog(self):
        """A results table belongs to its handle; the catalog holds base tables."""
        engine, sqls = warm_lookups()
        for sql in sqls * 5:
            engine.query(sql).wait()
        assert engine.database.catalog.table_names() == ["companies"]
        assert len(engine.database.catalog) == 1

    def test_each_query_has_its_own_results_table_named_by_its_id(self):
        engine, sqls = warm_lookups(n_companies=4)
        first, second = engine.query(sqls[0]), engine.query(sqls[0])
        first.wait()
        second.wait()
        assert first.results_table is not second.results_table
        assert (first.results_table.name, second.results_table.name) == (
            first.query_id,
            second.query_id,
        )
        assert first.query_id != second.query_id
        assert len(first.results_table) == len(second.results_table) == 1

    @pytest.mark.parametrize(
        "scenario, retired",
        [
            (lookup_scenario, True),
            (crowd_generate_scenario, True),
            (crowd_sort_scenario, True),
            (crowd_join_scenario, True),
            (over_budget_nothing_posted_scenario, True),
            (over_budget_in_flight_scenario, False),
            (degraded_scenario, False),
        ],
        ids=[
            "lookup",
            "crowd-generate",
            "crowd-sort-limit",
            "crowd-join",
            "budget-0.01-nothing-posted",
            "budget-0.05-hit-in-flight",
            "degraded",
        ],
    )
    def test_a_query_reads_the_same_before_and_after_the_reap(
        self, monkeypatch, scenario, retired
    ):
        engine, handle = scenario()
        before = {}
        has_live_tasks = TaskManager.has_live_tasks

        # The reap asks this just before it would retire the executor.
        def read_then_ask(manager, query_id):
            if query_id == handle.query_id:
                before["reading"] = reading(engine, handle)
            return has_live_tasks(manager, query_id)

        monkeypatch.setattr(TaskManager, "has_live_tasks", read_then_ask)
        handle.wait()
        assert (handle.executor.root is None) is retired
        assert reading(engine, handle) == before["reading"]

    def test_a_degraded_query_with_hits_in_flight_keeps_its_tree(self):
        engine, handle = degraded_scenario()
        handle.wait()
        assert handle.status is QueryStatus.DEGRADED
        # Task callbacks still point into the tree: it is not retired.
        assert handle.executor.root is not None
        rows = QueryDashboard(engine).snapshot(handle.query_id).operators
        assert any(row.outstanding_tasks for row in rows)
        assert rows == handle.executor.operator_rows()

    def test_cancelled_tasks_do_not_hold_the_tree(self):
        engine, handle = over_budget_nothing_posted_scenario()
        handle.wait()
        assert handle.status is QueryStatus.BUDGET_EXCEEDED
        assert handle.executor.root is None
        # The record shows the filter's tasks as they stood when it ended.
        rows = QueryDashboard(engine).snapshot(handle.query_id).operators
        assert [row.outstanding_tasks for row in rows] == [0, 0, 6, 0]


@pytest.fixture
def parse_calls(monkeypatch):
    """SQL texts the engine handed to the parser (its cache misses)."""
    calls = []

    def counting(sql):
        calls.append(sql)
        return parse_select(sql)

    monkeypatch.setattr(repro.engine, "parse_select", counting)
    return calls


@pytest.fixture
def planned(monkeypatch):
    """Statements the engine planned, in order."""
    statements = []
    plan = QueryPlanner.plan

    def recording(self, statement, **kwargs):
        statements.append(statement)
        return plan(self, statement, **kwargs)

    monkeypatch.setattr(QueryPlanner, "plan", recording)
    return statements


class TestParseCache:
    def test_the_same_text_is_parsed_once_and_shared(self, parse_calls, planned):
        engine, sqls = warm_lookups()
        first = engine.query(sqls[1]).wait()
        second = engine.query(sqls[1]).wait()
        assert parse_calls.count(sqls[1]) == 1
        assert planned[-1] is planned[-2]
        assert [row.values for row in first] == [row.values for row in second]

    def test_malformed_text_raises_every_time(self, parse_calls):
        engine, _ = warm_lookups()
        parse_calls.clear()
        for _ in range(2):
            with pytest.raises(ParseError):
                engine.query("SELECT FROM WHERE")
        assert parse_calls == ["SELECT FROM WHERE"] * 2

    def test_a_pre_parsed_statement_is_used_as_it_is(self, parse_calls, planned):
        engine, sqls = warm_lookups()
        parse_calls.clear()
        statement = parse_select(sqls[2])
        engine.query(statement).wait()
        assert planned[-1] is statement
        assert parse_calls == []

    def test_explain_and_query_share_entries(self, parse_calls):
        engine, sqls = warm_lookups()
        parse_calls.clear()
        text = engine.explain(sqls[4])
        engine.query(sqls[4]).wait()
        assert engine.explain(sqls[4]) == text
        assert parse_calls == [sqls[4]]

    def test_a_durable_engine_journals_the_submitted_text(self, tmp_path):
        engine = build_companies_engine(n_companies=4, seed=5).engine
        engine.enable_durability(DurabilityConfig(directory=str(tmp_path), fsync="always"))
        sql = LOOKUP_SQL.format(company=engine.database.table("companies").rows()[0][0])
        engine.query(sql).wait()
        engine.query(sql).wait()
        engine.journal.close()
        info, _ = WriteAheadLog.scan(tmp_path / "wal.log")
        submitted = [r.data for r in info.records if r.type == "query_submitted"]
        assert submitted == [
            {"query_id": query_id, "sql": sql, "budget": None, "priority": 1.0}
            for query_id in ("q1", "q2")
        ]
