"""Unit tests for the executor loop, query handles and the experiment helpers."""

import pytest

from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle, QueryStatus
from repro.core.exec.scheduler import EngineScheduler
from repro.core.operators import ProjectOperator, ProjectionItem, ResultSinkOperator, ScanOperator
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.task_manager import TaskManager
from repro.crowd import CallbackOracle, MTurkSimulator, SimulationClock, WorkerPool
from repro.errors import ExecutionError
from repro.experiments import QUERY1_SQL, build_companies_engine, format_table
from repro.storage import ColumnRef, Database, DataType, Schema, Table


def local_plan():
    database = Database()
    table = Table("t", Schema.of(("x", DataType.INTEGER)))
    table.insert_many([[i] for i in range(5)])
    clock = SimulationClock()
    platform = MTurkSimulator(clock, WorkerPool(size=5, seed=1), CallbackOracle())
    statistics = StatisticsManager()
    budget = BudgetLedger()
    manager = TaskManager(platform, statistics, budget)
    context = ExecutionContext("q1", database, manager, statistics, budget, clock, QueryConfig())
    scan = ScanOperator(table)
    project = ProjectOperator([ProjectionItem("x", ColumnRef("t.x"))])
    project.add_child(scan)
    results = database.create_results_table(project.output_schema, query_id="q1")
    sink = ResultSinkOperator(results)
    sink.add_child(project)
    return sink, results, context


def submit(sink, results, context):
    """Hand a hand-built plan to a scheduler, the one driver there is."""
    scheduler = EngineScheduler(context.clock, context.task_manager)
    handle = QueryHandle("q1", "SELECT x FROM t", QueryExecutor(sink, context), results)
    return scheduler.submit(handle), scheduler


class TestQueryExecutor:
    def test_root_must_be_a_sink(self):
        _sink, _results, context = local_plan()
        with pytest.raises(ExecutionError):
            QueryExecutor(ScanOperator(Table("t", Schema.of("a"))), context)

    def test_local_plan_completes_without_crowd_events(self):
        handle, scheduler = submit(*local_plan())
        handle.wait()
        executor = handle.executor
        assert executor.is_complete()
        assert len(handle.results_table) == 5
        assert executor.metrics.passes > 0
        assert executor.metrics.finished_at is not None
        assert executor.context.statistics.query("q1").results_emitted == 5
        assert scheduler.metrics.clock_advances == 0

    def test_step_after_completion_is_a_noop(self):
        handle, scheduler = submit(*local_plan())
        handle.wait()
        assert handle.executor.step_local() is False
        assert scheduler.step() is False

    def test_run_with_deadline_stops_early(self):
        run = build_companies_engine(n_companies=5, seed=77)
        handle = run.engine.query(QUERY1_SQL)
        handle.run_until(1.0)
        assert not handle.executor.is_complete()
        # Reaching the deadline took clock advances, and the scheduler — the
        # only thing that may move the shared clock — accounted for them.
        advances = run.engine.scheduler.metrics.clock_advances
        assert advances > 0
        assert run.engine.clock.now >= 1.0
        handle.wait()
        assert handle.is_complete
        assert run.engine.scheduler.metrics.clock_advances > advances

    def test_the_executor_cannot_drive_itself(self):
        # One driver: nothing on the executor forces flushes or moves the clock.
        assert not hasattr(QueryExecutor, "step")
        assert not hasattr(QueryExecutor, "run")
        sink, _results, context = local_plan()
        assert not hasattr(QueryExecutor(sink, context).metrics, "clock_advances")


class TestQueryHandle:
    def test_handle_lifecycle_and_plan_description(self):
        sink, results, context = local_plan()
        handle = QueryHandle("q1", "SELECT x FROM t", QueryExecutor(sink, context), results)
        assert handle.status is QueryStatus.PENDING
        EngineScheduler(context.clock, context.task_manager).submit(handle)
        rows = handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        assert len(rows) == len(handle) == 5
        plan = handle.describe_plan()
        assert "results-sink" in plan and "scan(t)" in plan
        # A completed handle refuses to step further but keeps returning rows.
        assert handle.step() is False
        assert handle.results()[0]["x"] == 0


class TestExperimentHelpers:
    def test_format_table_alignment_and_values(self):
        text = format_table(
            "demo", ["a", "b"], [{"a": 1, "b": 1234.5678}, {"a": "xy", "b": 0.5}]
        )
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "1,235" in text and "0.500" in text
        assert len(lines) == 5  # title, header, separator, two data rows

    def test_build_companies_engine_is_ready_to_run(self):
        run = build_companies_engine(n_companies=4, seed=5)
        assert run.engine.database.has_table("companies")
        assert "findCEO" in run.engine.registry.names()
        assert run.metadata["n_companies"] == 4
