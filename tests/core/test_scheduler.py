"""Tests for the engine-level multi-query scheduler.

Covers the tentpole behaviours: cross-query HIT batching with per-query
budget attribution, admission control with a pending queue, priority-weighted
stepping, lifecycle events on the dashboard, and stall surfacing.
"""

import pytest

from repro import QueryStatus, QurkEngine
from repro.core.exec.handle import QueryHandle
from repro.core.operators.base import Operator
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.batching import FixedBatching
from repro.core.tasks.spec import Parameter, TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import Task, TaskKind
from repro.core.tasks.task_manager import TaskManager
from repro.crowd import CallbackOracle, MTurkSimulator, PopulationMix, SimulationClock, WorkerPool
from repro.dashboard import QueryDashboard
from repro.errors import ExecutionError, QueryStalledError
from repro.experiments import build_products_engine
from repro.storage import DataType, Schema, Table

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"

FILTER_SPEC = TaskSpec(
    name="isRed",
    task_type=TaskType.FILTER,
    text="Is %s red?",
    response=YesNoResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
)

ORACLE = CallbackOracle(predicate=lambda item: item.payload.get("is_red", False))


def build_manager(*, budget_limits=None):
    clock = SimulationClock()
    pool = WorkerPool(size=50, seed=1, mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0))
    platform = MTurkSimulator(clock, pool, ORACLE)
    statistics = StatisticsManager()
    budget = BudgetLedger()
    for query_id, limit in (budget_limits or {}).items():
        budget.register(query_id, limit)
    manager = TaskManager(platform, statistics, budget)
    return clock, platform, statistics, budget, manager


def filter_task(sink, *, name, query_id):
    return Task(
        kind=TaskKind.FILTER,
        spec=FILTER_SPEC,
        payload={"args": (name,), "name": name, "is_red": True},
        callback=sink.append,
        query_id=query_id,
    )


class TestCrossQueryBatching:
    def test_one_hit_carries_tasks_from_two_queries(self):
        """The acceptance-criterion unit test: a shared HIT, per-query spend."""
        clock, platform, statistics, budget, manager = build_manager()
        manager.set_batching_policy("isRed", TaskKind.FILTER, FixedBatching(4))
        results = []
        for index in range(2):
            manager.submit(filter_task(results, name=f"a{index}", query_id="q1"))
        for index in range(2):
            manager.submit(filter_task(results, name=f"b{index}", query_id="q2"))
        assert manager.flush() == 1
        assert platform.stats.hits_created == 1
        assert manager.stats.cross_query_hits == 1
        (inflight,) = manager._inflight.values()
        assert inflight.compiled.query_ids() == ("q1", "q2")
        # The committed cost is split across the two BudgetLedger entries.
        assert budget.committed("q1") == pytest.approx(inflight.cost_committed / 2)
        assert budget.committed("q2") == pytest.approx(inflight.cost_committed / 2)
        clock.run_until_idle()
        assert len(results) == 4
        # Actual spend is attributed per query through each task's query_id.
        assert statistics.query("q1").spent == pytest.approx(statistics.query("q2").spent)
        assert statistics.query("q1").spent > 0

    def test_shares_are_weighted_by_each_tasks_own_cost(self):
        """A cheap low-redundancy query is not billed at its neighbour's rate."""
        clock, _platform, _statistics, budget, manager = build_manager()
        manager.set_batching_policy("isRed", TaskKind.FILTER, FixedBatching(2))
        results = []
        heavy = filter_task(results, name="h", query_id="heavy")
        heavy.assignments_override = 6
        light = filter_task(results, name="l", query_id="light")
        light.assignments_override = 3
        manager.submit(heavy)
        manager.submit(light)
        assert manager.flush() == 1
        (inflight,) = manager._inflight.values()
        # The HIT runs at 6 assignments; heavy carries 6/9 of the cost.
        assert budget.committed("heavy") == pytest.approx(inflight.cost_committed * 6 / 9)
        assert budget.committed("light") == pytest.approx(inflight.cost_committed * 3 / 9)
        clock.run_until_idle()

    def test_unaffordable_query_is_dropped_from_shared_batch(self):
        clock, platform, _statistics, budget, manager = build_manager(
            budget_limits={"poor": 0.001}
        )
        manager.set_batching_policy("isRed", TaskKind.FILTER, FixedBatching(4))
        results = []
        manager.submit(filter_task(results, name="a", query_id="rich"))
        manager.submit(filter_task(results, name="b", query_id="rich"))
        manager.submit(filter_task(results, name="c", query_id="poor"))
        manager.submit(filter_task(results, name="d", query_id="poor"))
        # The mixed batch never raises: the poor query is dropped, the HIT
        # posts for the rich one, and the failure is retrievable per query.
        assert manager.flush() == 1
        errors = manager.take_budget_errors()
        assert set(errors) == {"poor"}
        assert errors["poor"].query_id == "poor"
        assert manager.take_budget_errors() == {}
        assert budget.committed("poor") == 0.0
        assert manager.stats.tasks_dropped_over_budget == 2
        clock.run_until_idle()
        assert {result.task.query_id for result in results} == {"rich"}

    def test_dropping_a_query_recheck_survivors_affordability(self):
        """Absorbing a dropped query's cost slice can bust a survivor too."""
        clock, platform, _statistics, budget, manager = build_manager(
            budget_limits={"tight": 0.04, "broke": 0.001}
        )
        manager.set_batching_policy("isRed", TaskKind.FILTER, FixedBatching(4))
        results = []
        for index in range(3):
            manager.submit(filter_task(results, name=f"t{index}", query_id="tight"))
        manager.submit(filter_task(results, name="b", query_id="broke"))
        # One HIT costs 3 * 0.015 = 0.045: "tight" affords its 3/4 slice only
        # while "broke" shares the HIT; once "broke" is dropped the whole cost
        # falls on "tight", which must then be dropped as well — not raise.
        assert manager.flush(raise_on_budget=False) == 0
        assert set(manager.take_budget_errors()) == {"tight", "broke"}
        assert budget.committed("tight") == 0.0
        assert platform.stats.hits_created == 0

    def test_engine_level_sharing_between_concurrent_queries(self):
        run = build_products_engine(n_products=12, filter_batch=10, seed=42)
        first = run.engine.query(FILTER_SQL)
        second = run.engine.query(FILTER_SQL)
        rows = first.wait()
        assert first.status is QueryStatus.COMPLETED
        stats = run.engine.task_manager.stats
        # Waiting on one handle progressed the other query's crowd work too:
        # all of `second`'s HITs were already posted, so finishing it just
        # drains what is still in flight.
        hits_after_first = stats.hits_posted
        second.wait()
        assert second.status is QueryStatus.COMPLETED
        assert stats.hits_posted == hits_after_first
        assert len(rows) > 0 and len(second.results()) > 0
        assert stats.cross_query_hits >= 1
        # Fewer HITs than two isolated runs (the cross-query batching win):
        # each solo run posts a forced partial HIT for its 2-task remainder,
        # while the shared queue fills those slots with the other query's work.
        solo = build_products_engine(n_products=12, filter_batch=10, seed=42)
        solo.engine.query(FILTER_SQL).wait()
        solo_hits = solo.engine.task_manager.stats.hits_posted
        assert stats.hits_posted < 2 * solo_hits
        # Spend still lands on each query's own ledger entry.
        ledger = run.engine.budget_ledger
        assert ledger.committed(first.query_id) > 0
        assert ledger.committed(second.query_id) > 0
        assert first.stats.spent > 0 and second.stats.spent > 0


class TestBudgetIsolation:
    def test_exhausted_query_dies_without_hurting_its_neighbour(self):
        run = build_products_engine(n_products=18, filter_batch=5, seed=42)
        poor = run.engine.query(FILTER_SQL, budget=0.01)
        rich = run.engine.query(FILTER_SQL)
        rows = rich.wait()
        assert rich.status is QueryStatus.COMPLETED
        assert len(rows) > 0
        assert poor.status is QueryStatus.BUDGET_EXCEEDED
        assert poor.error is not None
        assert poor.stats.spent <= 0.01 + 1e-9
        events = {e.event for e in run.engine.scheduler.events_for(poor.query_id)}
        assert "budget_exceeded" in events

    def test_budget_exhaustion_on_a_forced_flush_is_not_a_stall(self):
        """A query killed by the final forced flush keeps BUDGET_EXCEEDED."""
        run = build_products_engine(n_products=2, filter_batch=4, seed=11)
        handle = run.engine.query(FILTER_SQL, budget=0.01)
        rows = handle.wait()  # must not raise QueryStalledError
        assert handle.status is QueryStatus.BUDGET_EXCEEDED
        assert rows == []
        events = [e.event for e in run.engine.scheduler.events_for(handle.query_id)]
        assert "stalled" not in events


class TestAdmissionControl:
    def test_queries_beyond_the_limit_wait_for_a_slot(self):
        run = build_products_engine(n_products=10, filter_batch=5, seed=21)
        run.engine.scheduler.max_concurrent_queries = 2
        handles = [run.engine.query(FILTER_SQL) for _ in range(3)]
        scheduler = run.engine.scheduler
        assert scheduler.active_queries() == [handles[0].query_id, handles[1].query_id]
        assert scheduler.queued_queries() == [handles[2].query_id]
        assert scheduler.state_of(handles[2].query_id) == "queued"
        # The queued query is not started until a slot frees up.
        assert handles[2].status is QueryStatus.PENDING
        for handle in handles:
            handle.wait()
        assert all(handle.status is QueryStatus.COMPLETED for handle in handles)
        third_events = [e.event for e in scheduler.events_for(handles[2].query_id)]
        assert third_events.index("admitted") < third_events.index("started")
        assert scheduler.state_of(handles[2].query_id) == "finished"

    def test_constructor_validates_the_limit(self):
        with pytest.raises(ExecutionError):
            QurkEngine(max_concurrent_queries=0)


class TestPriorityWeightedStepping:
    def test_higher_priority_queries_get_more_local_steps(self):
        # Local-only plans drain LOCAL_MAX_ROWS_PER_STEP rows per step, so
        # the table must span several steps for priorities to differentiate.
        n_rows = Operator.LOCAL_MAX_ROWS_PER_STEP * 6
        engine = QurkEngine(seed=3)
        engine.create_table("big", ["n"], rows=[[i] for i in range(n_rows)])
        fast = engine.query("SELECT n FROM big", priority=4.0)
        slow = engine.query("SELECT n FROM big", priority=1.0)
        for _ in range(2):
            engine.scheduler.step()
        assert fast.executor.metrics.passes > slow.executor.metrics.passes
        fast.wait()
        slow.wait()
        assert len(fast.results()) == len(slow.results()) == n_rows

    def test_sub_unit_priorities_are_not_starved(self):
        """A priority < 1 accrues credit over passes; it must never be parked
        while waiting for its first step (parked queries are only woken by
        their own task deliveries, which a never-stepped query has none of)."""
        run = build_products_engine(n_products=4, filter_batch=1, seed=19)
        heavy = run.engine.query(FILTER_SQL, priority=1.0)
        light = run.engine.query(FILTER_SQL, priority=0.25)
        assert heavy.wait() is not None
        assert light.wait() is not None
        assert heavy.status is QueryStatus.COMPLETED
        assert light.status is QueryStatus.COMPLETED
        assert light.stats.tasks_completed > 0

    def test_non_positive_priority_is_rejected(self):
        engine = QurkEngine()
        engine.create_table("t", ["x"], rows=[[1]])
        with pytest.raises(ExecutionError):
            engine.query("SELECT x FROM t", priority=0.0)


class TestFairnessAtScale:
    """The ready-queue must stay fair: skewed priorities starve nobody."""

    N_QUERIES = 256

    def test_256_skewed_queries_all_progress_and_admission_order_holds(self):
        run = build_products_engine(n_products=2, filter_batch=1, seed=77)
        scheduler = run.engine.scheduler
        scheduler.max_concurrent_queries = 16
        # Priorities skewed 1..8, interleaved so heavy and light queries
        # share every admission cohort.
        handles = [
            run.engine.query(FILTER_SQL, priority=1.0 + (i % 8))
            for i in range(self.N_QUERIES)
        ]
        assert len(scheduler.active_queries()) == 16
        assert scheduler.queued_queries() == [h.query_id for h in handles[16:]]
        for handle in handles:
            handle.wait()
        # Starvation-freedom: every query — lowest priority included — ran
        # to completion and did real work.
        assert all(handle.status is QueryStatus.COMPLETED for handle in handles)
        assert all(handle.executor.metrics.passes > 0 for handle in handles)
        assert all(handle.stats.tasks_completed > 0 for handle in handles)
        # Priority weights stepping, never admission: the FIFO waiting order
        # is preserved exactly even though priorities are skewed.
        admitted = [e.query_id for e in scheduler.events if e.event == "admitted"]
        assert admitted == [handle.query_id for handle in handles]

    def test_blocked_queries_are_parked_and_woken_by_deliveries(self):
        run = build_products_engine(n_products=4, filter_batch=1, seed=31)
        scheduler = run.engine.scheduler
        first = run.engine.query(FILTER_SQL)
        second = run.engine.query(FILTER_SQL)
        assert set(scheduler.runnable_queries()) == {first.query_id, second.query_id}
        observed_parked = False
        while not (first.is_terminal and second.is_terminal):
            scheduler.step()
            if len(scheduler.runnable_queries()) < len(scheduler.active_queries()):
                # At least one admitted query is parked awaiting crowd work —
                # the ready queue really is a subset, not a relabeling.
                observed_parked = True
        assert observed_parked
        assert first.status is QueryStatus.COMPLETED
        assert second.status is QueryStatus.COMPLETED
        # The event-driven run loop absorbs marketplace bookkeeping events
        # (partial HIT submissions) without paying a scheduling pass each:
        # strictly fewer passes than clock advances, and the absorbed share
        # is surfaced on the no-op counter.
        assert scheduler.metrics.passes < scheduler.metrics.clock_advances
        assert scheduler.metrics.noop_clock_advances > 0


class TestLifecycleAndDashboard:
    def test_dashboard_surfaces_scheduler_state_and_events(self):
        run = build_products_engine(n_products=10, filter_batch=5, seed=5)
        handle = run.engine.query(FILTER_SQL)
        handle.wait()
        dashboard = QueryDashboard(run.engine)
        snapshot = dashboard.snapshot(handle.query_id)
        assert snapshot.scheduler_state == "finished"
        assert any(event.startswith("submitted@") for event in snapshot.lifecycle)
        assert any(event.startswith("completed@") for event in snapshot.lifecycle)
        text = dashboard.render(handle.query_id)
        assert "scheduler: finished" in text

    def test_shared_clock_is_advanced_by_the_scheduler_only(self):
        run = build_products_engine(n_products=10, filter_batch=5, seed=5)
        handle = run.engine.query(FILTER_SQL)
        handle.wait()
        # Every advance of the shared clock is the scheduler's, accounted
        # there; the executor only stamps when its query finished.
        assert run.engine.scheduler.metrics.clock_advances > 0
        assert run.engine.clock.now == handle.executor.metrics.finished_at


class TestStallSurfacing:
    class _StuckExecutor:
        """An executor whose step never progresses and never completes."""

        def step_local(self, **_kwargs):
            return False

        def is_complete(self):
            return False

    def test_scheduler_marks_stuck_queries_stalled_before_raising(self):
        from repro.core.exec.scheduler import EngineScheduler

        clock, _platform, _statistics, _budget, manager = build_manager()
        scheduler = EngineScheduler(clock, manager)
        table = Table("r", Schema.of(("x", DataType.INTEGER)))
        handle = QueryHandle("q1", "SELECT ...", self._StuckExecutor(), table)
        scheduler.submit(handle)
        with pytest.raises(QueryStalledError):
            scheduler.step()
        assert handle.status is QueryStatus.STALLED
        assert isinstance(handle.error, QueryStalledError)
        assert scheduler.state_of("q1") == "finished"
        assert any(event.event == "stalled" for event in scheduler.events_for("q1"))
        # A stalled handle is terminal: waiting re-raises, stepping is refused.
        with pytest.raises(QueryStalledError):
            handle.wait()
        assert handle.step() is False
