"""Unit/integration tests for the Task Manager."""

import dataclasses

import pytest

from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import (
    FormResponse,
    Parameter,
    ReturnField,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.core.tasks.task import ResultSource, Task, TaskKind
from repro.core.tasks.task_cache import TaskCache
from repro.core.tasks.task_manager import TaskManager
from repro.core.tasks.task_model import TaskModelRegistry
from repro.core.tasks.reducer import MAX_ATTEMPTS
from repro.crowd import (
    FaultProfile,
    MTurkSimulator,
    PopulationMix,
    SimulationClock,
    WorkerPool,
)
from repro.errors import BudgetExceededError
from repro.testing.invariants import check_invariants

from support import CallbackOracle


FILTER_SPEC = TaskSpec(
    name="isRed",
    task_type=TaskType.FILTER,
    text="Is %s red?",
    response=YesNoResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
    feature_extractor=lambda payload: payload.get("features"),
)

FINDCEO_SPEC = TaskSpec(
    name="findCEO",
    task_type=TaskType.QUESTION,
    text="Find the CEO for %s",
    response=FormResponse((("CEO", "String"),)),
    parameters=(Parameter("companyName"),),
    returns=(ReturnField("CEO"),),
    price=0.02,
    assignments=3,
)

ORACLE = CallbackOracle(
    predicate=lambda item: item.payload.get("is_red", False),
    form=lambda item, field: f"CEO of {item.payload.get('companyName')}",
)


def build_manager(*, mix=None, cache=None, models=None, seed=1):
    clock = SimulationClock()
    pool = WorkerPool(size=50, seed=seed, mix=mix or PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0))
    platform = MTurkSimulator(clock, pool, ORACLE)
    statistics = StatisticsManager()
    budget = BudgetLedger()
    manager = TaskManager(platform, statistics, budget, cache=cache, models=models)
    return clock, platform, statistics, budget, manager


def filter_task(
    manager_results, name="mug", is_red=True, query_id="q1", cache_key=None, spec=FILTER_SPEC
):
    return Task(
        kind=TaskKind.FILTER,
        spec=spec,
        payload={"args": (name,), "name": name, "is_red": is_red},
        callback=manager_results.append,
        cache_key=cache_key,
        query_id=query_id,
    )


class TestCrowdPath:
    def test_submit_flush_complete(self):
        clock, platform, statistics, _budget, manager = build_manager()
        results = []
        manager.submit(filter_task(results, is_red=True))
        assert manager.pending_tasks() == 1
        posted = manager.flush()
        assert posted == 1
        assert manager.inflight_hits() == 1
        clock.run_until_idle()
        assert len(results) == 1
        result = results[0]
        assert result.source is ResultSource.CROWD
        assert result.reduced is True
        assert len(result.answers) == 3
        assert result.cost == pytest.approx(3 * (0.01 + 0.005))
        assert result.latency > 0
        assert statistics.spec("isRed").crowd_tasks == 1
        assert statistics.query("q1").spent == pytest.approx(result.cost)
        assert not manager.has_outstanding_work()

    def test_spec_batch_size_groups_tasks_into_one_hit(self):
        clock, platform, _stats, _budget, manager = build_manager()
        spec = dataclasses.replace(FILTER_SPEC, batch_size=5)
        results = []
        for index in range(5):
            manager.submit(
                filter_task(results, name=f"item{index}", is_red=index % 2 == 0, spec=spec)
            )
        assert manager.flush() == 1
        assert platform.stats.hits_created == 1
        clock.run_until_idle()
        assert len(results) == 5
        reduced = [r.reduced for r in results]
        assert reduced == [True, False, True, False, True]

    @pytest.mark.parametrize(
        "batch_size, tasks, full_hits, forced_hits",
        [(10, 4, 0, 1), (5, 12, 2, 1), (5, 10, 2, 0), (1, 3, 3, 0)],
    )
    def test_partial_batches_flush_only_when_forced(
        self, batch_size, tasks, full_hits, forced_hits
    ):
        _clock, platform, _stats, _budget, manager = build_manager()
        spec = dataclasses.replace(FILTER_SPEC, batch_size=batch_size)
        results = []
        for index in range(tasks):
            manager.submit(filter_task(results, name=f"n{index}", spec=spec))
        assert manager.flush(force=False) == full_hits
        assert manager.pending_tasks() == tasks - full_hits * batch_size
        assert manager.flush(force=True) == forced_hits
        assert manager.pending_tasks() == 0
        assert platform.stats.hits_created == full_hits + forced_hits


class TestAttemptCap:
    """A dead market: nobody picks work up, so every HIT expires unanswered."""

    def run_dead_market(self, *, pressured):
        clock = SimulationClock()
        faults = FaultProfile(seed=23, hit_lifetime=60.0, pickup_slowdown=50.0)
        platform = MTurkSimulator(clock, WorkerPool(size=50, seed=1), ORACLE, faults=faults)
        manager = TaskManager(platform, StatisticsManager(), BudgetLedger())
        if pressured:
            manager.set_pressure("q1")
        results = []
        manager.submit(filter_task(results))
        while True:
            manager.flush(force=True)
            if not clock.run_next():
                break
        assert results == []
        assert manager.stats.tasks_exhausted == 1
        assert set(manager.take_exhausted_errors()) == {"q1"}
        assert not manager.has_outstanding_work()
        return platform.stats.hits_created

    def test_a_task_is_posted_once_plus_max_attempts_reposts(self):
        assert self.run_dead_market(pressured=False) == 1 + MAX_ATTEMPTS

    def test_pressure_allows_a_single_repost(self):
        assert self.run_dead_market(pressured=True) == 2


class TestCachePath:
    def test_cache_hit_answers_without_posting(self):
        clock, platform, statistics, _budget, manager = build_manager(cache=TaskCache())
        results = []
        manager.submit(filter_task(results, cache_key=("mug",)))
        manager.flush()
        clock.run_until_idle()
        assert platform.stats.hits_created == 1
        manager.submit(filter_task(results, cache_key=("mug",), query_id="q2"))
        assert len(results) == 2
        assert results[1].source is ResultSource.CACHE
        assert results[1].cost == 0.0
        assert platform.stats.hits_created == 1
        assert statistics.query("q2").cache_hits == 1


class TestModelPath:
    def test_trusted_model_short_circuits_the_crowd(self):
        models = TaskModelRegistry()
        model = models.register_default(
            FILTER_SPEC, min_observations=10, trust_accuracy=0.8, confidence_threshold=0.3,
            learning_rate=0.5,
        )
        clock, platform, statistics, _budget, manager = build_manager(models=models)
        results = []
        # Train through the crowd on a separable concept.
        for index in range(40):
            is_red = index % 2 == 0
            task = Task(
                kind=TaskKind.FILTER,
                spec=FILTER_SPEC,
                payload={
                    "args": (f"item{index}",),
                    "name": f"item{index}",
                    "is_red": is_red,
                    "features": [1.0, 0.0] if is_red else [0.0, 1.0],
                },
                callback=results.append,
                query_id="train",
            )
            manager.submit(task)
        manager.flush()
        clock.run_until_idle()
        assert model.is_trusted
        hits_before = platform.stats.hits_created
        task = Task(
            kind=TaskKind.FILTER,
            spec=FILTER_SPEC,
            payload={"args": ("new",), "name": "new", "is_red": True, "features": [1.0, 0.0]},
            callback=results.append,
            query_id="q9",
        )
        manager.submit(task)
        assert results[-1].source is ResultSource.MODEL
        assert results[-1].reduced is True
        assert platform.stats.hits_created == hits_before
        assert statistics.query("q9").model_answers == 1
        assert model.stats.dollars_saved > 0


class TestBudgetEnforcement:
    def test_posting_stops_when_budget_exceeded(self):
        clock, _platform, _stats, budget, manager = build_manager()
        budget.register("q1", 0.05)  # one HIT costs 3 * 0.015 = 0.045
        results = []
        manager.submit(filter_task(results, name="a"))
        manager.submit(filter_task(results, name="b"))
        # The second HIT would bust the budget: it is not posted, and the
        # failure is recorded for the query instead of raised.
        assert manager.flush() == 1
        errors = manager.take_budget_errors()
        assert set(errors) == {"q1"}
        assert isinstance(errors["q1"], BudgetExceededError)
        # The first HIT fit in the budget and still completes.
        clock.run_until_idle()
        assert len(results) == 1


class TestGenerateTasks:
    def test_question_task_reduces_fieldwise(self):
        clock, _platform, _stats, _budget, manager = build_manager()
        results = []
        task = Task(
            kind=TaskKind.GENERATE,
            spec=FINDCEO_SPEC,
            payload={"args": ("Acme",), "companyName": "Acme"},
            callback=results.append,
            cache_key=("Acme",),
            query_id="q1",
        )
        manager.submit(task)
        manager.flush()
        clock.run_until_idle()
        assert results[0].reduced == {"CEO": "CEO of Acme"}


class TestPendingIndex:
    def test_a_drained_engine_keeps_no_per_query_pending_entries(self):
        from repro.experiments import build_products_engine

        engine = build_products_engine(n_products=12, filter_batch=5, seed=42).engine
        sql = "SELECT name FROM products WHERE isTargetColor(name)"
        handles = [engine.query(sql, budget=0.05), engine.query(sql), engine.query(sql)]
        engine.scheduler.drain()
        # The budgeted query ended with tasks still queued: cancel_query
        # dropped them; the others emptied their entries task by task.
        assert handles[0].status.value == "budget_exceeded"
        assert engine.task_manager.stats.tasks_submitted > 0
        assert all(engine.task_manager.pending_tasks(h.query_id) == 0 for h in handles)
        # An ended query is remembered only while one of its HITs is in
        # flight; once the marketplace is idle, nothing is kept.
        assert check_invariants(engine, handles) == []
