"""Unit tests for the Statistics Manager and the budget ledger."""

import pytest

from repro.core.answers import AnswerList
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.cost_model import CostModel
from repro.core.optimizer.optimizer import CostingPass
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import ResultSource, Task, TaskKind, TaskResult
from repro.errors import BudgetExceededError


SPEC = TaskSpec(name="isRed", task_type=TaskType.FILTER, text="?", response=YesNoResponse())


def crowd_result(reduced=True, cost=0.045, latency=120.0, query_id="q1", answers=(True, True, False)):
    task = Task(kind=TaskKind.FILTER, spec=SPEC, payload={}, callback=lambda r: None, query_id=query_id)
    return TaskResult(
        task=task,
        answers=AnswerList.of(answers, [f"w{i}" for i in range(len(answers))]),
        reduced=reduced,
        source=ResultSource.CROWD,
        cost=cost,
        latency=latency,
    )


def cheap_result(source, reduced=True, query_id="q1", avoided_cost=0.075):
    # The Task Manager stamps cache/model results with the spend the
    # requester avoided (assignment_cost x redundancy); the statistics
    # manager just attributes whatever arrives.
    task = Task(kind=TaskKind.FILTER, spec=SPEC, payload={}, callback=lambda r: None, query_id=query_id)
    return TaskResult(
        task=task,
        answers=AnswerList.of(()),
        reduced=reduced,
        source=source,
        avoided_cost=avoided_cost,
    )


class TestStatisticsManager:
    def test_crowd_results_update_spec_and_query_stats(self):
        stats = StatisticsManager()
        stats.record_result(crowd_result(reduced=True))
        stats.record_result(crowd_result(reduced=False, cost=0.03, latency=60.0))
        spec = stats.spec("isRed")
        assert spec.crowd_tasks == 2
        assert spec.total_cost == pytest.approx(0.075)
        assert spec.total_latency == pytest.approx(180.0)
        assert (spec.boolean_true, spec.boolean_total) == (1, 2)
        query = stats.query("q1")
        assert query.spent == pytest.approx(0.075)
        assert query.tasks_completed == 2

    def test_cache_and_model_results_tracked_separately(self):
        stats = StatisticsManager()
        stats.record_result(crowd_result())
        stats.record_result(cheap_result(ResultSource.CACHE))
        stats.record_result(cheap_result(ResultSource.MODEL))
        spec = stats.spec("isRed")
        assert spec.cache_hits == 1
        assert spec.model_answers == 1
        query = stats.query("q1")
        assert query.cache_hits == 1 and query.model_answers == 1
        assert query.dollars_saved_cache > 0
        assert query.dollars_saved_model > 0

    def test_selectivity_estimate_blends_prior_with_observations(self):
        stats = StatisticsManager()
        # No data: pure prior.
        costing = CostingPass(stats, CostModel())
        assert costing.selectivity("isRed") == pytest.approx(0.5)
        assert costing.selectivity("isRed", prior=0.1) == pytest.approx(0.1)
        for _ in range(20):
            stats.record_result(crowd_result(reduced=True))
        estimate = CostingPass(stats, CostModel()).selectivity("isRed")
        assert 0.8 < estimate <= 1.0

    def test_result_emission_and_hit_posting_counters(self):
        stats = StatisticsManager()
        stats.record_hit_posted("isRed", "q1")
        stats.record_task_submitted("q1")
        stats.record_result_emitted("q1", 3)
        query = stats.query("q1")
        assert query.hits_posted == 1
        assert query.tasks_submitted == 1
        assert query.results_emitted == 3

    def test_query_stats_elapsed(self):
        stats = StatisticsManager()
        query = stats.query("q1")
        query.started_at = 10.0
        query.finished_at = 110.0
        assert query.elapsed == pytest.approx(100.0)


class TestBudgetLedger:
    def test_unbudgeted_queries_always_afford(self):
        ledger = BudgetLedger()
        ledger.authorize("q1", 1_000_000.0)
        assert ledger.remaining("q1") is None

    def test_budget_enforced(self):
        ledger = BudgetLedger()
        ledger.register("q1", 0.10)
        ledger.authorize("q1", 0.06)
        assert ledger.remaining("q1") == pytest.approx(0.04)
        assert ledger.would_exceed("q1", 0.05)
        with pytest.raises(BudgetExceededError) as excinfo:
            ledger.authorize("q1", 0.05, description="a join HIT")
        assert excinfo.value.spent == pytest.approx(0.06)
        assert ledger.committed("q1") == pytest.approx(0.06)

    def test_exact_budget_fit_is_allowed(self):
        ledger = BudgetLedger()
        ledger.register("q1", 0.10)
        ledger.authorize("q1", 0.10)
        assert ledger.remaining("q1") == pytest.approx(0.0)
