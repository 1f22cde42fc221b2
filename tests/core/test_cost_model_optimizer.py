"""Unit tests for the cost model and the query optimizer's decisions."""

import pytest

from repro.core.operators import (
    CrowdFilterOperator,
    CrowdJoinOperator,
    JoinStrategy,
    ResultSinkOperator,
    ScanOperator,
)
from repro.core.optimizer.cost_model import CostEstimate, CostModel
from repro.core.optimizer.optimizer import QueryOptimizer, _pick_assignments, majority_accuracy
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import (
    ComparisonResponse,
    JoinColumnsResponse,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.storage import ColumnRef, DataType, Schema, Table


FILTER = TaskSpec(name="f", task_type=TaskType.FILTER, text="?", response=YesNoResponse(), price=0.01, assignments=3)
JOIN_COLUMNS = TaskSpec(
    name="j", task_type=TaskType.JOIN_PREDICATE, text="?",
    response=JoinColumnsResponse("L", "R", left_per_hit=3, right_per_hit=3),
    price=0.02, assignments=3,
)
JOIN_PAIRS = TaskSpec(
    name="jp", task_type=TaskType.JOIN_PREDICATE, text="?", response=YesNoResponse(),
    price=0.02, assignments=3,
)
RANK = TaskSpec(name="r", task_type=TaskType.RANK, text="?", response=ComparisonResponse(), price=0.01)


class TestMajorityAccuracyMemoization:
    def test_repeat_calls_hit_the_cache(self):
        majority_accuracy.cache_clear()
        assert majority_accuracy(0.815, 3) == majority_accuracy(0.815, 3)
        info = majority_accuracy.cache_info()
        assert info.hits >= 1 and info.misses == 1


class TestMajorityAccuracy:
    def test_single_worker_is_raw_accuracy(self):
        assert majority_accuracy(0.8, 1) == pytest.approx(0.8)

    def test_redundancy_amplifies_accuracy(self):
        assert majority_accuracy(0.8, 3) > 0.8
        assert majority_accuracy(0.8, 5) > majority_accuracy(0.8, 3)

    def test_redundancy_hurts_below_half(self):
        assert majority_accuracy(0.4, 5) < 0.4

    def test_bounds(self):
        assert majority_accuracy(1.0, 7) == pytest.approx(1.0)
        assert majority_accuracy(0.0, 3) == pytest.approx(0.0)


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_hit_cost_includes_fee_and_redundancy(self):
        assert self.model.hit_cost(FILTER) == pytest.approx(3 * 0.015)

    def test_filter_cost_scales_with_rows_and_batching(self):
        unbatched = self.model.filter_cost(FILTER, 100)
        batched = self.model.filter_cost(FILTER, 100, batch_size=10)
        assert unbatched.hits == 100
        assert batched.hits == 10
        assert batched.dollars < unbatched.dollars

    def test_join_columns_much_cheaper_than_pairwise(self):
        pairwise = self.model.join_cost_pairwise(JOIN_PAIRS, 30, 30)
        columns = self.model.join_cost_columns(JOIN_COLUMNS, 30, 30)
        assert pairwise.hits == 900
        assert columns.hits == 100
        assert columns.dollars < pairwise.dollars

    def test_prefilter_reduces_pairwise_cost(self):
        full = self.model.join_cost_pairwise(JOIN_PAIRS, 30, 30)
        filtered = self.model.join_cost_pairwise(JOIN_PAIRS, 30, 30, candidate_fraction=0.1)
        assert filtered.dollars < full.dollars

    def test_sort_costs(self):
        comparison = self.model.sort_cost_comparison(RANK, 20)
        rating = self.model.sort_cost_rating(RANK, 20)
        assert comparison.tasks == pytest.approx(190)
        assert rating.tasks == 20
        assert rating.dollars < comparison.dollars

    def test_strategy_costs_price_each_decision_once(self):
        """The per-strategy mappings are what plan enumeration, the
        ``choose_*`` methods and the adaptive replanner all decide from."""
        from repro.core.operators.crowd_sort import SortStrategy
        from repro.core.optimizer.cost_model import cheaper_join_strategy

        sizes = {"assignments": 5, "pairs_per_hit": 4, "left_per_hit": 3, "right_per_hit": 2}
        joins = self.model.join_strategy_costs(JOIN_COLUMNS, 30, 12, **sizes)
        assert joins == {
            JoinStrategy.PAIRWISE: self.model.join_cost_pairwise(
                JOIN_COLUMNS, 30, 12, assignments=5, pairs_per_hit=4
            ),
            JoinStrategy.COLUMNS: self.model.join_cost_columns(
                JOIN_COLUMNS, 30, 12, assignments=5, left_per_hit=3, right_per_hit=2
            ),
        }
        assert cheaper_join_strategy(joins) is JoinStrategy.COLUMNS
        # A yes/no Response cannot render the two-column interface.
        yes_no = self.model.join_strategy_costs(JOIN_PAIRS, 30, 12, **sizes)
        assert list(yes_no) == [JoinStrategy.PAIRWISE]
        assert cheaper_join_strategy(yes_no) is JoinStrategy.PAIRWISE
        # Equal cost keeps the two-column interface, as the enumerator orders them.
        tie = {JoinStrategy.PAIRWISE: CostEstimate(dollars=1.0), JoinStrategy.COLUMNS: CostEstimate(dollars=1.0)}
        assert cheaper_join_strategy(tie) is JoinStrategy.COLUMNS

        sorts = self.model.sort_strategy_costs(RANK, 20, assignments=3, items_per_hit=5)
        assert sorts == {
            SortStrategy.COMPARISON: self.model.sort_cost_comparison(
                RANK, 20, assignments=3, comparisons_per_hit=5
            ),
            SortStrategy.RATING: self.model.sort_cost_rating(
                RANK, 20, assignments=3, ratings_per_hit=5
            ),
        }

    def test_zero_rows_cost_nothing(self):
        assert self.model.filter_cost(FILTER, 0).dollars == 0.0
        assert self.model.join_cost_columns(JOIN_COLUMNS, 0, 10).dollars == 0.0

    def test_latency_grows_slowly_with_hits(self):
        few = self.model.filter_cost(FILTER, 2)
        many = self.model.filter_cost(FILTER, 200)
        assert many.latency_seconds > few.latency_seconds
        assert many.latency_seconds < few.latency_seconds * 3

    def test_estimate_plus_combines(self):
        a = CostEstimate(tasks=1, hits=1, dollars=0.1, latency_seconds=100)
        b = CostEstimate(tasks=2, hits=2, dollars=0.2, latency_seconds=300)
        combined = a.plus(b)
        assert combined.dollars == pytest.approx(0.3)
        assert combined.latency_seconds == 300


class TestQueryOptimizer:
    def build(self):
        statistics = StatisticsManager()
        return statistics, QueryOptimizer(statistics, CostModel())

    def test_choose_assignments_meets_target(self):
        assert _pick_assignments(0.85, 0.9) == 3
        assert _pick_assignments(0.99, 0.9) == 1
        assert _pick_assignments(0.7, 0.95) == 7
        # Before any observation: the 0.85 prior against the 0.9 target.
        _stats, optimizer = self.build()
        assert optimizer.choose_assignments(FILTER) == 3

    def test_fallback_redundancy_stays_odd(self):
        # No candidate reaches the target: the largest (odd) candidate.
        assert _pick_assignments(0.6, 0.99) == 7

    def test_choose_assignments_adapts_to_observed_agreement(self):
        statistics, optimizer = self.build()
        spec_stats = statistics.spec(FILTER.name)
        spec_stats.crowd_tasks = 50
        spec_stats.total_agreement = 50 * 0.99
        assert optimizer.choose_assignments(FILTER) == 1

    def test_plan_time_and_run_time_redundancy_agree(self):
        # Costing prices the redundancy the run-time rule will post: one
        # target, one accuracy model, before and after observations.
        statistics, optimizer = self.build()
        assert optimizer.costing_pass().assignments_for(FILTER) == 3
        assert optimizer.choose_assignments(FILTER) == 3
        spec_stats = statistics.spec(FILTER.name)
        spec_stats.crowd_tasks = 50
        spec_stats.total_agreement = 50 * 0.99
        assert optimizer.costing_pass().assignments_for(FILTER) == 1
        assert optimizer.choose_assignments(FILTER) == 1

    def test_join_strategy_prefers_columns_for_large_inputs(self):
        _stats, optimizer = self.build()
        choice = optimizer.choose_join_strategy(JOIN_COLUMNS, 30, 30)
        assert choice.strategy is JoinStrategy.COLUMNS
        assert choice.estimate.dollars > 0

    def test_sort_strategy_by_cost(self):
        _stats, optimizer = self.build()
        from repro.core.operators.crowd_sort import SortStrategy

        assert optimizer.choose_sort_strategy(RANK, 3) is SortStrategy.COMPARISON
        assert optimizer.choose_sort_strategy(RANK, 100) is SortStrategy.RATING

    def test_estimate_plan_cost_walks_operators(self):
        statistics, optimizer = self.build()
        table_a = Table("a", Schema.of(("x", DataType.STRING)))
        table_b = Table("b", Schema.of(("y", DataType.STRING)))
        for i in range(12):
            table_a.insert([f"a{i}"])
            table_b.insert([f"b{i}"])
        scan_a, scan_b = ScanOperator(table_a), ScanOperator(table_b)
        filter_a = CrowdFilterOperator(FILTER, [ColumnRef("a.x")], scan_a.output_schema)
        filter_a.add_child(scan_a)
        join = CrowdJoinOperator(JOIN_COLUMNS, filter_a.output_schema, scan_b.output_schema)
        join.add_child(filter_a)
        join.add_child(scan_b)
        results = Table("__results", join.output_schema)
        sink = ResultSinkOperator(results)
        sink.add_child(join)
        estimate = optimizer.estimate_plan_cost(sink)
        assert estimate.dollars > 0
        assert estimate.hits >= 12  # 12 filter HITs plus join blocks
