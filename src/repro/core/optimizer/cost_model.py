"""Monetary / latency cost model for crowd operators.

The optimizer compares operator implementations (join interfaces, sort
strategies, batch sizes) by the number of HITs they generate and what those
HITs cost, which is the dimension the paper stresses: a naive cross-product
join is "extraordinary monetary cost".  Latency estimates are rougher — HITs
complete in parallel, so latency grows only slowly with HIT count — but they
let the dashboard show an expected completion time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.core.operators.crowd_join import JoinStrategy
from repro.core.operators.crowd_sort import SortStrategy
from repro.core.tasks.spec import JoinColumnsResponse, TaskSpec
from repro.crowd.pricing import DEFAULT_PRICING

__all__ = ["CostEstimate", "CostModel", "majority_accuracy"]

#: Estimated seconds for one HIT to complete; more HITs run in parallel and
#: add only coordination and straggler time on top.
BASE_HIT_LATENCY = 300.0


@functools.lru_cache(maxsize=4096)
def majority_accuracy(single_accuracy: float, assignments: int) -> float:
    """Probability that a majority of ``assignments`` independent workers is right.

    Ties (possible only for even counts) are counted as failures, which makes
    the estimate conservative; the optimizer only considers odd counts.
    Memoized: the adaptive redundancy rule evaluates this once per task on
    the hot path, over a handful of distinct (accuracy, k) pairs.

    Lives in the cost model (rather than the optimizer) because it is the
    accuracy half of pricing redundancy: dollars per HIT come from
    :meth:`CostModel.hit_cost`, accuracy per redundancy level from here, and
    the optimizer trades the two off using *observed* worker accuracy when a
    :class:`~repro.crowd.quality.WorkerReputation` tracker is attached.
    """
    p = min(max(single_accuracy, 0.0), 1.0)
    total = 0.0
    for correct in range(assignments + 1):
        if correct * 2 <= assignments:
            continue
        total += math.comb(assignments, correct) * p**correct * (1 - p) ** (assignments - correct)
    return total


@dataclass(frozen=True)
class CostEstimate:
    """Predicted resources for one crowd operator (or a whole plan).

    ``local_work`` counts abstract machine-side row touches (a table scan is
    ``n``, an index probe ``log n`` plus the matches).  It is *not* money:
    candidate selection orders by (dollars, hits, tasks) first and uses
    local work only as the trailing tie-break, so it differentiates
    access paths of crowd-free pipelines without ever overriding a crowd
    cost difference.
    """

    tasks: float = 0.0
    hits: float = 0.0
    dollars: float = 0.0
    latency_seconds: float = 0.0
    local_work: float = 0.0

    def plus(self, other: "CostEstimate") -> "CostEstimate":
        """Combine two estimates (dollars add; latency takes the pipeline max)."""
        return CostEstimate(
            tasks=self.tasks + other.tasks,
            hits=self.hits + other.hits,
            dollars=self.dollars + other.dollars,
            latency_seconds=max(self.latency_seconds, other.latency_seconds),
            local_work=self.local_work + other.local_work,
        )


def cheaper_join_strategy(costs: dict[JoinStrategy, CostEstimate]) -> JoinStrategy:
    """The cost-minimal join interface; COLUMNS wins ties (the enumerator's order)."""
    columns = costs.get(JoinStrategy.COLUMNS)
    if columns is not None and columns.dollars <= costs[JoinStrategy.PAIRWISE].dollars:
        return JoinStrategy.COLUMNS
    return JoinStrategy.PAIRWISE


class CostModel:
    """Translates task counts into HITs, dollars and rough latency.

    Fees follow :data:`~repro.crowd.pricing.DEFAULT_PRICING`, the fee
    schedule the simulated marketplace charges.
    """

    # -- building blocks ---------------------------------------------------------------

    def hit_cost(self, spec: TaskSpec, assignments: int | None = None) -> float:
        """Dollars for one HIT of ``spec`` (reward + fee, times redundancy)."""
        redundancy = assignments or spec.assignments
        return DEFAULT_PRICING.assignment_cost(spec.price) * redundancy

    def _estimate(self, spec: TaskSpec, tasks: float, tasks_per_hit: float, assignments: int | None) -> CostEstimate:
        tasks = max(tasks, 0.0)
        if tasks == 0:
            return CostEstimate()
        hits = math.ceil(tasks / max(tasks_per_hit, 1))
        dollars = hits * self.hit_cost(spec, assignments)
        # HITs run in parallel on the marketplace, so latency grows slowly
        # (coordination + stragglers) rather than linearly with HIT count.
        latency = BASE_HIT_LATENCY * (1.0 + 0.15 * math.log1p(hits))
        return CostEstimate(tasks=tasks, hits=float(hits), dollars=dollars, latency_seconds=latency)

    # -- per-operator estimates ------------------------------------------------------------

    def generate_cost(
        self, spec: TaskSpec, n_rows: float, *, assignments: int | None = None,
        cache_hit_rate: float = 0.0,
    ) -> CostEstimate:
        """Cost of a schema-extension (Question) operator over ``n_rows`` tuples."""
        effective = n_rows * (1.0 - cache_hit_rate)
        return self._estimate(spec, effective, spec.batch_size, assignments)

    def filter_cost(
        self, spec: TaskSpec, n_rows: float, *, assignments: int | None = None,
        batch_size: int | None = None,
    ) -> CostEstimate:
        """Cost of a crowd filter over ``n_rows`` tuples."""
        per_hit = batch_size or spec.batch_size
        return self._estimate(spec, n_rows, per_hit, assignments)

    def join_cost_pairwise(
        self,
        spec: TaskSpec,
        n_left: float,
        n_right: float,
        *,
        assignments: int | None = None,
        pairs_per_hit: int = 1,
        candidate_fraction: float = 1.0,
    ) -> CostEstimate:
        """Cost of a pairwise crowd join (optionally after a machine pre-filter)."""
        pairs = n_left * n_right * candidate_fraction
        return self._estimate(spec, pairs, pairs_per_hit, assignments)

    def join_cost_columns(
        self,
        spec: TaskSpec,
        n_left: float,
        n_right: float,
        *,
        assignments: int | None = None,
        left_per_hit: int = 3,
        right_per_hit: int = 3,
        candidate_fraction: float = 1.0,
    ) -> CostEstimate:
        """Cost of the two-column (Figure 3) join interface."""
        effective_left = n_left * candidate_fraction ** 0.5
        effective_right = n_right * candidate_fraction ** 0.5
        blocks = math.ceil(max(effective_left, 0) / left_per_hit) * math.ceil(
            max(effective_right, 0) / right_per_hit
        )
        if n_left == 0 or n_right == 0:
            return CostEstimate()
        hits = max(blocks, 1)
        dollars = hits * self.hit_cost(spec, assignments)
        latency = BASE_HIT_LATENCY * (1.0 + 0.15 * math.log1p(hits))
        return CostEstimate(
            tasks=float(hits), hits=float(hits), dollars=dollars, latency_seconds=latency
        )

    def sort_cost_comparison(
        self, spec: TaskSpec, n_rows: float, *, assignments: int | None = None,
        comparisons_per_hit: int = 1,
    ) -> CostEstimate:
        """Cost of comparison-based crowd sort: n·(n-1)/2 pairwise questions."""
        comparisons = n_rows * max(n_rows - 1, 0) / 2.0
        return self._estimate(spec, comparisons, comparisons_per_hit, assignments)

    def sort_cost_rating(
        self, spec: TaskSpec, n_rows: float, *, assignments: int | None = None,
        ratings_per_hit: int = 1,
    ) -> CostEstimate:
        """Cost of rating-based crowd sort: one rating question per tuple."""
        return self._estimate(spec, n_rows, ratings_per_hit, assignments)

    # -- per-decision comparisons ------------------------------------------------------------

    def join_strategy_costs(
        self,
        spec: TaskSpec,
        n_left: float,
        n_right: float,
        *,
        assignments: int,
        pairs_per_hit: int,
        left_per_hit: int,
        right_per_hit: int,
        candidate_fraction: float = 1.0,
    ) -> dict[JoinStrategy, CostEstimate]:
        """Every interface ``spec`` can render, costed for the same inputs.

        The one place the pairwise-vs-columns comparison is priced: plan
        enumeration, :meth:`QueryOptimizer.choose_join_strategy` and the
        adaptive replanner all decide from this mapping.  A plain yes/no
        Response cannot render the two-column interface, so only JoinColumns
        specs get a COLUMNS entry.
        """
        costs = {
            JoinStrategy.PAIRWISE: self.join_cost_pairwise(
                spec,
                n_left,
                n_right,
                assignments=assignments,
                pairs_per_hit=pairs_per_hit,
                candidate_fraction=candidate_fraction,
            )
        }
        if isinstance(spec.response, JoinColumnsResponse):
            costs[JoinStrategy.COLUMNS] = self.join_cost_columns(
                spec,
                n_left,
                n_right,
                assignments=assignments,
                left_per_hit=left_per_hit,
                right_per_hit=right_per_hit,
                candidate_fraction=candidate_fraction,
            )
        return costs

    def sort_strategy_costs(
        self, spec: TaskSpec, n_rows: float, *, assignments: int, items_per_hit: int
    ) -> dict[SortStrategy, CostEstimate]:
        """Comparison and rating sort costed for the same input (see above)."""
        return {
            SortStrategy.COMPARISON: self.sort_cost_comparison(
                spec, n_rows, assignments=assignments, comparisons_per_hit=items_per_hit
            ),
            SortStrategy.RATING: self.sort_cost_rating(
                spec, n_rows, assignments=assignments, ratings_per_hit=items_per_hit
            ),
        }
