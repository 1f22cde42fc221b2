"""The Query Optimizer (Figure 1).

"The Query Optimizer compiles the query into a query plan and adaptively
optimizes it during query execution.  Query selectivities for HIT-based
operators are not known a priori and user metrics may change mid-query.
Additionally, the optimization function must take into account monetary cost,
the number [of] turkers to assign to each HIT, and the overall query
performance."

Decisions implemented here:

* **redundancy** — the number of assignments per HIT, chosen as the smallest
  odd k whose majority vote reaches :data:`TARGET_CONFIDENCE` given the
  observed single-worker agreement (re-evaluated during execution, so the
  choice adapts as statistics accumulate);
* **join interface** — pairwise yes/no HITs (optionally batched) versus the
  two-column Figure 3 interface, chosen by comparing cost-model estimates;
* **sort strategy** — comparison-based versus rating-based crowd sort;
* **plan cost estimation** — dollars / HITs / latency for the dashboard.

The optimizer has no configuration: the redundancy target, the candidate
redundancies and the prior worker accuracy are module constants, and the
per-query switches (``adaptive``, ``budget``, deadlines) live on
:class:`~repro.core.exec.context.QueryConfig`.

Plan-level costing runs over the logical IR: every logical node prices
itself (:meth:`~repro.core.plan.logical.LogicalNode.estimate_cost`) against a
:class:`CostingPass`, which snapshots each task spec's statistics exactly
once per pass.  Physical plans are costed through the structural bridge in
:func:`repro.core.plan.logical.from_physical`.

``choose_join_strategy``/``choose_sort_strategy`` have no engine caller; ROADMAP 9(a) drops them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operators.base import Operator
from repro.core.operators.crowd_join import JoinStrategy
from repro.core.operators.crowd_sort import SortStrategy
from repro.core.optimizer.cost_model import (
    CostEstimate,
    CostModel,
    cheaper_join_strategy,
    majority_accuracy,
)
from repro.core.optimizer.statistics import SpecStats, StatisticsManager, blend_selectivity
from repro.core.tasks.spec import JoinColumnsResponse, RatingResponse, TaskSpec
from repro.crowd.quality import WorkerReputation

__all__ = [
    "TARGET_CONFIDENCE",
    "JoinChoice",
    "CostingPass",
    "QueryOptimizer",
    "majority_accuracy",
    "MODEL_RESIDUAL_FRACTION",
]


#: The majority-vote confidence the redundancy rule aims for, at plan time
#: (costing) and at run time (per task) alike.
TARGET_CONFIDENCE = 0.9

#: Redundancies the rule chooses from, smallest first.  Odd counts only:
#: majority voting over an even worker count wastes the tying assignment
#: (ties count as failures).
CANDIDATE_ASSIGNMENTS = (1, 3, 5, 7)

#: Single-worker accuracy assumed before anything has been observed.
DEFAULT_WORKER_ACCURACY = 0.85


@dataclass(frozen=True)
class JoinChoice:
    """The optimizer's decision for one crowd join."""

    strategy: JoinStrategy
    pairs_per_hit: int = 1
    left_per_hit: int = 3
    right_per_hit: int = 3
    estimate: CostEstimate = CostEstimate()


#: Residual cost fraction for a spec served by a trusted Task Model: the
#: model answers most tasks for free, but predictions below its confidence
#: threshold still fall through to the crowd, so the optimizer keeps a small
#: non-zero remainder ("~zero", not zero) rather than pretending escalated
#: specs are entirely free.
MODEL_RESIDUAL_FRACTION = 0.05


class CostingPass:
    """One plan-costing pass: cached statistics plus the cost model.

    Logical nodes cost themselves against this object.  Spec statistics are
    fetched from the :class:`StatisticsManager` exactly once per spec per
    pass — per-node quantities (cache hit rate, selectivity, single-worker
    accuracy) all derive from that one snapshot.
    """

    def __init__(
        self,
        statistics: StatisticsManager,
        cost_model: CostModel,
        reputation: WorkerReputation | None = None,
        models=None,
    ) -> None:
        self.statistics = statistics
        self.cost_model = cost_model
        self.reputation = reputation
        # Optional TaskModelRegistry: trusted models escalate — they answer
        # instead of the crowd — so costing discounts their specs to ~zero.
        self.models = models
        self._spec_stats: dict[str, SpecStats] = {}
        self._model_residual: dict[str, float] = {}

    def spec_stats(self, name: str) -> SpecStats:
        """The (cached) statistics snapshot for one task spec."""
        if name not in self._spec_stats:
            self._spec_stats[name] = self.statistics.spec(name)
        return self._spec_stats[name]

    def worker_accuracy(self, spec: TaskSpec) -> float:
        """Single-worker accuracy proxy from the cached snapshot."""
        return _worker_accuracy(self.spec_stats(spec.name), self.reputation)

    def assignments_for(self, spec: TaskSpec) -> int:
        """Redundancy the adaptive rule would pick for ``spec`` right now."""
        return _pick_assignments(self.worker_accuracy(spec))

    def selectivity(self, name: str, *, prior: float | None = None) -> float:
        """Blended selectivity estimate from the cached statistics snapshot."""
        if prior is None:
            prior = StatisticsManager.DEFAULT_SELECTIVITY_PRIOR
        return blend_selectivity(self.spec_stats(name), prior)

    def model_residual(self, spec: TaskSpec) -> float:
        """Fraction of ``spec``'s crowd cost that survives model escalation.

        1.0 while the crowd answers; :data:`MODEL_RESIDUAL_FRACTION` once a
        trusted learned model answers instead (its holdout posterior cleared
        the trust threshold).  Memoized per pass so every node costing the
        same spec sees one consistent answer.
        """
        if self.models is None:
            return 1.0
        if spec.name not in self._model_residual:
            model = self.models.model_for(spec.name)
            trusted = model is not None and getattr(model, "is_trusted", False)
            self._model_residual[spec.name] = MODEL_RESIDUAL_FRACTION if trusted else 1.0
        return self._model_residual[spec.name]

    def discount_for_model(self, spec: TaskSpec, estimate: CostEstimate) -> CostEstimate:
        """Scale a crowd estimate by the spec's model-escalation residual.

        Dollars, HITs and latency shrink (the model answers synchronously
        and for free); task count and local work stay — each tuple is still
        touched, just not by a human.
        """
        residual = self.model_residual(spec)
        if residual >= 1.0:
            return estimate
        return CostEstimate(
            tasks=estimate.tasks,
            hits=estimate.hits * residual,
            dollars=estimate.dollars * residual,
            latency_seconds=estimate.latency_seconds * residual,
            local_work=estimate.local_work,
        )


def _worker_accuracy(stats: SpecStats, reputation: WorkerReputation | None = None) -> float:
    """Single-worker accuracy proxy for the redundancy rule.

    The one heuristic shared by plan-time costing (CostingPass) and the
    runtime redundancy rule, so candidate costs and per-task assignment
    choices can never diverge on the accuracy model.  Signals, best first:

    * the *observed* marketplace accuracy from an attached
      :class:`~repro.crowd.quality.WorkerReputation` tracker (gold probes
      are ground truth) — this is what re-costs redundancy mid-query under
      quality control;
    * the spec's observed agreement with the majority (an optimistic proxy,
      but *per spec* — an easy filter and a hard join have genuinely
      different judgement accuracy);
    * :data:`DEFAULT_WORKER_ACCURACY`.

    When both observations exist they are averaged: the reputation estimate
    anchors the optimistic agreement proxy to probed ground truth without
    flattening every spec to one engine-global number.
    """
    spec_signal = stats.mean_agreement if stats.crowd_tasks >= 3 else None
    reputation_signal = reputation.population_accuracy() if reputation is not None else None
    if spec_signal is not None and reputation_signal is not None:
        observed = (spec_signal + reputation_signal) / 2.0
    elif reputation_signal is not None:
        observed = reputation_signal
    elif spec_signal is not None:
        observed = spec_signal
    else:
        return DEFAULT_WORKER_ACCURACY
    return min(max(observed, 0.55), 0.99)


def _pick_assignments(accuracy: float, target: float = TARGET_CONFIDENCE) -> int:
    """Smallest candidate redundancy whose majority vote meets ``target``.

    When none does, the largest candidate.
    """
    for candidate in CANDIDATE_ASSIGNMENTS:
        if majority_accuracy(accuracy, candidate) >= target:
            return candidate
    return CANDIDATE_ASSIGNMENTS[-1]


class QueryOptimizer:
    """Cost-based and adaptive decisions for crowd operators."""

    def __init__(
        self,
        statistics: StatisticsManager,
        cost_model: CostModel | None = None,
        *,
        reputation: WorkerReputation | None = None,
        models=None,
    ) -> None:
        self.statistics = statistics
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # With a tracker attached, estimate_worker_accuracy — and so
        # choose_assignments and every plan-costing pass — uses the accuracy
        # observed from gold probes and vote agreement, which re-costs
        # redundancy mid-query as the marketplace reveals its quality.
        self.reputation = reputation
        # Optional TaskModelRegistry for model-escalation-aware costing:
        # specs whose learned model is trusted cost ~zero, closing the
        # paper's Task Model optimizer loop.
        self.models = models

    # -- redundancy -------------------------------------------------------------------------

    def estimate_worker_accuracy(self, spec: TaskSpec) -> float:
        """Single-worker accuracy proxy (observed reputation, then agreement)."""
        return _worker_accuracy(self.statistics.spec(spec.name), self.reputation)

    def choose_assignments(self, spec: TaskSpec) -> int:
        """Smallest candidate redundancy whose majority vote meets the target."""
        return _pick_assignments(self.estimate_worker_accuracy(spec))

    # -- join interface ----------------------------------------------------------------------

    def choose_join_strategy(
        self,
        spec: TaskSpec,
        n_left: int,
        n_right: int,
        *,
        pairs_per_hit: int | None = None,
        candidate_fraction: float = 1.0,
    ) -> JoinChoice:
        """Pick the cheaper of the pairwise and two-column join interfaces.

        A spec whose Response is a plain yes/no question cannot be rendered as
        the two-column interface, so it always plans as PAIRWISE (batched
        according to its ``batch_size``); only JoinColumns specs compete on
        cost.
        """
        if pairs_per_hit is None:
            pairs_per_hit = max(spec.batch_size, 1)
        response = spec.response
        block = response if isinstance(response, JoinColumnsResponse) else None
        left_per_hit = block.left_per_hit if block else 3
        right_per_hit = block.right_per_hit if block else 3
        costs = self.cost_model.join_strategy_costs(
            spec,
            n_left,
            n_right,
            assignments=self.choose_assignments(spec),
            pairs_per_hit=pairs_per_hit,
            left_per_hit=left_per_hit,
            right_per_hit=right_per_hit,
            candidate_fraction=candidate_fraction,
        )
        strategy = cheaper_join_strategy(costs)
        if strategy is JoinStrategy.COLUMNS:
            return JoinChoice(
                strategy=strategy,
                left_per_hit=left_per_hit,
                right_per_hit=right_per_hit,
                estimate=costs[strategy],
            )
        return JoinChoice(strategy=strategy, pairs_per_hit=pairs_per_hit, estimate=costs[strategy])

    # -- sort strategy ------------------------------------------------------------------------

    def choose_sort_strategy(self, spec: TaskSpec, n_rows: int) -> SortStrategy:
        """Rating-based sort beyond a small input size; the spec can force rating."""
        if isinstance(spec.response, RatingResponse):
            return SortStrategy.RATING
        costs = self.cost_model.sort_strategy_costs(
            spec, n_rows, assignments=spec.assignments, items_per_hit=1
        )
        if costs[SortStrategy.COMPARISON].dollars <= costs[SortStrategy.RATING].dollars:
            return SortStrategy.COMPARISON
        return SortStrategy.RATING

    # -- plan-level estimation ---------------------------------------------------------------------

    def costing_pass(self) -> CostingPass:
        """A fresh costing context (statistics snapshotted once per spec)."""
        return CostingPass(self.statistics, self.cost_model, self.reputation, self.models)

    def estimate_logical_cost(self, root) -> CostEstimate:
        """Cost a logical plan; annotates every node's rows/cost en route.

        Cardinalities flow bottom-up: scans contribute their table sizes,
        crowd filters apply the (estimated) selectivity of their predicate,
        joins multiply.  Each node prices itself — there is no central
        operator-type dispatch here.
        """
        from repro.core.plan.logical import annotate_plan

        return annotate_plan(root, self.costing_pass())

    def estimate_plan_cost(self, root: Operator) -> CostEstimate:
        """Walk a physical plan and estimate its total crowd cost.

        The physical tree is mirrored into the logical IR (carrying the
        decisions the plan has already committed to) and costed per-node.
        The estimate is refreshed by the dashboard while the query runs, so
        it tightens as observed selectivities replace priors.
        """
        from repro.core.plan.logical import from_physical

        return self.estimate_logical_cost(from_physical(root))
