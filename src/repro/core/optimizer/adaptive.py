"""Mid-query adaptive re-optimization (Section 2's adaptive requirement).

"Query selectivities for HIT-based operators are not known a priori", so the
initial physical plan is built from priors that can be badly wrong.  The
:class:`AdaptiveReplanner` is the runtime half of the optimizer: the engine
scheduler consults it at **operator-completion barriers** — whenever one of a
query's operators finishes, the true cardinality flowing into the not-yet-
started plan suffix becomes (partially) known — and it re-costs that suffix
with observed statistics.  When the plan's committed strategy is no longer
cost-minimal *and* the original estimate was demonstrably wrong, it swaps the
pending operator in place:

* **sort interface** — a comparison sort planned for a handful of rows that
  will actually receive many (O(n²) pairs!) is replaced by a rating sort,
  and vice versa;
* **join interface** — pairwise versus the two-column Figure 3 interface,
  re-decided with observed input cardinalities;
* **redundancy** — the adaptive assignment rule already re-evaluates per
  task; the replanner records when its recommendation shifts so the plan
  history shows the change.

Swaps only target operators that have not started (no tasks submitted, no
rows emitted) — crowd work already paid for is never discarded — and only
fire when the observed cardinality differs from the planner's estimate by
:attr:`AdaptiveReplanner.MISESTIMATE_FACTOR`, so well-estimated plans are
left alone.  Every change is returned to the scheduler, which emits a
``replanned`` lifecycle event the dashboard surfaces;
``QueryHandle.plan_history()`` exposes the full record.

The observed cardinality comes from the same per-node estimators EXPLAIN
uses: at a barrier one costing pass annotates the nodes the running
operators were built from (:attr:`~repro.core.operators.base.Operator.node`),
taking every finished operator's node at the rows it actually emitted and
estimating the rest with observed selectivities.  A swap builds its
replacement from a copy of the old operator's node with the new strategy,
through the physical planner's
:func:`~repro.core.plan.physical.make_operator`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from operator import attrgetter

from repro.core.operators.base import Operator
from repro.core.operators.crowd_join import CrowdJoinOperator, JoinStrategy
from repro.core.operators.crowd_sort import CrowdSortOperator, SortStrategy
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.plan.logical import annotate_plan
from repro.core.plan.physical import make_operator
from repro.core.tasks.spec import ComparisonResponse, JoinColumnsResponse

__all__ = ["PlanChange", "AdaptiveReplanner"]


@dataclass(frozen=True)
class PlanChange:
    """One revision of a query's physical plan (or its initial choice)."""

    time: float
    query_id: str
    kind: str  # "plan" | "sort-strategy" | "join-interface" | "redundancy"
    operator: str
    before: str
    after: str
    reason: str = ""
    estimated_savings: float = 0.0

    def describe(self) -> str:
        if self.kind == "plan":
            return f"plan: {self.after}"
        text = f"{self.kind} {self.operator}: {self.before} -> {self.after}"
        if self.reason:
            text += f" ({self.reason})"
        if self.estimated_savings > 0:
            text += f", save ~${self.estimated_savings:,.2f}"
        return text


#: A :class:`PlanChange`'s fields as a plain tuple, in declaration order.
_change_fields = attrgetter(*(field.name for field in fields(PlanChange)))


class AdaptiveReplanner:
    """Re-costs pending plan suffixes at barriers and swaps strategies."""

    #: An operator is reconsidered only when the observed input cardinality
    #: differs from the planner's estimate by at least this factor — plans
    #: whose estimates held up are never churned.
    MISESTIMATE_FACTOR = 2.0

    def __init__(self, optimizer: QueryOptimizer) -> None:
        self.optimizer = optimizer
        self._seen_done: dict[str, set[int]] = {}
        #: Each query's plan decisions as one tuple of :class:`PlanChange`
        #: field tuples, re-made per change: plain tuples, which the cyclic
        #: collector stops tracking, so a finished query's history costs it
        #: nothing.  :meth:`history` builds the records when read.
        self._history: dict[str, tuple[tuple, ...]] = {}
        self._redundancy_seen: dict[tuple[str, int], int] = {}

    # -- history ---------------------------------------------------------------------

    def history(self, query_id: str) -> list[PlanChange]:
        """Every plan decision and revision recorded for one query."""
        return [PlanChange(*fields) for fields in self._history.get(query_id, ())]

    def record_initial(self, query_id: str, description: str, time: float) -> None:
        """Record the initial physical plan choice as the first history entry."""
        initial = PlanChange(
            time=time, query_id=query_id, kind="plan", operator="", before="",
            after=description or "default plan",
        )
        self._history[query_id] = self._history.get(query_id, ()) + (_change_fields(initial),)

    def release(self, query_id: str) -> None:
        """Drop a terminal query's barrier/redundancy bookkeeping.

        The plan history stays (it is the query's record); only the
        per-operator working state is pruned, so a long-lived engine does not
        accumulate state for every query it ever ran — and recycled
        ``id(operator)`` values can never collide across queries.
        """
        self._seen_done.pop(query_id, None)
        for key in [k for k in self._redundancy_seen if k[0] == query_id]:
            del self._redundancy_seen[key]

    # -- the barrier hook ---------------------------------------------------------------

    def maybe_replan(self, handle) -> list[PlanChange]:
        """Consult the replanner after one query's local step.

        Cheap no-op unless an operator completed since the previous call (an
        operator-completion barrier).  Returns the changes applied, already
        recorded in the query's history.
        """
        executor = handle.executor
        context = executor.context
        if not context.config.adaptive:
            return []
        query_id = context.query_id
        done_now = {id(op) for op in executor.operators() if op.is_done()}
        seen = self._seen_done.setdefault(query_id, set())
        newly_done = done_now - seen
        seen |= done_now
        if not newly_done:
            return []

        changes: list[PlanChange] = []
        now = context.clock.now
        rows: dict[int, float] | None = None  # estimated once per plan shape
        for operator in list(executor.operators()):
            if not operator.is_done():
                # Redundancy recommendations shift while operators run (the
                # per-task rule applies them); recording is not gated on the
                # operator being swappable.
                redundancy = self._reconsider_redundancy(operator, context, now, query_id)
                if redundancy is not None:
                    changes.append(redundancy)
            crowd_sort = isinstance(operator, CrowdSortOperator)
            if not (crowd_sort or isinstance(operator, CrowdJoinOperator)):
                continue
            if operator.node is None or not _is_pending(operator):
                continue  # a hand-built operator has no node to re-cost
            if rows is None:
                rows = self._estimate_rows(executor.root)
            if crowd_sort:
                change = self._reconsider_sort(operator, executor, rows, now, query_id)
            else:
                change = self._reconsider_join(operator, executor, rows, now, query_id)
            if change is not None:
                changes.append(change)
                rows = None  # the swap changed the tree
                # The swapped-out operator may be garbage collected and its
                # id() recycled by a later replacement; drop its baseline so
                # a recycled id can never inherit it.
                self._redundancy_seen.pop((query_id, id(operator)), None)
        if changes:
            recorded = tuple(_change_fields(change) for change in changes)
            self._history[query_id] = self._history.get(query_id, ()) + recorded
        return changes

    # -- per-operator reconsideration -------------------------------------------------------

    def _estimate_rows(self, root: Operator) -> dict[int, float]:
        """Rows each operator will have emitted when it finishes, by ``id``.

        Finished operators report their exact output; running ones are
        estimated by their logical node over observed selectivities, which
        is what makes the replanner's estimates tighter than plan time.
        ``root`` is the plan's results sink, which has no node and is left
        out.
        """
        planned = [operator for operator in root.walk() if operator.node is not None]
        observed = {
            id(operator.node): float(operator.metrics.rows_out)
            for operator in planned
            if operator.is_done()
        }
        annotate_plan(root.children[0].node, self.optimizer.costing_pass(), observed)
        return {id(operator): operator.node.estimated_rows for operator in planned}

    def _reconsider_sort(
        self,
        operator: CrowdSortOperator,
        executor,
        rows: dict[int, float],
        now: float,
        query_id: str,
    ) -> PlanChange | None:
        if not isinstance(operator.spec.response, ComparisonResponse):
            # A Rating response cannot run as comparisons (and vice versa the
            # response stays authoritative) — only Comparison tasks, which
            # degrade gracefully to per-item ratings, may switch interfaces.
            return None
        observed = rows[id(operator.children[0])]
        planned = operator.planned_input_rows
        if not _misestimated(planned, observed, self.MISESTIMATE_FACTOR):
            return None
        costs = self.optimizer.cost_model.sort_strategy_costs(
            operator.spec,
            observed,
            assignments=executor.context.assignments_for(operator.spec),
            items_per_hit=operator.spec.batch_size,
        )
        new_strategy = (
            SortStrategy.RATING
            if operator.strategy is SortStrategy.COMPARISON
            else SortStrategy.COMPARISON
        )
        current, alternative = costs[operator.strategy], costs[new_strategy]
        if alternative.dollars >= current.dollars:
            return None
        replacement = _replacement(operator, new_strategy)
        replacement.planned_input_rows = observed
        executor.replace_operator(operator, replacement)
        return PlanChange(
            time=now,
            query_id=query_id,
            kind="sort-strategy",
            operator=operator.spec.name,
            before=operator.strategy.value,
            after=new_strategy.value,
            reason=f"expected ~{planned:,.0f} rows, observing ~{observed:,.0f}",
            estimated_savings=current.dollars - alternative.dollars,
        )

    def _reconsider_join(
        self,
        operator: CrowdJoinOperator,
        executor,
        rows: dict[int, float],
        now: float,
        query_id: str,
    ) -> PlanChange | None:
        if not isinstance(operator.spec.response, JoinColumnsResponse):
            return None  # yes/no join specs can only render pairwise
        n_left = rows[id(operator.children[0])]
        n_right = rows[id(operator.children[1])]
        if not (
            _misestimated(operator.planned_left_rows, n_left, self.MISESTIMATE_FACTOR)
            or _misestimated(operator.planned_right_rows, n_right, self.MISESTIMATE_FACTOR)
        ):
            return None
        left_per_hit, right_per_hit = operator.spec.join_block
        costs = self.optimizer.cost_model.join_strategy_costs(
            operator.spec,
            n_left,
            n_right,
            assignments=executor.context.assignments_for(operator.spec),
            pairs_per_hit=operator.spec.batch_size,
            left_per_hit=left_per_hit,
            right_per_hit=right_per_hit,
        )
        new_strategy = (
            JoinStrategy.COLUMNS
            if operator.strategy is JoinStrategy.PAIRWISE
            else JoinStrategy.PAIRWISE
        )
        current, alternative = costs[operator.strategy], costs[new_strategy]
        if alternative.dollars >= current.dollars:
            return None
        replacement = _replacement(operator, new_strategy)
        replacement.planned_left_rows = n_left
        replacement.planned_right_rows = n_right
        executor.replace_operator(operator, replacement)
        return PlanChange(
            time=now,
            query_id=query_id,
            kind="join-interface",
            operator=operator.spec.name,
            before=operator.strategy.value,
            after=new_strategy.value,
            reason=f"observing ~{n_left:,.0f} x ~{n_right:,.0f} input rows",
            estimated_savings=current.dollars - alternative.dollars,
        )

    def _reconsider_redundancy(
        self, operator: Operator, context, now: float, query_id: str
    ) -> PlanChange | None:
        spec = getattr(operator, "spec", None)
        if spec is None:
            return None
        recommended = context.assignments_for(spec)
        key = (query_id, id(operator))
        if key not in self._redundancy_seen:
            # First consultation establishes the baseline; only subsequent
            # shifts are changes worth recording.
            self._redundancy_seen[key] = recommended
            return None
        previous = self._redundancy_seen[key]
        self._redundancy_seen[key] = recommended
        if recommended == previous:
            return None
        # The per-task assignment rule applies the new redundancy on its own
        # (ExecutionContext.assignments_for); this entry records the shift so
        # the plan history explains the spend trajectory.
        reputation = self.optimizer.reputation
        if reputation is not None and not reputation.is_uniform():
            reason = "observed worker accuracy (gold probes) moved the majority-vote choice"
        else:
            reason = "observed worker agreement moved the majority-vote choice"
        return PlanChange(
            time=now,
            query_id=query_id,
            kind="redundancy",
            operator=spec.name,
            before=str(previous),
            after=str(recommended),
            reason=reason,
        )


# -- helpers ------------------------------------------------------------------------------


def _replacement(operator: Operator, strategy: SortStrategy | JoinStrategy) -> Operator:
    """A fresh operator for a copy of ``operator``'s node with ``strategy``.

    The copy's children are re-linked when the executor swaps it in
    (:meth:`~repro.core.exec.executor.QueryExecutor.replace_operator`).
    """
    node = copy.copy(operator.node)
    node.strategy = strategy
    return make_operator(node, operator.children)


def _is_pending(operator: Operator) -> bool:
    """Whether an operator has not yet committed any work (swap-safe)."""
    return (
        not operator.is_done()
        and operator.metrics.tasks_created == 0
        and operator.metrics.rows_out == 0
    )


def _misestimated(planned: float | None, observed: float, factor: float) -> bool:
    if planned is None:
        return False
    low = max(min(planned, observed), 1e-9)
    high = max(planned, observed)
    return high / low >= factor
