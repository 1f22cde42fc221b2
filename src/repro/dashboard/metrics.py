"""Data model behind the Query Status Dashboard (Figure 2).

The dashboard "displays the current budget and estimates for total query
cost" and "describes the benefits gained from two optimizations: caching of
previously executed UDFs on a tuple, and the use of classifiers in place of
humans for various HITs" (Section 4.1).  :class:`QueryDashboardSnapshot`
captures those numbers for one query at one instant; the rendering layer in
:mod:`repro.dashboard.dashboard` turns snapshots into the text view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# The executor's per-operator rows are the dashboard's: a finished query
# keeps them after its operator tree is gone.
from repro.core.exec.executor import OperatorSnapshot

__all__ = ["OperatorSnapshot", "QueryDashboardSnapshot"]


@dataclass(frozen=True)
class QueryDashboardSnapshot:
    """Everything the dashboard shows for one query at one point in time."""

    query_id: str
    sql: str
    status: str
    simulated_time: float
    results_emitted: int
    # Money
    budget: float | None
    spent: float
    committed: float
    estimated_total_cost: float
    remaining_budget: float | None
    # Crowd activity
    hits_posted: int
    tasks_submitted: int
    tasks_completed: int
    # Optimization benefits (Section 4.1)
    cache_hits: int
    cache_savings: float
    model_answers: int
    model_savings: float
    # Latency
    elapsed_seconds: float
    estimated_latency: float
    # Plan progress
    operators: tuple[OperatorSnapshot, ...]
    # Engine scheduler view: admission state ("active" / "queued" /
    # "finished") and the query's lifecycle events ("submitted@0s", ...).
    scheduler_state: str
    lifecycle: tuple[str, ...]
    # Adaptive re-optimization: the initial plan choice plus every mid-query
    # strategy swap the replanner applied, oldest first.
    plan_changes: tuple[str, ...]
    # Everything that describes the whole marketplace rather than this query
    # (workers, HITs, the cache and the run loop are shared by concurrent
    # queries): :meth:`repro.engine.QurkEngine.counters` at the same instant,
    # keyed by published counter name.
    engine: Mapping[str, float | str]

    @property
    def budget_utilisation(self) -> float | None:
        """Fraction of the budget spent so far (None when unbudgeted)."""
        if self.budget is None or self.budget == 0:
            return None
        return min(self.spent / self.budget, 1.0)

    @property
    def total_savings(self) -> float:
        """Dollars saved by the cache and the task model together."""
        return self.cache_savings + self.model_savings
