"""The Statistics Manager (Figure 1).

"The manager takes data from the Statistics Manager to determine the number
of HITs, HIT assignments, and the cost of each task" and "Query selectivities
for HIT-based operators are not known a priori", so they are measured online.
This module accumulates per-task-spec and per-query statistics as
task results stream in; the optimizer's costing and the dashboard read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import with the task layer
    from repro.core.tasks.task import TaskResult

__all__ = [
    "SpecStats",
    "QueryStats",
    "StatisticsManager",
]


@dataclass
class SpecStats:
    """Online statistics for one task spec (one crowd UDF)."""

    tasks_completed: int = 0
    crowd_tasks: int = 0
    cache_hits: int = 0
    model_answers: int = 0
    hits_posted: int = 0
    assignments_received: int = 0
    total_cost: float = 0.0
    total_latency: float = 0.0
    total_agreement: float = 0.0
    boolean_true: int = 0
    boolean_total: int = 0

    @property
    def mean_agreement(self) -> float:
        """Mean worker agreement on the winning answer."""
        return self.total_agreement / self.crowd_tasks if self.crowd_tasks else 1.0


@dataclass
class QueryStats:
    """Per-query accounting used by the dashboard and budget enforcement."""

    query_id: str
    budget: float | None = None
    spent: float = 0.0
    hits_posted: int = 0
    tasks_submitted: int = 0
    tasks_completed: int = 0
    cache_hits: int = 0
    model_answers: int = 0
    results_emitted: int = 0
    started_at: float = 0.0
    finished_at: float | None = None
    dollars_saved_cache: float = 0.0
    dollars_saved_model: float = 0.0

    @property
    def elapsed(self) -> float:
        """Simulated seconds the query has been running (0 before completion data)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


class StatisticsManager:
    """Accumulates statistics from completed tasks and posted HITs."""

    def __init__(self) -> None:
        self._specs: dict[str, SpecStats] = {}
        self._queries: dict[str, QueryStats] = {}

    # -- accessors ---------------------------------------------------------------

    def spec(self, name: str) -> SpecStats:
        """Statistics bucket for a task spec (created on first use)."""
        stats = self._specs.get(name)
        if stats is None:
            stats = self._specs[name] = SpecStats()
        return stats

    def query(self, query_id: str) -> QueryStats:
        """Statistics bucket for a query (created on first use)."""
        stats = self._queries.get(query_id)
        if stats is None:
            stats = self._queries[query_id] = QueryStats(query_id=query_id)
        return stats

    # -- recording -----------------------------------------------------------------

    def record_result(self, result: "TaskResult") -> None:
        """Fold one completed task into spec and query statistics."""
        from repro.core.tasks.task import ResultSource

        spec_stats = self.spec(result.task.spec.name)
        query_stats = self.query(result.task.query_id) if result.task.query_id else None

        spec_stats.tasks_completed += 1
        if query_stats is not None:
            query_stats.tasks_completed += 1

        if result.source is ResultSource.CROWD:
            spec_stats.crowd_tasks += 1
            spec_stats.assignments_received += len(result.answers)
            spec_stats.total_cost += result.cost
            spec_stats.total_latency += result.latency
            spec_stats.total_agreement += result.agreement
            if query_stats is not None:
                query_stats.spent += result.cost
        elif result.source is ResultSource.CACHE:
            spec_stats.cache_hits += 1
            if query_stats is not None:
                query_stats.cache_hits += 1
                # The Task Manager computed what this task would have spent
                # (assignment_cost x redundancy); the old mean-cost proxy
                # misattributed whatever the *stored* answer happened to cost.
                query_stats.dollars_saved_cache += result.avoided_cost
        elif result.source is ResultSource.MODEL:
            spec_stats.model_answers += 1
            if query_stats is not None:
                query_stats.model_answers += 1
                query_stats.dollars_saved_model += result.avoided_cost

        if isinstance(result.reduced, bool):
            spec_stats.boolean_total += 1
            spec_stats.boolean_true += int(result.reduced)

    def record_hit_posted(self, spec_name: str, query_ids: "str | Iterable[str]") -> None:
        """Record that a HIT was posted (spend is attributed via results).

        ``query_ids`` is one query id or an iterable of them — a HIT built by
        cross-query batching counts once for the spec but once *per
        participating query* in each query's own view.
        """
        self.spec(spec_name).hits_posted += 1
        if isinstance(query_ids, str):
            query_ids = (query_ids,) if query_ids else ()
        for query_id in query_ids:
            if query_id:
                self.query(query_id).hits_posted += 1

    def record_task_submitted(self, query_id: str) -> None:
        """Record that an operator handed a task to the Task Manager."""
        if query_id:
            self.query(query_id).tasks_submitted += 1

    def record_result_emitted(self, query_id: str, count: int = 1) -> None:
        """Record rows emitted into a query's results table."""
        if query_id:
            self.query(query_id).results_emitted += count

    # -- durability -----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Every statistics bucket, as plain field dicts (all JSON scalars).

        Selectivity/latency/cost estimates feed the optimizer and the
        replanner, so a recovered engine must resume from the same
        observations or its plan choices (and fingerprints) would diverge.
        """
        from dataclasses import asdict

        return {
            "specs": {name: asdict(stats) for name, stats in self._specs.items()},
            "queries": {qid: asdict(stats) for qid, stats in self._queries.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self._specs = {name: SpecStats(**fields) for name, fields in state["specs"].items()}
        self._queries = {
            qid: QueryStats(**fields) for qid, fields in state["queries"].items()
        }
