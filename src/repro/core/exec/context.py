"""Execution context shared by every operator of one running query."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task_manager import TaskManager
from repro.crowd.clock import SimulationClock
from repro.storage.database import Database

if TYPE_CHECKING:  # pragma: no cover - avoids import cycle with the optimizer
    from repro.core.optimizer.optimizer import QueryOptimizer

__all__ = ["QueryConfig", "ExecutionContext"]


@dataclass
class QueryConfig:
    """Per-query knobs, set by the caller (or the engine's default config).

    ``budget`` caps the query's spend.  ``adaptive`` picks each task's
    redundancy with the optimizer's majority-vote rule (see
    :class:`repro.core.optimizer.optimizer.QueryOptimizer`) and lets the
    adaptive replanner swap pending strategies; with it off, tasks take their
    spec's own ``assignments`` and the plan never changes mid-query.
    """

    budget: float | None = None
    adaptive: bool = True
    #: Seconds (on the engine clock, simulated or wall) the query may run
    #: after admission before the deadline fires.  ``None`` disables it.
    deadline: float | None = None
    #: What happens when the deadline fires: ``"error"`` raises
    #: :class:`~repro.errors.QueryDeadlineError` from ``wait()``;
    #: ``"partial"`` finishes ``DEGRADED`` with the rows landed so far.
    degradation: str = "error"
    #: Under deadline/budget pressure, shrink waves to a single assignment
    #: and stop burning retry attempts instead of stalling.  Default off so
    #: existing workloads keep byte-identical HIT counts.
    shed_under_pressure: bool = False

    def clone(self, **overrides) -> "QueryConfig":
        """A copy of this config with ``overrides`` applied.

        The engine clones its default config (and any caller-supplied config)
        for every query, so per-query mutations — e.g. resolving the effective
        budget — never leak into other queries, and new fields are carried
        over automatically instead of being hand-copied.
        """
        return dataclasses.replace(self, **overrides)


@dataclass
class ExecutionContext:
    """Everything an operator needs to run: services, identifiers and config."""

    query_id: str
    database: Database
    task_manager: TaskManager
    statistics: StatisticsManager
    budget: BudgetLedger
    clock: SimulationClock
    config: QueryConfig = field(default_factory=QueryConfig)
    optimizer: "QueryOptimizer | None" = None

    def assignments_for(self, spec: TaskSpec) -> int:
        """Redundancy to use for a task of ``spec``.

        The adaptive optimizer choice (re-evaluated per task, so it tightens
        as statistics accumulate mid-query — Section 2's adaptive
        requirement), else the spec's own default.
        """
        if self.config.adaptive and self.optimizer is not None:
            return self.optimizer.choose_assignments(spec)
        return spec.assignments
