"""Query handles: how users watch an asynchronous Qurk query.

Because a single HIT can take minutes, Qurk queries do not block and return a
result set; they run asynchronously and append tuples to a results table that
"the user can periodically poll" (Section 2).  A :class:`QueryHandle` wraps
the executor, the results table and the per-query statistics, offering both
the polling pattern and a convenience :meth:`wait` that drives the simulation
to completion.  The results table holds columns; :meth:`QueryHandle.poll`,
:meth:`QueryHandle.results` and :meth:`QueryHandle.wait` return a
:class:`~repro.storage.table.RowsView` over them, which builds each ``Row``
when it is read.

A handle is driven by the :class:`~repro.core.exec.scheduler.EngineScheduler`
it was submitted to (:class:`~repro.engine.QurkEngine` submits every query it
plans; a hand-built plan does the same with ``scheduler.submit(handle)``).
:meth:`step`, :meth:`run_until` and :meth:`wait` delegate to that scheduler:
waiting on one handle also progresses every concurrent query on the same
marketplace, and HITs may be shared across queries.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.exec.executor import QueryExecutor
from repro.core.optimizer.statistics import QueryStats
from repro.storage.table import RowsView, Table

if TYPE_CHECKING:  # pragma: no cover - import cycle: scheduler imports handle
    from repro.core.exec.scheduler import EngineScheduler

__all__ = ["QueryStatus", "TERMINAL_STATUSES", "QueryHandle"]


class QueryStatus(enum.Enum):
    """Lifecycle of a submitted query."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    BUDGET_EXCEEDED = "budget_exceeded"
    STALLED = "stalled"
    FAILED = "failed"
    #: The deadline elapsed under ``degradation="error"``.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: The deadline elapsed under ``degradation="partial"``; the handle holds
    #: whatever rows had landed — a correct prefix of the full-run result.
    DEGRADED = "degraded"
    #: Evicted from the pending-admission queue by a higher-priority arrival.
    SHED = "shed"


#: Statuses a query can never leave.
TERMINAL_STATUSES = frozenset(
    {
        QueryStatus.COMPLETED,
        QueryStatus.BUDGET_EXCEEDED,
        QueryStatus.STALLED,
        QueryStatus.FAILED,
        QueryStatus.DEADLINE_EXCEEDED,
        QueryStatus.DEGRADED,
        QueryStatus.SHED,
    }
)


class QueryHandle:
    """A running (or finished) Qurk query."""

    def __init__(
        self,
        query_id: str,
        sql: str,
        executor: QueryExecutor,
        results_table: Table,
    ):
        self.query_id = query_id
        self.sql = sql
        self.executor = executor
        self.results_table = results_table
        #: Set by :meth:`EngineScheduler.submit`, the only way a query runs.
        self.scheduler: "EngineScheduler | None" = None
        self.status = QueryStatus.PENDING
        self.error: Exception | None = None
        self._poll_watermark = results_table.last_row_id()

    # -- polling ------------------------------------------------------------------------

    def poll(self) -> RowsView:
        """A view of the result rows that arrived since the previous poll.

        Costs the new rows only, when they are read: row ids are positions
        in the results table.
        """
        table = self.results_table
        new = table.rows(self._poll_watermark)
        self._poll_watermark = max(self._poll_watermark, table.last_row_id())
        return new

    def results(self) -> RowsView:
        """A view of every result row produced so far; rows are built as read."""
        return self.results_table.rows()

    def __len__(self) -> int:
        return len(self.results_table)

    # -- driving execution -----------------------------------------------------------------

    def step(self) -> bool:
        """Advance execution a little (used by the dashboard's live view).

        This runs one *global* scheduling pass — every active query gets a
        slice, shared batches are flushed, and the clock advances only if
        nobody moved.
        """
        if self.is_terminal:
            return False
        return self.scheduler.step()

    def run_until(self, simulated_time: float) -> None:
        """Run the query until the simulated clock reaches ``simulated_time``."""
        self.scheduler.run_until(simulated_time, watch=self)

    def wait(self) -> RowsView:
        """Drive the query to completion and return a view of every result row.

        Raises :class:`~repro.errors.QueryStalledError` (and sets
        ``status = STALLED``) if execution stops making progress before the
        plan completes, rather than silently returning partial results.
        """
        return self.scheduler.wait(self)

    # -- introspection -----------------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """Whether the query has produced all results it ever will."""
        return self.status is QueryStatus.COMPLETED

    @property
    def is_terminal(self) -> bool:
        """Whether the query has reached a state it can never leave."""
        return self.status in TERMINAL_STATUSES

    def plan_history(self) -> list:
        """The query's plan decisions and mid-query revisions, oldest first.

        The first entry records the physical plan the optimizer chose; later
        entries are :class:`~repro.core.optimizer.adaptive.PlanChange`
        records for every strategy the adaptive replanner swapped while the
        query ran.  A scheduler without a replanner keeps no history.
        """
        replanner = self.scheduler.replanner
        return replanner.history(self.query_id) if replanner is not None else []

    @property
    def stats(self) -> QueryStats:
        """Per-query statistics (spend, HITs, cache/model savings, ...)."""
        return self.executor.context.statistics.query(self.query_id)

    @property
    def total_cost(self) -> float:
        """Dollars spent on crowd work for this query so far."""
        return self.stats.spent

    def describe_plan(self) -> str:
        """A compact, indented rendering of the physical plan."""
        lines: list[str] = []

        def visit(operator, depth: int) -> None:
            lines.append("  " * depth + operator.name)
            for child in operator.children:
                visit(child, depth + 1)

        visit(self.executor.root, 0)
        return "\n".join(lines)
