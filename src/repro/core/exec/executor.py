"""The Query Executor (Figure 1).

The executor is a *pure per-query stepper* over a tree of asynchronous
operators: :meth:`QueryExecutor.step_local` steps every operator, propagates
end-of-input signals, and lets the Task Manager fold the query's new tasks
into (possibly cross-query) HIT batches.  It never advances the simulated
clock and never decides when a query is finished, over budget or stalled —
there is one driver, the :class:`~repro.core.exec.scheduler.EngineScheduler`,
and every plan, engine-planned or hand-built, runs by being submitted to it
(``scheduler.submit(QueryHandle(...))`` then ``handle.wait()``).  The
scheduler calls :meth:`step_local` on each runnable query and advances time
exactly once, globally, when *no* active query can make local progress.

Results flow into the results table via the plan's sink operator; the
executor itself never returns rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exec.context import ExecutionContext
from repro.core.operators.base import Operator
from repro.core.operators.sink import ResultSinkOperator
from repro.errors import ExecutionError

__all__ = ["ExecutorMetrics", "QueryExecutor"]


@dataclass
class ExecutorMetrics:
    """Aggregate counters for one query execution."""

    passes: int = 0
    started_at: float = 0.0
    finished_at: float | None = None

    @property
    def simulated_duration(self) -> float:
        """Simulated seconds between start and completion (0 while running)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


class QueryExecutor:
    """Executes one physical plan to completion (or incrementally)."""

    def __init__(self, root: ResultSinkOperator, context: ExecutionContext):
        if not isinstance(root, ResultSinkOperator):
            raise ExecutionError("the plan root must be a results sink")
        self.root = root
        self.context = context
        self.metrics = ExecutorMetrics()
        self._operators: list[Operator] = list(root.walk())
        self._finish_signalled: set[int] = set()
        self._opened = False
        self._closed = False
        self._apply_drain_bounds()

    # -- lifecycle ----------------------------------------------------------------

    def open(self) -> None:
        """Open every operator exactly once."""
        if self._opened:
            return
        for operator in self._operators:
            operator.open(self.context)
        self.metrics.started_at = self.context.clock.now
        stats = self.context.statistics.query(self.context.query_id)
        stats.started_at = self.context.clock.now
        stats.budget = self.context.config.budget
        self._opened = True

    def close(self) -> None:
        if self._closed:
            return
        for operator in self._operators:
            operator.close()
        self.metrics.finished_at = self.context.clock.now
        self.context.statistics.query(self.context.query_id).finished_at = self.context.clock.now
        self._closed = True

    # -- stepping -----------------------------------------------------------------

    def is_complete(self) -> bool:
        """Whether the plan has produced every result it ever will."""
        return self.root.is_done()

    def step_local(self, *, flush: bool = True, raise_on_budget: bool = True) -> bool:
        """One pure local pass: step operators, propagate finishes, flush.

        Returns True when any local progress was made.  Never touches the
        clock — the engine scheduler decides when simulated time may advance.
        The scheduler passes ``flush=False`` so all concurrent queries deposit
        their tasks before one shared flush builds cross-query HITs, and
        ``raise_on_budget=False`` so budget exhaustion is routed per-query
        instead of raised here.
        """
        self.open()
        if self.is_complete():
            return False
        progress = False
        for operator in self._operators:
            if operator.step():
                progress = True
        if self._propagate_finishes():
            progress = True
        if flush and self.context.task_manager.flush(
            force=False, raise_on_budget=raise_on_budget
        ) > 0:
            progress = True
        if progress:
            self.metrics.passes += 1
        return progress

    # -- adaptive re-planning --------------------------------------------------------

    def replace_operator(self, old: Operator, new: Operator) -> None:
        """Swap a not-yet-started operator for ``new`` in the running plan.

        Used by the adaptive replanner to change a pending operator's
        strategy mid-query (e.g. a comparison sort for a rating sort).  The
        replacement inherits the old operator's position, input queues and
        end-of-input signals, and any input batches the old operator had
        merely buffered (:meth:`Operator.consumed_input`) go back to the front
        of the queues, so no tuple is lost or reordered.  Refuses to replace an
        operator that has already submitted crowd work or emitted rows —
        money spent is never discarded.
        """
        if old not in self._operators:
            raise ExecutionError(f"operator {old.name} is not part of this plan")
        if old.metrics.tasks_created > 0 or old.metrics.rows_out > 0:
            raise ExecutionError(
                f"cannot replace operator {old.name}: it has already started "
                f"({old.metrics.tasks_created} task(s), {old.metrics.rows_out} row(s))"
            )
        if old.parent is None:
            raise ExecutionError("the plan root (results sink) cannot be replaced")
        if len(new._in_queues) != 0 or new.children:
            raise ExecutionError("the replacement operator must be freshly constructed")

        # Adopt the children and their queues/end-of-input state wholesale.
        new.children = old.children
        for child in new.children:
            child.parent = new
        new._in_queues = old._in_queues
        new._inputs_done = old._inputs_done
        for batch, slot in reversed(old.consumed_input()):
            new._in_queues[slot].appendleft(batch)

        new.parent = old.parent
        new.child_slot = old.child_slot
        old.parent.children[old.child_slot] = new
        if self._opened:
            new.open(self.context)
        self._operators = list(self.root.walk())
        self._finish_signalled.discard(id(old))
        self._apply_drain_bounds()

    # -- helpers ---------------------------------------------------------------------

    def _apply_drain_bounds(self) -> None:
        """Let purely local plans take big steps.

        The small per-step drain bound exists so crowd plans interleave local
        work with HIT submission and clock advances.  A plan with no crowd
        operator anywhere has nothing to interleave with — small steps just
        multiply scheduler passes — so every operator's bound is raised to
        :attr:`Operator.LOCAL_MAX_ROWS_PER_STEP` and a 100k-row scan drains
        in a dozen passes instead of thousands.  Crowd plans keep the small
        bound, preserving HIT batching behavior exactly.
        """
        if any(operator.IS_CROWD for operator in self._operators):
            bound = Operator.MAX_ROWS_PER_STEP
        else:
            bound = Operator.LOCAL_MAX_ROWS_PER_STEP
        for operator in self._operators:
            operator._max_rows_per_step = bound

    def _propagate_finishes(self) -> bool:
        signalled = False
        for operator in self._operators:
            if id(operator) in self._finish_signalled or operator.parent is None:
                continue
            if operator.is_done():
                operator.parent.finish_input(operator.child_slot)
                self._finish_signalled.add(id(operator))
                signalled = True
        return signalled

    def operators(self) -> list[Operator]:
        """All operators in the plan, children before parents."""
        return list(self._operators)
