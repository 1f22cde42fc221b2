"""The Query Executor (Figure 1).

The executor is a *pure per-query stepper* over a tree of asynchronous
operators: :meth:`QueryExecutor.step_local` steps every operator and
propagates end-of-input signals; the tasks the operators submit wait in the
Task Manager's queues for the scheduler's one shared flush per pass, which
folds them into (possibly cross-query) HIT batches.  The executor never
flushes, never advances the simulated clock and never decides when a query
is finished, over budget, failed or stalled — there is one driver, the
:class:`~repro.core.exec.scheduler.EngineScheduler`, and every plan,
engine-planned or hand-built, runs by being submitted to it
(``scheduler.submit(QueryHandle(...))`` then ``handle.wait()``).  The
scheduler calls :meth:`step_local` on each runnable query and advances time
exactly once, globally, when *no* active query can make local progress.

Results flow into the results table via the plan's sink operator; the
executor itself never returns rows.

Once its query has ended and none of its crowd work is in flight, the
scheduler retires the executor (:meth:`QueryExecutor.retire`): the operator
tree, its compiled kernels and queues and the execution context are
dropped, and what a finished query is still asked about — its statistics,
per-operator progress rows and the logical tree the plan was built from —
stays as a record.  The record is kept in the form CPython's cyclic
collector can skip: the progress rows are one tuple of plain value tuples
(which the collector stops tracking once they survive a young collection),
built into :class:`OperatorSnapshot` rows only when read, and the logical
tree is the plan template's, shared by every plan of the statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.exec.context import ExecutionContext
from repro.core.operators.base import Operator
from repro.core.operators.sink import ResultSinkOperator
from repro.core.optimizer.statistics import QueryStats
from repro.core.plan.logical import LogicalNode
from repro.errors import ExecutionError

__all__ = ["ExecutorMetrics", "OperatorSnapshot", "QueryExecutor"]


class OperatorSnapshot(NamedTuple):
    """Progress counters for one operator in the running plan.

    Built when the rows are read (the dashboard, :meth:`QueryHandle.describe_plan`);
    a retired executor keeps the same fields as plain tuples, which the
    cyclic collector stops tracking, where a named tuple stays tracked.
    """

    name: str
    depth: int
    rows_in: int
    rows_out: int
    tasks_created: int
    tasks_completed: int
    outstanding_tasks: int


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
        self._operators: list[Operator] | tuple[()] = list(root.walk())
        #: The logical tree the plan under the sink was built from, each node
        #: kept by its operator (None for a hand-built plan).  A plan made
        #: from a template shares the template's tree until its first swap
        #: (:meth:`replace_operator`) takes a private copy.
        self.plan_tree: LogicalNode | None = root.children[0].node if root.children else None
        self._owns_plan_tree = False
        self._finish_signalled: set[int] | None = set()
        self._opened = False
        self._closed = False
        # The record a retired executor answers from (all None while live).
        self._stats: QueryStats | None = None
        self._rows: tuple[tuple, ...] | None = None

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
        return self.root is None or self.root.is_done()

    def step_local(self) -> bool:
        """One pure local pass: step every operator, propagate finishes.

        Returns True when any local progress was made.  Never flushes and
        never touches the clock: every concurrent query deposits its tasks
        before the scheduler's one shared flush builds cross-query HITs, and
        the scheduler decides when simulated time may advance.  An exception
        raised by an operator propagates; the scheduler ends the query
        ``FAILED``.
        """
        if self.root is None:
            return False
        self.open()
        if self.is_complete():
            return False
        progress = False
        for operator in self._operators:
            if operator.step():
                progress = True
        if self._propagate_finishes():
            progress = True
        if progress:
            self.metrics.passes += 1
        return progress

    # -- the finished query's record ---------------------------------------------------

    def retire(self) -> None:
        """Drop the operator tree of an ended query, keeping what is read of it.

        Kept: :attr:`metrics`, the query's statistics, the operator rows (as
        plain value tuples) and :attr:`plan_tree` (re-costed on every read,
        so an estimate is as current as the statistics).  Dropped: the
        operators with their compiled kernels and queues, the execution
        context and the stepping bookkeeping.  The caller makes sure no task
        of the query can still call back into the tree (the scheduler asks
        :meth:`TaskManager.has_live_tasks`).
        """
        if self.root is None:
            return
        self._stats = self.stats
        self._rows = _progress_rows(self.root)
        # Unlink the tree so it is freed by reference counting.
        for operator in self._operators:
            operator.parent = None
        self.root = None
        self.context = None
        self._operators = ()  # the shared empty tuple: nothing for the collector
        self._finish_signalled = None

    @property
    def stats(self) -> QueryStats:
        """The query's statistics (spend, HITs, cache/model savings, ...)."""
        if self._stats is not None:
            return self._stats
        return self.context.statistics.query(self.context.query_id)

    def operator_rows(self) -> tuple[OperatorSnapshot, ...]:
        """Every operator's name, depth and progress, root first (pre-order)."""
        rows = self._rows if self._rows is not None else _progress_rows(self.root)
        return tuple(map(OperatorSnapshot._make, rows))

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

        ``new.node`` takes the old operator's place in :attr:`plan_tree`
        (the query's first swap copies the tree, so a template's tree is
        never rewritten).  A replacement built by hand, with no node, keeps
        the old operator's node.
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

        if old.node is not None:
            self._own_plan_tree()
            if new.node is None:
                new.node = old.node
            new.node.children = old.node.children
            parent = old.parent.node
            if parent is None:
                self.plan_tree = new.node
            else:
                parent.children[old.child_slot] = new.node

        new.parent = old.parent
        new.child_slot = old.child_slot
        old.parent.children[old.child_slot] = new
        if self._opened:
            new.open(self.context)
        self._operators = list(self.root.walk())
        self._finish_signalled.discard(id(old))

    # -- helpers ---------------------------------------------------------------------

    def _own_plan_tree(self) -> None:
        """Before the first swap, pair every operator with a private copy of its node.

        The copy is made in walk order, which the physical planner built the
        operators in, so operator and node trees keep the same shape.
        """
        if self._owns_plan_tree:
            return
        self.plan_tree = self.plan_tree.clone()
        for operator, node in zip(self.root.children[0].walk(), self.plan_tree.walk()):
            operator.node = node
        self._owns_plan_tree = True

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
        """All operators in the plan, children before parents (none once retired)."""
        return list(self._operators)


def _progress_rows(root: Operator) -> tuple[tuple, ...]:
    """Each operator's :class:`OperatorSnapshot` fields as a plain tuple, in pre-order."""
    rows: list[tuple] = []
    _snapshot(root, 0, rows)
    return tuple(rows)


def _snapshot(operator: Operator, depth: int, rows: list[tuple]) -> None:
    """Append ``operator``'s progress row, then its subtree's, in pre-order."""
    metrics = operator.metrics
    rows.append(
        (
            operator.name,
            depth,
            metrics.rows_in,
            metrics.rows_out,
            metrics.tasks_created,
            metrics.tasks_completed,
            operator.outstanding_tasks,
        )
    )
    for child in operator.children:
        _snapshot(child, depth + 1, rows)
