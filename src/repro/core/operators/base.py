"""Asynchronous, queue-connected query operators.

Section 2: "due to the latency in processing HITs, the query operators
communicate asynchronously through input queues, as in the Volcano system...
in contrast to the pull based iterator model, results are automatically
emitted from the top-most operator and inserted into a results table."

Each operator owns one input queue per child.  The engine scheduler's pass
over a query calls :meth:`Operator.step` on every operator, which drains
everything queued, possibly submits crowd tasks, and pushes produced rows
into its parent's queue.  Crowd operators keep a count of
outstanding tasks; an operator is *done* only when its inputs are finished,
its queues are drained, it has no outstanding tasks, and it has flushed any
internal buffers.

There is one protocol, and its unit is the column-major
:class:`~repro.storage.batch.RowBatch`: a child hands its parent a batch with
:meth:`Operator.emit`, which lands in the parent's queue through
:meth:`Operator.push`, and :meth:`Operator.step` feeds each drained batch to
the operator's single input hook, :meth:`Operator._process`.  A lone row — a
crowd callback's answer, say — travels as a batch of one.  Rows materialize
only where a consumer genuinely needs them: crowd-operator task emission and
HIT compilation inside a plan, and the user reading results off the handle
(the results sink lands batches as columns).

A step drains whole queues, so the rows a step sees — and therefore HIT
batching and the determinism fingerprints — are independent of how emitters
grouped their output.  There is no drain bound: the scheduler advances the
simulated clock only once no query can make local progress, so every task
of a wave posts at the same instant whatever the step size, and smaller
steps would buy crowd plans no earlier HITs, only more scheduler passes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import OperatorError
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression, compile_batch_expression
from repro.storage.row import Row
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.exec.context import ExecutionContext
    from repro.core.plan.logical import LogicalNode
    from repro.core.tasks.spec import TaskSpec

__all__ = ["OperatorMetrics", "Operator", "PerRowCrowdOperator"]


@dataclass
class OperatorMetrics:
    """Per-operator counters surfaced by the dashboard's plan view."""

    rows_in: int = 0
    rows_out: int = 0
    tasks_created: int = 0
    tasks_completed: int = 0


class Operator:
    """Base class for all physical operators."""

    def __init__(self, name: str):
        self.name = name
        self.children: list[Operator] = []
        self.parent: Operator | None = None
        self.child_slot: int = 0
        self.metrics = OperatorMetrics()
        #: Cardinality the physical planner expected on this operator's first
        #: input (None for hand-built plans).  The adaptive replanner compares
        #: it against observed cardinalities to detect misestimation.
        self.planned_input_rows: float | None = None
        #: The logical node the physical planner built this operator from
        #: (None for hand-built plans): the optimizer re-costs a running
        #: plan on its operators' nodes.
        self.node: "LogicalNode | None" = None
        self._in_queues: list[deque[RowBatch]] = []
        self._inputs_done: list[bool] = []
        self._outstanding_tasks = 0
        self._finalized = False
        self._context: "ExecutionContext | None" = None

    # -- tree construction ----------------------------------------------------------

    def add_child(self, child: "Operator") -> "Operator":
        """Attach ``child`` as the next input of this operator."""
        child.parent = self
        child.child_slot = len(self.children)
        self.children.append(child)
        self._in_queues.append(deque())
        self._inputs_done.append(False)
        return self

    def walk(self) -> Iterable["Operator"]:
        """Yield this operator and all descendants, depth first, children first."""
        for child in self.children:
            yield from child.walk()
        yield self

    # -- schema -------------------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        """Schema of rows this operator emits."""
        raise NotImplementedError

    def input_schema(self, slot: int = 0) -> Schema:
        """Schema of the rows child ``slot`` emits."""
        if slot >= len(self.children):
            raise OperatorError(
                f"operator {self.name} has no input {slot}: attach its child before open()"
            )
        return self.children[slot].output_schema

    # -- lifecycle ------------------------------------------------------------------------

    def open(self, context: "ExecutionContext") -> None:
        """Bind the operator to an execution context before any work happens."""
        self._context = context

    def close(self) -> None:
        """Release any resources (default: nothing)."""

    @property
    def context(self) -> "ExecutionContext":
        if self._context is None:
            raise OperatorError(f"operator {self.name} was stepped before open()")
        return self._context

    # -- data flow --------------------------------------------------------------------------

    def push(self, batch: RowBatch, slot: int = 0) -> None:
        """Enqueue one input batch from child ``slot``."""
        if len(batch):
            self._in_queues[slot].append(batch)

    def finish_input(self, slot: int = 0) -> None:
        """Signal that child ``slot`` will push no more rows."""
        self._inputs_done[slot] = True

    def inputs_finished(self) -> bool:
        """True when every child has signalled completion (leaves: immediately)."""
        return all(self._inputs_done) if self._inputs_done else True

    def queued_rows(self) -> int:
        """Total rows waiting in this operator's input queues."""
        return sum(len(batch) for queue in self._in_queues for batch in queue)

    def emit(self, batch: RowBatch) -> None:
        """Push a produced batch into the parent's input queue."""
        length = len(batch)
        if not length:
            return
        self.metrics.rows_out += length
        if self.parent is not None:
            self.parent.push(batch, self.child_slot)

    def consumed_input(self) -> list[tuple[RowBatch, int]]:
        """Input batches (with their slot) drained but not irrevocably acted on.

        Operators that merely *buffer* their input before submitting crowd
        work (joins, sorts) override this so the adaptive replanner can
        replay those batches into a replacement operator.  Operators that act
        on rows immediately return the empty list (the default), which makes
        them non-replaceable once any input has been processed.
        """
        return []

    # -- task accounting -------------------------------------------------------------------

    @property
    def outstanding_tasks(self) -> int:
        """Crowd tasks submitted by this operator that have not completed yet."""
        return self._outstanding_tasks

    def _task_started(self) -> None:
        self._outstanding_tasks += 1
        self.metrics.tasks_created += 1

    def _task_finished(self) -> None:
        if self._outstanding_tasks <= 0:
            raise OperatorError(f"operator {self.name}: task bookkeeping underflow")
        self._outstanding_tasks -= 1
        self.metrics.tasks_completed += 1

    # -- stepping ---------------------------------------------------------------------------

    def step(self) -> bool:
        """Drain everything queued.  Returns True when progress was made.

        Input queues hold column-major batches, drained slot by slot, one
        whole batch per :meth:`_process` call, so a step sees every queued
        row whatever the batch shapes.
        """
        progress = False
        for slot, queue in enumerate(self._in_queues):
            while queue:
                batch = queue.popleft()
                self.metrics.rows_in += len(batch)
                self._process(batch, slot)
                progress = True
        if not self._finalized and self.inputs_finished() and self.queued_rows() == 0:
            self._finalized = True
            self._on_inputs_finished()
            progress = True
        return progress

    def _process(self, batch: RowBatch, slot: int) -> None:
        """Handle one input batch from child ``slot`` (the single input hook)."""
        raise NotImplementedError

    def _on_inputs_finished(self) -> None:
        """Hook called once all inputs are finished and drained (override as needed)."""

    # -- completion --------------------------------------------------------------------------

    def is_done(self) -> bool:
        """Whether this operator will never emit another row."""
        return (
            self.inputs_finished()
            and self.queued_rows() == 0
            and self._finalized
            and self._outstanding_tasks == 0
            and self._internal_work_remaining() == 0
        )

    def _internal_work_remaining(self) -> int:
        """Extra pending work beyond queues/tasks (override for buffering operators)."""
        return 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, in={self.metrics.rows_in}, "
            f"out={self.metrics.rows_out}, outstanding={self._outstanding_tasks})"
        )


class PerRowCrowdOperator(Operator):
    """A crowd operator that asks one question per input row (filter, generate).

    This is the task boundary: every argument expression runs once over the
    drained batch as a column kernel, rows materialize because each one
    becomes its own crowd task, and the tasks go out in batch order through
    the subclass's :meth:`_submit`.
    """

    def __init__(self, name: str, spec: "TaskSpec", arg_expressions: list[Expression]):
        super().__init__(name)
        self.spec = spec
        self.arg_expressions = list(arg_expressions)
        self._arg_kernels: list[Callable[[RowBatch], Sequence[Any]]] = []

    def open(self, context: "ExecutionContext") -> None:
        super().open(context)
        input_schema = self.input_schema()
        self._arg_kernels = [
            compile_batch_expression(expression, input_schema)
            for expression in self.arg_expressions
        ]

    def _process(self, batch: RowBatch, slot: int) -> None:
        columns = [kernel(batch) for kernel in self._arg_kernels]
        for row, args in zip(batch.to_rows(), zip(*columns) if columns else repeat(())):
            self._submit(row, args)

    def _payload(self, row: Row, args: tuple[Any, ...]) -> dict[str, Any]:
        """What workers (and the oracle) see: the row, and each argument by name."""
        payload: dict[str, Any] = {"args": args, "row": row.to_dict()}
        for parameter, value in zip(self.spec.parameters, args):
            payload[parameter.name] = value
        return payload

    def _submit(self, row: Row, args: tuple[Any, ...]) -> None:
        """Submit the one crowd task for ``row`` (override in subclasses)."""
        raise NotImplementedError
