"""Crowd-powered ORDER BY (Section 3: "Qurk also facilitates human-powered
filter, rank, and group by operators").

Two implementations, following the companion CIDR paper the demo cites as [5]:

* ``COMPARISON`` — workers answer pairwise "which is greater?" questions; the
  operator asks O(n²) pairs (optionally batched several per HIT) and ranks
  items by their Copeland score (number of pairwise wins).
* ``RATING`` — workers rate each item independently on a numeric scale; items
  are sorted by their mean (or median) rating.  Linear in n, cheaper, but the
  ranking is noisier — exactly the cost/accuracy trade-off the dashboard lets
  the audience explore.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.core.operators.base import Operator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = ["SortStrategy", "CrowdSortOperator"]

PayloadFn = Callable[[Row], dict]


class SortStrategy(enum.Enum):
    """How the crowd establishes the ordering."""

    COMPARISON = "comparison"
    RATING = "rating"


def _default_payload(row: Row) -> dict:
    return {"row": row.to_dict()}


class CrowdSortOperator(Operator):
    """Orders its input by a crowd-judged criterion.

    Parameters
    ----------
    spec:
        A ``TaskType: Rank`` spec (Comparison or Rating response).
    input_schema:
        Schema of the child operator.
    strategy:
        Pairwise comparisons or per-item ratings.
    descending:
        Emit rows best-first when True (the default).
    payload:
        Maps a row to what workers (and the oracle) see.
    """

    def __init__(
        self,
        spec: TaskSpec,
        input_schema: Schema,
        *,
        strategy: SortStrategy = SortStrategy.COMPARISON,
        descending: bool = True,
        payload: PayloadFn | None = None,
    ):
        super().__init__(f"crowd-sort({spec.name},{strategy.value})")
        self.spec = spec
        self.strategy = strategy
        self.descending = descending
        self.payload = payload or _default_payload
        self._schema = input_schema
        self._rows: list[Row] = []
        # Drained input stays columnar until the ranking tasks are built.
        self._batches: list[RowBatch] = []
        self._scores: dict[int, float] = {}
        self._emitted = False
        self.comparisons_asked = 0
        self.ratings_asked = 0

    def consumed_input(self) -> list[tuple[RowBatch, int]]:
        return [(batch, 0) for batch in self._batches]

    @property
    def output_schema(self) -> Schema:
        return self._schema

    # -- input buffering --------------------------------------------------------------

    def _process(self, batch: RowBatch, slot: int) -> None:
        # Buffer the columnar slice as-is; rows materialize once, when the
        # ranking tasks are submitted at end-of-input.
        self._batches.append(batch)

    def _on_inputs_finished(self) -> None:
        if self._batches:
            schema = self._batches[0].schema
            self._rows = RowBatch.vstack(schema, self._batches).to_rows()
            self._batches.clear()
        if not self._rows:
            self._emitted = True
            return
        if len(self._rows) == 1:
            self.emit(RowBatch.single(self._rows[0]))
            self._emitted = True
            return
        self._scores = {index: 0.0 for index in range(len(self._rows))}
        if self.strategy is SortStrategy.COMPARISON:
            self._submit_comparisons()
        else:
            self._submit_ratings()

    # -- comparison strategy -----------------------------------------------------------

    def _submit_comparisons(self) -> None:
        for i in range(len(self._rows)):
            for j in range(i + 1, len(self._rows)):
                self.comparisons_asked += 1
                payload = {
                    "left": self.payload(self._rows[i]),
                    "right": self.payload(self._rows[j]),
                }
                task = Task(
                    kind=TaskKind.COMPARE,
                    spec=self.spec,
                    payload=payload,
                    callback=lambda result, i=i, j=j: self._on_comparison(i, j, result),
                    query_id=self.context.query_id,
                    assignments_override=self.context.assignments_for(self.spec),
                )
                self._task_started()
                self.context.task_manager.submit(task)

    def _on_comparison(self, i: int, j: int, result: TaskResult) -> None:
        winner = i if result.reduced == "left" else j
        self._scores[winner] += 1.0
        self._task_finished()
        self._maybe_emit()

    # -- rating strategy -----------------------------------------------------------------

    def _submit_ratings(self) -> None:
        for index, row in enumerate(self._rows):
            self.ratings_asked += 1
            task = Task(
                kind=TaskKind.RATE,
                spec=self.spec,
                payload={"row": row.to_dict(), **self.payload(row)},
                callback=lambda result, index=index: self._on_rating(index, result),
                query_id=self.context.query_id,
                assignments_override=self.context.assignments_for(self.spec),
            )
            self._task_started()
            self.context.task_manager.submit(task)

    def _on_rating(self, index: int, result: TaskResult) -> None:
        self._scores[index] = float(result.reduced)
        self._task_finished()
        self._maybe_emit()

    # -- emission ------------------------------------------------------------------------------

    def _maybe_emit(self) -> None:
        if self._emitted or self._outstanding_tasks > 0:
            return
        order = sorted(
            range(len(self._rows)),
            key=lambda index: self._scores.get(index, 0.0),
            reverse=self.descending,
        )
        self.emit(RowBatch.from_rows(self._schema, [self._rows[index] for index in order]))
        self._emitted = True

    def _internal_work_remaining(self) -> int:
        if not self._finalized:
            return 1
        return 0 if self._emitted else 1
