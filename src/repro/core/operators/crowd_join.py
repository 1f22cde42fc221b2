"""Crowd-powered join (Query 2 / Task 2 of the paper).

The join predicate (``samePerson(celebrities.image, spottedstars.image)``) is
answered by turkers.  The naive implementation asks one HIT per pair of the
cross product — "extraordinary monetary cost" (Section 1) — so this operator
implements the interfaces the demo lets the audience explore (Section 4.1):

* ``PAIRWISE`` — one yes/no question per pair; the Task Manager may batch
  several pairs into one HIT (naive batching).
* ``COLUMNS`` — the two-column drag-and-drop interface of Figure 3: blocks of
  the cross product are shown as a left column and a right column, so one HIT
  covers ``left_per_hit × right_per_hit`` comparisons (smart batching).

Both modes optionally apply a *pre-filter* — a locally evaluable predicate on
pairs (e.g. a feature-distance threshold) — which reduces the cross-product
size before any money is spent (Section 4.1's "filtering-based reduction in
cross-product size").
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.core.operators.base import Operator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = ["JoinStrategy", "CrowdJoinOperator"]

PayloadFn = Callable[[Row], dict]
PrefilterFn = Callable[[Row, Row], bool]


class JoinStrategy(enum.Enum):
    """How the cross product is presented to workers."""

    PAIRWISE = "pairwise"
    COLUMNS = "columns"


def _default_payload(row: Row) -> dict:
    return {"row": row.to_dict()}


class CrowdJoinOperator(Operator):
    """Joins its two inputs on a crowd-evaluated predicate.

    Parameters
    ----------
    spec:
        A ``TaskType: JoinPredicate`` spec.
    left_schema, right_schema:
        Schemas of the two children (left is child 0, right is child 1).
    strategy:
        Pairwise yes/no questions or the two-column block interface.  The
        spec sets the batching of both: ``BatchSize`` pairs per PAIRWISE HIT,
        :attr:`~repro.core.tasks.spec.TaskSpec.join_block` rows per COLUMNS
        block.
    left_payload, right_payload:
        Functions mapping a row to the payload workers (and the oracle) see.
    prefilter:
        Optional machine-evaluable pair predicate applied before asking the
        crowd; pairs failing it are assumed non-matching for free.
    """

    def __init__(
        self,
        spec: TaskSpec,
        left_schema: Schema,
        right_schema: Schema,
        *,
        strategy: JoinStrategy = JoinStrategy.COLUMNS,
        left_payload: PayloadFn | None = None,
        right_payload: PayloadFn | None = None,
        prefilter: PrefilterFn | None = None,
    ):
        super().__init__(f"crowd-join({spec.name},{strategy.value})")
        self.spec = spec
        self.strategy = strategy
        self.left_payload = left_payload or _default_payload
        self.right_payload = right_payload or _default_payload
        self.prefilter = prefilter
        self._schema = left_schema.concat(right_schema)
        self._left_rows: list[Row] = []
        self._right_rows: list[Row] = []
        # COLUMNS mode keeps drained input columnar until end-of-input; rows
        # materialize once, when the cross-product blocks are built.
        self._left_batches: list[RowBatch] = []
        self._right_batches: list[RowBatch] = []
        self.pairs_considered = 0
        self.pairs_prefiltered = 0
        self.pairs_asked = 0
        #: Planner cardinality expectations per side (set by PhysicalPlanner).
        self.planned_left_rows: float | None = None
        self.planned_right_rows: float | None = None

    def consumed_input(self) -> list[tuple[RowBatch, int]]:
        buffered = []
        for slot, batches, rows in (
            (0, self._left_batches, self._left_rows),
            (1, self._right_batches, self._right_rows),
        ):
            buffered += [(batch, slot) for batch in batches]
            if rows:  # pairwise keeps its sides row-major
                buffered.append((RowBatch.from_rows(rows[0].schema, rows), slot))
        return buffered

    @property
    def output_schema(self) -> Schema:
        return self._schema

    # -- streaming input ------------------------------------------------------------

    def _process(self, batch: RowBatch, slot: int) -> None:
        if self.strategy is JoinStrategy.COLUMNS:
            # Build sides buffer until end-of-input: keep the columnar slice
            # as-is instead of materializing rows per drained batch.
            (self._left_batches if slot == 0 else self._right_batches).append(batch)
            return
        # Pairwise streams tasks as rows arrive, each new row against every
        # row the other side has delivered so far.
        for row in batch.to_rows():
            if slot == 0:
                self._left_rows.append(row)
                for right in self._right_rows:
                    self._consider_pair(row, right)
            else:
                self._right_rows.append(row)
                for left in self._left_rows:
                    self._consider_pair(left, row)

    def _materialize_sides(self) -> None:
        """Flush buffered columnar slices into the row-major build sides."""
        for batches, rows in (
            (self._left_batches, self._left_rows),
            (self._right_batches, self._right_rows),
        ):
            if batches:
                rows.extend(RowBatch.vstack(batches[0].schema, batches).to_rows())
                batches.clear()

    def _on_inputs_finished(self) -> None:
        if self.strategy is JoinStrategy.COLUMNS:
            self._materialize_sides()
            self._build_blocks()

    # -- pairwise strategy ----------------------------------------------------------------

    def _consider_pair(self, left: Row, right: Row) -> None:
        self.pairs_considered += 1
        if self.prefilter is not None and not self.prefilter(left, right):
            self.pairs_prefiltered += 1
            return
        self.pairs_asked += 1
        payload: dict[str, Any] = {
            "left": self.left_payload(left),
            "right": self.right_payload(right),
        }
        task = Task(
            kind=TaskKind.JOIN_PAIR,
            spec=self.spec,
            payload=payload,
            callback=lambda result, left=left, right=right: self._on_pair_result(
                left, right, result
            ),
            cache_key=None,
            query_id=self.context.query_id,
            assignments_override=self.context.assignments_for(self.spec),
        )
        self._task_started()
        self.context.task_manager.submit(task)

    def _on_pair_result(self, left: Row, right: Row, result: TaskResult) -> None:
        if bool(result.reduced):
            self.emit(RowBatch.single(left.concat(right)))
        self._task_finished()

    # -- column-block strategy ----------------------------------------------------------------

    def _build_blocks(self) -> None:
        lefts = self._candidate_rows(self._left_rows, self._right_rows, side="left")
        rights = self._candidate_rows(self._right_rows, self._left_rows, side="right")
        left_per_hit, right_per_hit = self.spec.join_block
        left_chunks = _chunks(lefts, left_per_hit)
        right_chunks = _chunks(rights, right_per_hit)
        for left_chunk in left_chunks:
            for right_chunk in right_chunks:
                self.pairs_considered += len(left_chunk) * len(right_chunk)
                self.pairs_asked += len(left_chunk) * len(right_chunk)
                self._submit_block(left_chunk, right_chunk)

    def _candidate_rows(self, rows: list[Row], others: list[Row], *, side: str) -> list[Row]:
        """Drop rows that cannot match anything according to the pre-filter."""
        if self.prefilter is None:
            return list(rows)
        survivors = []
        for row in rows:
            if side == "left":
                has_candidate = any(self.prefilter(row, other) for other in others)
            else:
                has_candidate = any(self.prefilter(other, row) for other in others)
            if has_candidate:
                survivors.append(row)
            else:
                self.pairs_prefiltered += len(others)
        return survivors

    def _submit_block(self, left_chunk: list[Row], right_chunk: list[Row]) -> None:
        payload = {
            "left_items": [self.left_payload(row) for row in left_chunk],
            "right_items": [self.right_payload(row) for row in right_chunk],
        }
        task = Task(
            kind=TaskKind.JOIN_BLOCK,
            spec=self.spec,
            payload=payload,
            callback=lambda result, lc=left_chunk, rc=right_chunk: self._on_block_result(
                lc, rc, result
            ),
            cache_key=None,
            query_id=self.context.query_id,
            assignments_override=self.context.assignments_for(self.spec),
        )
        self._task_started()
        self.context.task_manager.submit(task)

    def _on_block_result(
        self, left_chunk: list[Row], right_chunk: list[Row], result: TaskResult
    ) -> None:
        matches = result.reduced or []
        for left_index, right_index in matches:
            if left_index >= len(left_chunk) or right_index >= len(right_chunk):
                continue
            left = left_chunk[left_index]
            right = right_chunk[right_index]
            if self.prefilter is not None and not self.prefilter(left, right):
                continue
            self.emit(RowBatch.single(left.concat(right)))
        self._task_finished()


def _chunks(rows: list[Row], size: int) -> list[list[Row]]:
    return [rows[start:start + size] for start in range(0, len(rows), size)] if rows else []
