"""Crowd-powered selection: ask the crowd a yes/no question about each tuple."""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.core.operators.base import PerRowCrowdOperator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = ["CrowdFilterOperator"]


class CrowdFilterOperator(PerRowCrowdOperator):
    """Emits only the input rows for which the crowd answers "yes".

    Parameters
    ----------
    spec:
        A ``TaskType: Filter`` spec with a YesNo response.
    arg_expressions:
        Expressions producing the values substituted into the question text.
    input_schema:
        Schema of the child operator.
    cache_key_fn:
        Optional function deriving a stable cache key from the row; defaults
        to the rendered argument tuple, which makes identical questions about
        identical values cacheable.
    negate:
        When True, emit rows the crowd answered "no" for (``WHERE NOT f(x)``).
    """

    def __init__(
        self,
        spec: TaskSpec,
        arg_expressions: list[Expression],
        input_schema: Schema,
        *,
        cache_key_fn: Callable[[Row], Hashable] | None = None,
        negate: bool = False,
    ):
        super().__init__(f"crowd-filter({spec.name})", spec, arg_expressions)
        self.cache_key_fn = cache_key_fn
        self.negate = negate
        self._schema = input_schema

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _submit(self, row: Row, args: tuple[Any, ...]) -> None:
        # Redundancy is re-resolved per task, so adaptive assignment keeps
        # tightening mid-query.
        if self.cache_key_fn is not None:
            cache_key = self.cache_key_fn(row)
        else:
            cache_key = args if args else None
        task = Task(
            kind=TaskKind.FILTER,
            spec=self.spec,
            payload=self._payload(row, args),
            callback=lambda result, row=row: self._on_result(row, result),
            cache_key=cache_key,
            query_id=self.context.query_id,
            assignments_override=self.context.assignments_for(self.spec),
        )
        self._task_started()
        self.context.task_manager.submit(task)

    def _on_result(self, row: Row, result: TaskResult) -> None:
        keep = bool(result.reduced)
        if self.negate:
            keep = not keep
        if keep:
            self.emit(RowBatch.single(row))
        self._task_finished()
