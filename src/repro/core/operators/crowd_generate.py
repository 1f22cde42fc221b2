"""Crowd-powered schema extension (Query 1 / Task 1 of the paper).

``SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone``
runs the ``findCEO`` task once per input tuple and widens the tuple with the
task's RETURNS fields.  The operator relies on the Task Cache so repeated uses
of the same UDF call — within the query, across operators, or across queries —
only pay for one HIT per distinct argument tuple.
"""

from __future__ import annotations

from typing import Any

from repro.core.operators.base import PerRowCrowdOperator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

__all__ = ["CrowdGenerateOperator"]


class CrowdGenerateOperator(PerRowCrowdOperator):
    """Widens each input row with the RETURNS fields of a Question task.

    Parameters
    ----------
    spec:
        The TASK definition (``TaskType: Question`` with a Form response).
    arg_expressions:
        Expressions evaluated against the input row to produce the task's
        arguments (e.g. ``companyName``), substituted into the Text template
        and used as the cache key.
    input_schema:
        Schema of the child operator.
    output_prefix:
        Prefix for the new columns; defaults to the task name, producing
        ``findCEO.CEO`` / ``findCEO.Phone``.
    """

    def __init__(
        self,
        spec: TaskSpec,
        arg_expressions: list[Expression],
        input_schema: Schema,
        *,
        output_prefix: str | None = None,
    ):
        super().__init__(f"crowd-generate({spec.name})", spec, arg_expressions)
        prefix = output_prefix or spec.name
        self._new_columns = tuple(
            Column(f"{prefix}.{ret.name}", DataType.ANY) for ret in spec.returns
        )
        self._schema = input_schema.extend(*self._new_columns)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _submit(self, row: Row, args: tuple[Any, ...]) -> None:
        task = Task(
            kind=TaskKind.GENERATE,
            spec=self.spec,
            payload=self._payload(row, args),
            callback=lambda result, row=row: self._on_result(row, result),
            cache_key=args,
            query_id=self.context.query_id,
            assignments_override=self.context.assignments_for(self.spec),
        )
        self._task_started()
        self.context.task_manager.submit(task)

    def _on_result(self, row: Row, result: TaskResult) -> None:
        reduced = result.reduced if isinstance(result.reduced, dict) else {}
        values = [reduced.get(ret.name) for ret in self.spec.returns]
        self.emit(RowBatch.single(row.extended(self._new_columns, values)))
        self._task_finished()
