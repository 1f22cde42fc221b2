"""Results sink: the top of every plan.

"Results are automatically emitted from the top-most operator and inserted
into a results table.  The user can periodically poll the table for new
result tuples." (Section 2)
"""

from __future__ import annotations

from repro.core.operators.base import Operator
from repro.storage.batch import RowBatch
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["ResultSinkOperator"]


class ResultSinkOperator(Operator):
    """Appends every produced batch to the query's results table.

    Nothing row-shaped happens here: a results table is a column store like
    any other, so a batch lands by extending the table's columns with its
    own (:meth:`Table.insert_batch`).  Result values were validated when they
    entered the plan and every derivation kept them validated, so nothing is
    re-coerced either.  ``Row`` objects are built later and only on request,
    when the user polls the handle (:meth:`QueryHandle.poll` /
    :meth:`QueryHandle.results`).
    """

    def __init__(self, results_table: Table):
        super().__init__("results-sink")
        self.results_table = results_table

    @property
    def output_schema(self) -> Schema:
        return self.results_table.schema

    def _process(self, batch: RowBatch, slot: int) -> None:
        inserted = self.results_table.insert_batch(batch)
        self.metrics.rows_out += inserted
        self.context.statistics.record_result_emitted(self.context.query_id, inserted)

    def emit(self, batch: RowBatch) -> None:  # pragma: no cover - sinks never emit upward
        raise AssertionError("the results sink is the top-most operator")
