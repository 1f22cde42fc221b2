"""Local grouping / aggregation and LIMIT operators.

These are conventional blocking operators: they do not consult the crowd, but
they are needed to express the reduction of multi-answer attributes ("which
can be reduced using user-defined aggregates", Section 3) and the usual tail
of a SELECT statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.operators.base import Operator
from repro.errors import OperatorError
from repro.storage import accel
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression, compile_batch_expression
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

__all__ = ["AggregateSpec", "GroupByOperator", "LimitOperator", "AGGREGATE_FUNCTIONS"]


def _count(values: list[Any]) -> int:
    return len([v for v in values if v is not None])


def _sum(values: list[Any]) -> Any:
    values = [v for v in values if v is not None]
    return sum(values) if values else None


def _avg(values: list[Any]) -> Any:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _min(values: list[Any]) -> Any:
    values = [v for v in values if v is not None]
    return min(values) if values else None


def _max(values: list[Any]) -> Any:
    values = [v for v in values if v is not None]
    return max(values) if values else None


def _collect(values: list[Any]) -> list[Any]:
    return list(values)


#: SQL aggregate name -> reduction over the group's values.
AGGREGATE_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "count": _count,
    "sum": _sum,
    "avg": _avg,
    "min": _min,
    "max": _max,
    "collect": _collect,
}


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column: ``function(expression) AS alias``."""

    alias: str
    function: str
    expression: Expression | None  # None means COUNT(*)

    def __post_init__(self) -> None:
        if self.function.lower() not in AGGREGATE_FUNCTIONS:
            raise OperatorError(f"unknown aggregate function {self.function!r}")


class GroupByOperator(Operator):
    """Groups input rows and computes aggregates per group.

    With no group-by columns it produces a single row aggregating all input
    (or no row at all when the input is empty, matching SQL semantics for
    grouped aggregates and keeping the implementation predictable).

    Grouping is columnar: input batches are buffered as-is, and on finish the
    group keys come straight off the key columns while each aggregate's
    argument expression runs once as a column kernel over all input — the
    groups then gather from that value column by row index.  Output groups
    appear in first-arrival order, exactly like the old row-bucketing loop.
    """

    def __init__(
        self,
        group_columns: list[str],
        aggregates: list[AggregateSpec],
        input_schema: Schema,
    ):
        super().__init__("group-by")
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        columns = [input_schema.column(name) for name in self.group_columns]
        columns += [Column(agg.alias, DataType.ANY) for agg in self.aggregates]
        self._schema = Schema(tuple(columns))
        self._batches: list[RowBatch] = []

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _process(self, batch: RowBatch, slot: int) -> None:
        self._batches.append(batch)

    def _on_inputs_finished(self) -> None:
        input_schema = self.input_schema()
        combined = RowBatch.vstack(input_schema, self._batches)
        self._batches.clear()
        length = len(combined)
        if not length:
            return
        if self._accel_finish(combined, input_schema):
            return

        # Bucket row positions by group key, preserving first-arrival order.
        groups: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        indices = input_schema.indices_of(self.group_columns)
        if indices:
            key_columns = [combined.column_at(i) for i in indices]
            keys = zip(*key_columns) if len(key_columns) > 1 else (
                (value,) for value in key_columns[0]
            )
        else:
            keys = ((),) * length
        for position, key in enumerate(keys):
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(position)

        # One kernel pass per aggregate argument over the whole input.
        value_columns: list[Any] = []
        for aggregate in self.aggregates:
            if aggregate.expression is None:
                value_columns.append(None)  # COUNT(*): every row counts 1
            else:
                value_columns.append(
                    compile_batch_expression(aggregate.expression, input_schema)(combined)
                )

        out: list[list[Any]] = []
        for key in order:
            positions = groups[key]
            values: list[Any] = list(key)
            for aggregate, column in zip(self.aggregates, value_columns):
                if column is None:
                    group_values: list[Any] = [1] * len(positions)
                else:
                    group_values = [column[i] for i in positions]
                function = AGGREGATE_FUNCTIONS[aggregate.function.lower()]
                values.append(function(group_values))
            out.append(values)
        self.emit(RowBatch.from_values(self._schema, out))

    def _accel_finish(self, combined: RowBatch, input_schema: Schema) -> bool:
        """Dictionary-code grouping for count/sum/avg; True when it emitted.

        Eligible when there is exactly one group column and it carries
        dictionary codes (string columns scanned out of a table), and every
        aggregate is COUNT(*), or count/sum/avg over a NULL-free numeric
        argument column (sum/avg additionally require float64, since a
        Python sum over ints stays int).  ``np.bincount`` accumulates each
        bin sequentially in input order — the same left-to-right additions
        from 0.0 the Python per-group ``sum`` performs — so sums are
        bit-identical; group order is first arrival: one O(n) scatter-min
        finds each code's first position, and only the codes present (a
        handful) are sorted, never the input.  Anything else returns False
        and the reference bucketing loop runs.
        """
        if len(combined) < accel.MIN_ROWS:
            return False
        if len(self.group_columns) != 1:
            return False
        key_index = input_schema.try_index_of(self.group_columns[0])
        if key_index is None:
            return False
        codes = combined._codes(key_index)
        if codes is None:
            return False
        codes_array, encoding = codes
        np = accel.np
        counts = np.bincount(codes_array, minlength=len(encoding))

        # (kind, per-code sums or None), one per aggregate output column.
        plans: list[tuple[str, Any]] = []
        for aggregate in self.aggregates:
            function = aggregate.function.lower()
            if aggregate.expression is None:
                if function != "count":
                    return False
                plans.append(("count", None))
                continue
            if function not in ("count", "sum", "avg"):
                return False
            array = accel.array_kernel(aggregate.expression, combined)
            if array is None:
                column = compile_batch_expression(aggregate.expression, input_schema)(
                    combined
                )
                array = accel.numeric_array(column)
            if array is None:
                return False
            if function == "count":
                plans.append(("count", None))
                continue
            if array.dtype.kind != "f":
                return False
            sums = np.bincount(codes_array, weights=array, minlength=len(encoding))
            plans.append((function, sums))

        # ufunc.at is unbuffered, so repeated codes are well defined (a plain
        # fancy assignment leaves "which write wins" unspecified).
        first_seen = np.full(len(encoding), len(codes_array), dtype=np.intp)
        np.minimum.at(first_seen, codes_array, np.arange(len(codes_array), dtype=np.intp))
        present = np.flatnonzero(counts)
        ordered = present[np.argsort(first_seen[present], kind="stable")]
        out: list[list[Any]] = []
        for code in ordered.tolist():
            values: list[Any] = [encoding.values[code]]
            n = int(counts[code])
            for kind, sums in plans:
                if kind == "count":
                    values.append(n)
                elif kind == "sum":
                    values.append(float(sums[code]))
                else:  # avg
                    values.append(float(sums[code]) / n)
            out.append(values)
        self.emit(RowBatch.from_values(self._schema, out))
        return True


class LimitOperator(Operator):
    """Passes through at most ``limit`` rows."""

    def __init__(self, limit: int, input_schema: Schema):
        super().__init__(f"limit({limit})")
        if limit < 0:
            raise OperatorError("LIMIT must be non-negative")
        self.limit = limit
        self._schema = input_schema
        self._emitted = 0

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _process(self, batch: RowBatch, slot: int) -> None:
        remaining = self.limit - self._emitted
        if remaining <= 0:
            return
        if len(batch) > remaining:
            batch = batch.slice(0, remaining)
        self._emitted += len(batch)
        self.emit(batch)
