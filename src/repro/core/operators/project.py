"""Projection and local (non-crowd) selection operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import operator as _operator

from repro.core.operators.base import Operator
from repro.storage import accel
from repro.storage.batch import RowBatch
from repro.storage.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.exec.context import ExecutionContext

__all__ = ["ProjectionItem", "ProjectOperator", "LocalFilterOperator"]


_MASK_OPS = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}
_FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _comparison_mask(batch: RowBatch, predicate: Expression):
    """Bool ndarray selection vector for ``column op literal``, or None.

    Eligible when the compared column is homogeneous numeric (no NULLs, so
    three-valued logic never differs from the plain bool mask) or the column
    is dictionary-encoded and the predicate is a string equality.  Anything
    else returns None and takes the reference kernel path.
    """
    if not isinstance(predicate, Comparison):
        return None
    left, op, right = predicate.left, predicate.op, predicate.right
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = _FLIPPED_OPS.get(op, op)
    if not isinstance(left, ColumnRef) or not isinstance(right, Literal):
        return None
    value = right.value
    if value is None or op not in _MASK_OPS:
        return None
    index = batch.schema.try_index_of(left.name)
    if index is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        column = batch._num_array(index)
        if column is None:
            return None
        # Int/float cross-comparisons are exact in Python but go through a
        # float64 conversion in numpy; keep the int side within 2**53 where
        # that conversion is lossless.
        if isinstance(value, int):
            if column.dtype.kind == "f" and abs(value) > 2**53:
                return None
        elif column.dtype.kind == "i" and len(column):
            if column.max() > 2**53 or column.min() < -(2**53):
                return None
        return _MASK_OPS[op](column, value)
    if isinstance(value, str) and op == "=":
        codes = batch._codes(index)
        if codes is None:
            return None
        codes_array, encoding = codes
        code = encoding.code_of(value)
        if code is None:
            return accel.np.zeros(len(codes_array), dtype=bool)
        return codes_array == code
    return None


@dataclass(frozen=True)
class ProjectionItem:
    """One output column of a projection: an expression and its output name."""

    alias: str
    expression: Expression
    data_type: DataType = DataType.ANY


class ProjectOperator(Operator):
    """Evaluates a list of expressions against each input batch.

    The expressions are compiled once per open against the child's output
    schema as column kernels: one kernel call per output column evaluates
    the whole batch, and the resulting columns bind directly into the output
    batch without ever materializing intermediate rows.
    """

    def __init__(self, items: list[ProjectionItem]):
        super().__init__("project")
        self.items = list(items)
        self._schema = Schema.of(*[Column(item.alias, item.data_type) for item in self.items])
        # Untyped nullable outputs need no coercion, so projected columns can
        # take the trusted constructor; typed outputs keep full validation.
        self._trusted_output = all(
            c.data_type is DataType.ANY and c.nullable for c in self._schema.columns
        )
        self._kernels: list[Callable[[RowBatch], Sequence[Any]]] = []

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def open(self, context: "ExecutionContext") -> None:
        super().open(context)
        input_schema = self.input_schema()
        self._kernels = [
            compile_batch_expression(item.expression, input_schema) for item in self.items
        ]

    def _process(self, batch: RowBatch, slot: int) -> None:
        columns = tuple(tuple(kernel(batch)) for kernel in self._kernels)
        if self._trusted_output:
            out = RowBatch.of_columns(self._schema, columns, len(batch))
        else:
            out = RowBatch.from_values(self._schema, zip(*columns))
        self.emit(out)


class LocalFilterOperator(Operator):
    """Applies a locally evaluable predicate (no crowd involvement).

    The optimizer pushes these below crowd operators whenever possible,
    because a free local filter that removes tuples before they reach a
    crowd operator directly reduces monetary cost (Section 4.1:
    "filtering-based reduction in cross-product size").  The predicate is
    compiled once per open as a selection-vector kernel: one kernel call per
    batch produces the mask (strict-True WHERE semantics), and the surviving
    rows leave as one compressed batch.
    """

    def __init__(self, predicate: Expression, input_schema: Schema):
        super().__init__("filter(local)")
        self.predicate = predicate
        self._schema = input_schema
        self._mask_kernel: Callable[[RowBatch], Sequence[Any]] | None = None

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def open(self, context: "ExecutionContext") -> None:
        super().open(context)
        self._mask_kernel = compile_batch_predicate(self.predicate, self.input_schema())

    def _process(self, batch: RowBatch, slot: int) -> None:
        if len(batch) >= accel.MIN_ROWS:
            mask = _comparison_mask(batch, self.predicate)
            if mask is not None:
                self.emit(batch._compress_array(mask))
                return
        self.emit(batch.compress(self._mask_kernel(batch)))
