"""Local (machine-evaluated) ORDER BY operator."""

from __future__ import annotations

from repro.core.operators.base import Operator
from repro.storage import accel
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression, compile_batch_expression
from repro.storage.schema import Schema

__all__ = ["LocalSortOperator"]


def _reversed_order(key_array):
    """A key array whose ascending order is ``key_array``'s descending order.

    Floats are negated; integers are bit-inverted (``~x == -x - 1``), since
    negating int64's minimum wraps to itself.  Equal keys stay equal, so a
    stable argsort keeps their arrival order.
    """
    return -key_array if key_array.dtype.kind == "f" else ~key_array


class LocalSortOperator(Operator):
    """Buffers its input and emits it ordered by a locally evaluable key.

    NULL keys sort last regardless of direction, matching common SQL engines.
    Input batches are buffered as-is (no materialization); on finish, the key
    expression — compiled once as a column kernel — produces the key column,
    an argsort orders the row indices, and one gather (:meth:`RowBatch.take`)
    produces the output batch.  The sort is stable, so rows with equal keys
    keep their arrival order, exactly like the old row-pair sort.
    """

    def __init__(self, key: Expression, input_schema: Schema, *, ascending: bool = True):
        super().__init__("sort(local)")
        self.key = key
        self.ascending = ascending
        self._schema = input_schema
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
        if not len(combined):
            return
        if len(combined) >= accel.MIN_ROWS:
            # Numeric keys (NaN/NULL-free): a stable argsort on the key array
            # (order-reversed for DESC) is order-identical to the stable
            # Python sort.
            # array_kernel computes the key column without materializing any
            # Python tuples; the sortable_array fallback covers keys it
            # cannot express once the reference kernel has produced them.
            key_array = accel.array_kernel(self.key, combined)
            if key_array is not None and (
                key_array.dtype.kind != "f" or not accel.np.isnan(key_array).any()
            ):
                if not self.ascending:
                    key_array = _reversed_order(key_array)
                order = accel.np.argsort(key_array, kind="stable")
                self.emit(combined._take_array(order))
                return
        keys = compile_batch_expression(self.key, input_schema)(combined)
        if len(combined) >= accel.MIN_ROWS:
            key_array = accel.sortable_array(keys)
            if key_array is not None:
                if not self.ascending:
                    key_array = _reversed_order(key_array)
                order = accel.np.argsort(key_array, kind="stable")
                self.emit(combined._take_array(order))
                return
        non_null = [i for i, key in enumerate(keys) if key is not None]
        nulls = [i for i, key in enumerate(keys) if key is None]
        try:
            non_null.sort(key=keys.__getitem__, reverse=not self.ascending)
        except TypeError:
            # Mixed types that cannot be compared directly: sort by text.
            non_null.sort(key=lambda i: str(keys[i]), reverse=not self.ascending)
        order = non_null + nulls if nulls else non_null
        self.emit(combined.take(order))
