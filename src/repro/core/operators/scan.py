"""Table access operators (leaves of every plan): full scan and index scan."""

from __future__ import annotations

from typing import Any

from repro.core.operators.base import Operator
from repro.errors import OperatorError
from repro.storage.batch import RowBatch
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["ScanOperator", "IndexScanOperator"]


class _TableAccessOperator(Operator):
    """Shared leaf machinery: emit a precomputed batch in one step.

    Both access paths materialize their output as one column-major batch on
    the first step (the table's cached column snapshot, optionally gathered
    through an index) and emit it whole.  Downstream crowd operators still
    start posting HITs as soon as the tuples arrive (asynchronous
    pipelining, Section 2): the scheduler holds the simulated clock until no
    query can make local progress, so a whole scan's tasks post at the same
    instant however many steps the scan would be cut into.
    """

    def __init__(self, name: str, table: Table, alias: str | None = None):
        alias = alias or table.name
        super().__init__(name)
        self.table = table
        self.alias = alias
        self._schema = table.schema.qualified(alias)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _load_batch(self) -> RowBatch:
        """Produce the full output batch (qualified); called once, lazily."""
        raise NotImplementedError

    def step(self) -> bool:
        if not self._finalized:  # the first step: the base class finalizes after it
            batch = self._load_batch()
            self.metrics.rows_in += len(batch)
            self.emit(batch)
        return super().step()


class ScanOperator(_TableAccessOperator):
    """Emits every row of a base table, re-qualified with the table (or alias) name.

    The output is the table's cached column snapshot rebound to the qualified
    schema — qualifying renames columns but keeps their types, so the rebind
    (:meth:`RowBatch.with_schema` fast path) copies nothing and scanning an
    unchanged table twice reuses the same snapshot columns.
    """

    def __init__(self, table: Table, alias: str | None = None):
        super().__init__(f"scan({alias or table.name})", table, alias)

    def _load_batch(self) -> RowBatch:
        return self.table.to_batch().with_schema(self._schema)


class IndexScanOperator(_TableAccessOperator):
    """Emits the rows of a base table matched by one indexed predicate.

    The predicate is ``column op literal`` where ``column`` carries a
    secondary index: a hash index answers ``=``, a sorted index answers both
    ``=`` and the range operators.  The index yields row *positions* in
    ascending order, which the operator gathers out of the table's cached
    column snapshot — so the output is byte-identical to scan-then-filter
    over the same predicate (property-tested), just without touching the
    non-matching rows.
    """

    RANGE_OPS = ("<", "<=", ">", ">=")
    SUPPORTED_OPS = ("=",) + RANGE_OPS

    def __init__(
        self,
        table: Table,
        column: str,
        op: str,
        value: Any,
        alias: str | None = None,
    ):
        if op not in self.SUPPORTED_OPS:
            raise OperatorError(f"index scan cannot serve operator {op!r}")
        name = alias or table.name
        super().__init__(f"index-scan({name}.{column} {op} {value!r})", table, alias)
        self.column = column
        self.op = op
        self.value = value

    def _matched_positions(self) -> list[int]:
        index = self.table.index_on(self.column)
        if index is None:
            raise OperatorError(
                f"no index on {self.table.name}.{self.column}; "
                "the planner must not choose an index scan here"
            )
        if self.op == "=":
            return index.positions_equal(self.value)
        if not hasattr(index, "positions_range"):
            raise OperatorError(
                f"index on {self.table.name}.{self.column} is {index.kind!r}; "
                f"range operator {self.op!r} needs a sorted index"
            )
        if self.op == "<":
            return index.positions_range(high=self.value, high_inclusive=False)
        if self.op == "<=":
            return index.positions_range(high=self.value, high_inclusive=True)
        if self.op == ">":
            return index.positions_range(low=self.value, low_inclusive=False)
        return index.positions_range(low=self.value, low_inclusive=True)

    def _load_batch(self) -> RowBatch:
        snapshot = self.table.to_batch().with_schema(self._schema)
        if self.value is None:
            # column op NULL is never True: SQL three-valued logic.
            return RowBatch.empty(self._schema)
        positions = self._matched_positions()
        if len(positions) == len(snapshot):
            return snapshot
        return snapshot.take(positions)
