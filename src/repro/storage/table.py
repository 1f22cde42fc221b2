"""In-memory column-store tables with optional secondary indexes.

The paper's Storage Engine holds the base tables and the *results tables*
that queries emit into and "the user can periodically poll" (Section 2).
Every local operator exchanges column-major
:class:`~repro.storage.batch.RowBatch` objects, so a table holds exactly
that shape: **one Python list per column**, nothing per row.

- **Inserts extend columns.**  :meth:`insert_batch` extends each list
  straight from the batch's columns; the row-shaped entry points
  (:meth:`insert`, :meth:`insert_many`, :meth:`append_rows`) transpose once
  and do the same.
- **Row ids are positions.**  Tables only append and truncate, so the id of
  the row at ``position`` is ``first_id + position`` and :meth:`truncate`
  advances ``first_id``; :meth:`rows_since` is a slice, not a scan.
- **Rows exist when a caller reads one.**  :meth:`rows` returns a
  :class:`RowsView` — a read-only sequence over the column lists whose
  length is fixed when it is taken — and a :class:`~repro.storage.row.Row`
  is built per element read, never stored or cached.  :meth:`rows_since`,
  :meth:`select`, :meth:`lookup` and iteration read through the same view.
  A list of rows held while it is built outlives young collections, and
  the cyclic collector's full passes then walk every retained results
  table; rows built one at a time and dropped never get that far.
- **Scans share one snapshot.**  :meth:`to_batch` binds the columns into a
  ``RowBatch`` once per version; STRING columns are dictionary-encoded
  (:class:`~repro.storage.accel.ColumnEncoding`) only when a snapshot or a
  statistic first needs the codes, and from then on incrementally — a
  results table that nobody scans never pays for encoding.
- **Statistics are read.**  :meth:`distinct_count` answers from an index,
  from a STRING column's dictionary, or from a count cached per version.
- **Secondary indexes** (:mod:`repro.storage.indexes`) are maintained by
  every insert path and answer row *positions*, which an index scan gathers
  out of the column snapshot.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import islice
from operator import eq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.errors import SchemaError, StorageError
from repro.storage import accel
from repro.storage.indexes import INDEX_KINDS, HashIndex, SortedIndex
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.storage.batch import RowBatch

__all__ = ["RowsView", "Table"]


class RowsView(Sequence):
    """Read-only rows over a table's column lists, built when read.

    A snapshot: the positions it covers are fixed when the view is taken, and
    tables only append (and :meth:`Table.truncate` binds fresh lists), so the
    values behind those positions never change.  ``len`` is free, iteration
    builds one :meth:`Row.unchecked` per step, ``view[i]`` builds one row,
    slicing returns a narrower view, and ``==`` compares element-wise with any
    sequence of rows.
    """

    __slots__ = ("_schema", "_columns", "_positions")

    def __init__(self, schema: Schema, columns: Sequence[list[Any]], positions: range):
        self._schema = schema
        self._columns = columns
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index: int | slice) -> Any:
        position = self._positions[index]  # range checks bounds and slices
        if isinstance(position, range):
            return RowsView(self._schema, self._columns, position)
        return Row.unchecked(self._schema, tuple(column[position] for column in self._columns))

    def __iter__(self) -> Iterator[Row]:
        positions, schema = self._positions, self._schema
        if not self._columns:
            return (Row.unchecked(schema, ()) for _ in positions)
        if positions.step == 1:
            columns = [islice(column, positions.start, positions.stop) for column in self._columns]
        else:
            columns = [map(column.__getitem__, positions) for column in self._columns]
        return map(partial(Row.unchecked, schema), zip(*columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"RowsView({list(self)!r})"


class _NumberedRows(Sequence):
    """``(row id, row)`` pairs over a :class:`RowsView` (see :meth:`Table.rows_since`)."""

    __slots__ = ("_rows", "_ids")

    def __init__(self, rows: RowsView, ids: range):
        self._rows = rows
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return _NumberedRows(self._rows[index], self._ids[index])
        return self._ids[index], self._rows[index]

    def __iter__(self) -> Iterator[tuple[int, Row]]:
        return zip(self._ids, self._rows)


class Table:
    """An append-oriented in-memory table.

    Rows receive a monotonically increasing row id on insertion, which
    supports the polling pattern of Qurk results tables: a caller remembers
    the last row id it has seen and asks for everything newer.
    """

    def __init__(self, name: str, schema: Schema):
        if not name:
            raise StorageError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._columns: list[list[Any]] = [[] for _ in schema]
        self._length = 0
        self._first_id = 0  # the row at position p has id _first_id + p
        self._indexes: dict[str, HashIndex | SortedIndex] = {}
        self._version = 0
        self._batch_cache: tuple[int, "RowBatch"] | None = None
        # Both filled on first use, keyed by column position: a STRING
        # column's (dictionary, codes so far), and (version, distinct count).
        self._encoded: dict[int, tuple[accel.ColumnEncoding, list[int]]] = {}
        self._distinct: dict[int, tuple[int, int | None]] = {}

    # -- mutation ------------------------------------------------------------

    def insert(self, row: Row | Mapping[str, Any] | Iterable[Any]) -> int:
        """Insert one row and return its row id.

        Accepts a :class:`Row`, a mapping of column names to values, or a
        bare sequence of values in schema order.
        """
        values = self._validated(row)
        return self._first_id + self._extend([(value,) for value in values], 1)

    def insert_many(self, rows: Iterable[Row | Mapping[str, Any] | Iterable[Any]]) -> list[int]:
        """Insert several rows, returning their row ids.

        The rows are validated first and land together with one transpose;
        a row that fails validation leaves the table unchanged.
        """
        values = [self._validated(row) for row in rows]
        first = self._first_id + self._extend(list(zip(*values)), len(values))
        return list(range(first, first + len(values)))

    def append_rows(self, rows: Iterable[Row]) -> int:
        """Append rows in bulk, returning the count.

        Rows whose schema matches this table's column layout were validated
        when they entered the engine and are appended as they are; rows with
        a different layout are validated like :meth:`insert`.
        """
        return len(self.insert_many(rows))

    def insert_batch(self, batch: "RowBatch") -> int:
        """Insert a column-major batch; validated when schemas differ."""
        if batch.schema.names != self.schema.names:
            return len(self.insert_many(batch.to_rows()))
        count = len(batch)
        self._extend(batch.columns, count)
        return count

    def _extend(self, columns: Sequence[Sequence[Any]], count: int) -> int:
        """Append ``count`` validated rows given as columns; returns the first's position."""
        start = self._length
        if count:
            for column, values in zip(self._columns, columns):
                column.extend(values)
            self._length = start + count
            self._version += 1
            for name, index in self._indexes.items():
                index.add_many(columns[self.schema.index_of(name)], start)
        return start

    def _validated(self, row: Row | Mapping[str, Any] | Iterable[Any]) -> tuple[Any, ...]:
        """The values of ``row`` coerced to this table's schema."""
        if isinstance(row, Row):
            if row.schema.names == self.schema.names:
                return row.values
            # Re-validate against our schema (allows unqualified inserts).
            return Row(self.schema, row.values).values
        if isinstance(row, Mapping):
            return Row.from_mapping(self.schema, row).values
        return Row(self.schema, row).values

    def truncate(self) -> None:
        """Remove every row (row ids keep counting up).

        Fresh column lists are bound rather than the old ones cleared, so a
        :class:`RowsView` taken before keeps reading the rows it covered.
        """
        self._first_id += self._length
        self._length = 0
        self._columns = [[] for _ in self.schema]
        self._encoded.clear()  # a dictionary must not outlive the values it counted
        self._version += 1
        for index in self._indexes.values():
            index.clear()

    # -- columns -------------------------------------------------------------

    def _codes(self, position: int) -> tuple[accel.ColumnEncoding, list[int]]:
        """A STRING column's dictionary and codes, brought up to date."""
        entry = self._encoded.get(position)
        if entry is None:
            entry = self._encoded[position] = (accel.ColumnEncoding(), [])
        encoding, codes = entry
        column = self._columns[position]
        if len(codes) < len(column):
            codes.extend(encoding.encode_many(column[len(codes):]))
        return entry

    def to_batch(self) -> "RowBatch":
        """The table as a column-major :class:`RowBatch`, cached per version.

        Until the next mutation, every caller gets the *same* snapshot
        object, so N queries scanning an unchanged table share its arrays.
        """
        cached = self._batch_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from repro.storage.batch import RowBatch

        # Above the size switch columns bind as object ndarrays and the
        # numeric caches are seeded — one conversion per version, shared by
        # every query that scans this snapshot.
        arrays = self._length >= accel.MIN_ROWS
        bind = accel.object_array if arrays else tuple
        batch = RowBatch.of_columns(
            self.schema, tuple(bind(column) for column in self._columns), self._length
        )
        for i, column in enumerate(self.schema):
            if column.data_type is DataType.STRING:
                encoding, codes = self._codes(i)
                batch._set_codes(i, accel.np.asarray(codes, dtype=accel.np.intp), encoding)
            elif arrays and column.data_type in (DataType.FLOAT, DataType.INTEGER):
                array = accel.numeric_array(
                    self._columns[i], assume_floats=column.data_type is DataType.FLOAT
                )
                if array is not None:
                    batch._set_num(i, array)
        self._batch_cache = (self._version, batch)
        return batch

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def scan(self) -> Iterator[Row]:
        """Iterate over every row in insertion order."""
        return iter(self.rows())

    def rows(self, since: int = -1) -> RowsView:
        """A view of the rows inserted after row id ``since`` (all by default).

        Costs nothing until read: see :class:`RowsView`.  Rows inserted
        after the call are not in the view.
        """
        start = max(since + 1 - self._first_id, 0)
        return RowsView(self.schema, self._columns, range(start, max(start, self._length)))

    def rows_since(self, row_id: int) -> Sequence[tuple[int, Row]]:
        """``(row_id, row)`` pairs for rows inserted after ``row_id``, as a view.

        Pass ``-1`` to read everything.  Ids are positions, so this costs the
        new rows only, and only when they are read.
        """
        rows = self.rows(row_id)
        end = self._first_id + self._length  # every view ends at the last row
        return _NumberedRows(rows, range(end - len(rows), end))

    def last_row_id(self) -> int:
        """The id of the most recently inserted row, or -1 when empty."""
        return self._first_id + self._length - 1 if self._length else -1

    def select(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Return rows satisfying a Python predicate (used by tests/examples)."""
        return [row for row in self.rows() if predicate(row)]

    # -- indexes -------------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash") -> None:
        """Create (or rebuild) a secondary index on ``column``.

        ``kind`` is ``"hash"`` (equality lookups, join build sides) or
        ``"sorted"`` (range predicates).  The index is built from the current
        rows and maintained incrementally by every insert path afterwards.
        """
        if column not in self.schema:
            raise SchemaError(f"cannot index unknown column {column!r} on {self.name}")
        index_type = INDEX_KINDS.get(kind)
        if index_type is None:
            raise StorageError(
                f"unknown index kind {kind!r}; have {', '.join(sorted(INDEX_KINDS))}"
            )
        qualified = self.schema.column(column).name
        index = index_type(qualified)
        index.add_many(self._columns[self.schema.index_of(qualified)], 0)
        self._indexes[qualified] = index

    def index_on(self, column: str) -> HashIndex | SortedIndex | None:
        """The index covering ``column``, or None."""
        name = self.schema.try_index_of(column)
        if name is None:
            return None
        return self._indexes.get(self.schema.columns[name].name)

    def lookup(self, column: str, value: Any) -> list[Row]:
        """Return rows where ``column == value``, via index when available."""
        index = self.index_on(column)
        if index is not None and value is not None:
            positions = index.positions_equal(value)
        else:
            held = self._columns[self.schema.index_of(column)]
            positions = [position for position, item in enumerate(held) if item == value]
        rows = self.rows()
        return [rows[position] for position in positions]

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        """Names of columns that currently have an index."""
        return tuple(self._indexes)

    def distinct_count(self, column: str) -> int | None:
        """Distinct non-NULL values in ``column``, None for unhashable data.

        Read, not scanned: an index knows its keys, a STRING column's
        dictionary has one entry per distinct value, and anything else is
        counted once and remembered until the table next changes.
        """
        index = self.index_on(column)
        if index is not None:
            return index.distinct_count()
        position = self.schema.try_index_of(column)
        if position is None:
            return None
        if self.schema.columns[position].data_type is DataType.STRING:
            encoding = self._codes(position)[0]
            return len(encoding) - (encoding.code_of(None) is not None)
        cached = self._distinct.get(position)
        if cached is None or cached[0] != self._version:
            try:
                count = len(set(self._columns[position]) - {None})
            except TypeError:
                count = None
            cached = self._distinct[position] = (self._version, count)
        return cached[1]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, schema={self.schema})"
