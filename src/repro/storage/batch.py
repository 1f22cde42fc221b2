"""Column-major row batches — the unit of exchange of the local data plane.

A :class:`RowBatch` holds the values of many rows over one shared schema as a
tuple of columns (one value-tuple per column).  Operator input queues
carry ``RowBatch`` objects end-to-end: scans emit a table's cached column
snapshot, filters apply selection vectors
(:meth:`compress`), joins and sorts gather columns by index (:meth:`take`),
the results sink extends the results table's columns with the batch's own,
and rows are materialized only at the boundaries that genuinely need
row-major data — crowd-operator task emission, HIT compilation, and a caller
reading a table or polling a query handle.

Batches are immutable, like rows, and round-trip losslessly:
``RowBatch.from_rows(schema, rows).to_rows() == rows``.  Materializing rows
from a batch goes through :meth:`Row.unchecked` — batch values are taken from
already-validated rows (or validated on :meth:`from_values`), so they are
never re-coerced.  All derivations (:meth:`slice`, :meth:`take`,
:meth:`compress`, :meth:`concat`, :meth:`with_schema`) reuse the validated
column tuples through the trusted :meth:`of_columns` constructor.

Each batch also lazily caches per-column ndarray views (object arrays for
gathers, numeric arrays for masks/sorts/aggregation, dictionary codes for
string columns — see :mod:`repro.storage.accel`).  The caches are an
encode-once/answer-many accelerator: derivations propagate them with cheap
ndarray ops, so a column is converted at most once per scan no matter how
many operators downstream gather from it.  Every accelerated path falls back
to the pure-Python tuple implementation, which remains the reference
semantics.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage import accel
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = ["RowBatch"]


class _LazyGather:
    """A deferred gather: ``source[indices]``, composed instead of executed.

    Filters, joins and sorts each reorder rows; gathering every object
    column at every step would dominate their cost even though most columns
    are only ever read as ndarray caches (numeric arrays, dictionary codes)
    or not at all.  A lazy column keeps the *source* object ndarray and the
    index array; successive takes compose index arrays (cheap intp gathers)
    and the object gather runs only if someone actually reads the column.
    """

    __slots__ = ("source", "indices")

    def __init__(self, source, indices):
        self.source = source
        self.indices = indices

    def realize(self):
        return self.source[self.indices]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.realize())

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _LazyGather(self.source, self.indices[item])
        return self.source[self.indices[item]]


class RowBatch:
    """An immutable, column-major block of rows sharing one schema."""

    __slots__ = ("_schema", "_columns", "_length", "_accel")

    def __init__(self, schema: Schema, columns: Sequence[Sequence[Any]]):
        columns = tuple(tuple(column) for column in columns)
        if len(columns) != len(schema):
            raise SchemaError(
                f"batch has {len(columns)} columns but schema has {len(schema)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise SchemaError(f"batch columns have unequal lengths: {sorted(lengths)}")
        self._schema = schema
        self._columns = columns
        self._length = lengths.pop() if lengths else 0
        self._accel: dict | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def of_columns(
        cls, schema: Schema, columns: tuple[tuple[Any, ...], ...], length: int
    ) -> "RowBatch":
        """Trusted constructor: bind already-validated column tuples directly.

        The hot path for every batch derivation — no re-tupling, no length
        reconciliation.  ``columns`` must hold exactly ``length`` validated
        values per schema column, as tuples or (internally, from numpy
        gathers) lazy object ndarrays — see :meth:`_materialized`.
        """
        batch = object.__new__(cls)
        batch._schema = schema
        batch._columns = columns
        batch._length = length
        batch._accel = None
        return batch

    @classmethod
    def empty(cls, schema: Schema) -> "RowBatch":
        """A zero-row batch over ``schema``."""
        return cls.of_columns(schema, tuple(() for _ in range(len(schema))), 0)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Row]) -> "RowBatch":
        """Transpose validated rows into a column-major batch (no re-coercion)."""
        rows = list(rows)
        width = len(schema)
        for row in rows:
            if len(row.values) != width:
                raise SchemaError(
                    f"row width {len(row.values)} does not match schema width {width}"
                )
        if not rows:
            return cls(schema, tuple(() for _ in range(width)))
        return cls.of_columns(
            schema, tuple(zip(*(row.values for row in rows))), len(rows)
        )

    @classmethod
    def single(cls, row: Row) -> "RowBatch":
        """Wrap one validated row as a one-row batch (trusted fast path)."""
        return cls.of_columns(
            row.schema, tuple((value,) for value in row.values), 1
        )

    @classmethod
    def from_values(cls, schema: Schema, value_rows: Iterable[Sequence[Any]]) -> "RowBatch":
        """Validate row-major raw values against ``schema`` and batch them."""
        rows = [Row(schema, values) for values in value_rows]
        return cls.from_rows(schema, rows)

    @classmethod
    def vstack(cls, schema: Schema, batches: Sequence["RowBatch"]) -> "RowBatch":
        """Concatenate several batches of the same width along the row axis."""
        batches = [batch for batch in batches if batch._length]
        if not batches:
            return cls.empty(schema)
        if len(batches) == 1:
            only = batches[0]
            return only if only._schema is schema else only.with_schema(schema)
        width = len(schema)
        for batch in batches:
            if len(batch._columns) != width:
                raise SchemaError(
                    f"cannot vstack a {len(batch._columns)}-column batch into a "
                    f"{width}-column schema"
                )
        length = sum(batch._length for batch in batches)
        if length >= accel.MIN_ROWS:
            columns = tuple(
                accel.np.concatenate([batch._obj_array(i) for batch in batches])
                for i in range(width)
            )
        else:
            columns = tuple(
                tuple(chain.from_iterable(batch._materialized(i) for batch in batches))
                for i in range(width)
            )
        return cls.of_columns(schema, columns, length)

    # -- accel cache (see repro.storage.accel) ------------------------------

    def _cache(self) -> dict:
        cache = self._accel
        if cache is None:
            cache = self._accel = {}
        return cache

    def _obj_array(self, i: int):
        """The column at ``i`` as a cached object ndarray (gather substrate)."""
        column = self._columns[i]
        if type(column) is _LazyGather:
            arr = column.realize()
            columns = list(self._columns)
            columns[i] = arr
            self._columns = tuple(columns)
            return arr
        if type(column) is not tuple:  # lazy column: already an object ndarray
            return column
        cache = self._cache()
        arr = cache.get(("obj", i))
        if arr is None:
            arr = cache[("obj", i)] = accel.object_array(column)
        return arr

    def _num_array(self, i: int):
        """The column at ``i`` as a numeric ndarray, or None (cached either way)."""
        cache = self._cache()
        arr = cache.get(("num", i))
        if arr is None:
            arr = accel.numeric_array(self._materialized(i))
            cache[("num", i)] = arr if arr is not None else False
        return None if arr is False else arr

    def _codes(self, i: int):
        """``(codes ndarray, ColumnEncoding)`` for a dictionary-encoded column."""
        cache = self._accel
        return cache.get(("codes", i)) if cache else None

    def _set_codes(self, i: int, codes, encoding) -> None:
        self._cache()[("codes", i)] = (codes, encoding)

    def _set_num(self, i: int, arr) -> None:
        self._cache()[("num", i)] = arr

    # -- inspection ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema every row of this batch conforms to."""
        return self._schema

    def __len__(self) -> int:
        return self._length

    def _materialized(self, i: int) -> tuple[Any, ...]:
        """The column at ``i`` as a tuple, converting a lazy ndarray in place.

        Numpy gathers (:meth:`_take_array`) leave columns as object ndarrays
        of the original validated values; consumers that want Python tuples
        pay the conversion here, once, only for the columns they read.
        """
        column = self._columns[i]
        if type(column) is tuple:
            return column
        if type(column) is _LazyGather:
            column = column.realize()
        column = tuple(column.tolist())
        columns = list(self._columns)
        columns[i] = column
        self._columns = tuple(columns)
        return column

    def column(self, name: str) -> tuple[Any, ...]:
        """All values of one column, resolved by (possibly unqualified) name."""
        return self._materialized(self._schema.index_of(name))

    def column_at(self, index: int) -> tuple[Any, ...]:
        """All values of the column at ``index``."""
        return self._materialized(index)

    @property
    def columns(self) -> tuple[tuple[Any, ...], ...]:
        """The underlying column tuples, in schema order."""
        for i, column in enumerate(self._columns):
            if type(column) is not tuple:
                self._materialized(i)
        return self._columns

    # -- derivation ---------------------------------------------------------

    def slice(self, start: int, stop: int) -> "RowBatch":
        """Rows ``start:stop`` as a new batch: one slice per column and per cache.

        The slice keeps no tie to the batch it was cut from; :meth:`take`
        on it indexes its own rows.
        """
        if start == 0 and stop >= self._length:
            return self
        columns = tuple(column[start:stop] for column in self._columns)
        length = len(columns[0]) if columns else max(min(stop, self._length) - start, 0)
        sliced = RowBatch.of_columns(self._schema, columns, length)
        if self._accel:
            sliced._accel = {
                key: (
                    (entry[0][start:stop], entry[1])
                    if key[0] == "codes"
                    else (entry[start:stop] if entry is not False else False)
                )
                for key, entry in self._accel.items()
            }
        return sliced

    def take(self, indices: Sequence[int]) -> "RowBatch":
        """Gather the rows at ``indices`` (in that order) into a new batch.

        Indices count from this batch's first row, negative ones from its
        end, as a tuple's do; one outside the batch raises ``IndexError``.
        """
        if self._length >= accel.MIN_ROWS and len(indices) >= accel.MIN_ROWS:
            index_array = accel.np.asarray(indices, dtype=accel.np.intp)
            # _take_array defers the object gather, so an index outside the
            # batch is refused here, where a tuple's gather would raise.
            n = self._length
            if index_array.min() < -n or index_array.max() >= n:
                raise IndexError(f"row index out of range for a batch of {n} rows")
            return self._take_array(index_array)
        columns = tuple(
            tuple(map(column.__getitem__, indices)) for column in self._columns
        )
        return RowBatch.of_columns(self._schema, columns, len(indices))

    def _take_array(self, index_array) -> "RowBatch":
        """Numpy gather: index every cached column array with one fancy index.

        Gathered columns stay as object ndarrays (lazy — see
        :meth:`_materialized`), so a batch that flows straight into another
        accelerated operator never round-trips through Python tuples.
        """
        columns = []
        taken_accel: dict = {}
        for i in range(len(self._columns)):
            column = self._columns[i]
            if type(column) is _LazyGather:  # compose index arrays, no gather
                columns.append(_LazyGather(column.source, column.indices[index_array]))
            else:
                columns.append(_LazyGather(self._obj_array(i), index_array))
            entry = self._accel.get(("num", i)) if self._accel else None
            if entry is not None and entry is not False:
                taken_accel[("num", i)] = entry[index_array]
            codes = self._codes(i)
            if codes is not None:
                taken_accel[("codes", i)] = (codes[0][index_array], codes[1])
        batch = RowBatch.of_columns(self._schema, tuple(columns), int(len(index_array)))
        batch._accel = taken_accel
        return batch

    def compress(self, mask: Sequence[Any]) -> "RowBatch":
        """Keep rows whose mask entry is truthy (an itertools.compress per column)."""
        columns = tuple(tuple(compress(column, mask)) for column in self._columns)
        length = len(columns[0]) if columns else 0
        return RowBatch.of_columns(self._schema, columns, length)

    def _compress_array(self, mask_array) -> "RowBatch":
        """Numpy selection-vector path: gather rows where the bool mask is set."""
        return self._take_array(accel.np.flatnonzero(mask_array))

    def concat(self, other: "RowBatch") -> "RowBatch":
        """Column-wise concatenation of two equal-length batches (join output)."""
        if self._length != other._length:
            raise SchemaError(
                f"cannot concat batches of {self._length} and {other._length} rows"
            )
        joined = RowBatch.of_columns(
            self._schema.concat(other._schema),
            self._columns + other._columns,
            self._length,
        )
        if self._accel or other._accel:
            width = len(self._columns)
            merged: dict = dict(self._accel or {})
            for (kind, i), entry in (other._accel or {}).items():
                merged[(kind, i + width)] = entry
            joined._accel = merged
        return joined

    def with_schema(self, schema: Schema) -> "RowBatch":
        """Rebind this batch's columns to a same-shaped schema without copying.

        A change of column types falls back to per-value validation, exactly
        like :meth:`Row.with_schema`.
        """
        if schema is self._schema or schema.same_shape_as(self._schema):
            rebound = RowBatch.of_columns(schema, self._columns, self._length)
            rebound._accel = self._accel
            return rebound
        return RowBatch.from_rows(
            schema, [Row(schema, values) for values in zip(*self._columns)]
        ) if self._columns else RowBatch.empty(schema)

    # -- materialization ----------------------------------------------------

    def to_rows(self) -> list[Row]:
        """Materialize the batch back into rows (trusted fast path)."""
        schema = self._schema
        if not self._columns:
            return [Row.unchecked(schema, ()) for _ in range(self._length)]
        return [Row.unchecked(schema, values) for values in zip(*self._columns)]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.to_rows())

    def __repr__(self) -> str:
        return f"RowBatch({self._length} rows, schema={self._schema})"
