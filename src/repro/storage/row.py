"""Row representation used throughout the storage engine and executor.

A :class:`Row` is an immutable mapping from column name to value, bound to a
:class:`~repro.storage.schema.Schema`.  Operators derive new rows rather than
mutating existing ones, which keeps asynchronous execution (where a tuple may
simultaneously sit in several operator input queues) safe.

Values are validated (coerced) exactly once, when data enters the engine
through the public constructor.  Every derivation of an already-validated row
(:meth:`Row.project`, :meth:`Row.concat`, :meth:`Row.extended`,
:meth:`Row.replaced`, :meth:`Row.with_schema`) goes through the trusted
:meth:`Row.unchecked` fast path, which skips re-validation — the values are
known-good, and the memoized schema derivations mean no new schema object is
allocated either.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.storage.schema import Column, Schema

__all__ = ["Row"]


class Row:
    """An immutable tuple of values bound to a schema.

    Values can be retrieved positionally (``row[0]``), by column name
    (``row["companies.name"]`` or ``row["name"]`` when unambiguous), or via
    :meth:`get` with a default.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Iterable[Any]):
        values = tuple(values)
        if len(values) != len(schema):
            raise SchemaError(
                f"row has {len(values)} values but schema has {len(schema)} columns"
            )
        self._schema = schema
        self._values = tuple(
            column.validate(value) for column, value in zip(schema.columns, values)
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def unchecked(cls, schema: Schema, values: tuple[Any, ...]) -> "Row":
        """Bind already-validated ``values`` to ``schema`` without re-coercion.

        The trusted fast path used by all row derivations: ``values`` must be
        a tuple of exactly ``len(schema)`` values that were previously
        validated against columns of the same types.  Callers holding
        arbitrary external data must use the validating constructor instead.
        """
        row = object.__new__(cls)
        row._schema = schema
        row._values = values
        return row

    @classmethod
    def from_mapping(cls, schema: Schema, mapping: Mapping[str, Any]) -> "Row":
        """Build a row from a name → value mapping; missing columns become NULL."""
        known = set(schema.names) | {c.unqualified_name for c in schema.columns}
        unknown = [k for k in mapping if k not in known]
        if unknown:
            raise SchemaError(f"values supplied for unknown columns: {unknown}")
        values = []
        for column in schema.columns:
            if column.name in mapping:
                values.append(mapping[column.name])
            elif column.unqualified_name in mapping:
                values.append(mapping[column.unqualified_name])
            else:
                values.append(None)
        return cls(schema, values)

    # -- access -------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this row conforms to."""
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """All values, in schema order."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.index_of(key)]

    def get(self, name: str, default: Any = None) -> Any:
        """Return the value of column ``name``, or ``default`` if absent.

        The common hit path is a single dict lookup; unknown and ambiguous
        names return ``default`` without raising/catching anything.
        """
        index = self._schema.try_index_of(name)
        return default if index is None else self._values[index]

    def to_dict(self) -> dict[str, Any]:
        """Return a plain ``{column name: value}`` dictionary."""
        return dict(zip(self._schema.names, self._values))

    # -- derivation ---------------------------------------------------------

    def concat(self, other: "Row") -> "Row":
        """Concatenate two rows (used by join operators)."""
        return Row.unchecked(
            self._schema.concat(other._schema), self._values + other._values
        )

    def extended(self, new_columns: Iterable[Column], new_values: Iterable[Any]) -> "Row":
        """Return a row with extra columns appended (Query 1 schema widening).

        The existing values are trusted; only the new values are validated.
        """
        new_columns = tuple(new_columns)
        new_values = tuple(new_values)
        if len(new_values) != len(new_columns):
            raise SchemaError(
                f"extended with {len(new_columns)} columns but {len(new_values)} values"
            )
        schema = self._schema.extend(*new_columns)
        validated = tuple(
            column.validate(value) for column, value in zip(new_columns, new_values)
        )
        return Row.unchecked(schema, self._values + validated)

    def with_schema(self, schema: Schema) -> "Row":
        """Rebind this row's values to a different (same-width) schema.

        Rebinding between same-shaped schemas (e.g. a scan qualifying base
        rows with the table alias) reuses the validated values; a change of
        column types falls back to full validation.
        """
        if schema is self._schema or schema.same_shape_as(self._schema):
            return Row.unchecked(schema, self._values)
        return Row(schema, self._values)

    # -- equality / debugging ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._schema.names == other._schema.names and self._values == other._values

    def __hash__(self) -> int:
        try:
            return hash((self._schema.names, self._values))
        except TypeError:
            # Rows holding unhashable payloads (images, lists) fall back to id.
            return object.__hash__(self)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Row({parts})"
