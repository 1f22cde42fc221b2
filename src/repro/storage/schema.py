"""Schemas and columns for the Qurk storage engine.

A :class:`Schema` is an ordered collection of :class:`Column` objects.  Rows
(:mod:`repro.storage.row`) are validated against a schema on insertion.
Schemas support the operations query processing needs: projection, renaming
with a table qualifier, concatenation (for joins), and extension (for the
schema-widening UDF operator of Query 1).

Schemas sit on the engine's per-row hot path — every named value access
resolves a column, and joins/projections derive a schema per emitted row —
so resolution is backed by a name→index map built once per schema, and all
derivations (:meth:`Schema.project`, :meth:`Schema.concat`,
:meth:`Schema.extend`, :meth:`Schema.qualified`) are memoized per instance:
deriving the same shape twice returns the *same* schema object, which lets
rows share one schema per operator output instead of allocating one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import SchemaError
from repro.storage.types import DataType, coerce_value

__all__ = ["Column", "Schema"]

#: Sentinel index for unqualified names shared by several columns.
_AMBIGUOUS = -1


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name, optionally qualified as ``table.column``.
    data_type:
        Logical type of values stored in the column.
    nullable:
        Whether NULL values are accepted (default True, as in the paper's
        setting where crowd answers may be missing).
    """

    name: str
    data_type: DataType = DataType.ANY
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    @property
    def unqualified_name(self) -> str:
        """The column name without any ``table.`` qualifier."""
        return self.name.rsplit(".", 1)[-1]

    def with_qualifier(self, qualifier: str) -> "Column":
        """Return a copy of this column qualified as ``qualifier.name``."""
        return Column(f"{qualifier}.{self.unqualified_name}", self.data_type, self.nullable)

    def validate(self, value: Any) -> Any:
        """Validate and coerce ``value`` for storage in this column."""
        if value is None and not self.nullable:
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return coerce_value(value, self.data_type)

    def __str__(self) -> str:
        return f"{self.name} {self.data_type}"


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of columns.

    Column lookup accepts either the exact (possibly qualified) name or an
    unambiguous unqualified name, mirroring SQL name resolution.  Resolution
    goes through a dict built once at construction; exact (qualified) names
    win over unqualified ones, and ambiguous unqualified names map to a
    sentinel so they still raise.
    """

    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lookup: dict[str, int] = {}
        seen: set[str] = set()
        dupes: set[str] = set()
        for i, column in enumerate(self.columns):
            name = column.name
            if name in seen:
                dupes.add(name)
            seen.add(name)
            unqualified = column.unqualified_name
            lookup[unqualified] = _AMBIGUOUS if unqualified in lookup else i
        if dupes:
            raise SchemaError(f"duplicate column names: {', '.join(sorted(dupes))}")
        # Exact (qualified) matches overwrite unqualified candidates: they win.
        for i, column in enumerate(self.columns):
            lookup[column.name] = i
        # The dataclass is frozen for value semantics; the caches below are
        # derived data, invisible to __eq__/__hash__.
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_names", tuple(c.name for c in self.columns))
        object.__setattr__(
            self, "_shape", tuple((c.data_type, c.nullable) for c in self.columns)
        )
        object.__setattr__(self, "_derived", {})

    # -- construction -------------------------------------------------------

    @classmethod
    def of(cls, *columns: Column | tuple[str, DataType] | str) -> "Schema":
        """Build a schema from columns, ``(name, type)`` pairs, or bare names."""
        built: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                built.append(spec)
            elif isinstance(spec, tuple):
                name, data_type = spec
                built.append(Column(name, data_type))
            elif isinstance(spec, str):
                built.append(Column(spec))
            else:  # pragma: no cover - defensive
                raise SchemaError(f"cannot build a column from {spec!r}")
        return cls(tuple(built))

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        index = self._lookup.get(name)
        return index is not None and index != _AMBIGUOUS

    @property
    def names(self) -> tuple[str, ...]:
        """All column names, in order."""
        return self._names

    def column(self, name: str) -> Column:
        """Return the column called ``name`` (qualified or unambiguous)."""
        return self.columns[self.index_of(name)]

    def index_of(self, name: str) -> int:
        """Resolve ``name`` to a column index.

        Exact (qualified) matches win; otherwise the unqualified name must be
        unambiguous across the schema.
        """
        index = self._lookup.get(name)
        if index is None:
            raise SchemaError(f"unknown column {name!r}; have {', '.join(self._names)}")
        if index == _AMBIGUOUS:
            raise SchemaError(f"column reference {name!r} is ambiguous")
        return index

    def try_index_of(self, name: str) -> int | None:
        """Like :meth:`index_of`, but returns None for unknown/ambiguous names."""
        index = self._lookup.get(name)
        return None if index is None or index == _AMBIGUOUS else index

    def indices_of(self, names: Iterable[str]) -> tuple[int, ...]:
        """Resolve several names to indices at once (memoized per name tuple)."""
        key = ("indices", tuple(names))
        cached = self._derived.get(key)
        if cached is None:
            cached = tuple(self.index_of(name) for name in key[1])
            self._remember(key, cached)
        return cached

    # -- derivation ---------------------------------------------------------
    #
    # Each derivation is memoized on this instance: operators derive rows in
    # a loop from the same input schema(s), so the second and later calls hit
    # the cache and every derived row shares one schema object per shape.
    # The memo is a bounded cache — an engine-lifetime schema (a base
    # table's) would otherwise pin every query's derived schemas forever.

    _DERIVED_CACHE_LIMIT = 512

    def _remember(self, key: tuple, value: Any) -> None:
        if len(self._derived) >= self._DERIVED_CACHE_LIMIT:
            self._derived.clear()
        self._derived[key] = value

    def qualified(self, qualifier: str) -> "Schema":
        """Return a copy of this schema with every column qualified."""
        key = ("qualified", qualifier)
        cached = self._derived.get(key)
        if cached is None:
            cached = Schema(tuple(c.with_qualifier(qualifier) for c in self.columns))
            self._remember(key, cached)
        return cached

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by join operators).

        Memoized by the identity of ``other`` — hashing a whole schema per
        joined row costs more than the concat itself.  The memo entry keeps a
        strong reference to ``other``, so a live entry's id cannot be
        recycled by a different schema (eviction drops pin and entry
        together, so a recycled id can only ever miss).
        """
        key = ("concat", id(other))
        cached = self._derived.get(key)
        if cached is None or cached[0] is not other:
            cached = (other, Schema(self.columns + other.columns))
            self._remember(key, cached)
        return cached[1]

    def extend(self, *new_columns: Column) -> "Schema":
        """Return a schema with extra columns appended (Query 1 schema widening).

        Memoized by column identity (operators extend with one fixed column
        tuple per open); the memo entry pins the column objects, so a live
        entry's ids can never be recycled by different columns.
        """
        key = ("extend", tuple(map(id, new_columns)))
        cached = self._derived.get(key)
        if cached is None:
            cached = (new_columns, Schema(self.columns + new_columns))
            self._remember(key, cached)
        return cached[1]

    def same_shape_as(self, other: "Schema") -> bool:
        """True when both schemas have identical column types and nullability.

        Rows validated against one schema of a shape can be rebound to any
        other schema of the same shape without re-coercing values.
        """
        return self._shape == other._shape

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.columns) + ")"
