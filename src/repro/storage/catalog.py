"""Catalog of tables known to a Qurk database instance."""

from __future__ import annotations

from typing import Iterator

from repro.errors import CatalogError
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["Catalog"]


class Catalog:
    """Name → :class:`Table` registry with SQL-ish create/drop semantics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, schema: Schema, *, if_not_exists: bool = False) -> Table:
        """Create a table, or return the existing one when ``if_not_exists``."""
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[key] = table
        return table

    def register(self, table: Table, *, replace: bool = False) -> Table:
        """Register an externally constructed table under its own name."""
        key = table.name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        """Drop a table by name."""
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[key]

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise CatalogError(f"unknown table {name!r}; known tables: {known}") from None

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(table.name for table in self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
