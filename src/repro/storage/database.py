"""Database facade bundling a catalog with convenience helpers.

A :class:`Database` is the Storage Engine box of Figure 1: it owns every base
table.  A query's results table is not registered here: the planner builds
it, and the query's handle owns it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.storage.catalog import Catalog
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import DataType

__all__ = ["Database"]


class Database:
    """An in-memory database instance."""

    def __init__(self, name: str = "qurk"):
        self.name = name
        self.catalog = Catalog()

    # -- table management ----------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable[Column | tuple[str, DataType] | str],
        *,
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table from column specs (see :meth:`Schema.of`)."""
        schema = Schema.of(*columns)
        return self.catalog.create_table(name, schema, if_not_exists=if_not_exists)

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.catalog.table(name)

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        """Drop the named table."""
        self.catalog.drop_table(name, if_exists=if_exists)

    # -- data loading ---------------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Row | Mapping[str, Any] | Iterable[Any]]) -> int:
        """Insert rows into a table; returns the number inserted."""
        table = self.table(table_name)
        count = 0
        for row in rows:
            table.insert(row)
            count += 1
        return count

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.catalog.table_names()})"
