"""In-memory relational storage engine (the Storage Engine box of Figure 1).

Public surface::

    from repro.storage import Database, Table, Schema, Column, Row, DataType

The engine is deliberately small — crowd workloads are thousands of tuples,
not millions — but fully typed, with schemas, expression evaluation, hash
indexes and results tables supporting incremental polling.
"""

from repro.storage.batch import RowBatch
from repro.storage.catalog import Catalog
from repro.storage.database import Database
from repro.storage.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FieldAccess,
    FunctionCall,
    Literal,
    Not,
    find_calls,
    walk,
)
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.table import RowsView, Table
from repro.storage.types import DataType, coerce_value, is_null

__all__ = [
    "Catalog",
    "Database",
    "Table",
    "Schema",
    "Column",
    "Row",
    "RowBatch",
    "RowsView",
    "DataType",
    "coerce_value",
    "is_null",
    "Expression",
    "Literal",
    "ColumnRef",
    "FunctionCall",
    "FieldAccess",
    "Comparison",
    "BooleanOp",
    "Not",
    "Arithmetic",
    "walk",
    "find_calls",
]
