"""Abstract syntax for the SQL dialect (Section 3 of the paper).

Expressions reuse :mod:`repro.storage.expressions` so that locally evaluable
parts of a query can be executed directly; crowd UDF calls appear as
:class:`~repro.storage.expressions.FunctionCall` nodes without an
implementation, which the planner later rewrites into crowd operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.expressions import Expression

__all__ = ["SelectItem", "TableRef", "OrderItem", "SelectStatement"]


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause, optionally aliased."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """Name other clauses use to refer to this table."""
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key (an expression, possibly a crowd Rank UDF call)."""

    expression: Expression
    ascending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT query.

    ``budget`` is a Qurk extension (``BUDGET 5.00``) giving the query's
    monetary budget in dollars; the dashboard and the ledger enforce it.
    """

    select_items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    where: Expression | None = None
    group_by: tuple[str, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    budget: float | None = None
    raw_sql: str = field(default="", compare=False)
