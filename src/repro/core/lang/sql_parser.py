"""Recursive-descent parser for the Qurk SQL dialect.

The dialect covers what the paper's examples need (plus the usual tail):

.. code-block:: sql

    SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone
    FROM companies

    SELECT celebrities.name, spottedstars.id
    FROM celebrities, spottedstars
    WHERE samePerson(celebrities.image, spottedstars.image)

plus ``GROUP BY``, ``ORDER BY <expr> [ASC|DESC]``, ``LIMIT n`` and the Qurk
extension ``BUDGET <dollars>``.
"""

from __future__ import annotations

from repro.core.lang.ast import OrderItem, SelectItem, SelectStatement, TableRef
from repro.core.lang.lexer import Token, TokenCursor, TokenType
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
)

__all__ = ["parse_select"]

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "BUDGET",
    "AND", "OR", "NOT", "AS", "ASC", "DESC", "TRUE", "FALSE", "NULL",
}


def parse_select(sql: str) -> SelectStatement:
    """Parse a SELECT statement; raises :class:`ParseError` on malformed input."""
    return _Parser(sql).parse()


class _Parser(TokenCursor):
    def __init__(self, sql: str):
        super().__init__(sql)
        self.sql = sql

    # -- token helpers -----------------------------------------------------------

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if not token.matches(TokenType.IDENT, keyword):
            raise self._error(f"expected {keyword}, found {token.value!r}")
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek().matches(TokenType.IDENT, keyword):
            self._advance()
            return True
        return False

    # -- grammar ------------------------------------------------------------------------

    def parse(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select_items = self._select_list()
        self._expect_keyword("FROM")
        tables = self._table_list()
        where = None
        group_by: tuple[str, ...] = ()
        order_by: tuple[OrderItem, ...] = ()
        limit = None
        budget = None
        if self._accept_keyword("WHERE"):
            where = self._expression()
        if self._peek().matches(TokenType.IDENT, "GROUP"):
            self._advance()
            self._expect_keyword("BY")
            group_by = tuple(self._column_name_list())
        if self._peek().matches(TokenType.IDENT, "ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by = tuple(self._order_list())
        if self._accept_keyword("LIMIT"):
            limit = int(self._number_token())
        if self._accept_keyword("BUDGET"):
            budget = float(self._number_token())
        self._accept_symbol(";")
        trailing = self._peek()
        if trailing.type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input {trailing.value!r}", trailing)
        return SelectStatement(
            select_items=tuple(select_items),
            from_tables=tuple(tables),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            budget=budget,
            raw_sql=self.sql,
        )

    def _number_token(self) -> str:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise self._error(f"expected a number, found {token.value!r}")
        self._advance()
        return token.value

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expression = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            token = self._peek()
            if token.type is not TokenType.IDENT:
                raise self._error("expected an alias after AS")
            alias = self._advance().value
        return SelectItem(expression, alias)

    def _table_list(self) -> list[TableRef]:
        tables = [self._table_ref()]
        while self._accept_symbol(","):
            tables.append(self._table_ref())
        return tables

    def _table_ref(self) -> TableRef:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error("expected a table name")
        name = self._advance().value
        alias = None
        next_token = self._peek()
        if next_token.type is TokenType.IDENT and next_token.value.upper() not in _KEYWORDS:
            alias = self._advance().value
        return TableRef(name, alias)

    def _column_name_list(self) -> list[str]:
        names = [self._qualified_name()]
        while self._accept_symbol(","):
            names.append(self._qualified_name())
        return names

    def _qualified_name(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error("expected a column name")
        name = self._advance().value
        while self._peek().matches(TokenType.SYMBOL, ".") and self._peek(1).type is TokenType.IDENT:
            self._advance()
            name += "." + self._advance().value
        return name

    def _order_list(self) -> list[OrderItem]:
        items = [self._order_item()]
        while self._accept_symbol(","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> OrderItem:
        """One ``ORDER BY`` item: an expression and an optional direction.

        With no ``ASC`` or ``DESC`` the item sorts **descending**, unlike
        standard SQL's ascending default.  Every stored fingerprint was made
        under this default, so it is documented here rather than changed.
        """
        expression = self._expression()
        ascending = False
        if self._accept_keyword("ASC"):
            ascending = True
        elif self._accept_keyword("DESC"):
            ascending = False
        return OrderItem(expression, ascending)

    # -- expressions (precedence: OR < AND < NOT < comparison < additive < multiplicative < unary) --

    def _expression(self) -> Expression:
        return self._or_expression()

    def _or_expression(self) -> Expression:
        left = self._and_expression()
        while self._peek().matches(TokenType.IDENT, "OR"):
            self._advance()
            left = BooleanOp("or", left, self._and_expression())
        return left

    def _and_expression(self) -> Expression:
        left = self._not_expression()
        while self._peek().matches(TokenType.IDENT, "AND"):
            self._advance()
            left = BooleanOp("and", left, self._not_expression())
        return left

    def _not_expression(self) -> Expression:
        if self._peek().matches(TokenType.IDENT, "NOT"):
            self._advance()
            return Not(self._not_expression())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._additive()
            return Comparison(token.value, left, right)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while self._peek().type is TokenType.OPERATOR and self._peek().value in ("+", "-"):
            operator = self._advance().value
            left = Arithmetic(operator, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while self._peek().type is TokenType.OPERATOR and self._peek().value in ("*", "/"):
            operator = self._advance().value
            left = Arithmetic(operator, left, self._unary())
        return left

    def _unary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            operand = self._unary()
            return Arithmetic("-", Literal(0), operand)
        return self._postfix()

    def _postfix(self) -> Expression:
        expression = self._primary()
        while self._peek().matches(TokenType.SYMBOL, ".") and self._peek(1).type is TokenType.IDENT:
            # Field access on a function call (findCEO(x).CEO); plain column
            # qualification is handled inside _primary.
            self._advance()
            field_name = self._advance().value
            expression = FieldAccess(expression, field_name)
        return expression

    def _primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.matches(TokenType.SYMBOL, "("):
            self._advance()
            expression = self._expression()
            self._expect_symbol(")")
            return expression
        if token.type is TokenType.IDENT:
            upper = token.value.upper()
            if upper == "TRUE":
                self._advance()
                return Literal(True)
            if upper == "FALSE":
                self._advance()
                return Literal(False)
            if upper == "NULL":
                self._advance()
                return Literal(None)
            return self._name_or_call()
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _name_or_call(self) -> Expression:
        name = self._advance().value
        if self._peek().matches(TokenType.SYMBOL, "("):
            self._advance()
            args: list[Expression] = []
            if not self._peek().matches(TokenType.SYMBOL, ")"):
                args.append(self._expression())
                while self._accept_symbol(","):
                    args.append(self._expression())
            self._expect_symbol(")")
            return FunctionCall(name, tuple(args))
        # Qualified column name: table.column (one level of qualification).
        if self._peek().matches(TokenType.SYMBOL, ".") and self._peek(1).type is TokenType.IDENT:
            follower = self._peek(2)
            # Only treat it as qualification when it is not a call like x.f(...)
            self._advance()
            column = self._advance().value
            if self._peek().matches(TokenType.SYMBOL, "("):
                raise self._error("method-style calls are not supported")
            _ = follower
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)
