"""A small expression tree evaluated against rows.

The executor and planner manipulate expressions for projections, filter
predicates, and UDF invocations.  Crowd-powered UDFs (``findCEO``,
``samePerson``) are *not* evaluated here — the planner turns them into crowd
operators — but their call sites are represented as
:class:`FunctionCall`/:class:`FieldAccess` nodes so a query can be parsed and
analysed uniformly.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.errors import ExpressionError
from repro.storage.row import Row

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.batch import RowBatch
    from repro.storage.schema import Schema

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "FunctionCall",
    "FieldAccess",
    "Comparison",
    "BooleanOp",
    "Not",
    "Arithmetic",
    "compile_batch_expression",
    "compile_batch_predicate",
    "walk",
    "find_calls",
]


class Expression:
    """Base class for expression tree nodes."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate this expression against ``row``."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        """Child expressions, used by tree walks."""
        return ()

    def references(self) -> set[str]:
        """All column names referenced anywhere in this expression tree."""
        refs: set[str] = set()
        for node in walk(self):
            if isinstance(node, ColumnRef):
                refs.add(node.name)
        return refs


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column of the input row."""

    name: str

    def evaluate(self, row: Row) -> Any:
        return row[self.name]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a named function.

    If ``implementation`` is provided the call can be evaluated locally;
    otherwise evaluation raises, because the call refers to a crowd task that
    the planner must have rewritten into an operator before execution.
    """

    name: str
    args: tuple[Expression, ...]
    implementation: Callable[..., Any] | None = None

    def children(self) -> Sequence[Expression]:
        return self.args

    def evaluate(self, row: Row) -> Any:
        if self.implementation is None:
            raise ExpressionError(
                f"function {self.name!r} has no local implementation; "
                "crowd UDFs must be planned into operators before evaluation"
            )
        return self.implementation(*(arg.evaluate(row) for arg in self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class FieldAccess(Expression):
    """Access a named field of a tuple-valued expression (``findCEO(x).CEO``).

    Tuple-valued crowd UDFs return mappings or named tuples; the field is
    looked up by name at evaluation time.
    """

    base: Expression
    field: str

    def children(self) -> Sequence[Expression]:
        return (self.base,)

    def evaluate(self, row: Row) -> Any:
        value = self.base.evaluate(row)
        if value is None:
            return None
        if isinstance(value, dict):
            if self.field not in value:
                raise ExpressionError(f"tuple value has no field {self.field!r}")
            return value[self.field]
        if hasattr(value, self.field):
            return getattr(value, self.field)
        raise ExpressionError(
            f"cannot access field {self.field!r} of {type(value).__name__} value"
        )

    def __str__(self) -> str:
        return f"{self.base}.{self.field}"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison with SQL NULL semantics (NULL compares to NULL → None)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, row: Row) -> bool | None:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """AND / OR over two boolean sub-expressions, with NULL propagation."""

    op: str  # "and" | "or"
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, row: Row) -> bool | None:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if self.op == "and":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.upper()} {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation with NULL propagation."""

    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, row: Row) -> bool | None:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return not value

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic over numeric expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, row: Row) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        try:
            return _ARITHMETIC[self.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise ExpressionError(f"cannot compute {left!r} {self.op} {right!r}") from exc

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


#: C-implemented counterparts of the comparison lambdas, for the column
#: fast paths (``map(operator.gt, col, const_col)`` runs the loop in C).
_FAST_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_FAST_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
}

#: Node types whose evaluation yields only True / False / None.  Their raw
#: output column doubles as a selection vector: among those three values only
#: True is truthy, so ``itertools.compress`` keeps exactly the rows the
#: per-row strict ``predicate(row) is True`` check would keep.
_BOOLEAN_NODES = (Comparison, BooleanOp, Not)


def compile_batch_expression(
    expression: Expression, schema: "Schema"
) -> Callable[["RowBatch"], Sequence[Any]]:
    """Compile an expression to a column kernel: one call evaluates all rows.

    The returned callable maps a :class:`~repro.storage.batch.RowBatch` to a
    sequence holding the expression's value for each row, in order — exactly
    the values per-row :meth:`Expression.evaluate` would produce row by row,
    including NULL propagation and :class:`ExpressionError`
    messages for type failures (property-tested in
    ``tests/storage/test_batch_kernels.py``).

    Kernels run their inner loops in C where semantics allow: comparisons and
    arithmetic over NULL-free columns go through ``map(operator.op, ...)``,
    and fall back to an elementwise loop that replicates the per-row
    three-valued logic whenever a NULL is present or a type error must be
    reported.  Equality fast paths additionally require NULL-free inputs
    because ``operator.eq(None, None)`` is True while SQL says NULL.

    Error ordering: a column kernel evaluates subexpressions column-at-a-
    time, so when several cells would raise, the cell it reaches first can
    differ from the one per-row evaluation reaches first (column-major vs
    row-major order).  Any :class:`ExpressionError` therefore triggers a
    row-at-a-time re-evaluation of the whole expression, which raises the
    exact error the per-row path raises — the error path pays for the rerun,
    the success path pays one try frame.
    """
    kernel = _compile_batch_node(expression, schema)

    def with_row_major_errors(batch: "RowBatch") -> Sequence[Any]:
        try:
            return kernel(batch)
        except ExpressionError:
            for row in batch.to_rows():
                expression.evaluate(row)
            raise  # per-row found no error: keep the kernel's diagnosis

    return with_row_major_errors


def _compile_batch_node(
    expression: Expression, schema: "Schema"
) -> Callable[["RowBatch"], Sequence[Any]]:
    """The recursive kernel compiler behind :func:`compile_batch_expression`.

    Kernels compose without the row-major error wrapper — only the root of
    the tree rewinds to per-row evaluation, so nested failures propagate up
    raw and are re-diagnosed exactly once.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda batch: (value,) * len(batch)
    if isinstance(expression, ColumnRef):
        index = schema.index_of(expression.name)
        return lambda batch: batch.column_at(index)
    if isinstance(expression, Comparison):
        left = _compile_batch_node(expression.left, schema)
        right = _compile_batch_node(expression.right, schema)
        fast = _FAST_COMPARATORS[expression.op]
        comparator = _COMPARATORS[expression.op]
        op = expression.op

        def compare_columns(batch: "RowBatch") -> Sequence[Any]:
            lcol = left(batch)
            rcol = right(batch)
            if None not in lcol and None not in rcol:
                try:
                    return list(map(fast, lcol, rcol))
                except TypeError:
                    pass  # report via the exact-semantics loop below
            out = []
            append = out.append
            for lhs, rhs in zip(lcol, rcol):
                if lhs is None or rhs is None:
                    append(None)
                    continue
                try:
                    append(comparator(lhs, rhs))
                except TypeError as exc:
                    raise ExpressionError(
                        f"cannot compare {lhs!r} {op} {rhs!r}"
                    ) from exc
            return out

        return compare_columns
    if isinstance(expression, BooleanOp):
        left = _compile_batch_node(expression.left, schema)
        right = _compile_batch_node(expression.right, schema)
        if expression.op == "and":

            def conjoin_columns(batch: "RowBatch") -> Sequence[Any]:
                return [
                    False
                    if (lhs is False or rhs is False)
                    else (
                        None
                        if (lhs is None or rhs is None)
                        else bool(lhs) and bool(rhs)
                    )
                    for lhs, rhs in zip(left(batch), right(batch))
                ]

            return conjoin_columns

        def disjoin_columns(batch: "RowBatch") -> Sequence[Any]:
            return [
                True
                if (lhs is True or rhs is True)
                else (
                    None if (lhs is None or rhs is None) else bool(lhs) or bool(rhs)
                )
                for lhs, rhs in zip(left(batch), right(batch))
            ]

        return disjoin_columns
    if isinstance(expression, Not):
        operand = _compile_batch_node(expression.operand, schema)
        return lambda batch: [
            None if value is None else not value for value in operand(batch)
        ]
    if isinstance(expression, Arithmetic):
        left = _compile_batch_node(expression.left, schema)
        right = _compile_batch_node(expression.right, schema)
        fast = _FAST_ARITHMETIC[expression.op]
        arith = _ARITHMETIC[expression.op]
        op = expression.op

        def apply_columns(batch: "RowBatch") -> Sequence[Any]:
            lcol = left(batch)
            rcol = right(batch)
            if None not in lcol and None not in rcol:
                try:
                    return list(map(fast, lcol, rcol))
                except (TypeError, ZeroDivisionError):
                    pass  # report via the exact-semantics loop below
            out = []
            append = out.append
            for lhs, rhs in zip(lcol, rcol):
                if lhs is None or rhs is None:
                    append(None)
                    continue
                try:
                    append(arith(lhs, rhs))
                except (TypeError, ZeroDivisionError) as exc:
                    raise ExpressionError(
                        f"cannot compute {lhs!r} {op} {rhs!r}"
                    ) from exc
            return out

        return apply_columns
    if isinstance(expression, FunctionCall) and expression.implementation is not None:
        args = tuple(
            _compile_batch_node(arg, schema) for arg in expression.args
        )
        implementation = expression.implementation
        if not args:
            return lambda batch: [implementation() for _ in range(len(batch))]
        return lambda batch: [
            implementation(*values) for values in zip(*(arg(batch) for arg in args))
        ]
    # Anything else (FieldAccess over crowd results, unimplemented calls,
    # future node types) interprets the tree per materialized row.
    return lambda batch: [expression.evaluate(row) for row in batch.to_rows()]


def compile_batch_predicate(
    expression: Expression, schema: "Schema"
) -> Callable[["RowBatch"], Sequence[Any]]:
    """Compile a predicate to a selection-vector kernel.

    The returned mask keeps exactly the rows where the per-row predicate is
    strictly ``True`` (the local filter's SQL WHERE semantics).  For boolean
    nodes the raw kernel output already is such a mask — only True is truthy
    among {True, False, None} — while other node types (a bare column
    reference, a UDF call) are wrapped in a strict ``is True`` check so a
    truthy non-boolean value does not slip through compress.
    """
    kernel = compile_batch_expression(expression, schema)
    if isinstance(expression, _BOOLEAN_NODES):
        return kernel
    return lambda batch: [value is True for value in kernel(batch)]


def walk(expression: Expression) -> Iterator[Expression]:
    """Yield ``expression`` and every descendant, pre-order."""
    yield expression
    for child in expression.children():
        yield from walk(child)


def find_calls(expression: Expression, name: str | None = None) -> list[FunctionCall]:
    """Return every :class:`FunctionCall` in the tree, optionally filtered by name."""
    calls = [node for node in walk(expression) if isinstance(node, FunctionCall)]
    if name is not None:
        calls = [call for call in calls if call.name == name]
    return calls
