"""Plans SELECT statements in two phases: logical lowering, then physical.

**Phase 1 — lowering** (:meth:`QueryPlanner.lower`) rewrites the parsed
statement into the logical IR of :mod:`repro.core.plan.logical`:

* ``findCEO(companyName).CEO`` in the SELECT list → a
  :class:`~repro.core.plan.logical.LogicalGenerate` below the projection,
  with the field access rewritten to the generated column;
* ``WHERE isTargetColor(name)`` → a crowd :class:`LogicalFilter` on that
  table;
* ``WHERE samePerson(a.image, b.image)`` over two tables → a
  :class:`LogicalJoin` predicate (multi-join queries produce several);
* ``ORDER BY biggerItem(...)`` / a Rank UDF → a crowd
  :class:`LogicalSort`, whose interface the TASK's Response type fixes.

Locally evaluable predicates are pushed onto their tables *below* the crowd
operators, because a free machine filter that removes tuples before they
reach the crowd directly reduces monetary cost.

**Phase 2 — physical planning** hands the logical plan to the
:class:`~repro.core.plan.physical.PhysicalPlanner`, which enumerates join
orders, join interfaces, crowd-filter placements, access paths and local-join
build sides, costs every candidate through the optimizer's per-node logical
costing, and builds the cost-minimal tree of physical operators.

**Plan templates.**  Lowering and enumeration depend only on the statement,
the FROM tables (with their indexes) and the crowd UDFs its calls name, never
on statistics.  A :class:`PlanTemplate` keeps their output — the logical plan
and every candidate's composed tree and decision strings — in a
:class:`TemplateSlot` the caller hands in, from the statement's second
planning on; the engine keeps one slot beside each statement in its cache of
parsed SQL texts.  A plan through a slot whose
template still matches those inputs skips lowering and enumeration, but costs
every candidate against today's statistics and builds fresh operators, so
its choice, costs and EXPLAIN text are a miss's by construction.  Without a
slot the planner keeps no state between plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lang.ast import SelectItem, SelectStatement
from repro.core.operators.aggregate import AGGREGATE_FUNCTIONS, AggregateSpec
from repro.core.operators.sink import ResultSinkOperator
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.plan.logical import (
    LogicalFilter,
    LogicalGenerate,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalLocalJoin,
    LogicalNode,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    render_tree,
)
from repro.core.plan.physical import PhysicalCandidate, PhysicalPlanner
from repro.core.plan.registry import RegisteredTask, TaskRegistry
from repro.errors import CatalogError, PlanError
from repro.storage.database import Database
from repro.storage.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FieldAccess,
    FunctionCall,
    Not,
    find_calls,
    walk,
)
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["PlanTemplate", "PlannedQuery", "QueryPlanner", "TemplateSlot"]


@dataclass
class PlannedQuery:
    """The output of planning: the sink-rooted operator tree and its schema.

    ``logical``, ``candidates`` and ``chosen`` expose the optimizer's work —
    the logical plan, every costed physical alternative, and the winner —
    for ``EXPLAIN`` and the dashboard.  A plan made through a template shares
    the template's logical plan and candidate trees: the next plan of the
    same statement re-annotates those trees with its own estimates.  The
    operator tree, the costs and the decisions are this plan's alone.
    """

    root: ResultSinkOperator
    output_schema: Schema
    statement: SelectStatement
    logical: LogicalPlan | None = None
    candidates: tuple[PhysicalCandidate, ...] = ()
    chosen: PhysicalCandidate | None = None


@dataclass(frozen=True)
class PlanTemplate:
    """What planning one statement computes regardless of statistics.

    ``inputs`` is everything lowering and enumeration read besides the
    statement (see :meth:`QueryPlanner.template`); ``called`` the function
    names the statement calls, which ``inputs`` resolves.
    """

    inputs: tuple
    called: tuple[str, ...]
    logical: LogicalPlan
    trees: tuple[tuple[LogicalNode, tuple[str, ...]], ...]


class TemplateSlot:
    """Where one statement's :class:`PlanTemplate` is kept between plans.

    A template is kept from the statement's second planning on, so a text
    planned only once (an ad-hoc threshold, say) leaves no template behind
    (see :meth:`QueryPlanner.template` for the one exception).
    """

    __slots__ = ("template", "seen")

    def __init__(self) -> None:
        self.template: PlanTemplate | None = None
        self.seen = False


class QueryPlanner:
    """Turns parsed SELECT statements into physical plans."""

    def __init__(
        self,
        database: Database,
        registry: TaskRegistry,
        optimizer: QueryOptimizer,
    ) -> None:
        self.database = database
        self.registry = registry
        self.optimizer = optimizer
        self.physical = PhysicalPlanner(optimizer)

    # -- entry points -------------------------------------------------------------------

    def plan(
        self,
        statement: SelectStatement,
        *,
        query_id: str = "",
        slot: TemplateSlot | None = None,
    ) -> PlannedQuery:
        """Plan a statement and build its results table, named ``query_id``.

        The table belongs to the query alone; the catalog never sees it.
        With a ``slot``, lowering and enumeration come from its template
        while that is valid (see :meth:`template`).
        """
        template = self.template(statement, slot)
        chosen, candidates = self.physical.pick(template.trees)
        top = self.physical.build(chosen.root)
        sink = ResultSinkOperator(Table(query_id or "results", top.output_schema))
        sink.add_child(top)
        return PlannedQuery(
            root=sink,
            output_schema=top.output_schema,
            statement=statement,
            logical=template.logical,
            candidates=candidates,
            chosen=chosen,
        )

    def explain(self, statement: SelectStatement, *, slot: TemplateSlot | None = None) -> str:
        """Render the logical plan, every costed candidate and the winner.

        Side-effect free: no results table is created and no operator is
        built, so EXPLAIN can be called on a live engine without cost.  A
        ``slot`` is used as :meth:`plan` uses it.
        """
        template = self.template(statement, slot)
        default = self.physical.default_tree(template.logical)
        self.optimizer.estimate_logical_cost(default)
        chosen, candidates = self.physical.pick(template.trees)
        lines = [
            "== logical plan (cardinalities from current statistics) ==",
            render_tree(default),
            f"== physical candidates ({len(candidates)} enumerated) ==",
        ]
        for candidate in sorted(
            candidates,
            key=lambda c: (round(c.cost.dollars, 9), c.cost.hits, c.cost.local_work),
        ):
            marker = "-> " if candidate is chosen else "   "
            suffix = "   (chosen)" if candidate is chosen else ""
            lines.append(f"{marker}{candidate.describe()}{suffix}")
        lines.append("== chosen physical plan ==")
        lines.append(render_tree(chosen.root))
        return "\n".join(lines)

    def template(
        self, statement: SelectStatement, slot: TemplateSlot | None = None, *, keep: bool = False
    ) -> PlanTemplate:
        """Lowering plus enumeration for ``statement``, reused from ``slot``.

        The slot's template is reused only while its inputs are the ones
        lowering and enumeration would read now: each FROM table (a drop and
        re-create is another object) with its indexes (``create_index`` puts
        a new one in place), and the registry entry each called name
        resolves to (``define_task`` registers a new one).  Otherwise the
        statement is lowered and enumerated afresh, and the slot keeps the
        new template unless this is the statement's first planning and
        ``keep`` is false (a caller about to plan the statement right away
        passes ``keep=True``).  Raises what lowering and enumeration raise,
        and then leaves the slot as it was.
        """
        template = slot.template if slot is not None else None
        if template is None or template.inputs != self._inputs(statement, template.called):
            logical = self.lower(statement)
            trees = self.physical.enumerate_trees(logical)
            called = _called_names(statement)
            template = PlanTemplate(self._inputs(statement, called), called, logical, trees)
            if slot is not None:
                if keep or slot.seen:
                    slot.template = template
                slot.seen = True
        return template

    def _inputs(self, statement: SelectStatement, called: tuple[str, ...]) -> tuple | None:
        """What lowering and enumeration read besides ``statement``, or None
        when a FROM table is missing (lowering raises for it)."""
        try:
            tables = [self.database.table(ref.name) for ref in statement.from_tables]
        except CatalogError:
            return None
        return (
            *((table, table.indexes) for table in tables),
            *(self.registry.lookup(name) for name in called),
        )

    # -- phase 1: logical lowering ----------------------------------------------------------

    def lower(self, statement: SelectStatement) -> LogicalPlan:
        """Rewrite a SELECT statement into the logical IR."""
        scans = self._build_scans(statement)
        conjuncts = _split_conjuncts(statement.where)
        local_conjuncts, crowd_filters, join_predicates = self._classify_conjuncts(
            conjuncts, scans
        )

        plan = LogicalPlan(statement=statement)
        for binding, scan in scans.items():
            current = scan
            for predicate in local_conjuncts.get(binding, []):
                node = LogicalFilter(predicate=predicate)
                node.add_child(current)
                current = node
            plan.table_pipelines[binding] = current
        for binding, filters in crowd_filters.items():
            plan.crowd_filters[binding] = [
                LogicalFilter(spec=entry.spec, call=call, entry=entry, negate=negated)
                for entry, call, negated in filters
            ]
        plan.join_predicates = [
            LogicalJoin(entry.spec, call=call, entry=entry, left_binding=left, right_binding=right)
            for entry, call, left, right in join_predicates
        ]
        cross_conjuncts = local_conjuncts.get(None, [])
        if len(scans) > 1 and not join_predicates:
            # No crowd join connects the tables: machine equi-joins may.
            # Two-binding equality conjuncts become LogicalLocalJoin
            # predicates; anything else stays a post-join filter.  Queries
            # with crowd joins are untouched — there the cross-table local
            # conjuncts filter the (already joined) crowd output.
            plan.local_joins, cross_conjuncts = self._promote_local_joins(
                cross_conjuncts, scans
            )
        plan.post_join_filters = [
            LogicalFilter(predicate=predicate) for predicate in cross_conjuncts
        ]

        upper, rewritten_items = self._lower_generates(statement.select_items)
        upper.extend(self._lower_order_by(statement))
        grouping, rewritten_items = self._lower_grouping(statement, rewritten_items)
        upper.extend(grouping)
        if statement.limit is not None:
            upper.append(LogicalLimit(statement.limit))
        upper.append(LogicalProject(tuple(rewritten_items)))
        plan.upper = upper
        plan.select_items = tuple(rewritten_items)
        return plan

    # -- FROM ----------------------------------------------------------------------------------

    def _build_scans(self, statement: SelectStatement) -> dict[str, LogicalScan]:
        if not statement.from_tables:
            raise PlanError("a query needs at least one table in FROM")
        scans: dict[str, LogicalScan] = {}
        for table_ref in statement.from_tables:
            table = self.database.table(table_ref.name)
            if table_ref.binding in scans:
                raise PlanError(f"duplicate table binding {table_ref.binding!r}")
            scans[table_ref.binding] = LogicalScan(
                table, alias=table_ref.alias, binding=table_ref.binding
            )
        return scans

    # -- WHERE classification --------------------------------------------------------------------

    def _classify_conjuncts(
        self, conjuncts: list[Expression], scans: dict[str, LogicalScan]
    ) -> tuple[dict, dict, list]:
        local_conjuncts: dict[str | None, list[Expression]] = {}
        crowd_filters: dict[str, list[tuple[RegisteredTask, FunctionCall, bool]]] = {}
        join_predicates: list[tuple[RegisteredTask, FunctionCall, str, str]] = []
        for conjunct in conjuncts:
            crowd_call, negated = _as_crowd_call(conjunct, self.registry)
            if crowd_call is not None:
                entry = self.registry.require(crowd_call.name)
                bindings = self._bindings_of(crowd_call, scans)
                if entry.is_join_predicate and len(bindings) == 2:
                    if negated:
                        raise PlanError("negated crowd join predicates are not supported")
                    left, right = self._ordered_bindings(bindings, scans)
                    join_predicates.append((entry, crowd_call, left, right))
                    continue
                if len(bindings) > 1:
                    raise PlanError(
                        f"crowd filter {crowd_call.name} references several tables; "
                        "only join predicates may span tables"
                    )
                binding = next(iter(bindings)) if bindings else next(iter(scans))
                crowd_filters.setdefault(binding, []).append((entry, crowd_call, negated))
                continue
            self._require_locally_evaluable(conjunct)
            bindings = self._bindings_of(conjunct, scans)
            if len(bindings) == 1:
                local_conjuncts.setdefault(next(iter(bindings)), []).append(conjunct)
            elif len(bindings) == 0:
                local_conjuncts.setdefault(next(iter(scans)), []).append(conjunct)
            else:
                local_conjuncts.setdefault(None, []).append(conjunct)
        return local_conjuncts, crowd_filters, join_predicates

    def _require_locally_evaluable(self, conjunct: Expression) -> None:
        """Reject predicates that call functions Qurk knows nothing about."""
        for call in find_calls(conjunct):
            if call.implementation is None and call.name not in self.registry:
                raise PlanError(
                    f"function {call.name!r} in WHERE is neither a registered crowd TASK "
                    "nor a locally implemented function"
                )

    def _bindings_of(self, expression: Expression, scans: dict[str, LogicalScan]) -> set[str]:
        bindings: set[str] = set()
        for name in expression.references():
            qualifier = name.rsplit(".", 1)[0] if "." in name else None
            if qualifier and qualifier in scans:
                bindings.add(qualifier)
                continue
            # Unqualified column: find which table defines it.
            owners = [
                b
                for b, scan in scans.items()
                if name in scan.table.schema.qualified(scan.binding)
            ]
            if len(owners) == 1:
                bindings.add(owners[0])
            elif len(owners) > 1:
                raise PlanError(f"column reference {name!r} is ambiguous across tables")
            else:
                raise PlanError(f"unknown column {name!r}")
        return bindings

    @staticmethod
    def _ordered_bindings(bindings: set[str], scans: dict[str, LogicalScan]) -> tuple[str, str]:
        ordered = [binding for binding in scans if binding in bindings]
        return ordered[0], ordered[1]

    # -- machine equi-joins ------------------------------------------------------------------------

    def _promote_local_joins(
        self, conjuncts: list[Expression], scans: dict[str, LogicalScan]
    ) -> tuple[list[LogicalLocalJoin], list[Expression]]:
        """Split cross-table conjuncts into equi-join predicates and leftovers."""
        joins: list[LogicalLocalJoin] = []
        leftovers: list[Expression] = []
        for conjunct in conjuncts:
            join = self._as_local_join(conjunct, scans)
            if join is None:
                leftovers.append(conjunct)
            else:
                joins.append(join)
        return joins, leftovers

    def _as_local_join(
        self, conjunct: Expression, scans: dict[str, LogicalScan]
    ) -> LogicalLocalJoin | None:
        """``a.x = b.y`` (each side touching exactly one table) or ``None``."""
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        left_bindings = self._bindings_of(conjunct.left, scans)
        right_bindings = self._bindings_of(conjunct.right, scans)
        if len(left_bindings) != 1 or len(right_bindings) != 1:
            return None
        left_binding = next(iter(left_bindings))
        right_binding = next(iter(right_bindings))
        if left_binding == right_binding:
            return None
        left_key, right_key = conjunct.left, conjunct.right
        # Normalize to FROM order so plans are stable under `a.x = b.y`
        # vs `b.y = a.x`.
        first, _ = self._ordered_bindings({left_binding, right_binding}, scans)
        if first != left_binding:
            left_binding, right_binding = right_binding, left_binding
            left_key, right_key = right_key, left_key

        def base_column(key: Expression) -> str | None:
            """Bare column name when statistics/indexes can apply."""
            if not isinstance(key, ColumnRef):
                return None
            return key.name.rsplit(".", 1)[-1]

        return LogicalLocalJoin(
            left_key=left_key,
            right_key=right_key,
            left_binding=left_binding,
            right_binding=right_binding,
            left_table=scans[left_binding].table,
            right_table=scans[right_binding].table,
            left_column=base_column(left_key),
            right_column=base_column(right_key),
        )

    # -- SELECT-list crowd generates ---------------------------------------------------------------------

    def _lower_generates(
        self, select_items: tuple[SelectItem, ...]
    ) -> tuple[list, list[SelectItem]]:
        generate_calls: dict[str, tuple[RegisteredTask, FunctionCall, str]] = {}
        for item in select_items:
            for call in find_calls(item.expression):
                entry = self.registry.lookup(call.name)
                if entry is None or not entry.is_question:
                    continue
                key = str(call)
                if key not in generate_calls:
                    suffix = "" if not generate_calls else f"_{len(generate_calls) + 1}"
                    prefix = f"{entry.spec.name}{suffix}"
                    generate_calls[key] = (entry, call, prefix)
        nodes = [
            LogicalGenerate(entry.spec, call=call, entry=entry, output_prefix=prefix)
            for entry, call, prefix in generate_calls.values()
        ]
        prefixes = {key: prefix for key, (_e, _c, prefix) in generate_calls.items()}
        specs = {key: entry.spec for key, (entry, _c, _p) in generate_calls.items()}
        rewritten = [
            SelectItem(_rewrite_generates(item.expression, prefixes, specs), item.alias)
            for item in select_items
        ]
        return nodes, rewritten

    # -- ORDER BY -----------------------------------------------------------------------------------------

    def _lower_order_by(self, statement: SelectStatement) -> list[LogicalSort]:
        nodes: list[LogicalSort] = []
        for order_item in statement.order_by:
            expression = order_item.expression
            entry = None
            if isinstance(expression, FunctionCall):
                candidate = self.registry.lookup(expression.name)
                if candidate is not None and candidate.is_rank:
                    entry = candidate
            if entry is not None:
                # The TASK's Response type is authoritative: a Rating
                # response sorts by per-item ratings, a Comparison response
                # by pairwise comparisons (the replanner may still swap a
                # pending comparison sort that receives many more rows).
                nodes.append(
                    LogicalSort(
                        spec=entry.spec,
                        call=expression,
                        entry=entry,
                        ascending=order_item.ascending,
                    )
                )
            else:
                nodes.append(LogicalSort(key=expression, ascending=order_item.ascending))
        return nodes

    # -- GROUP BY / aggregates ---------------------------------------------------------------------------------

    def _lower_grouping(
        self,
        statement: SelectStatement,
        select_items: list[SelectItem],
    ) -> tuple[list[LogicalGroupBy], list[SelectItem]]:
        aggregate_items = [
            item
            for item in select_items
            if isinstance(item.expression, FunctionCall)
            and item.expression.name.lower() in AGGREGATE_FUNCTIONS
        ]
        if not statement.group_by and not aggregate_items:
            return [], select_items
        aggregates = []
        rewritten: list[SelectItem] = []
        for index, item in enumerate(select_items):
            expression = item.expression
            if item in aggregate_items:
                call = expression
                alias = item.alias or f"{call.name.lower()}_{index}"
                argument = call.args[0] if call.args else None
                aggregates.append(AggregateSpec(alias, call.name.lower(), argument))
                rewritten.append(SelectItem(ColumnRef(alias), item.alias or alias))
            else:
                if not isinstance(expression, ColumnRef):
                    raise PlanError(
                        "non-aggregate SELECT items in a grouped query must be plain columns"
                    )
                rewritten.append(item)
        group_columns = list(statement.group_by)
        if not group_columns:
            group_columns = [
                item.expression.name
                for item in select_items
                if isinstance(item.expression, ColumnRef) and item not in aggregate_items
            ]
        return [LogicalGroupBy(group_columns, aggregates)], rewritten


# -- helpers -------------------------------------------------------------------------------------------


def _called_names(statement: SelectStatement) -> tuple[str, ...]:
    """Every function name the statement calls, each once, lower-cased."""
    expressions = [item.expression for item in statement.select_items]
    expressions.extend(item.expression for item in statement.order_by)
    if statement.where is not None:
        expressions.append(statement.where)
    names = (call.name.lower() for e in expressions for call in find_calls(e))
    return tuple(dict.fromkeys(names))


def _split_conjuncts(expression: Expression | None) -> list[Expression]:
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.op == "and":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _as_crowd_call(
    expression: Expression, registry: TaskRegistry
) -> tuple[FunctionCall | None, bool]:
    """Return (call, negated) when a conjunct is a bare crowd UDF call."""
    negated = False
    if isinstance(expression, Not):
        negated = True
        expression = expression.operand
    if isinstance(expression, FunctionCall) and expression.name in registry:
        return expression, negated
    return None, False


def _rewrite_generates(
    expression: Expression,
    prefixes: dict[str, str],
    specs: dict[str, object],
) -> Expression:
    """Rewrite ``findCEO(x).CEO`` into a reference to the generated column."""
    if isinstance(expression, FieldAccess):
        base = expression.base
        key = str(base)
        if isinstance(base, FunctionCall) and key in prefixes:
            return ColumnRef(f"{prefixes[key]}.{expression.field}")
        return FieldAccess(_rewrite_generates(base, prefixes, specs), expression.field)
    if isinstance(expression, FunctionCall):
        key = str(expression)
        if key in prefixes:
            spec = specs[key]
            returns = getattr(spec, "returns", ())
            if len(returns) == 1:
                return ColumnRef(f"{prefixes[key]}.{returns[0].name}")
            raise PlanError(
                f"{expression.name}(...) returns a tuple; select a field such as "
                f"{expression.name}(...).{returns[0].name if returns else 'Field'}"
            )
        rewritten_args = tuple(_rewrite_generates(arg, prefixes, specs) for arg in expression.args)
        return FunctionCall(expression.name, rewritten_args, expression.implementation)
    for node in walk(expression):
        if isinstance(node, (FieldAccess, FunctionCall)) and node is not expression:
            break
    else:
        return expression
    # Generic structural rewrite for composite expressions.
    if hasattr(expression, "left") and hasattr(expression, "right"):
        left = _rewrite_generates(expression.left, prefixes, specs)
        right = _rewrite_generates(expression.right, prefixes, specs)
        return type(expression)(expression.op, left, right)  # type: ignore[call-arg]
    if isinstance(expression, Not):
        return Not(_rewrite_generates(expression.operand, prefixes, specs))
    return expression
