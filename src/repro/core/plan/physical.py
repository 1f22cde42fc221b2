"""The physical planner: enumerate, cost, pick, build.

Given a :class:`~repro.core.plan.logical.LogicalPlan`, the
:class:`PhysicalPlanner` enumerates the physical alternatives the paper's
demo lets the audience explore:

* **join order** — for multi-join queries, every left-deep order in which
  the join predicates keep the joined tables connected;
* **join interface** — pairwise yes/no HITs versus the two-column Figure 3
  interface (only JoinColumns specs can render the latter);
* **sort interface** — not an axis: the TASK's Response type is
  authoritative (comparisons for a Comparison response, ratings for a Rating
  one), and the adaptive replanner revisits a pending comparison sort once
  its real input size is known;
* **crowd-filter placement** — on the filtered table below the joins, or
  above the joins over the (usually smaller) join result, plus the order in
  which several filters on one table run;
* **access path** — a full table scan versus a secondary-index scan, for
  table pipelines whose local predicate compares an indexed column against
  a literal (hash indexes serve equality, sorted indexes also ranges);
* **local-join build side** — for machine equi-joins (``FROM a, b WHERE
  a.id = b.id`` with no crowd join predicate), which input the hash join
  builds on; a base table with a hash index on its join key makes that
  build free (the operator probes straight through the index).

Every candidate is costed through the optimizer's per-node logical costing
and the cost-minimal candidate (dollars, then HITs, then tasks, then local
machine work) is built into a tree of physical operators.  The chosen candidate's cardinality
annotations are stamped onto the physical operators (``planned_input_rows``)
so the adaptive replanner can later detect misestimation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.operators.aggregate import GroupByOperator, LimitOperator
from repro.core.operators.base import Operator
from repro.core.operators.crowd_filter import CrowdFilterOperator
from repro.core.operators.crowd_generate import CrowdGenerateOperator
from repro.core.operators.crowd_join import CrowdJoinOperator, JoinStrategy
from repro.core.operators.crowd_sort import CrowdSortOperator
from repro.core.operators.join_local import LocalHashJoinOperator
from repro.core.operators.project import LocalFilterOperator, ProjectOperator, ProjectionItem
from repro.core.operators.scan import IndexScanOperator, ScanOperator
from repro.core.operators.sort_local import LocalSortOperator
from repro.core.optimizer.cost_model import CostEstimate
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.plan.logical import (
    LogicalFilter,
    LogicalGenerate,
    LogicalGroupBy,
    LogicalIndexScan,
    LogicalJoin,
    LogicalLimit,
    LogicalLocalJoin,
    LogicalNode,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.errors import PlanError
from repro.storage.expressions import ColumnRef, Comparison, Expression, Literal
from repro.storage.indexes import SortedIndex

__all__ = ["PhysicalCandidate", "PhysicalPlanner"]


@dataclass(frozen=True)
class PhysicalCandidate:
    """One fully-decided physical alternative for a query."""

    root: LogicalNode
    cost: CostEstimate
    decisions: tuple[str, ...]

    def describe(self) -> str:
        parts = ", ".join(self.decisions) or "default"
        return (
            f"${self.cost.dollars:,.2f} / {self.cost.hits:,.0f} HITs"
            f" / {self.cost.local_work:,.0f} work :: {parts}"
        )


class PhysicalPlanner:
    """Enumerates physical plans for a logical plan and builds the winner."""

    #: Upper bound on costed candidates; the axes are enumerated in stable
    #: order (join orders, interfaces, placements, access paths, build
    #: sides), so truncation keeps the earliest — default-most — alternatives.
    MAX_CANDIDATES = 64

    def __init__(self, optimizer: QueryOptimizer) -> None:
        self.optimizer = optimizer

    # -- enumeration --------------------------------------------------------------------

    def choose(self, plan: LogicalPlan) -> tuple[PhysicalCandidate, tuple[PhysicalCandidate, ...]]:
        """Enumerate and cost candidates; return (winner, all candidates)."""
        candidates = self.enumerate_candidates(plan)
        chosen = min(
            candidates,
            key=lambda c: (
                round(c.cost.dollars, 9),
                c.cost.hits,
                c.cost.tasks,
                c.cost.local_work,
            ),
        )
        return chosen, tuple(candidates)

    def enumerate_candidates(self, plan: LogicalPlan) -> list[PhysicalCandidate]:
        """All physical alternatives (capped at :attr:`MAX_CANDIDATES`), costed."""
        join_orders = self._join_orders(plan)
        interface_axes = [self._join_interfaces(join) for join in plan.join_predicates]
        filter_bindings = sorted(plan.crowd_filters)
        placement_axes = [
            self._filter_placements(plan, binding) for binding in filter_bindings
        ]
        access_options = {
            binding: self._access_paths(plan, binding)
            for binding in sorted(plan.table_pipelines)
        }
        # Only bindings with a real alternative become an axis; everything
        # else keeps its default pipeline and its decision strings untouched.
        access_bindings = [b for b, paths in access_options.items() if len(paths) > 1]
        access_axes = [access_options[b] for b in access_bindings]
        build_axes = [["left", "right"] for _ in plan.local_joins]

        combos = itertools.product(
            join_orders, *interface_axes, *placement_axes, *access_axes, *build_axes
        )
        candidates: list[PhysicalCandidate] = []
        n_joins = len(plan.join_predicates)
        n_placements = len(placement_axes)
        n_accesses = len(access_bindings)
        for combo in itertools.islice(combos, self.MAX_CANDIDATES):
            order = combo[0]
            interfaces = combo[1 : 1 + n_joins]
            placements = dict(zip(filter_bindings, combo[1 + n_joins : 1 + n_joins + n_placements]))
            accesses = dict(
                zip(
                    access_bindings,
                    combo[1 + n_joins + n_placements : 1 + n_joins + n_placements + n_accesses],
                )
            )
            builds = list(combo[1 + n_joins + n_placements + n_accesses :])
            root, decisions = self._compose(
                plan, order, interfaces, placements, accesses, builds, decide_sorts=True
            )
            cost = self.optimizer.estimate_logical_cost(root)
            candidates.append(PhysicalCandidate(root=root, cost=cost, decisions=decisions))
        return candidates

    def default_tree(self, plan: LogicalPlan) -> LogicalNode:
        """The canonical undecided tree (declared join order, filters below).

        Used by EXPLAIN to show the logical plan before physical decisions.
        """
        orders = self._join_orders(plan)
        root, _decisions = self._compose(
            plan,
            orders[0],
            [None] * len(plan.join_predicates),
            {
                binding: ("below", tuple(filters))
                for binding, filters in plan.crowd_filters.items()
            },
            {},
            [None] * len(plan.local_joins),
        )
        return root

    # -- per-axis options ----------------------------------------------------------------

    def _join_orders(self, plan: LogicalPlan) -> list[tuple[int, ...]]:
        """Valid left-deep join orders as tuples of predicate indices."""
        bindings = set(plan.table_pipelines)
        predicates = plan.join_predicates
        if len(bindings) > 1 and not predicates:
            locally_joined: set[str] = set()
            for local in plan.local_joins:
                locally_joined.update((local.left_binding, local.right_binding))
            if locally_joined == bindings:
                # Machine equi-joins connect every table; the crowd join
                # order axis is empty, build sides are a separate axis.
                return [()]
            missing = ", ".join(sorted(bindings - locally_joined)) or "<none>"
            raise PlanError(
                "joining several tables requires a crowd join predicate or a "
                f"machine equi-join in WHERE linking every table (unjoined: {missing}); "
                "cartesian products are never what you want to pay for"
            )
        if not predicates:
            return [()]
        referenced = set()
        for join in predicates:
            referenced.update((join.left_binding, join.right_binding))
        if referenced != bindings:
            missing = ", ".join(sorted(bindings - referenced)) or "<none>"
            raise PlanError(
                f"tables are not connected by join predicates (unjoined: {missing}); "
                "every FROM table needs a crowd join predicate linking it in"
            )
        orders: list[tuple[int, ...]] = []
        for permutation in itertools.permutations(range(len(predicates))):
            joined: set[str] = set()
            valid = True
            for index in permutation:
                join = predicates[index]
                ends = {join.left_binding, join.right_binding}
                if not joined:
                    joined |= ends
                    continue
                overlap = ends & joined
                if len(overlap) != 1:
                    # Disconnected (0) or a cycle edge (2): not a left-deep step.
                    valid = False
                    break
                joined |= ends
            if valid:
                orders.append(permutation)
        if not orders:
            raise PlanError(
                "join predicates do not form a tree over the FROM tables; "
                "cyclic or disconnected crowd join predicates are not supported"
            )
        return orders

    def _join_interfaces(self, join: LogicalJoin) -> list[JoinStrategy]:
        if join.supports_columns:
            # COLUMNS first so equal-cost ties keep the two-column interface.
            return [JoinStrategy.COLUMNS, JoinStrategy.PAIRWISE]
        return [JoinStrategy.PAIRWISE]

    def _filter_placements(
        self, plan: LogicalPlan, binding: str
    ) -> list[tuple[str, tuple[LogicalFilter, ...]]]:
        filters = plan.crowd_filters[binding]
        if len(filters) <= 3:
            orders = [tuple(p) for p in itertools.permutations(filters)]
        else:
            orders = [tuple(filters)]
        placements = ["below"]
        if plan.join_predicates:
            placements.append("above")
        return [(placement, order) for placement in placements for order in orders]

    #: Comparison operators a secondary index can serve (sorted indexes serve
    #: all of them, hash indexes only equality).
    _RANGE_OPS = ("<", "<=", ">", ">=")
    _FLIPPED_OPS = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def _access_paths(
        self, plan: LogicalPlan, binding: str
    ) -> list[tuple[LogicalNode | None, str | None]]:
        """Access-path options for one table pipeline.

        Each option is ``(pipeline template, decision label)``; the first is
        always the default table scan (template ``None``).  Alternatives
        replace one ``filter(column op literal) → scan`` pair with a
        :class:`LogicalIndexScan` leaf, keeping every other local filter in
        its original position.  Labels stay ``None`` when no index applies,
        so queries without usable indexes keep their decision strings
        byte-identical.
        """
        node = plan.table_pipelines[binding]
        filters: list[LogicalFilter] = []
        while isinstance(node, LogicalFilter) and not node.is_crowd and node.children:
            filters.append(node)
            node = node.children[0]
        if not isinstance(node, LogicalScan):
            return [(None, None)]
        scan = node
        options: list[tuple[LogicalNode | None, str | None]] = [(None, None)]
        for position, candidate in enumerate(filters):
            match = self._indexable_comparison(scan, candidate.predicate)
            if match is None:
                continue
            column, op, value = match
            leaf: LogicalNode = LogicalIndexScan(
                scan.table,
                column=column,
                op=op,
                value=value,
                alias=scan.alias,
                binding=scan.binding,
            )
            pipeline = leaf
            for other in reversed([f for i, f in enumerate(filters) if i != position]):
                parent = other.clone()
                parent.children.clear()
                parent.add_child(pipeline)
                pipeline = parent
            options.append(
                (pipeline, f"access[{binding}]: index({column} {op} {value!r})")
            )
        if len(options) > 1:
            options[0] = (None, f"access[{binding}]: table-scan")
        return options

    def _indexable_comparison(
        self, scan: LogicalScan, predicate: Expression | None
    ) -> tuple[str, str, object] | None:
        """``(column, op, literal)`` if an index on ``scan``'s table serves it."""
        if not isinstance(predicate, Comparison):
            return None
        left, op, right = predicate.left, predicate.op, predicate.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            # Normalize ``literal op column`` to ``column op' literal``.
            left, right = right, left
            op = self._FLIPPED_OPS.get(op)
        if op is None or not isinstance(left, ColumnRef) or not isinstance(right, Literal):
            return None
        if right.value is None:
            return None  # ``col = NULL`` never matches; leave it to the filter.
        if op != "=" and op not in self._RANGE_OPS:
            return None
        column = left.name.rsplit(".", 1)[-1]
        prefix = left.name[: -len(column) - 1] if "." in left.name else None
        if prefix is not None and prefix != scan.binding:
            return None
        index = scan.table.index_on(column)
        if index is None:
            return None
        if op in self._RANGE_OPS and not isinstance(index, SortedIndex):
            return None
        return column, op, right.value

    # -- candidate composition ------------------------------------------------------------

    def _compose(
        self,
        plan: LogicalPlan,
        join_order: tuple[int, ...],
        join_strategies,
        filter_choices: dict[str, tuple[str, tuple[LogicalFilter, ...]]],
        access_choices: dict[str, tuple[LogicalNode | None, str | None]],
        build_choices: list[str | None] | None = None,
        *,
        decide_sorts: bool = False,
    ) -> tuple[LogicalNode, tuple[str, ...]]:
        decisions: list[str] = []
        pipelines: dict[str, LogicalNode] = {}
        for binding, node in plan.table_pipelines.items():
            template, label = access_choices.get(binding, (None, None))
            pipelines[binding] = (template or node).clone()
            if label is not None:
                decisions.append(label)

        for binding in sorted(filter_choices):
            placement, order = filter_choices[binding]
            names = "+".join(f.spec.name for f in order)
            if placement == "below":
                for template in order:
                    node = template.clone()
                    node.add_child(pipelines[binding])
                    pipelines[binding] = node
            if plan.join_predicates:
                decisions.append(f"filter[{names}]: {placement} join")
            elif len(order) > 1:
                decisions.append(f"filter order[{binding}]: {names}")

        current: LogicalNode | None = None
        joined: set[str] = set()
        order_labels: list[str] = []
        for index in join_order:
            template = plan.join_predicates[index]
            node = template.clone()
            # join_strategies is indexed by predicate, not by order position.
            strategy = join_strategies[index] if join_strategies else None
            node.strategy = strategy
            left, right = template.left_binding, template.right_binding
            if current is None:
                node.add_child(pipelines[left])
                node.add_child(pipelines[right])
                joined |= {left, right}
            elif left in joined:
                node.add_child(current)
                node.add_child(pipelines[right])
                joined.add(right)
            else:
                node.add_child(pipelines[left])
                node.add_child(current)
                joined.add(left)
            current = node
            order_labels.append(template.spec.name)
            if strategy is not None:
                decisions.append(f"join[{template.spec.name}]: {strategy.value}")
        if len(join_order) > 1:
            decisions.append("join order: " + " -> ".join(order_labels))

        for position, template in enumerate(plan.local_joins):
            node = template.clone()
            side = build_choices[position] if build_choices else None
            node.build_side = side
            left, right = template.left_binding, template.right_binding
            if current is None:
                node.add_child(pipelines[left])
                node.add_child(pipelines[right])
                joined |= {left, right}
            elif left in joined:
                node.add_child(current)
                node.add_child(pipelines[right])
                joined.add(right)
            elif right in joined:
                node.add_child(pipelines[left])
                node.add_child(current)
                joined.add(left)
            else:
                raise PlanError(
                    "machine equi-join predicates do not form a connected chain "
                    "over the FROM tables; reorder them so each one links a new "
                    "table to the already-joined ones"
                )
            current = node
            if side is not None:
                build_child = node.children[0] if side == "left" else node.children[1]
                index_backed = isinstance(build_child, LogicalScan) and node.index_backed(side)
                tag = " (index-backed)" if index_backed else ""
                decisions.append(
                    f"local-join[{template.left_key} = {template.right_key}]: "
                    f"build={side}{tag}"
                )

        if current is None:
            current = next(iter(pipelines.values()))

        for template in plan.post_join_filters:
            node = template.clone()
            node.add_child(current)
            current = node

        for binding in sorted(filter_choices):
            placement, order = filter_choices[binding]
            if placement != "above":
                continue
            for template in order:
                node = template.clone()
                node.add_child(current)
                current = node

        for template in plan.upper:
            node = template.clone()
            if decide_sorts and isinstance(node, LogicalSort) and node.is_crowd:
                node.strategy = node.preferred_strategy
                decisions.append(f"sort[{node.spec.name}]: {node.strategy.value}")
            node.add_child(current)
            current = node
        return current, tuple(decisions)

    # -- physical construction -------------------------------------------------------------

    def build(self, root: LogicalNode) -> Operator:
        """Turn a decided (and annotated) logical tree into physical operators."""
        return self._build_node(root)

    def _build_node(self, node: LogicalNode) -> Operator:
        children = [self._build_node(child) for child in node.children]
        operator = self._make_operator(node, children)
        for child in children:
            operator.add_child(child)
        operator.planned_input_rows = (
            node.children[0].estimated_rows if node.children else None
        )
        if isinstance(operator, CrowdJoinOperator) and len(node.children) == 2:
            operator.planned_left_rows = node.children[0].estimated_rows
            operator.planned_right_rows = node.children[1].estimated_rows
        return operator

    def _make_operator(self, node: LogicalNode, children: list[Operator]) -> Operator:
        input_schema = children[0].output_schema if children else None
        if isinstance(node, LogicalScan):
            return ScanOperator(node.table, alias=node.alias)
        if isinstance(node, LogicalIndexScan):
            return IndexScanOperator(
                node.table, node.column, node.op, node.value, alias=node.alias
            )
        if isinstance(node, LogicalFilter):
            if node.is_crowd:
                return CrowdFilterOperator(
                    node.spec,
                    list(node.call.args) if node.call is not None else [],
                    input_schema,
                    negate=node.negate,
                )
            return LocalFilterOperator(node.predicate, input_schema)
        if isinstance(node, LogicalJoin):
            entry = node.entry
            return CrowdJoinOperator(
                node.spec,
                children[0].output_schema,
                children[1].output_schema,
                strategy=node.strategy,
                pairs_per_hit=node.pairs_per_hit,
                left_per_hit=node.left_per_hit,
                right_per_hit=node.right_per_hit,
                left_payload=entry.left_payload if entry else None,
                right_payload=entry.right_payload if entry else None,
                prefilter=entry.prefilter if entry else None,
            )
        if isinstance(node, LogicalLocalJoin):
            return LocalHashJoinOperator(
                node.left_key,
                node.right_key,
                children[0].output_schema,
                children[1].output_schema,
                build_side=node.build_side or "left",
            )
        if isinstance(node, LogicalGenerate):
            return CrowdGenerateOperator(
                node.spec,
                list(node.call.args) if node.call is not None else [],
                input_schema,
                output_prefix=node.output_prefix,
            )
        if isinstance(node, LogicalSort):
            if node.is_crowd:
                entry = node.entry
                return CrowdSortOperator(
                    node.spec,
                    input_schema,
                    strategy=node.strategy,
                    descending=not node.ascending,
                    items_per_hit=node.items_per_hit,
                    payload=entry.payload if entry else None,
                )
            return LocalSortOperator(node.key, input_schema, ascending=node.ascending)
        if isinstance(node, LogicalGroupBy):
            return GroupByOperator(node.group_columns, node.aggregates, input_schema)
        if isinstance(node, LogicalLimit):
            return LimitOperator(node.limit, input_schema)
        if isinstance(node, LogicalProject):
            return _build_projection(node.items)
        raise PlanError(f"cannot build a physical operator for {node.label()}")


def _build_projection(select_items) -> ProjectOperator:
    """The final projection, with de-duplicated output column names."""
    items: list[ProjectionItem] = []
    seen: set[str] = set()
    for item in select_items:
        name = item.alias or _default_output_name(item.expression)
        base = name
        counter = 2
        while name in seen:
            name = f"{base}_{counter}"
            counter += 1
        seen.add(name)
        items.append(ProjectionItem(name, item.expression))
    return ProjectOperator(items)


def _default_output_name(expression: Expression) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    return str(expression)
