"""The logical plan IR: what a query computes, before deciding how.

The paper's Query Optimizer "compiles the query into a query plan and
adaptively optimizes it during query execution".  To do that well the
planner needs a representation that is *stable under physical decisions*:
whether a crowd join runs as pairwise HITs or the two-column Figure 3
interface, or a crowd ORDER BY as comparisons or ratings, must not change
what the plan means.  This module provides that representation:

* :class:`LogicalScan` / :class:`LogicalFilter` / :class:`LogicalJoin` /
  :class:`LogicalGenerate` / :class:`LogicalSort` / :class:`LogicalProject` /
  :class:`LogicalGroupBy` / :class:`LogicalLimit` nodes, each knowing how to
  estimate its own cost and output cardinality (per-node costing — the
  optimizer no longer owns an ``isinstance`` ladder);
* bottom-up cardinality annotation (:func:`annotate_plan`), which stamps
  ``estimated_rows`` / ``estimated_cost`` on every node;
* a structural bridge from physical operator trees back into the IR
  (:func:`from_physical`), so running plans are re-costed through the same
  per-node code path the enumerator uses — by the dashboard's cost estimate
  and by the adaptive replanner, which pins finished operators' nodes to the
  rows they emitted (:attr:`LogicalNode.observed_rows`) and reads the
  cardinalities flowing into the pending ones;
* a compact text rendering (:func:`render_tree`) used by ``EXPLAIN``.

Physical *decisions* (join interface, sort strategy, filter placement) are
carried as optional annotations on the logical nodes: ``None`` means
"undecided — cost the preferred default", a concrete value means the
:class:`~repro.core.plan.physical.PhysicalPlanner` (or a running operator)
has committed to it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.operators.aggregate import AggregateSpec, GroupByOperator, LimitOperator
from repro.core.operators.base import Operator
from repro.core.operators.crowd_filter import CrowdFilterOperator
from repro.core.operators.crowd_generate import CrowdGenerateOperator
from repro.core.operators.crowd_join import CrowdJoinOperator, JoinStrategy
from repro.core.operators.crowd_sort import CrowdSortOperator, SortStrategy
from repro.core.operators.join_local import LocalHashJoinOperator
from repro.core.operators.project import LocalFilterOperator, ProjectOperator
from repro.core.operators.scan import IndexScanOperator, ScanOperator
from repro.core.operators.sort_local import LocalSortOperator
from repro.core.optimizer.cost_model import CostEstimate, cheaper_join_strategy
from repro.core.tasks.spec import JoinColumnsResponse, RatingResponse, TaskSpec
from repro.storage.expressions import ColumnRef, Expression, FunctionCall
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.lang.ast import SelectItem
    from repro.core.plan.registry import RegisteredTask

__all__ = [
    "LogicalNode",
    "LogicalScan",
    "LogicalIndexScan",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalLocalJoin",
    "LogicalGenerate",
    "LogicalSort",
    "LogicalProject",
    "LogicalGroupBy",
    "LogicalLimit",
    "LogicalPlan",
    "annotate_plan",
    "render_tree",
    "from_physical",
]


class LogicalNode:
    """Base class for logical plan nodes.

    Nodes form a tree via :attr:`children`.  After :func:`annotate_plan`
    runs, :attr:`estimated_rows` holds the bottom-up output-cardinality
    estimate and :attr:`estimated_cost` this node's own crowd cost.  A node
    whose :attr:`observed_rows` is set (a finished operator, mirrored by
    :func:`from_physical`) reports that count instead of estimating one.
    """

    observed_rows: float | None = None

    def __init__(self) -> None:
        self.children: list[LogicalNode] = []
        self.estimated_rows: float | None = None
        self.estimated_cost: CostEstimate | None = None

    # -- tree plumbing -------------------------------------------------------------

    def add_child(self, child: "LogicalNode") -> "LogicalNode":
        self.children.append(child)
        return self

    def walk(self) -> Iterable["LogicalNode"]:
        """This node and all descendants, children first."""
        for child in self.children:
            yield from child.walk()
        yield self

    def clone(self) -> "LogicalNode":
        """A deep copy of this subtree (annotations reset, decisions kept).

        Nodes are copied, what they point at (tables, specs, expressions,
        select items) is shared: none of it is mutated by planning.
        """
        node = copy.copy(self)
        node.children = [child.clone() for child in self.children]
        node.estimated_rows = None
        node.estimated_cost = None
        return node

    # -- costing protocol ----------------------------------------------------------

    def label(self) -> str:
        """Compact description used by EXPLAIN renderings."""
        raise NotImplementedError

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        """Cardinality this node emits given its children's cardinalities.

        The default is the pass-through convention local operators follow:
        the first child's cardinality (leaves return 0).
        """
        return child_rows[0] if child_rows else 0.0

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        """Crowd cost attributable to this node alone (default: free)."""
        return CostEstimate()

    def __repr__(self) -> str:
        rows = "?" if self.estimated_rows is None else f"{self.estimated_rows:g}"
        return f"{type(self).__name__}({self.label()}, ~{rows} rows)"


#: Abstract machine-work units (see :class:`CostEstimate.local_work`): a full
#: scan touches every row once; a pushed-down local filter re-touches its
#: input more cheaply (compiled column kernel); an index scan pays a probe
#: plus a per-match gather that is pricier than a sequential touch.  The
#: constants only need to order access paths sensibly: selective predicates
#: favor the index, unselective ones the scan.
SCAN_WORK_PER_ROW = 1.0
FILTER_WORK_PER_ROW = 0.25
INDEX_MATCH_WORK_PER_ROW = 1.5

#: Matched-fraction guess for range predicates without value distribution
#: statistics (the classic 1/3 selectivity heuristic).
RANGE_SELECTIVITY = 1.0 / 3.0


class LogicalScan(LogicalNode):
    """A base-table scan; the leaf of every logical plan."""

    def __init__(self, table: Table, *, alias: str | None = None, binding: str | None = None):
        super().__init__()
        self.table = table
        self.alias = alias
        self.binding = binding or alias or table.name

    def label(self) -> str:
        return f"scan({self.binding})"

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        return float(len(self.table))

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        return CostEstimate(local_work=SCAN_WORK_PER_ROW * len(self.table))


class LogicalIndexScan(LogicalNode):
    """A base-table access through a secondary index on one predicate.

    Replaces a ``filter(column op literal) → scan`` pair when the column
    carries an index that can serve ``op``.  The *output cardinality*
    deliberately follows the same pass-through convention as the local
    filter it replaces (local selectivity never feeds crowd-cost estimates),
    so every crowd dollar/HIT estimate is identical across access paths and
    only ``local_work`` — probe cost plus estimated matches, from catalog
    statistics — separates index scan from scan-then-filter.
    """

    def __init__(
        self,
        table: Table,
        *,
        column: str,
        op: str,
        value: object,
        alias: str | None = None,
        binding: str | None = None,
    ):
        super().__init__()
        self.table = table
        self.column = column
        self.op = op
        self.value = value
        self.alias = alias
        self.binding = binding or alias or table.name

    def label(self) -> str:
        return f"index-scan({self.binding}.{self.column} {self.op} {self.value!r})"

    def estimated_matches(self) -> float:
        """Expected matching rows, from catalog statistics.

        Equality predicates assume a uniform distribution over the column's
        distinct values; range predicates fall back to the 1/3 heuristic.
        """
        n = float(len(self.table))
        if self.op == "=":
            distinct = self.table.distinct_count(self.column) or 1
            return n / max(distinct, 1)
        return n * RANGE_SELECTIVITY

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        # Pass-through, matching the filter+scan chain this node replaces —
        # see the class docstring for why.
        return float(len(self.table))

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        n = max(float(len(self.table)), 1.0)
        probe = math.log2(n) + 1.0
        return CostEstimate(
            local_work=probe + INDEX_MATCH_WORK_PER_ROW * self.estimated_matches()
        )


class LogicalFilter(LogicalNode):
    """A selection: either a free local predicate or a crowd yes/no question."""

    def __init__(
        self,
        *,
        predicate: Expression | None = None,
        spec: TaskSpec | None = None,
        call: FunctionCall | None = None,
        entry: "RegisteredTask | None" = None,
        negate: bool = False,
    ):
        super().__init__()
        if (predicate is None) == (spec is None):
            raise ValueError("a LogicalFilter is either local (predicate) or crowd (spec)")
        self.predicate = predicate
        self.spec = spec
        self.call = call
        self.entry = entry
        self.negate = negate

    @property
    def is_crowd(self) -> bool:
        return self.spec is not None

    def label(self) -> str:
        if self.is_crowd:
            prefix = "NOT " if self.negate else ""
            return f"crowd-filter({prefix}{self.spec.name})"
        return "filter(local)"

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        rows = child_rows[0] if child_rows else 0.0
        if not self.is_crowd:
            return rows  # local selectivity is unknown; pass through (free anyway)
        selectivity = costing.selectivity(self.spec.name)
        if self.negate:
            selectivity = 1.0 - selectivity
        return rows * selectivity

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        rows = child_rows[0] if child_rows else 0.0
        if not self.is_crowd:
            return CostEstimate(local_work=FILTER_WORK_PER_ROW * rows)
        estimate = costing.cost_model.filter_cost(
            self.spec, rows, assignments=costing.assignments_for(self.spec)
        )
        # A trusted learned model answers instead of the crowd: ~zero cost.
        return costing.discount_for_model(self.spec, estimate)


class LogicalJoin(LogicalNode):
    """A crowd-evaluated join of two inputs.

    ``strategy`` is the physical decision (``None`` = undecided; costing then
    assumes the cheaper interface, mirroring what enumeration will pick).
    """

    def __init__(
        self,
        spec: TaskSpec,
        *,
        call: FunctionCall | None = None,
        entry: "RegisteredTask | None" = None,
        left_binding: str = "",
        right_binding: str = "",
        strategy: JoinStrategy | None = None,
        pairs_per_hit: int | None = None,
        left_per_hit: int | None = None,
        right_per_hit: int | None = None,
    ):
        super().__init__()
        self.spec = spec
        self.call = call
        self.entry = entry
        self.left_binding = left_binding
        self.right_binding = right_binding
        self.strategy = strategy
        response = spec.response
        block = response if isinstance(response, JoinColumnsResponse) else None
        self.pairs_per_hit = pairs_per_hit if pairs_per_hit is not None else max(spec.batch_size, 1)
        self.left_per_hit = left_per_hit or (block.left_per_hit if block else 3)
        self.right_per_hit = right_per_hit or (block.right_per_hit if block else 3)

    @property
    def supports_columns(self) -> bool:
        return isinstance(self.spec.response, JoinColumnsResponse)

    def label(self) -> str:
        decided = f",{self.strategy.value}" if self.strategy is not None else ""
        return f"crowd-join({self.spec.name}{decided})"

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        costs = costing.cost_model.join_strategy_costs(
            self.spec,
            child_rows[0] if child_rows else 0.0,
            child_rows[1] if len(child_rows) > 1 else 0.0,
            assignments=costing.assignments_for(self.spec),
            pairs_per_hit=self.pairs_per_hit,
            left_per_hit=self.left_per_hit,
            right_per_hit=self.right_per_hit,
        )
        # Undecided: assume the interface enumeration will pick — the cheaper
        # one, with COLUMNS winning ties exactly as the enumerator orders them.
        strategy = self.strategy if self.strategy in costs else cheaper_join_strategy(costs)
        # A trusted learned model answers pair judgements instead of the
        # crowd — every interface shrinks by the same residual, so the
        # strategy choice itself is unchanged but join placement competes
        # on the ~zero escalated cost.
        return costing.discount_for_model(self.spec, costs[strategy])

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        n_left = child_rows[0] if child_rows else 0.0
        n_right = child_rows[1] if len(child_rows) > 1 else 0.0
        selectivity = costing.selectivity(
            self.spec.name, prior=min(1.0 / max(n_right, 1.0), 1.0)
        )
        return max(n_left * n_right * selectivity, 0.0)


#: Machine-work constants for the local hash join: hashing a build row costs
#: more than streaming a probe row past the table, and reusing a base table's
#: existing hash index skips the build entirely (only the probe remains).
HASH_BUILD_WORK_PER_ROW = 2.0
HASH_PROBE_WORK_PER_ROW = 1.0


class LogicalLocalJoin(LogicalNode):
    """A machine-evaluated equi-join of two inputs (no crowd money involved).

    Lowered from ``FROM a, b WHERE a.id = b.id`` when no crowd join predicate
    connects the tables.  ``build_side`` is the physical decision: which
    child is hashed (``None`` = undecided; costing then assumes the cheaper
    side, mirroring what enumeration will pick).  ``left_table`` /
    ``right_table`` carry the base tables when the keys are bare columns, so
    output cardinality comes from catalog ``distinct_count`` statistics and
    the cost model can see whether an existing hash index makes one build
    side free.
    """

    def __init__(
        self,
        *,
        left_key: Expression,
        right_key: Expression,
        left_binding: str = "",
        right_binding: str = "",
        left_table: Table | None = None,
        right_table: Table | None = None,
        left_column: str | None = None,
        right_column: str | None = None,
        build_side: str | None = None,
    ):
        super().__init__()
        self.left_key = left_key
        self.right_key = right_key
        self.left_binding = left_binding
        self.right_binding = right_binding
        self.left_table = left_table
        self.right_table = right_table
        self.left_column = left_column
        self.right_column = right_column
        self.build_side = build_side

    def label(self) -> str:
        decided = f",build={self.build_side}" if self.build_side is not None else ""
        return f"local-join({self.left_key} = {self.right_key}{decided})"

    def _distinct(self, side: str) -> float | None:
        table = self.left_table if side == "left" else self.right_table
        column = self.left_column if side == "left" else self.right_column
        if table is None or column is None:
            return None
        distinct = table.distinct_count(column)
        return float(distinct) if distinct else None

    def index_backed(self, side: str) -> bool:
        """Whether ``side`` has a reusable hash index on its join key."""
        from repro.storage.indexes import HashIndex

        table = self.left_table if side == "left" else self.right_table
        column = self.left_column if side == "left" else self.right_column
        if table is None or column is None:
            return False
        return isinstance(table.index_on(column), HashIndex)

    def estimate_output_rows(self, child_rows: list[float], costing) -> float:
        n_left = child_rows[0] if child_rows else 0.0
        n_right = child_rows[1] if len(child_rows) > 1 else 0.0
        # Classic equi-join estimate: |L|·|R| / max(d(L.key), d(R.key)).
        distincts = [d for d in (self._distinct("left"), self._distinct("right")) if d]
        if distincts:
            return n_left * n_right / max(distincts)
        return min(n_left, n_right)

    def _side_work(self, side: str, build_rows: float, probe_rows: float) -> float:
        build = 0.0 if self.index_backed(side) else HASH_BUILD_WORK_PER_ROW * build_rows
        return build + HASH_PROBE_WORK_PER_ROW * probe_rows

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        n_left = child_rows[0] if child_rows else 0.0
        n_right = child_rows[1] if len(child_rows) > 1 else 0.0
        works = {
            "left": self._side_work("left", n_left, n_right),
            "right": self._side_work("right", n_right, n_left),
        }
        if self.build_side is not None:
            return CostEstimate(local_work=works[self.build_side])
        # Undecided: assume enumeration picks the cheaper side (ties → left,
        # matching the enumerator's axis order).
        return CostEstimate(local_work=min(works["left"], works["right"]))


class LogicalGenerate(LogicalNode):
    """Schema extension: run a Question task once per input tuple."""

    def __init__(
        self,
        spec: TaskSpec,
        *,
        call: FunctionCall | None = None,
        entry: "RegisteredTask | None" = None,
        output_prefix: str | None = None,
    ):
        super().__init__()
        self.spec = spec
        self.call = call
        self.entry = entry
        self.output_prefix = output_prefix or spec.name

    def label(self) -> str:
        return f"crowd-generate({self.spec.name})"

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        rows = child_rows[0] if child_rows else 0.0
        # One SpecStats fetch per node per costing pass: the cache hit rate
        # and any other statistic derive from the same snapshot.
        stats = costing.spec_stats(self.spec.name)
        cache_rate = stats.cache_hits / max(stats.tasks_completed, 1)
        return costing.cost_model.generate_cost(
            self.spec,
            rows,
            assignments=costing.assignments_for(self.spec),
            cache_hit_rate=cache_rate,
        )


class LogicalSort(LogicalNode):
    """An ORDER BY step: a crowd-ranked sort or a free local sort."""

    def __init__(
        self,
        *,
        spec: TaskSpec | None = None,
        call: FunctionCall | None = None,
        entry: "RegisteredTask | None" = None,
        key: Expression | None = None,
        ascending: bool = True,
        strategy: SortStrategy | None = None,
        items_per_hit: int | None = None,
    ):
        super().__init__()
        if (spec is None) == (key is None):
            raise ValueError("a LogicalSort is either crowd (spec) or local (key)")
        self.spec = spec
        self.call = call
        self.entry = entry
        self.key = key
        self.ascending = ascending
        self.strategy = strategy
        self.items_per_hit = items_per_hit or (max(spec.batch_size, 1) if spec else 1)

    @property
    def is_crowd(self) -> bool:
        return self.spec is not None

    @property
    def preferred_strategy(self) -> SortStrategy:
        """The strategy the spec's Response type asks for (authoritative default)."""
        if self.spec is not None and isinstance(self.spec.response, RatingResponse):
            return SortStrategy.RATING
        return SortStrategy.COMPARISON

    def label(self) -> str:
        if not self.is_crowd:
            return "sort(local)"
        decided = f",{self.strategy.value}" if self.strategy is not None else ""
        return f"crowd-sort({self.spec.name}{decided})"

    def estimate_cost(self, child_rows: list[float], costing) -> CostEstimate:
        if not self.is_crowd:
            return CostEstimate()
        costs = costing.cost_model.sort_strategy_costs(
            self.spec,
            child_rows[0] if child_rows else 0.0,
            assignments=costing.assignments_for(self.spec),
            items_per_hit=self.items_per_hit,
        )
        return costs[self.strategy if self.strategy is not None else self.preferred_strategy]


class LogicalProject(LogicalNode):
    """The final projection over (possibly rewritten) SELECT items."""

    def __init__(self, items: "tuple[SelectItem, ...] | list[SelectItem]" = ()):
        super().__init__()
        self.items = tuple(items)

    def label(self) -> str:
        return "project"


class LogicalGroupBy(LogicalNode):
    """Grouping plus aggregate evaluation (a free local operation)."""

    def __init__(self, group_columns: list[str], aggregates: list[AggregateSpec]):
        super().__init__()
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)

    def label(self) -> str:
        return "group-by"


class LogicalLimit(LogicalNode):
    """LIMIT n.  Cardinality passes through: the crowd work above a LIMIT is
    bounded by its *input*, and upstream operators cannot stop early anyway."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def label(self) -> str:
        return f"limit({self.limit})"


class _Passthrough(LogicalNode):
    """Costing stand-in for sinks and any operator the IR has no word for."""

    def __init__(self, name: str = "passthrough"):
        super().__init__()
        self._name = name

    def label(self) -> str:
        return self._name


@dataclass
class LogicalPlan:
    """The output of lowering: the query's pieces, before physical choices.

    The plan deliberately keeps the *movable* parts apart instead of fixing
    one tree: per-table pipelines (scan plus pushed-down local predicates),
    the crowd filters whose placement the physical planner may move above the
    joins, the join predicates whose order and interface are enumerated, and
    the fixed upper chain (generates, sorts, grouping, limit, projection —
    bottom-up).  :meth:`~repro.core.plan.physical.PhysicalPlanner.choose`
    composes candidate trees out of these pieces.
    """

    statement: object
    table_pipelines: dict[str, LogicalNode] = field(default_factory=dict)
    crowd_filters: dict[str, list[LogicalFilter]] = field(default_factory=dict)
    join_predicates: list[LogicalJoin] = field(default_factory=list)
    #: Machine equi-joins connecting the FROM tables when no crowd join
    #: predicate does (``FROM a, b WHERE a.id = b.id``); the physical planner
    #: enumerates each join's build side.
    local_joins: list[LogicalLocalJoin] = field(default_factory=list)
    post_join_filters: list[LogicalFilter] = field(default_factory=list)
    upper: list[LogicalNode] = field(default_factory=list)
    select_items: tuple = ()


# -- annotation and rendering ------------------------------------------------------------


def annotate_plan(root: LogicalNode, costing) -> CostEstimate:
    """Cost a logical plan bottom-up, annotating every node.

    ``costing`` is the optimizer's per-pass costing context (cached spec
    statistics, cost model, redundancy choices).  Returns the plan total.
    """
    total = CostEstimate()

    def visit(node: LogicalNode) -> float:
        nonlocal total
        child_rows = [visit(child) for child in node.children]
        cost = node.estimate_cost(child_rows, costing)
        node.estimated_cost = cost
        total = total.plus(cost)
        rows = node.observed_rows
        if rows is None:
            rows = node.estimate_output_rows(child_rows, costing)
        node.estimated_rows = rows
        return rows

    visit(root)
    return total


def render_tree(root: LogicalNode) -> str:
    """Indented text rendering with cardinality annotations (for EXPLAIN)."""
    lines: list[str] = []

    def visit(node: LogicalNode, depth: int) -> None:
        rows = "" if node.estimated_rows is None else f"  [~{node.estimated_rows:,.1f} rows]"
        cost = ""
        if node.estimated_cost is not None and node.estimated_cost.dollars > 0:
            cost = f"  (${node.estimated_cost.dollars:,.2f}, {node.estimated_cost.hits:,.0f} HITs)"
        lines.append("  " * depth + node.label() + rows + cost)
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


# -- physical -> logical bridge -----------------------------------------------------------


def from_physical(operator: Operator) -> LogicalNode:
    """Mirror a physical operator tree as logical nodes for re-costing.

    Decisions already taken by the physical plan (join interface, sort
    strategy, batching) are carried over, so re-costing a running plan prices
    exactly the plan that is executing.  This is a structural mapping only —
    all costing lives on the logical nodes.  Each operator becomes exactly
    one node with its children in the same order, so
    ``zip(operator.walk(), node.walk())`` pairs every operator with its node.
    """
    if isinstance(operator, ScanOperator):
        return LogicalScan(operator.table, alias=operator.alias, binding=operator.alias)
    if isinstance(operator, IndexScanOperator):
        return LogicalIndexScan(
            operator.table,
            column=operator.column,
            op=operator.op,
            value=operator.value,
            alias=operator.alias,
            binding=operator.alias,
        )

    children = [from_physical(child) for child in operator.children]

    node: LogicalNode
    if isinstance(operator, CrowdFilterOperator):
        node = LogicalFilter(spec=operator.spec, negate=operator.negate)
    elif isinstance(operator, CrowdGenerateOperator):
        node = LogicalGenerate(operator.spec)
    elif isinstance(operator, CrowdJoinOperator):
        node = LogicalJoin(
            operator.spec,
            strategy=operator.strategy,
            pairs_per_hit=operator.pairs_per_hit,
            left_per_hit=operator.left_per_hit,
            right_per_hit=operator.right_per_hit,
        )
    elif isinstance(operator, CrowdSortOperator):
        node = LogicalSort(
            spec=operator.spec,
            strategy=operator.strategy,
            ascending=not operator.descending,
            items_per_hit=operator.items_per_hit,
        )
    elif isinstance(operator, LocalHashJoinOperator):
        left_table, left_column = _join_key_source(operator.left_key, children[0])
        right_table, right_column = _join_key_source(operator.right_key, children[1])
        node = LogicalLocalJoin(
            left_key=operator.left_key,
            right_key=operator.right_key,
            left_table=left_table,
            right_table=right_table,
            left_column=left_column,
            right_column=right_column,
            build_side=operator.build_side,
        )
    elif isinstance(operator, LocalFilterOperator):
        node = LogicalFilter(predicate=operator.predicate)
    elif isinstance(operator, LocalSortOperator):
        node = LogicalSort(key=operator.key, ascending=operator.ascending)
    elif isinstance(operator, GroupByOperator):
        node = LogicalGroupBy(operator.group_columns, operator.aggregates)
    elif isinstance(operator, LimitOperator):
        node = LogicalLimit(operator.limit)
    elif isinstance(operator, ProjectOperator):
        node = LogicalProject()
    else:
        node = _Passthrough(operator.name)

    for child in children:
        node.add_child(child)
    return node


def _join_key_source(key: Expression, side: LogicalNode) -> tuple[Table | None, str | None]:
    """The base table and bare column a local-join key reads, or ``(None, None)``.

    Resolved the way the planner resolves a join key against its FROM
    bindings, so a mirrored local join estimates its output with the same
    ``distinct_count`` statistics as the planned one.
    """
    if not isinstance(key, ColumnRef):
        return None, None
    for node in side.walk():
        if isinstance(node, (LogicalScan, LogicalIndexScan)) and (
            key.name in node.table.schema.qualified(node.binding)
        ):
            return node.table, key.name.rsplit(".", 1)[-1]
    return None, None
