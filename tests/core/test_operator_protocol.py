"""The one operator protocol: its shape, and that batch *shape* is invisible.

``repro.core.operators.base`` promises that a step drains every queued row
whatever the batch shapes, so how an emitter grouped its output can never
change per-step row counts, HIT batching or the determinism fingerprints.
These tests hold every operator to that promise, and hold the protocol
itself to one input hook, one ``push`` and one ``emit``.
"""

import inspect
import random

import pytest

import repro.core.operators as operators_package
from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle
from repro.core.exec.scheduler import EngineScheduler
from repro.core.operators import (
    AggregateSpec,
    CrowdFilterOperator,
    CrowdGenerateOperator,
    CrowdJoinOperator,
    CrowdSortOperator,
    GroupByOperator,
    JoinStrategy,
    LimitOperator,
    LocalFilterOperator,
    LocalHashJoinOperator,
    LocalSortOperator,
    Operator,
    ProjectOperator,
    ProjectionItem,
    ResultSinkOperator,
    SortStrategy,
)
from repro.core.operators.scan import _TableAccessOperator
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.task_manager import TaskManager
from repro.crowd import MTurkSimulator, PopulationMix, SimulationClock, WorkerPool
from repro.errors import OperatorError
from repro.storage import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Database,
    DataType,
    Literal,
    Schema,
    Table,
)
from repro.storage.batch import RowBatch
from repro.workloads import CelebrityWorkload, CompaniesWorkload, CompositeOracle, ProductsWorkload

REMOVED_NAMES = (
    "_process_batch",
    "_process_batches",
    "push_batch",
    "push_rowbatch",
    "emit_batch",
    "emit_rowbatch",
)


def operator_classes():
    """Every operator class the package defines, exported or internal."""
    found, frontier = [], [Operator]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            if cls.__module__.startswith(operators_package.__name__):
                found.append(cls)
                frontier.append(cls)
    return found


class TestProtocolContract:
    def test_every_exported_operator_is_walked(self):
        exported = {
            getattr(operators_package, name)
            for name in operators_package.__all__
            if inspect.isclass(getattr(operators_package, name))
            and issubclass(getattr(operators_package, name), Operator)
        }
        assert exported - {Operator} <= set(operator_classes())
        assert len(exported) >= 12

    @pytest.mark.parametrize("cls", [Operator, *operator_classes()], ids=lambda c: c.__name__)
    def test_one_input_hook_and_none_of_the_removed_names(self, cls):
        for name in REMOVED_NAMES:
            assert not hasattr(cls, name), f"{cls.__name__} still defines {name}"
        assert list(inspect.signature(cls._process).parameters) == ["self", "batch", "slot"]
        overrides_hook = cls._process is not Operator._process
        is_leaf = issubclass(cls, _TableAccessOperator)
        if cls is not Operator:
            assert overrides_hook is not is_leaf, (
                f"{cls.__name__}: leaves take no input, every other operator "
                "implements the single _process(batch, slot) hook"
            )
        # One way in: nothing re-implements how batches enter a queue.
        assert cls.push is Operator.push

    def test_the_base_hook_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Operator("bare")._process(RowBatch.empty(Schema.of("a")), 0)


# -- a non-leaf operator cannot be opened without its input --------------------

SCHEMA = Schema.of(("id", DataType.INTEGER), ("grp", DataType.STRING), ("score", DataType.FLOAT))


def build_context(oracles=None, seed=3):
    database = Database()
    clock = SimulationClock()
    pool = WorkerPool(
        size=60, seed=seed, mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0)
    )
    platform = MTurkSimulator(clock, pool, CompositeOracle(oracles or {}))
    statistics = StatisticsManager()
    budget = BudgetLedger()
    manager = TaskManager(platform, statistics, budget)
    return ExecutionContext(
        "q1", database, manager, statistics, budget, clock, QueryConfig(adaptive=False)
    )


class TestOpenWithoutInput:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProjectOperator([ProjectionItem("id", ColumnRef("id"))]),
            lambda: LocalFilterOperator(Comparison(">", ColumnRef("score"), Literal(0.5)), SCHEMA),
            lambda: CrowdFilterOperator(
                ProductsWorkload(n_products=2).color_filter_spec(), [ColumnRef("grp")], SCHEMA
            ),
            lambda: CrowdGenerateOperator(
                CompaniesWorkload(n_companies=2).findceo_spec(), [ColumnRef("grp")], SCHEMA
            ),
        ],
        ids=["project", "local-filter", "crowd-filter", "crowd-generate"],
    )
    def test_open_raises_an_operator_error_naming_the_operator(self, build):
        operator = build()
        with pytest.raises(OperatorError, match=operator.name.split("(")[0]):
            operator.open(build_context())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LocalSortOperator(ColumnRef("score"), SCHEMA),
            lambda: GroupByOperator(["grp"], [AggregateSpec("n", "count", None)], SCHEMA),
            lambda: LocalHashJoinOperator(
                ColumnRef("grp"), ColumnRef("name"), SCHEMA, Schema.of("name")
            ),
        ],
        ids=["local-sort", "group-by", "local-hash-join"],
    )
    def test_blocking_operators_refuse_to_finish_without_their_input(self, build):
        operator = build()
        operator.open(build_context())
        with pytest.raises(OperatorError, match=operator.name.split("(")[0]):
            operator.step()


# -- batch shape is invisible --------------------------------------------------


class Feed(Operator):
    """A test leaf that hands its parent pre-cut batches, all on the first step."""

    def __init__(self, schema, batches):
        super().__init__("feed")
        self._schema = schema
        self._pending = list(batches)

    @property
    def output_schema(self):
        return self._schema

    def step(self):
        fed = bool(self._pending)
        for batch in self._pending:
            self.emit(batch)
        self._pending = []
        return super().step() or fed


def cut(batch, shape):
    """``batch`` as one batch, as one-row batches, or as a seeded random partition."""
    n = len(batch)
    if shape == "whole":
        cuts = [0, n]
    elif shape == "rows":
        cuts = list(range(n + 1))
    else:
        rng = random.Random(shape)
        cuts = [0, *sorted(rng.sample(range(1, n), rng.randint(1, n - 1))), n]
    return [batch.slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def local_rows(n=40, seed=5):
    rng = random.Random(seed)
    rows = [(i, f"g{rng.randrange(4)}", rng.choice([None, rng.random()])) for i in range(n)]
    return RowBatch.from_values(SCHEMA, rows)


def table_batch(table):
    return table.to_batch().with_schema(table.schema.qualified(table.name))


def _local(build):
    """A single-input local case over ``local_rows()``."""
    return lambda: ({}, [local_rows()], lambda feeds: build(feeds[0].output_schema))


def _local_join():
    right = RowBatch.from_values(
        Schema.of(("name", DataType.STRING), ("w", DataType.FLOAT)),
        [(f"g{i % 3}", float(i)) for i in range(9)],
    )
    return (
        {},
        [local_rows(), right],
        lambda feeds: LocalHashJoinOperator(
            ColumnRef("grp"), ColumnRef("name"), feeds[0].output_schema, feeds[1].output_schema
        ),
    )


def _crowd_filter():
    products = ProductsWorkload(n_products=30, seed=21)
    return (
        {"isTargetColor": products.oracle()},
        [table_batch(products.build_table())],
        lambda feeds: CrowdFilterOperator(
            products.color_filter_spec(assignments=1),
            [ColumnRef("products.name")],
            feeds[0].output_schema,
        ),
    )


def _crowd_generate():
    companies = CompaniesWorkload(n_companies=20, seed=23)
    return (
        {"findCEO": companies.oracle()},
        [table_batch(companies.build_table())],
        lambda feeds: CrowdGenerateOperator(
            companies.findceo_spec(assignments=1),
            [ColumnRef("companies.companyName")],
            feeds[0].output_schema,
        ),
    )


def _crowd_join(strategy):
    def case():
        celebrities = CelebrityWorkload(n_celebrities=9, n_spotted=10, seed=22)
        celebs, spotted = celebrities.build_tables()
        return (
            {"samePerson": celebrities.oracle()},
            [table_batch(celebs), table_batch(spotted)],
            lambda feeds: CrowdJoinOperator(
                celebrities.sameperson_spec(assignments=1, batch_size=4),
                feeds[0].output_schema,
                feeds[1].output_schema,
                strategy=strategy,
                left_payload=celebrities.left_payload,
                right_payload=celebrities.right_payload,
            ),
        )

    return case


def _crowd_sort(strategy):
    def case():
        products = ProductsWorkload(n_products=12, seed=21)
        if strategy is SortStrategy.COMPARISON:
            spec = products.size_compare_spec(assignments=1, batch_size=5)
        else:
            spec = products.size_rating_spec(assignments=1, batch_size=5)
        return (
            {"biggerItem": products.oracle(), "rateSize": products.oracle()},
            [table_batch(products.build_table())],
            lambda feeds: CrowdSortOperator(
                spec,
                feeds[0].output_schema,
                strategy=strategy,
                payload=lambda row: {"name": row["name"]},
            ),
        )

    return case


#: name -> () -> (oracles, one input batch per child, feeds -> operator under test)
CASES = {
    "local-filter": _local(
        lambda schema: LocalFilterOperator(Comparison(">", ColumnRef("score"), Literal(0.4)), schema)
    ),
    "project": _local(
        lambda schema: ProjectOperator(
            [
                ProjectionItem("id", ColumnRef("id")),
                ProjectionItem("double", Arithmetic("*", ColumnRef("score"), Literal(2))),
            ]
        )
    ),
    "local-sort": _local(lambda schema: LocalSortOperator(ColumnRef("grp"), schema)),
    "local-hash-join": _local_join,
    "group-by": _local(
        lambda schema: GroupByOperator(
            ["grp"],
            [AggregateSpec("n", "count", None), AggregateSpec("total", "sum", ColumnRef("score"))],
            schema,
        )
    ),
    "limit": _local(lambda schema: LimitOperator(17, schema)),
    "crowd-filter": _crowd_filter,
    "crowd-generate": _crowd_generate,
    "crowd-join-pairwise": _crowd_join(JoinStrategy.PAIRWISE),
    "crowd-join-columns": _crowd_join(JoinStrategy.COLUMNS),
    "crowd-sort-comparison": _crowd_sort(SortStrategy.COMPARISON),
    "crowd-sort-rating": _crowd_sort(SortStrategy.RATING),
}


def run_case(case, shape):
    """Feed ``case`` its input cut to ``shape``; return (result rows, submitted tasks)."""
    oracles, inputs, build = CASES[case]()
    context = build_context(oracles)
    feeds = [Feed(batch.schema, cut(batch, shape)) for batch in inputs]
    operator = build(feeds)
    for feed in feeds:
        operator.add_child(feed)
    results = Table("q1", operator.output_schema)
    sink = ResultSinkOperator(results)
    sink.add_child(operator)

    submitted = []
    submit = context.task_manager.submit

    def recording_submit(task):
        submitted.append((task.kind, task.cache_key, task.payload))
        return submit(task)

    context.task_manager.submit = recording_submit
    scheduler = EngineScheduler(context.clock, context.task_manager)
    handle = QueryHandle("q1", f"<{case}>", QueryExecutor(sink, context), results)
    rows = scheduler.submit(handle).wait()
    assert operator.metrics.rows_in == sum(len(batch) for batch in inputs)
    return [row.values for row in rows], submitted


@pytest.mark.parametrize("case", list(CASES))
def test_batch_shape_is_invisible(case):
    rows, submitted = run_case(case, "whole")
    assert rows, "the case must produce output for the comparison to mean anything"
    assert bool(submitted) is case.startswith("crowd-")
    for shape in ("rows", 11, 12, 13):
        shaped_rows, shaped_submitted = run_case(case, shape)
        assert shaped_rows == rows, f"{case}: output differs when fed as {shape!r}"
        assert shaped_submitted == submitted, f"{case}: task sequence differs as {shape!r}"
