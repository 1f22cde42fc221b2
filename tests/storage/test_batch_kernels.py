"""Property tests: column kernels and accel paths ≡ the per-row reference.

The columnar data plane rests on three equivalence claims, each pinned here
with hypothesis:

1. :func:`compile_batch_expression` produces, for every expression the
   workloads use (comparisons over every operator, arithmetic, boolean
   combinations, string equality), exactly the values per-row
   :meth:`Expression.evaluate` produces — bit-identical, including
   NULL propagation, mixed int/float comparisons (beyond 2**53, where a
   float64 round-trip would lie), and the :class:`ExpressionError` raised for
   type failures.
2. The numpy fast paths (`_comparison_mask` selection vectors,
   :func:`repro.storage.accel.array_kernel`, and the accel sort / hash-join /
   group-by finishers) agree with the pure-Python plane they shadow; batches
   are built through :class:`Table` at accel size (≥256 rows) so dictionary
   codes and cached numeric arrays are actually exercised.
3. An index scan returns exactly the rows scan-then-filter returns, over all
   the workload base tables (companies, products, celebrities, spottedstars)
   and both index kinds.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators.scan import IndexScanOperator, ScanOperator
from repro.core.operators.project import _comparison_mask
from repro.errors import ExpressionError
from repro.storage import DataType, RowBatch, Schema, Table, accel
from repro.storage.batch import _LazyGather
from repro.storage.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.workloads import CelebrityWorkload, CompaniesWorkload, ProductsWorkload

#: Minimum batch length at which every accel fast path engages.
ACCEL_ROWS = 277

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
WORDS = ("red", "green", "blue", "", "café", "zz")

SCHEMA = Schema.of(
    ("a", DataType.ANY),  # ints (incl. beyond 2**53), bools, NULLs
    ("b", DataType.ANY),  # floats mixed with ints, NULLs
    ("s", DataType.STRING),  # dictionary-encoded at insert
    ("t", DataType.STRING),
)

# -- value and expression strategies -----------------------------------------

ints = st.integers(-50, 50)
big_ints = st.integers(-(2**60), 2**60)  # exact in Python, lossy as float64
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
a_values = st.one_of(ints, big_ints, st.booleans(), st.none())
b_values = st.one_of(floats, ints, st.none())
s_values = st.one_of(st.sampled_from(WORDS), st.none())


def rows_strategy():
    return st.lists(
        st.tuples(a_values, b_values, s_values, s_values), min_size=1, max_size=12
    )


def numeric_column():
    return st.sampled_from(("a", "b")).map(ColumnRef)


numeric_leaf = st.one_of(
    numeric_column(),
    ints.map(Literal),
    floats.map(Literal),
)
numeric_expression = st.recursive(
    numeric_leaf,
    lambda child: st.tuples(st.sampled_from("+-*/"), child, child).map(
        lambda t: Arithmetic(*t)
    ),
    max_leaves=5,
)

string_operand = st.one_of(
    st.sampled_from(("s", "t")).map(ColumnRef),
    st.sampled_from(WORDS + ("missing",)).map(Literal),
)

comparison = st.one_of(
    st.tuples(st.sampled_from(COMPARISON_OPS), numeric_expression, numeric_expression),
    st.tuples(st.sampled_from(COMPARISON_OPS), string_operand, string_operand),
    # Mixed-type comparisons: `=` / `!=` are legal (always unequal), ordering
    # raises ExpressionError — both paths must agree either way.
    st.tuples(st.sampled_from(("=", "!=", "<")), numeric_expression, string_operand),
).map(lambda t: Comparison(*t))

predicate = st.recursive(
    comparison,
    lambda child: st.one_of(
        st.tuples(st.sampled_from(("and", "or")), child, child).map(
            lambda t: BooleanOp(*t)
        ),
        child.map(Not),
    ),
    max_leaves=4,
)

any_expression = st.one_of(numeric_expression, predicate)


def build_batch(rows, size=ACCEL_ROWS):
    """Tile ``rows`` to accel size through a Table so codes/arrays exist."""
    table = Table("t", SCHEMA)
    table.insert_many(rows[i % len(rows)] for i in range(size))
    return table.to_batch()


def identical(x, y) -> bool:
    """Bit-identical scalars: same type, same repr (exact for floats)."""
    return type(x) is type(y) and repr(x) == repr(y)


def per_row_reference(expression, batch):
    """(values, error_message) from per-row tree interpretation."""
    values = []
    try:
        for row in batch.to_rows():
            values.append(expression.evaluate(row))
    except ExpressionError as error:
        return None, str(error)
    return values, None


# -- 1. kernel ≡ per-row -----------------------------------------------------


class TestKernelEquivalence:
    @given(rows_strategy(), any_expression)
    @settings(max_examples=120, deadline=None)
    def test_batch_kernel_matches_per_row_bit_identically(self, rows, expression):
        batch = build_batch(rows)
        expected, error = per_row_reference(expression, batch)
        kernel = compile_batch_expression(expression, batch.schema)
        if error is not None:
            try:
                list(kernel(batch))
            except ExpressionError as raised:
                assert str(raised) == error
            else:
                raise AssertionError(f"kernel did not raise: {error}")
            return
        got = list(kernel(batch))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert identical(g, e), f"{g!r} != {e!r} for {expression}"

    @given(rows_strategy(), predicate)
    @settings(max_examples=80, deadline=None)
    def test_predicate_kernel_selects_strict_true_rows(self, rows, predicate_expr):
        batch = build_batch(rows)
        expected, error = per_row_reference(predicate_expr, batch)
        kernel = compile_batch_predicate(predicate_expr, batch.schema)
        if error is not None:
            return  # raising predicates covered by the expression test above
        survivors = batch.compress(kernel(batch))
        wanted = [v for v, keep in zip(batch.to_rows(), expected) if keep is True]
        assert [r.values for r in survivors.to_rows()] == [r.values for r in wanted]


# -- 2. accel fast paths ≡ the Python plane ----------------------------------

literal_values = st.one_of(
    ints, big_ints, floats, st.booleans(), st.sampled_from(WORDS + ("missing",)), st.none()
)


class TestAccelPaths:
    @given(
        rows_strategy(),
        st.sampled_from(COMPARISON_OPS),
        st.sampled_from(("a", "b", "s", "t")),
        literal_values,
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_comparison_mask_matches_strict_filter(self, rows, op, column, value, flip):
        """The LocalFilterOperator fork: mask path and kernel path agree."""
        if flip:
            predicate_expr = Comparison(op, Literal(value), ColumnRef(column))
        else:
            predicate_expr = Comparison(op, ColumnRef(column), Literal(value))
        batch = build_batch(rows)
        expected, error = per_row_reference(predicate_expr, batch)
        mask = _comparison_mask(batch, predicate_expr)
        if mask is None:
            if error is not None:
                return
            survivors = batch.compress(
                compile_batch_predicate(predicate_expr, batch.schema)(batch)
            )
        else:
            assert error is None  # the mask path only claims comparable columns
            survivors = batch._compress_array(mask)
        wanted = [r for r, keep in zip(batch.to_rows(), expected or []) if keep is True]
        assert [r.values for r in survivors.to_rows()] == [r.values for r in wanted]

    @given(rows_strategy(), numeric_expression)
    @settings(max_examples=100, deadline=None)
    def test_array_kernel_matches_per_row(self, rows, expression):
        batch = build_batch(rows)
        array = accel.array_kernel(expression, batch)
        if array is None:
            return  # ineligible shapes fall back; covered by the kernel test
        expected, error = per_row_reference(expression, batch)
        assert error is None
        assert len(array) == len(expected)
        # The array may carry ints where per-row carries bools (False == 0
        # exactly, and every consumer — masks, sort orders, float-only sums —
        # treats them identically); floats must still match bit for bit.
        for g, e in zip(array.tolist(), expected):
            assert g == e, f"{g!r} != {e!r} for {expression}"
            if isinstance(e, float):
                assert identical(g, e), f"{g!r} != {e!r} for {expression}"

    @given(st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_local_pipeline_identical_with_accel_disabled(self, seed):
        """filter → join → sort → group-by: accel plane ≡ pure-Python plane.

        Raising the size switch past any batch sends every operator (and the
        table snapshot) down the small-batch path, which is the reference.
        """
        accelerated = _run_local_pipeline(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(accel, "MIN_ROWS", sys.maxsize)
            plain = _run_local_pipeline(seed)
        assert len(accelerated) == len(plain)
        for left, right in zip(accelerated, plain):
            assert len(left) == len(right)
            for l, r in zip(left, right):
                assert identical(l, r) or (
                    isinstance(l, float) and isinstance(r, float) and math.isclose(l, r)
                ), f"{left} != {right}"
            # Aggregates must in fact be bit-identical, not merely close.
            assert left == right and list(map(type, left)) == list(map(type, right))


class TestSlicedScanStaysLazy:
    N_ROWS = 4 * ACCEL_ROWS

    @given(
        rows_strategy(),
        st.integers(1, N_ROWS),
        st.integers(0, N_ROWS),
        st.lists(st.booleans(), min_size=1, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_filtered_slices_of_one_snapshot_stack_into_one_lazy_gather(
        self, rows, step, split, pattern
    ):
        """A scan hands a filter one slice per step; the blocking operator
        above vstacks the survivors.  Every slice remembers the snapshot it
        was cut from, so the stack is ONE lazy gather over the snapshot's own
        arrays — equal to filtering the whole snapshot, with no object column
        realized on the way (the lazy vstack never fired before: each slice
        gathered from its own fresh view).
        """
        np = accel.np
        snapshot = build_batch(rows, self.N_ROWS).with_schema(SCHEMA.qualified("scan"))
        mask = np.resize(np.asarray(pattern, dtype=bool), self.N_ROWS)
        parts = []
        for start in range(0, self.N_ROWS, step):
            piece = snapshot.slice(start, start + step)
            cuts = sorted({0, min(split, len(piece)), len(piece)})
            for low, high in zip(cuts, cuts[1:]):  # a slice of a slice: the budget split
                kept = mask[start + low : start + high]
                parts.append(piece.slice(low, high)._compress_array(kept))
        stacked = RowBatch.vstack(snapshot.schema, parts)
        whole = snapshot._compress_array(mask)

        if len(stacked) >= accel.MIN_ROWS and sum(1 for part in parts if len(part)) > 1:
            for i, column in enumerate(stacked._columns):
                assert type(column) is _LazyGather
                assert column.source is snapshot._columns[i]
        for i in range(len(SCHEMA) if len(stacked) else 0):  # accel caches ride along
            assert (stacked._codes(i) is None) == (whole._codes(i) is None)
            if whole._codes(i) is not None:
                assert np.array_equal(stacked._codes(i)[0], whole._codes(i)[0])
                assert stacked._codes(i)[1] is whole._codes(i)[1]
        assert [r.values for r in stacked.to_rows()] == [r.values for r in whole.to_rows()]
        assert [r.values for r in whole.to_rows()] == [
            r.values for r, keep in zip(snapshot.to_rows(), mask) if keep
        ]


def _run_local_pipeline(seed: int) -> list[tuple]:
    """The e13 pipeline shape at accel size, returning the result rows."""
    from repro.core.operators.aggregate import AggregateSpec, GroupByOperator
    from repro.core.operators.join_local import LocalHashJoinOperator
    from repro.core.operators.project import LocalFilterOperator
    from repro.core.operators.sort_local import LocalSortOperator
    from repro.engine import QurkEngine

    n_rows, n_categories = 1_500, 23
    engine = QurkEngine(seed=7, worker_pool_size=4)
    items = engine.create_table(
        "items",
        [("id", DataType.INTEGER), ("category", DataType.STRING), ("score", DataType.FLOAT)],
    )
    categories = engine.create_table(
        "categories", [("name", DataType.STRING), ("weight", DataType.FLOAT)]
    )
    items.insert_many(
        (i, f"c{(i * (seed % 97 + 1)) % n_categories}", ((i * 7919 + seed) % 1000) / 1000.0)
        for i in range(n_rows)
    )
    categories.insert_many((f"c{i}", 1.0 + i / n_categories) for i in range(n_categories))

    scan_items = ScanOperator(items)
    filt = LocalFilterOperator(
        Comparison(">", ColumnRef("score"), Literal(0.2)), scan_items.output_schema
    )
    filt.add_child(scan_items)
    scan_cats = ScanOperator(categories)
    joined = LocalHashJoinOperator(
        ColumnRef("category"), ColumnRef("name"), filt.output_schema, scan_cats.output_schema
    )
    joined.add_child(filt)
    joined.add_child(scan_cats)
    sort = LocalSortOperator(ColumnRef("score"), joined.output_schema, ascending=False)
    sort.add_child(joined)
    group = GroupByOperator(
        ["category"],
        [
            AggregateSpec("n", "count", None),
            AggregateSpec("total", "sum", ColumnRef("score")),
            AggregateSpec(
                "weighted", "avg", Arithmetic("*", ColumnRef("score"), ColumnRef("weight"))
            ),
        ],
        sort.output_schema,
    )
    group.add_child(sort)

    from repro.core.exec.context import ExecutionContext, QueryConfig
    from repro.core.exec.executor import QueryExecutor
    from repro.core.exec.handle import QueryHandle
    from repro.core.operators.sink import ResultSinkOperator

    results = engine.database.create_results_table(group.output_schema, query_id="prop")
    sink = ResultSinkOperator(results)
    sink.add_child(group)
    engine.budget_ledger.register("prop", None)
    context = ExecutionContext(
        query_id="prop",
        database=engine.database,
        task_manager=engine.task_manager,
        statistics=engine.statistics,
        budget=engine.budget_ledger,
        clock=engine.clock,
        config=QueryConfig(),
    )
    handle = QueryHandle("prop", "<hand-built plan>", QueryExecutor(sink, context), results)
    return [tuple(row.values) for row in engine.scheduler.submit(handle).wait()]


# -- 3. index scan ≡ scan-then-filter over the workload tables ---------------


def _workload_tables() -> list[Table]:
    tables = [
        CompaniesWorkload(n_companies=60).build_table(),
        ProductsWorkload(n_products=60).build_table(),
    ]
    tables.extend(CelebrityWorkload(n_celebrities=20, n_spotted=40).build_tables())
    return tables


WORKLOAD_TABLES = _workload_tables()

#: (table, column, kind): every indexable workload column under both kinds
#: where the type allows (IMAGE columns are not orderable or hashable).
INDEXABLE = [
    (table, column.name.split(".")[-1], kind)
    for table in WORKLOAD_TABLES
    for column in table.schema
    if column.data_type in (DataType.STRING, DataType.INTEGER, DataType.FLOAT)
    for kind in ("hash", "sorted")
]


class TestIndexScanEquivalence:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_index_scan_matches_scan_then_filter(self, data):
        table, column, kind = data.draw(st.sampled_from(INDEXABLE))
        ops = ("=",) if kind == "hash" else IndexScanOperator.SUPPORTED_OPS
        op = data.draw(st.sampled_from(ops))
        present = sorted({row[column] for row in table.scan()})
        value = data.draw(
            st.sampled_from(present)
            | st.just("nope" if isinstance(present[0], str) else -1)
            | st.none()
        )
        table.create_index(column, kind=kind)
        index_rows = IndexScanOperator(table, column, op, value)._load_batch().to_rows()
        predicate = Comparison(op, ColumnRef(column), Literal(value))
        scan_rows = [
            row
            for row in ScanOperator(table)._load_batch().to_rows()
            if predicate.evaluate(row) is True
        ]
        assert [r.values for r in index_rows] == [r.values for r in scan_rows]
