"""Machine equi-join planning: build-side choice from catalog statistics.

``FROM a, b WHERE a.id = b.id`` with no crowd join predicate lowers to a
:class:`LogicalLocalJoin`.  The physical planner enumerates both hash-build
sides; a base table carrying a hash index on its join key makes that build
free (the operator probes straight through the index), so the index-backed
side wins on estimated machine work.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lang.sql_parser import parse_select
from repro.core.operators.join_local import LocalHashJoinOperator
from repro.core.operators.scan import ScanOperator
from repro.core.optimizer.cost_model import CostModel
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.plan.planner import QueryPlanner
from repro.core.plan.registry import TaskRegistry
from repro.engine import QurkEngine
from repro.errors import PlanError
from repro.storage import ColumnRef, Database, DataType, Schema, Table, accel
from repro.storage.indexes import HashIndex

JOIN_SQL = (
    "SELECT orders.order_id, products.name "
    "FROM orders, products WHERE orders.product_id = products.pid"
)


def build_tables(*, index: bool = True) -> tuple[Table, Table]:
    orders = Table(
        "orders", Schema.of(("order_id", DataType.INTEGER), ("product_id", DataType.INTEGER))
    )
    products = Table("products", Schema.of(("pid", DataType.INTEGER), ("name", DataType.STRING)))
    for i in range(12):
        products.insert([i, f"prod{i}"])
    for i in range(40):
        orders.insert([i, i % 12])
    if index:
        products.create_index("pid")
    return orders, products


def build_planner(*tables: Table) -> QueryPlanner:
    database = Database()
    for table in tables:
        database.catalog.register(table)
    optimizer = QueryOptimizer(StatisticsManager(), CostModel())
    return QueryPlanner(database, TaskRegistry(), optimizer)


class TestLocalJoinPlanning:
    def test_both_build_sides_enumerated(self):
        planner = build_planner(*build_tables())
        planned = planner.plan(parse_select(JOIN_SQL), query_id="q1")
        labels = {d for c in planned.candidates for d in c.decisions}
        assert "local-join[orders.product_id = products.pid]: build=left" in labels
        assert (
            "local-join[orders.product_id = products.pid]: build=right (index-backed)"
            in labels
        )

    def test_indexed_side_wins(self):
        """The hash index on products.pid makes the right build free."""
        planner = build_planner(*build_tables())
        planned = planner.plan(parse_select(JOIN_SQL), query_id="q1")
        assert planned.chosen.decisions == (
            "local-join[orders.product_id = products.pid]: build=right (index-backed)",
        )
        joins = [
            op for op in planned.root.walk() if isinstance(op, LocalHashJoinOperator)
        ]
        assert len(joins) == 1
        assert joins[0].build_side == "right"

    def test_no_index_builds_smaller_side(self):
        """Without an index, the fewer-row side (products, 12 rows) is built."""
        planner = build_planner(*build_tables(index=False))
        planned = planner.plan(parse_select(JOIN_SQL), query_id="q1")
        assert planned.chosen.decisions == (
            "local-join[orders.product_id = products.pid]: build=right",
        )

    def test_explain_shows_build_side_candidates(self):
        planner = build_planner(*build_tables())
        text = planner.explain(parse_select(JOIN_SQL))
        assert "local-join(orders.product_id = products.pid)" in text
        assert "build=right (index-backed)" in text
        assert "build=left" in text
        assert "(chosen)" in text

    def test_reversed_predicate_normalizes_to_from_order(self):
        """``b.y = a.x`` plans identically to ``a.x = b.y``."""
        planner = build_planner(*build_tables())
        reversed_sql = (
            "SELECT orders.order_id, products.name "
            "FROM orders, products WHERE products.pid = orders.product_id"
        )
        planned = planner.plan(parse_select(reversed_sql), query_id="q1")
        assert planned.chosen.decisions == (
            "local-join[orders.product_id = products.pid]: build=right (index-backed)",
        )

    def test_disconnected_tables_still_rejected(self):
        orders, products = build_tables()
        extra = Table("extra", Schema.of(("k", DataType.INTEGER)))
        extra.insert([1])
        planner = build_planner(orders, products, extra)
        sql = (
            "SELECT orders.order_id FROM orders, products, extra "
            "WHERE orders.product_id = products.pid"
        )
        with pytest.raises(PlanError, match="unjoined: extra"):
            planner.plan(parse_select(sql), query_id="q1")

    def test_non_equality_cross_predicate_not_promoted(self):
        """``a.x < b.y`` alone stays a cartesian product — still an error."""
        orders, products = build_tables()
        planner = build_planner(orders, products)
        sql = (
            "SELECT orders.order_id FROM orders, products "
            "WHERE orders.product_id < products.pid"
        )
        with pytest.raises(PlanError, match="machine equi-join"):
            planner.plan(parse_select(sql), query_id="q1")


class TestLocalJoinExecution:
    def run_join(self, sql: str, *, index: bool = True) -> list[tuple]:
        engine = QurkEngine()
        for table in build_tables(index=index):
            engine.database.catalog.register(table)
        handle = engine.query(sql)
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        return sorted(tuple(row.values) for row in handle.results())

    def test_join_results(self):
        expected = sorted((i, f"prod{i % 12}") for i in range(40))
        assert self.run_join(JOIN_SQL) == expected

    def test_build_sides_agree(self):
        """Index-backed and dict-build paths produce the same multiset."""
        assert self.run_join(JOIN_SQL) == self.run_join(JOIN_SQL, index=False)

    def test_extra_cross_filter_applies_after_join(self):
        sql = JOIN_SQL + " AND orders.order_id > products.pid"
        rows = self.run_join(sql)
        expected = sorted((i, f"prod{i % 12}") for i in range(40) if i > i % 12)
        assert rows == expected
        assert rows  # the filter keeps the 28 rows where order_id > pid

    def test_index_backed_build_with_unique_duplicate_and_null_keys(self, monkeypatch):
        """The join probes through the hash index: a key held once (a bare
        position in the index), a key held twice (a list) and NULL keys on
        both sides give exactly what the dict build gives."""
        probed = []
        positions = HashIndex.positions

        def counting_positions(self, value):
            probed.append(value)
            return positions(self, value)

        monkeypatch.setattr(HashIndex, "positions", counting_positions)

        def run(index: bool) -> list[tuple]:
            engine = QurkEngine()
            orders = engine.create_table(
                "orders", [("order_id", DataType.INTEGER), ("product_id", DataType.INTEGER)]
            )
            products = engine.create_table(
                "products", [("pid", DataType.INTEGER), ("name", DataType.STRING)]
            )
            products.insert_many([(1, "once"), (2, "twice"), (None, "null"), (2, "twice again")])
            orders.insert_many([(10, 1), (11, 2), (12, None), (13, 3), (14, 2)])
            if index:
                products.create_index("pid")
            handle = engine.query(JOIN_SQL)
            engine.scheduler.drain()
            return sorted(tuple(row.values) for row in handle.results())

        expected = [
            (10, "once"), (11, "twice"), (11, "twice again"), (14, "twice"), (14, "twice again"),
        ]
        assert run(index=False) == expected and probed == []
        assert run(index=True) == expected and probed == [1, 2, 3, 2]  # NULL never probes


#: Keys of an uncoded (ANY) column: NULL, strings, and 1 / 1.0 / True, which
#: are one dict key.  A STRING column — the coded kind — holds the strings.
ANY_KEYS = st.sampled_from([None, "a", "b", "1", "True", 1, 1.0, True, 2])
STRING_KEYS = st.sampled_from([None, "a", "b", "c", "1", "True"])


def keyed_table(name: str, coded: bool, keys: list) -> Table:
    """``(k, v)`` rows: ``k`` the join key, ``v`` the row's position."""
    key_type = DataType.STRING if coded else DataType.ANY
    table = Table(name, Schema.of(("k", key_type), ("v", DataType.INTEGER)))
    table.insert_many([key, position] for position, key in enumerate(keys))
    return table


def join_rows(left: Table, right: Table, build_side: str) -> list[tuple]:
    """Run the operator over full scans of both tables; its output, in order."""
    scans = (ScanOperator(left, "l"), ScanOperator(right, "r"))
    join = LocalHashJoinOperator(
        ColumnRef("l.k"), ColumnRef("r.k"), scans[0].output_schema, scans[1].output_schema,
        build_side=build_side,
    )
    emitted = []
    join.emit = emitted.append
    for slot, scan in enumerate(scans):
        join.add_child(scan)
        join._process(scan.table.to_batch().with_schema(scan.output_schema), slot)
    join._on_inputs_finished()
    return [row.values for batch in emitted for row in batch.to_rows()]


class TestCodedJoinMatchesReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_rows_in_the_same_order(self, data):
        """NULLs and duplicates on both sides, keys the dictionary lacks,
        1 / 1.0 / True, either build side, a coded build or probe key (or
        both, from one dictionary or two), with and without an index on the
        build key: the dictionary-coded join emits exactly what the
        reference dict / index build emits, in the same order."""
        left_coded, right_coded = data.draw(st.tuples(st.booleans(), st.booleans()))
        self_join = left_coded and right_coded and data.draw(st.booleans(), label="self join")
        build_side = data.draw(st.sampled_from(["left", "right"]), label="build side")
        tiled = "left" if self_join else data.draw(
            st.sampled_from(["left", "right"]), label="side past MIN_ROWS"
        )
        index = data.draw(st.booleans(), label="index on build key")

        def draw_keys(side: str, coded: bool) -> list:
            keys = data.draw(
                st.lists(STRING_KEYS if coded else ANY_KEYS, min_size=1, max_size=12), label=side
            )
            return keys * -(-accel.MIN_ROWS // len(keys)) if side == tiled else keys

        left_keys = draw_keys("left", left_coded)
        right_keys = left_keys if self_join else draw_keys("right", right_coded)

        def run() -> list[tuple]:
            left = keyed_table("left", left_coded, left_keys)
            right = left if self_join else keyed_table("right", right_coded, right_keys)
            if index:
                (left if build_side == "left" else right).create_index("k")
            return join_rows(left, right, build_side)

        coded_runs = []
        coded_join = LocalHashJoinOperator._coded_join

        def spy(self, *args):
            takes = coded_join(self, *args)
            coded_runs.append(takes is not None)
            return takes

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LocalHashJoinOperator, "_coded_join", spy)
            coded = run()
        assert coded_runs == [left_coded or right_coded]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(accel, "MIN_ROWS", sys.maxsize)
            reference = run()
        assert coded == reference
        assert [tuple(map(type, row)) for row in coded] == [
            tuple(map(type, row)) for row in reference
        ]
