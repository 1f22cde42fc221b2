"""The batched local data plane: hash join, whole-queue steps, clock compaction.

These tests pin down the driver-level contract of the vectorized refactor:
every step, local or crowd, drains everything queued (and still produces
exactly the same rows), and the simulation clock tracks pending events in
O(1) with lazy heap compaction.
"""

import gc

import pytest

from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle
from repro.core.operators.aggregate import AggregateSpec, GroupByOperator
from repro.core.operators.join_local import LocalHashJoinOperator
from repro.core.operators.project import LocalFilterOperator
from repro.core.operators.scan import ScanOperator
from repro.core.operators.sink import ResultSinkOperator
from repro.core.operators.sort_local import LocalSortOperator
from repro.crowd.clock import SimulationClock
from repro.engine import QurkEngine
from repro.storage import ColumnRef, Comparison, DataType, Literal, Row, Table


def build_engine(n_rows=500, n_groups=10):
    engine = QurkEngine(seed=11, worker_pool_size=5)
    items = engine.create_table(
        "items",
        [("id", DataType.INTEGER), ("grp", DataType.STRING), ("score", DataType.FLOAT)],
    )
    groups = engine.create_table("groups", [("name", DataType.STRING), ("w", DataType.FLOAT)])
    items.insert_many(
        (i, f"g{i % n_groups}", (i % 97) / 97.0) for i in range(n_rows)
    )
    groups.insert_many((f"g{i}", float(i)) for i in range(n_groups))
    return engine


def submit_plan(engine, query_id, top):
    """Sink ``top`` and submit the hand-built plan to the engine's scheduler."""
    results = Table(query_id, top.output_schema)
    sink = ResultSinkOperator(results)
    sink.add_child(top)
    engine.budget_ledger.register(query_id, None)
    context = ExecutionContext(
        query_id=query_id,
        database=engine.database,
        task_manager=engine.task_manager,
        statistics=engine.statistics,
        budget=engine.budget_ledger,
        clock=engine.clock,
        config=QueryConfig(),
    )
    handle = QueryHandle(query_id, "<hand-built plan>", QueryExecutor(sink, context), results)
    return engine.scheduler.submit(handle)


def build_local_plan(engine, query_id="local-q"):
    scan_items = ScanOperator(engine.database.table("items"))
    filt = LocalFilterOperator(
        Comparison(">", ColumnRef("score"), Literal(0.25)), scan_items.output_schema
    )
    filt.add_child(scan_items)
    scan_groups = ScanOperator(engine.database.table("groups"))
    joined = LocalHashJoinOperator(
        ColumnRef("grp"), ColumnRef("name"), filt.output_schema, scan_groups.output_schema
    )
    joined.add_child(filt)
    joined.add_child(scan_groups)
    sort = LocalSortOperator(ColumnRef("score"), joined.output_schema, ascending=False)
    sort.add_child(joined)
    group = GroupByOperator(
        ["grp"],
        [AggregateSpec("n", "count", None), AggregateSpec("total", "sum", ColumnRef("score"))],
        sort.output_schema,
    )
    group.add_child(sort)
    return submit_plan(engine, query_id, group)


def reference_result(engine):
    """The same pipeline computed with plain Python over the base tables."""
    weights = {row["name"]: row["w"] for row in engine.database.table("groups").scan()}
    kept = [row for row in engine.database.table("items").scan() if row["score"] > 0.25]
    groups: dict[str, list[float]] = {}
    order: list[str] = []
    for row in sorted(kept, key=lambda r: r["score"], reverse=True):
        grp = row["grp"]
        if grp not in weights:
            continue
        if grp not in groups:
            groups[grp] = []
            order.append(grp)
        groups[grp].append(row["score"])
    return {grp: (len(vals), pytest.approx(sum(vals))) for grp, vals in groups.items()}


class TestLocalHashJoinPipeline:
    def test_pipeline_matches_reference_computation(self):
        engine = build_engine()
        handle = build_local_plan(engine)
        expected = reference_result(engine)
        rows = handle.wait()
        assert len(rows) == len(expected)
        for row in rows:
            n, total = expected[row["grp"]]
            assert row["n"] == n
            assert row["total"] == total

    def test_null_join_keys_never_match(self):
        engine = QurkEngine(seed=1, worker_pool_size=5)
        left = engine.create_table("l", [("k", DataType.STRING), ("v", DataType.INTEGER)])
        right = engine.create_table("r", [("k", DataType.STRING), ("w", DataType.INTEGER)])
        left.insert_many([("a", 1), (None, 2), ("b", 3)])
        right.insert_many([("a", 10), (None, 20), ("c", 30)])
        scan_l, scan_r = ScanOperator(left), ScanOperator(right)
        join = LocalHashJoinOperator(
            ColumnRef("l.k"), ColumnRef("r.k"), scan_l.output_schema, scan_r.output_schema
        )
        join.add_child(scan_l)
        join.add_child(scan_r)
        results = submit_plan(engine, "j", join).wait()
        assert [(row["l.k"], row["w"]) for row in results] == [("a", 10)]

JOIN_SQL = "SELECT items.id, groups.w FROM items, groups WHERE items.grp = groups.name"


class Name(str):
    """A string whose hashing is counted: how a test sees a column being read."""

    hashed = 0

    def __hash__(self) -> int:
        Name.hashed += 1
        return str.__hash__(self)


class TestRowsExistOnlyAtTheCaller:
    """Results land as columns; a ``Row`` is built when somebody asks for one."""

    def test_columnar_join_builds_no_row_before_results_are_read(self, monkeypatch):
        n_rows = 10_000
        engine = build_engine(n_rows=n_rows, n_groups=20)
        built = []
        unchecked, init = Row.unchecked.__func__, Row.__init__

        def counting_unchecked(cls, schema, values):
            built.append(values)
            return unchecked(cls, schema, values)

        def counting_init(self, schema, values):
            built.append(values)
            init(self, schema, values)

        monkeypatch.setattr(Row, "unchecked", classmethod(counting_unchecked))
        monkeypatch.setattr(Row, "__init__", counting_init)

        handle = engine.query(JOIN_SQL)
        rows = handle.wait()
        assert handle.is_complete and len(rows) == len(handle) == n_rows
        # scan → join → project → sink: columns all the way, and wait()
        # hands back a view, not rows.
        assert built == []

        assert sorted(row.values for row in rows) == [(i, float(i % 20)) for i in range(n_rows)]
        assert len(built) == n_rows  # one row per element read
        assert len(handle.poll()) == n_rows and handle.poll() == []
        assert len(built) == n_rows  # taking and sizing views builds nothing

    def test_reading_big_joins_through_wait_triggers_no_full_collection(self):
        """Results read through ``wait()`` are never promoted to the oldest
        generation, so they never add up to a full collection.

        A list of rows held while it is built survives the young
        collections that its own allocations trigger; enough promoted
        objects trigger a full pass over everything the process holds.
        Freezing the heap first zeroes that threshold's base, so four
        20k-row joins read as lists are well past it.
        """
        engine = build_engine(n_rows=20_000, n_groups=20)
        full = []

        def on_collect(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.freeze()
        gc.collect()
        gc.callbacks.append(on_collect)
        try:
            for _ in range(4):
                assert sum(len(row.values) for row in engine.query(JOIN_SQL).wait()) == 40_000
        finally:
            gc.callbacks.remove(on_collect)
            gc.unfreeze()
        assert full == []

    def test_replanning_on_an_unchanged_table_reads_no_base_column(self):
        engine = QurkEngine(seed=3)
        items = engine.create_table(
            "items", [("id", DataType.INTEGER), ("grp", DataType.STRING)]
        )
        groups = engine.create_table("groups", [("name", DataType.STRING), ("w", DataType.FLOAT)])
        items.insert_many((i, Name(f"g{i % 7}")) for i in range(400))
        groups.insert_many((Name(f"g{i}"), float(i)) for i in range(7))

        first = engine.explain(JOIN_SQL)  # may count: nobody has asked yet
        hashed = Name.hashed
        assert engine.explain(JOIN_SQL) == first
        assert Name.hashed == hashed  # distinct counts were read, not recomputed

        items.insert((400, Name("g7")))
        assert items.distinct_count("grp") == 8  # ... and follow the table


class TestGroupByFirstArrivalOrder:
    def test_accel_group_by_keeps_arrival_order_not_code_order(self):
        """≥ 256 rows, so the dictionary-code kernel runs.  Codes are handed
        out in table order (g0, g1, ...); the rows arrive score-descending, so
        arrival order is a different permutation — and it must be the output's.
        """
        engine = build_engine(n_rows=600, n_groups=9)
        scan = ScanOperator(engine.database.table("items"))
        sort = LocalSortOperator(ColumnRef("score"), scan.output_schema, ascending=False)
        sort.add_child(scan)
        group = GroupByOperator(
            ["grp"],
            [AggregateSpec("n", "count", None), AggregateSpec("total", "sum", ColumnRef("score"))],
            sort.output_schema,
        )
        group.add_child(sort)
        rows = submit_plan(engine, "order", group).wait()

        arrival = sorted(engine.database.table("items").scan(), key=lambda r: -r["score"])
        expected: dict[str, list[float]] = {}
        for row in arrival:  # dicts keep first-insertion order
            expected.setdefault(row["grp"], []).append(row["score"])
        assert list(expected) != sorted(expected)  # not code order
        assert [row.values for row in rows] == [
            (grp, len(scores), sum(scores)) for grp, scores in expected.items()
        ]


class TestDescendingSort:
    @pytest.mark.parametrize("n_rows", [3, 300])
    def test_int64_extremes_order_like_python_on_both_paths(self, n_rows):
        """300 rows take the argsort path, 3 the Python sort; both put the
        int64 minimum last under DESC and keep equal keys in arrival order."""
        engine = QurkEngine(seed=11, worker_pool_size=5)
        table = engine.create_table("t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)])
        extremes = [-(2**63), 2**63 - 1, 0]
        values = [extremes[i] if i < 3 else (i * 7919) % 13 - 6 for i in range(n_rows)]
        table.insert_many(enumerate(values))
        rows = engine.query("SELECT id, v FROM t ORDER BY v DESC").wait()
        expected = sorted(enumerate(values), key=lambda row: row[1], reverse=True)
        assert [tuple(row.values) for row in rows] == expected
        assert rows[-1]["v"] == -(2**63)

    def test_order_by_without_a_direction_is_descending(self):
        engine = QurkEngine(seed=11, worker_pool_size=5)
        table = engine.create_table("t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)])
        table.insert_many(enumerate([4, -1, 9, 0]))
        rows = engine.query("SELECT id, v FROM t ORDER BY v").wait()
        assert [row["v"] for row in rows] == [9, 4, 0, -1]


class TestStepsDrainEverything:
    def test_crowd_plan_scans_its_table_in_one_pass(self):
        """A scan under a crowd filter emits a 16,384-row table in the
        query's first executor pass."""
        n_rows = 16_384
        engine = QurkEngine(seed=5, worker_pool_size=5)
        engine.create_table("t", ["n"], rows=[[i] for i in range(n_rows)])
        engine.define_task(
            "TASK isRed(Integer n) RETURNS BOOL:\n"
            "    TaskType: Filter\n"
            "    Text: \"Is %s red?\", n\n"
        )
        from support import CallbackOracle

        engine.register_oracle("isRed", CallbackOracle(predicate=lambda item: True))
        handle = engine.query("SELECT n FROM t WHERE n < 2 AND isRed(n)")
        (scan,) = [op for op in handle.executor.operators() if isinstance(op, ScanOperator)]
        while not scan.is_done():
            engine.scheduler.step()
        assert handle.executor.metrics.passes == 1
        assert scan.metrics.rows_out == n_rows
        handle.wait()
        assert sorted(row["n"] for row in handle.results()) == [0, 1]

    @staticmethod
    def scheduler_passes(n_rows):
        engine = QurkEngine(seed=2)
        engine.create_table("big", ["n"], rows=[[i] for i in range(n_rows)])
        handle = engine.query("SELECT n FROM big")
        handle.wait()
        assert len(handle.results()) == n_rows
        return engine.scheduler.metrics.passes

    def test_scheduler_passes_do_not_grow_with_the_table(self):
        assert self.scheduler_passes(50_000) == self.scheduler_passes(10)


class TestClockCompaction:
    def test_pending_events_is_tracked_exactly(self):
        clock = SimulationClock()
        events = [clock.schedule_in(i + 1.0, lambda: None) for i in range(10)]
        assert clock.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert clock.pending_events == 6
        events[0].cancel()  # double-cancel is a no-op
        assert clock.pending_events == 6
        assert clock.advance_to(20.0) == 6
        assert clock.pending_events == 0

    def test_mass_cancellation_compacts_the_heap(self):
        clock = SimulationClock()
        events = [clock.schedule_in(i + 1.0, lambda: None) for i in range(100)]
        for event in events[:80]:
            event.cancel()
        # Compaction kicked in along the way: the heap holds far fewer than
        # the 80 dead entries it would otherwise accumulate, and the exact
        # live count is still tracked.
        assert len(clock._events) < 50
        assert len(clock._events) - clock._cancelled_in_heap == 20
        assert clock.pending_events == 20
        assert clock.next_event_time() == events[80].time
        assert clock.run_until_idle() == 20

    def test_cancel_after_fire_does_not_corrupt_the_count(self):
        clock = SimulationClock()
        event = clock.schedule_in(1.0, lambda: None)
        keeper = clock.schedule_in(5.0, lambda: None)
        clock.advance_to(2.0)
        event.cancel()  # already fired: must not count as cancelled-in-heap
        assert clock.pending_events == 1
        assert clock.next_event_time() == keeper.time
