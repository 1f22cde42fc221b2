"""Span arithmetic, and that tracing goes in and comes out cleanly."""

from __future__ import annotations

import tracer as tracing

MS = 1_000_000


def span(name, layer, start_ms, end_ms, parent, units=0):
    return [name, layer, start_ms * MS, end_ms * MS, parent, None, units]


#   query            0 ──────────────────────────── 100
#     parse            5 ── 15
#     plan                  20 ──────── 50
#       cost                  25 ─ 35
#     wait                                60 ─────── 95
#       recv (a wait span)                  70 ── 90
TREE = [
    span("query", "engine", 0, 100, -1),
    span("parse", "core.lang", 5, 15, 0),
    span("plan", "core.plan", 20, 50, 0),
    span("cost", "core.optimizer", 25, 35, 2),
    span("wait", "core.exec", 60, 95, 0),
    span("PipeTransport.recv", "cluster.messages", 70, 90, 4),
]


def test_self_time_is_duration_minus_direct_children():
    selfs = [ns / MS for ns in tracing.self_times(TREE)]
    #        query: 100 - (10 + 30 + 35)   plan: 30 - 10   wait: 35 - 20
    assert selfs == [25, 10, 20, 10, 15, 20]
    assert sum(selfs) == 100  # self times of a tree add up to its root


def test_layer_totals_keep_waiting_apart_from_work():
    totals = tracing.LayerTotals(TREE)
    assert totals.layer_ms("engine") == 25
    assert totals.layer_ms("core.plan", "core.optimizer") == 30
    assert totals.layer_ms("cluster.messages") == 0  # its only span is a wait
    assert totals.wait_ns == 20 * MS
    assert totals.busy_ms == 80
    assert totals.total_ms("plan") == 30 and totals.self_ms("plan") == 20
    assert totals.calls("parse", "plan") == 2


def test_clip_keeps_spans_started_in_the_window_and_reroots_them():
    clipped = tracing.clip(TREE, 20 * MS, 80 * MS)
    assert [s[tracing.NAME] for s in clipped] == ["plan", "cost", "wait", "PipeTransport.recv"]
    assert [s[tracing.PARENT] for s in clipped] == [-1, 0, -1, 2]  # query started before: gone


def test_rows_scanned_counts_index_probes_not_their_snapshots():
    spans = [
        span("QueryExecutor.step_local", "core.operators", 0, 10, -1),
        span("Table.to_batch", "storage", 1, 2, 0, units=1000),  # full scan
        span("QueryExecutor.step_local", "core.operators", 10, 20, -1),
        span("Table.to_batch", "storage", 11, 12, 2, units=1000),  # index scan's snapshot
        span("HashIndex.positions_equal", "storage", 12, 13, 2, units=3),
        span("RowBatch.take", "storage", 13, 14, 2, units=0),
    ]
    assert tracing.rows_scanned(spans) == 1003


def test_query_ids_are_inherited_from_the_nearest_ancestor():
    spans = [list(s) for s in TREE]
    spans[0][tracing.QUERY] = "q1"
    spans[4][tracing.QUERY] = "q9"
    assert tracing.resolve_queries(spans) == ["q1", "q1", "q1", "q1", "q9", "q9"]


def test_wrap_records_nesting_units_and_survives_exceptions():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    traced_inner = tracer.wrap(inner, "inner", "storage", units_of=lambda a, k, r: len(r))
    traced_outer = tracer.wrap(lambda x: traced_inner(x), "outer", "engine")
    traced_outer(3)
    try:
        traced_outer(-1)
    except ValueError:
        pass
    spans = tracer.snapshot()
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.UNITS]) for s in spans] == [
        ("outer", -1, 0), ("inner", 0, 3), ("outer", -1, 0), ("inner", 2, 0),
    ]  # fmt: skip
    assert all(s[tracing.END] >= s[tracing.START] > 0 for s in spans)


def test_install_patches_from_outside_and_uninstall_restores(tmp_path):
    from repro.core.plan.planner import QueryPlanner
    from repro.engine import QurkEngine

    import repro.engine

    originals = (QurkEngine.query, QueryPlanner.plan, repro.engine.parse_select)
    tracer = tracing.install(tmp_path / "trace")
    try:
        assert QurkEngine.query is not originals[0]
        import factory

        engine = factory.build_engine(seed=1, companies=5)
        name = engine.database.table("companies").rows()[0]["companyName"]
        engine.query(f"SELECT companyName FROM companies WHERE companyName = '{name}'").wait()
        totals = tracing.LayerTotals(tracer.snapshot())
        assert totals.calls("QurkEngine.query", "parse_select", "QueryPlanner.plan") == 3
        assert totals.name_units["factory.build_engine"] == 5
        written = tracer.dump()
        assert tracing.load_spans(written) == tracer.snapshot()
    finally:
        tracer.uninstall()
    assert (QurkEngine.query, QueryPlanner.plan, repro.engine.parse_select) == originals
