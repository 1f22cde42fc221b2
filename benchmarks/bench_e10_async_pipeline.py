"""E10 — Section 2: asynchronous execution and HIT parallelism.

"Query execution must be asynchronous because each HIT may take several
minutes to generate results."  The benchmark measures, for Query 1 and
Query 2, how long the query takes in simulated time compared with the sum of
the individual HITs' latencies: because operators communicate through queues
and every HIT is outstanding concurrently, the query finishes in roughly the
time of the slowest HIT waves — orders of magnitude less than serial
execution — and results stream into the results table while HITs are still
outstanding.
"""

from repro.crowd.hit import AssignmentStatus
from repro.experiments import (
    QUERY1_SQL,
    QUERY2_SQL,
    build_celebrity_engine,
    build_companies_engine,
    print_table,
)


def _hit_latencies(platform):
    latencies = []
    for hit in platform.list_hits():
        submitted = [
            a.submitted_at - hit.created_at
            for a in hit.assignments
            if a.status in (AssignmentStatus.SUBMITTED, AssignmentStatus.APPROVED)
            and a.submitted_at is not None
        ]
        if submitted:
            latencies.append(max(submitted))
    return latencies


def run_async_experiment():
    rows = []
    streaming = {}
    for label, sql, build in (
        ("Q1 findCEO (30 companies)", QUERY1_SQL, lambda: build_companies_engine(n_companies=30, seed=1001)),
        ("Q2 samePerson (10x10)", QUERY2_SQL, lambda: build_celebrity_engine(n_celebrities=10, n_spotted=10, seed=1002)),
    ):
        run = build()
        handle = run.engine.query(sql)
        first_result_at = None
        while handle.step():
            if first_result_at is None and len(handle.results_table) > 0:
                first_result_at = run.engine.clock.now
        handle.wait()
        latencies = _hit_latencies(run.engine.platform)
        total = handle.stats.elapsed
        serial = sum(latencies)
        rows.append(
            {
                "query": label,
                "hits": len(latencies),
                "mean_hit_latency_s": sum(latencies) / len(latencies),
                "query_latency_s": total,
                "serial_sum_s": serial,
                "speedup_vs_serial": serial / total if total else 0.0,
                "first_result_s": first_result_at or total,
            }
        )
        streaming[label] = (first_result_at, total)
    return rows, streaming


def test_e10_async_pipeline():
    rows, streaming = run_async_experiment()
    print_table(
        "E10: asynchronous execution — query latency vs serial HIT latency",
        ["query", "hits", "mean_hit_latency_s", "query_latency_s", "serial_sum_s",
         "speedup_vs_serial", "first_result_s"],
        rows,
    )
    for row in rows:
        # Individual HITs take minutes of simulated time.
        assert row["mean_hit_latency_s"] > 60
        # Concurrent HITs make the whole query far faster than serial execution.
        assert row["query_latency_s"] < row["serial_sum_s"] / 3
        assert row["speedup_vs_serial"] > 3
    # Query 1 streams: the first result lands well before the query finishes.
    first, total = streaming["Q1 findCEO (30 companies)"]
    assert first is not None and first < total
