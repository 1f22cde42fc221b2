"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the same names (a test
keeps the two in step).  ``moves`` on a per-layer metric is the prediction
written down before measuring: which end-to-end metric it should move, on
which workload.  A later PR states its claim in these names —
"``query_p50_ms`` on ``lookup_warm``" — and shows the layer metric that
explains it.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may get worse before a change is a regression.
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The prediction: which end-to-end metric it should move, on which workload.
    moves: str


WORKLOADS: dict[str, str] = {
    "lookup_warm": (
        "cached zipf findCEO point lookups on 200 companies: only the fixed per-query path "
        "(parse, plan, admission, cache reads) runs, so a plan cache must show here"
    ),
    "analytic_local": (
        "crowd-free group-by/top-k/join/point SQL over 200k items: storage and operators do "
        "the work and parse/plan/crowd almost none - the mirror of lookup_warm"
    ),
    "crowd_durable": (
        "waves of 16 cold crowd filters and sorts with the WAL on, driven by drain(): Task "
        "Manager, marketplace simulation, scheduler passes and WAL appends carry the time"
    ),
    "cluster_tcp_mixed": (
        "2 closed-loop TCP clients against ClusterServer + 2 durable shards, mixed lookups/"
        "group-by/join/crowd: the only workload where codec, pipe IPC and coordinator work"
    ),
}

#: Bounds are three times the widest run-to-run spread measured on the 2-core
#: shared box (README, "How steady it is"): in its bad minutes identical runs
#: differ by 8% in the time-based metrics, and seeds by 2% in memory.  A
#: tighter time bound would reject the benchmark's own A/A check; section 8
#: of the choosing-metrics guide (paired runs, 9 wins in 10) is how a smaller
#: gain is shown.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25),
    EndToEnd("cpu_ms_per_query", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)

_FIXED_PATH = "query_p50_ms, queries_per_s, cpu_ms_per_query on lookup_warm; flat on crowd_durable, analytic_local"
_CROWD = "queries_per_s, query_p50_ms on crowd_durable"
_CLUSTER = "query_p50_ms, cpu_ms_per_query on cluster_tcp_mixed; 0 elsewhere"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("engine.submit_ms_per_query", "ms", "lower", "query_p50_ms on lookup_warm"),
    PerLayer("engine.drift_ratio", "ratio", "lower", "query_p50_ms, peak_rss_mb on lookup_warm"),
    PerLayer("engine.rss_kb_per_query", "kB", "lower", "peak_rss_mb on lookup_warm"),
    PerLayer("core.lang.parse_calls", "count", "lower", _FIXED_PATH),
    PerLayer("core.lang.parse_ms_per_query", "ms", "lower", _FIXED_PATH),
    PerLayer("core.plan.plan_ms_per_query", "ms", "lower", _FIXED_PATH),
    PerLayer("core.optimizer.self_ms_per_query", "ms", "lower", _FIXED_PATH),
    PerLayer("core.exec.passes_per_query", "count", "lower", "queries_per_s on crowd_durable, then lookup_warm"),
    PerLayer("core.exec.us_per_pass", "us", "lower", "queries_per_s on crowd_durable, then lookup_warm"),
    PerLayer("core.exec.self_ms_per_query", "ms", "lower", "queries_per_s on crowd_durable, then lookup_warm"),
    PerLayer("core.exec.clock_advances_per_query", "count", "lower", "queries_per_s on crowd_durable"),
    PerLayer("core.exec.noop_advance_share", "ratio", "lower", "queries_per_s on crowd_durable"),
    PerLayer("core.operators.self_ms_per_query", "ms", "lower", "query_p50_ms, queries_per_s on analytic_local; flat on lookup_warm"),
    PerLayer("core.tasks.tasks_per_query", "count", "lower", _CROWD),
    PerLayer("core.tasks.hits_per_query", "count", "lower", _CROWD),
    PerLayer("core.tasks.cache_hit_ratio", "ratio", "higher", "explains lookup_warm (1.0) vs crowd_durable (0.0)"),
    PerLayer("core.tasks.busy_ms_per_query", "ms", "lower", _CROWD),
    PerLayer("core.tasks.usd_per_query", "usd", "lower", "the requester's bill; 0 on analytic_local"),
    PerLayer("crowd.hits_created", "count", "lower", "cpu_ms_per_query, queries_per_s on crowd_durable"),
    PerLayer("crowd.events_per_query", "count", "lower", "cpu_ms_per_query, queries_per_s on crowd_durable"),
    PerLayer("crowd.busy_ms_per_query", "ms", "lower", "cpu_ms_per_query, queries_per_s on crowd_durable"),
    PerLayer("crowd.sim_latency_p50_s", "s", "lower", "the requester's simulated crowd wait; exact per seed"),
    PerLayer("storage.load_rows_per_s", "1/s", "higher", "setup_s on analytic_local, cluster_tcp_mixed"),
    PerLayer("storage.busy_ms_per_query", "ms", "lower", "query_p50_ms, queries_per_s on analytic_local; flat on lookup_warm"),
    PerLayer("storage.rows_scanned_per_query", "count", "lower", "query_p50_ms, queries_per_s on analytic_local"),
    PerLayer("storage.result_rows_per_query", "count", "lower", "query_p50_ms on analytic_local, cluster_tcp_mixed"),
    PerLayer("storage.wal.appends_per_query", "count", "lower", "queries_per_s on crowd_durable"),
    PerLayer("storage.wal.bytes_per_query", "B", "lower", "queries_per_s on crowd_durable"),
    PerLayer("storage.wal.fsyncs", "count", "lower", "queries_per_s on crowd_durable"),
    PerLayer("storage.wal.fsync_ms_total", "ms", "lower", "queries_per_s on crowd_durable"),
    PerLayer("storage.wal.busy_ms_per_query", "ms", "lower", "queries_per_s on crowd_durable"),
    PerLayer("storage.wal.recover_s", "s", "lower", "no end-to-end metric: the read side of the WAL, crowd_durable only"),
    PerLayer("storage.wal.replay_records_per_s", "1/s", "higher", "no end-to-end metric: the read side of the WAL, crowd_durable only"),
    PerLayer("cluster.serialization.frames_per_query", "count", "lower", _CLUSTER),
    PerLayer("cluster.serialization.bytes_per_query", "B", "lower", _CLUSTER),
    PerLayer("cluster.serialization.busy_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.serialization.us_per_row", "us", "lower", _CLUSTER),
    PerLayer("cluster.messages.round_trips_per_query", "count", "lower", _CLUSTER),
    PerLayer("cluster.messages.wait_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.coordinator.ops_per_query", "count", "lower", _CLUSTER),
    PerLayer("cluster.coordinator.self_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.coordinator.pump_calls", "count", "lower", _CLUSTER),
    PerLayer("cluster.worker.handle_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.worker.cpu_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.server.requests_per_query", "count", "lower", _CLUSTER),
    PerLayer("cluster.server.cpu_ms_per_query", "ms", "lower", _CLUSTER),
    PerLayer("cluster.server.untraced_cpu_ms_per_query", "ms", "lower", "server CPU no wrapped callable brackets (asyncio plumbing); " + _CLUSTER),
    PerLayer("client.polls_per_query", "count", "lower", "diagnostic for query_p50_ms on cluster_tcp_mixed"),
    PerLayer("client.request_rtt_p50_ms", "ms", "lower", "diagnostic for query_p50_ms on cluster_tcp_mixed"),
    PerLayer("client.lookup_p50_ms", "ms", "lower", "diagnostic: p50 of the lookup class"),
    PerLayer("client.agg_p50_ms", "ms", "lower", "diagnostic: p50 of the group-by class"),
    PerLayer("client.scan_p50_ms", "ms", "lower", "diagnostic: p50 of the join class"),
    PerLayer("client.crowd_p50_ms", "ms", "lower", "diagnostic: p50 of the crowd class"),
    PerLayer("client.window_queries_per_s", "1/s", "higher", "diagnostic: verified queries / whole window wall - the plain mean beside queries_per_s's median over blocks"),
    PerLayer("client.query_tail_percentile", "%", "higher", "diagnostic: the highest percentile with ten samples beyond it in the traced window"),
    PerLayer("client.query_tail_ms", "ms", "lower", "diagnostic: latency at that percentile - the tail query_p50_ms hides; too jumpy to gate"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "traced wall / untraced wall over the same ops; must stay <= 1.5"),
    PerLayer("trace.coverage", "ratio", "higher", "(traced busy + off-CPU time) / window, min over the program's processes"),
    PerLayer("trace.idle_share", "ratio", "lower", "share of the window the program's processes spent off the CPU"),
)

#: Floors the traced repetition is checked against.
MAX_TRACE_OVERHEAD = 1.5
MIN_COVERAGE_EMBEDDED = 0.9
MIN_COVERAGE_CLUSTER = 0.7

#: A lone traced run is held against an untraced run of this share of its ops.
REFERENCE_SHARE = 0.25

#: A query that takes longer than this counts as failed, whatever it returned.
QUERY_TIMEOUT_S = 30.0
