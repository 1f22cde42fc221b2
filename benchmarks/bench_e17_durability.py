"""E17 — durability: what the WAL records and what recovery replays.

Three questions about the event-sourced WAL + snapshot layer:

1. **What does journaling write?**  E15's control-plane workload (concurrent
   crowd filter queries on one marketplace) is run from the same seed under
   each fsync policy, and the WAL's record count is reported.  The log holds
   only what replay reads — one record per submission and one per drain
   barrier — so the count does not grow with the crowd work.

2. **What does recovery replay?**  Crash a durable run after N queries and
   call :meth:`QurkEngine.recover`.  Replay resubmits the logged queries
   against a fresh same-seed engine, so without a snapshot every logged
   query is replayed — which is exactly why snapshots exist.

3. **What do snapshots buy?**  The same workload with periodic checkpoints:
   each snapshot truncates the WAL, so recovery replays only the tail.  The
   sweep reports snapshots taken, surviving WAL records and replayed queries
   per snapshot interval, with the no-snapshot run as the reference point.

The wall-clock cost of journaling and recovery is measured by the
end-to-end benchmark's ``crowd_durable`` workload (``benchmarks/e2e``).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.engine import QurkEngine
from repro.experiments import build_products_engine, print_table
from repro.storage.durability import DurabilityConfig

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"

#: E15's workload shape: one crowd filter task per product per query.
N_QUERIES = 64
TASKS_PER_QUERY = 40
SEED = 1501


def _spec_payload(tasks_per_query: int) -> dict:
    return {
        "factory": "repro.experiments.harness:build_products_engine",
        "kwargs": {"n_products": tasks_per_query, "filter_batch": 1, "seed": SEED},
    }


def _run_workload(
    n_queries: int,
    tasks_per_query: int,
    *,
    directory: Path,
    fsync: str = "interval",
    snapshot_every: int | None = None,
    batches: int = 1,
) -> QurkEngine:
    """Drive e15's workload on a durable engine journaling to ``directory``."""
    engine = build_products_engine(
        n_products=tasks_per_query, filter_batch=1, seed=SEED
    ).engine
    engine.enable_durability(
        DurabilityConfig(
            directory=str(directory),
            fsync=fsync,
            snapshot_every=snapshot_every,
        ),
        spec=_spec_payload(tasks_per_query),
    )
    per_batch = max(1, n_queries // batches)
    submitted = 0
    while submitted < n_queries:
        count = min(per_batch, n_queries - submitted)
        handles = [engine.query(FILTER_SQL) for _ in range(count)]
        submitted += count
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        if not all(handle.is_complete for handle in handles):
            raise AssertionError("not every query completed")
    return engine


def run_wal_overhead(
    n_queries: int = N_QUERIES, tasks_per_query: int = TASKS_PER_QUERY
) -> list[dict]:
    """WAL records written per fsync policy, same seed and workload.

    The first row is the engine without a WAL, which writes none.
    """
    rows = [{"mode": "wal off (baseline)", "wal_records": 0}]
    for fsync in ("off", "interval", "always"):
        directory = Path(tempfile.mkdtemp(prefix=f"e17-{fsync}-"))
        try:
            engine = _run_workload(n_queries, tasks_per_query, directory=directory, fsync=fsync)
            rows.append(
                {"mode": f"wal on, fsync={fsync}", "wal_records": engine.journal.wal.last_lsn}
            )
            engine.journal.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


def run_recovery_time(
    query_counts: tuple[int, ...] = (8, 32, 128), tasks_per_query: int = 10
) -> list[dict]:
    """Replayed work vs log length (no snapshots: full replay)."""
    rows = []
    for n_queries in query_counts:
        directory = Path(tempfile.mkdtemp(prefix="e17-recovery-"))
        try:
            engine = _run_workload(n_queries, tasks_per_query, directory=directory)
            engine.journal.wal.simulate_crash()
            result = QurkEngine.recover(directory)
            result.engine.journal.close()
            rows.append(
                {
                    "queries_logged": n_queries,
                    "wal_records": result.wal_records,
                    "recovered_queries": len(result.engine.queries)
                    + len(result.outcomes),
                    "replayed_queries": len(result.replayed_query_ids),
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


def run_snapshot_interval_sweep(
    n_queries: int = 64,
    tasks_per_query: int = 10,
    intervals: tuple[int | None, ...] = (None, 32, 8),
    batches: int = 8,
) -> list[dict]:
    """Checkpoint cadence vs recovery work on a batched (drain-y) workload.

    Submissions arrive in ``batches`` waves with a drain between waves — the
    quiescent points where auto-checkpoints can fire.  ``snapshot_every``
    counts WAL records (submissions and drain barriers), so a wave of eight
    queries adds nine.  Denser snapshots mean a shorter surviving WAL and
    fewer replayed records at recovery.
    """
    rows = []
    for snapshot_every in intervals:
        directory = Path(tempfile.mkdtemp(prefix="e17-snap-"))
        try:
            engine = _run_workload(
                n_queries,
                tasks_per_query,
                directory=directory,
                snapshot_every=snapshot_every,
                batches=batches,
            )
            snapshots = len(list(directory.glob("snapshot-*.json")))
            engine.journal.wal.simulate_crash()
            result = QurkEngine.recover(directory)
            result.engine.journal.close()
            rows.append(
                {
                    "snapshot_every": snapshot_every or "off",
                    "snapshots_taken": snapshots,
                    "surviving_wal_records": result.wal_records,
                    "replayed_queries": len(result.replayed_query_ids),
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


# -- pytest entry point (quick sizes, with the CI recovery gates) -------------


def test_e17_durability_quick():
    results = {
        "records": run_wal_overhead(n_queries=32, tasks_per_query=20),
        "recovery": run_recovery_time(query_counts=(8, 32)),
        "snapshots": run_snapshot_interval_sweep(n_queries=32, intervals=(None, 16), batches=4),
    }
    print_table(
        "E17: WAL records on e15's workload (quick: 32 queries, 20 tasks each)",
        ["mode", "wal_records"],
        results["records"],
    )
    print_table(
        "E17: replay vs log length",
        ["queries_logged", "wal_records", "replayed_queries"],
        results["recovery"],
    )
    print_table(
        "E17: snapshot interval sweep",
        ["snapshot_every", "snapshots_taken", "surviving_wal_records", "replayed_queries"],
        results["snapshots"],
    )

    records = {row["mode"]: row for row in results["records"]}
    assert records["wal on, fsync=interval"]["wal_records"] > 0

    # Recovery replays everything when there are no snapshots...
    for row in results["recovery"]:
        assert row["replayed_queries"] == row["queries_logged"]
    # ...and snapshots shrink both the surviving log and the replayed tail.
    no_snap, with_snap = results["snapshots"]
    assert with_snap["snapshots_taken"] > 0
    assert no_snap["snapshots_taken"] == 0
    assert with_snap["surviving_wal_records"] < no_snap["surviving_wal_records"]
    assert with_snap["replayed_queries"] < no_snap["replayed_queries"]
