"""What a finished query leaves for CPython's cyclic collector: report only.

Two measurements, each on a fresh engine built the way the end-to-end
benchmark builds its embedded workloads (fixed redundancy, no task model):

* **Census.**  The GC-tracked objects that stay alive per finished query,
  by type: ``gc.collect()``, count ``gc.get_objects()`` by type, run the
  queries, collect again and divide the growth by the query count.  Run for
  cached ``findCEO`` point lookups and for waves of 16 cold crowd filters.
* **Shard worker census.**  The same count for an in-process
  :class:`~repro.cluster.ShardWorker` fed cached lookups through
  ``handle()`` — ``submit_many`` and ``drain`` messages, as the coordinator
  sends them, with no process started — plus the bytes ``tracemalloc`` sees
  retained per query, which also counts objects the collector does not
  track (a dict holding only strings and numbers, say).
* **Collector probe.**  Full (generation-2) collections and the
  milliseconds they took over a fixed window of cached lookups, timed with
  ``gc.callbacks``; the collector runs as it would in any program.
* **Bulk load.**  Rows per second, and ``tracemalloc``'s peak bytes per
  row, of one ``Table.insert_many`` of ``LOAD_ROWS`` plain 4-column tuples
  handed over as a ``zip``, the way the benchmark's factory loads ``items``.
  The peak is what a load adds to a process's peak RSS.

Nothing is gated: the numbers depend on the Python version, and the probe's
milliseconds on the host.  Usage::

    PYTHONPATH=src python tools/footprint.py    # ~12 s
"""

from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import count

from repro.cluster import EngineSpec, ShardWorker
from repro.cluster.serialization import encode_query
from repro.experiments import build_companies_engine, build_products_engine
from repro.storage import DataType, Schema, Table
from repro.workloads.companies import CompaniesWorkload

LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)
FILTER_SQL = (
    "SELECT name FROM products WHERE price >= {low} AND price < {high} AND isTargetColor(name)"
)

SEED = 83
#: ``LOOKUPS`` are counted by the census, ``WARM`` and ``WINDOW`` by the probe
#: (4,000 warm lookups, as the benchmark's ``lookup_warm`` runs before timing);
#: a crowd wave filters ``FILTER_ROWS`` of ``PRODUCTS`` products, ``WAVES`` times.
COMPANIES = 200
LOOKUPS = 2000
WARM = 4000
WINDOW = 4000
PRODUCTS = 2400
WAVES = 4
FILTER_ROWS = 16
WAVE_SIZE = 16
#: The shard worker census submits ``WORKER_BATCHES`` batches of
#: ``WORKER_BATCH`` cached lookups, draining after each.
WORKER_BATCHES = 50
WORKER_BATCH = 20
TOP_TYPES = 12
#: The bulk load's size: the benchmark's ``items`` table.
LOAD_ROWS = 200_000


def tracked_by_type() -> Counter:
    gc.collect()
    return Counter(type(obj).__qualname__ for obj in gc.get_objects())


def census(label: str, run, n_queries: int) -> None:
    """Print the tracked objects ``run()`` leaves alive, per query and by type."""
    before = tracked_by_type()
    run()
    grown = tracked_by_type()
    grown.subtract(before)
    per_query = sum(grown.values()) / n_queries
    print(f"{label}: {per_query:.1f} tracked objects retained per query ({n_queries} queries)")
    for name, count in sorted(grown.items(), key=lambda item: (-item[1], item[0]))[:TOP_TYPES]:
        if count / n_queries >= 0.01:
            print(f"  {count / n_queries:8.2f}  {name}")


def lookup_engine():
    """A companies engine with every findCEO answer cached, and a lookup stream."""
    run = build_companies_engine(n_companies=COMPANIES, seed=SEED)
    names = [record.name for record in run.workload.records]
    for name in names:
        run.engine.query(LOOKUP_SQL.format(company=name)).wait()
    rng = random.Random(SEED)
    return run.engine, lambda: LOOKUP_SQL.format(company=rng.choice(names))


def lookups(engine, next_sql, count: int) -> None:
    for _ in range(count):
        engine.query(next_sql()).wait()


def crowd_waves() -> None:
    run = build_products_engine(n_products=PRODUCTS, filter_batch=10, seed=SEED)
    engine = run.engine
    prices = sorted(record.price for record in run.workload.records)
    rng = random.Random(SEED)
    width = FILTER_ROWS

    def wave() -> None:
        for _ in range(WAVE_SIZE):
            start = rng.randrange(len(prices) - width)
            sql = FILTER_SQL.format(low=prices[start], high=prices[start + width])
            engine.query(sql)
        engine.scheduler.drain()

    wave()
    census(
        f"crowd filter waves ({PRODUCTS} products)",
        lambda: [wave() for _ in range(WAVES)],
        WAVE_SIZE * WAVES,
    )


def shard_worker_census() -> None:
    """The census for an in-process shard worker, plus traced bytes per query."""
    spec = EngineSpec(
        "repro.experiments.harness:build_companies_engine",
        {"n_companies": COMPANIES, "seed": SEED},
    )
    worker = ShardWorker(spec)
    names = [record.name for record in CompaniesWorkload(COMPANIES, seed=SEED).records]
    cluster_ids = count(1)
    rng = random.Random(SEED)

    def submit_and_drain(companies: list[str]) -> None:
        queries = [
            encode_query(LOOKUP_SQL.format(company=name), query_id=f"cq{next(cluster_ids)}")
            for name in companies
        ]
        worker.handle({"op": "submit_many", "queries": queries})
        worker.handle({"op": "drain"})

    def batches() -> None:
        for _ in range(WORKER_BATCHES):
            submit_and_drain([rng.choice(names) for _ in range(WORKER_BATCH)])

    submit_and_drain(names)  # every findCEO answer is cached from here on
    n_queries = WORKER_BATCHES * WORKER_BATCH
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        census(f"shard worker, cached lookups ({COMPANIES} companies)", batches, n_queries)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    print(f"  {retained / n_queries:8.0f}  bytes retained per query (tracemalloc)")


def collector_probe() -> None:
    """Full collections and their milliseconds over a window of cached lookups."""
    engine, next_sql = lookup_engine()
    lookups(engine, next_sql, WARM)
    full: list[float] = []
    started: list[float] = []

    def on_collect(phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            started.append(time.perf_counter())
        else:
            full.append(time.perf_counter() - started.pop())

    gc.callbacks.append(on_collect)
    try:
        wall = time.perf_counter()
        lookups(engine, next_sql, WINDOW)
        wall = time.perf_counter() - wall
    finally:
        gc.callbacks.remove(on_collect)
    spent = sum(full) * 1000
    print(
        f"collector over {WINDOW} cached lookups (after {WARM} warm): "
        f"{len(full)} full collection(s), {spent:.0f} ms "
        f"({spent / (wall * 1000):.1%} of {wall:.2f} s wall), "
        f"{len(gc.get_objects())} tracked objects at the end"
    )


def bulk_load() -> None:
    """Rows per second and peak traced bytes per row of one bulk load."""
    schema = Schema.of(
        ("id", DataType.INTEGER),
        ("category", DataType.STRING),
        ("price", DataType.INTEGER),
        ("score", DataType.FLOAT),
    )
    rng = random.Random(SEED)
    ids = list(range(LOAD_ROWS))
    categories = [f"c{rng.randrange(64)}" for _ in ids]
    prices = [rng.randrange(1000) for _ in ids]
    scores = [i / LOAD_ROWS for i in ids]

    def load() -> Table:
        table = Table("items", schema)
        table.insert_many(zip(ids, categories, prices, scores))
        return table

    wall = time.perf_counter()
    load()
    wall = time.perf_counter() - wall
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        load()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    print(
        f"bulk load of {LOAD_ROWS} 4-column rows: {LOAD_ROWS / wall:,.0f} rows/s, "
        f"{peak / LOAD_ROWS:.0f} peak bytes per row (tracemalloc)"
    )


def main() -> int:
    print(f"python {sys.version.split()[0]}, gc thresholds {gc.get_threshold()}")
    # The probe runs first: what earlier measurements leave in the heap
    # would move when its full collections fall.
    collector_probe()
    engine, next_sql = lookup_engine()
    lookups(engine, next_sql, LOOKUPS // 2)
    census(
        f"cached lookups ({COMPANIES} companies)",
        lambda: lookups(engine, next_sql, LOOKUPS),
        LOOKUPS,
    )
    del engine, next_sql
    crowd_waves()
    shard_worker_census()
    bulk_load()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
