"""E8 — Section 2: batching tasks into a single HIT.

"As an optimization, the manager can batch several tasks into a single HIT."
The benchmark sweeps the batch size of a crowd filter and reports the
cost/latency/accuracy trade-off: fewer HITs cost less, but very long HITs
degrade answer quality because workers fatigue (the lazy-worker model).
"""

from repro.experiments import build_products_engine, print_table

BATCH_SIZES = (1, 2, 5, 10)


def run_batching_experiment():
    rows = []
    for batch_size in BATCH_SIZES:
        run = build_products_engine(
            n_products=40, assignments=3, filter_batch=batch_size, seed=801
        )
        handle = run.engine.query("SELECT name FROM products WHERE isTargetColor(name)")
        results = handle.wait()
        quality = run.workload.filter_accuracy(results, name_column="name")
        rows.append(
            {
                "batch_size": batch_size,
                "hits": handle.stats.hits_posted,
                "cost_usd": handle.total_cost,
                "precision": quality["precision"],
                "recall": quality["recall"],
                "minutes": handle.stats.elapsed / 60,
            }
        )
    return rows


def test_e8_batching():
    rows = run_batching_experiment()
    print_table(
        "E8: tasks per HIT vs cost, accuracy and latency (crowd filter, 40 products)",
        ["batch_size", "hits", "cost_usd", "precision", "recall", "minutes"],
        rows,
    )
    by_size = {r["batch_size"]: r for r in rows}
    # HIT count (and therefore cost) drops roughly linearly with batch size.
    assert by_size[1]["hits"] == 40
    assert by_size[10]["hits"] == 4
    assert by_size[10]["cost_usd"] < by_size[1]["cost_usd"] / 5
    # Quality stays usable across batch sizes, but the biggest batches are no
    # better than unbatched HITs (worker fatigue pushes the other way).
    for row in rows:
        assert row["precision"] >= 0.6 and row["recall"] >= 0.75
    f1 = lambda r: 2 * r["precision"] * r["recall"] / (r["precision"] + r["recall"])  # noqa: E731
    assert f1(by_size[10]) <= f1(by_size[1]) + 0.05
