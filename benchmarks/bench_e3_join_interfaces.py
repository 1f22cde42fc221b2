"""E3 — Query 2 / Task 2 / Figure 3: crowd join interfaces.

The paper warns that the naive implementation of a crowd join (one HIT per
pair of the cross product) has "extraordinary monetary cost", and the demo
lets the audience explore "how different join interfaces ... affect accuracy,
cost, and latency".  This benchmark reproduces that comparison: naive
pairwise HITs, pair batching, and the two-column drag-and-drop interface of
Figure 3, across two table sizes.
"""

from repro.experiments import QUERY2_SQL, build_celebrity_engine, print_table

INTERFACES = (
    ("naive 1 pair/HIT", dict(interface="pairs", pairs_per_hit=1)),
    ("batched 10 pairs/HIT", dict(interface="pairs", pairs_per_hit=10)),
    ("two-column 3x3 (Fig. 3)", dict(interface="columns", left_per_hit=3, right_per_hit=3)),
)


def run_join_interfaces():
    rows = []
    for size in (10, 16):
        for label, options in INTERFACES:
            run = build_celebrity_engine(
                n_celebrities=size, n_spotted=size, assignments=3, seed=301, **options
            )
            handle = run.engine.query(QUERY2_SQL)
            results = handle.wait()
            score = run.workload.score_results(results)
            rows.append(
                {
                    "table_size": size,
                    "interface": label,
                    "cross_product": size * size,
                    "hits": handle.stats.hits_posted,
                    "cost_usd": handle.total_cost,
                    "precision": score["precision"],
                    "recall": score["recall"],
                    "minutes": handle.stats.elapsed / 60,
                }
            )
    return rows


def test_e3_join_interfaces():
    rows = run_join_interfaces()
    print_table(
        "E3: join interface comparison (cost / accuracy / latency)",
        ["table_size", "interface", "cross_product", "hits", "cost_usd", "precision", "recall", "minutes"],
        rows,
    )
    for size in (10, 16):
        naive, batched, columns = [r for r in rows if r["table_size"] == size]
        # Naive pairwise posts one HIT per pair — the cost the paper warns about.
        assert naive["hits"] == size * size
        # Both batching schemes cut HITs (and dollars) by large factors.
        assert batched["hits"] <= naive["hits"] / 5
        assert columns["hits"] <= naive["hits"] / 5
        assert columns["cost_usd"] < naive["cost_usd"] / 5
        # Every interface still finds essentially all true matches.
        assert naive["recall"] >= 0.8
        assert columns["recall"] >= 0.8
        # The drag-and-drop interface is the most precise of the three.
        assert columns["precision"] >= max(naive["precision"], batched["precision"]) - 1e-9
