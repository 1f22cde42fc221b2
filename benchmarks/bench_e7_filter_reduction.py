"""E7 — Section 4.1: "filtering-based reduction in cross-product size".

The dashboard lets the audience explore how pre-filtering shrinks a crowd
join.  The benchmark runs Query 2 with no pre-filter and with progressively
tighter machine pre-filters on the image feature distance, reporting how many
pairs the crowd is actually asked about, what the join costs, and whether any
true matches are lost.
"""

from repro.core.operators.crowd_join import CrowdJoinOperator
from repro.experiments import QUERY2_SQL, build_celebrity_engine, print_table

THRESHOLDS = (None, 0.9, 0.55)


def run_filter_reduction():
    rows = []
    for threshold in THRESHOLDS:
        run = build_celebrity_engine(
            n_celebrities=14,
            n_spotted=14,
            interface="columns",
            assignments=3,
            use_prefilter=threshold is not None,
            prefilter_threshold=threshold or 0.0,
            seed=701,
        )
        handle = run.engine.query(QUERY2_SQL)
        # Held before waiting: a finished query's executor drops its tree.
        join = next(
            op for op in handle.executor.root.walk() if isinstance(op, CrowdJoinOperator)
        )
        results = handle.wait()
        score = run.workload.score_results(results)
        rows.append(
            {
                "prefilter": "none" if threshold is None else f"distance<={threshold}",
                "cross_product": run.workload.cross_product_size(),
                "pairs_asked": join.pairs_asked,
                "pairs_prefiltered": join.pairs_prefiltered,
                "hits": handle.stats.hits_posted,
                "cost_usd": handle.total_cost,
                "precision": score["precision"],
                "recall": score["recall"],
            }
        )
    return rows


def test_e7_filter_reduction():
    rows = run_filter_reduction()
    print_table(
        "E7: machine pre-filtering before the crowd join",
        ["prefilter", "cross_product", "pairs_asked", "pairs_prefiltered", "hits",
         "cost_usd", "precision", "recall"],
        rows,
    )
    unfiltered, loose, tight = rows
    # Without a pre-filter the crowd sees the whole cross product.
    assert unfiltered["pairs_asked"] == unfiltered["cross_product"]
    # Tighter pre-filters ask the crowd about fewer pairs and cost less.
    assert tight["pairs_asked"] < loose["pairs_asked"] <= unfiltered["pairs_asked"]
    assert tight["cost_usd"] < unfiltered["cost_usd"]
    # The feature threshold is generous enough that recall stays high.
    assert tight["recall"] >= 0.85
    assert tight["precision"] >= unfiltered["precision"] - 0.05
