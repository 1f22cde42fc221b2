"""E9 — Section 3: the human-powered rank (ORDER BY) operator.

Compares the two crowd sort implementations described in the companion CIDR
paper the demo cites as [5]: O(n²) pairwise comparisons versus O(n) per-item
ratings, for two input sizes.  The expected shape: comparisons are far more
expensive but recover the true order almost exactly; ratings are cheap but
noisier.
"""

from repro.experiments import build_products_engine, print_table


def run_sort_experiment():
    rows = []
    for n_products in (10, 25):
        for strategy, task in (("comparison", "biggerItem"), ("rating", "rateSize")):
            run = build_products_engine(
                n_products=n_products, assignments=3, sort_batch=5, seed=901
            )
            handle = run.engine.query(f"SELECT name FROM products ORDER BY {task}(name)")
            results = handle.wait()
            observed = [row["name"] for row in results]
            rho = run.workload.rank_correlation(run.workload.true_size_order(), observed)
            rows.append(
                {
                    "items": n_products,
                    "strategy": strategy,
                    "hits": handle.stats.hits_posted,
                    "cost_usd": handle.total_cost,
                    "rank_correlation": rho,
                    "minutes": handle.stats.elapsed / 60,
                }
            )
    return rows


def test_e9_sort():
    rows = run_sort_experiment()
    print_table(
        "E9: crowd ORDER BY — pairwise comparisons vs ratings",
        ["items", "strategy", "hits", "cost_usd", "rank_correlation", "minutes"],
        rows,
    )
    by_key = {(r["items"], r["strategy"]): r for r in rows}
    for n_products in (10, 25):
        comparison = by_key[(n_products, "comparison")]
        rating = by_key[(n_products, "rating")]
        # Comparison sort pays O(n^2), rating sort O(n).
        assert comparison["cost_usd"] > rating["cost_usd"]
        # Both recover a meaningful order; comparisons are at least as good.
        assert comparison["rank_correlation"] >= 0.85
        assert rating["rank_correlation"] >= 0.5
        assert comparison["rank_correlation"] >= rating["rank_correlation"] - 0.05
    # The comparison-vs-rating cost gap widens with input size.
    gap_small = by_key[(10, "comparison")]["cost_usd"] / max(by_key[(10, "rating")]["cost_usd"], 1e-9)
    gap_large = by_key[(25, "comparison")]["cost_usd"] / max(by_key[(25, "rating")]["cost_usd"], 1e-9)
    assert gap_large > gap_small
