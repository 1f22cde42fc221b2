"""E12 — Section 2: mid-query adaptive re-optimization.

"Query selectivities for HIT-based operators are not known a priori", so the
initial physical plan can be built on badly wrong estimates.  This benchmark
constructs exactly that situation: the statistics manager is primed to
believe ``isTargetColor`` matches almost nothing (as if previous queries had
observed selectivity ~0.05), while 90% of the products truly match.  The
planner therefore expects a tiny ORDER BY input and keeps the comparison
interface for the ``biggerItem`` rank task; in reality the sort receives ~16
rows, for which O(n²) pairwise comparisons are ruinously expensive.

The static run (``adaptive=False``) is stuck with that plan.  The adaptive
run hits the operator-completion barrier when the crowd filter finishes,
re-costs the pending sort with the *observed* cardinality, and swaps it to
the rating interface mid-query — posting measurably fewer HITs and spending
measurably fewer dollars for the same result set.
"""

from repro.core.exec.context import QueryConfig
from repro.engine import QurkEngine
from repro.experiments import print_table
from repro.workloads.products import ProductsWorkload

MISESTIMATED_SQL = (
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name)"
)


def build_engine(*, adaptive: bool, n_products: int = 18, seed: int = 1201):
    workload = ProductsWorkload(n_products=n_products, target_fraction=0.9, seed=seed)
    engine = QurkEngine(
        seed=seed,
        enable_cache=False,
        enable_task_model=False,
        default_query_config=QueryConfig(adaptive=adaptive),
    )
    workload.install(engine.database)
    oracle = workload.oracle()
    for task in ("isTargetColor", "biggerItem", "rateSize"):
        engine.register_oracle(task, oracle)
    name_payload = lambda row: {"name": row["name"]}  # noqa: E731 - tiny adapter
    engine.define_task(workload.color_filter_spec(assignments=3), learnable=False)
    engine.define_task(
        workload.size_compare_spec(assignments=3), payload=name_payload, learnable=False
    )
    engine.define_task(
        workload.size_rating_spec(assignments=3), payload=name_payload, learnable=False
    )
    # The deliberate misestimate: prior observations said nothing matches.
    stats = engine.statistics.spec("isTargetColor")
    stats.boolean_total = 36
    stats.boolean_true = 0
    return engine, workload


def run_adaptive_replan():
    rows = []
    for mode, adaptive in (("static", False), ("adaptive", True)):
        engine, workload = build_engine(adaptive=adaptive)
        handle = engine.query(MISESTIMATED_SQL)
        results = handle.wait()
        observed = [row["name"] for row in results]
        truth = [
            name
            for name in workload.true_size_order()
            if name in set(observed)
        ]
        rho = workload.rank_correlation(truth, observed)
        changes = [
            change.describe()
            for change in handle.plan_history()
            if change.kind != "plan"
        ]
        rows.append(
            {
                "mode": mode,
                "results": len(results),
                "hits": handle.stats.hits_posted,
                "cost_usd": handle.total_cost,
                "rank_correlation": rho,
                "plan_changes": "; ".join(changes) or "<none>",
            }
        )
    return rows


def test_e12_adaptive_replan():
    rows = run_adaptive_replan()
    print_table(
        "E12: mid-query re-planning under a misestimated filter selectivity",
        ["mode", "results", "hits", "cost_usd", "rank_correlation", "plan_changes"],
        rows,
    )
    static, adaptive = rows
    # Both plans produce the same result set size (same filter, same data).
    assert adaptive["results"] == static["results"]
    # The adaptive run is strictly cheaper in both HITs and dollars.
    assert adaptive["hits"] < static["hits"]
    assert adaptive["cost_usd"] < static["cost_usd"]
    # The saving comes from an actual recorded plan change.
    assert "sort-strategy" in adaptive["plan_changes"]
    assert static["plan_changes"] == "<none>"
    # The rating sort is noisier but still recovers a meaningful order.
    assert adaptive["rank_correlation"] >= 0.5
