"""E4 — Figure 2: the Query Status Dashboard.

Reproduces the dashboard panel for the two long-running demo queries: budget
vs spend, the optimizer's total-cost estimate, cache savings and classifier
savings, sampled at several points of simulated time while the queries run.
"""

from repro.dashboard import QueryDashboard
from repro.experiments import QUERY1_SQL, build_companies_engine, print_table


def run_dashboard_experiment():
    run = build_companies_engine(n_companies=40, assignments=3, seed=401)
    engine = run.engine
    dashboard = QueryDashboard(engine)

    handle = engine.query(QUERY1_SQL, budget=5.0)
    samples = []
    checkpoints = (120.0, 480.0, 1200.0)
    for checkpoint in checkpoints:
        handle.run_until(checkpoint)
        snapshot = dashboard.snapshot(handle.query_id)
        samples.append(
            {
                "sim_time_s": snapshot.simulated_time,
                "status": snapshot.status,
                "results": snapshot.results_emitted,
                "budget": snapshot.budget,
                "spent": snapshot.spent,
                "estimated_total": snapshot.estimated_total_cost,
                "cache_savings": snapshot.cache_savings,
                "model_savings": snapshot.model_savings,
            }
        )
    handle.wait()
    # Re-run the same query: the dashboard now shows cache savings.
    rerun = engine.query(QUERY1_SQL, budget=5.0)
    rerun.wait()
    final = dashboard.snapshot(rerun.query_id)
    samples.append(
        {
            "sim_time_s": final.simulated_time,
            "status": f"rerun/{final.status}",
            "results": final.results_emitted,
            "budget": final.budget,
            "spent": final.spent,
            "estimated_total": final.estimated_total_cost,
            "cache_savings": final.cache_savings,
            "model_savings": final.model_savings,
        }
    )
    rendered = dashboard.render(handle.query_id)
    return samples, rendered, handle, rerun


def test_e4_dashboard_metrics():
    samples, rendered, handle, rerun = run_dashboard_experiment()
    print_table(
        "E4: dashboard samples while Query 1 runs (budget $5.00)",
        ["sim_time_s", "status", "results", "budget", "spent", "estimated_total",
         "cache_savings", "model_savings"],
        samples,
    )
    print(rendered)
    # Spend is monotone over time and never exceeds the budget.
    running = samples[:-1]
    assert all(b["spent"] >= a["spent"] for a, b in zip(running, running[1:]))
    assert all(s["spent"] <= 5.0 + 1e-9 for s in samples)
    # The optimizer's estimate is in the right ballpark of the real spend.
    final_spend = handle.total_cost
    assert samples[0]["estimated_total"] > 0
    assert final_spend <= 5.0
    # The rerun is answered from the cache: zero new spend, visible savings.
    assert rerun.total_cost == 0.0
    assert samples[-1]["cache_savings"] > 0
