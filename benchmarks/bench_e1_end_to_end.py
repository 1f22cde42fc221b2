"""E1 — Figure 1: the full system, end to end.

Runs the paper's two demo queries (Query 1 schema extension, Query 2 image
join) through the whole stack — parser, optimizer, asynchronous executor,
task manager, HIT compiler, simulated MTurk — and reports the row counts,
monetary cost, HIT counts and simulated completion times a demo visitor
would see on the dashboard.
"""

from repro.dashboard import QueryDashboard
from repro.experiments import (
    QUERY1_SQL,
    QUERY2_SQL,
    build_celebrity_engine,
    build_companies_engine,
    print_table,
)


def run_end_to_end():
    rows = []

    companies = build_companies_engine(n_companies=25, assignments=3, seed=101)
    handle1 = companies.engine.query(QUERY1_SQL)
    results1 = handle1.wait()
    accuracy = companies.workload.score_results(
        results1, company_column="companyName", ceo_column="findCEO.CEO"
    )
    rows.append(
        {
            "query": "Q1 findCEO (25 companies)",
            "rows": len(results1),
            "accuracy": accuracy,
            "hits": handle1.stats.hits_posted,
            "cost_usd": handle1.total_cost,
            "minutes": handle1.stats.elapsed / 60,
        }
    )

    celebrities = build_celebrity_engine(n_celebrities=12, n_spotted=12, assignments=3, seed=102)
    handle2 = celebrities.engine.query(QUERY2_SQL)
    results2 = handle2.wait()
    score = celebrities.workload.score_results(results2)
    rows.append(
        {
            "query": "Q2 samePerson (12x12 images)",
            "rows": len(results2),
            "accuracy": score["f1"],
            "hits": handle2.stats.hits_posted,
            "cost_usd": handle2.total_cost,
            "minutes": handle2.stats.elapsed / 60,
        }
    )
    dashboard_text = QueryDashboard(celebrities.engine).render(handle2.query_id)
    return rows, (handle1, results1, accuracy), (handle2, results2, score), dashboard_text


def test_e1_end_to_end():
    rows, q1, q2, dashboard_text = run_end_to_end()
    print_table(
        "E1: end-to-end demo queries (Figure 1 stack)",
        ["query", "rows", "accuracy", "hits", "cost_usd", "minutes"],
        rows,
    )
    print(dashboard_text)

    handle1, results1, accuracy = q1
    assert len(results1) == 25
    assert accuracy >= 0.85               # redundancy makes Query 1 reliable
    assert handle1.total_cost > 0

    handle2, results2, score = q2
    assert score["precision"] >= 0.8 and score["recall"] >= 0.7
    # The join never pays for the naive cross product (144 pairs).
    assert handle2.stats.hits_posted < 144
    # Asynchronous HITs take minutes, so simulated completion is minutes-scale.
    assert handle1.stats.elapsed > 60
