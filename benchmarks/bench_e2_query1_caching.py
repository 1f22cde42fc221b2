"""E2 — Query 1 / Task 1: schema extension and the Task Cache.

"Observe that the findCEO function is used twice ... the findCEO function
would only be run on MTurk once per company.  We cache a given result to be
used in several places (even possibly in different queries)."

The benchmark runs Query 1 over increasing table sizes, then re-runs it on
the same engine with the cache enabled and disabled, reporting what the
dashboard's "cache savings" panel would show.
"""

from repro.experiments import QUERY1_SQL, build_companies_engine, print_table


def run_caching_experiment():
    rows = []
    for n_companies in (25, 100):
        for cache_enabled in (True, False):
            run = build_companies_engine(
                n_companies=n_companies, assignments=3, enable_cache=cache_enabled, seed=201
            )
            first = run.engine.query(QUERY1_SQL)
            first.wait()
            second = run.engine.query(
                "SELECT companyName, findCEO(companyName).CEO FROM companies"
            )
            second.wait()
            rows.append(
                {
                    "companies": n_companies,
                    "cache": "on" if cache_enabled else "off",
                    "first_cost": first.total_cost,
                    "rerun_cost": second.total_cost,
                    "rerun_cache_hits": second.stats.cache_hits,
                    "dollars_saved": second.stats.dollars_saved_cache,
                }
            )
    return rows


def test_e2_query1_caching():
    rows = run_caching_experiment()
    print_table(
        "E2: Query 1 with and without the Task Cache",
        ["companies", "cache", "first_cost", "rerun_cost", "rerun_cache_hits", "dollars_saved"],
        rows,
    )
    by_key = {(r["companies"], r["cache"]): r for r in rows}
    for n_companies in (25, 100):
        cached = by_key[(n_companies, "on")]
        uncached = by_key[(n_companies, "off")]
        # With the cache, the re-run is free and every lookup is a hit.
        assert cached["rerun_cost"] == 0.0
        assert cached["rerun_cache_hits"] == n_companies
        # Without the cache, the re-run pays the crowd again.
        assert uncached["rerun_cost"] > 0
        # Cost scales with table size (first run, cache irrelevant).
        assert by_key[(100, "on")]["first_cost"] > by_key[(25, "on")]["first_cost"] * 2
