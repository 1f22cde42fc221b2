"""E5 — Section 2: redundancy vs accuracy vs cost.

"Operator implementations must have redundancy built-in, as individual turker
results are often inaccurate."  The benchmark sweeps the number of
assignments per HIT for a crowd filter under two marketplace mixes (a mostly
reliable population and one with many spammers) and reports the accuracy the
majority vote achieves and what it costs.
"""

from repro.crowd import PopulationMix
from repro.experiments import build_products_engine, print_table

RELIABLE = PopulationMix(diligent=0.60, noisy=0.30, lazy=0.08, spammer=0.02)
SPAMMY = PopulationMix(diligent=0.35, noisy=0.30, lazy=0.10, spammer=0.25)


def run_redundancy_experiment():
    rows = []
    for mix_label, mix in (("2% spammers", RELIABLE), ("25% spammers", SPAMMY)):
        for assignments in (1, 3, 5):
            run = build_products_engine(
                n_products=40, assignments=assignments, filter_batch=4,
                population_mix=mix, seed=501,
            )
            handle = run.engine.query("SELECT name FROM products WHERE isTargetColor(name)")
            results = handle.wait()
            quality = run.workload.filter_accuracy(results, name_column="name")
            rows.append(
                {
                    "population": mix_label,
                    "assignments": assignments,
                    "precision": quality["precision"],
                    "recall": quality["recall"],
                    "cost_usd": handle.total_cost,
                    "hits": handle.stats.hits_posted,
                }
            )
    return rows


def test_e5_redundancy():
    rows = run_redundancy_experiment()
    print_table(
        "E5: assignments per HIT vs filter accuracy and cost",
        ["population", "assignments", "precision", "recall", "cost_usd", "hits"],
        rows,
    )
    by_key = {(r["population"], r["assignments"]): r for r in rows}

    def f1(row):
        p, r = row["precision"], row["recall"]
        return 2 * p * r / (p + r) if p + r else 0.0

    for population in ("2% spammers", "25% spammers"):
        # Cost grows linearly with redundancy.
        assert by_key[(population, 5)]["cost_usd"] > by_key[(population, 1)]["cost_usd"] * 3
        # Majority voting with 5 workers beats a single worker's answer.
        assert f1(by_key[(population, 5)]) >= f1(by_key[(population, 1)])
        assert by_key[(population, 5)]["precision"] >= by_key[(population, 1)]["precision"]
    # A spammier marketplace needs the redundancy more: at every redundancy
    # level its accuracy trails the mostly-reliable population.
    for assignments in (1, 3, 5):
        assert (
            f1(by_key[("25% spammers", assignments)])
            <= f1(by_key[("2% spammers", assignments)]) + 0.02
        )
