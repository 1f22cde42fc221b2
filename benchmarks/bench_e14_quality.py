"""E14 — worker quality control: adaptive redundancy vs a fixed 5-vote blanket.

Section 2 motivates built-in redundancy because "individual turker results
are often inaccurate" — but a blanket redundancy pays the worst-case price
for every task.  This experiment runs the colour filter on a spammer-heavy
marketplace three ways:

* ``fixed-5`` — the seed behaviour: 5 assignments per task, plain majority;
* ``weighted`` — gold probes + reputation-weighted voting, still 5 votes;
* ``adaptive`` — the full quality-control stack: gold probes, weighted
  voting, and wave-based early stopping (3 votes first, 2 more only when
  the weighted confidence stays low).

The headline claim: adaptive redundancy matches or beats fixed-5 accuracy
with at least 25% fewer paid assignments.
"""

from repro.crowd import PopulationMix, QualityConfig
from repro.experiments import build_products_engine, print_table

SPAMMY = PopulationMix(diligent=0.30, noisy=0.25, lazy=0.10, spammer=0.35)
SEED = 602

WEIGHTED_ONLY = QualityConfig(
    gold_frequency=0.6, confidence_threshold=0.7, adaptive_redundancy=False, seed=71
)
FULL_ADAPTIVE = QualityConfig(gold_frequency=0.6, confidence_threshold=0.7, seed=71)


def run_quality_experiment():
    rows = []
    for label, quality in (
        ("fixed-5", None),
        ("weighted", WEIGHTED_ONLY),
        ("adaptive", FULL_ADAPTIVE),
    ):
        run = build_products_engine(
            n_products=40,
            assignments=5,
            filter_batch=4,
            population_mix=SPAMMY,
            seed=SEED,
            quality=quality,
        )
        handle = run.engine.query("SELECT name FROM products WHERE isTargetColor(name)")
        results = handle.wait()
        accuracy = run.workload.filter_accuracy(results, name_column="name")
        spec_stats = run.engine.statistics.spec("isTargetColor")
        manager_stats = run.engine.task_manager.stats
        reputation = run.engine.reputation
        precision, recall = accuracy["precision"], accuracy["recall"]
        rows.append(
            {
                "mode": label,
                "precision": precision,
                "recall": recall,
                "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
                "assignments": spec_stats.assignments_received,
                "hits": spec_stats.hits_posted,
                "cost_usd": handle.total_cost,
                "early_stopped": manager_stats.early_stopped_tasks,
                "flagged_workers": len(reputation.flagged_workers()) if reputation else 0,
            }
        )
    return rows


def test_e14_quality():
    rows = run_quality_experiment()
    print_table(
        "E14: quality control on a 35%-spammer marketplace (target redundancy 5)",
        [
            "mode",
            "precision",
            "recall",
            "f1",
            "assignments",
            "hits",
            "cost_usd",
            "early_stopped",
            "flagged_workers",
        ],
        rows,
    )
    by_mode = {row["mode"]: row for row in rows}
    fixed, weighted, adaptive = by_mode["fixed-5"], by_mode["weighted"], by_mode["adaptive"]

    # The headline: adaptive redundancy matches-or-beats fixed-5 accuracy
    # while buying at least 25% fewer assignments (and fewer dollars).
    assert adaptive["f1"] >= fixed["f1"]
    assert adaptive["assignments"] <= 0.75 * fixed["assignments"]
    assert adaptive["cost_usd"] < fixed["cost_usd"]

    # Reputation-weighted voting alone (same 5 votes) must not cost more and
    # must not lose accuracy — down-weighting detected spammers only helps.
    assert weighted["f1"] >= fixed["f1"]
    assert weighted["assignments"] == fixed["assignments"]

    # The machinery actually engaged: tasks stopped early and gold probes
    # flagged spammers.
    assert adaptive["early_stopped"] > 0
    assert adaptive["flagged_workers"] > 0
