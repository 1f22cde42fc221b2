"""E6 — the Task Model: "classifiers in place of humans".

"If Qurk is aware of a learning model for the task, it trains this model with
HIT results with the hope of eventually reducing monetary costs through
automation."  The benchmark runs a crowd filter over the same catalog for
several passes (cache disabled): pass 1 is answered entirely by the crowd and
trains the model; later passes are increasingly answered by the classifier,
and the dashboard's "classifier savings" figure grows.
"""

from repro.core.tasks.task_model import LearnedTaskModel
from repro.experiments import build_products_engine, print_table


def run_task_model_experiment():
    run = build_products_engine(
        n_products=100, assignments=3, filter_batch=5, enable_task_model=True, seed=601
    )
    engine = run.engine
    entry = engine.registry.require("isTargetColor")
    model = LearnedTaskModel(entry.spec, learning_rate=0.5, confidence_threshold=0.6)
    engine.task_models.register("isTargetColor", model)

    rows = []
    for pass_number in (1, 2, 3):
        handle = engine.query("SELECT name FROM products WHERE isTargetColor(name)")
        results = handle.wait()
        quality = run.workload.filter_accuracy(results, name_column="name")
        rows.append(
            {
                "pass": pass_number,
                "crowd_tasks": handle.stats.tasks_completed - handle.stats.model_answers,
                "model_tasks": handle.stats.model_answers,
                "cost_usd": handle.total_cost,
                "precision": quality["precision"],
                "recall": quality["recall"],
                "model_trusted": model.is_trusted,
                "cumulative_savings": model.stats.dollars_saved,
            }
        )
    return rows


def test_e6_task_model():
    rows = run_task_model_experiment()
    print_table(
        "E6: the learned Task Model replacing crowd workers over successive passes",
        ["pass", "crowd_tasks", "model_tasks", "cost_usd", "precision", "recall",
         "model_trusted", "cumulative_savings"],
        rows,
    )
    first, second, third = rows
    # Pass 1 is all crowd work and trains a trustworthy model.
    assert first["model_tasks"] == 0
    assert first["model_trusted"]
    # Later passes hand most tasks to the classifier and cost much less.
    assert second["model_tasks"] > second["crowd_tasks"]
    assert second["cost_usd"] < first["cost_usd"] * 0.25
    assert third["model_tasks"] > third["crowd_tasks"]
    assert third["cost_usd"] < first["cost_usd"] * 0.5
    # Accuracy stays high once the classifier answers.
    assert second["precision"] >= 0.85 and second["recall"] >= 0.85
    # Savings accumulate (the dashboard's classifier-savings series rises).
    assert third["cumulative_savings"] > second["cumulative_savings"] > 0
