"""Unit tests for worker reputations, gold probes, and quality control wiring."""

import pytest

from repro.crowd import (
    GoldQuestion,
    GoldStandardPool,
    PopulationMix,
    QualityConfig,
    WorkerReputation,
)
from repro.crowd.quality import DEFAULT_AGREEMENT_WEIGHT
from repro.errors import CrowdError
from repro.experiments.harness import build_products_engine

PRODUCTS_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


class TestQualityConfig:
    def test_defaults_validate(self):
        config = QualityConfig()
        assert config.confidence_threshold == 0.85
        assert config.adaptive_redundancy

    def test_validation(self):
        with pytest.raises(CrowdError):
            QualityConfig(gold_frequency=2.0)
        with pytest.raises(CrowdError):
            QualityConfig(confidence_threshold=0.0)


class TestWorkerReputation:
    def test_unseen_worker_sits_at_the_prior(self):
        reputation = WorkerReputation()
        assert reputation.accuracy("W1") == pytest.approx(0.8)
        assert reputation.observations("W1") == 0.0
        assert reputation.is_uniform(["W1", "W2"])

    def test_gold_failures_drag_the_posterior_down(self):
        reputation = WorkerReputation()
        for _ in range(4):
            reputation.record_gold("spammer", False)
        for _ in range(4):
            reputation.record_gold("diligent", True)
        assert reputation.accuracy("spammer") < 0.5
        assert reputation.accuracy("diligent") > 0.85
        assert reputation.flagged_workers() == ["spammer"]
        assert not reputation.is_uniform(["spammer"])

    def test_agreement_weighs_less_than_gold(self):
        by_gold, by_agreement = WorkerReputation(), WorkerReputation()
        by_gold.record_gold("w", False)
        by_agreement.record_agreement("w", False)
        assert by_gold.accuracy("w") < by_agreement.accuracy("w")

    def test_one_agreement_counts_the_default_agreement_weight(self):
        reputation = WorkerReputation()
        reputation.record_agreement("w", True)
        assert reputation.observations("w") == DEFAULT_AGREEMENT_WEIGHT
        alpha = WorkerReputation.PRIOR_ALPHA + DEFAULT_AGREEMENT_WEIGHT
        beta = WorkerReputation.PRIOR_BETA
        assert reputation.accuracy("w") == pytest.approx(alpha / (alpha + beta))

    def test_vote_weight_orders_by_accuracy(self):
        reputation = WorkerReputation()
        for _ in range(5):
            reputation.record_gold("good", True)
            reputation.record_gold("bad", False)
        assert (
            reputation.vote_weight("good")
            > reputation.vote_weight("unseen")
            > reputation.vote_weight("bad")
            > 0.0
        )

    def test_population_accuracy_needs_enough_informed_workers(self):
        reputation = WorkerReputation()
        assert reputation.population_accuracy() is None
        for index in range(5):
            for _ in range(3):
                reputation.record_gold(f"W{index}", index > 0)
        observed = reputation.population_accuracy()
        assert observed is not None
        assert 0.5 < observed < 0.95

    def test_summary_shape(self):
        reputation = WorkerReputation()
        reputation.record_gold("w", True)
        summary = reputation.summary()
        assert summary["workers_tracked"] == 1
        assert summary["gold_observations"] == 1


class TestGoldQuestions:
    def test_boolean_matching(self):
        question = GoldQuestion(prompt="p", expected=True)
        assert question.matches(True)
        assert not question.matches(False)
        assert not question.matches(None)
        assert not question.matches("yes")

    def test_string_matching_is_case_insensitive(self):
        question = GoldQuestion(prompt="p", expected="Left")
        assert question.matches(" left ")
        assert not question.matches("right")

    def test_mapping_matching_checks_expected_fields_only(self):
        question = GoldQuestion(prompt="p", expected={"CEO": "Ada"})
        assert question.matches({"CEO": "ada", "Phone": "whatever"})
        assert not question.matches({"Phone": "555"})

    def test_numeric_matching_uses_tolerance(self):
        question = GoldQuestion(prompt="p", expected=5.0, tolerance=1.5)
        assert question.matches(6.0)
        assert not question.matches(7.0)

    def test_pool_register_and_pick(self):
        import random

        pool = GoldStandardPool()
        with pytest.raises(CrowdError):
            pool.register("spec", [])
        pool.register("spec", [GoldQuestion(prompt="a", expected=True)])
        assert len(pool) == 1
        assert pool.pick("spec", random.Random(0)).prompt == "a"
        assert pool.pick("other", random.Random(0)) is None


class TestQualityControlEndToEnd:
    def test_gold_probes_feed_reputation(self):
        run = build_products_engine(
            n_products=12,
            assignments=3,
            filter_batch=4,
            seed=77,
            quality=QualityConfig(gold_frequency=1.0, adaptive_redundancy=False, seed=5),
        )
        run.engine.query(PRODUCTS_SQL).wait()
        stats = run.engine.task_manager.stats
        assert stats.gold_probes_posted > 0
        assert stats.gold_answers_scored >= stats.gold_probes_posted
        assert run.engine.reputation is not None
        assert run.engine.reputation.tracked_workers()

    def test_adaptive_redundancy_stops_easy_tasks_early(self):
        reliable = PopulationMix(diligent=1.0, noisy=0.0, lazy=0.0, spammer=0.0)
        run = build_products_engine(
            n_products=10,
            assignments=5,
            filter_batch=5,
            seed=78,
            population_mix=reliable,
            quality=QualityConfig(gold_frequency=0.0, seed=5),
        )
        handle = run.engine.query(PRODUCTS_SQL)
        handle.wait()
        spec_stats = run.engine.statistics.spec("isTargetColor")
        # A diligent population (97% accurate) agrees almost immediately:
        # nearly every task stops after the first wave of 3 instead of buying
        # all 5 assignments (the occasional slip buys one extra wave).
        assert spec_stats.assignments_received < 10 * 4
        assert run.engine.task_manager.stats.early_stopped_tasks >= 8

    def test_adaptive_redundancy_never_exceeds_the_target(self):
        spammy = PopulationMix(diligent=0.2, noisy=0.2, lazy=0.1, spammer=0.5)
        run = build_products_engine(
            n_products=12,
            assignments=5,
            filter_batch=4,
            seed=79,
            population_mix=spammy,
            quality=QualityConfig(gold_frequency=0.5, seed=5),
        )
        handle = run.engine.query(PRODUCTS_SQL)
        handle.wait()
        # Even on a hostile mix the waves never buy more than the spec's
        # 5 assignments for any task (checked in aggregate: 12 tasks).
        spec_stats = run.engine.statistics.spec("isTargetColor")
        assert spec_stats.assignments_received <= 12 * 5
        assert spec_stats.tasks_completed == 12

    def test_wave_reposts_use_fresh_workers_per_task(self):
        """Redundancy assumes independent judges: across waves and fault
        re-posts, no worker may vote twice on the same task."""
        spammy = PopulationMix(diligent=0.2, noisy=0.2, lazy=0.1, spammer=0.5)
        run = build_products_engine(
            n_products=12,
            assignments=5,
            filter_batch=4,
            seed=83,
            population_mix=spammy,
            quality=QualityConfig(gold_frequency=0.0, seed=5),
        )
        engine = run.engine
        per_task_workers: dict[str, list[str]] = {}
        engine.task_manager.on_result_delivered(
            lambda result: per_task_workers.__setitem__(
                result.task.task_id, list(result.answers.worker_ids)
            )
        )
        engine.query(PRODUCTS_SQL).wait()
        assert engine.task_manager.stats.wave_continuations > 0  # waves happened
        for task_id, workers in per_task_workers.items():
            assert len(workers) == len(set(workers)), f"{task_id} heard a worker twice"

    def test_rating_tasks_do_not_poison_reputations(self):
        """Continuous answers never equal their mean; agreement scoring must
        use a tolerance, or every honest rater would look like a spammer."""
        reliable = PopulationMix(diligent=1.0, noisy=0.0, lazy=0.0, spammer=0.0)
        run = build_products_engine(
            n_products=12,
            assignments=3,
            seed=81,
            population_mix=reliable,
            quality=QualityConfig(gold_frequency=0.0, seed=5),
        )
        run.engine.query("SELECT name FROM products ORDER BY rateSize(name)").wait()
        reputation = run.engine.reputation
        assert reputation.tracked_workers()
        # A fully diligent population rating consistently must not be flagged.
        assert reputation.flagged_workers() == []

    def test_without_probes_or_waves_quality_buys_the_same_hits(self):
        def fingerprint(quality):
            run = build_products_engine(
                n_products=10, assignments=3, filter_batch=2, seed=80, quality=quality
            )
            handle = run.engine.query(PRODUCTS_SQL)
            rows = handle.wait()
            return (
                [row.to_dict() for row in rows],
                run.engine.platform.stats.hits_created,
                run.engine.platform.stats.assignments_submitted,
                round(handle.total_cost, 12),
            )

        # With gold probes and adaptive redundancy off, quality control only
        # reweights votes: the HITs bought and the dollars spent are the
        # unmanaged run's.  Here the reweighted votes flip no answer either.
        no_probes_no_waves = QualityConfig(gold_frequency=0.0, adaptive_redundancy=False)
        assert fingerprint(None) == fingerprint(no_probes_no_waves)
