"""Unit tests for worker behaviour models."""

import random

import pytest

from repro.crowd import (
    DiligentWorker,
    FormField,
    HITContent,
    HITInterface,
    HITItem,
    LazyWorker,
    NoisyWorker,
    SpammerWorker,
    WorkerModel,
)
from repro.errors import WorkerError

from support import CallbackOracle


def predicate_content(n=20):
    return HITContent(
        interface=HITInterface.BINARY_CHOICE,
        title="Filter",
        instructions="Is this product red?",
        items=tuple(HITItem(f"i{k}", "red?", {"is_red": k % 2 == 0}) for k in range(n)),
    )


def form_content(n=5):
    return HITContent(
        interface=HITInterface.QUESTION_FORM,
        title="CEO",
        instructions="Find the CEO",
        items=tuple(HITItem(f"c{k}", f"Company {k}", {"ceo": f"CEO-{k}"}) for k in range(n)),
        fields=(FormField("CEO"),),
    )


def comparison_content(n=10):
    return HITContent(
        interface=HITInterface.COMPARISON,
        title="Which is bigger",
        instructions="Pick the larger animal",
        items=tuple(
            HITItem(f"p{k}", "compare", {"truth": "left" if k % 3 else "right"}) for k in range(n)
        ),
    )


def rating_content(n=8):
    return HITContent(
        interface=HITInterface.RATING,
        title="Rate",
        instructions="Rate the size 1-7",
        items=tuple(HITItem(f"r{k}", "rate", {"size": 1 + (k % 7)}) for k in range(n)),
        rating_scale=(1, 7),
    )


def join_columns_content(n=4):
    items = [HITItem(f"L{k}", "c", {"identity": k}, group="left") for k in range(n)] + [
        HITItem(f"R{k}", "s", {"identity": k}, group="right") for k in range(n)
    ]
    return HITContent(
        interface=HITInterface.JOIN_COLUMNS,
        title="Match",
        instructions="match",
        items=tuple(items),
    )


ORACLE = CallbackOracle(
    form=lambda item, field: item.payload["ceo"],
    predicate=lambda item: item.payload["is_red"],
    pair=lambda left, right: left.payload["identity"] == right.payload["identity"],
    comparison=lambda item: item.payload["truth"],
    rating=lambda item: item.payload["size"],
)


class TestBaseBehaviour:
    def test_perfect_worker_answers_predicates_exactly(self):
        worker = WorkerModel("w", accuracy=1.0)
        answers = worker.answer(predicate_content(), ORACLE, random.Random(0))
        assert all(answers[f"i{k}"] == (k % 2 == 0) for k in range(20))

    def test_zero_accuracy_worker_always_wrong_on_predicates(self):
        worker = WorkerModel("w", accuracy=0.0)
        answers = worker.answer(predicate_content(), ORACLE, random.Random(0))
        assert all(answers[f"i{k}"] != (k % 2 == 0) for k in range(20))

    def test_form_answers_use_oracle(self):
        worker = WorkerModel("w", accuracy=1.0)
        answers = worker.answer(form_content(), ORACLE, random.Random(0))
        assert answers["c3"]["CEO"] == "CEO-3"

    def test_comparison_answers(self):
        worker = WorkerModel("w", accuracy=1.0)
        answers = worker.answer(comparison_content(), ORACLE, random.Random(0))
        assert answers["p0"] == "right" and answers["p1"] == "left"

    def test_rating_answers_clamped_to_scale(self):
        worker = WorkerModel("w", accuracy=0.2)
        answers = worker.answer(rating_content(), ORACLE, random.Random(1))
        assert all(1 <= v <= 7 for v in answers.values())

    def test_perfect_rating_is_exact(self):
        worker = WorkerModel("w", accuracy=1.0)
        answers = worker.answer(rating_content(), ORACLE, random.Random(1))
        assert answers["r0"] == pytest.approx(1.0)

    def test_join_columns_perfect_worker_finds_all_matches(self):
        worker = WorkerModel("w", accuracy=1.0)
        answers = worker.answer(join_columns_content(4), ORACLE, random.Random(0))
        assert sorted(answers["matches"]) == [(f"L{k}", f"R{k}") for k in range(4)]

    def test_accuracy_bounds_validated(self):
        with pytest.raises(WorkerError):
            WorkerModel("w", accuracy=1.5)
        with pytest.raises(WorkerError):
            WorkerModel("w", seconds_per_unit=0)

    def test_work_duration_scales_with_items(self):
        worker = WorkerModel("w")
        rng = random.Random(0)
        small = worker.work_duration(predicate_content(2), random.Random(1))
        large = worker.work_duration(predicate_content(50), random.Random(1))
        assert large > small
        assert worker.work_duration(predicate_content(1), rng) >= 1.0


class TestArchetypes:
    def test_diligent_more_accurate_than_noisy(self):
        content = predicate_content(200)
        truth = {f"i{k}": (k % 2 == 0) for k in range(200)}

        def accuracy_of(worker, seed):
            answers = worker.answer(content, ORACLE, random.Random(seed))
            return sum(answers[k] == truth[k] for k in truth) / len(truth)

        diligent = accuracy_of(DiligentWorker("d"), 3)
        noisy = accuracy_of(NoisyWorker("n", accuracy=0.7), 3)
        assert diligent > noisy

    def test_spammer_ignores_oracle_and_is_fast(self):
        spammer = SpammerWorker("s")
        content = form_content(3)
        answers = spammer.answer(content, ORACLE, random.Random(0))
        assert all(fields["CEO"] == "n/a" for fields in answers.values())
        diligent_time = DiligentWorker("d").work_duration(content, random.Random(5))
        spammer_time = spammer.work_duration(content, random.Random(5))
        assert spammer_time < diligent_time

    def test_spammer_answers_every_interface(self):
        spammer = SpammerWorker("s")
        for content in (
            predicate_content(5),
            comparison_content(5),
            rating_content(5),
            join_columns_content(3),
        ):
            answers = spammer.answer(content, ORACLE, random.Random(0))
            assert answers

    def test_lazy_worker_accuracy_degrades_with_position(self):
        lazy = LazyWorker("l", accuracy=0.95, fatigue=0.05)
        assert lazy._positional_accuracy(0) > lazy._positional_accuracy(10)
        assert lazy._positional_accuracy(100) == pytest.approx(0.5)

    def test_lazy_worker_worse_on_long_hits(self):
        content_short = predicate_content(4)
        content_long = predicate_content(60)
        truth_short = {f"i{k}": (k % 2 == 0) for k in range(4)}
        truth_long = {f"i{k}": (k % 2 == 0) for k in range(60)}
        lazy = LazyWorker("l", accuracy=0.98, fatigue=0.02)

        def accuracy(content, truth):
            total = correct = 0
            for seed in range(30):
                answers = lazy.answer(content, ORACLE, random.Random(seed))
                for key, value in truth.items():
                    total += 1
                    correct += answers[key] == value
            return correct / total

        assert accuracy(content_short, truth_short) > accuracy(content_long, truth_long)

    def test_lazy_worker_covers_all_interfaces(self):
        lazy = LazyWorker("l")
        for content in (
            form_content(3),
            comparison_content(5),
            rating_content(5),
            join_columns_content(3),
        ):
            assert lazy.answer(content, ORACLE, random.Random(0))


class TestOracleErrors:
    def test_missing_oracle_capability_raises(self):
        worker = WorkerModel("w", accuracy=1.0)
        empty_oracle = CallbackOracle()
        with pytest.raises(WorkerError):
            worker.answer(predicate_content(1), empty_oracle, random.Random(0))

    def test_comparison_oracle_must_return_side(self):
        bad = CallbackOracle(comparison=lambda item: "up")
        worker = WorkerModel("w", accuracy=1.0)
        with pytest.raises(WorkerError):
            worker.answer(comparison_content(1), bad, random.Random(0))
