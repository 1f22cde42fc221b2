"""The answer reducer, on its own: no engine, marketplace or budget.

Each test builds a task's progress record by hand and asks
:func:`~repro.core.tasks.reducer.reduce_task` (or one of its parts) what the
answers amount to.
"""

import dataclasses

from repro.core.answers import AnswerList
from repro.core.tasks.reducer import (
    MAX_ATTEMPTS,
    REQUEUE,
    WAVE,
    Reduced,
    TaskProgress,
    majority_pairs,
    reduce_task,
    vote_weights,
)
from repro.core.tasks.spec import Parameter, RatingResponse, TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import Task, TaskKind
from repro.crowd.quality import QualityConfig, WorkerReputation

FILTER_SPEC = TaskSpec(
    name="isRed",
    task_type=TaskType.FILTER,
    text="Is %s red?",
    response=YesNoResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
)
RATING_SPEC = TaskSpec(
    name="rateSize",
    task_type=TaskType.RATING,
    text="How big is %s?",
    response=RatingResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
    combiner="MeanRating",
)
JOIN_SPEC = TaskSpec(
    name="samePerson",
    task_type=TaskType.JOIN_PREDICATE,
    text="Same person?",
    response=YesNoResponse(),
    price=0.01,
    assignments=4,
)


def progress(spec, kind, answers, workers=None, attempts=0):
    payload = {"left_items": [], "right_items": []} if kind is TaskKind.JOIN_BLOCK else {}
    task = Task(kind=kind, spec=spec, payload=payload, callback=lambda result: None)
    workers = workers or [f"w{index}" for index in range(len(answers))]
    return TaskProgress(
        task=task, submitted_at=0.0, answers=list(answers), workers=workers, attempts=attempts
    )


def decide(record, *, expired=False, pressured=False, quality=None, reputation=None):
    return reduce_task(
        record,
        expired=expired,
        pressured=pressured,
        quality=quality,
        reputation=reputation,
    )


def skewed_reputation():
    """w0 has proven itself on gold; w1 and w2 have failed it."""
    reputation = WorkerReputation()
    for _ in range(6):
        reputation.record_gold("w0", True)
        reputation.record_gold("w1", False)
        reputation.record_gold("w2", False)
    return reputation


class TestMajorityPairs:
    def test_a_pair_reported_by_exactly_half_the_votes_is_dropped(self):
        answers = AnswerList.of([[(0, 0), (1, 1)], [(0, 0)], [(1, 1)], []])
        # (0, 0) and (1, 1) each have 2 of 4 votes: no strict majority.
        assert majority_pairs(answers) == []
        answers = AnswerList.of([[(0, 0), (1, 1)], [(0, 0)], [(0, 0), (1, 1)]])
        assert majority_pairs(answers) == [(0, 0), (1, 1)]

    def test_uniform_reputation_weights_give_the_unweighted_result(self):
        # (2, 1) has exactly half the votes, (0, 0) three of four.
        answers = [[(0, 0)], [(0, 0)], [(2, 1)], [(2, 1), (0, 0)]]
        workers = ["a", "b", "c", "d"]
        reputation = WorkerReputation()
        for worker in workers:  # every worker diverges from the prior alike
            reputation.record_gold(worker, True)
        weights = vote_weights(workers, reputation)
        assert weights is None
        record = progress(JOIN_SPEC, TaskKind.JOIN_BLOCK, answers, workers)
        reduced = decide(record, quality=QualityConfig(), reputation=reputation)
        assert reduced.value == majority_pairs(AnswerList.of(answers)) == [(0, 0)]

    def test_skewed_weights_let_the_trusted_worker_carry_a_pair(self):
        answers = AnswerList.of([[(0, 0)], [], []])
        weights = vote_weights(["w0", "w1", "w2"], skewed_reputation())
        assert majority_pairs(answers) == []
        assert majority_pairs(answers, weights) == [(0, 0)]


class TestOutcomes:
    def test_a_short_hit_buys_a_wave_or_is_a_fault_until_the_attempt_cap(self):
        assert decide(progress(FILTER_SPEC, TaskKind.FILTER, [True])) is WAVE
        assert decide(progress(FILTER_SPEC, TaskKind.FILTER, [True]), expired=True) is REQUEUE
        assert decide(progress(FILTER_SPEC, TaskKind.FILTER, [])) is REQUEUE
        # A spent attempt cap delivers the salvaged answers; with nothing to
        # salvage it is still a fault.
        spent = progress(FILTER_SPEC, TaskKind.FILTER, [False], attempts=MAX_ATTEMPTS - 1)
        assert decide(spent, expired=True) is REQUEUE
        spent.attempts = MAX_ATTEMPTS
        salvaged = decide(spent, expired=True)
        assert isinstance(salvaged, Reduced)
        assert salvaged.degraded and salvaged.value is False
        assert decide(progress(FILTER_SPEC, TaskKind.FILTER, [], attempts=MAX_ATTEMPTS)) is REQUEUE


    def test_under_pressure_any_answer_is_final(self):
        record = progress(FILTER_SPEC, TaskKind.FILTER, [True])
        reduced = decide(record, pressured=True)
        assert isinstance(reduced, Reduced)
        assert reduced.value is True and not reduced.degraded


class TestVoteWeights:
    def test_plain_voting_unless_weights_differ(self):
        workers = ["w0", "w1", "w2"]
        skewed = skewed_reputation()
        assert vote_weights(workers, None) is None
        assert vote_weights(workers, WorkerReputation()) is None
        assert vote_weights([], skewed) is None
        weights = vote_weights(workers, skewed)
        assert weights[0] > weights[1] == weights[2]

    def test_weights_reach_the_built_in_combiners_only(self):
        reputation = skewed_reputation()
        record = progress(FILTER_SPEC, TaskKind.FILTER, [True, False, False])
        assert decide(record, quality=QualityConfig(), reputation=reputation).value is True
        ratings = progress(RATING_SPEC, TaskKind.RATE, [7.0, 1.0, 1.0])
        mean = decide(ratings, quality=QualityConfig(), reputation=reputation).value
        assert mean > 3.0  # the plain mean would be 3.0
        first_spec = dataclasses.replace(FILTER_SPEC, combiner="First")
        first = progress(first_spec, TaskKind.FILTER, [False, True, True])
        assert decide(first, quality=QualityConfig(), reputation=reputation).value is False

    def test_reducing_records_agreement(self):
        reputation = WorkerReputation()
        record = progress(FILTER_SPEC, TaskKind.FILTER, [True, True, False])
        decide(record, quality=QualityConfig(), reputation=reputation)
        assert reputation.accuracy("w0") > reputation.accuracy("w2")

    def test_answers_without_an_agreement_signal_leave_reputations_alone(self):
        # A JOIN_BLOCK answer is a pair list: agreement with the majority
        # has no per-answer meaning there, so nothing is recorded.
        reputation = WorkerReputation()
        record = progress(JOIN_SPEC, TaskKind.JOIN_BLOCK, [[(0, 0)], [(0, 0)], [(0, 0)], []])
        assert decide(record, quality=QualityConfig(), reputation=reputation).value == [(0, 0)]
        assert reputation.tracked_workers() == []
