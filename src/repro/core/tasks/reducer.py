"""The answer reducer: what a crowd task's answers so far amount to.

A plain function of the task (and through it its spec), the answers its HITs
have collected, the worker reputations and the quality configuration.  It
needs no engine and touches neither the marketplace nor the budget.  Each
time a HIT carrying a task settles, the Task Manager asks
:func:`reduce_task`, which returns one of three things:

* :data:`WAVE` — not final yet: the answers miss the confidence bar, so
  another redundancy wave is bought;
* :data:`REQUEUE` — a fault (the HIT expired short, or every worker skipped
  the item): the task is re-posted, burning one attempt;
* a :class:`Reduced` answer to deliver.

The module also owns the attempt cap, gold scoring, the reputation vote
weights (the one place that chooses weighted over plain voting) and the
join-block pair majority.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.answers import AnswerList, get_aggregate, weighted_confidence
from repro.core.tasks.task import Task, TaskKind
from repro.crowd.quality import WAVE_SIZE, QualityConfig, WorkerReputation, agreement_signal

__all__ = [
    "MAX_ATTEMPTS",
    "REQUEUE",
    "WAVE",
    "Reduced",
    "TaskProgress",
    "majority_pairs",
    "reduce_task",
    "score_gold",
    "vote_weights",
]

#: :func:`reduce_task` outcome: buy another redundancy wave.
WAVE = "wave"
#: :func:`reduce_task` outcome: a fault; re-post the task, burning an attempt.
REQUEUE = "requeue"
#: Fault re-posts a task may burn (after its HIT expired or was abandoned)
#: before it delivers its salvaged answers, or, with none, is abandoned and
#: its query surfaces ``STALLED`` instead of hanging.
MAX_ATTEMPTS = 3


@dataclass
class TaskProgress:
    """The one record of a crowd task, from its first queueing to its exit.

    Created when the task first enters the pending queue and deleted on
    every way out: finalized, dropped over budget, abandoned after its
    attempt cap, or cancelled with its query.  It accumulates answers across
    redundancy waves and fault re-posts.
    """

    task: Task
    submitted_at: float
    answers: list = field(default_factory=list)
    workers: list[str] = field(default_factory=list)
    cost: float = 0.0
    #: Fault re-posts consumed (wave continuations do not count).
    attempts: int = 0

    @property
    def received(self) -> int:
        return len(self.answers)


@dataclass(frozen=True)
class Reduced:
    """A task's final answer, reduced from the answers it collected."""

    answers: AnswerList
    value: Any
    #: Delivered below its redundancy target because the attempt cap was spent.
    degraded: bool = False


def reduce_task(
    progress: TaskProgress,
    *,
    expired: bool,
    pressured: bool,
    quality: QualityConfig | None = None,
    reputation: WorkerReputation | None = None,
) -> Reduced | str:
    """Decide what a task's answers so far amount to, after one of its HITs settled.

    ``expired`` says the HIT expired rather than completed; ``pressured``
    that the owning query is under deadline/budget pressure, where any
    answer is final.  A task whose attempt cap is spent delivers its
    salvaged (already paid-for) answers as a degraded result rather than
    throwing them away.  Reducing records each worker's agreement with the
    result in ``reputation``.
    """
    if progress.received and _is_final(progress, pressured, quality, reputation):
        return _reduce(progress, reputation, degraded=False)
    if expired or not progress.received:
        if progress.attempts >= MAX_ATTEMPTS and progress.received:
            return _reduce(progress, reputation, degraded=True)
        return REQUEUE
    return WAVE


def _is_final(
    progress: TaskProgress,
    pressured: bool,
    quality: QualityConfig | None,
    reputation: WorkerReputation | None,
) -> bool:
    """Whether a task's (non-empty) answers are enough to deliver."""
    target = progress.task.assignments
    if progress.received >= target or pressured:
        return True
    if quality is None or not quality.adaptive_redundancy:
        return False
    if progress.received < min(WAVE_SIZE, target):
        return False
    answers = AnswerList.of(progress.answers)
    weights = vote_weights(progress.workers, reputation)
    return weighted_confidence(answers, weights) >= quality.confidence_threshold


def _reduce(
    progress: TaskProgress, reputation: WorkerReputation | None, *, degraded: bool
) -> Reduced:
    task = progress.task
    answers = AnswerList.of(progress.answers, progress.workers)
    weights = vote_weights(progress.workers, reputation)
    if task.kind is TaskKind.JOIN_BLOCK:
        value = majority_pairs(answers, weights)
    else:
        # Only a built-in aggregate takes weights; any other is called as
        # ``aggregate(answers)``.
        aggregate = get_aggregate(task.spec.combiner)
        weighted = weights is not None and aggregate.weighted
        value = aggregate(answers, weights) if weighted else aggregate(answers)
    if reputation is not None:
        for answer, worker in zip(progress.answers, progress.workers):
            agreed = agreement_signal(answer, value)
            if agreed is not None:
                reputation.record_agreement(worker, agreed)
    return Reduced(answers, value, degraded)


def vote_weights(workers: list[str], reputation: WorkerReputation | None) -> list[float] | None:
    """Per-answer reputation vote weights, or None to vote plainly.

    The one place weighted voting is chosen: it needs a reputation tracker,
    attributed answers, and weights that differ — equal weights vote exactly
    as a plain count does, so they are dropped and switching quality control
    on changes no result until reputations diverge.
    """
    if reputation is None or not workers:
        return None
    weights = [reputation.vote_weight(worker) for worker in workers]
    return weights if len(set(weights)) > 1 else None


def majority_pairs(
    answers: AnswerList, weights: list[float] | None = None
) -> list[tuple[int, int]]:
    """Keep the (left, right) pairs a strict (weighted) majority of answers reports."""
    weights = weights or [1.0] * len(answers)
    counts: Counter = Counter()
    for answer, weight in zip(answers.answers, weights):
        for pair in answer:
            counts[tuple(pair)] += weight
    threshold = sum(weights) / 2.0
    return sorted(pair for pair, votes in counts.items() if votes > threshold)


def score_gold(compiled, submissions, reputation: WorkerReputation | None) -> int:
    """Grade each worker's gold-probe answers against the known truth.

    ``compiled`` is the settled HIT's :class:`CompiledHIT` and
    ``submissions`` its submitted assignments.  Returns the number of gold
    answers scored.
    """
    if reputation is None or not compiled.gold_items:
        return 0
    scored = 0
    for assignment in submissions:
        for item_id, question in compiled.gold_items.items():
            if item_id in assignment.answers:
                reputation.record_gold(
                    assignment.worker_id, question.matches(assignment.answers[item_id])
                )
                scored += 1
    return scored
