"""Worker quality control: reputations, gold-standard probes, and its config.

Section 2 of the paper motivates redundancy because "individual turker
results are often inaccurate" — but treats every worker identically.  This
module adds the per-worker half of quality control:

* :class:`WorkerReputation` — a per-worker accuracy posterior (Beta prior
  updated from gold-standard probe answers and from agreement with the
  majority vote), exposed as vote weights for confidence-weighted
  aggregation and as a population accuracy estimate for the optimizer's
  redundancy rule;
* :class:`GoldQuestion` / :class:`GoldStandardPool` — probe questions with
  known answers that the HIT compiler injects into outgoing HITs, so worker
  accuracy is measured against ground truth rather than only against peers;
* :class:`QualityConfig` — the engine-level switchboard (all features are
  opt-in; a ``None`` config leaves the legacy fixed-redundancy, unweighted
  pipeline byte-identical).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import CrowdError

__all__ = [
    "QualityConfig",
    "WorkerReputation",
    "GoldQuestion",
    "GoldStandardPool",
    "agreement_signal",
    "DEFAULT_AGREEMENT_WEIGHT",
    "WAVE_SIZE",
]

#: Weight of one agreement-with-majority observation relative to one gold
#: observation (gold is ground truth; agreement is a proxy, and the majority
#: itself can be wrong).
DEFAULT_AGREEMENT_WEIGHT = 0.25

#: Assignments bought per redundancy wave under adaptive redundancy.
WAVE_SIZE = 3


@dataclass(frozen=True)
class QualityConfig:
    """Engine-level quality-control knobs (attach via ``QurkEngine(quality=...)``).

    With a config attached, answers are reduced with reputation-weighted
    votes once reputations diverge (the spec's plain combiner while they
    are uniform), and each worker's agreement with the reduced answer feeds
    their reputation with weight :data:`DEFAULT_AGREEMENT_WEIGHT`.

    Parameters
    ----------
    gold_frequency:
        Fraction of posted HITs that carry one gold probe item (0 disables
        probing).
    adaptive_redundancy:
        Post assignments in waves of :data:`WAVE_SIZE` and stop early once
        the weighted agreement of the accumulated answers clears
        ``confidence_threshold`` — easy tasks cost one wave instead of the
        spec's full redundancy.
    confidence_threshold:
        Weighted agreement needed to stop before the full redundancy target.
    seed:
        Seed of the quality-control random stream (gold probe placement).
    """

    gold_frequency: float = 0.25
    adaptive_redundancy: bool = True
    confidence_threshold: float = 0.85
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gold_frequency <= 1.0:
            raise CrowdError(f"gold_frequency must be in [0, 1], got {self.gold_frequency}")
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise CrowdError(
                f"confidence_threshold must be in (0, 1], got {self.confidence_threshold}"
            )


class WorkerReputation:
    """Per-worker accuracy posteriors learned from gold answers and agreement.

    Each worker carries a Beta(:attr:`PRIOR_ALPHA`, :attr:`PRIOR_BETA`)
    posterior over their single-judgement accuracy.  Gold-standard
    observations update it with weight 1; agreement-with-majority
    observations with the smaller :data:`DEFAULT_AGREEMENT_WEIGHT`, since
    the majority itself can be wrong.  The prior mean is 0.8; it is
    independent of the optimizer's 0.85 prior for a spec with no
    observations (:data:`~repro.core.optimizer.optimizer.DEFAULT_WORKER_ACCURACY`).
    """

    #: Workers whose posterior mean falls below this are flagged as spammers.
    FLAG_THRESHOLD = 0.65
    PRIOR_ALPHA = 4.0
    PRIOR_BETA = 1.0

    def __init__(self) -> None:
        self._alpha: dict[str, float] = {}
        self._beta: dict[str, float] = {}
        self._gold_observations: dict[str, int] = {}
        #: Bumped on every observation; keys the population-accuracy memo so
        #: the O(workers) aggregate is recomputed only when something changed
        #: (the redundancy rule consults it once per task on the hot path).
        self._version = 0
        self._population_memo: tuple[int, float, int, float | None] | None = None

    # -- recording -----------------------------------------------------------

    def record_gold(self, worker_id: str, correct: bool) -> None:
        """Fold one gold-probe outcome (ground truth) into the posterior."""
        self._observe(worker_id, correct, 1.0)
        self._gold_observations[worker_id] = self._gold_observations.get(worker_id, 0) + 1

    def record_agreement(self, worker_id: str, agreed: bool) -> None:
        """Fold one agreement-with-majority observation into the posterior."""
        self._observe(worker_id, agreed, DEFAULT_AGREEMENT_WEIGHT)

    def _observe(self, worker_id: str, correct: bool, weight: float) -> None:
        if correct:
            self._alpha[worker_id] = self._alpha.get(worker_id, 0.0) + weight
        else:
            self._beta[worker_id] = self._beta.get(worker_id, 0.0) + weight
        self._version += 1

    # -- estimates -----------------------------------------------------------

    def accuracy(self, worker_id: str) -> float:
        """Posterior mean accuracy of one worker (prior mean when unseen)."""
        alpha = self.PRIOR_ALPHA + self._alpha.get(worker_id, 0.0)
        beta = self.PRIOR_BETA + self._beta.get(worker_id, 0.0)
        return alpha / (alpha + beta)

    def observations(self, worker_id: str) -> float:
        """Total observation weight accumulated for one worker."""
        return self._alpha.get(worker_id, 0.0) + self._beta.get(worker_id, 0.0)

    def vote_weight(self, worker_id: str) -> float:
        """Log-odds vote weight for confidence-weighted aggregation.

        A worker at the prior mean gets the prior's log-odds; a detected
        spammer (accuracy near 0.5) contributes almost nothing; a worker
        *below* 0.5 still gets a small positive floor rather than a negative
        weight — inverting adversarial votes is out of scope for majority
        aggregation.
        """
        p = min(max(self.accuracy(worker_id), 0.05), 0.98)
        return max(math.log(p / (1.0 - p)), 0.05)

    def is_uniform(self, worker_ids: list[str] | tuple[str, ...] = ()) -> bool:
        """Whether the listed workers (or everyone) are still at the prior."""
        if worker_ids:
            return all(self.observations(worker_id) == 0.0 for worker_id in worker_ids)
        return not self._alpha and not self._beta

    def tracked_workers(self) -> list[str]:
        """Ids of workers with at least one observation."""
        return sorted(set(self._alpha) | set(self._beta))

    def flagged_workers(self) -> list[str]:
        """Workers whose posterior mean fell below :attr:`FLAG_THRESHOLD`."""
        return [
            worker_id
            for worker_id in self.tracked_workers()
            if self.accuracy(worker_id) < self.FLAG_THRESHOLD
        ]

    def population_accuracy(self, *, min_observations: float = 2.0, min_workers: int = 5) -> float | None:
        """Observation-weighted mean accuracy across informative workers.

        This is the observed marketplace accuracy the optimizer's redundancy
        rule consumes; it returns None until enough workers have enough
        observations for the estimate to mean something.  Memoized per
        observation version — the rule calls this once per task.
        """
        memo = self._population_memo
        if memo is not None and memo[:3] == (self._version, min_observations, min_workers):
            return memo[3]
        informative = [
            worker_id
            for worker_id in self.tracked_workers()
            if self.observations(worker_id) >= min_observations
        ]
        if len(informative) < min_workers:
            result: float | None = None
        else:
            total_weight = 0.0
            total = 0.0
            for worker_id in informative:
                weight = self.observations(worker_id)
                total += self.accuracy(worker_id) * weight
                total_weight += weight
            result = total / total_weight if total_weight else None
        self._population_memo = (self._version, min_observations, min_workers, result)
        return result

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The learned posteriors, for a snapshot (the priors are constants)."""
        return {
            "alpha": dict(self._alpha),
            "beta": dict(self._beta),
            "gold_observations": dict(self._gold_observations),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self._alpha = {str(k): float(v) for k, v in state["alpha"].items()}
        self._beta = {str(k): float(v) for k, v in state["beta"].items()}
        self._gold_observations = {
            str(k): int(v) for k, v in state["gold_observations"].items()
        }
        # Invalidate the population-accuracy memo.
        self._version += 1
        self._population_memo = None

    def summary(self) -> dict[str, float]:
        """Engine-wide quality gauges, each additive across shards.

        Mean worker accuracy is ``worker_accuracy_sum / workers_tracked``.
        """
        tracked = self.tracked_workers()
        return {
            "workers_tracked": len(tracked),
            "worker_accuracy_sum": sum(self.accuracy(worker_id) for worker_id in tracked),
            "flagged_workers": len(self.flagged_workers()),
            "gold_observations": sum(self._gold_observations.values()),
        }


@dataclass(frozen=True)
class GoldQuestion:
    """One probe question with a known answer.

    ``payload`` must be answerable by the workload's oracle (gold questions
    are drawn from items whose ground truth the workload knows), and should
    carry the same keys a real item of the spec would.  ``expected`` is
    compared against the worker's raw answer by :meth:`matches`.
    """

    prompt: str
    payload: dict[str, Any] = field(default_factory=dict)
    expected: Any = None
    tolerance: float = 1.5

    def matches(self, answer: Any) -> bool:
        """Whether a worker's raw answer counts as correct."""
        return _answers_match(self.expected, answer, self.tolerance)


def _scalar_match(expected: Any, answer: Any, tolerance: float) -> bool | None:
    """Compare one scalar answer kind; None when ``expected`` is composite.

    The single leaf comparator shared by gold scoring
    (:meth:`GoldQuestion.matches`) and agreement scoring
    (:func:`agreement_signal`) — both feed the same reputation posterior, so
    they must agree on what a matching bool / string / number means.
    """
    if isinstance(expected, bool):
        return isinstance(answer, bool) and answer is expected
    if isinstance(expected, str):
        return isinstance(answer, str) and answer.strip().lower() == expected.strip().lower()
    if isinstance(expected, (int, float)):
        if isinstance(answer, bool) or not isinstance(answer, (int, float)):
            return False
        return abs(float(answer) - float(expected)) <= tolerance
    return None


def _answers_match(expected: Any, answer: Any, tolerance: float) -> bool:
    if answer is None:
        return False
    scalar = _scalar_match(expected, answer, tolerance)
    if scalar is not None:
        return scalar
    if isinstance(expected, Mapping):
        # Gold truth: every expected field must match — the question's
        # author chose exactly the fields that define correctness.
        if not isinstance(answer, Mapping):
            return False
        return all(
            _answers_match(value, answer.get(key), tolerance) for key, value in expected.items()
        )
    return expected == answer


#: Numeric answers within this distance of the reduced value count as
#: agreeing for reputation purposes (rating scales are ~1-7 wide).
AGREEMENT_NUMERIC_TOLERANCE = 1.0


def agreement_signal(answer: Any, reduced: Any) -> bool | None:
    """Whether one answer agrees with the reduced value, per answer kind.

    Used for reputation updates from vote agreement.  Exact equality is the
    wrong signal for continuous and composite answers (a rating never equals
    the mean of the ratings; a form answer right on one of two fields is not
    total disagreement), and since reputations are engine-global, scoring
    those as failures would poison vote weights and redundancy choices for
    every task spec.  Unlike gold scoring — where the known truth demands
    every expected field — agreement with a peer-consensus mapping counts a
    field majority.  Returns None when the kind carries no meaningful
    per-answer agreement signal (e.g. JOIN_BLOCK pair lists).
    """
    scalar = _scalar_match(reduced, answer, AGREEMENT_NUMERIC_TOLERANCE)
    if scalar is not None:
        return scalar
    if isinstance(reduced, Mapping):
        if not isinstance(answer, Mapping) or not reduced:
            return False
        matched = sum(
            1
            for field_name, value in reduced.items()
            if agreement_signal(answer.get(field_name), value)
        )
        return matched * 2 >= len(reduced)
    return None


class GoldStandardPool:
    """Registered gold questions, keyed by task spec name."""

    def __init__(self) -> None:
        self._questions: dict[str, tuple[GoldQuestion, ...]] = {}

    def register(self, spec_name: str, questions: list[GoldQuestion] | tuple[GoldQuestion, ...]) -> None:
        """Attach gold questions to one task spec (replaces prior ones)."""
        if not questions:
            raise CrowdError(f"gold pool for {spec_name!r} needs at least one question")
        self._questions[spec_name] = tuple(questions)

    def pick(self, spec_name: str, rng: random.Random) -> GoldQuestion | None:
        """Choose one gold question for the next HIT (None when unregistered)."""
        questions = self._questions.get(spec_name)
        if not questions:
            return None
        return questions[rng.randrange(len(questions))]

    def __len__(self) -> int:
        return sum(len(questions) for questions in self._questions.values())
