"""Answer lists and user-defined aggregates (Section 3 of the paper).

Qurk's data model differs from the plain relational model in one way: because
a HIT is run by several turkers, an attribute produced by the crowd is a
*list* of answers rather than a single value.  The paper deliberately avoids
an uncertainty model; instead, answer lists are reduced with user-defined
aggregates.  This module provides the answer-list container and the built-in
aggregates used by the operators and the query language (``MajorityVote`` is
the default for categorical answers, ``MeanRating`` for numeric ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import AggregateError

__all__ = [
    "AnswerList",
    "Aggregate",
    "MajorityVote",
    "First",
    "ListAll",
    "MeanRating",
    "MedianRating",
    "FieldwiseMajority",
    "weighted_confidence",
    "get_aggregate",
    "register_aggregate",
]


@dataclass(frozen=True)
class AnswerList:
    """The answers several workers gave to the same task.

    ``answers`` holds one entry per assignment, in submission order.
    ``worker_ids`` is parallel to ``answers`` and may be empty when worker
    attribution is unavailable (e.g. answers synthesised by the Task Model).
    """

    answers: tuple[Any, ...]
    worker_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.worker_ids and len(self.worker_ids) != len(self.answers):
            raise AggregateError("worker_ids must be empty or parallel to answers")

    @classmethod
    def of(cls, answers: Iterable[Any], worker_ids: Iterable[str] = ()) -> "AnswerList":
        return cls(tuple(answers), tuple(worker_ids))

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)

    def __getitem__(self, index: int) -> Any:
        return self.answers[index]

    def agreement(self) -> float:
        """Fraction of answers equal to the most common answer (1.0 if empty)."""
        return weighted_confidence(self)

    def reduce(self, aggregate: "Aggregate") -> Any:
        """Reduce this answer list with ``aggregate``."""
        return aggregate(self)


#: Answer types that are their own vote key, checked before the ABCs.
_SCALARS = frozenset({bool, int, float, str, type(None)})


def _freeze(value: Any) -> Any:
    """Convert an answer into a hashable key for vote counting."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        return tuple(_freeze(v) for v in value)
    return value


class Aggregate:
    """Base class for user-defined aggregates over answer lists.

    An aggregate whose ``weighted`` flag is set (the built-in
    :class:`MajorityVote`, :class:`FieldwiseMajority` and :class:`MeanRating`)
    also takes optional per-answer vote weights, parallel to the answers:
    ``aggregate(answers, weights)``.  Every other aggregate is called as
    ``aggregate(answers)``.
    """

    #: Name used by the query language (``Combiner: MajorityVote``).
    name = "Aggregate"
    #: Whether :meth:`reduce` takes per-answer ``weights``.
    weighted = False

    def __call__(self, answers: AnswerList, weights: Sequence[float] | None = None) -> Any:
        if not isinstance(answers, AnswerList):
            answers = AnswerList.of(answers)
        if len(answers) == 0:
            raise AggregateError(f"{self.name} cannot reduce an empty answer list")
        return self.reduce(answers) if weights is None else self.reduce(answers, weights)

    def reduce(self, answers: AnswerList) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _vote_totals(
    answers: AnswerList, weights: Sequence[float] | None
) -> tuple[dict[Any, float], dict[Any, Any]]:
    """Votes per distinct answer (counts, or summed weights) and one original each.

    Both dicts keep first-seen order, so ``max`` over the totals breaks ties
    toward the earliest answer.
    """
    totals: dict[Any, float] = {}
    originals: dict[Any, Any] = {}
    for answer, weight in zip(answers.answers, weights or repeat(1)):
        key = _freeze(answer)
        totals[key] = totals.get(key, 0) + weight
        originals.setdefault(key, answer)
    return totals, originals


class MajorityVote(Aggregate):
    """Return the most (heavily) voted answer; ties break toward the earliest answer.

    This is the default combiner for boolean predicates (filters, join
    predicates) and categorical form fields.  With ``weights`` each vote
    counts with its worker's weight (quality control's reputation log-odds).
    """

    name = "MajorityVote"
    weighted = True

    def reduce(self, answers: AnswerList, weights: Sequence[float] | None = None) -> Any:
        totals, originals = _vote_totals(answers, weights)
        return originals[max(totals, key=totals.__getitem__)]


class First(Aggregate):
    """Return the first answer received (cheapest possible combiner)."""

    name = "First"

    def reduce(self, answers: AnswerList) -> Any:
        return answers[0]


class ListAll(Aggregate):
    """Return the raw answer list (the paper's default: let the user decide)."""

    name = "ListAll"

    def reduce(self, answers: AnswerList) -> Any:
        return list(answers.answers)


class MeanRating(Aggregate):
    """Arithmetic mean of numeric answers (used by rating-based operators).

    With ``weights``, the weighted mean.
    """

    name = "MeanRating"
    weighted = True

    def reduce(self, answers: AnswerList, weights: Sequence[float] | None = None) -> float:
        values = [self._as_number(a) for a in answers]
        if weights is None:
            return sum(values) / len(values)
        return sum(value * weight for value, weight in zip(values, weights)) / sum(weights)

    @staticmethod
    def _as_number(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AggregateError(f"MeanRating needs numeric answers, got {value!r}")
        return float(value)


class MedianRating(Aggregate):
    """Median of numeric answers; more robust to spammer ratings than the mean."""

    name = "MedianRating"

    def reduce(self, answers: AnswerList) -> float:
        values = sorted(MeanRating._as_number(a) for a in answers)
        middle = len(values) // 2
        if len(values) % 2 == 1:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2.0


class FieldwiseMajority(Aggregate):
    """Majority vote applied independently to each field of form answers.

    Query 1's ``findCEO`` returns ``{"CEO": ..., "Phone": ...}`` per worker;
    reducing field-by-field tolerates a worker who got the CEO right but the
    phone number wrong.  With ``weights``, each field is a weighted vote of
    the workers who answered it.
    """

    name = "FieldwiseMajority"
    weighted = True

    def reduce(
        self, answers: AnswerList, weights: Sequence[float] | None = None
    ) -> dict[str, Any]:
        if not all(isinstance(a, Mapping) for a in answers):
            raise AggregateError(f"{self.name} needs mapping-valued answers")
        fields: set[str] = set()
        for answer in answers:
            fields.update(answer.keys())
        result: dict[str, Any] = {}
        for field_name in sorted(fields):
            votes = [
                (answer[field_name], weight)
                for answer, weight in zip(answers.answers, weights or repeat(None))
                if field_name in answer
            ]
            result[field_name] = MajorityVote().reduce(
                AnswerList.of(value for value, _ in votes),
                None if weights is None else [weight for _, weight in votes],
            )
        return result


def weighted_confidence(answers: AnswerList, weights: Sequence[float] | None = None) -> float:
    """The (weighted) vote share of the winning answer (1.0 if empty).

    The early-stopping rule of adaptive redundancy: when the vote share of
    the leading answer clears the confidence threshold, further assignments
    are unlikely to flip the outcome and the task stops early.  Without
    ``weights`` it is :meth:`AnswerList.agreement`.
    """
    if not answers.answers:
        return 1.0
    totals = _vote_totals(answers, weights)[0].values()
    return max(totals) / sum(totals)


_REGISTRY: dict[str, Callable[[], Aggregate]] = {}


def register_aggregate(name: str, factory: Callable[[], Aggregate]) -> None:
    """Register an aggregate under ``name`` for use from the query language."""
    _REGISTRY[name.lower()] = factory


def get_aggregate(name: str) -> Aggregate:
    """Instantiate a registered aggregate by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise AggregateError(f"unknown aggregate {name!r}; known: {known}") from None


for _factory in (MajorityVote, First, ListAll, MeanRating, MedianRating, FieldwiseMajority):
    register_aggregate(_factory.name, _factory)
