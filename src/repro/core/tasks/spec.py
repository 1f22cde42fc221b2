"""Task specifications: the ``TASK`` definition language as Python objects.

Section 3 of the paper introduces a UDF language in which each crowd function
is described by a ``TASK`` block — its signature, a ``TaskType``, the question
``Text`` shown to turkers, and a ``Response`` describing the form the worker
fills in (Task 1 and Task 2 in the paper).  :class:`TaskSpec` is the parsed,
validated form of such a block; the SQL front end
(:mod:`repro.core.lang.task_parser`) produces these, and programmatic users
can construct them directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import TaskError

__all__ = [
    "TaskType",
    "ResponseSpec",
    "FormResponse",
    "YesNoResponse",
    "JoinColumnsResponse",
    "ComparisonResponse",
    "RatingResponse",
    "Parameter",
    "ReturnField",
    "TaskSpec",
]


class TaskType(enum.Enum):
    """The ``TaskType`` field of a TASK definition."""

    QUESTION = "Question"
    FILTER = "Filter"
    JOIN_PREDICATE = "JoinPredicate"
    RANK = "Rank"
    RATING = "Rating"

    @classmethod
    def from_string(cls, text: str) -> "TaskType":
        for member in cls:
            if member.value.lower() == text.lower():
                return member
        raise TaskError(f"unknown TaskType {text!r}")


class ResponseSpec:
    """Base class for the ``Response`` field of a TASK definition."""


@dataclass(frozen=True)
class FormResponse(ResponseSpec):
    """``Response: Form(("CEO", String), ("Phone", String))`` — free-text fields."""

    fields: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise TaskError("Form response needs at least one field")


@dataclass(frozen=True)
class YesNoResponse(ResponseSpec):
    """A yes/no answer (filters and pairwise join predicates)."""

    yes_label: str = "Yes"
    no_label: str = "No"


@dataclass(frozen=True)
class JoinColumnsResponse(ResponseSpec):
    """``Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)``.

    The two-column matching interface of Figure 3.  ``left_per_hit`` and
    ``right_per_hit`` bound how many pictures appear in each column of one
    HIT ("The number of pictures in each column can change to facilitate
    multiple comparisons per HIT").
    """

    left_label: str
    right_label: str
    left_per_hit: int = 3
    right_per_hit: int = 3

    def __post_init__(self) -> None:
        if self.left_per_hit < 1 or self.right_per_hit < 1:
            raise TaskError("JoinColumns column sizes must be at least 1")


@dataclass(frozen=True)
class ComparisonResponse(ResponseSpec):
    """Pick the greater of two items (comparison-based crowd sort)."""

    left_label: str = "A"
    right_label: str = "B"


@dataclass(frozen=True)
class RatingResponse(ResponseSpec):
    """Rate one item on a numeric scale (rating-based crowd sort)."""

    scale: tuple[int, int] = (1, 7)

    def __post_init__(self) -> None:
        low, high = self.scale
        if low >= high:
            raise TaskError(f"rating scale must be increasing, got {self.scale}")


@dataclass(frozen=True)
class Parameter:
    """A typed parameter of the TASK signature (``String companyName``)."""

    name: str
    type_name: str = "String"


@dataclass(frozen=True)
class ReturnField:
    """A typed return field (``RETURNS (String CEO, String Phone)``)."""

    name: str
    type_name: str = "String"


_DEFAULT_COMBINERS = {
    TaskType.QUESTION: "FieldwiseMajority",
    TaskType.FILTER: "MajorityVote",
    TaskType.JOIN_PREDICATE: "MajorityVote",
    TaskType.RANK: "MajorityVote",
    TaskType.RATING: "MeanRating",
}


@dataclass(frozen=True)
class TaskSpec:
    """A fully described crowd UDF.

    Parameters beyond the paper's TASK fields (``price``, ``assignments``,
    ``batch_size``, ``combiner``) are the tuning knobs the Qurk optimizer
    adjusts; they have sensible defaults so a TASK block need not mention
    them.

    ``feature_extractor`` optionally maps a task payload to a numeric feature
    vector; when present, the Task Model (Section 2, "Task Model") can learn
    to answer this task and eventually replace the crowd.
    """

    name: str
    task_type: TaskType
    text: str
    response: ResponseSpec
    parameters: tuple[Parameter, ...] = ()
    returns: tuple[ReturnField, ...] = ()
    price: float = 0.01
    assignments: int = 3
    batch_size: int = 1
    combiner: str = ""
    feature_extractor: Callable[[dict], Sequence[float]] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise TaskError("a TASK needs a name")
        if self.price <= 0:
            raise TaskError(f"TASK {self.name}: price must be positive")
        if self.assignments < 1:
            raise TaskError(f"TASK {self.name}: assignments must be >= 1")
        if self.batch_size < 1:
            raise TaskError(f"TASK {self.name}: batch_size must be >= 1")
        if not self.combiner:
            object.__setattr__(self, "combiner", _DEFAULT_COMBINERS[self.task_type])
        self._check_response_matches_type()

    def _check_response_matches_type(self) -> None:
        expected: dict[TaskType, tuple[type, ...]] = {
            TaskType.QUESTION: (FormResponse,),
            TaskType.FILTER: (YesNoResponse,),
            TaskType.JOIN_PREDICATE: (YesNoResponse, JoinColumnsResponse),
            TaskType.RANK: (ComparisonResponse, RatingResponse),
            TaskType.RATING: (RatingResponse,),
        }
        if not isinstance(self.response, expected[self.task_type]):
            allowed = " or ".join(t.__name__ for t in expected[self.task_type])
            raise TaskError(
                f"TASK {self.name}: TaskType {self.task_type.value} requires a "
                f"{allowed} response, got {type(self.response).__name__}"
            )

    # -- helpers --------------------------------------------------------------

    def render_text(self, *args: object) -> str:
        """Substitute positional arguments into the ``Text`` template.

        The paper uses a ``%s`` substitution language; unmatched argument
        counts raise so misconfigured tasks fail loudly.
        """
        placeholders = self.text.count("%s")
        if placeholders != len(args):
            raise TaskError(
                f"TASK {self.name}: Text template expects {placeholders} argument(s), "
                f"got {len(args)}"
            )
        return self.text % args if placeholders else self.text

    @property
    def returns_bool(self) -> bool:
        """True when the task returns a single boolean (filters, join predicates)."""
        return not self.returns

    @property
    def join_block(self) -> tuple[int, int]:
        """Left and right pictures per two-column join HIT (3×3 without JoinColumns)."""
        if isinstance(self.response, JoinColumnsResponse):
            return self.response.left_per_hit, self.response.right_per_hit
        return 3, 3
