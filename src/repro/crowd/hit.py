"""HITs, assignments and the HIT content model.

A HIT ("Human Intelligence Task") is the unit of work posted to the crowd
platform.  Its *content* describes the interface a worker sees; the paper's
Task 1 compiles to a :data:`HITInterface.QUESTION_FORM` and Task 2 to a
:data:`HITInterface.JOIN_COLUMNS` two-column matching interface (Figure 3).
The batching optimizations of Section 2 put several items into one HIT, so
every interface carries a list of :class:`HITItem`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import AssignmentError, HITError

__all__ = [
    "HITInterface",
    "FormField",
    "HITItem",
    "HITContent",
    "HITStatus",
    "AssignmentStatus",
    "Assignment",
    "HIT",
]


class HITInterface(enum.Enum):
    """The kind of form a worker is shown (Figure 3 shows JOIN_COLUMNS)."""

    QUESTION_FORM = "question_form"
    BINARY_CHOICE = "binary_choice"
    JOIN_PAIRS = "join_pairs"
    JOIN_COLUMNS = "join_columns"
    COMPARISON = "comparison"
    RATING = "rating"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FormField:
    """One free-text input of a QUESTION_FORM HIT (e.g. ``CEO``, ``Phone``)."""

    name: str
    field_type: str = "String"


@dataclass(frozen=True)
class HITItem:
    """One unit of work inside a HIT.

    ``payload`` holds whatever the worker must look at (a company name, a
    pair of images, a list of images for a column).  ``group`` distinguishes
    the two sides of a JOIN_COLUMNS interface (``"left"`` / ``"right"``).
    """

    item_id: str
    prompt: str
    payload: dict[str, Any] = field(default_factory=dict)
    group: str = ""


@dataclass(frozen=True)
class HITContent:
    """Everything a worker sees when they accept a HIT."""

    interface: HITInterface
    title: str
    instructions: str
    items: tuple[HITItem, ...]
    fields: tuple[FormField, ...] = ()
    left_label: str = ""
    right_label: str = ""
    choices: tuple[str, ...] = ("yes", "no")
    rating_scale: tuple[int, int] = (1, 7)
    #: How many independent judgements the HIT asks for.  For most
    #: interfaces this is the number of items; for the two-column join
    #: interface it is the size of the implied cross product, which is what
    #: actually determines worker effort and answer quality.  Derived once
    #: here: every pick-up and every work duration reads it.
    work_units: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.items:
            raise HITError("a HIT must contain at least one item")
        if self.interface is HITInterface.QUESTION_FORM and not self.fields:
            raise HITError("QUESTION_FORM HITs must declare at least one form field")
        work_units = len(self.items)
        if self.interface is HITInterface.JOIN_COLUMNS:
            left, right = len(self.left_items), len(self.right_items)
            if not left or not right:
                raise HITError("JOIN_COLUMNS HITs need items in both columns")
            work_units = left * right
        object.__setattr__(self, "work_units", work_units)

    @property
    def left_items(self) -> tuple[HITItem, ...]:
        """Items displayed in the left column of a JOIN_COLUMNS interface."""
        return tuple(item for item in self.items if item.group == "left")

    @property
    def right_items(self) -> tuple[HITItem, ...]:
        """Items displayed in the right column of a JOIN_COLUMNS interface."""
        return tuple(item for item in self.items if item.group == "right")


class HITStatus(enum.Enum):
    """Lifecycle of a HIT on the platform."""

    OPEN = "open"
    COMPLETED = "completed"
    EXPIRED = "expired"
    DISPOSED = "disposed"


class AssignmentStatus(enum.Enum):
    """Lifecycle of one worker's assignment of a HIT."""

    ACCEPTED = "accepted"
    SUBMITTED = "submitted"
    APPROVED = "approved"
    REJECTED = "rejected"
    #: The worker returned the assignment without submitting (fault injection).
    ABANDONED = "abandoned"


@dataclass
class Assignment:
    """One worker's completion of a HIT.

    ``answers`` is keyed by item id.  For QUESTION_FORM items the value is a
    ``{field name: text}`` mapping; for BINARY_CHOICE / JOIN_PAIRS it is a
    boolean; for COMPARISON it is the item id judged greater; for RATING a
    number; for JOIN_COLUMNS the special key ``"matches"`` maps to a list of
    ``(left item id, right item id)`` pairs.
    """

    assignment_id: str
    hit_id: str
    worker_id: str
    accepted_at: float
    status: AssignmentStatus = AssignmentStatus.ACCEPTED
    submitted_at: float | None = None
    answers: dict[str, Any] = field(default_factory=dict)

    @property
    def work_duration(self) -> float:
        """Seconds between acceptance and submission (0 while in flight)."""
        if self.submitted_at is None:
            return 0.0
        return self.submitted_at - self.accepted_at

    def submit(self, answers: dict[str, Any], at: float) -> None:
        """Record the worker's answers and mark the assignment submitted."""
        if self.status is not AssignmentStatus.ACCEPTED:
            raise AssignmentError(
                f"assignment {self.assignment_id} cannot be submitted from {self.status}"
            )
        if at < self.accepted_at:
            raise AssignmentError("assignment submitted before it was accepted")
        self.answers = dict(answers)
        self.submitted_at = at
        self.status = AssignmentStatus.SUBMITTED

    def approve(self) -> None:
        """Approve a submitted assignment (triggers payment on the platform)."""
        if self.status is not AssignmentStatus.SUBMITTED:
            raise AssignmentError(
                f"assignment {self.assignment_id} cannot be approved from {self.status}"
            )
        self.status = AssignmentStatus.APPROVED

    def reject(self) -> None:
        """Reject a submitted assignment (no payment)."""
        if self.status is not AssignmentStatus.SUBMITTED:
            raise AssignmentError(
                f"assignment {self.assignment_id} cannot be rejected from {self.status}"
            )
        self.status = AssignmentStatus.REJECTED

    def abandon(self) -> None:
        """The worker returned the assignment without submitting (no payment)."""
        if self.status is not AssignmentStatus.ACCEPTED:
            raise AssignmentError(
                f"assignment {self.assignment_id} cannot be abandoned from {self.status}"
            )
        self.status = AssignmentStatus.ABANDONED


#: The states of an assignment whose answers the requester holds.
_SUBMITTED = (AssignmentStatus.SUBMITTED, AssignmentStatus.APPROVED, AssignmentStatus.REJECTED)


@dataclass
class HIT:
    """A HIT posted on the (simulated) platform."""

    hit_id: str
    content: HITContent
    reward: float
    max_assignments: int
    created_at: float
    lifetime: float = 24 * 3600.0
    status: HITStatus = HITStatus.OPEN
    assignments: list[Assignment] = field(default_factory=list)
    requester_annotation: str = ""
    #: Workers barred from this HIT (the qualification mechanism requesters
    #: use so a re-posted task is not answered twice by the same worker —
    #: redundancy assumes independent judgements).
    excluded_workers: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.max_assignments < 1:
            raise HITError("max_assignments must be >= 1")
        if self.reward < 0:
            raise HITError("reward must be non-negative")

    @property
    def expires_at(self) -> float:
        """Simulated time after which the HIT no longer accepts workers."""
        return self.created_at + self.lifetime

    @property
    def submitted_assignments(self) -> list[Assignment]:
        """Assignments that have been submitted (or already reviewed)."""
        return [a for a in self.assignments if a.status in _SUBMITTED]

    @property
    def is_fully_submitted(self) -> bool:
        """True when every requested assignment has been submitted."""
        submitted = 0
        for assignment in self.assignments:
            if assignment.status in _SUBMITTED:
                submitted += 1
        return submitted >= self.max_assignments

    def __repr__(self) -> str:
        return (
            f"HIT({self.hit_id}, {self.content.interface.value}, "
            f"items={len(self.content.items)}, reward=${self.reward:.3f}, "
            f"assignments={len(self.submitted_assignments)}/{self.max_assignments}, "
            f"{self.status.value})"
        )
