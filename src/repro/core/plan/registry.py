"""Registry of crowd UDFs available to the planner.

A TASK definition tells Qurk *what to ask the crowd*; to build physical
operators the planner also needs workload-specific glue: how to turn a row
into the payload a worker sees, an optional machine pre-filter for join
pairs, and an optional Task Model.  A :class:`RegisteredTask` bundles the
spec with that glue, and the :class:`TaskRegistry` is consulted by name when
the planner meets a UDF call in a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.tasks.spec import TaskSpec, TaskType
from repro.errors import PlanError
from repro.storage.row import Row

__all__ = ["RegisteredTask", "TaskRegistry"]

PayloadFn = Callable[[Row], dict]
PrefilterFn = Callable[[Row, Row], bool]


@dataclass
class RegisteredTask:
    """A TASK definition plus the row-level glue operators need."""

    spec: TaskSpec
    payload: PayloadFn | None = None
    left_payload: PayloadFn | None = None
    right_payload: PayloadFn | None = None
    prefilter: PrefilterFn | None = None
    learnable: bool = True

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_question(self) -> bool:
        return self.spec.task_type is TaskType.QUESTION

    @property
    def is_join_predicate(self) -> bool:
        return self.spec.task_type is TaskType.JOIN_PREDICATE

    @property
    def is_rank(self) -> bool:
        return self.spec.task_type in (TaskType.RANK, TaskType.RATING)


class TaskRegistry:
    """Name → :class:`RegisteredTask` lookup used during planning."""

    def __init__(self) -> None:
        self._tasks: dict[str, RegisteredTask] = {}

    def register(
        self,
        spec: TaskSpec,
        *,
        payload: PayloadFn | None = None,
        left_payload: PayloadFn | None = None,
        right_payload: PayloadFn | None = None,
        prefilter: PrefilterFn | None = None,
        learnable: bool = True,
    ) -> RegisteredTask:
        """Register (or replace) a crowd UDF."""
        entry = RegisteredTask(
            spec=spec,
            payload=payload,
            left_payload=left_payload,
            right_payload=right_payload,
            prefilter=prefilter,
            learnable=learnable,
        )
        self._tasks[spec.name.lower()] = entry
        return entry

    def lookup(self, name: str) -> RegisteredTask | None:
        """The registered task called ``name``, or None."""
        return self._tasks.get(name.lower())

    def require(self, name: str) -> RegisteredTask:
        """Like :meth:`lookup` but raises a :class:`PlanError` when missing."""
        entry = self.lookup(name)
        if entry is None:
            known = ", ".join(sorted(self._tasks)) or "<none>"
            raise PlanError(f"unknown crowd UDF {name!r}; registered tasks: {known}")
        return entry

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tasks

    def names(self) -> list[str]:
        """All registered task names, sorted."""
        return sorted(entry.spec.name for entry in self._tasks.values())
