"""Batching policies used by the Task Manager.

Section 2: "As an optimization, the manager can batch several tasks into a
single HIT.  The task manager can feed batches of tuples to a single operator
(e.g., collecting multiple tuples to sort)."  A batching policy decides how
many pending tasks of one group to put into each HIT and when a partially
filled batch should be flushed anyway (so the tail of a workload is not stuck
waiting for peers that will never arrive).

Groups are keyed by (task spec, kind) *across* queries: under the engine
scheduler, concurrent queries over the same crowd UDF feed one shared queue,
so a policy's batches — and the HITs they become — may mix tasks from several
queries.  Forced flushes happen only when no active query can make local
progress, which gives concurrent workloads the longest window to fill
batches before partial HITs are posted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TaskError

__all__ = ["BatchingPolicy", "FixedBatching", "NoBatching"]


class BatchingPolicy:
    """Decides how pending tasks are grouped into HITs."""

    def batch_size(self, pending: int) -> int:
        """Number of tasks to place in the next HIT given ``pending`` queued tasks."""
        raise NotImplementedError

    def should_flush(self, pending: int, *, force: bool) -> bool:
        """Whether a HIT should be formed now."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable description (shown on the dashboard)."""
        return type(self).__name__


@dataclass
class NoBatching(BatchingPolicy):
    """One task per HIT — the naive baseline the paper improves on."""

    def batch_size(self, pending: int) -> int:
        return 1

    def should_flush(self, pending: int, *, force: bool) -> bool:
        return pending >= 1

    def describe(self) -> str:
        return "no batching (1 task/HIT)"


@dataclass
class FixedBatching(BatchingPolicy):
    """Put up to ``size`` tasks into each HIT.

    Partially filled batches are only flushed when ``force`` is set (the
    operator has no more input) to avoid posting lots of undersized HITs.
    """

    size: int = 5

    def __post_init__(self) -> None:
        if self.size < 1:
            raise TaskError("batch size must be >= 1")

    def batch_size(self, pending: int) -> int:
        return min(self.size, max(pending, 1))

    def should_flush(self, pending: int, *, force: bool) -> bool:
        if pending <= 0:
            return False
        return pending >= self.size or force

    def describe(self) -> str:
        return f"fixed batching ({self.size} tasks/HIT)"
