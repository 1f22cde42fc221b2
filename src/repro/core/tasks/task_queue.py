"""The Task Manager's global queue of crowd tasks waiting for a HIT.

Tasks are grouped by (task spec, kind) **across queries**, so one posted HIT
may carry tasks enqueued by several concurrent queries — which is what makes
the engine-level scheduler's cross-query batching pay off.  Each group posts
its spec's ``BatchSize`` tasks per HIT (a join block is one HIT on its own).
The per-query pending counts are kept incrementally, so the scheduler's
introspection calls are O(1).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Iterator

from repro.core.tasks.task import Task, TaskKind

__all__ = ["TaskQueue"]

GroupKey = tuple[str, str]  # (spec name, kind) — shared across queries


class TaskQueue:
    """Pending tasks grouped by (spec, kind), in group-creation order."""

    def __init__(self) -> None:
        self._groups: dict[GroupKey, deque[Task]] = {}
        # Groups that gained tasks since their last flush visit: a visited
        # group's residue cannot become flushable until another task arrives.
        self._dirty: set[GroupKey] = set()
        self.total = 0
        #: Pending tasks per query; a query's entry lives only while it has some.
        self.by_query: Counter = Counter()
        # Groups that (may) hold a query's tasks — lazily pruned, so
        # cancellation scans only the queues the query actually used.
        self._groups_by_query: dict[str, set[GroupKey]] = {}

    def push(self, task: Task) -> None:
        """Queue a task for the next HIT batch, keeping every index current."""
        key: GroupKey = (task.spec.name, task.kind.value)
        queue = self._groups.get(key)
        if queue is None:
            queue = self._groups[key] = deque()
        queue.append(task)
        self._dirty.add(key)
        self.total += 1
        self.by_query[task.query_id] += 1
        keys = self._groups_by_query.get(task.query_id)
        if keys is None:
            keys = self._groups_by_query[task.query_id] = set()
        keys.add(key)

    def _pop(self, key: GroupKey) -> Task:
        task = self._groups[key].popleft()
        self.total -= 1
        self.by_query[task.query_id] -= 1
        if not self.by_query[task.query_id]:
            del self.by_query[task.query_id]
        return task

    def _drop(self, key: GroupKey) -> None:
        del self._groups[key]
        self._dirty.discard(key)

    def batches(self, *, force: bool, may_post: Callable[[], bool]) -> Iterator[list[Task]]:
        """Pop the batches a flush posts, group by group in creation order.

        Without ``force`` only full batches of groups that gained tasks since
        their last visit come out; ``force`` drains every group, partial
        batches included.  ``may_post`` is asked before each batch; once it
        refuses, the batch stays queued (its group marked for the next
        flush) and the iteration ends.
        """
        # A group enters and leaves ``_groups`` and ``_dirty`` together, and
        # ``cancel`` reassigns an existing key in place, so ``_groups``'
        # insertion order is the groups' creation order.
        keys = list(self._groups) if force else [key for key in self._groups if key in self._dirty]
        for key in keys:
            self._dirty.discard(key)
            queue = self._groups.get(key)
            if not queue:
                continue
            head = queue[0]
            size = 1 if head.kind is TaskKind.JOIN_BLOCK else head.spec.batch_size
            while queue and (force or len(queue) >= size):
                if not may_post():
                    self._dirty.add(key)
                    return
                yield [self._pop(key) for _ in range(min(size, len(queue)))]
            if not queue:
                self._drop(key)

    def cancel(self, query_id: str) -> list[Task]:
        """Remove and return a query's pending tasks."""
        removed: list[Task] = []
        groups = self._groups_by_query.pop(query_id, ())
        if self.by_query.pop(query_id, 0):
            # Only the groups this query actually queued into are touched.
            for key in groups:
                queue = self._groups.get(key)
                if queue is None:
                    continue
                removed += [task for task in queue if task.query_id == query_id]
                kept = deque(task for task in queue if task.query_id != query_id)
                if kept:
                    self._groups[key] = kept
                else:
                    self._drop(key)
            self.total -= len(removed)
        return removed
