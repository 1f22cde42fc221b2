"""The engine-level multi-query scheduler.

The paper's Task Manager "maintains a global queue of tasks that have been
enqueued by all operators" — which only pays off if the engine actually runs
its queries *together*.  :class:`EngineScheduler` owns the run loop for every
active query on one simulated marketplace:

* **Admission control** — at most ``max_concurrent_queries`` queries run at a
  time; later submissions wait in a FIFO pending-admission queue and are
  admitted as running queries reach a terminal state.
* **Ready-queue stepping** — the scheduler only touches *runnable* queries.
  A query that reports no local progress is parked and costs nothing per
  pass; it re-enters the ready queue when one of its task results is
  delivered (the Task Manager's delivery hook), so per-pass cost tracks the
  number of queries with work to do, not the number admitted.
* **Priority-weighted round-robin** — each pass gives every runnable query
  local steps in proportion to its priority (a deficit counter accrues
  ``priority`` credits per pass and spends one per step; the default
  priority of 1.0 degenerates to plain round-robin).  Runnable queries are
  stepped in admission order, so parking neighbours never reorders work.
* **Cross-query HIT batching** — queries deposit tasks during their local
  steps *without* flushing; the scheduler then runs one shared Task Manager
  flush per pass (which itself visits only dirty task groups), so tasks
  from several queries land in the same HIT.
* **A single, batched clock-advance decision** — simulated time moves only
  when no runnable query exists and no partial batch can be force-flushed,
  and then it keeps firing marketplace events until one actually matters (a
  result delivery, a requeue, a routed error): pure bookkeeping events (an
  assignment submitted to a still-unfilled HIT, say) no longer cost a full
  scheduling pass each.  Individual executors never touch the clock.
* **Event-pushed failure routing** — the Task Manager pushes a signal when
  it records a budget or attempt-exhaustion error, and only then does the
  scheduler drain the error queues and retire the owning queries; nothing
  polls for errors that were never recorded.  Terminal queries are reaped
  from an event-fed list, not by scanning the active set every pass.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.exec.handle import QueryHandle, QueryStatus
from repro.core.tasks.task_manager import TaskManager
from repro.crowd.clock import ScheduledEvent, SimulationClock
from repro.errors import (
    BudgetExceededError,
    EngineOverloadedError,
    ExecutionError,
    QueryDeadlineError,
    QueryStalledError,
)
from repro.storage.table import RowsView

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.optimizer.adaptive import AdaptiveReplanner

__all__ = ["SchedulerEvent", "SchedulerMetrics", "EngineScheduler"]


@dataclass(frozen=True)
class SchedulerEvent:
    """One point in a query's lifecycle, stamped with simulated time."""

    time: float
    query_id: str
    event: str
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.event}@{self.time:,.0f}s"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class SchedulerMetrics:
    """Aggregate counters for the shared run loop."""

    passes: int = field(default=0, metadata={"counter": "scheduler_passes"})
    clock_advances: int = 0
    #: Clock advances that woke no query and queued no work — marketplace
    #: bookkeeping only (e.g. one of several assignments submitted).  With
    #: event-driven wakeups these cost a heap pop, not a scheduling pass.
    noop_clock_advances: int = 0
    queries_admitted: int = 0
    queries_finished: int = 0
    # Overload protection: submissions refused outright, waiting queries
    # evicted for higher-priority arrivals, deadlines that raised, deadlines
    # that degraded to partial results, and queries switched to shed mode.
    queries_rejected: int = 0
    queries_shed: int = 0
    deadline_misses: int = 0
    queries_degraded: int = 0
    queries_pressured: int = 0


@dataclass
class _ScheduledQuery:
    """Bookkeeping for one admitted query."""

    handle: QueryHandle
    priority: float = 1.0
    credit: float = 0.0
    started: bool = False
    #: Admission sequence number: runnable queries are stepped in this
    #: order, so the ready queue preserves the admission-order round-robin.
    seq: int = 0
    #: Absolute clock time the query's deadline maps to (None = no deadline).
    deadline_at: float | None = None
    #: The no-op clock event pinned at ``deadline_at`` so the event loop
    #: always has something to advance to; cancelled on early completion.
    deadline_event: ScheduledEvent | None = None
    #: Whether the Task Manager has been told to shed this query's redundancy.
    pressured: bool = False


class EngineScheduler:
    """Shared run loop for every query on one simulated marketplace."""

    def __init__(
        self,
        clock: SimulationClock,
        task_manager: TaskManager,
        *,
        max_concurrent_queries: int | None = None,
        replanner: "AdaptiveReplanner | None" = None,
        admission_queue_limit: int | None = None,
        overload_policy: str = "reject",
        overload_retry_after: float = 30.0,
    ) -> None:
        if max_concurrent_queries is not None and max_concurrent_queries < 1:
            raise ExecutionError("max_concurrent_queries must be >= 1 (or None for unlimited)")
        if admission_queue_limit is not None and admission_queue_limit < 0:
            raise ExecutionError(
                "admission_queue_limit must be >= 0 (or None for an unbounded queue)"
            )
        if overload_policy not in ("reject", "shed"):
            raise ExecutionError(
                f"overload_policy must be 'reject' or 'shed', got {overload_policy!r}"
            )
        if overload_retry_after <= 0:
            raise ExecutionError("overload_retry_after must be positive")
        self.clock = clock
        self.task_manager = task_manager
        self.max_concurrent_queries = max_concurrent_queries
        self.replanner = replanner
        #: Bound on the pending-admission queue (None = unbounded, the
        #: legacy behaviour).  Past it, new submissions are rejected with
        #: :class:`EngineOverloadedError` (``overload_policy="reject"``) or
        #: the lowest-priority waiting query is shed to make room
        #: (``overload_policy="shed"``).
        self.admission_queue_limit = admission_queue_limit
        self.overload_policy = overload_policy
        self.overload_retry_after = overload_retry_after
        self.metrics = SchedulerMetrics()
        self.events: list[SchedulerEvent] = []
        self._events_by_query: dict[str, list[SchedulerEvent]] = {}
        self._active: dict[str, _ScheduledQuery] = {}
        self._waiting: deque[_ScheduledQuery] = deque()
        #: Ids currently in the pending-admission queue — the O(1) duplicate /
        #: membership check behind :meth:`state_of`.
        self._waiting_ids: set[str] = set()
        #: The ready queue: admitted queries that may make local progress.
        #: Values are the same records as ``_active``; iteration sorts by
        #: admission ``seq`` so parking a neighbour never reorders stepping.
        self._runnable: dict[str, _ScheduledQuery] = {}
        self._admit_seq = itertools.count()
        #: Queries that reached a terminal state since the last reap —
        #: event-fed, so reaping never scans the active set.
        self._to_reap: list[str] = []
        self._errors_pending = False
        # Deadline bookkeeping: a lazy min-heap of (deadline_at, seq, id)
        # plus id -> record for queries that carry a deadline (waiting or
        # active).  Both empty unless deadlines are actually configured, so
        # the default path never touches them.
        self._deadlines: list[tuple[float, int, str]] = []
        self._deadline_seq = itertools.count()
        self._deadline_records: dict[str, _ScheduledQuery] = {}
        #: Queries that opted into ``shed_under_pressure`` and are not yet
        #: pressured — the only ones the per-pass pressure check visits.
        self._pressure_watch: dict[str, _ScheduledQuery] = {}
        # Durability wiring (both set by QurkEngine.enable_durability): the
        # journal receives every lifecycle event; the checkpoint hook runs
        # after a drain quiesces the engine, the natural snapshot point.
        self._journal = None
        self._checkpoint_hook = None
        task_manager.on_result_delivered(self._on_result_delivered)
        task_manager.on_error_recorded(self._on_error_recorded)

    def attach_journal(self, journal, *, checkpoint_hook=None) -> None:
        self._journal = journal
        self._checkpoint_hook = checkpoint_hook

    # -- submission and admission ---------------------------------------------------------

    def submit(self, handle: QueryHandle, *, priority: float = 1.0) -> QueryHandle:
        """Register a query with the shared run loop.

        The query is admitted immediately if a concurrency slot is free,
        otherwise it joins the pending-admission queue (status ``PENDING``)
        and is admitted when a running query finishes.  With a bounded
        admission queue, a submission that would overflow it is refused with
        :class:`~repro.errors.EngineOverloadedError` — or, under the
        ``shed`` policy, the lowest-priority waiting query is evicted to
        make room when the newcomer outranks it.
        """
        if priority <= 0:
            raise ExecutionError(f"query priority must be positive, got {priority}")
        record = _ScheduledQuery(handle=handle, priority=priority)
        # Stub executors (tests, tooling) may not carry an execution context;
        # they simply cannot opt into deadlines or pressure shedding.
        context = getattr(handle.executor, "context", None)
        config = context.config if context is not None else None
        if config is not None and config.deadline is not None:
            if config.deadline <= 0:
                raise ExecutionError(f"query deadline must be positive, got {config.deadline}")
            if config.degradation not in ("error", "partial"):
                raise ExecutionError(
                    f"degradation must be 'error' or 'partial', got {config.degradation!r}"
                )
            record.deadline_at = self.clock.now + config.deadline
            # A pinned no-op event guarantees the clock can always advance
            # *to* the deadline, even when the marketplace has gone silent.
            record.deadline_event = self.clock.schedule_at(
                record.deadline_at, lambda: None, label=f"deadline:{handle.query_id}"
            )
            heapq.heappush(
                self._deadlines, (record.deadline_at, next(self._deadline_seq), handle.query_id)
            )
            self._deadline_records[handle.query_id] = record
        if config is not None and config.shed_under_pressure:
            self._pressure_watch[handle.query_id] = record
        handle.scheduler = self
        self._record_event(handle.query_id, "submitted", f"priority {priority:g}")
        self._waiting.append(record)
        self._waiting_ids.add(handle.query_id)
        self._admit()
        if (
            self.admission_queue_limit is not None
            and len(self._waiting) > self.admission_queue_limit
        ):
            self._handle_overload(record)
        return handle

    def _admit(self) -> None:
        while self._waiting and (
            self.max_concurrent_queries is None
            or len(self._active) < self.max_concurrent_queries
        ):
            record = self._waiting.popleft()
            self._waiting_ids.discard(record.handle.query_id)
            if record.handle.is_terminal:
                continue
            record.seq = next(self._admit_seq)
            self._active[record.handle.query_id] = record
            self._runnable[record.handle.query_id] = record
            self.metrics.queries_admitted += 1
            self._record_event(record.handle.query_id, "admitted")

    # -- overload protection --------------------------------------------------------------

    def _handle_overload(self, newcomer: _ScheduledQuery) -> None:
        """The admission queue overflowed: shed someone, or refuse the newcomer.

        Under ``shed``, the victim is the lowest-priority waiting query
        (ties broken oldest-first); when that victim is the newcomer itself
        — it outranks nobody — the outcome is the same as ``reject``.  A
        rejected submission raises so the caller gets the structured
        retry-after signal; a shed victim's error surfaces through its own
        handle instead.
        """
        victim = newcomer
        if self.overload_policy == "shed":
            victim = min(self._waiting, key=lambda record: record.priority)
        queue_depth = len(self._waiting) - 1
        error = EngineOverloadedError(
            f"query {victim.handle.query_id} refused: the pending-admission queue is full "
            f"({queue_depth} waiting, limit {self.admission_queue_limit}); "
            f"retry in {self.overload_retry_after:g}s",
            retry_after=self.overload_retry_after,
            query_id=victim.handle.query_id,
        )
        self._waiting.remove(victim)
        self._waiting_ids.discard(victim.handle.query_id)
        self._forget_overload_state(victim)
        victim.handle.status = QueryStatus.SHED
        victim.handle.error = error
        self.task_manager.cancel_query(victim.handle.query_id)
        if victim is newcomer:
            self.metrics.queries_rejected += 1
            self._record_event(victim.handle.query_id, "rejected", "admission queue full")
            raise error
        self.metrics.queries_shed += 1
        self._record_event(
            victim.handle.query_id,
            "shed",
            f"evicted for {newcomer.handle.query_id} (priority {newcomer.priority:g} "
            f"> {victim.priority:g})",
        )

    def withdraw(self, query_id: str) -> bool:
        """Pull a never-admitted query back out of the pending queue.

        The cluster coordinator uses this to rebalance pending (unstarted)
        queries off an unhealthy shard: the handle stays ``PENDING`` and is
        simply forgotten by this scheduler, so the caller can resubmit the
        same statement elsewhere.  Admitted queries cannot be withdrawn —
        their operators may already hold in-flight crowd work.
        """
        if query_id not in self._waiting_ids:
            return False
        for index, record in enumerate(self._waiting):
            if record.handle.query_id == query_id:
                del self._waiting[index]
                self._waiting_ids.discard(query_id)
                self._forget_overload_state(record)
                self._record_event(query_id, "withdrawn", "rebalanced off this engine")
                return True
        return False

    def _forget_overload_state(self, record: _ScheduledQuery) -> None:
        """Drop a query's deadline/pressure bookkeeping (idempotent)."""
        query_id = record.handle.query_id
        if record.deadline_event is not None:
            record.deadline_event.cancel()
            record.deadline_event = None
        self._deadline_records.pop(query_id, None)
        self._pressure_watch.pop(query_id, None)

    # -- event-driven wakeups -------------------------------------------------------------

    def _on_result_delivered(self, result) -> None:
        """Task Manager delivery hook: the owning query can make progress."""
        record = self._active.get(result.task.query_id)
        if record is not None and not record.handle.is_terminal:
            self._runnable[result.task.query_id] = record

    def _on_error_recorded(self) -> None:
        """Task Manager error hook: drain the error queues at the next seam."""
        self._errors_pending = True

    def _retire(self, record: _ScheduledQuery) -> None:
        """A query turned terminal: leave the ready queue, await the reap."""
        query_id = record.handle.query_id
        self._forget_overload_state(record)
        if record.pressured:
            self.task_manager.set_pressure(query_id, False)
        self._runnable.pop(query_id, None)
        self._to_reap.append(query_id)

    # -- introspection --------------------------------------------------------------------

    def active_queries(self) -> list[str]:
        """Ids of admitted, not-yet-terminal queries, in admission order."""
        return list(self._active)

    def queued_queries(self) -> list[str]:
        """Ids of queries waiting for an admission slot, in arrival order."""
        return [record.handle.query_id for record in self._waiting]

    def runnable_queries(self) -> list[str]:
        """Ids of queries currently in the ready queue, in admission order."""
        return sorted(self._runnable, key=lambda query_id: self._runnable[query_id].seq)

    def state_of(self, query_id: str) -> str:
        """One of ``active``, ``queued`` or ``finished`` (by this scheduler)."""
        if query_id in self._active:
            return "active"
        if query_id in self._waiting_ids:
            return "queued"
        return "finished"

    def events_for(self, query_id: str) -> list[SchedulerEvent]:
        """Lifecycle events recorded for one query, oldest first."""
        return list(self._events_by_query.get(query_id, ()))

    def _record_event(self, query_id: str, event: str, detail: str = "") -> None:
        record = SchedulerEvent(self.clock.now, query_id, event, detail)
        self.events.append(record)
        self._events_by_query.setdefault(query_id, []).append(record)
        # The single choke point every lifecycle transition passes through
        # (admitted/started/completed/stalled/budget_exceeded/replanned/...),
        # so one hook journals them all.
        if self._journal is not None:
            self._journal.record(
                "query_event",
                {"query_id": query_id, "event": event, "detail": detail, "time": record.time},
            )

    # -- deadlines and pressure -----------------------------------------------------------

    def _next_deadline(self) -> float | None:
        """Earliest live deadline, or None.  Lazily prunes dead heap entries."""
        while self._deadlines:
            deadline_at, _, query_id = self._deadlines[0]
            record = self._deadline_records.get(query_id)
            if record is None or record.handle.is_terminal or record.deadline_at != deadline_at:
                heapq.heappop(self._deadlines)
                continue
            return deadline_at
        return None

    def _check_deadlines(self) -> bool:
        """Expire every query whose deadline has passed.  True if any did."""
        expired_any = False
        while True:
            deadline_at = self._next_deadline()
            if deadline_at is None or deadline_at > self.clock.now:
                return expired_any
            _, _, query_id = heapq.heappop(self._deadlines)
            record = self._deadline_records.get(query_id)
            if record is None or record.handle.is_terminal:
                continue
            self._expire_deadline(record)
            expired_any = True

    def _expire_deadline(self, record: _ScheduledQuery) -> None:
        """A deadline fired: degrade to partial results, or fail the query.

        Cutting at the deadline only cancels *future* work — everything that
        already happened is identical to an unconstrained same-seed run, so
        a degraded result is a strict prefix of the full result (same rows,
        subset of HITs, never over-billed).
        """
        handle = record.handle
        config = handle.executor.context.config
        rows = len(handle.results_table)
        was_active = handle.query_id in self._active
        if config.degradation == "partial":
            handle.status = QueryStatus.DEGRADED
            self.metrics.queries_degraded += 1
            event = "degraded"
            detail = f"deadline {config.deadline:g}s elapsed, keeping {rows} row(s)"
        else:
            handle.status = QueryStatus.DEADLINE_EXCEEDED
            handle.error = QueryDeadlineError(
                f"query {handle.query_id} missed its {config.deadline:g}s deadline "
                f"after emitting {rows} row(s)",
                query_id=handle.query_id,
                deadline=record.deadline_at or 0.0,
                rows_produced=rows,
            )
            self.metrics.deadline_misses += 1
            event = "deadline_exceeded"
            detail = f"deadline {config.deadline:g}s elapsed after {rows} row(s)"
        cancelled = self.task_manager.cancel_query(handle.query_id)
        if cancelled:
            detail += f", {cancelled} pending task(s) cancelled"
        self._record_event(handle.query_id, event, detail)
        if was_active:
            self._retire(record)
        else:
            # Still waiting for admission: the terminal record is discarded
            # by the next _admit() pass; only the bookkeeping goes now.
            self._forget_overload_state(record)

    def _apply_pressure(self) -> None:
        """Switch watched queries into shed mode once pressure builds.

        Pressure means: past half the deadline, or over 80% of the budget
        committed.  Only queries that opted in via ``shed_under_pressure``
        are watched, so the default path pays one empty-dict check per pass.
        """
        if not self._pressure_watch:
            return
        for query_id, record in list(self._pressure_watch.items()):
            handle = record.handle
            if record.pressured or handle.is_terminal:
                continue
            config = handle.executor.context.config
            reason = None
            if record.deadline_at is not None and config.deadline:
                if self.clock.now >= record.deadline_at - 0.5 * config.deadline:
                    reason = "past 50% of deadline"
            if reason is None:
                budget = handle.executor.context.budget.budget(query_id)
                if budget.limit and budget.committed >= 0.8 * budget.limit:
                    reason = (
                        f"${budget.committed:.2f} of ${budget.limit:.2f} budget committed"
                    )
            if reason is None:
                continue
            record.pressured = True
            self.task_manager.set_pressure(query_id, True)
            self.metrics.queries_pressured += 1
            self._pressure_watch.pop(query_id, None)
            self._record_event(query_id, "pressure_shed", reason)

    # -- the shared run loop --------------------------------------------------------------

    def step(self, *, until: float | None = None) -> bool:
        """One global scheduling pass.  Returns True when anything progressed.

        Order of business: give every *runnable* query its priority-weighted
        share of local steps (operators only — no flush, no clock), run one
        shared non-forced flush so full cross-query batches post, route any
        pushed budget/exhaustion failures to their owning queries, and only
        if *nothing* moved anywhere force-flush partial batches and finally
        advance the shared clock — firing marketplace events until one of
        them wakes a query, queues work or routes an error (``until`` bounds
        that batch for deadline-driven callers).
        """
        self._admit()
        if not self._active:
            return False
        self.metrics.passes += 1
        progress = False
        if self._check_deadlines():
            # Expiring a query is progress: slots free up and waiters learn
            # their fate.  Reap now so successors are admitted this pass.
            self._reap()
            progress = True
        self._apply_pressure()

        runnable = sorted(self._runnable.values(), key=lambda record: record.seq)
        if runnable:
            # Let every starved runnable query accrue enough credit to step
            # at least once.  Parked queries neither accrue nor spend.
            while max(record.credit for record in runnable) < 1.0:
                for record in runnable:
                    record.credit += record.priority
        for record in runnable:
            if record.handle.is_terminal:
                self._runnable.pop(record.handle.query_id, None)
                continue
            steps = int(record.credit)
            record.credit -= steps
            moved = False
            for _ in range(steps):
                if not self._step_query(record):
                    break
                moved = True
                progress = True
            if steps > 0 and not moved and not record.handle.is_terminal:
                # Blocked on crowd work: park until a delivery wakes it.  A
                # query that took zero steps (a sub-1.0 priority still
                # accruing credit) was never *attempted* and must stay
                # runnable, or it would starve with nothing to wake it.
                self._runnable.pop(record.handle.query_id, None)

        if self._flush(force=False) > 0:
            progress = True
        if self._reap() > 0:
            progress = True
        if progress:
            return True
        if not self._active:
            return False

        # A forced flush (or clock advance) that posts nothing can still
        # retire queries — e.g. by routing a budget failure — and that is
        # progress too, so check the reap before falling through to a stall.
        posted = self._flush(force=True)
        if posted > 0 or self._reap() > 0:
            return True
        if self._advance_clock(until):
            self._check_deadlines()
            self._reap()
            return True

        if self.task_manager.has_outstanding_work():
            raise ExecutionError(
                "scheduler is stuck: tasks are outstanding but no crowd events are scheduled"
            )
        error = QueryStalledError(
            "scheduler is stuck: no active query can make progress and no work is outstanding "
            f"(active: {', '.join(self._active)})"
        )
        for record in list(self._active.values()):
            if record.handle.is_terminal:
                continue
            record.handle.status = QueryStatus.STALLED
            record.handle.error = error
            self.task_manager.cancel_query(record.handle.query_id)
            self._record_event(record.handle.query_id, "stalled")
            self._retire(record)
        self._reap()
        raise error

    def _advance_clock(self, until: float | None) -> bool:
        """Fire marketplace events until one matters.  True if time moved.

        "Matters" means: a delivery put a query back on the ready queue, an
        expiry requeued tasks into the pending queues, or an error was
        pushed.  Anything else — partial submissions, abandonment
        replacements, duplicate-submission noise — is counted as a no-op
        advance and absorbed here instead of costing a full pass.  ``until``
        stops the batch once the clock reaches a caller's deadline, and the
        earliest live *query* deadline bounds it the same way so an expiring
        query is noticed the moment the clock crosses its deadline.
        """
        deadline = self._next_deadline()
        if deadline is not None and (until is None or deadline < until):
            until = deadline
        advanced = False
        while self.clock.run_next():
            self.metrics.clock_advances += 1
            advanced = True
            if self._errors_pending:
                self._route_errors()
            if self._runnable or self._to_reap or self.task_manager.pending_tasks() > 0:
                break
            self.metrics.noop_clock_advances += 1
            if until is not None and self.clock.now >= until:
                break
        return advanced

    def _step_query(self, record: _ScheduledQuery) -> bool:
        handle = record.handle
        if handle.is_terminal:
            return False
        if not record.started:
            record.started = True
            handle.status = QueryStatus.RUNNING
            self._record_event(handle.query_id, "started")
        try:
            moved = handle.executor.step_local(flush=False, raise_on_budget=False)
            if self.replanner is not None and not handle.is_terminal:
                # Operator-completion barrier: when an operator of this query
                # just finished, the replanner re-costs the not-yet-started
                # plan suffix with observed statistics and may swap pending
                # strategies (join interface, sort interface, redundancy).
                for change in self.replanner.maybe_replan(handle):
                    self._record_event(handle.query_id, "replanned", change.describe())
        except BudgetExceededError as error:
            self._fail_over_budget(record, error)
            return False
        except Exception as error:
            handle.status = QueryStatus.FAILED
            handle.error = error
            # Cancel what the dead query left in the shared queues so later
            # flushes don't post (and bill) HITs nobody will consume.
            self.task_manager.cancel_query(handle.query_id)
            self._record_event(handle.query_id, "failed", type(error).__name__)
            self._retire(record)
            raise
        if handle.executor.is_complete():
            self._complete(record)
            return True
        return moved

    def _flush(self, *, force: bool) -> int:
        posted = self.task_manager.flush(force=force, raise_on_budget=False)
        if self._errors_pending:
            self._route_errors()
        return posted

    def _route_errors(self) -> None:
        """Drain the pushed error queues (only called when one was recorded)."""
        self._errors_pending = False
        self._route_budget_errors()
        self._route_exhausted_errors()

    def _route_budget_errors(self) -> None:
        for query_id, error in self.task_manager.take_budget_errors().items():
            record = self._active.get(query_id)
            if record is None or record.handle.is_terminal:
                continue
            self._fail_over_budget(record, error)

    def _route_exhausted_errors(self) -> None:
        """Stall queries whose tasks ran out of fault-tolerance HIT attempts.

        The Task Manager abandons a task once its re-post attempt cap is
        burned (every posted HIT expired or came back empty); the owning
        query can then never complete, so it surfaces ``STALLED`` — keeping
        its partial results — instead of hanging, and without dragging down
        the other active queries the global stall path would also mark.
        """
        for query_id, cause in self.task_manager.take_exhausted_errors().items():
            record = self._active.get(query_id)
            if record is None or record.handle.is_terminal:
                continue
            handle = record.handle
            handle.status = QueryStatus.STALLED
            handle.error = QueryStalledError(
                f"query {query_id} stalled after emitting "
                f"{len(handle.results_table)} row(s): {cause}"
            )
            cancelled = self.task_manager.cancel_query(query_id)
            self._record_event(
                query_id,
                "stalled",
                f"task attempts exhausted, {cancelled} pending task(s) cancelled",
            )
            self._retire(record)

    def _fail_over_budget(self, record: _ScheduledQuery, error: BudgetExceededError) -> None:
        handle = record.handle
        handle.status = QueryStatus.BUDGET_EXCEEDED
        handle.error = error
        cancelled = self.task_manager.cancel_query(handle.query_id)
        self._record_event(
            handle.query_id, "budget_exceeded", f"{cancelled} pending task(s) cancelled"
        )
        self._retire(record)

    def _complete(self, record: _ScheduledQuery) -> None:
        handle = record.handle
        handle.executor.close()
        handle.status = QueryStatus.COMPLETED
        # A plan can finish with speculative tasks still queued (e.g. a LIMIT
        # satisfied early); drop them before a shared flush pays for them.
        cancelled = self.task_manager.cancel_query(handle.query_id)
        detail = f"{len(handle.results_table)} row(s)"
        if cancelled:
            detail += f", {cancelled} speculative task(s) cancelled"
        self._record_event(handle.query_id, "completed", detail)
        self._retire(record)

    def _reap(self) -> int:
        """Remove terminal queries from the active set and admit successors.

        Fed by :meth:`_retire` at every terminal transition, so it only ever
        touches queries that actually finished — no per-pass scan.
        """
        if not self._to_reap:
            return 0
        finished = 0
        for query_id in self._to_reap:
            record = self._active.pop(query_id, None)
            if record is None:
                continue
            self._runnable.pop(query_id, None)
            finished += 1
            self.metrics.queries_finished += 1
            if self.replanner is not None:
                self.replanner.release(query_id)
        self._to_reap.clear()
        if finished:
            self._admit()
        return finished

    # -- driving to a target --------------------------------------------------------------

    def has_work(self) -> bool:
        """Whether any admitted or queued query is not yet terminal."""
        return bool(self._active) or bool(self._waiting)

    def pump(self, *, max_passes: int = 1) -> bool:
        """Run up to ``max_passes`` scheduling passes without blocking policy.

        The live-traffic entry point: a live cluster worker calls this, one
        pass at a time, whenever no message is waiting for it
        (:meth:`repro.cluster.worker.ShardWorker.serve`), so queries progress
        incrementally instead of monopolising the worker until completion.
        Global stalls are absorbed — :meth:`step` has already marked every
        stuck query ``STALLED`` and retired it before raising, and a server
        surfaces stalls per-query through handle status, not an exception.
        Returns True when any pass made progress.
        """
        progressed = False
        for _ in range(max(max_passes, 1)):
            if not self.has_work():
                break
            try:
                if not self.step():
                    break
            except QueryStalledError:
                progressed = True
                break
            progressed = True
        return progressed

    def drain(self) -> int:
        """Drive every admitted and queued query to a terminal state.

        Exactly the pass sequence of calling :meth:`wait` on each handle in
        turn — :meth:`step` is global, so the stepping order is independent
        of which handle is watched — but stalls are recorded on the handles
        instead of raised, letting the remaining queries finish.  Returns
        the number of queries that reached a terminal state.
        """
        if self._journal is not None:
            # Drain boundaries shape scheduling (which queries run
            # concurrently), so recovery must reproduce them: the record is
            # forced durable *before* the drain starts, and replay re-runs
            # the drain to completion when it reaches this LSN.
            self._journal.record("drain", {}, durable=True)
        finished_before = self.metrics.queries_finished
        while self.has_work():
            try:
                if not self.step():
                    break
            except QueryStalledError:
                continue  # stalled queries were retired; keep driving the rest
        if self._checkpoint_hook is not None:
            # A completed drain is the engine's natural quiescent point;
            # the hook snapshots (and truncates the WAL) when one is due.
            self._checkpoint_hook()
        return self.metrics.queries_finished - finished_before

    def run_until(self, simulated_time: float, *, watch: QueryHandle | None = None) -> None:
        """Step until the clock reaches ``simulated_time`` (or work runs out).

        When ``watch`` is given, also stop as soon as that query reaches a
        terminal state — concurrent queries keep whatever progress they made
        along the way and resume on the next call.
        """
        while self.clock.now < simulated_time:
            if watch is not None and watch.is_terminal:
                return
            if not self.step(until=simulated_time):
                return

    def wait(self, handle: QueryHandle) -> RowsView:
        """Drive the run loop until ``handle`` finishes; return a view of its rows.

        Every scheduling pass also progresses the other active queries, so
        waiting on one handle naturally advances the whole marketplace.
        Budget exhaustion surfaces as ``status = BUDGET_EXCEEDED`` with
        partial results; a stall raises
        :class:`~repro.errors.QueryStalledError` instead of silently
        returning an incomplete result set.
        """
        while not handle.is_terminal:
            if not self.step():
                break
        if not handle.is_terminal:
            handle.status = QueryStatus.STALLED
            handle.error = QueryStalledError(
                f"query {handle.query_id} stalled after emitting "
                f"{len(handle.results_table)} row(s): the scheduler ran out of work"
            )
            self.task_manager.cancel_query(handle.query_id)
            self._record_event(handle.query_id, "stalled")
            record = self._active.get(handle.query_id)
            if record is not None:
                self._retire(record)
                self._reap()
            raise handle.error
        if (
            handle.status
            in (QueryStatus.STALLED, QueryStatus.DEADLINE_EXCEEDED, QueryStatus.SHED)
            and handle.error is not None
        ):
            # A targeted stall (task attempts exhausted), a missed deadline
            # under ``degradation="error"`` or a load-shedding eviction set
            # the status without raising; waiting on the handle must still
            # surface it rather than silently returning an incomplete result
            # set.  ``DEGRADED`` intentionally falls through — partial
            # results are the contract of ``degradation="partial"``.
            raise handle.error
        return handle.results()
