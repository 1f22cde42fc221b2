"""The Task Manager (Figure 1).

"The Task Manager maintains a global queue of tasks that have been enqueued
by all operators, and builds an internal representation of the HIT required
to fulfill a task.  The manager takes data from the Statistics Manager to
determine the number of HITs, HIT assignments, and the cost of each task...
As an optimization, the manager can batch several tasks into a single HIT."

:class:`TaskManager` is the façade the scheduler and the operators call.  It
answers what it can from the Task Cache and the learned Task Model, and
splits the rest of the work at the marketplace boundary into three parts,
each with one path:

* the **queue** (:class:`~repro.core.tasks.task_queue.TaskQueue`) groups
  pending tasks by (task spec, kind) across queries, so one HIT may carry
  tasks of several concurrent queries, flushes each group's ``BatchSize``
  tasks per HIT and keeps the per-query pending counts.  Full batches post
  on every flush; a partial batch waits for a forced flush, which the
  scheduler issues only once no active query can make local progress, so
  concurrent queries get the longest window to fill shared HITs;
* the **HIT ledger** (:class:`~repro.core.tasks.ledger.HITLedger`) posts,
  prices, settles, expires and refunds HITs, and alone talks to the
  marketplace, the budget and the circuit breaker.  A shared HIT's cost is
  split across the queries in proportion to the tasks each contributed; a
  query that cannot afford its share is dropped from the batch (reported by
  :meth:`TaskManager.take_budget_errors`) without blocking the others.  It
  holds each task's progress record while the task is in the pipeline;
* the **answer reducer** (:func:`~repro.core.tasks.reducer.reduce_task`), a
  plain function, decides what a settled task's answers amount to: another
  redundancy wave, a fault re-post, or a reduced answer.  It owns the
  attempt cap, gold scoring, the reputation vote weights and the
  join-block pair majority.

The façade acts on the reducer's decision: it updates the Statistics Manager,
Task Model and Task Cache and delivers each
:class:`~repro.core.tasks.task.TaskResult` to its operator's callback.
Results route back through each task's ``query_id``, so attribution stays
per-query even inside shared HITs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.answers import AnswerList
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.hit_compiler import CompiledHIT, HITCompiler
from repro.core.tasks.ledger import HITLedger
from repro.core.tasks.reducer import (
    MAX_ATTEMPTS,
    REQUEUE,
    WAVE,
    Reduced,
    TaskProgress,
    reduce_task,
    score_gold,
)
from repro.core.tasks.task import ResultSource, Task, TaskKind, TaskResult
from repro.core.tasks.task_cache import TaskCache
from repro.core.tasks.task_model import LearnedTaskModel, TaskModelRegistry
from repro.core.tasks.task_queue import TaskQueue
from repro.crowd.mturk import MTurkSimulator
from repro.crowd.pricing import DEFAULT_PRICING
from repro.crowd.quality import GoldStandardPool, QualityConfig, WorkerReputation
from repro.errors import BudgetExceededError, TaskError

__all__ = ["TaskManagerStats", "TaskManager"]


@dataclass
class TaskManagerStats:
    """Aggregate counters describing Task Manager activity."""

    tasks_submitted: int = 0
    tasks_completed: int = 0
    cache_answers: int = 0
    model_answers: int = 0
    hits_posted: int = 0
    #: HITs whose task batch mixed two or more queries (cross-query batching).
    cross_query_hits: int = 0
    hit_dollars_committed: float = 0.0
    #: Committed dollars released back when HITs expired with unfilled
    #: (never-paid) assignment slots.
    hit_dollars_refunded: float = 0.0
    tasks_dropped_over_budget: int = 0
    # Fault tolerance: tasks re-posted after their HIT expired, and tasks
    # abandoned after exhausting their attempt cap (owning query -> STALLED).
    tasks_requeued: int = 0
    tasks_exhausted: int = 0
    # Quality control: additional redundancy waves posted, tasks finalized
    # below their full redundancy target, and gold-probe activity.
    wave_continuations: int = 0
    early_stopped_tasks: int = 0
    #: Tasks delivered below their redundancy target because the attempt cap
    #: was spent — the salvaged (already paid-for) answers are used rather
    #: than discarded.
    tasks_degraded: int = 0
    gold_probes_posted: int = 0
    gold_answers_scored: int = 0
    #: HIT waves shrunk (and finalizations taken early) because the owning
    #: query was marked under deadline/budget pressure by the scheduler.
    pressure_waves: int = 0


class TaskManager:
    """Global queue of crowd tasks and the machinery that fulfils them."""

    def __init__(
        self,
        platform: MTurkSimulator,
        statistics: StatisticsManager,
        budget: BudgetLedger,
        *,
        cache: TaskCache | None = None,
        models: TaskModelRegistry | None = None,
        compiler: HITCompiler | None = None,
        quality: QualityConfig | None = None,
        reputation: WorkerReputation | None = None,
        gold: GoldStandardPool | None = None,
        breaker=None,
    ) -> None:
        self.platform = platform
        self.statistics = statistics
        self.budget = budget
        self.cache = cache if cache is not None else TaskCache()
        self.models = models if models is not None else TaskModelRegistry()
        self.quality = quality
        self.reputation = reputation
        self.stats = TaskManagerStats()
        self.queue = TaskQueue()
        # ``breaker`` is an optional MarketplaceCircuitBreaker guarding the
        # posting choke point (None = always post).
        self.ledger = HITLedger(
            platform,
            statistics,
            budget,
            self.stats,
            self.queue,
            compiler=compiler if compiler is not None else HITCompiler(),
            quality=quality,
            gold=gold,
            breaker=breaker,
            on_settled=self._settle,
            on_error=self._notify_error_recorded,
        )
        self._exhausted_errors: dict[str, TaskError] = {}
        #: Queries the scheduler marked as under deadline/budget pressure:
        #: their waves shrink to one assignment, any received answer
        #: finalizes, and fault re-posts stop after a single attempt.
        self._pressured: set[str] = set()
        self._delivery_listeners: list = []
        self._error_listeners: list = []
        # Optional durability journal (an EngineJournal): HIT posts,
        # settlements and answer deliveries are crash points, not records —
        # replay regenerates them.
        self._journal = None

    def attach_journal(self, journal) -> None:
        self._journal = self.ledger.journal = journal

    # -- submission ----------------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Accept a task from an operator.

        The task may be answered immediately (cache or model) — in which case
        its callback runs synchronously — or queued for the next HIT batch.
        """
        self.stats.tasks_submitted += 1
        self.statistics.record_task_submitted(task.query_id)
        now = self.platform.clock.now

        cached = self.cache.lookup(task.spec.name, task.cache_key)
        if cached is not None:
            # The savings are what *this* task would have spent on the
            # crowd — reward + fee, times its redundancy — mirroring the
            # model path's attribution, not the stored answer's own cost.
            avoided = DEFAULT_PRICING.assignment_cost(task.price) * task.assignments
            self.cache.credit_savings(avoided)
            self.stats.cache_answers += 1
            self._deliver(
                TaskResult(
                    task=task,
                    answers=AnswerList.of(()),
                    reduced=cached.reduced,
                    source=ResultSource.CACHE,
                    avoided_cost=avoided,
                )
            )
            return

        model = self.models.model_for(task.spec.name)
        if model is not None and task.kind in (TaskKind.FILTER, TaskKind.JOIN_PAIR):
            prediction = model.predict(task)
            if prediction is not None:
                answer, _ = prediction
                avoided = DEFAULT_PRICING.assignment_cost(task.price) * task.assignments
                if isinstance(model, LearnedTaskModel):
                    model.record_savings(avoided)
                self.stats.model_answers += 1
                # Cache the escalated answer (at zero cost) so identical
                # follow-up tasks hit the cache instead of re-running
                # predict, and the answer survives restarts via the tier.
                self.cache.store(task.spec.name, task.cache_key, answer, cost=0.0)
                self._deliver(
                    TaskResult(
                        task=task,
                        answers=AnswerList.of(()),
                        reduced=answer,
                        source=ResultSource.MODEL,
                        avoided_cost=avoided,
                    )
                )
                return

        self.ledger.progress[task.task_id] = TaskProgress(task=task, submitted_at=now)
        self.queue.push(task)

    def flush(self, *, force: bool = False) -> int:
        """Turn pending tasks into HITs.  Returns the number of HITs posted.

        ``force`` flushes partially filled batches; the engine scheduler
        forces a flush once no query can make local progress.  An open
        marketplace breaker stops the flush and leaves the rest queued.

        A failed budget authorisation never raises: the unaffordable query's
        tasks are dropped from the batch, the HIT posts for the remaining
        queries, and the failure is recorded per query for
        :meth:`take_budget_errors` — so one exhausted query never aborts a
        flush serving its neighbours.
        """
        posted = 0
        for batch in self.queue.batches(force=force, may_post=self.ledger.may_post):
            posted += self.ledger.post(batch, self._pressured)
        return posted

    # -- acting on settled HITs -------------------------------------------------------

    def _settle(self, hit_id: str, compiled: CompiledHIT, submissions: list, expired: bool) -> None:
        """Act on the reducer's decision for each task of a settled HIT.

        A shortfall on an expired HIT (or a task every worker skipped) is a
        fault, and its re-post burns an attempt; on a completed HIT it is a
        planned wave continuation.
        """
        self.stats.gold_answers_scored += score_gold(compiled, submissions, self.reputation)
        now = self.platform.clock.now
        for task in compiled.tasks:
            progress = self.ledger.progress[task.task_id]
            outcome = reduce_task(
                progress,
                expired=expired,
                pressured=task.query_id in self._pressured,
                quality=self.quality,
                reputation=self.reputation,
            )
            if outcome is WAVE:
                self.stats.wave_continuations += 1
                self._requeue(task, count_attempt=False)
            elif outcome is REQUEUE:
                self._requeue(task, count_attempt=True)
            else:
                self._finalize(progress, outcome, hit_id, now)

    def _finalize(self, progress: TaskProgress, reduced: Reduced, hit_id: str, now: float) -> None:
        """Deliver a reduced answer, and feed it to statistics, model and cache."""
        task = progress.task
        if reduced.degraded:
            self.stats.tasks_degraded += 1
        elif progress.received < task.assignments:
            self.stats.early_stopped_tasks += 1
        result = TaskResult(
            task=task,
            answers=reduced.answers,
            reduced=reduced.value,
            source=ResultSource.CROWD,
            cost=progress.cost,
            latency=now - progress.submitted_at,
            hit_id=hit_id,
        )
        self.cache.store(task.spec.name, task.cache_key, reduced.value, cost=progress.cost)
        model = self.models.model_for(task.spec.name)
        if model is not None and task.kind in (TaskKind.FILTER, TaskKind.JOIN_PAIR):
            model.observe(task, reduced.value)
        del self.ledger.progress[task.task_id]
        self._deliver(result)

    def _requeue(self, task: Task, *, count_attempt: bool) -> None:
        """Put a task back on the pending queue for another HIT.

        ``count_attempt`` marks fault re-posts (expired / unanswered HITs);
        once a task burns through :data:`MAX_ATTEMPTS` of those it is
        abandoned and the owning query surfaces ``STALLED`` via
        :meth:`take_exhausted_errors` instead of hanging forever.
        """
        if task.query_id in self.ledger.cancelled:
            # The owning query is already over (completed, stalled or out of
            # budget); posting fresh HITs for it would spend money nobody is
            # waiting on — and deliver into closed operators.
            del self.ledger.progress[task.task_id]
            return
        if count_attempt:
            progress = self.ledger.progress[task.task_id]
            progress.attempts += 1
            # Pressure mode lowers the fault re-post cap to a single attempt:
            # hammering a degraded market cannot beat the deadline anyway.
            cap = 1 if task.query_id in self._pressured else MAX_ATTEMPTS
            if progress.attempts > cap:
                self.stats.tasks_exhausted += 1
                del self.ledger.progress[task.task_id]
                error = TaskError(
                    f"task {task.task_id} ({task.spec.name}) abandoned after "
                    f"{progress.attempts} failed HIT attempts "
                    f"({progress.received} answer(s) collected)"
                )
                if task.query_id:
                    self._exhausted_errors.setdefault(task.query_id, error)
                    self._notify_error_recorded()
                return
            self.stats.tasks_requeued += 1
        self.queue.push(task)

    # -- observation and errors ---------------------------------------------------------

    def on_result_delivered(self, callback) -> None:
        """Register a callback fired after every task result delivery.

        The supported observation point for tooling (the chaos harness uses
        it to assert each task is delivered exactly once, the engine
        scheduler to wake the owning query); fired for cache, model and
        crowd results alike, after the task's own callback ran.
        """
        self._delivery_listeners.append(callback)

    def on_error_recorded(self, callback) -> None:
        """Register a callback fired when a budget/exhaustion error lands.

        This is the event-push half of the error plumbing: instead of
        sweeping :meth:`take_budget_errors` / :meth:`take_exhausted_errors`
        after every flush and clock advance, the engine scheduler registers
        here and only drains the queues when something was actually
        recorded.  The callback takes no arguments and must not mutate the
        Task Manager — errors may be recorded mid-flush.
        """
        self._error_listeners.append(callback)

    def _notify_error_recorded(self) -> None:
        for listener in self._error_listeners:
            listener()

    def _deliver(self, result: TaskResult) -> None:
        self.stats.tasks_completed += 1
        self.statistics.record_result(result)
        if self._journal is not None:
            self._journal.crash_point("answer_delivered")
        result.task.callback(result)
        for listener in self._delivery_listeners:
            listener(result)

    def take_budget_errors(self) -> dict[str, BudgetExceededError]:
        """Drain budget failures recorded since the last call, keyed by query.

        The engine scheduler polls this after every flush so an exhausted
        query can be transitioned to ``BUDGET_EXCEEDED`` (and its remaining
        pending tasks cancelled) without interrupting concurrent queries that
        may share HITs with it.
        """
        errors, self.ledger.budget_errors = self.ledger.budget_errors, {}
        return errors

    def take_exhausted_errors(self) -> dict[str, TaskError]:
        """Drain attempt-cap failures recorded since the last call, by query.

        The engine scheduler polls this (like :meth:`take_budget_errors`) so
        a query whose task ran out of HIT attempts transitions to ``STALLED``
        promptly — with its partial results intact — instead of hanging until
        the whole marketplace runs dry.
        """
        errors, self._exhausted_errors = self._exhausted_errors, {}
        return errors

    # -- scheduler / executor integration -----------------------------------------------

    def set_pressure(self, query_id: str) -> None:
        """Mark a query as under deadline/budget pressure.

        Called by the engine scheduler for queries that opted into
        ``shed_under_pressure``: while marked, the query's waves shrink to a
        single assignment, any received answer finalizes, and fault re-posts
        stop after one attempt — trading redundancy for latency instead of
        stalling at the deadline.  :meth:`cancel_query` clears the mark.
        """
        self._pressured.add(query_id)

    def pending_tasks(self, query_id: str | None = None) -> int:
        """Tasks queued but not yet posted in a HIT (optionally one query's).

        O(1) either way: both counts are maintained incrementally as tasks
        enter and leave the pending queues.
        """
        if query_id is None:
            return self.queue.total
        return self.queue.by_query.get(query_id, 0)

    def inflight_hits(self) -> int:
        """HITs posted and awaiting full submission."""
        return self.ledger.inflight_hits()

    def has_outstanding_work(self) -> bool:
        """Whether any task is still queued or any HIT is still in flight."""
        return self.queue.total > 0 or self.ledger.inflight_hits() > 0

    def has_live_tasks(self, query_id: str) -> bool:
        """Whether one of the query's tasks may still deliver a result.

        True while the query has a task queued or in a HIT in flight.  After
        :meth:`cancel_query` only the in-flight ones are left.
        """
        return bool(self.queue.by_query.get(query_id)) or self.ledger.has_inflight_tasks(query_id)

    def cancel_query(self, query_id: str) -> int:
        """Drop a finished/failed query's still-pending tasks.

        Returns the number of tasks removed.  HITs already in flight are left
        alone — their cost is committed and their answers still feed the Task
        Cache and statistics, plus any co-batched queries.  While such a HIT
        is in flight the query is remembered as cancelled, so a fault (the
        HIT expiring) can never requeue — and re-bill — work on its behalf.
        """
        if self.ledger.has_inflight_tasks(query_id):
            self.ledger.cancelled.add(query_id)
        self._pressured.discard(query_id)
        removed = self.queue.cancel(query_id)
        for task in removed:
            del self.ledger.progress[task.task_id]
        return len(removed)

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Cumulative counters + the quality stream.

        Pending queues, in-flight HITs, wave progress and the cancellation
        set are *not* captured: snapshots are only taken at quiescence
        (nothing queued, nothing in flight — enforced by the engine's
        checkpoint), where all of them are empty, so the only live state is
        what accumulates across queries.
        """
        if self.has_outstanding_work():
            raise TaskError("cannot snapshot the Task Manager with work outstanding")
        rng = self.ledger.quality_rng
        return {"stats": asdict(self.stats), "quality_rng": None if rng is None else rng.getstate()}

    def load_state_dict(self, state: dict) -> None:
        self.stats = self.ledger.stats = TaskManagerStats(**state["stats"])
        if state["quality_rng"] is not None:
            if self.ledger.quality_rng is None:
                raise TaskError(
                    "snapshot has a quality stream but this engine has quality disabled"
                )
            self.ledger.quality_rng.setstate(state["quality_rng"])
