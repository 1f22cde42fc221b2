"""The Task Manager (Figure 1).

"The Task Manager maintains a global queue of tasks that have been enqueued
by all operators, and builds an internal representation of the HIT required
to fulfill a task.  The manager takes data from the Statistics Manager to
determine the number of HITs, HIT assignments, and the cost of each task...
As an optimization, the manager can batch several tasks into a single HIT."

Responsibilities implemented here:

* a global pending queue, grouped by (task spec, kind) **across queries** —
  one posted HIT may carry tasks enqueued by several concurrent queries,
  which is what makes the engine-level scheduler's cross-query batching pay
  off (fewer, fuller HITs under concurrent load);
* answer short-circuiting through the Task Cache and the learned Task Model;
* batching pending tasks into HITs via per-group batching policies;
* per-query budget authorisation before any HIT is posted: a shared HIT's
  cost is split across the participating queries in proportion to the tasks
  each contributed, and a query that cannot afford its share is dropped from
  the batch (and reported via :meth:`TaskManager.take_budget_errors`) without
  blocking the other queries;
* collecting submitted assignments, reducing answer lists with the spec's
  combiner, updating the Statistics Manager / Task Model / Task Cache, and
  delivering :class:`~repro.core.tasks.task.TaskResult` to operator callbacks
  — results route back to the submitting operator (and its query's
  statistics) via each task's ``query_id``, so attribution stays per-query
  even inside shared HITs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.core.answers import (
    AnswerList,
    get_aggregate,
    weighted_confidence,
    weighted_counterpart,
)
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.batching import BatchingPolicy, FixedBatching, NoBatching
from repro.core.tasks.hit_compiler import CompiledHIT, HITCompiler
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import ResultSource, Task, TaskKind, TaskResult
from repro.core.tasks.task_cache import TaskCache
from repro.core.tasks.task_model import LearnedTaskModel, TaskModelRegistry
from repro.crowd.hit import HIT, Assignment
from repro.crowd.mturk import MTurkSimulator
from repro.crowd.quality import (
    DEFAULT_AGREEMENT_WEIGHT,
    GoldQuestion,
    GoldStandardPool,
    QualityConfig,
    WorkerReputation,
    agreement_signal,
)
from repro.errors import BudgetExceededError, TaskError

__all__ = ["TaskManagerStats", "TaskManager"]

GroupKey = tuple[str, str]  # (spec name, kind) — shared across queries


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


@dataclass
class _InflightHIT:
    """Bookkeeping for a HIT that has been posted but not fully submitted."""

    compiled: CompiledHIT
    posted_at: float
    cost_committed: float
    processed: bool = False
    #: Assignments actually requested per task in this HIT (None -> each
    #: task's full redundancy, the legacy single-shot behaviour).
    needs: dict[str, int] | None = None
    #: Per-query budget shares authorised for this HIT (for refunds when the
    #: HIT expires with unfilled — and therefore unpaid — assignment slots).
    shares: dict[str, float] = field(default_factory=dict)


@dataclass
class _TaskProgress:
    """Answers accumulated for one task across waves and re-posted HITs."""

    task: Task
    target: int
    answers: list = field(default_factory=list)
    workers: list[str] = field(default_factory=list)
    cost: float = 0.0
    #: Fault re-posts consumed (wave continuations do not count).
    attempts: int = 0

    @property
    def received(self) -> int:
        return len(self.answers)


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
        default_batching: BatchingPolicy | None = None,
        quality: QualityConfig | None = None,
        reputation: WorkerReputation | None = None,
        gold: GoldStandardPool | None = None,
        max_attempts: int | None = None,
        breaker=None,
    ) -> None:
        self.platform = platform
        self.statistics = statistics
        self.budget = budget
        #: Optional :class:`~repro.crowd.breaker.MarketplaceCircuitBreaker`
        #: guarding the posting choke point (None = always post).
        self.breaker = breaker
        self.cache = cache if cache is not None else TaskCache()
        self.models = models if models is not None else TaskModelRegistry()
        self.compiler = compiler if compiler is not None else HITCompiler()
        self.default_batching = default_batching if default_batching is not None else NoBatching()
        self.quality = quality
        self.reputation = reputation
        self.gold = gold
        # An explicit constructor argument wins; otherwise the quality
        # config's cap, then the default.
        if max_attempts is not None:
            self.max_attempts = max_attempts
        elif quality is not None:
            self.max_attempts = quality.max_attempts
        else:
            self.max_attempts = 3
        self.stats = TaskManagerStats()
        self._pending: dict[GroupKey, deque[Task]] = {}
        # Incremental pending-queue bookkeeping, so the per-pass flush and
        # the scheduler's introspection calls touch only what changed:
        # ``_dirty`` holds the groups that gained tasks since their last
        # flush visit (a visited group's residue cannot become flushable
        # until another task arrives); ``_group_order`` stamps each live
        # group with its creation sequence so a dirty subset still flushes
        # in the exact order a full ``_pending`` iteration would have.
        self._dirty: set[GroupKey] = set()
        self._group_order: dict[GroupKey, int] = {}
        self._group_seq = itertools.count()
        self._pending_total = 0
        self._pending_by_query: Counter = Counter()
        # Groups that (may) hold a query's tasks — lazily pruned, so
        # cancellation scans only the queues the query actually used.
        self._pending_groups_by_query: dict[str, set[GroupKey]] = {}
        self._policies: dict[tuple[str, str], BatchingPolicy] = {}
        self._inflight: dict[str, _InflightHIT] = {}
        # In-flight HITs indexed by (spec, kind) group and by participating
        # query, for salvage / cancellation / introspection paths.
        self._inflight_by_group: dict[GroupKey, set[str]] = {}
        self._inflight_by_query: dict[str, set[str]] = {}
        self._progress: dict[str, _TaskProgress] = {}
        self._submitted_at: dict[str, float] = {}
        self._budget_errors: dict[str, BudgetExceededError] = {}
        self._exhausted_errors: dict[str, TaskError] = {}
        self._cancelled_queries: set[str] = set()
        #: Queries the scheduler marked as under deadline/budget pressure:
        #: their waves shrink to one assignment, any received answer
        #: finalizes, and fault re-posts stop after a single attempt.
        self._pressured: set[str] = set()
        self._delivery_listeners: list = []
        self._error_listeners: list = []
        self._quality_rng = random.Random(quality.seed) if quality is not None else None
        # Optional durability journal (an EngineJournal) recording the
        # externally-visible lifecycle events: HIT posts, settlements and
        # answer deliveries.
        self._journal = None
        platform.on_assignment_submitted(self._on_assignment_submitted)
        platform.on_hit_expired(self._on_hit_expired)

    def attach_journal(self, journal) -> None:
        self._journal = journal

    # -- configuration -------------------------------------------------------------

    def set_batching_policy(self, spec_name: str, kind: TaskKind, policy: BatchingPolicy) -> None:
        """Choose how tasks of one (spec, kind) group are batched into HITs."""
        self._policies[(spec_name, kind.value)] = policy

    def policy_for(self, spec: TaskSpec, kind: TaskKind) -> BatchingPolicy:
        """The batching policy in force for a (spec, kind) group."""
        explicit = self._policies.get((spec.name, kind.value))
        if explicit is not None:
            return explicit
        if spec.batch_size > 1 and kind is not TaskKind.JOIN_BLOCK:
            policy = FixedBatching(spec.batch_size)
            self._policies[(spec.name, kind.value)] = policy
            return policy
        return self.default_batching

    # -- submission ----------------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Accept a task from an operator.

        The task may be answered immediately (cache or model) — in which case
        its callback runs synchronously — or queued for the next HIT batch.
        """
        self.stats.tasks_submitted += 1
        self.statistics.record_task_submitted(task.query_id)
        now = self.platform.clock.now
        self._submitted_at[task.task_id] = now

        cached = self.cache.lookup(task.spec.name, task.cache_key, now=now)
        if cached is not None:
            # The savings are what *this* task would have spent on the
            # crowd — reward + fee, times its redundancy — mirroring the
            # model path's attribution, not the stored answer's own cost.
            avoided = self.platform.pricing.assignment_cost(task.price) * task.assignments
            self.cache.credit_savings(avoided)
            self.stats.cache_answers += 1
            self._submitted_at.pop(task.task_id, None)
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
                answer, confidence = prediction
                avoided = self.platform.pricing.assignment_cost(task.price) * task.assignments
                if isinstance(model, LearnedTaskModel):
                    model.record_savings(avoided)
                self.stats.model_answers += 1
                # Cache the escalated answer (at zero cost) so identical
                # follow-up tasks hit the cache instead of re-running
                # predict, and the answer survives restarts via the tier.
                self.cache.store(
                    task.spec.name,
                    task.cache_key,
                    answer,
                    cost=0.0,
                    now=now,
                    confidence=confidence,
                )
                self._submitted_at.pop(task.task_id, None)
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

        self._push_pending(task)

    # -- pending-queue bookkeeping ------------------------------------------------------

    def _push_pending(self, task: Task) -> None:
        """Queue a task for the next HIT batch, keeping every index current."""
        key: GroupKey = (task.spec.name, task.kind.value)
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
            self._group_order[key] = next(self._group_seq)
        queue.append(task)
        self._dirty.add(key)
        self._pending_total += 1
        self._pending_by_query[task.query_id] += 1
        self._pending_groups_by_query.setdefault(task.query_id, set()).add(key)

    def _pop_pending(self, key: GroupKey) -> Task:
        task = self._pending[key].popleft()
        self._pending_total -= 1
        self._pending_by_query[task.query_id] -= 1
        return task

    def _drop_group(self, key: GroupKey) -> None:
        """Forget an emptied pending group (its order stamp included)."""
        del self._pending[key]
        del self._group_order[key]
        self._dirty.discard(key)

    # -- flushing pending tasks into HITs ----------------------------------------------

    def flush(self, *, force: bool = False, raise_on_budget: bool = True) -> int:
        """Turn pending tasks into HITs.  Returns the number of HITs posted.

        ``force`` flushes partially filled batches; the engine scheduler
        forces a flush once no query can make local progress.

        ``raise_on_budget`` controls how a failed budget authorisation
        surfaces: when True (a caller flushing for a single query) a batch whose
        tasks all belong to one query raises :class:`BudgetExceededError`;
        when False every failure is recorded per-query and retrievable via
        :meth:`take_budget_errors`, so one exhausted query never aborts a
        flush serving its neighbours.  Batches mixing several queries never
        raise — the unaffordable query's tasks are dropped and the HIT is
        posted for the remaining queries.
        """
        posted = 0
        if force:
            # A forced flush drains every group, so iterating them all is
            # O(work posted), not wasted scanning.
            keys = list(self._pending)
        elif self._dirty:
            # Only groups that gained tasks since their last visit can have
            # become flushable; order by creation stamp so the subset posts
            # in exactly the order a full `_pending` iteration would.
            keys = sorted(self._dirty, key=self._group_order.__getitem__)
        else:
            return 0
        for key in keys:
            self._dirty.discard(key)
            queue = self._pending.get(key)
            if not queue:
                continue
            spec = queue[0].spec
            kind = queue[0].kind
            policy = self.policy_for(spec, kind)
            while queue and policy.should_flush(len(queue), force=force):
                if self.breaker is not None and not self.breaker.allow_posting():
                    # The marketplace breaker is open (or out of half-open
                    # probes): stop posting, leave everything queued, and
                    # re-mark the group dirty so the next flush retries it.
                    self.breaker.record_blocked()
                    self._dirty.add(key)
                    return posted
                size = min(policy.batch_size(len(queue)), len(queue))
                batch = [self._pop_pending(key) for _ in range(size)]
                posted += self._post_batch(batch, raise_on_budget=raise_on_budget)
            if not queue:
                self._drop_group(key)
        return posted

    def _post_batch(self, batch: list[Task], *, raise_on_budget: bool = True) -> int:
        if not batch:
            raise TaskError("cannot post an empty batch")
        if batch[0].kind is TaskKind.JOIN_BLOCK:
            posted = 0
            for task in batch:
                posted += self._post_tasks(
                    [task], raise_on_budget=raise_on_budget, needs=self._batch_needs([task])
                )
            return posted
        needs = self._batch_needs(batch)
        if needs is None:
            # Single-shot posting (the default): the whole batch shares one
            # HIT whose redundancy is the batch maximum, exactly as before
            # quality control existed.
            return self._post_tasks(batch, raise_on_budget=raise_on_budget, needs=None)
        # Wave mode (or a fault re-post of partially answered tasks): tasks
        # requesting different assignment counts must not share a HIT — every
        # assignment answers the whole HIT, so a mixed batch would overshoot
        # the smaller requests.  Group by requested count instead.
        posted = 0
        groups: dict[int, list[Task]] = {}
        for task in batch:
            groups.setdefault(needs[task.task_id], []).append(task)
        for _need, group in sorted(groups.items()):
            posted += self._post_tasks(
                group,
                raise_on_budget=raise_on_budget,
                needs={task.task_id: needs[task.task_id] for task in group},
            )
        return posted

    def _batch_needs(self, batch: list[Task]) -> dict[str, int] | None:
        """Per-task assignment requests for a batch, or None for single-shot.

        None means every task wants its full redundancy in one HIT — the
        legacy path, where cost attribution also runs on full redundancy.
        Computed once per batch and passed down to :meth:`_post_tasks`, so
        the grouping decision and the posted HIT can never disagree.
        """
        needs = {task.task_id: self._needed_assignments(task) for task in batch}
        if all(needs[task.task_id] == task.assignments for task in batch):
            return None
        return needs

    # -- adaptive redundancy (waves) --------------------------------------------------

    def _needed_assignments(self, task: Task) -> int:
        """How many assignments the next HIT should request for ``task``.

        Missing answers only (a re-posted task does not re-buy the answers it
        already holds); capped at one wave when adaptive redundancy is on.
        With no accumulated progress and no quality control this is exactly
        the task's full redundancy — the legacy behaviour.
        """
        progress = self._progress.get(task.task_id)
        received = progress.received if progress is not None else 0
        remaining = max(task.assignments - received, 1)
        if task.query_id in self._pressured:
            # Under deadline/budget pressure redundancy is shed entirely:
            # one assignment per wave, and any received answer finalizes
            # (see :meth:`_should_finalize`) instead of buying more votes.
            self.stats.pressure_waves += 1
            return 1
        if self.quality is not None and self.quality.adaptive_redundancy:
            return min(self.quality.wave_size, remaining)
        return remaining

    def _cost_shares(
        self, tasks: list[Task], needs: dict[str, int] | None = None
    ) -> tuple[float, float, float, dict[str, float]]:
        """Reward, assignments, total cost and each query's share for a batch.

        Every assignment answers the whole HIT, so the reward and redundancy
        of the posted HIT are the maxima over the batch; the committed cost is
        split across queries in proportion to each task's *own* intrinsic
        cost (price x redundancy), not the batch maxima — a query batching
        cheap low-redundancy tasks next to an expensive neighbour must not be
        billed at the neighbour's rate.  ``needs`` substitutes the wave /
        re-post assignment counts for the tasks' full redundancy.
        """
        reward = max(task.price for task in tasks)
        assignments = max(self._task_need(task, needs) for task in tasks)
        cost = self.platform.pricing.assignment_cost(reward) * assignments
        weights: Counter = Counter()
        for task in tasks:
            weights[task.query_id] += task.price * self._task_need(task, needs)
        total_weight = sum(weights.values())
        shares = {qid: cost * weight / total_weight for qid, weight in weights.items()}
        return reward, assignments, cost, shares

    @staticmethod
    def _task_need(task: Task, needs: dict[str, int] | None) -> int:
        if needs is None:
            return task.assignments
        return needs.get(task.task_id, task.assignments)

    def _pick_gold(self, tasks: list[Task]) -> tuple[GoldQuestion, ...]:
        """Choose the gold probes riding on the next HIT (usually none)."""
        if (
            self._quality_rng is None
            or self.gold is None
            or self.quality is None
            or self.quality.gold_frequency <= 0.0
            or tasks[0].kind is TaskKind.JOIN_BLOCK
        ):
            return ()
        if self._quality_rng.random() >= self.quality.gold_frequency:
            return ()
        question = self.gold.pick(tasks[0].spec.name, self._quality_rng)
        if question is None:
            return ()
        self.stats.gold_probes_posted += 1
        return (question,)

    def _post_tasks(
        self, tasks: list[Task], *, raise_on_budget: bool, needs: dict[str, int] | None
    ) -> int:
        """Authorise, compile and post one batch.  Returns HITs posted (0/1).

        ``needs`` comes from :meth:`_batch_needs` (None = legacy single-shot
        HIT with attribution by full redundancy).
        """
        if self.breaker is not None and not self.breaker.allow_posting():
            # A multi-HIT batch (join blocks, mixed wave sizes) can exhaust
            # the half-open probe budget mid-batch; the remainder goes back
            # on the pending queue rather than slipping past the breaker.
            self.breaker.record_blocked()
            for task in tasks:
                self._push_pending(task)
            return 0
        single_query_batch = len({task.query_id for task in tasks}) == 1
        # Dropping an unaffordable query shifts its slice of the (fixed) HIT
        # cost onto the survivors, so re-check affordability to a fixed point
        # before authorising anything — authorize below must never raise.
        while True:
            reward, assignments, cost, shares = self._cost_shares(tasks, needs)
            unaffordable: set[str] = set()
            for query_id in shares:
                if not self.budget.would_exceed(query_id, shares[query_id]):
                    continue
                budget = self.budget.budget(query_id)
                error = BudgetExceededError(
                    f"query {query_id}: posting a {tasks[0].spec.name} HIT share of "
                    f"${shares[query_id]:.2f} would exceed the ${budget.limit or 0.0:.2f} "
                    f"budget (already committed ${budget.committed:.2f})",
                    spent=budget.committed,
                    budget=budget.limit or 0.0,
                    query_id=query_id,
                )
                if raise_on_budget and single_query_batch:
                    # The batch was already popped from the pending queue and
                    # never comes back — reap its bookkeeping like the drop
                    # path below does, or the stamps leak forever.
                    for task in tasks:
                        self._progress.pop(task.task_id, None)
                        self._submitted_at.pop(task.task_id, None)
                    raise error
                unaffordable.add(query_id)
                self._budget_errors[query_id] = error
                self._notify_error_recorded()
            if not unaffordable:
                break
            dropped = [task for task in tasks if task.query_id in unaffordable]
            self.stats.tasks_dropped_over_budget += len(dropped)
            for task in dropped:
                # A dropped task leaves the pipeline for good (its query is
                # headed for BUDGET_EXCEEDED); reap any accumulated wave
                # progress so a long-lived engine does not leak it.
                self._progress.pop(task.task_id, None)
                self._submitted_at.pop(task.task_id, None)
            tasks = [task for task in tasks if task.query_id not in unaffordable]
            if not tasks:
                return 0
        spec_name = tasks[0].spec.name
        for query_id in shares:
            self.budget.authorize(query_id, shares[query_id], description=f"HIT for {spec_name}")
        # A re-posted (wave / fault) batch bars the workers who already
        # answered any of its tasks — redundancy assumes independent
        # judgements, so one worker must not vote twice on one task.
        excluded: frozenset[str] = frozenset()
        if needs is not None:
            prior_workers: set[str] = set()
            for task in tasks:
                progress = self._progress.get(task.task_id)
                if progress is not None:
                    prior_workers.update(progress.workers)
            excluded = frozenset(prior_workers)
        gold = self._pick_gold(tasks)
        gold_position = None
        if gold and self._quality_rng is not None:
            # Mix the probe in at a seeded-random position — parked at the
            # end it would grade fatigue-prone workers at their worst and
            # bias reputations downward.
            gold_position = self._quality_rng.randrange(len(tasks) + 1)
        compiled = self.compiler.compile(tasks, gold=gold, gold_position=gold_position)
        hit = self.platform.create_hit(
            compiled.content,
            reward=reward,
            max_assignments=assignments,
            requester_annotation=spec_name,
            excluded_workers=excluded,
        )
        self.stats.hits_posted += 1
        if self.breaker is not None:
            self.breaker.record_post()
        if len(shares) > 1:
            self.stats.cross_query_hits += 1
        self.stats.hit_dollars_committed += cost
        self.statistics.record_hit_posted(spec_name, compiled.query_ids())
        self._inflight[hit.hit_id] = _InflightHIT(
            compiled=compiled,
            posted_at=self.platform.clock.now,
            cost_committed=cost,
            needs=needs,
            shares=dict(shares),
        )
        group: GroupKey = (spec_name, tasks[0].kind.value)
        self._inflight_by_group.setdefault(group, set()).add(hit.hit_id)
        for query_id in shares:
            self._inflight_by_query.setdefault(query_id, set()).add(hit.hit_id)
        if self._journal is not None:
            self._journal.record(
                "hit_posted",
                {
                    "hit_id": hit.hit_id,
                    "spec": spec_name,
                    "tasks": len(tasks),
                    "cost": cost,
                    "shares": dict(shares),
                },
            )
        return 1

    def _forget_inflight(self, hit_id: str, inflight: _InflightHIT) -> None:
        """Drop a settled HIT from the in-flight dict and both its indexes."""
        self._inflight.pop(hit_id, None)
        tasks = inflight.compiled.tasks
        if tasks:
            group: GroupKey = (tasks[0].spec.name, tasks[0].kind.value)
            hits = self._inflight_by_group.get(group)
            if hits is not None:
                hits.discard(hit_id)
                if not hits:
                    del self._inflight_by_group[group]
        for query_id in inflight.shares:
            hits = self._inflight_by_query.get(query_id)
            if hits is not None:
                hits.discard(hit_id)
                if not hits:
                    del self._inflight_by_query[query_id]

    # -- completion handling ---------------------------------------------------------

    def _on_assignment_submitted(self, hit: HIT, assignment: Assignment) -> None:
        inflight = self._inflight.get(hit.hit_id)
        if inflight is None or inflight.processed:
            return
        self.statistics.record_worker_assignment(assignment.worker_id)
        if hit.is_fully_submitted:
            inflight.processed = True
            self._process_completed_hit(hit, inflight)
            self._forget_inflight(hit.hit_id, inflight)

    def _process_completed_hit(self, hit: HIT, inflight: _InflightHIT) -> None:
        self._settle_hit(hit, inflight, expired=False)

    def _settle_hit(self, hit: HIT, inflight: _InflightHIT, *, expired: bool) -> None:
        """Fold one finished-or-expired HIT into task progress and act on it.

        The single orchestration shared by the completion and expiry paths:
        score gold probes, merge submissions (and actual spend) into each
        task's progress, then finalize / requeue per task.  The only policy
        difference is what a shortfall means: on an expired HIT (or a task
        every worker skipped) the re-post burns a fault attempt; on a
        completed HIT it is a planned wave continuation.
        """
        submissions = hit.submitted_assignments
        if self._journal is not None:
            self._journal.record(
                "hit_settled",
                {
                    "hit_id": hit.hit_id,
                    "expired": expired,
                    "submissions": len(submissions),
                },
            )
        if self.breaker is not None:
            # Breaker feedback: an expiry is a fault-driven failure, a fully
            # submitted HIT is proof the market is serving.
            if expired:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        if expired:
            self._refund_unfilled_slots(hit, inflight, submissions)
        self._score_gold(inflight.compiled, submissions)
        self._merge_answers(hit, inflight, submissions)
        now = self.platform.clock.now
        for task in inflight.compiled.tasks:
            progress = self._progress.get(task.task_id)
            if progress is None:
                continue
            if progress.received > 0 and self._should_finalize(progress):
                self._finalize(task, progress, hit.hit_id, inflight.posted_at, now)
            elif expired or progress.received == 0:
                # A fault: the HIT expired short, or every worker skipped
                # this item.  Re-post (burning an attempt) instead of
                # silently stranding the query — unless the attempt cap is
                # spent and salvaged answers exist, in which case the
                # paid-for answers become a degraded (below-target) result
                # rather than being thrown away with the query stalled.
                if progress.attempts >= self.max_attempts and progress.received > 0:
                    self.stats.tasks_degraded += 1
                    self._finalize(
                        task, progress, hit.hit_id, inflight.posted_at, now, degraded=True
                    )
                else:
                    self._requeue(task, count_attempt=True)
            else:
                # Confidence not yet reached: buy another redundancy wave.
                self.stats.wave_continuations += 1
                self._requeue(task, count_attempt=False)

    def _merge_answers(
        self, hit: HIT, inflight: _InflightHIT, submissions: list[Assignment]
    ) -> None:
        """Fold one HIT's submissions and actual spend into task progress.

        Spend is attributed the same way commitments were authorised: in
        proportion to each task's intrinsic cost (price x the assignments
        this HIT requested for it).
        """
        compiled = inflight.compiled
        per_task_answers: dict[str, list] = {task.task_id: [] for task in compiled.tasks}
        per_task_workers: dict[str, list[str]] = {task.task_id: [] for task in compiled.tasks}
        for assignment in submissions:
            extracted = compiled.extract_answers(assignment)
            for task_id, answer in extracted.items():
                per_task_answers[task_id].append(answer)
                per_task_workers[task_id].append(assignment.worker_id)

        actual_cost = self.platform.pricing.assignment_cost(hit.reward) * len(submissions)
        total_weight = (
            sum(task.price * self._task_need(task, inflight.needs) for task in compiled.tasks)
            or 1.0
        )
        for task in compiled.tasks:
            progress = self._progress.get(task.task_id)
            if progress is None:
                progress = _TaskProgress(task=task, target=task.assignments)
                self._progress[task.task_id] = progress
            progress.answers.extend(per_task_answers[task.task_id])
            progress.workers.extend(per_task_workers[task.task_id])
            progress.cost += (
                actual_cost * task.price * self._task_need(task, inflight.needs) / total_weight
            )

    def _should_finalize(self, progress: _TaskProgress) -> bool:
        """Whether a task's accumulated answers are enough to deliver."""
        if progress.received >= progress.target:
            return True
        if progress.task.query_id in self._pressured:
            # Pressure mode: the first answer is good enough — finishing
            # before the deadline beats finishing with full redundancy.
            return progress.received > 0
        if self.quality is None or not self.quality.adaptive_redundancy:
            return False
        if progress.received < min(self.quality.wave_size, progress.target):
            return False
        answers = AnswerList.of(progress.answers, progress.workers)
        weights = self._vote_weights(answers) or {}
        return weighted_confidence(answers, weights) >= self.quality.confidence_threshold

    def _finalize(
        self,
        task: Task,
        progress: _TaskProgress,
        hit_id: str,
        posted_at: float,
        now: float,
        *,
        degraded: bool = False,
    ) -> None:
        """Reduce a task's accumulated answers and deliver its result."""
        answers = AnswerList.of(progress.answers, progress.workers)
        reduced = self._reduce(task, answers)
        self._record_votes(answers, reduced)
        if progress.received < progress.target and not degraded:
            self.stats.early_stopped_tasks += 1
        latency = now - self._submitted_at.pop(task.task_id, posted_at)
        result = TaskResult(
            task=task,
            answers=answers,
            reduced=reduced,
            source=ResultSource.CROWD,
            cost=progress.cost,
            latency=latency,
            hit_id=hit_id,
        )
        self.cache.store(
            task.spec.name,
            task.cache_key,
            reduced,
            cost=progress.cost,
            now=now,
            confidence=self._answer_confidence(progress),
        )
        model = self.models.model_for(task.spec.name)
        if model is not None and task.kind in (TaskKind.FILTER, TaskKind.JOIN_PAIR):
            model.observe(task, reduced)
        del self._progress[task.task_id]
        self._deliver(result)

    def _requeue(self, task: Task, *, count_attempt: bool) -> None:
        """Put a task back on the pending queue for another HIT.

        ``count_attempt`` marks fault re-posts (expired / unanswered HITs);
        once a task burns through :attr:`max_attempts` of those it is
        abandoned and the owning query surfaces ``STALLED`` via
        :meth:`take_exhausted_errors` instead of hanging forever.
        """
        if task.query_id in self._cancelled_queries:
            # The owning query is already over (completed, stalled or out of
            # budget); posting fresh HITs for it would spend money nobody is
            # waiting on — and deliver into closed operators.
            self._progress.pop(task.task_id, None)
            self._submitted_at.pop(task.task_id, None)
            return
        progress = self._progress.get(task.task_id)
        if progress is None:
            progress = _TaskProgress(task=task, target=task.assignments)
            self._progress[task.task_id] = progress
        if count_attempt:
            progress.attempts += 1
            # Pressure mode lowers the fault re-post cap to a single attempt:
            # hammering a degraded market cannot beat the deadline anyway.
            cap = 1 if task.query_id in self._pressured else self.max_attempts
            if progress.attempts > cap:
                self.stats.tasks_exhausted += 1
                del self._progress[task.task_id]
                self._submitted_at.pop(task.task_id, None)
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
        self._push_pending(task)

    # -- quality control --------------------------------------------------------------

    def _score_gold(self, compiled: CompiledHIT, submissions: list[Assignment]) -> None:
        """Grade each worker's gold-probe answers against the known truth."""
        if self.reputation is None or not compiled.gold_items:
            return
        for assignment in submissions:
            for item_id, question in compiled.gold_items.items():
                if item_id not in assignment.answers:
                    continue
                correct = question.matches(assignment.answers[item_id])
                self.reputation.record_gold(assignment.worker_id, correct)
                self.stats.gold_answers_scored += 1

    def _vote_weights(self, answers: AnswerList) -> dict[str, float] | None:
        """Reputation vote weights for an answer list (None -> plain voting)."""
        if (
            self.reputation is None
            or self.quality is None
            or not self.quality.weighted_voting
            or not answers.worker_ids
            or self.reputation.is_uniform(answers.worker_ids)
        ):
            return None
        return self.reputation.vote_weights(answers.worker_ids)

    def _answer_confidence(self, progress: _TaskProgress) -> float:
        """Aggregate trust in a finalized answer, for cache admission.

        The mean posterior accuracy (Beta posterior mean, prior included) of
        the workers whose answers were reduced — the ``crowd/quality``
        reputations the admission policy gates on.  Without a reputation
        tracker every answer is fully trusted (legacy behaviour).
        """
        if self.reputation is None or not progress.workers:
            return 1.0
        total = sum(self.reputation.accuracy(worker) for worker in progress.workers)
        return total / len(progress.workers)

    def _reduce(self, task: Task, answers: AnswerList):
        weights = self._vote_weights(answers)
        if task.kind is TaskKind.JOIN_BLOCK:
            return self._majority_pairs(answers, weights)
        if weights is not None:
            weighted = weighted_counterpart(task.spec.combiner, weights)
            if weighted is not None:
                return weighted(answers)
        combiner = get_aggregate(task.spec.combiner)
        return combiner(answers)

    @staticmethod
    def _majority_pairs(
        answers: AnswerList, weights: dict[str, float] | None = None
    ) -> list[tuple[int, int]]:
        """Keep the (left, right) pairs reported by a (weighted) majority."""
        if weights is not None and answers.worker_ids:
            per_answer = [weights.get(worker_id, 1.0) for worker_id in answers.worker_ids]
        else:
            per_answer = [1.0] * len(answers)
        counts: Counter = Counter()
        for answer, weight in zip(answers.answers, per_answer):
            for pair in answer:
                counts[tuple(pair)] += weight
        threshold = sum(per_answer) / 2.0
        return sorted(pair for pair, votes in counts.items() if votes > threshold)

    def _record_votes(self, answers: AnswerList, reduced) -> None:
        if not answers.worker_ids:
            return
        agreement_weight = (
            self.quality.agreement_weight
            if self.quality is not None
            else DEFAULT_AGREEMENT_WEIGHT
        )
        for answer, worker_id in zip(answers.answers, answers.worker_ids):
            self.statistics.record_vote(worker_id, answer == reduced)
            if self.reputation is None:
                continue
            agreed = agreement_signal(answer, reduced)
            if agreed is not None:
                self.reputation.record_agreement(worker_id, agreed, weight=agreement_weight)

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
            self._journal.record(
                "answer_delivered",
                {
                    "task_id": result.task.task_id,
                    "query_id": result.task.query_id,
                    "source": result.source.value,
                },
            )
        result.task.callback(result)
        for listener in self._delivery_listeners:
            listener(result)

    # -- fault tolerance --------------------------------------------------------------

    def _on_hit_expired(self, hit: HIT) -> None:
        """An in-flight HIT hit its deadline: salvage answers, requeue the rest.

        Whatever the expired HIT did collect is merged into each task's
        progress (and paid for — those assignments were approved), gold
        answers still score reputations, and every task that cannot finalize
        from the salvaged answers is re-posted, burning one attempt.  Without
        this hook an expired HIT stranded its tasks and the owning query
        waited forever.
        """
        inflight = self._inflight.get(hit.hit_id)
        if inflight is None or inflight.processed:
            return
        inflight.processed = True
        self._forget_inflight(hit.hit_id, inflight)
        self._settle_hit(hit, inflight, expired=True)

    def _refund_unfilled_slots(
        self, hit: HIT, inflight: _InflightHIT, submissions: list[Assignment]
    ) -> None:
        """Release the committed budget an expired HIT will never collect.

        The platform only pays for submitted assignments; the committed cost
        covered every requested slot.  Returning the difference (split across
        queries in proportion to their original shares) keeps fault re-posts
        from double-billing — without it, an expiry storm could push a
        well-budgeted query into BUDGET_EXCEEDED while spending nothing.
        """
        if inflight.cost_committed <= 0:
            return
        actual = self.platform.pricing.assignment_cost(hit.reward) * len(submissions)
        unspent = inflight.cost_committed - actual
        if unspent <= 0:
            return
        refund_fraction = unspent / inflight.cost_committed
        for query_id, share in inflight.shares.items():
            self.budget.release(query_id, share * refund_fraction)
        self.stats.hit_dollars_refunded += unspent

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

    def set_pressure(self, query_id: str, pressured: bool = True) -> None:
        """Mark (or clear) a query as under deadline/budget pressure.

        Called by the engine scheduler for queries that opted into
        ``shed_under_pressure``: while marked, the query's waves shrink to a
        single assignment, any received answer finalizes, and fault re-posts
        stop after one attempt — trading redundancy for latency instead of
        stalling at the deadline.
        """
        if pressured:
            self._pressured.add(query_id)
        else:
            self._pressured.discard(query_id)

    def pending_tasks(self, query_id: str | None = None) -> int:
        """Tasks queued but not yet posted in a HIT (optionally one query's).

        O(1) either way: both counts are maintained incrementally as tasks
        enter and leave the pending queues.
        """
        if query_id is None:
            return self._pending_total
        return self._pending_by_query.get(query_id, 0)

    def inflight_hits(self, query_id: str | None = None) -> int:
        """HITs posted and awaiting full submission (optionally one query's)."""
        if query_id is None:
            return len(self._inflight)
        return len(self._inflight_by_query.get(query_id, ()))

    def inflight_hits_for_group(self, spec_name: str, kind: TaskKind) -> list[str]:
        """Ids of in-flight HITs carrying one (spec, kind) group's tasks."""
        return sorted(self._inflight_by_group.get((spec_name, kind.value), ()))

    def has_outstanding_work(self) -> bool:
        """Whether any task is still queued or any HIT is still in flight."""
        return self._pending_total > 0 or bool(self._inflight)

    def take_budget_errors(self) -> dict[str, BudgetExceededError]:
        """Drain budget failures recorded since the last call, keyed by query.

        The engine scheduler polls this after every flush so an exhausted
        query can be transitioned to ``BUDGET_EXCEEDED`` (and its remaining
        pending tasks cancelled) without interrupting concurrent queries that
        may share HITs with it.
        """
        errors, self._budget_errors = self._budget_errors, {}
        return errors

    def cancel_query(self, query_id: str) -> int:
        """Drop a finished/failed query's still-pending tasks.

        Returns the number of tasks removed.  HITs already in flight are left
        alone — their cost is committed and their answers still feed the Task
        Cache and statistics, plus any co-batched queries.  The query is also
        remembered as cancelled, so a later fault (an in-flight HIT expiring)
        can never requeue — and re-bill — work on its behalf.
        """
        self._cancelled_queries.add(query_id)
        self._pressured.discard(query_id)
        removed = 0
        if self._pending_by_query.get(query_id, 0):
            # Only the groups this query actually queued into are touched
            # (the per-query group index), not every pending queue.
            for key in self._pending_groups_by_query.get(query_id, ()):
                queue = self._pending.get(key)
                if queue is None:
                    continue
                kept = deque(task for task in queue if task.query_id != query_id)
                for task in queue:
                    if task.query_id == query_id:
                        self._progress.pop(task.task_id, None)
                        self._submitted_at.pop(task.task_id, None)
                dropped = len(queue) - len(kept)
                removed += dropped
                self._pending_total -= dropped
                if kept:
                    self._pending[key] = kept
                else:
                    self._drop_group(key)
            self._pending_by_query[query_id] = 0
        self._pending_groups_by_query.pop(query_id, None)
        return removed

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Cumulative counters + the cancellation set + the quality stream.

        Pending queues, in-flight HITs and wave progress are *not*
        captured: snapshots are only taken at quiescence (nothing queued,
        nothing in flight — enforced by the engine's checkpoint), so the
        only live state is what accumulates across queries.
        """
        from dataclasses import asdict

        from repro.storage.snapshot import pack_rng_state

        if self.has_outstanding_work():
            raise TaskError("cannot snapshot the Task Manager with work outstanding")
        return {
            "stats": asdict(self.stats),
            "cancelled_queries": sorted(self._cancelled_queries),
            "quality_rng": (
                pack_rng_state(self._quality_rng.getstate())
                if self._quality_rng is not None
                else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.storage.snapshot import unpack_rng_state

        self.stats = TaskManagerStats(**state["stats"])
        self._cancelled_queries = set(state["cancelled_queries"])
        if state["quality_rng"] is not None:
            if self._quality_rng is None:
                raise TaskError(
                    "snapshot has a quality stream but this engine has quality disabled"
                )
            self._quality_rng.setstate(unpack_rng_state(state["quality_rng"]))
