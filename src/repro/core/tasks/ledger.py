"""The HIT ledger: the Task Manager's one door to the marketplace and the budget.

It posts HITs, prices them (each query's share of a shared HIT), settles them
when their last assignment is submitted or they expire, and refunds what an
expired HIT never collected.  It alone talks to the
:class:`~repro.crowd.mturk.MTurkSimulator`, the
:class:`~repro.core.optimizer.budget.BudgetLedger` and the marketplace circuit
breaker.  It keeps each crowd task's :class:`TaskProgress` record from its
first queueing to its exit, and the ended queries that still have a task in
a HIT in flight.  What a settled task's answers amount to is the answer
reducer's call, made by the Task Manager through ``on_settled``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.core.tasks.hit_compiler import CompiledHIT
from repro.core.tasks.reducer import TaskProgress
from repro.core.tasks.task import Task, TaskKind
from repro.crowd.hit import HIT, Assignment
from repro.crowd.pricing import DEFAULT_PRICING
from repro.crowd.quality import WAVE_SIZE
from repro.errors import BudgetExceededError, TaskError

__all__ = ["HITLedger"]

#: The worker exclusion of every first posting, shared instead of rebuilt.
_NO_EXCLUSIONS: frozenset[str] = frozenset()


@dataclass
class _InflightHIT:
    """Bookkeeping for a HIT that has been posted but not fully submitted."""

    compiled: CompiledHIT
    cost_committed: float
    #: Assignments actually requested per task in this HIT (None -> each
    #: task's full redundancy, the legacy single-shot behaviour).
    needs: dict[str, int] | None = None
    #: Per-query budget shares authorised for this HIT (for refunds when the
    #: HIT expires with unfilled — and therefore unpaid — assignment slots).
    shares: dict[str, float] = field(default_factory=dict)


class HITLedger:
    """Posts, prices, settles, expires and refunds HITs."""

    def __init__(
        self,
        platform,
        statistics,
        budget,
        stats,
        queue,
        *,
        compiler,
        quality,
        gold,
        breaker,
        on_settled,
        on_error,
    ) -> None:
        self.platform = platform
        self.statistics = statistics
        self.budget = budget
        self.stats = stats
        self.queue = queue
        self.compiler = compiler
        self.quality = quality
        self.gold = gold
        self.breaker = breaker
        self.quality_rng = random.Random(quality.seed) if quality is not None else None
        # ``on_settled(hit_id, compiled, submissions, expired)`` decides each
        # settled task; ``on_error()`` announces a recorded budget error.
        self._on_settled = on_settled
        self._on_error = on_error
        #: The one record of each task between its first queueing and its exit.
        self.progress: dict[str, TaskProgress] = {}
        #: Ended queries that still have a task in a HIT in flight; an id
        #: leaves once the last such HIT settles.
        self.cancelled: set[str] = set()
        self.budget_errors: dict[str, BudgetExceededError] = {}
        self._inflight: dict[str, _InflightHIT] = {}
        #: Tasks of each query in a HIT in flight; an id leaves at zero.
        self._inflight_tasks: dict[str, int] = {}
        self.journal = None
        platform.on_assignment_submitted(self._on_assignment_submitted)
        platform.on_hit_expired(self._on_hit_expired)

    # -- posting ------------------------------------------------------------------

    def may_post(self) -> bool:
        """Whether the breaker lets a HIT post now (a refusal is counted)."""
        if self.breaker is None or self.breaker.allow_posting():
            return True
        self.breaker.record_blocked()
        return False

    def post(self, batch: list[Task], pressured: set[str]) -> int:
        """Post one batch of tasks; returns the number of HITs posted.

        Every task wants its full redundancy in one HIT unless waves,
        pressure (``pressured`` holds the queries under it) or a fault
        re-post of partially answered tasks say otherwise.  Tasks requesting
        different assignment counts must not share a HIT — every assignment
        answers the whole HIT, so a mixed batch would overshoot the smaller
        requests — so such a batch posts one HIT per requested count.
        """
        if not batch:
            raise TaskError("cannot post an empty batch")
        needs = {task.task_id: self._needed_assignments(task, pressured) for task in batch}
        if all(needs[task.task_id] == task.assignments for task in batch):
            return self._post_tasks(batch, needs=None)
        groups: dict[int, list[Task]] = {}
        for task in batch:
            groups.setdefault(needs[task.task_id], []).append(task)
        return sum(
            self._post_tasks(group, needs={task.task_id: needs[task.task_id] for task in group})
            for _need, group in sorted(groups.items())
        )

    def _needed_assignments(self, task: Task, pressured: set[str]) -> int:
        """How many assignments the next HIT should request for ``task``.

        Missing answers only (a re-posted task does not re-buy the answers it
        already holds); capped at one wave when adaptive redundancy is on,
        and at one assignment while the task's query is under pressure.
        """
        remaining = max(task.assignments - self.progress[task.task_id].received, 1)
        if task.query_id in pressured:
            self.stats.pressure_waves += 1
            return 1
        if self.quality is not None and self.quality.adaptive_redundancy:
            return min(WAVE_SIZE, remaining)
        return remaining

    def _cost_shares(
        self, tasks: list[Task], needs: dict[str, int] | None
    ) -> tuple[float, int, float, dict[str, float]]:
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
        assignments = max(_task_need(task, needs) for task in tasks)
        cost = DEFAULT_PRICING.assignment_cost(reward) * assignments
        weights: Counter = Counter()
        for task in tasks:
            weights[task.query_id] += task.price * _task_need(task, needs)
        total_weight = sum(weights.values())
        shares = {qid: cost * weight / total_weight for qid, weight in weights.items()}
        return reward, assignments, cost, shares

    def _pick_gold(self, tasks: list[Task]) -> tuple:
        """Choose the gold probes riding on the next HIT (usually none)."""
        if (
            self.quality_rng is None
            or self.gold is None
            or self.quality.gold_frequency <= 0.0
            or tasks[0].kind is TaskKind.JOIN_BLOCK
        ):
            return ()
        if self.quality_rng.random() >= self.quality.gold_frequency:
            return ()
        question = self.gold.pick(tasks[0].spec.name, self.quality_rng)
        if question is None:
            return ()
        self.stats.gold_probes_posted += 1
        return (question,)

    def _post_tasks(self, tasks: list[Task], *, needs: dict[str, int] | None) -> int:
        """Authorise, compile and post one HIT.  Returns HITs posted (0/1).

        ``needs`` None is the single-shot HIT with attribution by full
        redundancy.
        """
        if not self.may_post():
            # A multi-HIT batch (join blocks, mixed wave sizes) can exhaust
            # the half-open probe budget mid-batch; the remainder goes back
            # on the pending queue rather than slipping past the breaker.
            for task in tasks:
                self.queue.push(task)
            return 0
        # Dropping an unaffordable query shifts its slice of the (fixed) HIT
        # cost onto the survivors, so re-check affordability to a fixed point
        # before authorising anything — authorize below must never raise.
        while True:
            reward, assignments, cost, shares = self._cost_shares(tasks, needs)
            unaffordable = [qid for qid in shares if self.budget.would_exceed(qid, shares[qid])]
            if not unaffordable:
                break
            for query_id in unaffordable:
                budget = self.budget.budget(query_id)
                self.budget_errors[query_id] = BudgetExceededError(
                    f"query {query_id}: posting a {tasks[0].spec.name} HIT share of "
                    f"${shares[query_id]:.2f} would exceed the ${budget.limit or 0.0:.2f} "
                    f"budget (already committed ${budget.committed:.2f})",
                    spent=budget.committed,
                    budget=budget.limit or 0.0,
                    query_id=query_id,
                )
                self._on_error()
            dropped = [task for task in tasks if task.query_id in unaffordable]
            self.stats.tasks_dropped_over_budget += len(dropped)
            for task in dropped:
                # A dropped task leaves the pipeline for good (its query is
                # headed for BUDGET_EXCEEDED), and its record goes with it.
                del self.progress[task.task_id]
            tasks = [task for task in tasks if task.query_id not in unaffordable]
            if not tasks:
                return 0
        spec_name = tasks[0].spec.name
        for query_id in shares:
            self.budget.authorize(query_id, shares[query_id], description=f"HIT for {spec_name}")
        # A re-posted (wave / fault) batch bars the workers who already
        # answered any of its tasks — redundancy assumes independent
        # judgements, so one worker must not vote twice on one task.
        excluded = _NO_EXCLUSIONS
        if needs is not None:
            excluded = frozenset(
                worker for task in tasks for worker in self.progress[task.task_id].workers
            )
        gold = self._pick_gold(tasks)
        # Mix a probe in at a seeded-random position — parked at the end it
        # would grade fatigue-prone workers at their worst and bias
        # reputations downward.
        gold_position = self.quality_rng.randrange(len(tasks) + 1) if gold else None
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
            compiled=compiled, cost_committed=cost, needs=needs, shares=dict(shares)
        )
        self._count_inflight(compiled.tasks, 1)
        if self.journal is not None:
            self.journal.crash_point("hit_posted")
        return 1

    # -- settling -----------------------------------------------------------------

    def _on_assignment_submitted(self, hit: HIT, assignment: Assignment) -> None:
        if hit.hit_id in self._inflight and hit.is_fully_submitted:
            self._settle(hit, self._inflight.pop(hit.hit_id), expired=False)

    def _on_hit_expired(self, hit: HIT) -> None:
        """An in-flight HIT hit its deadline: settle what it did collect.

        Those assignments were approved and are paid for; the slots nobody
        filled are refunded, and every task that cannot finalize from the
        salvaged answers is re-posted, burning one attempt.
        """
        inflight = self._inflight.pop(hit.hit_id, None)
        if inflight is not None:
            self._settle(hit, inflight, expired=True)

    def _settle(self, hit: HIT, inflight: _InflightHIT, *, expired: bool) -> None:
        """Fold one finished-or-expired HIT into task progress and hand it on.

        The one path shared by completion and expiry: breaker feedback, the
        refund of an expired HIT's unfilled slots, each task's answers and
        actual spend, then ``on_settled`` decides every task.
        """
        submissions = hit.submitted_assignments
        self._count_inflight(inflight.compiled.tasks, -1)
        if self.journal is not None:
            self.journal.crash_point("hit_settled")
        if self.breaker is not None:
            # An expiry is a fault-driven failure, a fully submitted HIT is
            # proof the market is serving.
            if expired:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        actual_cost = DEFAULT_PRICING.assignment_cost(hit.reward) * len(submissions)
        if expired:
            self._refund_unfilled_slots(inflight, actual_cost)
        self._merge_answers(inflight, submissions, actual_cost)
        self._on_settled(hit.hit_id, inflight.compiled, submissions, expired)
        for query_id in self.cancelled.intersection(inflight.compiled.query_ids()):
            if not self.has_inflight_tasks(query_id):
                self.cancelled.discard(query_id)

    def _merge_answers(
        self, inflight: _InflightHIT, submissions: list[Assignment], actual_cost: float
    ) -> None:
        """Fold one HIT's submissions and actual spend into task progress.

        Spend is attributed the same way commitments were authorised: in
        proportion to each task's intrinsic cost (price x the assignments
        this HIT requested for it).
        """
        compiled = inflight.compiled
        for assignment in submissions:
            for task_id, answer in compiled.extract_answers(assignment).items():
                progress = self.progress[task_id]
                progress.answers.append(answer)
                progress.workers.append(assignment.worker_id)
        total_weight = (
            sum(task.price * _task_need(task, inflight.needs) for task in compiled.tasks) or 1.0
        )
        for task in compiled.tasks:
            self.progress[task.task_id].cost += (
                actual_cost * task.price * _task_need(task, inflight.needs) / total_weight
            )

    def _refund_unfilled_slots(self, inflight: _InflightHIT, actual_cost: float) -> None:
        """Release the committed budget an expired HIT will never collect.

        The platform only pays for submitted assignments; the committed cost
        covered every requested slot.  Returning the difference (split across
        queries in proportion to their original shares) keeps fault re-posts
        from double-billing — without it, an expiry storm could push a
        well-budgeted query into BUDGET_EXCEEDED while spending nothing.
        """
        if inflight.cost_committed <= 0:
            return
        unspent = inflight.cost_committed - actual_cost
        if unspent <= 0:
            return
        refund_fraction = unspent / inflight.cost_committed
        for query_id, share in inflight.shares.items():
            self.budget.release(query_id, share * refund_fraction)
        self.stats.hit_dollars_refunded += unspent

    # -- introspection --------------------------------------------------------------

    def inflight_hits(self) -> int:
        """HITs posted and awaiting full submission."""
        return len(self._inflight)

    def has_inflight_tasks(self, query_id: str) -> bool:
        """Whether a task of ``query_id`` sits in a HIT in flight (O(1))."""
        return query_id in self._inflight_tasks

    def _count_inflight(self, tasks: tuple[Task, ...], delta: int) -> None:
        """Move each task's query count by ``delta`` as its HIT posts or settles."""
        counts = self._inflight_tasks
        for task in tasks:
            count = counts.get(task.query_id, 0) + delta
            if count:
                counts[task.query_id] = count
            else:
                del counts[task.query_id]


def _task_need(task: Task, needs: dict[str, int] | None) -> int:
    if needs is None:
        return task.assignments
    return needs.get(task.task_id, task.assignments)
