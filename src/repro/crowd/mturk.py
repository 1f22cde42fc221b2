"""Simulated Mechanical Turk requester service.

This is the substrate substitution documented in DESIGN.md: the real MTurk
web service is replaced by an in-process simulator that exposes the same
requester-facing operations Qurk's HIT Compiler and Task Manager need —
posting HITs, polling for submitted assignments, approving/rejecting work,
and accounting for rewards and platform fees.  Completion happens on the
shared :class:`~repro.crowd.clock.SimulationClock`, so latency behaviour
("each HIT may take several minutes", Section 1) is preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.crowd.clock import ScheduledEvent, SimulationClock
from repro.crowd.faults import FaultProfile
from repro.crowd.hit import (
    Assignment,
    AssignmentStatus,
    HIT,
    HITContent,
    HITStatus,
)
from repro.crowd.oracle import AnswerOracle
from repro.crowd.pricing import DEFAULT_PRICING
from repro.crowd.worker_pool import WorkerPool
from repro.crowd.workers import WorkerModel
from repro.errors import CrowdError, HITError

__all__ = ["MTurkSimulator", "PlatformStats"]


@dataclass
class PlatformStats:
    """Aggregate requester-side statistics for one simulator instance."""

    hits_created: int = 0
    assignments_submitted: int = 0
    assignments_approved: int = 0
    assignments_rejected: int = 0
    total_rewards_paid: float = 0.0
    total_fees_paid: float = 0.0
    per_worker_assignments: dict[str, int] = field(default_factory=dict)
    # Fault-injection outcomes (all zero when faults are disabled).
    hits_expired: int = 0
    assignments_abandoned: int = 0
    duplicate_submissions_ignored: int = 0
    #: Submissions that arrived after their HIT left the OPEN state, for any
    #: reason — a deadline miss (the late_rate fault), a deadline expiry of
    #: a slow HIT, or a forced expire_hit.  "Late" means late relative to
    #: the HIT's end, not specifically the late_rate fault path.
    late_submissions_dropped: int = 0

    @property
    def total_cost(self) -> float:
        """Total requester spend (rewards plus platform fees)."""
        return self.total_rewards_paid + self.total_fees_paid


class MTurkSimulator:
    """An in-process stand-in for the MTurk requester API.

    Parameters
    ----------
    clock:
        Shared simulation clock; assignment completion is scheduled on it.
    worker_pool:
        The simulated worker population answering HITs.
    oracle:
        Ground-truth oracle the workers consult (supplied by the workload).
        Fees follow :data:`~repro.crowd.pricing.DEFAULT_PRICING`.
    auto_approve:
        When True (the default, matching common requester practice for small
        HITs), submitted assignments are approved and paid immediately.
    faults:
        Optional :class:`~repro.crowd.faults.FaultProfile` enabling
        marketplace misbehaviour (abandonment, duplicates, late submissions,
        slow pickup, forced expiry).  With the default inert profile the
        simulator never draws from the fault stream, so existing runs stay
        byte-identical.
    """

    def __init__(
        self,
        clock: SimulationClock,
        worker_pool: WorkerPool,
        oracle: AnswerOracle,
        *,
        auto_approve: bool = True,
        faults: FaultProfile | None = None,
    ) -> None:
        self.clock = clock
        self.worker_pool = worker_pool
        self.oracle = oracle
        self.auto_approve = auto_approve
        self.faults = faults if faults is not None else FaultProfile()
        self.stats = PlatformStats()
        self._hits: dict[str, HIT] = {}
        # Status index: the control plane's hot paths (open_hits, expiry
        # processing, the drain check) only ever want HITs in one state, so
        # each state keeps its own id->HIT dict and completed/expired HITs
        # leave the OPEN (hot) dict the moment they settle.  ``_hits`` stays
        # the master archive for id lookups and unfiltered listings.
        self._hits_by_status: dict[HITStatus, dict[str, HIT]] = {
            status: {} for status in HITStatus
        }
        # Assignment id -> owning HIT id, so reviewing an assignment does not
        # scan every HIT ever posted.
        self._assignment_hits: dict[str, str] = {}
        #: Live count of assignments in the ACCEPTED state (scheduled, not
        #: yet submitted/abandoned) — the O(1) ``outstanding_assignments``.
        # Plain int (not itertools.count) so a snapshot can capture and
        # restore the id sequence exactly.
        self._hit_seq = 0
        self._completion_listeners: list[Callable[[HIT, Assignment], None]] = []
        self._expiry_listeners: list[Callable[[HIT], None]] = []
        self._fault_rng = random.Random(self.faults.seed) if self.faults.enabled else None
        self._expiry_events: dict[str, ScheduledEvent] = {}

    # -- listeners -------------------------------------------------------------

    def on_assignment_submitted(self, callback: Callable[[HIT, Assignment], None]) -> None:
        """Register a callback fired whenever any assignment is submitted."""
        self._completion_listeners.append(callback)

    def on_hit_expired(self, callback: Callable[[HIT], None]) -> None:
        """Register a callback fired whenever a HIT expires.

        Fires for forced expiry (:meth:`expire_hit`) and, when faults are
        enabled, for automatic deadline expiry.  The engine's Task Manager
        uses this to requeue the stranded tasks.
        """
        self._expiry_listeners.append(callback)

    # -- HIT lifecycle ----------------------------------------------------------

    def create_hit(
        self,
        content: HITContent,
        *,
        reward: float,
        max_assignments: int = 1,
        lifetime: float | None = None,
        requester_annotation: str = "",
        excluded_workers: frozenset[str] = frozenset(),
    ) -> HIT:
        """Post a HIT and schedule its simulated completion.

        Every assignment is assigned a worker, a pick-up delay and a work
        duration up front; the corresponding submission events are placed on
        the clock.  Callers observe results by polling
        :meth:`submitted_assignments` or via :meth:`on_assignment_submitted`.
        ``lifetime`` defaults to the fault profile's override, then 24 h.
        """
        DEFAULT_PRICING.validate_reward(reward)
        if lifetime is None:
            if self.faults.enabled and self.faults.hit_lifetime is not None:
                lifetime = self.faults.hit_lifetime
            else:
                lifetime = 24 * 3600.0
        self._hit_seq += 1
        hit = HIT(
            hit_id=f"HIT{self._hit_seq:06d}",
            content=content,
            reward=reward,
            max_assignments=max_assignments,
            created_at=self.clock.now,
            lifetime=lifetime,
            requester_annotation=requester_annotation,
            excluded_workers=excluded_workers,
        )
        self._hits[hit.hit_id] = hit
        self._hits_by_status[HITStatus.OPEN][hit.hit_id] = hit
        self.stats.hits_created += 1
        self._schedule_assignments(hit)
        if self.faults.enabled:
            # Under fault injection HITs actually hit their deadline: an
            # expiry event fires expiry listeners so stranded tasks can be
            # requeued.  Without faults, deadlines are only enforced lazily
            # (a late pick-up is skipped at scheduling time), preserving the
            # seed behaviour and its event counts exactly.
            self._expiry_events[hit.hit_id] = self.clock.schedule_at(
                hit.expires_at, partial(self._expire_if_incomplete, hit), label="expire"
            )
        return hit

    def _schedule_assignments(self, hit: HIT) -> None:
        workers = self.worker_pool.select_workers(hit, hit.max_assignments)
        for worker in workers:
            self._schedule_one(hit, worker)

    def _schedule_one(self, hit: HIT, worker: WorkerModel) -> None:
        """Schedule one worker's pick-up and submission of ``hit``."""
        pickup = self.worker_pool.pickup_delay(hit)
        if self._fault_rng is not None:
            pickup *= self.faults.pickup_slowdown
            if self.faults.congestion_per_open_hit > 0.0:
                # Congestion: every *other* open HIT competes for the same
                # worker pool and stretches this pick-up proportionally.
                backlog = max(0, self.open_hit_count() - 1)
                pickup *= 1.0 + self.faults.congestion_per_open_hit * backlog
        accepted_at = self.clock.now + pickup
        if accepted_at > hit.expires_at:
            # The HIT expires before this worker would have picked it up.
            return
        assignment = Assignment(
            assignment_id=self.worker_pool.next_assignment_id(),
            hit_id=hit.hit_id,
            worker_id=worker.worker_id,
            accepted_at=accepted_at,
        )
        hit.assignments.append(assignment)
        self._assignment_hits[assignment.assignment_id] = hit.hit_id
        rng = self.worker_pool.assignment_rng(assignment.assignment_id)
        duration = worker.work_duration(hit.content, rng)
        submit_at = accepted_at + duration
        if self._fault_rng is not None:
            if self._fault_rng.random() < self.faults.abandonment_rate:
                self.clock.schedule_at(
                    submit_at, partial(self._abandon, hit, assignment), label="abandon"
                )
                return
            if self._fault_rng.random() < self.faults.late_rate:
                # The submission slips past the deadline (kept if the HIT is
                # somehow still open — e.g. a generous lifetime).
                submit_at = max(submit_at, hit.expires_at + duration)
        self.clock.schedule_at(
            submit_at, partial(self._complete, hit, assignment, worker, rng), label="submit"
        )

    def _complete(
        self, hit: HIT, assignment: Assignment, worker: WorkerModel, rng: random.Random
    ) -> None:
        """Submission event: the worker answers ``hit`` and the listeners hear of it."""
        if assignment.status is not AssignmentStatus.ACCEPTED:
            # A duplicate client retry of an already-submitted form (a
            # duplicate stays a duplicate even once the HIT completed).
            self.stats.duplicate_submissions_ignored += 1
            return
        if hit.status is not HITStatus.OPEN:
            # The HIT expired (or was disposed) before this submission
            # arrived; the work is dropped unpaid, like real MTurk.
            self.stats.late_submissions_dropped += 1
            return
        answers = worker.answer(hit.content, self.oracle, rng)
        assignment.submit(answers, at=self.clock.now)
        self.stats.assignments_submitted += 1
        self.stats.per_worker_assignments[worker.worker_id] = (
            self.stats.per_worker_assignments.get(worker.worker_id, 0) + 1
        )
        if self.auto_approve:
            self._approve(hit, assignment)
        if hit.is_fully_submitted and hit.status is HITStatus.OPEN:
            self._set_status(hit, HITStatus.COMPLETED)
            self._cancel_expiry(hit)
        if self._fault_rng is not None and self._fault_rng.random() < self.faults.duplicate_rate:
            # The worker's client re-posts the same form moments later;
            # the guard above swallows it without paying twice.
            self.clock.schedule_in(
                1.0, partial(self._complete, hit, assignment, worker, rng), label="duplicate"
            )
        for listener in self._completion_listeners:
            listener(hit, assignment)

    def _abandon(self, hit: HIT, assignment: Assignment) -> None:
        """A worker returns an accepted assignment; recruit a replacement."""
        assignment.abandon()
        self.stats.assignments_abandoned += 1
        if hit.status is not HITStatus.OPEN or self.clock.now >= hit.expires_at:
            return
        replacement = self.worker_pool.select_replacement(hit)
        if replacement is not None:
            self._schedule_one(hit, replacement)

    def _expire_if_incomplete(self, hit: HIT) -> None:
        """Deadline event: expire the HIT if it is still waiting on workers."""
        self._expiry_events.pop(hit.hit_id, None)
        if hit.status is HITStatus.OPEN:
            self.expire_hit(hit.hit_id)

    def _cancel_expiry(self, hit: HIT) -> None:
        event = self._expiry_events.pop(hit.hit_id, None)
        if event is not None:
            event.cancel()

    def _set_status(self, hit: HIT, status: HITStatus) -> None:
        """Move a HIT between the per-status index dicts."""
        self._hits_by_status[hit.status].pop(hit.hit_id, None)
        hit.status = status
        self._hits_by_status[status][hit.hit_id] = hit

    def _approve(self, hit: HIT, assignment: Assignment) -> None:
        assignment.approve()
        self.stats.assignments_approved += 1
        self.stats.total_rewards_paid += hit.reward
        self.stats.total_fees_paid += DEFAULT_PRICING.fee(hit.reward)

    # -- requester API -----------------------------------------------------------

    def get_hit(self, hit_id: str) -> HIT:
        """Fetch a HIT by id."""
        try:
            return self._hits[hit_id]
        except KeyError:
            raise HITError(f"unknown HIT {hit_id!r}") from None

    def list_hits(self, status: HITStatus | None = None) -> list[HIT]:
        """List HITs, optionally filtered by status (via the status index)."""
        if status is not None:
            return list(self._hits_by_status[status].values())
        return list(self._hits.values())

    def submitted_assignments(self, hit_id: str) -> list[Assignment]:
        """Assignments of a HIT that have been submitted (or reviewed)."""
        return self.get_hit(hit_id).submitted_assignments

    def approve_assignment(self, assignment_id: str) -> None:
        """Manually approve a submitted assignment (when auto-approve is off)."""
        hit, assignment = self._find_assignment(assignment_id)
        self._approve(hit, assignment)

    def reject_assignment(self, assignment_id: str) -> None:
        """Reject a submitted assignment; the worker is not paid."""
        _hit, assignment = self._find_assignment(assignment_id)
        assignment.reject()
        self.stats.assignments_rejected += 1

    def _find_assignment(self, assignment_id: str) -> tuple[HIT, Assignment]:
        hit_id = self._assignment_hits.get(assignment_id)
        if hit_id is None:
            raise CrowdError(f"unknown assignment {assignment_id!r}")
        hit = self._hits[hit_id]
        for assignment in hit.assignments:
            if assignment.assignment_id == assignment_id:
                return hit, assignment
        raise CrowdError(f"unknown assignment {assignment_id!r}")  # pragma: no cover

    def expire_hit(self, hit_id: str) -> None:
        """Expire a HIT: pending (unsubmitted) assignments never arrive.

        Fires the expiry listeners so the owner of the HIT's tasks can react
        (the engine's Task Manager requeues them).  Submissions already in
        flight arrive late and are dropped unpaid.
        """
        hit = self.get_hit(hit_id)
        if hit.status is not HITStatus.OPEN:
            return
        self._set_status(hit, HITStatus.EXPIRED)
        self.stats.hits_expired += 1
        self._cancel_expiry(hit)
        for listener in self._expiry_listeners:
            listener(hit)

    def dispose_hit(self, hit_id: str) -> None:
        """Dispose of a completed or expired HIT."""
        hit = self.get_hit(hit_id)
        if hit.status is HITStatus.OPEN:
            raise HITError(f"cannot dispose open HIT {hit_id}")
        self._cancel_expiry(hit)
        self._set_status(hit, HITStatus.DISPOSED)

    # -- aggregate accounting ------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Total requester spend so far (rewards + fees)."""
        return self.stats.total_cost

    def open_hits(self) -> list[HIT]:
        """HITs still waiting for assignments (O(open), not O(ever posted))."""
        return self.list_hits(HITStatus.OPEN)

    def open_hit_count(self) -> int:
        """Number of HITs still waiting for assignments, without a copy."""
        return len(self._hits_by_status[HITStatus.OPEN])

    def estimate_cost(self, reward: float, hit_count: int, assignments: int) -> float:
        """Requester-side estimate used by the optimizer's cost model."""
        return DEFAULT_PRICING.assignment_cost(reward) * hit_count * assignments

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Evolved platform state for a quiescent-point snapshot.

        The HIT archive is deliberately *not* captured: live HITs are
        clock-heap closures that cannot serialize, and snapshots are only
        taken at quiescence, when every remaining archived HIT belongs to
        a terminal query and can never influence execution again (only
        the dashboard and the post-run invariant audit read the archive).
        What must survive is the cumulative accounting, the id sequence
        and the fault stream position.
        """
        from dataclasses import asdict

        return {
            "stats": asdict(self.stats),
            "hit_seq": self._hit_seq,
            "fault_rng": None if self._fault_rng is None else self._fault_rng.getstate(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.stats = PlatformStats(**state["stats"])
        self._hit_seq = int(state["hit_seq"])
        if state["fault_rng"] is not None:
            if self._fault_rng is None:
                raise CrowdError(
                    "snapshot has a fault stream but this simulator has faults disabled"
                )
            self._fault_rng.setstate(state["fault_rng"])

    def __repr__(self) -> str:
        return (
            f"MTurkSimulator(hits={self.stats.hits_created}, "
            f"submitted={self.stats.assignments_submitted}, "
            f"cost=${self.total_cost:.2f})"
        )
