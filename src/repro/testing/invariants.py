"""System-wide invariants every engine run must satisfy, faults or not.

Each checker returns a list of human-readable violation strings (empty means
the invariant holds), so one failed scenario reports every broken property at
once instead of stopping at the first assertion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.crowd.hit import AssignmentStatus, HITStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.exec.handle import QueryHandle
    from repro.engine import QurkEngine

__all__ = ["check_invariants", "check_task_records"]

_EPSILON = 1e-6


def check_invariants(
    engine: "QurkEngine",
    handles: list["QueryHandle"],
    deliveries: Mapping[str, int] | None = None,
) -> list[str]:
    """Check every engine-wide invariant; returns violations (empty = pass).

    ``deliveries`` is the per-task delivery count recorded by the chaos
    harness (task id -> times its callback ran); when provided, duplicate
    deliveries — e.g. a late submission resurrecting an already-requeued
    task — are caught here.
    """
    violations: list[str] = []
    violations += _check_budget_conservation(engine, handles)
    violations += _check_hit_accounting(engine)
    violations += _check_no_stranded_work(engine, handles)
    violations += check_task_records(engine.task_manager)
    if deliveries is not None:
        violations += _check_delivery_uniqueness(deliveries)
    return violations


def _check_budget_conservation(engine: "QurkEngine", handles: list["QueryHandle"]) -> list[str]:
    """Money can be committed and not spent (expired HITs), never the reverse."""
    violations = []
    platform_cost = engine.platform.total_cost
    committed = engine.task_manager.stats.hit_dollars_committed
    if platform_cost > committed + _EPSILON:
        violations.append(
            f"budget conservation: platform collected ${platform_cost:.4f} but only "
            f"${committed:.4f} was ever committed"
        )
    rewards = engine.platform.stats.total_rewards_paid
    fees = engine.platform.stats.total_fees_paid
    if abs((rewards + fees) - platform_cost) > _EPSILON:
        violations.append(
            f"budget conservation: rewards (${rewards:.4f}) + fees (${fees:.4f}) "
            f"!= total cost (${platform_cost:.4f})"
        )
    for handle in handles:
        budget = engine.budget_ledger.budget(handle.query_id)
        if budget.limit is not None and handle.stats.spent > budget.limit + _EPSILON:
            violations.append(
                f"budget conservation: {handle.query_id} spent ${handle.stats.spent:.4f} "
                f"over its ${budget.limit:.4f} limit"
            )
    return violations


def _check_hit_accounting(engine: "QurkEngine") -> list[str]:
    """Every HIT and assignment must sit in a coherent lifecycle state."""
    violations = []
    hits = engine.platform.list_hits()
    created = engine.platform.stats.hits_created
    if len(hits) != created:
        violations.append(f"HIT accounting: {created} HITs created but {len(hits)} tracked")
    expired = sum(1 for hit in hits if hit.status is HITStatus.EXPIRED)
    if expired != engine.platform.stats.hits_expired:
        violations.append(
            f"HIT accounting: {expired} HITs in EXPIRED state but stats counted "
            f"{engine.platform.stats.hits_expired}"
        )
    for hit in hits:
        submitted = hit.submitted_assignments
        if len(submitted) > hit.max_assignments:
            violations.append(
                f"HIT accounting: {hit.hit_id} holds {len(submitted)} submissions "
                f"for {hit.max_assignments} requested assignments"
            )
        for assignment in hit.assignments:
            if assignment.status is AssignmentStatus.ABANDONED and assignment.submitted_at:
                violations.append(
                    f"HIT accounting: abandoned assignment {assignment.assignment_id} "
                    "carries a submission"
                )
            paid = assignment.status is AssignmentStatus.APPROVED
            if paid and hit.status is HITStatus.EXPIRED and assignment.submitted_at is None:
                violations.append(
                    f"HIT accounting: unsubmitted assignment {assignment.assignment_id} "
                    "of an expired HIT was paid"
                )
    return violations


def _check_no_stranded_work(engine: "QurkEngine", handles: list["QueryHandle"]) -> list[str]:
    """After every query reached a terminal state, no work may dangle.

    The simulated marketplace is first drained (in-flight submissions of
    HITs nobody waits for are allowed to land), then the Task Manager must
    hold no pending tasks and no unprocessed in-flight HITs.
    """
    violations = []
    if any(not handle.is_terminal for handle in handles):
        violations.append("stranded work: a query handle is not terminal after the run")
        return violations
    engine.clock.run_until_idle()
    pending = engine.task_manager.pending_tasks()
    if pending:
        violations.append(f"stranded work: {pending} task(s) still pending after all queries ended")
    inflight = engine.task_manager.inflight_hits()
    if inflight:
        open_hits = [hit.hit_id for hit in engine.platform.open_hits()]
        violations.append(
            f"stranded work: {inflight} HIT(s) still in flight after the marketplace "
            f"drained (open: {', '.join(open_hits) or 'none'})"
        )
    return violations


def check_task_records(task_manager) -> list[str]:
    """No task record outlives its task.

    Once no task is queued and no HIT is in flight, the HIT ledger holds no
    per-task progress and no cancelled-query ids, and the queue no per-query
    pending count.  Checked on its own for a Task Manager built without an
    engine.
    """
    if task_manager.has_outstanding_work():
        return []
    ledger = task_manager.ledger
    leftovers = {
        "task progress record(s)": len(ledger.progress),
        "cancelled-query id(s)": len(ledger.cancelled),
        "per-query pending count(s)": len(task_manager.queue.by_query),
    }
    return [
        f"task records: {count} {what} left with no work outstanding"
        for what, count in leftovers.items()
        if count
    ]


def _check_delivery_uniqueness(deliveries: Mapping[str, int]) -> list[str]:
    """No task result may reach its operator callback more than once.

    Duplicate deliveries are how lost-update/duplicate-row bugs enter the
    results table: a duplicate or late submission must never re-fire a task
    callback.  (Zero deliveries are legal — attempt-capped tasks are dropped
    and surface as a STALLED query instead.)
    """
    duplicates = {task_id: count for task_id, count in deliveries.items() if count > 1}
    if not duplicates:
        return []
    worst = sorted(duplicates.items(), key=lambda item: -item[1])[:5]
    rendered = ", ".join(f"{task_id} x{count}" for task_id, count in worst)
    return [f"delivery uniqueness: {len(duplicates)} task(s) delivered more than once ({rendered})"]
