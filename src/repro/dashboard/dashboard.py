"""The Query Status Dashboard (Figure 2, Section 4.1).

"The Query Status Dashboard provides a window into the system internals and
will give the audience a sense of the time, budget, and optimization
considerations that go into executing a Qurk query."

:class:`QueryDashboard` takes snapshots of running (or finished) queries —
budget vs spend, cost estimates, cache and classifier savings, per-operator
progress — and renders them as text, the terminal-friendly equivalent of the
demo's web dashboard.
"""

from __future__ import annotations

from repro.core.exec.handle import QueryHandle
from repro.dashboard.metrics import OperatorSnapshot, QueryDashboardSnapshot
from repro.errors import DashboardError

__all__ = ["QueryDashboard"]


class QueryDashboard:
    """Builds and renders dashboard snapshots for an engine's queries."""

    def __init__(self, engine) -> None:
        # Typed loosely to avoid an import cycle with repro.engine; the
        # engine exposes .queries, .budget_ledger, .optimizer, .scheduler,
        # .task_models, .clock and counters().
        self.engine = engine

    # -- snapshots ------------------------------------------------------------------------

    def snapshot(self, query_id: str) -> QueryDashboardSnapshot:
        """Capture the dashboard view of one query right now."""
        handle = self.engine.queries.get(query_id)
        if handle is None:
            known = ", ".join(sorted(self.engine.queries)) or "<none>"
            raise DashboardError(f"unknown query {query_id!r}; known queries: {known}")
        return self._snapshot_of(handle, self.engine.counters())

    def snapshots(self) -> list[QueryDashboardSnapshot]:
        """Snapshots of every query the engine has started, oldest first."""
        counters = self.engine.counters()
        return [self._snapshot_of(handle, counters) for handle in self.engine.queries.values()]

    def _snapshot_of(self, handle: QueryHandle, counters) -> QueryDashboardSnapshot:
        stats = handle.stats
        estimate = self.engine.optimizer.estimate_plan_cost(handle.executor.root)
        budget = self.engine.budget_ledger.budget(handle.query_id)
        scheduler = self.engine.scheduler
        return QueryDashboardSnapshot(
            query_id=handle.query_id,
            sql=handle.sql,
            status=handle.status.value,
            simulated_time=self.engine.clock.now,
            results_emitted=stats.results_emitted,
            budget=budget.limit,
            spent=stats.spent,
            committed=budget.committed,
            estimated_total_cost=estimate.dollars,
            remaining_budget=budget.remaining,
            hits_posted=stats.hits_posted,
            tasks_submitted=stats.tasks_submitted,
            tasks_completed=stats.tasks_completed,
            cache_hits=stats.cache_hits,
            cache_savings=stats.dollars_saved_cache,
            model_answers=stats.model_answers,
            model_savings=self.engine.task_models.total_savings(),
            elapsed_seconds=self.engine.clock.now - stats.started_at,
            estimated_latency=estimate.latency_seconds,
            operators=tuple(self._operator_snapshots(handle)),
            scheduler_state=scheduler.state_of(handle.query_id),
            lifecycle=tuple(
                event.describe() for event in scheduler.events_for(handle.query_id)
            ),
            plan_changes=tuple(change.describe() for change in handle.plan_history()),
            engine=counters,
        )

    def _operator_snapshots(self, handle: QueryHandle) -> list[OperatorSnapshot]:
        snapshots: list[OperatorSnapshot] = []

        def visit(operator, depth: int) -> None:
            snapshots.append(
                OperatorSnapshot(
                    name=operator.name,
                    depth=depth,
                    rows_in=operator.metrics.rows_in,
                    rows_out=operator.metrics.rows_out,
                    tasks_created=operator.metrics.tasks_created,
                    tasks_completed=operator.metrics.tasks_completed,
                    outstanding_tasks=operator.outstanding_tasks,
                )
            )
            for child in operator.children:
                visit(child, depth + 1)

        visit(handle.executor.root, 0)
        return snapshots

    # -- rendering --------------------------------------------------------------------------

    def render(self, query_id: str) -> str:
        """Render one query's dashboard as text (the Figure 2 panel)."""
        return self.render_snapshot(self.snapshot(query_id))

    def render_all(self) -> str:
        """Render every query's dashboard, separated by blank lines."""
        return "\n\n".join(self.render_snapshot(snapshot) for snapshot in self.snapshots())

    @staticmethod
    def render_snapshot(snapshot: QueryDashboardSnapshot) -> str:
        engine = snapshot.engine
        lines = [
            f"=== Qurk Query Status: {snapshot.query_id} [{snapshot.status}] ===",
            f"SQL: {snapshot.sql.strip()}" if snapshot.sql else "SQL: <programmatic plan>",
            (
                f"simulated time {snapshot.simulated_time:,.0f}s"
                f" | elapsed {snapshot.elapsed_seconds:,.0f}s"
                f" | est. completion {snapshot.estimated_latency:,.0f}s"
            ),
            (
                f"results emitted: {snapshot.results_emitted}"
                f" | HITs posted: {snapshot.hits_posted} (open: {engine['open_hits']})"
                f" | tasks {snapshot.tasks_completed}/{snapshot.tasks_submitted}"
            ),
        ]
        budget_text = "unlimited" if snapshot.budget is None else f"${snapshot.budget:,.2f}"
        utilisation = snapshot.budget_utilisation
        utilisation_text = "" if utilisation is None else f" ({utilisation:.0%} used)"
        lines.append(
            f"budget: {budget_text}{utilisation_text}"
            f" | spent: ${snapshot.spent:,.2f}"
            f" | committed: ${snapshot.committed:,.2f}"
            f" | est. total: ${snapshot.estimated_total_cost:,.2f}"
        )
        lines.append(
            f"savings — cache: ${snapshot.cache_savings:,.2f} ({snapshot.cache_hits} hits)"
            f" | classifier: ${snapshot.model_savings:,.2f} ({snapshot.model_answers} answers)"
        )
        if engine["cache_entries"] or engine["trusted_models"] or engine["cross_shard_hits"]:
            tier = (
                f"answer tier (engine-wide): {engine['cache_entries']} entries"
                f" | expired {engine['cache_expirations']}"
                f" | rejected {engine['cache_admissions_rejected']}"
            )
            if engine["cache_entries_imported"] or engine["cross_shard_hits"]:
                tier += (
                    f" | imported {engine['cache_entries_imported']}"
                    f" | cross-shard hits {engine['cross_shard_hits']}"
                )
            if engine["trusted_models"]:
                tier += f" | trusted models {engine['trusted_models']}"
            lines.append(tier)
        if engine["workers_tracked"]:
            accuracy = engine["worker_accuracy_sum"] / engine["workers_tracked"]
            lines.append(
                f"worker quality (engine-wide): {engine['workers_tracked']} tracked"
                f" | mean accuracy {accuracy:.0%}"
                f" | flagged {engine['flagged_workers']}"
                f" | gold probes {engine['gold_probes_posted']}"
                f" | early-stopped tasks {engine['early_stopped_tasks']}"
            )
        if engine["fault_profile"]:
            lines.append(
                f"faults, engine-wide ({engine['fault_profile']}):"
                f" expired HITs {engine['hits_expired']}"
                f" | abandoned {engine['assignments_abandoned']}"
                f" | late dropped {engine['late_submissions_dropped']}"
                f" | duplicates ignored {engine['duplicate_submissions_ignored']}"
                f" | requeued tasks {engine['tasks_requeued']}"
                f" | exhausted {engine['tasks_exhausted']}"
            )
        overload_counts = (
            engine["queries_rejected"]
            or engine["queries_shed"]
            or engine["deadline_misses"]
            or engine["queries_degraded"]
            or engine["queries_pressured"]
            # A recovered breaker (closed again, but with trips on record)
            # is still part of the run's story.
            or engine["breaker_trips"]
            or engine["breaker_posts_blocked"]
        )
        if overload_counts or engine["breaker_state"] not in ("", "closed"):
            line = (
                f"overload (engine-wide): rejected {engine['queries_rejected']}"
                f" | shed {engine['queries_shed']}"
                f" | deadline misses {engine['deadline_misses']}"
                f" | degraded {engine['queries_degraded']}"
                f" | pressured {engine['queries_pressured']}"
            )
            if engine["breaker_state"]:
                line += (
                    f" | breaker {engine['breaker_state']}"
                    f" (trips {engine['breaker_trips']},"
                    f" blocked {engine['breaker_posts_blocked']})"
                )
            lines.append(line)
        lifecycle = " -> ".join(snapshot.lifecycle) or "<no events>"
        lines.append(f"scheduler: {snapshot.scheduler_state} | {lifecycle}")
        lines.append(
            f"run loop (engine-wide): {engine['scheduler_passes']} passes"
            f" | {engine['clock_advances']} clock advances"
            f" ({engine['noop_clock_advances']} absorbed as no-ops)"
        )
        for change in snapshot.plan_changes:
            lines.append(f"plan change: {change}")
        lines.append("plan:")
        for operator in snapshot.operators:
            indent = "  " * (operator.depth + 1)
            lines.append(
                f"{indent}{operator.name}: out={operator.rows_out}"
                f" tasks={operator.tasks_completed}/{operator.tasks_created}"
                f" outstanding={operator.outstanding_tasks}"
            )
        return "\n".join(lines)
