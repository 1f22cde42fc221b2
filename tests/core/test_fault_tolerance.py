"""Regression tests for the fault-tolerant HIT lifecycle (engine level).

Before the requeue path existed, an expired HIT silently stranded its tasks:
the operators kept their outstanding-task counts forever and the owning
query waited forever.  These tests pin the fixed behaviour — expiry requeues
and completes, attempt exhaustion surfaces ``STALLED`` — and the salvage of
partially submitted HITs.
"""

import pytest

from repro.core.exec.handle import QueryStatus
from repro.core.tasks.reducer import MAX_ATTEMPTS
from repro.crowd import FaultProfile
from repro.errors import QueryStalledError
from repro.experiments.harness import build_products_engine

PRODUCTS_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


class TestExpiredHITRequeue:
    def test_manually_expired_hit_no_longer_strands_the_query(self):
        """The original bug: expire_hit left the owning query waiting forever."""
        run = build_products_engine(n_products=6, assignments=3, seed=91)
        engine = run.engine
        handle = engine.query(PRODUCTS_SQL)
        # Step until the first HITs are posted, then yank one out from under
        # the engine before any of its assignments complete.
        while not engine.platform.list_hits():
            assert handle.step()
        victim = engine.platform.list_hits()[0]
        engine.platform.expire_hit(victim.hit_id)
        rows = handle.wait()  # used to hang (scheduler stuck) without requeue
        assert handle.status is QueryStatus.COMPLETED
        assert len(rows) == len({row["name"] for row in rows})
        assert engine.task_manager.stats.tasks_requeued >= 1
        # The replacement HIT was actually posted and paid for.
        assert engine.platform.stats.hits_created > 6

    def test_deadline_expiry_requeues_and_completes(self):
        faults = FaultProfile(seed=21, hit_lifetime=900.0, pickup_slowdown=3.0)
        run = build_products_engine(
            n_products=8, assignments=3, filter_batch=4, seed=92, fault_profile=faults
        )
        handle = run.engine.query(PRODUCTS_SQL)
        handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        assert run.engine.platform.stats.hits_expired >= 1
        assert run.engine.task_manager.stats.tasks_requeued >= 1
        # Each product judged exactly once: no lost or duplicated rows.
        names = [row["name"] for row in handle.results()]
        assert len(names) == len(set(names))

    def test_partial_submissions_of_expired_hits_are_salvaged(self):
        """Answers an expired HIT did collect are merged, not thrown away."""
        faults = FaultProfile(seed=22, hit_lifetime=1200.0, pickup_slowdown=2.5)
        run = build_products_engine(
            n_products=10, assignments=3, filter_batch=5, seed=93, fault_profile=faults
        )
        handle = run.engine.query(PRODUCTS_SQL)
        handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        stats = run.engine.platform.stats
        if stats.assignments_submitted:
            # Paid-for partial submissions stay counted and attributed.
            assert handle.total_cost > 0


class TestBudgetRefunds:
    def test_expired_hits_release_their_unspent_commitment(self):
        """An expiry storm must not eat the budget of work never paid for."""
        faults = FaultProfile(seed=24, hit_lifetime=900.0, pickup_slowdown=3.0)
        run = build_products_engine(
            n_products=8, assignments=3, filter_batch=4, seed=95, fault_profile=faults
        )
        engine = run.engine
        # Budget with modest headroom over the nominal cost: 8 tasks x 3
        # assignments x $0.015 = $0.36 nominal.  Without refunds, each
        # zero-submission expiry would permanently consume a full share and
        # the re-posts would blow through this limit.
        handle = engine.query(PRODUCTS_SQL, budget=0.60)
        handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        assert engine.platform.stats.hits_expired >= 1
        assert engine.task_manager.stats.hit_dollars_refunded > 0
        # Committed never below actual spend, and within the limit.
        budget = engine.budget_ledger.budget(handle.query_id)
        assert budget.committed >= handle.total_cost - 1e-9
        assert budget.committed <= 0.60 + 1e-9


class TestNoWorkForDeadQueries:
    def test_expiry_after_stall_does_not_repost_for_the_dead_query(self):
        """An in-flight HIT expiring after its query ended must not re-bill it."""
        faults = FaultProfile(seed=23, hit_lifetime=60.0, pickup_slowdown=50.0)
        run = build_products_engine(n_products=4, assignments=3, seed=96, fault_profile=faults)
        engine = run.engine
        handle = engine.query(PRODUCTS_SQL)
        with pytest.raises(QueryStalledError):
            handle.wait()
        hits_at_stall = engine.platform.stats.hits_created
        # Let any straggler expiries fire with nobody driving the query.
        engine.clock.run_until_idle()
        assert engine.platform.stats.hits_created == hits_at_stall
        assert engine.task_manager.pending_tasks() == 0


class TestDegradedDelivery:
    def test_salvaged_answers_are_delivered_when_attempts_run_out(self):
        """Paid-for partial answers become a below-target result, not a stall."""
        from repro.crowd import QualityConfig

        # Pickup slow and HIT lifetime short enough that HITs keep expiring
        # with partial submissions until tasks spend all MAX_ATTEMPTS.
        faults = FaultProfile(seed=26, hit_lifetime=600.0, pickup_slowdown=5.0)
        run = build_products_engine(
            n_products=10,
            assignments=3,
            filter_batch=5,
            seed=97,
            fault_profile=faults,
            quality=QualityConfig(gold_frequency=0.0, adaptive_redundancy=False),
        )
        handle = run.engine.query(PRODUCTS_SQL)
        try:
            handle.wait()
        except QueryStalledError:
            pass
        stats = run.engine.task_manager.stats
        assert run.engine.platform.stats.hits_expired >= 1
        # Tasks that burned the attempt cap while holding answers delivered
        # degraded results instead of being discarded.
        assert stats.tasks_degraded >= 1
        assert handle.status is QueryStatus.COMPLETED


class TestAttemptExhaustion:
    def _stalled_run(self):
        # Nobody ever picks work up: every HIT expires untouched until the
        # attempt cap burns out.
        faults = FaultProfile(seed=23, hit_lifetime=60.0, pickup_slowdown=50.0)
        return build_products_engine(n_products=4, assignments=3, seed=94, fault_profile=faults)

    def test_attempt_capped_tasks_surface_stalled_instead_of_hanging(self):
        run = self._stalled_run()
        handle = run.engine.query(PRODUCTS_SQL)
        with pytest.raises(QueryStalledError):
            handle.wait()
        assert handle.status is QueryStatus.STALLED
        assert isinstance(handle.error, QueryStalledError)
        assert run.engine.task_manager.stats.tasks_exhausted >= 1
        # 1 initial post + MAX_ATTEMPTS re-posts per task, then surrender.
        per_task_cap = 1 + MAX_ATTEMPTS
        assert run.engine.platform.stats.hits_created <= 4 * per_task_cap

    def test_stall_is_reported_on_the_scheduler_events(self):
        run = self._stalled_run()
        handle = run.engine.query(PRODUCTS_SQL)
        with pytest.raises(QueryStalledError):
            handle.wait()
        events = [e.event for e in run.engine.scheduler.events_for(handle.query_id)]
        assert "stalled" in events

    def test_concurrent_healthy_query_is_not_dragged_down(self):
        """A targeted stall must not mark the neighbour query stalled."""
        run = self._stalled_run()
        engine = run.engine
        # A purely local (crowd-free) query sharing the scheduler.
        healthy = engine.query("SELECT name FROM products")
        doomed = engine.query(PRODUCTS_SQL)
        assert healthy.wait() is not None
        assert healthy.status is QueryStatus.COMPLETED
        with pytest.raises(QueryStalledError):
            doomed.wait()
        assert doomed.status is QueryStatus.STALLED
        assert healthy.status is QueryStatus.COMPLETED
