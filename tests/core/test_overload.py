"""Overload protection at the engine level: deadlines, backpressure, pressure.

Three families of tests:

* **Deadlines** — ``QueryConfig(deadline=...)`` either fails the query with
  :class:`~repro.errors.QueryDeadlineError` (``degradation="error"``) or
  finishes it ``DEGRADED`` with the rows landed so far
  (``degradation="partial"``).  The property test pins the degradation
  contract: a degraded result is a strict prefix of the same-seed
  unconstrained run — same rows in the same order, never more HITs, never
  more money.
* **Admission backpressure** — a bounded pending queue rejects overflow with
  a structured retry-after, or sheds the lowest-priority waiting query under
  ``overload_policy="shed"``.
* **Pressure shedding** — queries that opt in via ``shed_under_pressure``
  drop to single-assignment waves once half the deadline has elapsed or 80%
  of the budget is committed.

Every knob defaults off; the no-knob engine paths are covered by the
determinism audit, which must stay byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryStatus
from repro.core.exec.scheduler import OVERLOAD_RETRY_AFTER
from repro.errors import EngineOverloadedError, ExecutionError, QueryDeadlineError
from repro.experiments.harness import build_companies_engine, build_products_engine

pytestmark = pytest.mark.overload

CEO_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies"
)
FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


def ceo_engine():
    """Six-company lookup: completes at ~287 simulated seconds, $0.45."""
    return build_companies_engine(n_companies=6, seed=21, enable_cache=False).engine


# -- deadlines ---------------------------------------------------------------


class TestDeadlines:
    def test_error_mode_raises_a_diagnosed_deadline_error(self):
        engine = ceo_engine()
        handle = engine.query(CEO_SQL, config=QueryConfig(deadline=100.0))
        with pytest.raises(QueryDeadlineError) as excinfo:
            handle.wait()
        assert handle.status is QueryStatus.DEADLINE_EXCEEDED
        assert excinfo.value.query_id == handle.query_id
        assert excinfo.value.deadline == 100.0
        assert engine.scheduler.metrics.deadline_misses == 1
        events = [event.event for event in engine.scheduler.events_for(handle.query_id)]
        assert "deadline_exceeded" in events

    def test_partial_mode_returns_the_rows_landed_so_far(self):
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(deadline=200.0, degradation="partial")
        )
        rows = handle.wait()  # DEGRADED does not raise: partial is the contract
        assert handle.status is QueryStatus.DEGRADED
        assert 0 < len(rows) < 6
        assert engine.scheduler.metrics.queries_degraded == 1

    def test_generous_deadline_changes_nothing(self):
        unconstrained = ceo_engine()
        baseline = unconstrained.query(CEO_SQL).wait()
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(deadline=10_000.0, degradation="partial")
        )
        assert handle.wait() == baseline
        assert handle.status is QueryStatus.COMPLETED
        assert engine.clock.now == unconstrained.clock.now

    def test_deadline_cancels_pending_crowd_work(self):
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(deadline=100.0, degradation="partial")
        )
        handle.wait()
        # Nothing posted for this query may still be awaiting workers.
        assert engine.task_manager.pending_tasks(handle.query_id) == 0

    @pytest.mark.parametrize(
        "config",
        [
            {"deadline": 0.0},
            {"deadline": -10.0},
            {"deadline": 60.0, "degradation": "panic"},
        ],
        ids=["zero", "negative", "bad-mode"],
    )
    def test_bad_deadline_config_is_rejected_at_submit(self, config):
        engine = ceo_engine()
        with pytest.raises(ExecutionError):
            engine.query(CEO_SQL, config=QueryConfig(**config))


class TestDegradationPrefixProperty:
    """The paper-facing guarantee: a deadline only cancels *future* work.

    Everything up to the cut is identical to the unconstrained same-seed
    run, so whatever the deadline, the degraded result must be a prefix of
    the full result with no extra HITs and no extra spend.
    """

    @staticmethod
    def _full_run():
        engine = ceo_engine()
        rows = engine.query(CEO_SQL).wait()
        return rows, engine.total_crowd_cost, engine.platform.stats.hits_created

    @given(deadline=st.floats(min_value=10.0, max_value=600.0))
    @settings(max_examples=12, deadline=None)
    def test_degraded_result_is_a_prefix_of_the_full_run(self, deadline):
        full_rows, full_cost, full_hits = self._full_run()
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(deadline=deadline, degradation="partial")
        )
        rows = handle.wait()
        assert handle.status in (QueryStatus.DEGRADED, QueryStatus.COMPLETED)
        # Same rows, same order, possibly fewer: a strict prefix.
        assert rows == full_rows[: len(rows)]
        # Never more crowd work, never over-billed.
        assert engine.platform.stats.hits_created <= full_hits
        assert engine.total_crowd_cost <= full_cost + 1e-9
        if handle.status is QueryStatus.COMPLETED:
            assert rows == full_rows


# -- admission backpressure --------------------------------------------------


def bounded_engine(**overrides):
    kwargs = {
        "max_concurrent_queries": 1,
        "admission_queue_limit": 1,
    }
    kwargs.update(overrides)
    return build_products_engine(n_products=4, seed=5, engine_kwargs=kwargs).engine


class TestAdmissionBackpressure:
    def test_overflow_is_rejected_with_a_structured_retry_after(self):
        engine = bounded_engine()
        active = engine.query(FILTER_SQL)
        queued = engine.query(FILTER_SQL)
        assert engine.scheduler.state_of(active.query_id) == "active"
        assert engine.scheduler.state_of(queued.query_id) == "queued"
        with pytest.raises(EngineOverloadedError) as excinfo:
            engine.query(FILTER_SQL)
        assert excinfo.value.retry_after == OVERLOAD_RETRY_AFTER
        assert engine.scheduler.metrics.queries_rejected == 1
        # The survivors are untouched and still complete.
        assert active.wait() is not None
        assert queued.wait() is not None

    def test_shed_policy_evicts_the_lowest_priority_waiter(self):
        engine = bounded_engine(overload_policy="shed")
        engine.query(FILTER_SQL)  # occupies the only slot
        victim = engine.query(FILTER_SQL, priority=1.0)
        vip = engine.query(FILTER_SQL, priority=2.0)  # overflows: victim is shed
        assert victim.status is QueryStatus.SHED
        assert isinstance(victim.error, EngineOverloadedError)
        assert engine.scheduler.state_of(vip.query_id) == "queued"
        assert engine.scheduler.metrics.queries_shed == 1
        with pytest.raises(EngineOverloadedError):
            victim.wait()
        assert vip.wait() is not None

    def test_shed_policy_still_rejects_a_newcomer_that_outranks_nobody(self):
        engine = bounded_engine(overload_policy="shed")
        engine.query(FILTER_SQL)
        survivor = engine.query(FILTER_SQL, priority=5.0)
        with pytest.raises(EngineOverloadedError):
            engine.query(FILTER_SQL, priority=1.0)
        assert engine.scheduler.metrics.queries_rejected == 1
        assert engine.scheduler.metrics.queries_shed == 0
        assert survivor.status is QueryStatus.PENDING

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission_queue_limit": -1},
            {"overload_policy": "panic"},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_bad_overload_config_is_rejected(self, kwargs):
        with pytest.raises(ExecutionError):
            bounded_engine(**kwargs)


# -- pressure shedding -------------------------------------------------------


class TestPressureShedding:
    def test_deadline_pressure_fires_at_half_the_deadline(self):
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL,
            config=QueryConfig(
                deadline=400.0, degradation="partial", shed_under_pressure=True
            ),
        )
        rows = handle.wait()
        # The run takes ~287 simulated seconds, so pressure hits at 200 and
        # the query still completes — just with thinner redundancy.
        assert handle.status is QueryStatus.COMPLETED
        assert len(rows) == 6
        assert engine.scheduler.metrics.queries_pressured == 1
        shed_events = [
            event
            for event in engine.scheduler.events_for(handle.query_id)
            if event.event == "pressure_shed"
        ]
        assert len(shed_events) == 1
        assert "deadline" in shed_events[0].detail

    def test_budget_pressure_fires_at_eighty_percent_committed(self):
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(budget=0.50, shed_under_pressure=True)
        )
        rows = handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        assert len(rows) == 6
        assert engine.scheduler.metrics.queries_pressured == 1
        shed_events = [
            event
            for event in engine.scheduler.events_for(handle.query_id)
            if event.event == "pressure_shed"
        ]
        assert "budget committed" in shed_events[0].detail

    def test_without_opt_in_no_pressure_is_ever_applied(self):
        engine = ceo_engine()
        handle = engine.query(
            CEO_SQL, config=QueryConfig(deadline=400.0, degradation="partial")
        )
        handle.wait()
        assert engine.scheduler.metrics.queries_pressured == 0
