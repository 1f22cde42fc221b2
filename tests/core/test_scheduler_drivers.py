"""The scheduler's four drivers are one loop with four stop conditions.

``pump``, ``drain``, ``run_until`` and ``wait`` each call the scheduler's one
driving loop and differ only in when they stop.  The loop has one stall
policy: a global stall ends the stuck queries ``STALLED`` on their own
handles and the rest run on.  So a neighbour's stall never escapes ``wait()``
or ``run_until()``, and driving the same seeded mix by any of the four gives
the same statuses, rows, HITs, dollars and number of scheduling passes.
"""

import pytest

from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryHandle, QueryStatus
from repro.errors import QueryStalledError
from repro.experiments.harness import build_products_engine
from repro.testing.chaos import fingerprint_engine

from test_lifecycle_transitions import FAILING_SQL, FILTER_SORT_SQL, FILTER_SQL, _stuck_handle

SORT_SQL = "SELECT name FROM products ORDER BY biggerItem(name) LIMIT 4"
LOCAL_SQL = "SELECT name, price FROM products WHERE price > 20"


def _engine_with_a_stuck_query_running():
    """A one-slot engine whose slot holds a stub that never progresses."""
    engine = build_products_engine(
        n_products=4, seed=5, engine_kwargs={"max_concurrent_queries": 1}
    ).engine
    engine.scheduler.replanner = None  # a stub executor has no plan to re-cost
    stuck = engine.scheduler.submit(_stuck_handle("stuck"))
    return engine, stuck


class TestANeighboursStallDoesNotEscape:
    """``drain`` past the same stall is pinned in ``test_lifecycle_transitions``."""

    @pytest.mark.parametrize(
        "drive", [QueryHandle.wait, lambda handle: handle.run_until(1e9)], ids=["wait", "run_until"]
    )
    def test_the_queued_query_runs_to_completion(self, drive):
        engine, stuck = _engine_with_a_stuck_query_running()
        queued = engine.query(FILTER_SQL)
        assert queued.status is QueryStatus.PENDING
        drive(queued)
        assert queued.status is QueryStatus.COMPLETED
        assert queued.error is None
        assert len(queued.results()) > 0
        assert stuck.status is QueryStatus.STALLED

    def test_wait_on_the_stuck_query_raises_its_own_error(self):
        engine, stuck = _engine_with_a_stuck_query_running()
        queued = engine.query(FILTER_SQL)
        with pytest.raises(QueryStalledError) as raised:
            stuck.wait()
        assert raised.value is stuck.error
        assert "active: stuck" in str(raised.value)
        assert stuck.status is QueryStatus.STALLED
        # The stall ended the stuck query alone; the queued one runs on.
        assert queued.status is not QueryStatus.STALLED
        queued.wait()
        assert queued.status is QueryStatus.COMPLETED


class TestStopConditions:
    def _crowd_engine(self):
        engine = build_products_engine(n_products=4, seed=5).engine
        return engine, engine.query(FILTER_SQL)

    @pytest.mark.parametrize(("max_passes", "passes"), [(None, 1), (0, 1), (1, 1), (3, 3)])
    def test_pump_runs_max_passes_and_at_least_one(self, max_passes, passes):
        engine, handle = self._crowd_engine()
        scheduler = engine.scheduler
        kwargs = {} if max_passes is None else {"max_passes": max_passes}
        assert scheduler.pump(**kwargs) is True
        assert scheduler.metrics.passes == passes
        assert not handle.is_terminal

    def test_pump_without_work_runs_no_pass(self):
        engine, handle = self._crowd_engine()
        engine.scheduler.drain()
        passes = engine.scheduler.metrics.passes
        assert engine.scheduler.pump(max_passes=5) is False
        assert engine.scheduler.metrics.passes == passes

    def test_drain_counts_only_the_queries_it_finished(self):
        engine, first = self._crowd_engine()
        assert engine.scheduler.drain() == 1
        engine.query(FILTER_SQL)
        engine.query(LOCAL_SQL)
        assert engine.scheduler.drain() == 2
        assert engine.scheduler.drain() == 0

    def test_run_until_stops_when_the_clock_reaches_the_time(self):
        engine, handle = self._crowd_engine()
        # A no-op event pinned before any crowd event: the pass that fires it
        # lands the clock exactly on the target, and the loop stops there.
        target = engine.clock.now + 0.5
        engine.clock.schedule_at(target, lambda: None)
        handle.run_until(target)
        assert engine.clock.now == target
        assert not handle.is_terminal

    def test_run_until_stops_when_the_watched_query_ends(self):
        engine, crowd = self._crowd_engine()
        local = engine.query(LOCAL_SQL)
        local.run_until(1e9)
        assert local.status is QueryStatus.COMPLETED
        assert not crowd.is_terminal
        assert engine.clock.now < 1e9


def _submit_mix(engine):
    """Queries that between them end every way: completed, budget, failed,
    degraded and deadline."""
    return [
        engine.query(FILTER_SQL),
        engine.query(FILTER_SORT_SQL, budget=0.05),
        engine.query(FAILING_SQL),
        engine.query(SORT_SQL, config=QueryConfig(deadline=300.0, degradation="partial")),
        engine.query(LOCAL_SQL, priority=3.0),
        engine.query(SORT_SQL, config=QueryConfig(deadline=200.0)),
    ]


def _by_drain(scheduler, handles):
    scheduler.drain()


def _by_wait(scheduler, handles):
    for handle in handles:
        try:
            handle.wait()
        except Exception as error:
            assert error is handle.error


def _by_pump(scheduler, handles):
    while scheduler.pump(max_passes=1):
        pass


def _by_run_until(scheduler, handles):
    scheduler.run_until(float("inf"))


DRIVERS = {
    "drain": _by_drain,
    "wait": _by_wait,
    "pump": _by_pump,
    "run_until": _by_run_until,
}


def _drive(driver, *, seed, max_concurrent_queries, stuck_first=False):
    engine = build_products_engine(
        n_products=12,
        seed=seed,
        engine_kwargs={"max_concurrent_queries": max_concurrent_queries},
    ).engine
    extra = []
    if stuck_first:
        engine.scheduler.replanner = None
        extra.append(engine.scheduler.submit(_stuck_handle("stuck")))
    # The stuck stub is watched last, so ``wait`` first watches a query
    # queued behind it.
    handles = _submit_mix(engine) + extra
    DRIVERS[driver](engine.scheduler, handles)
    assert all(handle.is_terminal for handle in handles)
    engine.clock.run_until_idle()
    statuses = [handle.status.value for handle in handles]
    rows = [[row.to_dict() for row in handle.results()] for handle in handles]
    return fingerprint_engine(engine, statuses, rows), engine.scheduler.metrics.passes


@pytest.mark.parametrize("max_concurrent_queries", [None, 2])
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_the_four_drivers_run_the_same_passes(seed, max_concurrent_queries):
    runs = {
        driver: _drive(driver, seed=seed, max_concurrent_queries=max_concurrent_queries)
        for driver in DRIVERS
    }
    assert runs["wait"] == runs["drain"]
    assert runs["pump"] == runs["drain"]
    assert runs["run_until"] == runs["drain"]
    fingerprint, passes = runs["drain"]
    assert passes > 0
    # The mix covers every ending the drivers must agree on.
    assert set(fingerprint["statuses"]) == {
        "completed",
        "budget_exceeded",
        "failed",
        "degraded",
        "deadline_exceeded",
    }


def test_the_four_drivers_agree_past_a_stuck_neighbour():
    runs = {
        driver: _drive(driver, seed=7, max_concurrent_queries=1, stuck_first=True)
        for driver in DRIVERS
    }
    assert runs["wait"] == runs["drain"]
    assert runs["pump"] == runs["drain"]
    assert runs["run_until"] == runs["drain"]
    fingerprint, _ = runs["drain"]
    assert fingerprint["statuses"][-1] == "stalled"
    assert fingerprint["statuses"][0] == "completed"
