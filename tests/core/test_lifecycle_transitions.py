"""Query and crowd-task lifecycles end in exactly one way.

Every terminal query state is reached through the scheduler's one terminal
transition, and every crowd task's bookkeeping lives in one Task Manager
record that each exit deletes.  The tests below pin the transitions the rest
of the suite does not reach — the run loop driving on past a global stall, a
pressured query's single-assignment wave, an in-flight HIT of an ended query
expiring — and a seeded property over mixes of budgets, deadlines, pressure,
priorities, admission limits and a failing query: whatever the mix, every
query ends once, and nothing is left behind in the scheduler or the Task
Manager.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryHandle, QueryStatus
from repro.crowd.faults import FaultProfile
from repro.errors import EngineOverloadedError
from repro.experiments.harness import build_products_engine
from repro.storage import DataType, Schema, Table
from repro.testing.chaos import fingerprint_engine
from repro.testing.invariants import check_invariants

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
FILTER_SORT_SQL = (
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name) LIMIT 3"
)
FAILING_SQL = "SELECT name FROM products WHERE price / 0 > 1"
TERMINAL_EVENTS = {
    "completed",
    "budget_exceeded",
    "stalled",
    "failed",
    "deadline_exceeded",
    "degraded",
    "shed",
    "rejected",
}


class _StuckExecutor:
    """An executor whose step never progresses and never completes."""

    def step_local(self):
        return False

    def is_complete(self):
        return False

    def retire(self):
        pass


def _stuck_handle(query_id: str) -> QueryHandle:
    table = Table(query_id, Schema.of(("x", DataType.INTEGER)))
    return QueryHandle(query_id, "SELECT ...", _StuckExecutor(), table)


class TestGlobalStallIsAbsorbed:
    def test_drain_keeps_driving_after_a_global_stall(self):
        engine = build_products_engine(
            n_products=4, seed=5, engine_kwargs={"max_concurrent_queries": 1}
        ).engine
        engine.scheduler.replanner = None  # a stub executor has no plan to re-cost
        stuck = engine.scheduler.submit(_stuck_handle("stuck"))
        queued = engine.query(FILTER_SQL)  # waits for the stuck query's slot
        assert engine.scheduler.drain() == 2
        assert stuck.status is QueryStatus.STALLED
        assert queued.status is QueryStatus.COMPLETED
        assert len(queued.results()) > 0

    def test_pump_absorbs_a_global_stall(self):
        engine = build_products_engine(n_products=4, seed=5).engine
        engine.scheduler.replanner = None
        stuck = engine.scheduler.submit(_stuck_handle("stuck"))
        assert engine.scheduler.pump(max_passes=5) is True
        assert stuck.status is QueryStatus.STALLED
        assert not engine.scheduler.has_work()


class TestPressuredWaves:
    def test_a_pressured_wave_posts_one_assignment_and_its_answer_finalizes(self):
        # Unpressured, this filter-then-sort runs ~1,050 simulated seconds;
        # pressure is noticed at the first pass past 400 s, before the
        # sort's comparisons are posted.
        engine = build_products_engine(n_products=8, filter_batch=2, seed=3).engine
        config = QueryConfig(deadline=800.0, degradation="partial", shed_under_pressure=True)
        handle = engine.query(FILTER_SORT_SQL, config=config)
        handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        events = engine.scheduler.events_for(handle.query_id)
        (shed,) = [event for event in events if event.event == "pressure_shed"]
        stats = engine.task_manager.stats
        assert stats.pressure_waves > 0
        late = [hit for hit in engine.platform.list_hits() if hit.created_at > shed.time]
        assert late and all(hit.max_assignments == 1 for hit in late)
        # One answer of a three-assignment task is enough under pressure.
        assert stats.early_stopped_tasks > 0
        assert stats.tasks_completed == stats.tasks_submitted
        assert check_invariants(engine, [handle]) == []


class TestCancelledQueryExpiry:
    def test_an_ended_querys_expiring_hit_is_not_reposted(self):
        # Nobody picks work up and HITs live 60 s; the query ends at 30 s
        # with its HITs still in flight.
        engine = build_products_engine(
            n_products=4,
            seed=1105,
            fault_profile=FaultProfile(seed=15, hit_lifetime=60.0, pickup_slowdown=50.0),
        ).engine
        config = QueryConfig(deadline=30.0, degradation="partial")
        handle = engine.query(FILTER_SQL, config=config)
        handle.wait()
        assert handle.status is QueryStatus.DEGRADED
        manager = engine.task_manager
        hits_at_end = manager.stats.hits_posted
        assert manager.inflight_hits() > 0
        assert manager.ledger.progress != {}
        engine.clock.run_until_idle()
        assert engine.platform.stats.hits_expired == hits_at_end
        assert manager.stats.hits_posted == hits_at_end
        assert manager.stats.tasks_requeued == 0
        assert manager.inflight_hits() == 0
        assert check_invariants(engine, [handle]) == []


# -- the property ---------------------------------------------------------------

QUERY = st.fixed_dictionaries(
    {
        "budget": st.sampled_from([None, None, 0.02, 0.05]),
        "deadline": st.sampled_from([None, 150.0, 400.0]),
        "degradation": st.sampled_from(["error", "partial"]),
        "shed_under_pressure": st.booleans(),
        "priority": st.sampled_from([0.5, 1.0, 2.0]),
    }
)
MIX = st.fixed_dictionaries(
    {
        "queries": st.lists(QUERY, min_size=1, max_size=4),
        "failing_at": st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        "overload_policy": st.sampled_from([None, "reject", "shed"]),
        "seed": st.integers(min_value=1, max_value=40),
    }
)


def _run_mix(mix):
    engine_kwargs = {}
    if mix["overload_policy"] is not None:
        engine_kwargs = {
            "max_concurrent_queries": 1,
            "admission_queue_limit": 1,
            "overload_policy": mix["overload_policy"],
        }
    engine = build_products_engine(
        n_products=4, filter_batch=2, seed=mix["seed"], engine_kwargs=engine_kwargs
    ).engine
    submissions = [(FILTER_SQL, spec) for spec in mix["queries"]]
    if mix["failing_at"] is not None:
        index = min(mix["failing_at"], len(submissions))
        submissions.insert(index, (FAILING_SQL, {"priority": 1.0}))
    handles = []
    for sql, spec in submissions:
        priority = spec["priority"]
        config = QueryConfig(**{key: value for key, value in spec.items() if key != "priority"})
        try:
            handles.append(engine.query(sql, config=config, priority=priority))
        except EngineOverloadedError:
            pass  # rejected at submit; its events are still checked below
    engine.scheduler.drain()
    engine.clock.run_until_idle()
    return engine, handles


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mix=MIX)
def test_every_mix_ends_each_query_once_and_leaves_nothing_behind(mix):
    engine, handles = _run_mix(mix)
    scheduler = engine.scheduler
    manager = engine.task_manager
    assert all(handle.is_terminal for handle in handles)
    query_ids = {event.query_id for event in scheduler.events}
    for query_id in query_ids:
        ends = [e for e in scheduler.events_for(query_id) if e.event in TERMINAL_EVENTS]
        assert len(ends) == 1, (query_id, [e.describe() for e in ends])
    assert scheduler._active == {}
    assert not scheduler._waiting
    assert scheduler._runnable == {}
    assert scheduler._deadline_records == {}
    assert scheduler._pressure_watch == {}
    assert manager.pending_tasks() == 0
    assert manager.inflight_hits() == 0
    assert check_invariants(engine, handles) == []

    def fingerprint(engine, handles):
        return (
            fingerprint_engine(
                engine,
                [handle.status.value for handle in handles],
                [[row.to_dict() for row in handle.results()] for handle in handles],
            ),
            [event.describe() for event in engine.scheduler.events],
        )

    again, again_handles = _run_mix(mix)
    assert fingerprint(again, again_handles) == fingerprint(engine, handles)

