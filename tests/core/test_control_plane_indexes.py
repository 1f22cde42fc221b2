"""Tests for the control plane's incremental indexes.

The scheduler, Task Manager and marketplace simulator replaced their
whole-world scans with counters and per-key indexes; these tests pin the
index bookkeeping: every count must agree with a from-scratch recomputation
at each lifecycle edge (submit, flush, settle, expire, cancel).
"""

import dataclasses
from collections import Counter

from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.tasks.spec import Parameter, TaskSpec, TaskType, YesNoResponse
from repro.core.tasks.task import Task, TaskKind
from repro.core.tasks.task_manager import TaskManager
from repro.crowd import (
    HITStatus,
    MTurkSimulator,
    PopulationMix,
    SimulationClock,
    WorkerPool,
)

from support import CallbackOracle

FILTER_SPEC = TaskSpec(
    name="isRed",
    task_type=TaskType.FILTER,
    text="Is %s red?",
    response=YesNoResponse(),
    parameters=(Parameter("name"),),
    price=0.01,
    assignments=3,
)

ORACLE = CallbackOracle(predicate=lambda item: item.payload.get("is_red", False))


def build_manager():
    clock = SimulationClock()
    pool = WorkerPool(size=50, seed=1, mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0))
    platform = MTurkSimulator(clock, pool, ORACLE)
    manager = TaskManager(platform, StatisticsManager(), BudgetLedger())
    return clock, platform, manager


def filter_task(sink, *, name, query_id, spec=FILTER_SPEC):
    return Task(
        kind=TaskKind.FILTER,
        spec=spec,
        payload={"args": (name,), "name": name, "is_red": True},
        callback=sink.append,
        query_id=query_id,
    )


class TestPendingCounters:
    def test_per_query_pending_counts_track_submit_flush_and_cancel(self):
        clock, _platform, manager = build_manager()
        spec = dataclasses.replace(FILTER_SPEC, batch_size=4)
        results = []
        for index in range(3):
            manager.submit(filter_task(results, name=f"a{index}", query_id="q1", spec=spec))
        manager.submit(filter_task(results, name="b0", query_id="q2", spec=spec))
        assert manager.pending_tasks() == 4
        assert manager.pending_tasks("q1") == 3
        assert manager.pending_tasks("q2") == 1
        assert manager.pending_tasks("q-unknown") == 0
        # The full batch flushes; every counter returns to zero.
        assert manager.flush() == 1
        assert manager.pending_tasks() == 0
        assert manager.pending_tasks("q1") == 0
        clock.run_until_idle()
        assert len(results) == 4

    def test_cancel_query_clears_only_its_own_tasks(self):
        _clock, _platform, manager = build_manager()
        spec = dataclasses.replace(FILTER_SPEC, batch_size=10)
        results = []
        for index in range(3):
            manager.submit(filter_task(results, name=f"a{index}", query_id="q1", spec=spec))
        for index in range(2):
            manager.submit(filter_task(results, name=f"b{index}", query_id="q2", spec=spec))
        assert manager.cancel_query("q1") == 3
        assert manager.pending_tasks() == 2
        assert manager.pending_tasks("q1") == 0
        assert manager.pending_tasks("q2") == 2
        # Cancelling again is a cheap no-op (the per-query count is zero).
        assert manager.cancel_query("q1") == 0

    def test_has_outstanding_work_is_counter_backed(self):
        clock, _platform, manager = build_manager()
        results = []
        assert not manager.has_outstanding_work()
        manager.submit(filter_task(results, name="a", query_id="q1"))
        assert manager.has_outstanding_work()
        manager.flush(force=True)
        assert manager.has_outstanding_work()  # in flight now
        clock.run_until_idle()
        assert not manager.has_outstanding_work()


class TestInflightIndexes:
    def test_inflight_count_tracks_post_and_settle(self):
        clock, _platform, manager = build_manager()
        spec = dataclasses.replace(FILTER_SPEC, batch_size=2)
        results = []
        manager.submit(filter_task(results, name="a", query_id="q1", spec=spec))
        manager.submit(filter_task(results, name="b", query_id="q2", spec=spec))
        manager.submit(filter_task(results, name="c", query_id="q1", spec=spec))
        assert manager.flush(force=True) == 2
        assert manager.inflight_hits() == 2  # the shared HIT and the solo one
        clock.run_until_idle()
        assert manager.inflight_hits() == 0
        assert len(results) == 3

    def test_per_query_inflight_task_count_matches_scan(self):
        clock, platform, manager = build_manager()
        ledger = manager.ledger
        spec = dataclasses.replace(FILTER_SPEC, batch_size=2)
        results = []

        def check():
            scan = Counter(
                task.query_id
                for inflight in ledger._inflight.values()
                for task in inflight.compiled.tasks
            )
            assert ledger._inflight_tasks == dict(scan)
            for query_id in ("q1", "q2"):
                assert ledger.has_inflight_tasks(query_id) == (query_id in scan)

        manager.submit(filter_task(results, name="a", query_id="q1", spec=spec))
        manager.submit(filter_task(results, name="b", query_id="q2", spec=spec))
        manager.submit(filter_task(results, name="c", query_id="q1", spec=spec))
        assert manager.flush(force=True) == 2
        check()
        # Expiry settles the shared HIT and requeues both of its tasks.
        shared = next(hit for hit in platform.open_hits() if len(hit.content.items) == 2)
        platform.expire_hit(shared.hit_id)
        check()
        assert manager.pending_tasks() == 2
        assert manager.flush(force=True) == 1
        check()
        # A cancelled query stays marked until its last in-flight task settles.
        manager.cancel_query("q2")
        assert ledger.cancelled == {"q2"}
        while clock.run_next():
            check()
        assert ledger._inflight_tasks == {}
        assert ledger.cancelled == set()


class TestPlatformIndexes:
    def test_status_index(self):
        clock, platform, manager = build_manager()
        results = []
        manager.submit(filter_task(results, name="a", query_id="q1"))
        manager.flush(force=True)
        (hit,) = platform.open_hits()
        assert platform.open_hit_count() == 1
        clock.run_until_idle()
        # Completed HITs leave the hot (open) index but stay in the archive.
        assert platform.open_hit_count() == 0
        assert platform.list_hits(HITStatus.COMPLETED) == [hit]
        assert platform.list_hits() == [hit]
        assert platform.get_hit(hit.hit_id) is hit

    def test_expired_hits_move_to_the_expired_index(self):
        _clock, platform, manager = build_manager()
        results = []
        manager.submit(filter_task(results, name="a", query_id="q1"))
        manager.flush(force=True)
        (hit,) = platform.open_hits()
        platform.expire_hit(hit.hit_id)
        assert platform.open_hit_count() == 0
        assert platform.list_hits(HITStatus.EXPIRED) == [hit]
        platform.dispose_hit(hit.hit_id)
        assert platform.list_hits(HITStatus.EXPIRED) == []
        assert platform.list_hits(HITStatus.DISPOSED) == [hit]
