"""Health-aware shard routing: placement, marks, rebalance, backpressure.

The coordinator observes per-shard health (op-latency EWMA, crash count,
queue depth, last-reply heartbeat) for free on its side of the pipe; the
routing *verdict* only changes at explicit points — a manual mark or the
crash count crossing ``unhealthy_crash_threshold`` — so a ``"health"``
placement stays deterministic.  ``rebalance_pending`` moves never-admitted
queries off a degraded shard by replaying their original submissions on the
healthy ones.
"""

import os
import signal

import pytest

from repro.cluster import EngineSpec, ShardCoordinator
from repro.cluster.placement import HealthAwarePlacement, make_placement
from repro.core.exec.scheduler import OVERLOAD_RETRY_AFTER
from repro.dashboard.cluster import render_cluster
from repro.errors import ClusterError, EngineOverloadedError

pytestmark = pytest.mark.overload

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


def spec(**engine_kwargs) -> EngineSpec:
    kwargs = {"n_products": 8, "filter_batch": 1, "seed": 13}
    if engine_kwargs:
        kwargs["engine_kwargs"] = engine_kwargs
    return EngineSpec(
        factory="repro.experiments.harness:build_products_engine", kwargs=kwargs
    )


class TestHealthAwarePlacement:
    def test_round_robins_over_the_healthy_pool(self):
        placement = HealthAwarePlacement(3)
        assert [placement.shard_of(i, f"cq{i}") for i in range(6)] == [0, 1, 2, 0, 1, 2]
        placement.set_healthy(1, False)
        assert placement.healthy_shards == (0, 2)
        assert [placement.shard_of(i, f"cq{i}") for i in range(4)] == [0, 2, 0, 2]
        placement.set_healthy(1, True)
        assert [placement.shard_of(i, f"cq{i}") for i in range(3)] == [0, 1, 2]

    def test_everything_unhealthy_falls_back_to_all_shards(self):
        placement = HealthAwarePlacement(2)
        placement.set_healthy(0, False)
        placement.set_healthy(1, False)
        # Degraded everywhere is degraded nowhere: keep serving.
        assert placement.healthy_shards == (0, 1)
        assert placement.shard_of(1, "cq1") == 1

    def test_validates_shard_ids(self):
        placement = HealthAwarePlacement(2)
        with pytest.raises(ClusterError):
            placement.set_healthy(2, False)

    def test_make_placement_knows_health(self):
        placement = make_placement("health", 4)
        assert isinstance(placement, HealthAwarePlacement)
        with pytest.raises(ClusterError, match="health"):
            make_placement("nope", 4)


class TestHealthRouting:
    def test_marked_shard_stops_receiving_new_queries(self):
        with ShardCoordinator(spec(), 3, placement="health") as cluster:
            cluster.mark_shard_unhealthy(1)
            handles = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(4)])
            assert [handle.shard for handle in handles] == [0, 2, 0, 2]
            assert cluster.healthy_shards() == [0, 2]
            cluster.mark_shard_healthy(1)
            more = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(3)])
            assert sorted(handle.shard for handle in more) == [0, 1, 2]
            statuses = cluster.drain()
            assert all(status == "completed" for status in statuses.values())

    def test_mark_validates_shard_ids(self):
        with ShardCoordinator(spec(), 2) as cluster:
            with pytest.raises(ClusterError):
                cluster.mark_shard_unhealthy(2)
            with pytest.raises(ClusterError):
                cluster.mark_shard_healthy(-1)

    def test_stats_carry_health_records_and_the_dashboard_renders_them(self):
        with ShardCoordinator(spec(), 2, placement="health") as cluster:
            cluster.submit(FILTER_SQL)
            cluster.mark_shard_unhealthy(1)
            stats = cluster.stats()
        assert len(stats.health) == 2
        for record in stats.health:
            assert record["samples"] > 0
            assert record["latency_ewma"] > 0.0
            assert record["heartbeat_age"] is not None
        assert stats.health[0]["healthy"] is True
        assert stats.health[1]["healthy"] is False
        text = render_cluster(stats, panels=[])
        assert "health shard 0: ok" in text
        assert "health shard 1: DEGRADED" in text

    def test_poll_interval_is_configurable_and_validated(self):
        with ShardCoordinator(spec(), 1, poll_interval=0.02) as cluster:
            assert cluster.poll_interval == 0.02
            cluster.submit(FILTER_SQL)
            assert cluster.drain()["cq1"] == "completed"
        with pytest.raises(ClusterError):
            ShardCoordinator(spec(), 1, poll_interval=0.0)

    def test_crash_threshold_is_validated(self):
        with pytest.raises(ClusterError):
            ShardCoordinator(spec(), 1, unhealthy_crash_threshold=0)


class TestRebalancePending:
    def test_pending_queries_move_and_still_complete(self):
        # One admission slot per worker: with four submissions on two
        # shards, each worker holds one active and one pending query.
        with ShardCoordinator(
            spec(max_concurrent_queries=1), 2, placement="health"
        ) as cluster:
            handles = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(4)])
            cluster.mark_shard_unhealthy(0)
            moved = cluster.rebalance_pending(0)
            assert moved == 1  # the unstarted query; the admitted one stays
            assert cluster.rebalanced == 1
            # The moved query is now routed to (and answered by) shard 1.
            moved_handle = handles[2]  # cq3, shard 0's pending submission
            assert cluster._routes[moved_handle.query_id] == 1
            statuses = cluster.drain()
            assert all(status == "completed" for status in statuses.values())
            rows = moved_handle.results()
            assert rows  # results come back through the new route
            assert cluster.stats().rebalanced == 1

    def test_rebalance_with_nothing_pending_is_a_no_op(self):
        with ShardCoordinator(spec(), 2) as cluster:
            cluster.submit(FILTER_SQL)
            assert cluster.rebalance_pending(0) == 0
            assert cluster.rebalanced == 0

    def test_rebalance_needs_another_healthy_shard(self):
        with ShardCoordinator(
            spec(max_concurrent_queries=1), 1, placement="health"
        ) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(2)])
            cluster.mark_shard_unhealthy(0)
            with pytest.raises(ClusterError, match="no other healthy shard"):
                cluster.rebalance_pending(0)

    def test_rebalanced_cluster_is_deterministic(self):
        def fingerprint():
            with ShardCoordinator(
                spec(max_concurrent_queries=1), 2, placement="health"
            ) as cluster:
                cluster.submit_many([{"sql": FILTER_SQL} for _ in range(4)])
                cluster.mark_shard_unhealthy(0)
                cluster.rebalance_pending(0)
                cluster.drain()
                return cluster.fingerprint()

        assert fingerprint() == fingerprint()


class TestCrashDrivenHealth:
    def test_crashes_past_the_threshold_mark_the_shard(self, tmp_path):
        with ShardCoordinator(
            spec(),
            2,
            placement="health",
            durability_root=tmp_path,
            unhealthy_crash_threshold=1,
        ) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(2)])
            process = cluster._shards[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            statuses = cluster.drain()  # heals shard 0, then finishes
            assert all(status == "completed" for status in statuses.values())
            assert cluster.heals == 1
            assert cluster.health[0].crashes == 1
            # The crash crossed the threshold: shard 0 is out of the pool.
            assert cluster.healthy_shards() == [1]
            assert all(
                handle.shard == 1
                for handle in cluster.submit_many([{"sql": FILTER_SQL} for _ in range(2)])
            )


class TestClusterBackpressure:
    def test_worker_overload_surfaces_with_retry_after(self):
        with ShardCoordinator(
            spec(
                max_concurrent_queries=1,
                admission_queue_limit=0,
            ),
            1,
        ) as cluster:
            cluster.submit(FILTER_SQL)
            with pytest.raises(EngineOverloadedError) as excinfo:
                cluster.submit(FILTER_SQL)
            assert excinfo.value.retry_after == OVERLOAD_RETRY_AFTER
            assert cluster.drain()["cq1"] == "completed"
