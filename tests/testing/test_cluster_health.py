"""Shard health telemetry and cluster backpressure.

The coordinator observes per-shard health (op-latency EWMA, crash count,
queue depth, last-reply heartbeat) for free on its side of the pipe.  It is
telemetry only: placement is round-robin whatever the records say.
"""

import json
import os
import signal
from collections import defaultdict

import pytest

from repro.cluster import ClusterStats, EngineSpec, ShardCoordinator
from repro.cluster.coordinator import ShardHealth
from repro.core.exec.scheduler import OVERLOAD_RETRY_AFTER
from repro.dashboard.cluster import render_cluster
from repro.errors import EngineOverloadedError

pytestmark = pytest.mark.overload

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


def spec(**engine_kwargs) -> EngineSpec:
    kwargs = {"n_products": 8, "filter_batch": 1, "seed": 13}
    if engine_kwargs:
        kwargs["engine_kwargs"] = engine_kwargs
    return EngineSpec(
        factory="repro.experiments.harness:build_products_engine", kwargs=kwargs
    )


class TestShardHealthRecord:
    def test_the_first_sample_sets_the_ewma(self):
        record = ShardHealth(0)
        record.observe(0.5, now=10.0)
        assert (record.latency_ewma, record.samples, record.last_heartbeat) == (0.5, 1, 10.0)

    def test_later_samples_move_the_ewma_a_fifth_of_the_way(self):
        record = ShardHealth(0)
        record.observe(1.0, now=1.0)
        record.observe(2.0, now=2.0)
        assert record.latency_ewma == pytest.approx(1.2)
        assert record.samples == 2

    def test_heartbeat_age_is_none_before_a_reply_and_never_negative(self):
        record = ShardHealth(0)
        assert record.heartbeat_age(5.0) is None
        record.observe(0.1, now=5.0)
        assert record.heartbeat_age(7.5) == pytest.approx(2.5)
        assert record.heartbeat_age(4.0) == 0.0

    def test_report_is_json_safe(self):
        record = ShardHealth(3, crashes=1, queue_depth=4)
        record.observe(0.25, now=1.0)
        report = record.report(2.0)
        assert json.loads(json.dumps(report)) == {
            "shard": 3,
            "latency_ewma": 0.25,
            "samples": 1,
            "crashes": 1,
            "queue_depth": 4,
            "heartbeat_age": 1.0,
        }


class TestHealthTelemetry:
    def test_stats_carry_health_records_and_the_dashboard_renders_them(self):
        with ShardCoordinator(spec(), 2) as cluster:
            cluster.submit(FILTER_SQL)
            stats = cluster.stats()
        assert len(stats.health) == 2
        for record in stats.health:
            assert set(record) == {
                "shard", "latency_ewma", "samples", "crashes", "queue_depth", "heartbeat_age"
            }
            assert record["samples"] > 0
            assert record["latency_ewma"] > 0.0
            assert record["heartbeat_age"] is not None
        text = render_cluster(stats, panels=[])
        assert "health shard 0: heartbeat " in text
        assert "health shard 1: heartbeat " in text

    def test_heal_counts_the_crash(self, tmp_path):
        with ShardCoordinator(spec(), 2, durability_root=tmp_path) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(2)])
            process = cluster._shards[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            statuses = cluster.drain()  # heals shard 0, then finishes
            assert all(status == "completed" for status in statuses.values())
            assert cluster.heals == 1
            assert cluster.health[0].crashes == 1
            assert cluster.health[1].crashes == 0

    def test_a_crashed_shard_keeps_its_round_robin_turn(self, tmp_path):
        with ShardCoordinator(spec(), 2, durability_root=tmp_path) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(2)])
            process = cluster._shards[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            cluster.drain()
            assert cluster.health[0].crashes == 1
            handles = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(4)])
            assert [handle.shard for handle in handles] == [0, 1, 0, 1]
            assert all(status == "completed" for status in cluster.drain().values())

    def test_the_dashboard_line_reports_crashes_and_no_verdict(self):
        crashed = ShardHealth(0, crashes=2, queue_depth=3)
        stats = ClusterStats(
            totals=defaultdict(int), per_shard=[{}], health=[crashed.report(0.0)]
        )
        lines = render_cluster(stats, panels=[]).splitlines()
        assert lines[-1] == (
            "health shard 0: heartbeat never, op latency 0.0ms, 2 crash(es), queue depth 3"
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
