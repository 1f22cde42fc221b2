"""Cluster crash handling: fail-fast detection, durable heal, client retry.

Without durability a killed worker must surface as a diagnosed
:class:`~repro.errors.ShardCrashedError` (never a hang on the pipe).  With a
``durability_root``, the coordinator heals the dead shard in place — the
fresh process replays its own WAL, the interrupted op is retried exactly
once, and the cluster's final fingerprints match an uncrashed run.  A *live*
cluster's healed worker is set live again, so its recovered queries finish
with nobody pumping them.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.cluster import EngineSpec, ShardCoordinator
from repro.cluster.server import request
from repro.errors import ClusterError, ShardCrashedError

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
N_QUERIES = 4
SPEC = EngineSpec(
    factory="repro.experiments.harness:build_products_engine",
    kwargs={"n_products": 8, "filter_batch": 1, "seed": 13},
)


def _kill_shard(cluster: ShardCoordinator, shard_id: int) -> None:
    process = cluster._shards[shard_id].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def _durable_run(root, *, kill: bool) -> tuple[list[dict], int]:
    with ShardCoordinator(SPEC, 2, durability_root=root) as cluster:
        cluster.submit_many([{"sql": FILTER_SQL} for _ in range(N_QUERIES)])
        if kill:
            _kill_shard(cluster, 0)
        statuses = cluster.drain()
        assert all(status == "completed" for status in statuses.values())
        return cluster.fingerprint(), cluster.heals


class TestCrashDetection:
    def test_kill_without_durability_raises_diagnosed_error(self):
        with ShardCoordinator(SPEC, 2) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(N_QUERIES)])
            pid = cluster._shards[0].process.pid
            _kill_shard(cluster, 0)
            started = time.monotonic()
            with pytest.raises(ShardCrashedError) as excinfo:
                cluster.drain()
            elapsed = time.monotonic() - started
        error = excinfo.value
        assert error.shard_id == 0
        assert error.pid == pid
        assert error.op == "drain"
        assert any(
            marker in str(error) for marker in ("exit code", "pipe", "unreachable")
        )
        # Detected via liveness polling, not by waiting out call_timeout.
        assert elapsed < 30

    def test_heal_without_durability_root_rejected(self):
        with ShardCoordinator(SPEC, 1) as cluster:
            with pytest.raises(ClusterError):
                cluster.heal(0)


class TestDurableHeal:
    def test_killed_shard_heals_and_matches_uncrashed_run(self, tmp_path):
        crashed_fp, heals = _durable_run(tmp_path / "crashed", kill=True)
        reference_fp, no_heals = _durable_run(tmp_path / "reference", kill=False)
        assert heals == 1
        assert no_heals == 0
        assert crashed_fp == reference_fp

    def test_healed_shard_keeps_serving(self, tmp_path):
        with ShardCoordinator(SPEC, 2, durability_root=tmp_path) as cluster:
            handles = cluster.submit_many(
                [{"sql": FILTER_SQL} for _ in range(N_QUERIES)]
            )
            _kill_shard(cluster, 0)
            cluster.drain()
            assert cluster.heals == 1
            # Post-heal the shard answers per-query ops and takes new work.
            for handle in handles:
                assert handle.status()["status"] == "completed"
                assert len(handle.results()) >= 0
            more = cluster.submit_many([{"sql": FILTER_SQL}])
            statuses = cluster.drain()
            assert statuses[more[0].query_id] == "completed"


class TestLiveHeal:
    def test_killed_live_worker_heals_and_finishes_unpumped(self, tmp_path):
        # Every coordinator call is bounded by call_timeout and the wait by a
        # deadline, so a worker that stops advancing fails here in a minute.
        with ShardCoordinator(SPEC, 2, durability_root=tmp_path, call_timeout=20) as cluster:
            cluster.set_live(True)
            handles = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(N_QUERIES)])
            _kill_shard(cluster, 0)
            # The next op addressed to the dead shard heals it: the respawned
            # worker replays its WAL and is told to go live again.
            assert handles[0].shard == 0
            assert handles[0].status()["status"] in ("pending", "running", "completed")
            assert cluster.heals == 1
            deadline = time.monotonic() + 60
            waiting = {handle.query_id: handle for handle in handles}
            while waiting:
                assert time.monotonic() < deadline, f"never finished: {sorted(waiting)}"
                for query_id, handle in list(waiting.items()):
                    if handle.status()["status"] == "completed":
                        del waiting[query_id]
                time.sleep(0.01)
            assert cluster.heals == 1
            assert all(len(handle.results()) > 0 for handle in handles)


class TestClientRetry:
    def test_request_fails_terminally_after_bounded_attempts(self):
        async def scenario():
            # Grab a port nobody is listening on, then release it.
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            started = time.monotonic()
            with pytest.raises(ClusterError) as excinfo:
                await request("127.0.0.1", port, {"op": "stats"}, backoff=0.01)
            return excinfo.value, time.monotonic() - started

        error, elapsed = asyncio.run(scenario())
        message = str(error)
        assert "failed after 3 attempt(s)" in message
        assert message.count("attempt") >= 3  # every failure is named
        assert elapsed < 10  # bounded, not an infinite retry loop

    def test_request_rejects_zero_attempts(self):
        async def scenario():
            with pytest.raises(ClusterError):
                await request("127.0.0.1", 1, {"op": "stats"}, attempts=0)

        asyncio.run(scenario())
