"""The asyncio TCP front end: submit → self-driven progress → results.

Starting the server sets the cluster *live*: each shard worker advances its
own scheduler between messages, so a submitted query completes without
anyone calling ``drain`` or ``pump`` — the server sends neither.  This test
runs a real 1-shard cluster behind the server, submits over TCP, polls
status until completion and reads the rows back — the whole external
protocol in one round trip.
"""

import asyncio

import pytest

from repro.cluster import EngineSpec, ShardCoordinator
from repro.cluster.serialization import decode_rows
from repro.cluster.server import ClusterServer, raise_for_reply, request
from repro.errors import ClusterError, EngineOverloadedError

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SPEC = EngineSpec(
    factory="repro.experiments.harness:build_products_engine",
    kwargs={"n_products": 10, "filter_batch": 1, "seed": 13},
)


def _record_ops(cluster: ShardCoordinator) -> list[str]:
    """Every op the coordinator sends its (only) shard from here on."""
    ops: list[str] = []
    transport = cluster._shards[0].transport
    send = transport.send

    def recording_send(message):
        ops.append(message["op"])
        send(message)

    transport.send = recording_send
    return ops


async def _exercise_server() -> None:
    with ShardCoordinator(SPEC, 1, call_timeout=20) as cluster:
        ops = _record_ops(cluster)
        async with ClusterServer(cluster) as server:
            assert server.port != 0  # bound to a real ephemeral port
            host, port = server.host, server.port

            submitted = await request(host, port, {"op": "submit", "sql": FILTER_SQL})
            assert submitted["ok"], submitted
            query_id = submitted["query_id"]
            assert query_id == "cq1" and submitted["shard"] == 0

            # The shard drives itself; nobody ever calls drain() or pump().
            for _ in range(400):
                status = await request(host, port, {"op": "status", "query_id": query_id})
                assert status["ok"], status
                if status["status"] == "completed":
                    break
                await asyncio.sleep(0.05)
            else:
                raise AssertionError(f"query never completed: {status}")

            reply = await request(host, port, {"op": "results", "query_id": query_id})
            rows = decode_rows(reply["rows"])
            assert rows and all(row.schema.columns[0].name == "name" for row in rows)
            assert len(rows) == status["results_emitted"]

            stats = await request(host, port, {"op": "stats"})
            assert stats["ok"]
            assert stats["totals"]["queries"] == 1
            assert stats["totals"]["total_cost"] > 0

            unknown = await request(host, port, {"op": "never-heard-of-it"})
            assert not unknown["ok"]
            assert "unknown server op" in unknown["error"]

            missing = await request(host, port, {"op": "submit"})
            assert not missing["ok"] and "requires 'sql'" in missing["error"]

        # Live on at start, off at close, and in between only what clients
        # asked for: the server never ticks the shards.
        assert ops[0] == "live" and ops[-1] == "live"
        assert set(ops) == {"live", "submit_many", "status", "results", "stats"}
        assert ops.count("live") == 2

        # Handed back not live, the cluster is a batch cluster again.
        handle = cluster.submit(FILTER_SQL)
        await asyncio.sleep(0.2)
        assert handle.status()["status"] == "pending"
        assert cluster.drain()[handle.query_id] == "completed"


def test_server_round_trip():
    asyncio.run(asyncio.wait_for(_exercise_server(), timeout=60))


def test_batch_coordinator_sends_no_live_op():
    """Never set live, a coordinator puts exactly today's frames on the pipe."""
    with ShardCoordinator(SPEC, 1, call_timeout=20) as cluster:
        ops = _record_ops(cluster)
        cluster.submit(FILTER_SQL)
        cluster.pump(max_passes=2)
        cluster.drain()
        cluster.fingerprint()
    assert ops == ["submit_many", "pump", "drain", "fingerprint", "shutdown"]


def test_request_helper_rejects_dead_port():
    """Connect failures retry with backoff, then raise a terminal error."""
    with pytest.raises(ClusterError, match=r"failed after 2 attempt\(s\)"):
        asyncio.run(
            request("127.0.0.1", 1, {"op": "stats"}, attempts=2, backoff=0.01)
        )


class TestRequestRetrySemantics:
    """Transport failures retry; application errors are terminal at once."""

    def _record_retry_delays(self, monkeypatch, **kwargs) -> list[float]:
        """Drive request() against a dead transport, capturing its sleeps."""
        from repro.cluster import server as server_module

        delays: list[float] = []

        async def always_refused(host, port, message):
            raise ConnectionError("refused")

        async def record_sleep(delay):
            delays.append(delay)

        monkeypatch.setattr(server_module, "_request_once", always_refused)
        monkeypatch.setattr(server_module.asyncio, "sleep", record_sleep)
        with pytest.raises(ClusterError):
            asyncio.run(request("127.0.0.1", 9, {"op": "stats"}, **kwargs))
        return delays

    def test_application_errors_do_not_burn_retry_attempts(self, monkeypatch):
        from repro.cluster import server as server_module

        calls = []

        async def deliberate_rejection(host, port, message):
            calls.append(message)
            return {"ok": False, "error": "overloaded", "error_type": "overloaded"}

        monkeypatch.setattr(server_module, "_request_once", deliberate_rejection)
        reply = asyncio.run(
            request("127.0.0.1", 9, {"op": "submit"}, attempts=5, backoff=0.01)
        )
        # The server answered deliberately: one attempt, reply passed through.
        assert len(calls) == 1
        assert not reply["ok"]

    def test_backoff_grows_exponentially_without_jitter(self, monkeypatch):
        delays = self._record_retry_delays(monkeypatch, attempts=4, backoff=0.1)
        assert delays == [0.1, 0.2, 0.4]

    def test_jittered_backoff_is_seeded_and_bounded(self, monkeypatch):
        first = self._record_retry_delays(
            monkeypatch, attempts=4, backoff=0.1, jitter=0.5, seed=3
        )
        second = self._record_retry_delays(
            monkeypatch, attempts=4, backoff=0.1, jitter=0.5, seed=3
        )
        other_seed = self._record_retry_delays(
            monkeypatch, attempts=4, backoff=0.1, jitter=0.5, seed=4
        )
        assert first == second  # same seed: reproducible delays
        assert first != other_seed
        for base, delay in zip([0.1, 0.2, 0.4], first):
            assert base <= delay <= base * 1.5

    def test_request_validates_its_knobs(self):
        with pytest.raises(ClusterError, match="at least 1 attempt"):
            asyncio.run(request("127.0.0.1", 9, {"op": "stats"}, attempts=0))
        with pytest.raises(ClusterError, match="jitter"):
            asyncio.run(request("127.0.0.1", 9, {"op": "stats"}, jitter=1.5))


class TestRaiseForReply:
    def test_ok_reply_passes_through(self):
        reply = {"ok": True, "rows": []}
        assert raise_for_reply(reply) is reply

    def test_overloaded_reply_becomes_typed_backpressure(self):
        with pytest.raises(EngineOverloadedError) as excinfo:
            raise_for_reply(
                {
                    "ok": False,
                    "error": "EngineOverloadedError: queue full",
                    "error_type": "overloaded",
                    "retry_after": 12.5,
                }
            )
        assert excinfo.value.retry_after == 12.5

    def test_other_errors_become_cluster_errors(self):
        with pytest.raises(ClusterError, match="no such query"):
            raise_for_reply({"ok": False, "error": "no such query"})
