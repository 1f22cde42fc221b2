"""Nothing a client sends can hang, kill or quietly break the TCP server.

Seeded sequences of hostile or clumsy clients against a real
:class:`ClusterServer` over a real 1-shard cluster: truncated frames, an
oversized length prefix, bodies that are not JSON objects, unknown ops,
missing and wrong-typed fields, clients that vanish before their reply.
Every case is followed by a valid request that must still succeed, every
rejection must be a structured ``{"ok": false, "error_type": ...}`` reply on
the first attempt, and asyncio must log no unhandled exception.  The run ends
with a real query completing, so the shard worker survived as well (a
wrong-typed ``priority`` used to kill it).
"""

import asyncio
import gc
import logging
import random
import socket
import struct

import pytest

from repro.cluster import EngineSpec
from repro.cluster.serialization import MAX_FRAME_BYTES, decode_message, frame_message
from repro.cluster.server import ClusterServer, request

from support import bounded_cluster

HOST = "127.0.0.1"
FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SPEC = EngineSpec(
    factory="repro.experiments.harness:build_products_engine",
    kwargs={"n_products": 10, "filter_batch": 1, "seed": 13},
)


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


async def exchange(port: int, payload: bytes) -> tuple[dict, bool]:
    """Send raw bytes, read one reply frame; also whether the server then hung up."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(payload)
        await writer.drain()
        length = int.from_bytes(await reader.readexactly(4), "big")
        reply = decode_message(await reader.readexactly(length))
        try:
            closed = await asyncio.wait_for(reader.read(1), timeout=0.2) == b""
        except asyncio.TimeoutError:
            closed = False
        return reply, closed
    finally:
        writer.close()
        await writer.wait_closed()


async def send_and_vanish(port: int, payload: bytes) -> None:
    """Send raw bytes and reset the connection without reading anything."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(payload)
    await writer.drain()
    # SO_LINGER 0 turns close() into a TCP reset: the server's read or write
    # on this connection fails instead of seeing a polite end-of-file.
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    writer.close()
    await writer.wait_closed()


def rejected(reply: dict, closed: bool, *, fragment: str, hangs_up: bool = False) -> None:
    assert reply["ok"] is False, reply
    assert reply["error_type"] == "ClusterError", reply
    assert fragment in reply["error"], reply
    assert closed is hangs_up


# -- the cases: each takes the port, misbehaves, and checks what came back ---


async def truncated_body(port):
    await send_and_vanish(port, struct.pack(">I", 100) + b'{"op": "sta')


async def truncated_header(port):
    await send_and_vanish(port, b"\x00\x00")


async def vanishes_before_reply(port):
    await send_and_vanish(port, frame_message({"op": "stats"}))


async def oversized_prefix(port):
    reply, closed = await exchange(port, struct.pack(">I", 2**31) + b"x" * 64)
    rejected(reply, closed, fragment=f"exceeds {MAX_FRAME_BYTES}", hangs_up=True)


async def just_over_the_cap(port):
    reply, closed = await exchange(port, struct.pack(">I", MAX_FRAME_BYTES + 1))
    rejected(reply, closed, fragment="exceeds", hangs_up=True)


async def not_json(port):
    rejected(*await exchange(port, framed(b"\xff\xfe nonsense")), fragment="undecodable")


async def not_an_object(port):
    rejected(*await exchange(port, framed(b"[1, 2, 3]")), fragment="must be an object")


async def nested_beyond_the_parser(port):
    rejected(*await exchange(port, framed(b"[" * 100_000)), fragment="undecodable")


async def unknown_op(port):
    rejected(*await exchange(port, frame_message({"op": "reboot"})), fragment="unknown server op")


async def no_op_at_all(port):
    rejected(*await exchange(port, frame_message({})), fragment="unknown server op")


def field_case(message: dict, fragment: str):
    async def case(port):
        rejected(*await exchange(port, frame_message(message)), fragment=fragment)

    case.__name__ = f"bad_field_{'_'.join(f'{k}={v!r}' for k, v in message.items())}"
    return case


CASES = [
    truncated_body,
    truncated_header,
    vanishes_before_reply,
    oversized_prefix,
    just_over_the_cap,
    not_json,
    not_an_object,
    nested_beyond_the_parser,
    unknown_op,
    no_op_at_all,
    field_case({"op": "status"}, "status requires 'query_id'"),
    field_case({"op": "poll"}, "poll requires 'query_id'"),
    field_case({"op": "results"}, "results requires 'query_id'"),
    field_case({"op": "status", "query_id": ["cq1"]}, "requires 'query_id'"),
    field_case({"op": "results", "query_id": 7}, "requires 'query_id'"),
    field_case({"op": "status", "query_id": "cq999"}, "unknown cluster query"),
    field_case({"op": "submit"}, "requires 'sql'"),
    field_case({"op": "submit", "sql": 123}, "requires 'sql'"),
    field_case({"op": "submit", "sql": FILTER_SQL, "budget": "lots"}, "'budget'"),
    field_case({"op": "submit", "sql": FILTER_SQL, "budget": True}, "'budget'"),
    field_case({"op": "submit", "sql": FILTER_SQL, "priority": "high"}, "'priority'"),
    field_case({"op": "submit", "sql": FILTER_SQL, "priority": None}, "'priority'"),
]


async def run_sequence(seed: int) -> None:
    order = list(CASES)
    random.Random(seed).shuffle(order)
    with bounded_cluster(SPEC) as cluster:
        async with ClusterServer(cluster) as server:
            for case in order:
                await case(server.port)
                # Whatever that client did, the next one is served normally.
                stats = await request(HOST, server.port, {"op": "stats"}, attempts=1)
                assert stats["ok"], (case.__name__, stats)

            # No rejected submit reached the shard, and the shard is alive.
            assert stats["totals"]["queries"] == 0
            submitted = await request(
                HOST, server.port, {"op": "submit", "sql": FILTER_SQL, "budget": 5}
            )
            assert submitted["ok"], submitted
            while True:
                status = await request(
                    HOST, server.port, {"op": "status", "query_id": submitted["query_id"]}
                )
                assert status["ok"], status
                if status["status"] != "pending" and status["status"] != "running":
                    break
                await asyncio.sleep(0.01)
            assert status["status"] == "completed"
    gc.collect()  # a dropped task's "exception was never retrieved" is logged on collection


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hostile_clients_never_break_the_server(seed, caplog):
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        asyncio.run(asyncio.wait_for(run_sequence(seed), timeout=60))
    assert [record.getMessage() for record in caplog.records] == []


def test_malformed_request_is_answered_on_the_first_attempt(monkeypatch):
    """It used to drop the connection, and request() burned every retry on it."""
    from repro.cluster import server as server_module

    attempts = []
    request_once = server_module._request_once

    async def counted(host, port, message):
        attempts.append(message)
        return await request_once(host, port, message)

    monkeypatch.setattr(server_module, "_request_once", counted)

    async def scenario():
        with bounded_cluster(SPEC) as cluster:
            async with ClusterServer(cluster) as server:
                return await request(HOST, server.port, {"op": "status"}, backoff=0.01)

    reply = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert len(attempts) == 1
    assert reply["ok"] is False and reply["error_type"] == "ClusterError"


def test_client_refuses_an_oversized_reply_prefix():
    """``request()`` reads frames through the same cap as the server."""
    from repro.errors import ClusterError

    async def scenario():
        async def hostile(reader, writer):
            await reader.read(64)
            writer.write(struct.pack(">I", 2**31))
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(hostile, HOST, 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(ClusterError, match="exceeds"):
                await request(HOST, port, {"op": "stats"}, attempts=1)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
