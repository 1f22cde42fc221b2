"""A minimal asyncio request/response front end for the cluster.

Clients speak the same length-prefixed JSON frames as the internal
coordinator ↔ worker protocol (:mod:`repro.cluster.serialization`), over a
plain TCP socket:

``{"op": "submit", "sql": ..., "budget"?, "priority"?}``
    → ``{"ok": true, "query_id": "cq1", "shard": 0}``
``{"op": "status", "query_id": "cq1"}``
    → ``{"ok": true, "status": "running", "results_emitted": 3, "error": null}``
``{"op": "results", "query_id": "cq1"}`` / ``{"op": "poll", ...}``
    → ``{"ok": true, "rows": {"schema": [...], "values": [...]}}``
``{"op": "stats"}``
    → merged cluster totals.

Result rows are encoded once, on the shard that produced them.  The
coordinator hands back a :class:`~repro.cluster.serialization.WireRows` view
of the shard's reply, and :func:`encode_rows` of that view is the shard's
payload itself, so the server forwards ``rows`` without building a row or
re-tagging a value.  A result value JSON cannot carry fails on the shard as
a :class:`~repro.errors.ClusterError` and reaches the client as an error
reply.

A request that cannot be served — malformed JSON, an unknown op, a missing
or wrong-typed field, an oversized frame — gets ``{"ok": false, "error":
..., "error_type": ...}`` back; only the oversized frame also costs the
client its connection, since its body is never read.

The server does not drive the shards.  :meth:`ClusterServer.start` tells the
coordinator to go live (:meth:`ShardCoordinator.set_live`), after which each
shard worker advances its own scheduler between messages: submitted queries
progress while nobody is polling, and on a
:class:`~repro.crowd.wallclock.WallClock` engine they progress in real time.
The coordinator's pipe protocol is synchronous, so every coordinator call
runs in the default executor under one lock — held for client requests only.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.messages import raise_for_reply, reply_error
from repro.cluster.serialization import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_rows,
    frame_message,
)
from repro.errors import ClusterError, QurkError

__all__ = ["ClusterServer", "raise_for_reply", "request"]

_HEADER_BYTES = 4


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """The body of the next frame; refuses a prefix above ``MAX_FRAME_BYTES``.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes first
    (``partial`` is empty on a clean close between frames).
    """
    length = int.from_bytes(await reader.readexactly(_HEADER_BYTES), "big")
    if length > MAX_FRAME_BYTES:
        raise ClusterError(f"cluster frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return await reader.readexactly(length)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ClusterServer:
    """Serve a :class:`ShardCoordinator` over asyncio TCP.

    Between :meth:`start` and :meth:`close` the coordinator is live: its
    workers drive themselves, and this class only relays client requests.
    """

    def __init__(
        self,
        coordinator: ShardCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._lock = asyncio.Lock()

    async def start(self) -> None:
        """Set the shards live, then bind the listening socket."""
        await self._coordinator_call(self.coordinator.set_live, True)
        self._server = await asyncio.start_server(self._serve_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening, then hand the shards back to the coordinator's caller."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        await self._coordinator_call(self.coordinator.set_live, False)

    async def __aenter__(self) -> "ClusterServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- coordinator access ------------------------------------------------

    async def _coordinator_call(self, fn, *args, **kwargs):
        """Run one blocking coordinator method without starving the loop."""
        async with self._lock:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, lambda: fn(*args, **kwargs))

    # -- request handling --------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while True:
                body = None
                try:
                    body = await _read_frame(reader)
                    reply = await self._dispatch(decode_message(body))
                except QurkError as error:
                    reply = reply_error(error)
                writer.write(frame_message(reply))
                await writer.drain()
                if body is None:
                    break  # oversized frame: its body was never read, the stream is lost
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the client hung up, between frames or in the middle of one
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client vanished
                pass

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        """Validate one request — it comes from outside — and relay it.

        A missing or wrong-typed field is the client's structured
        :class:`ClusterError` here, never a ``KeyError`` that drops the
        connection or a ``TypeError`` inside a shard worker.
        """
        op = message.get("op")
        if op == "submit":
            sql = message.get("sql")
            budget = message.get("budget")
            priority = message.get("priority", 1.0)
            if not isinstance(sql, str):
                raise ClusterError("submit requires 'sql' (a string)")
            if budget is not None and not _is_number(budget):
                raise ClusterError("submit takes 'budget' as a number or null")
            if not _is_number(priority):
                raise ClusterError("submit takes 'priority' as a number")
            handle = (
                await self._coordinator_call(
                    self.coordinator.submit_many,
                    [{"sql": sql, "budget": budget, "priority": priority}],
                )
            )[0]
            return {"ok": True, "query_id": handle.query_id, "shard": handle.shard}
        if op in ("status", "poll", "results"):
            query_id = message.get("query_id")
            if not isinstance(query_id, str):
                raise ClusterError(f"{op} requires 'query_id' (a string)")
            if op == "status":
                status = await self._coordinator_call(self.coordinator.status, query_id)
                return {"ok": True, **status}
            fetch = self.coordinator.poll if op == "poll" else self.coordinator.results
            rows = await self._coordinator_call(fetch, query_id)
            return {"ok": True, "rows": encode_rows(rows)}
        if op == "stats":
            stats = await self._coordinator_call(self.coordinator.stats)
            return {
                "ok": True,
                "totals": stats.totals,
                "peak_rss_kb_sum": stats.peak_rss_kb_sum,
                "peak_rss_kb_max": stats.peak_rss_kb_max,
            }
        raise ClusterError(f"unknown server op {op!r}")


#: Default bounded-retry policy for the one-shot client.
_REQUEST_ATTEMPTS = 3
_REQUEST_BACKOFF = 0.1


async def _request_once(host: str, port: int, message: dict[str, Any]) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(frame_message(message))
        await writer.drain()
        return decode_message(await _read_frame(reader))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def request(
    host: str,
    port: int,
    message: dict[str, Any],
    *,
    attempts: int = _REQUEST_ATTEMPTS,
    backoff: float = _REQUEST_BACKOFF,
) -> dict[str, Any]:
    """One-shot client: send a frame, await the reply frame.

    Connect and read failures (server restarting, connection reset mid-
    reply) are retried with exponential backoff up to ``attempts`` times,
    then surface as a terminal :class:`~repro.errors.ClusterError` naming
    every attempt's failure — never an infinite hang, never a bare socket
    traceback.

    Application-level errors are terminal immediately: an ``{"ok": false}``
    reply means the server is up and answered deliberately, so overload
    rejections and validation failures are returned on the first attempt —
    retrying an overloaded cluster inside the retry loop would amplify the
    very load that triggered the rejection (honor ``retry_after`` instead).
    """
    if attempts < 1:
        raise ClusterError(f"request needs at least 1 attempt, got {attempts}")
    failures: list[str] = []
    for attempt in range(attempts):
        if attempt:
            await asyncio.sleep(backoff * 2 ** (attempt - 1))
        try:
            return await _request_once(host, port, message)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as error:
            failures.append(f"attempt {attempt + 1}: {type(error).__name__}: {error}")
    raise ClusterError(
        f"request to {host}:{port} failed after {attempts} attempt(s): "
        + "; ".join(failures)
    )
