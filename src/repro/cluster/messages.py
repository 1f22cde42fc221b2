"""Message transports and replies for coordinator ↔ worker traffic.

A :class:`Transport` is anything that can send and receive whole protocol
messages (dicts).  The default :class:`PipeTransport` runs over a
``multiprocessing`` pipe but still moves the *serialized* frames from
:mod:`repro.cluster.serialization` — never pickled Python objects — so the
wire format is identical to what a socket transport would carry, and the
serialization round-trip is exercised on every single call.

Every reply is a dict with an ``ok`` flag.  The error codec lives here
once: :func:`reply_error` is where an exception becomes a reply (in the
shard worker and in the TCP server alike), and :func:`raise_for_reply` is
where a reply becomes a typed exception again (in the coordinator and in
TCP clients).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.cluster.serialization import decode_message, encode_message
from repro.errors import ClusterError, EngineOverloadedError, QurkError

__all__ = ["Transport", "PipeTransport", "reply_ok", "reply_error", "raise_for_reply"]


class Transport(Protocol):
    """Bidirectional, message-at-a-time channel between two cluster peers."""

    def send(self, message: dict[str, Any]) -> None: ...

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a message is ready within ``timeout`` seconds.

        Lets a caller wait in bounded slices — the coordinator checks peer
        liveness between them, a live worker runs a scheduling pass — instead
        of blocking in :meth:`recv` forever.
        """
        ...

    def recv(self) -> dict[str, Any]: ...

    def close(self) -> None: ...


class PipeTransport:
    """A :class:`Transport` over one end of a ``multiprocessing.Pipe``.

    Messages travel as encoded JSON byte payloads (``send_bytes``), so both
    endpoints exercise the exact bytes a socket transport would exchange.
    """

    def __init__(self, connection) -> None:
        self._connection = connection

    def send(self, message: dict[str, Any]) -> None:
        self._connection.send_bytes(encode_message(message))

    def poll(self, timeout: float = 0.0) -> bool:
        return self._connection.poll(timeout)

    def recv(self) -> dict[str, Any]:
        try:
            payload = self._connection.recv_bytes()
        except EOFError as error:
            raise ClusterError("cluster peer closed the connection") from error
        return decode_message(payload)

    def close(self) -> None:
        self._connection.close()


def reply_ok(**fields: Any) -> dict[str, Any]:
    """A successful reply; extra fields carry the op's payload."""
    reply = {"ok": True}
    reply.update(fields)
    return reply


def reply_error(error: str | QurkError) -> dict[str, Any]:
    """A failed reply: the one place an error becomes a message.

    A plain string travels as it is.  A typed error carries its class name
    as ``error_type`` so :func:`raise_for_reply` can rebuild it on the far
    side; an overload becomes ``"overloaded"`` plus its ``retry_after``
    hint, so clients can pace their retry instead of hammering a saturated
    shard.
    """
    if isinstance(error, str):
        return {"ok": False, "error": error}
    reply: dict[str, Any] = {
        "ok": False,
        "error": f"{type(error).__name__}: {error}",
        "error_type": type(error).__name__,
    }
    if isinstance(error, EngineOverloadedError):
        reply.update(error_type="overloaded", retry_after=error.retry_after)
    return reply


def raise_for_reply(reply: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    """Convert a structured error reply back into its typed exception.

    Successful replies pass straight through.  An ``"overloaded"`` reply
    becomes :class:`~repro.errors.EngineOverloadedError` with its
    ``retry_after`` hint intact; anything else raises
    :class:`~repro.errors.ClusterError`.  ``prefix`` names where the reply
    came from (the coordinator's ``"shard N: "``).  Clients that prefer
    inspecting the dict can simply not call this.
    """
    if reply.get("ok"):
        return reply
    message = f"{prefix}{reply.get('error', 'unknown failure')}"
    if reply.get("error_type") == "overloaded":
        raise EngineOverloadedError(message, retry_after=float(reply.get("retry_after", 1.0)))
    raise ClusterError(message)
