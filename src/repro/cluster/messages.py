"""Message transports for coordinator ↔ worker traffic.

A :class:`Transport` is anything that can send and receive whole protocol
messages (dicts).  The default :class:`PipeTransport` runs over a
``multiprocessing`` pipe but still moves the *serialized* frames from
:mod:`repro.cluster.serialization` — never pickled Python objects — so the
wire format is identical to what a socket transport would carry, and the
serialization round-trip is exercised on every single call.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.cluster.serialization import decode_message, encode_message
from repro.errors import ClusterError

__all__ = ["Transport", "PipeTransport", "reply_ok", "reply_error"]


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


def reply_error(
    message: str,
    *,
    error_type: str | None = None,
    retry_after: float | None = None,
) -> dict[str, Any]:
    """A failed reply; the coordinator re-raises it as a typed error.

    ``error_type`` lets the receiving side rebuild the right exception class
    instead of a generic :class:`ClusterError`; ``retry_after`` carries the
    backpressure hint of an ``"overloaded"`` rejection so clients can pace
    their retry instead of hammering a saturated shard.
    """
    reply: dict[str, Any] = {"ok": False, "error": message}
    if error_type is not None:
        reply["error_type"] = error_type
    if retry_after is not None:
        reply["retry_after"] = retry_after
    return reply
