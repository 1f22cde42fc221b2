"""Test doubles and helpers that several test modules share.

pytest puts the directory of the suite's ``conftest.py`` on ``sys.path``, so
a test module imports these as ``from support import ...``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Iterable

from repro.cluster import EngineSpec, ShardCoordinator
from repro.cluster.serialization import decode_message
from repro.cluster.server import _read_frame
from repro.crowd.hit import FormField, HITItem
from repro.crowd.oracle import AnswerOracle
from repro.errors import WorkerError


def read_frames(chunks: Iterable[bytes]) -> list[dict[str, Any]]:
    """Every message of a byte stream, read the way the server reads a socket.

    A :class:`asyncio.StreamReader` is fed one chunk per event-loop turn
    while :func:`~repro.cluster.server._read_frame` and
    :func:`~repro.cluster.serialization.decode_message` read it, until the
    stream ends.  A clean end between frames returns what was read; a stream
    that ends inside a frame raises :class:`asyncio.IncompleteReadError`.
    """

    async def read() -> list[dict[str, Any]]:
        reader = asyncio.StreamReader()

        async def feed() -> None:
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        messages = []
        try:
            while True:
                try:
                    body = await _read_frame(reader)
                except asyncio.IncompleteReadError as error:
                    if error.partial:
                        raise
                    return messages
                messages.append(decode_message(body))
        finally:
            feeder.cancel()

    return asyncio.run(read())


class CallbackOracle(AnswerOracle):
    """An oracle assembled from plain callables.

    Workload modules subclass :class:`AnswerOracle`; a test wires one up
    from lambdas::

        oracle = CallbackOracle(predicate=lambda item: item.payload["price"] > 10)
    """

    def __init__(
        self,
        *,
        form: Callable[[HITItem, FormField], str] | None = None,
        predicate: Callable[[HITItem], bool] | None = None,
        pair: Callable[[HITItem, HITItem], bool] | None = None,
        comparison: Callable[[HITItem], str] | None = None,
        rating: Callable[[HITItem], float] | None = None,
        wrong_form: Callable[[HITItem, FormField], str] | None = None,
    ) -> None:
        self._form = form
        self._predicate = predicate
        self._pair = pair
        self._comparison = comparison
        self._rating = rating
        self._wrong_form = wrong_form

    def form_answer(self, item: HITItem, field: FormField) -> str:
        if self._form is None:
            return super().form_answer(item, field)
        return self._form(item, field)

    def predicate_answer(self, item: HITItem) -> bool:
        if self._predicate is None:
            return super().predicate_answer(item)
        return bool(self._predicate(item))

    def pair_matches(self, left: HITItem, right: HITItem) -> bool:
        if self._pair is None:
            return super().pair_matches(left, right)
        return bool(self._pair(left, right))

    def comparison_answer(self, item: HITItem) -> str:
        if self._comparison is None:
            return super().comparison_answer(item)
        answer = self._comparison(item)
        if answer not in ("left", "right"):
            raise WorkerError(f"comparison oracle must return 'left' or 'right', got {answer!r}")
        return answer

    def rating_answer(self, item: HITItem) -> float:
        if self._rating is None:
            return super().rating_answer(item)
        return float(self._rating(item))

    def plausible_wrong_form_answer(self, item: HITItem, field: FormField) -> str:
        if self._wrong_form is None:
            return super().plausible_wrong_form_answer(item, field)
        return self._wrong_form(item, field)


def bounded_cluster(
    spec: EngineSpec, n_shards: int = 1, *, call_timeout: float = 20.0, **kwargs: Any
) -> ShardCoordinator:
    """A coordinator that gives up on an op reply after ``call_timeout`` s.

    The class default (300 s) would let a worker that stops answering hold
    a test for five minutes.
    """
    cluster = ShardCoordinator(spec, n_shards, **kwargs)
    cluster.call_timeout = call_timeout
    return cluster
