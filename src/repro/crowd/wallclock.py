"""A wall-clock adapter with the :class:`SimulationClock` interface.

The discrete-event :class:`~repro.crowd.clock.SimulationClock` stays the
test/bench substrate — it is what makes same-seed runs byte-identical — but a
coordinator serving live traffic needs simulated delays to take real time.
:class:`WallClock` subclasses the simulation clock and re-anchors *advancing*
to the host's monotonic clock: ``advance_to(t)`` sleeps until wall time
reaches ``t`` and then fires every due event, ``run_next()`` sleeps until the
earliest pending event is actually due.  Scheduling, cancellation, heap
compaction and FIFO tie-breaking are inherited unchanged, so an engine built
on a :class:`WallClock` runs exactly the same event sequence as one built on
a :class:`SimulationClock` — just at real-time speed.

``time_source`` and ``sleep`` are injectable so tests can drive a wall clock
deterministically (or with microscopic real delays).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.crowd.clock import SimulationClock
from repro.errors import CrowdError

__all__ = ["WallClock"]


class WallClock(SimulationClock):
    """A :class:`SimulationClock` whose time is anchored to real time.

    ``now`` reports seconds elapsed on the host's monotonic clock since
    construction (plus ``start``); advancing to a future instant blocks the
    calling thread until that instant arrives.  The clock still never moves
    backwards, and events scheduled for the same instant still fire in
    scheduling order.
    """

    #: Sleep in bounded slices so a long wait stays interruptible (a signal,
    #: a ``KeyboardInterrupt``) instead of one multi-minute ``sleep``.
    MAX_SLEEP_SLICE = 0.5

    def __init__(
        self,
        start: float = 0.0,
        *,
        time_source: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(start)
        self._time_source = time_source
        self._sleep = sleep
        self._epoch = time_source() - start

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds elapsed on the wall since the clock was constructed."""
        wall = self._time_source() - self._epoch
        if wall > self._now:
            self._now = wall
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback, *, label: str = ""):
        self.now  # sync _now so "in the past" is judged against the wall
        return super().schedule_at(time, callback, label=label)

    # -- advancing -----------------------------------------------------------

    def _sleep_until(self, target: float) -> None:
        while True:
            remaining = target - (self._time_source() - self._epoch)
            if remaining <= 0:
                return
            self._sleep(min(remaining, self.MAX_SLEEP_SLICE))

    def advance_to(self, time: float) -> int:
        """Block until wall time reaches ``time``, then fire every due event.

        Wall time keeps moving while we sleep, so the batch fired covers
        everything due by the instant the sleep returns — an event whose
        deadline passed in real time is due, whatever target the caller
        named.
        """
        if time < self.now:
            raise CrowdError(f"cannot rewind clock from {self._now:.3f} to {time:.3f}")
        self._sleep_until(time)
        return super().advance_to(max(time, self._time_source() - self._epoch))

    def run_next(self) -> bool:
        """Sleep until the earliest pending event is due, then fire every due event."""
        when = self.next_event_time()
        if when is None:
            return False
        self.advance_to(max(when, self.now))
        return True

    def __repr__(self) -> str:
        return f"WallClock(now={self.now:.3f}s, pending={self.pending_events})"
