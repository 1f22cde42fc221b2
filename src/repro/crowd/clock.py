"""Discrete-event simulated clock.

Everything latency-related in the crowd substrate (HIT acceptance delays,
per-item work time, platform polling) is expressed in *simulated seconds* on a
:class:`SimulationClock`.  The engine scheduler advances the clock while HITs are
outstanding, which makes end-to-end latency experiments (E10) deterministic
and fast regardless of how long real turkers would take.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CrowdError

__all__ = ["SimulationClock", "ScheduledEvent"]


@dataclass(eq=False, slots=True)
class ScheduledEvent:
    """An event scheduled on the simulation clock; the handle to cancel it.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which keeps runs deterministic: the clock's heap orders them by
    ``(time, sequence)``.
    """

    time: float
    sequence: int
    callback: Callable[[], Any]
    label: str = ""
    cancelled: bool = False
    _clock: "SimulationClock | None" = field(default=None, repr=False)

    def cancel(self) -> None:
        """Prevent the event from firing when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._clock is not None:
            self._clock._note_cancelled()


class SimulationClock:
    """A heap-based discrete-event scheduler.

    The heap holds ``(time, sequence, event)`` entries: the sequence number
    is unique, so entries order by ``(time, sequence)`` in native tuple
    comparison and the :class:`ScheduledEvent` is never compared.  The clock
    never moves backwards.  Callbacks may schedule further events; those are
    honoured as long as they are not in the past.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._events: list[tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        #: Cancelled events still sitting in the heap.  Kept exact so
        #: :attr:`pending_events` is O(1) and the heap can be compacted
        #: lazily once cancellations dominate.
        self._cancelled_in_heap = 0

    # -- inspection ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events that have not yet fired or been cancelled."""
        return len(self._events) - self._cancelled_in_heap

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or None if the queue is empty."""
        while self._events and self._events[0][2].cancelled:
            heapq.heappop(self._events)[2]._clock = None
            self._cancelled_in_heap -= 1
        return self._events[0][0] if self._events else None

    # -- cancellation bookkeeping --------------------------------------------

    #: Compact only once this many events are cancelled — tiny heaps are
    #: cheaper to pop through than to rebuild.
    COMPACT_MIN_CANCELLED = 16
    #: Absolute ceiling on dead heap entries: compact regardless of the
    #: cancelled fraction once this many accumulate, so a long-lived engine
    #: with a large live heap and a slow trickle of far-future cancellations
    #: doesn't hold dead events (and their callback closures) indefinitely.
    COMPACT_MAX_CANCELLED = 4096

    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel`; compacts when bloated.

        Mass cancellations (a finished query abandoning speculative HITs)
        used to leave dead entries in the heap until their time came up,
        bloating every push/pop.  Rebuild the heap from the live events once
        more than half of it is cancelled, or — whatever the fraction — once
        :attr:`COMPACT_MAX_CANCELLED` dead entries have accumulated.
        """
        self._cancelled_in_heap += 1
        cancelled = self._cancelled_in_heap
        if (
            cancelled * 2 > len(self._events) and cancelled > self.COMPACT_MIN_CANCELLED
        ) or cancelled >= self.COMPACT_MAX_CANCELLED:
            self._events = [entry for entry in self._events if not entry[2].cancelled]
            heapq.heapify(self._events)
            self._cancelled_in_heap = 0

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], Any], *, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise CrowdError(
                f"cannot schedule event at {time:.3f}, clock is already at {self._now:.3f}"
            )
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, label, _clock=self)
        heapq.heappush(self._events, (time, sequence, event))
        return event

    def schedule_in(self, delay: float, callback: Callable[[], Any], *, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise CrowdError(f"cannot schedule event {delay:.3f}s in the past")
        return self.schedule_at(self._now + delay, callback, label=label)

    # -- advancing -----------------------------------------------------------

    def advance_to(self, time: float) -> int:
        """Advance to ``time``, firing every due event.  Returns events fired."""
        if time < self._now:
            raise CrowdError(f"cannot rewind clock from {self._now:.3f} to {time:.3f}")
        fired = 0
        while self._events and self._events[0][0] <= time:
            due, _sequence, event = heapq.heappop(self._events)
            # Popped events are out of the heap: late cancels must not count.
            event._clock = None
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = due
            event.callback()
            fired += 1
        self._now = max(self._now, time)
        return fired

    def restore_time(self, now: float) -> None:
        """Jump the idle clock forward to ``now`` (snapshot recovery).

        Only legal while no events are pending and only forward — a clock
        with scheduled work cannot be teleported without reordering it,
        and the no-rewind invariant stands during recovery too.
        """
        if self.pending_events:
            raise CrowdError(
                f"cannot restore clock time with {self.pending_events} events pending"
            )
        if now < self._now:
            raise CrowdError(f"cannot rewind clock from {self._now:.3f} to {now:.3f}")
        self._now = float(now)

    def run_next(self) -> bool:
        """Fire every event due at the earliest pending instant.

        Returns False when idle.
        """
        when = self.next_event_time()
        if when is None:
            return False
        self.advance_to(when)
        return True

    def run_until_idle(self, *, max_events: int = 1_000_000) -> int:
        """Fire events until none remain.  Returns the number fired.

        Raises when events remain after ``max_events`` have fired: a run
        that ends with exactly ``max_events`` fired did quiesce.
        """
        fired = 0
        while (when := self.next_event_time()) is not None:
            if fired >= max_events:
                raise CrowdError(f"simulation did not quiesce after {max_events} events")
            # A wall clock may already be past ``when``; never ask to rewind.
            fired += self.advance_to(max(when, self.now))
        return fired

    def __repr__(self) -> str:
        return f"SimulationClock(now={self._now:.1f}s, pending={self.pending_events})"
