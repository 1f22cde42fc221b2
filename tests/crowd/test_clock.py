"""Unit tests for the discrete-event simulation clock."""

import pytest

from repro.crowd import SimulationClock
from repro.crowd.wallclock import WallClock
from repro.errors import CrowdError


def _wall_clock() -> WallClock:
    """A wall clock on an injected time source whose sleep advances it."""
    now = [0.0]

    def sleep(seconds: float) -> None:
        now[0] += seconds

    return WallClock(time_source=lambda: now[0], sleep=sleep)


CLOCKS = pytest.mark.parametrize("make_clock", [SimulationClock, _wall_clock], ids=["sim", "wall"])


class TestScheduling:
    def test_events_fire_in_time_order(self):
        clock = SimulationClock()
        fired = []
        clock.schedule_at(10, lambda: fired.append("b"))
        clock.schedule_at(5, lambda: fired.append("a"))
        clock.schedule_at(20, lambda: fired.append("c"))
        clock.advance_to(15)
        assert fired == ["a", "b"]
        assert clock.now == 15

    def test_same_time_events_fire_fifo(self):
        clock = SimulationClock()
        fired = []
        for label in "abc":
            clock.schedule_at(5, lambda label=label: fired.append(label))
        clock.advance_to(5)
        assert fired == ["a", "b", "c"]

    def test_schedule_in_past_rejected(self):
        clock = SimulationClock(start=100)
        with pytest.raises(CrowdError):
            clock.schedule_at(50, lambda: None)
        with pytest.raises(CrowdError):
            clock.schedule_in(-1, lambda: None)

    def test_rewind_rejected(self):
        clock = SimulationClock(start=10)
        with pytest.raises(CrowdError):
            clock.advance_to(5)

    def test_cancelled_events_do_not_fire(self):
        clock = SimulationClock()
        fired = []
        event = clock.schedule_in(5, lambda: fired.append("x"))
        event.cancel()
        clock.advance_to(clock.now + 10)
        assert fired == []
        assert clock.pending_events == 0

    def test_callbacks_can_schedule_more_events(self):
        clock = SimulationClock()
        fired = []

        def chain():
            fired.append(clock.now)
            if len(fired) < 3:
                clock.schedule_in(10, chain)

        clock.schedule_in(10, chain)
        clock.run_until_idle()
        assert fired == [10, 20, 30]

    def test_run_next_and_next_event_time(self):
        clock = SimulationClock()
        assert clock.next_event_time() is None
        assert clock.run_next() is False
        clock.schedule_at(3, lambda: None)
        assert clock.next_event_time() == 3
        assert clock.run_next() is True
        assert clock.now == 3

    def test_run_until_idle_guard_against_infinite_chains(self):
        clock = SimulationClock()

        def forever():
            clock.schedule_in(1, forever)

        clock.schedule_in(1, forever)
        with pytest.raises(CrowdError):
            clock.run_until_idle(max_events=100)

    def test_run_until_idle_counts_the_events_it_fires(self):
        clock = SimulationClock()
        clock.schedule_in(1, lambda: None)
        clock.schedule_in(2, lambda: None)
        assert clock.run_until_idle() == 2

    @CLOCKS
    def test_run_next_fires_every_event_at_the_earliest_instant(self, make_clock):
        clock = make_clock()
        fired = []
        for when in (5, 5, 6):
            clock.schedule_at(when, lambda when=when: fired.append(when))
        assert clock.run_next() is True
        assert fired == [5, 5]
        assert clock.pending_events == 1

    @CLOCKS
    def test_run_until_idle_counts_events_not_instants(self, make_clock):
        clock = make_clock()
        for when in (5, 5, 6):
            clock.schedule_at(when, lambda: None)
        assert clock.run_until_idle() == 3

    @CLOCKS
    def test_max_events_guard_counts_events(self, make_clock):
        clock = make_clock()
        fired = []

        def pair():
            # Two events per instant, forever.
            fired.append(clock.now)
            if len(fired) % 2:
                clock.schedule_in(1, pair)
                clock.schedule_in(1, pair)

        clock.schedule_in(1, pair)
        clock.schedule_in(1, pair)
        with pytest.raises(CrowdError):
            clock.run_until_idle(max_events=10)
        assert len(fired) == 10

    @CLOCKS
    def test_a_run_that_fires_exactly_max_events_quiesced(self, make_clock):
        clock = make_clock()
        for when in (1, 2, 3):
            clock.schedule_at(when, lambda: None)
        assert clock.run_until_idle(max_events=3) == 3
        assert clock.pending_events == 0


class TestHeapCompaction:
    """Pin the lazy heap-compaction triggers (fraction + absolute floor)."""

    def test_no_compaction_below_minimum(self):
        clock = SimulationClock()
        events = [clock.schedule_in(i + 1, lambda: None) for i in range(10)]
        for event in events[:8]:
            event.cancel()
        # 8 of 10 cancelled exceeds the half-fraction, but not the minimum.
        assert len(clock._events) == 10
        assert clock.pending_events == 2

    def test_compaction_when_cancellations_dominate(self):
        clock = SimulationClock()
        events = [clock.schedule_in(i + 1, lambda: None) for i in range(40)]
        for event in events[:20]:
            event.cancel()
        # 20 of 40 is not *more* than half; one more tips it over.
        assert len(clock._events) == 40
        events[20].cancel()
        assert len(clock._events) == 19
        assert clock.pending_events == 19
        assert clock.run_until_idle() == 19

    def test_compaction_at_absolute_floor_with_large_live_heap(self):
        # A long-lived engine: a big live heap and a minority of cancels.
        clock = SimulationClock()
        floor = SimulationClock.COMPACT_MAX_CANCELLED
        live = [clock.schedule_in(i + 1, lambda: None) for i in range(3 * floor)]
        doomed = live[:floor]
        for event in doomed[:-1]:
            event.cancel()
        # Still a minority of the heap, below the absolute floor: all retained.
        assert len(clock._events) == 3 * floor
        doomed[-1].cancel()
        # Hitting the floor compacts even though cancelled < half the heap.
        assert len(clock._events) == 2 * floor
        assert clock.pending_events == 2 * floor

    def test_cancelled_event_never_fires_after_compaction(self):
        clock = SimulationClock()
        fired = []
        keep = clock.schedule_in(5, lambda: fired.append("keep"))
        events = [clock.schedule_in(1, lambda: fired.append("dead")) for _ in range(30)]
        for event in events:
            event.cancel()
        clock.run_until_idle()
        assert fired == ["keep"]
        assert keep.cancelled is False
