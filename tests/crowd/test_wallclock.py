"""WallClock: the real-time adapter over the simulation clock.

``time_source`` and ``sleep`` are injectable, so these tests drive a wall
clock with a fake monotonic time: a sleep advances fake time instead of
blocking, which makes the sleeping/firing behavior fully deterministic.
"""

import pytest

from repro.crowd.clock import SimulationClock
from repro.crowd.wallclock import WallClock
from repro.errors import CrowdError


class FakeTime:
    """A controllable monotonic clock whose sleep() advances it."""

    def __init__(self, start: float = 1000.0):
        self.now = start
        self.sleeps: list[float] = []

    def time_source(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def make_clock(start: float = 0.0) -> tuple[WallClock, FakeTime]:
    fake = FakeTime()
    clock = WallClock(start, time_source=fake.time_source, sleep=fake.sleep)
    return clock, fake


class TestWallTime:
    def test_now_tracks_the_wall(self):
        clock, fake = make_clock()
        assert clock.now == 0.0
        fake.now += 2.5
        assert clock.now == 2.5

    def test_now_never_rewinds(self):
        clock, fake = make_clock()
        fake.now += 5.0
        assert clock.now == 5.0
        # A (hypothetically) stalled time source cannot move `now` back.
        fake.now -= 1.0
        assert clock.now == 5.0

    def test_start_offset_respected(self):
        fake = FakeTime()
        clock = WallClock(100.0, time_source=fake.time_source, sleep=fake.sleep)
        assert clock.now == 100.0
        fake.now += 3.0
        assert clock.now == 103.0


class TestAdvancing:
    def test_advance_sleeps_until_target_then_fires(self):
        clock, fake = make_clock()
        fired: list[str] = []
        clock.schedule_at(2.0, lambda: fired.append("a"), label="a")
        clock.schedule_at(10.0, lambda: fired.append("late"), label="late")
        n = clock.advance_to(2.0)
        assert n == 1
        assert fired == ["a"]
        assert fake.sleeps  # really waited
        assert sum(fake.sleeps) == pytest.approx(2.0)

    def test_sleep_is_sliced_for_interruptibility(self):
        clock, fake = make_clock()
        clock.schedule_at(2.0, lambda: None)
        clock.advance_to(2.0)
        assert all(s <= WallClock.MAX_SLEEP_SLICE for s in fake.sleeps)
        assert len(fake.sleeps) >= 4  # 2.0s in <=0.5s slices

    def test_events_due_while_sleeping_also_fire(self):
        """Wall time overshooting the target must not strand due events."""
        fake = FakeTime()

        def oversleep(seconds: float) -> None:
            fake.sleep(seconds + 0.8)  # a slow host: every sleep runs long

        clock = WallClock(time_source=fake.time_source, sleep=oversleep)
        fired: list[str] = []
        clock.schedule_at(1.0, lambda: fired.append("a"))
        clock.schedule_at(1.25, lambda: fired.append("b"))
        # Target 1.0, but the first 0.5s sleep slice returns at wall 1.3:
        # the batch fired covers everything due by the instant the sleep
        # actually ended, not just the named target.
        assert clock.advance_to(1.0) == 2
        assert fired == ["a", "b"]
        assert clock.now >= 1.25

    def test_advance_into_the_past_raises(self):
        clock, fake = make_clock()
        fake.now += 5.0
        assert clock.now == 5.0
        with pytest.raises(CrowdError, match="rewind"):
            clock.advance_to(1.0)

    def test_run_next_sleeps_to_earliest_event(self):
        clock, fake = make_clock()
        fired: list[str] = []
        clock.schedule_at(0.75, lambda: fired.append("x"))
        assert clock.run_next() is True
        assert fired == ["x"]
        assert sum(fake.sleeps) == pytest.approx(0.75)
        assert clock.run_next() is False

    def test_run_until_idle_drains_in_order(self):
        clock, fake = make_clock()
        fired: list[str] = []
        clock.schedule_at(0.2, lambda: fired.append("a"))
        clock.schedule_at(0.1, lambda: fired.append("b"))
        clock.schedule_at(0.2, lambda: fired.append("c"))  # FIFO at same instant
        clock.run_until_idle()
        assert fired == ["b", "a", "c"]


    def test_run_until_idle_fires_events_the_wall_already_passed(self):
        clock, fake = make_clock()
        clock.schedule_at(1.0, lambda: None)
        fake.now += 5.0  # the wall moved on without anyone advancing
        assert clock.run_until_idle() == 1
        assert clock.now == 5.0


class TestSimulationParity:
    def test_same_event_sequence_as_simulation_clock(self):
        """Inherited scheduling semantics: the firing order is identical."""

        def drive(clock) -> list[str]:
            fired: list[str] = []
            clock.schedule_at(3.0, lambda: fired.append("late"))
            early = clock.schedule_at(1.0, lambda: fired.append("early"))
            clock.schedule_at(1.0, lambda: fired.append("tie"))
            early.cancel()
            clock.run_until_idle()
            return fired

        fake = FakeTime()
        wall = WallClock(time_source=fake.time_source, sleep=fake.sleep)
        assert drive(wall) == drive(SimulationClock())
