"""Unit tests for the marketplace circuit breaker state machine.

Everything here drives a bare :class:`MarketplaceCircuitBreaker` against a
:class:`SimulationClock` directly — no engine, no marketplace — so each
transition of the closed → open → half-open machine is pinned down in
isolation.  The integrated behaviour (breaker + faults + Task Manager) is
covered by the ``breaker-recovery`` chaos scenario and the e19 benchmark.
"""

import pytest

from repro.crowd.breaker import (
    BACKOFF,
    MAX_COOLDOWN,
    BreakerConfig,
    BreakerStats,
    MarketplaceCircuitBreaker,
)
from repro.crowd.clock import SimulationClock
from repro.errors import CrowdError

pytestmark = pytest.mark.overload


def make_breaker(clock=None, **overrides) -> MarketplaceCircuitBreaker:
    defaults = dict(failure_threshold=3, cooldown=100.0)
    defaults.update(overrides)
    return MarketplaceCircuitBreaker(
        BreakerConfig(**defaults), clock=clock if clock is not None else SimulationClock()
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown": 0.0},
            {"cooldown": -5.0},
            {"cooldown": MAX_COOLDOWN + 1.0},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(CrowdError):
            BreakerConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = BreakerConfig()
        assert config.failure_threshold == 5
        assert config.cooldown == 300.0


class TestStateMachine:
    def test_starts_closed_and_allows_posting(self):
        breaker = make_breaker()
        assert breaker.state == breaker.CLOSED
        assert breaker.allow_posting()
        assert breaker.retry_at is None

    def test_trips_open_after_consecutive_failures(self):
        breaker = make_breaker()
        for _ in range(3):
            assert breaker.state == breaker.CLOSED
            breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.stats.trips == 1
        assert not breaker.allow_posting()
        assert breaker.retry_at == breaker.clock.now + 100.0

    def test_success_resets_the_consecutive_count(self):
        breaker = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert breaker.state == breaker.OPEN

    def test_failures_while_open_carry_no_new_information(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        retry_at = breaker.retry_at
        # Stragglers: HITs posted before the trip keep expiring while open.
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.stats.trips == 1
        assert breaker.retry_at == retry_at
        assert breaker.stats.failures == 5

    def test_scheduled_reopen_turns_half_open_on_the_clock(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert clock.pending_events == 1  # the breaker:reopen event
        clock.run_until_idle()
        assert clock.now == 100.0
        assert breaker.state == breaker.HALF_OPEN
        assert breaker.stats.reopens == 1

    def test_half_open_admits_a_single_probe(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.run_until_idle()
        assert breaker.allow_posting()
        breaker.record_post()
        assert breaker.stats.probes_posted == 1
        assert not breaker.allow_posting()  # one probe in flight, cap reached

    def test_probe_success_closes_and_resets_the_cooldown(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.run_until_idle()
        breaker.record_post()
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.stats.closes == 1
        assert breaker.retry_at is None
        # The cooldown reset: a fresh trip waits the base 100s again.
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_at == clock.now + 100.0

    def test_probe_failure_retrips_with_exponential_backoff(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.run_until_idle()
        breaker.record_post()
        breaker.record_failure()  # the probe died
        assert breaker.state == breaker.OPEN
        assert breaker.stats.trips == 2
        assert breaker.retry_at == clock.now + 100.0 * BACKOFF

    def test_backoff_is_capped_at_max_cooldown(self):
        clock = SimulationClock()
        # MAX/3 -> 2 MAX/3 -> MAX (capped) -> MAX ...
        breaker = make_breaker(clock, cooldown=MAX_COOLDOWN / 3)
        for _ in range(3):
            breaker.record_failure()
        for _ in range(4):  # four failed probes in a row
            clock.run_until_idle()
            breaker.record_post()
            breaker.record_failure()
        assert breaker.retry_at == clock.now + MAX_COOLDOWN

    def test_a_cooldown_at_the_ceiling_backs_off_no_further(self):
        clock = SimulationClock()
        breaker = make_breaker(clock, cooldown=MAX_COOLDOWN)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_at == clock.now + MAX_COOLDOWN
        clock.run_until_idle()
        breaker.record_post()
        breaker.record_failure()  # the probe died
        assert breaker.retry_at == clock.now + MAX_COOLDOWN

    def test_lazy_reopen_when_polled_past_the_retry_time(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        # The clock jumps past the retry point without firing the scheduled
        # event — exactly what WAL recovery does: clock events are not
        # journalled, so the reopen event is gone and ``restore_time`` lands
        # past the retry point.  The first posting poll must lazily reopen
        # rather than refuse forever.
        clock._events[0][2].cancel()  # the lost breaker:reopen event
        clock.restore_time(150.0)
        assert breaker.allow_posting()
        assert breaker.state == breaker.HALF_OPEN

    def test_lazy_reopen_when_polled_at_exactly_the_retry_time(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock._events[0][2].cancel()  # the lost breaker:reopen event
        clock.restore_time(breaker.retry_at)
        assert breaker.allow_posting()
        assert breaker.state == breaker.HALF_OPEN

    def test_trip_without_a_clock_is_a_hard_error(self):
        breaker = MarketplaceCircuitBreaker(BreakerConfig(failure_threshold=1), clock=None)
        with pytest.raises(CrowdError):
            breaker.record_failure()


class TestBookkeeping:
    def test_blocked_posts_are_counted(self):
        breaker = make_breaker()
        breaker.record_blocked()
        breaker.record_blocked()
        assert breaker.stats.posts_blocked == 2

    def test_describe_mentions_state_and_blocks(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        breaker.record_blocked()
        text = breaker.describe()
        assert "state open" in text
        assert "retry at" in text
        assert "1 post(s) blocked" in text

    def test_describe_gives_no_retry_time_once_half_open(self):
        clock = SimulationClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.run_until_idle()
        # Half-open keeps ``_retry_at`` until a probe succeeds; it is not shown.
        assert breaker.state == breaker.HALF_OPEN and breaker._retry_at is not None
        assert "retry at" not in breaker.describe()

    def test_stats_start_zeroed(self):
        assert MarketplaceCircuitBreaker().stats == BreakerStats()
