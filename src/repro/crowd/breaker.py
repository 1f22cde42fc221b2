"""Marketplace circuit breaker: stop hammering a degraded crowd market.

When the marketplace degrades — workers vanish, HITs expire unanswered — the
fault-tolerance layer's instinct is to re-post, which burns posting fees and
floods an already-saturated market.  A :class:`MarketplaceCircuitBreaker`
wraps the Task Manager's single posting choke point with the classic
closed → open → half-open state machine:

* **closed** — posting proceeds normally; consecutive fault-driven failures
  (expired HITs) are counted, and any fully-submitted HIT resets the count.
* **open** — tripped after ``failure_threshold`` consecutive failures.  All
  posting is paused; pending tasks stay queued (already-committed budget for
  expired HITs is refunded by the normal expiry path).  The breaker schedules
  a clock event at its retry time so the engine's event loop keeps moving —
  without it a fully-expired marketplace would leave the scheduler with no
  events at all and a "stuck" diagnosis instead of a cooldown.
* **half-open** — after the cooldown, :data:`HALF_OPEN_PROBES` probe HIT
  may post.  A probe that completes closes the breaker (and resets the
  cooldown); a probe that expires re-trips it with the cooldown multiplied
  by :data:`BACKOFF` (exponential backoff, capped at :data:`MAX_COOLDOWN`).

Everything runs on the engine clock (simulated or wall) and draws nothing at
random, so protected runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CrowdError

__all__ = [
    "BACKOFF",
    "HALF_OPEN_PROBES",
    "MAX_COOLDOWN",
    "BreakerConfig",
    "BreakerStats",
    "MarketplaceCircuitBreaker",
]

#: Multiplier applied to the cooldown after every failed probe, so a
#: persistently dead market is retried ever more rarely.
BACKOFF = 2.0
#: Ceiling on the backed-off cooldown, in clock seconds.
MAX_COOLDOWN = 4 * 3600.0
#: HITs the half-open state may post before waiting on their outcome.
HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for the marketplace circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive fault-driven HIT failures (expiries) that trip the
        breaker open.
    cooldown:
        Initial open-state duration in clock seconds before a half-open
        probe is allowed; at most :data:`MAX_COOLDOWN`.
    """

    failure_threshold: int = 5
    cooldown: float = 300.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise CrowdError(f"failure_threshold must be >= 1, got {self.failure_threshold}")
        if self.cooldown <= 0:
            raise CrowdError(f"cooldown must be positive, got {self.cooldown}")
        if self.cooldown > MAX_COOLDOWN:
            raise CrowdError(f"cooldown must be <= {MAX_COOLDOWN:g}s, got {self.cooldown}")


@dataclass
class BreakerStats:
    """Aggregate counters describing breaker activity."""

    trips: int = 0
    reopens: int = 0
    closes: int = 0
    failures: int = 0
    successes: int = 0
    probes_posted: int = 0
    #: Flush attempts turned away while the breaker was not accepting posts.
    posts_blocked: int = 0


class MarketplaceCircuitBreaker:
    """Clock-driven circuit breaker around HIT posting."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: BreakerConfig | None = None, *, clock=None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.clock = clock
        self.stats = BreakerStats()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._current_cooldown = self.config.cooldown
        self._retry_at: float | None = None
        self._probes_in_flight = 0

    # -- posting decisions ----------------------------------------------------

    def allow_posting(self) -> bool:
        """Whether the Task Manager may post a HIT right now."""
        if self.state == self.OPEN and self._retry_at is not None:
            # Lazy transition: the scheduled reopen event normally does this,
            # but a caller polling after the retry time must not be refused.
            if self.clock is not None and self.clock.now >= self._retry_at:
                self._reopen()
        if self.state == self.CLOSED:
            return True
        if self.state == self.HALF_OPEN:
            return self._probes_in_flight < HALF_OPEN_PROBES
        return False

    def record_post(self) -> None:
        """A HIT was actually posted (counts as a probe while half-open)."""
        if self.state == self.HALF_OPEN:
            self._probes_in_flight += 1
            self.stats.probes_posted += 1

    def record_blocked(self) -> None:
        """A flush wanted to post but the breaker refused."""
        self.stats.posts_blocked += 1

    # -- outcome feedback -----------------------------------------------------

    def record_success(self) -> None:
        """A posted HIT fully submitted — the market is serving again."""
        self.stats.successes += 1
        self._consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self.stats.closes += 1
            self._current_cooldown = self.config.cooldown
            self._probes_in_flight = 0
            self._retry_at = None

    def record_failure(self) -> None:
        """A posted HIT expired — one more sign of a degraded market."""
        self.stats.failures += 1
        if self.state == self.HALF_OPEN:
            # The probe died: back off harder before the next one.
            self._trip(backoff=True)
            return
        if self.state == self.OPEN:
            # Expiries of HITs posted before the trip keep arriving while
            # open; they carry no new information about the cooldown.
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.failure_threshold:
            self._trip(backoff=False)

    # -- state machine --------------------------------------------------------

    def _trip(self, *, backoff: bool) -> None:
        if backoff:
            self._current_cooldown = min(self._current_cooldown * BACKOFF, MAX_COOLDOWN)
        self.state = self.OPEN
        self.stats.trips += 1
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        if self.clock is None:
            raise CrowdError("circuit breaker tripped before a clock was bound")
        self._retry_at = self.clock.now + self._current_cooldown
        # The event keeps the engine's event loop alive while posting is
        # paused: when every outstanding HIT has already expired, this is the
        # only scheduled event, and firing it advances time to the retry
        # point instead of leaving the scheduler stuck.
        self.clock.schedule_at(self._retry_at, self._reopen, label="breaker:reopen")

    def _reopen(self) -> None:
        if self.state != self.OPEN:
            return
        if self._retry_at is not None and self.clock is not None:
            if self.clock.now < self._retry_at:
                return  # a stale earlier event; the real retry is still ahead
        self.state = self.HALF_OPEN
        self.stats.reopens += 1
        self._probes_in_flight = 0

    # -- introspection --------------------------------------------------------

    @property
    def retry_at(self) -> float | None:
        """Clock time at which the open breaker will admit a probe."""
        return self._retry_at if self.state == self.OPEN else None

    def describe(self) -> str:
        """Compact rendering for dashboards and scenario logs."""
        bits = [f"state {self.state}", f"trips {self.stats.trips}"]
        if self.state == self.OPEN and self._retry_at is not None:
            bits.append(f"retry at {self._retry_at:,.0f}s")
        if self.stats.posts_blocked:
            bits.append(f"{self.stats.posts_blocked} post(s) blocked")
        return ", ".join(bits)

    def __repr__(self) -> str:
        return f"MarketplaceCircuitBreaker({self.describe()})"
