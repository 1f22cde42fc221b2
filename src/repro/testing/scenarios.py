"""The canned chaos-scenario library.

Each factory returns a :class:`~repro.testing.chaos.ChaosScenario` with a
fixed seed, so every scenario is a reproducible experiment: same seed, same
HIT counts, same dollars, same rows.  To add a scenario, write a factory
that builds a fresh engine with the fault profile / quality config you want
to stress, list the queries to run, declare the statuses you expect, and add
it to :func:`all_scenarios` (see the README's "Testing" section).
"""

from __future__ import annotations

from repro.crowd.breaker import BreakerConfig
from repro.crowd.faults import FaultProfile
from repro.crowd.quality import QualityConfig
from repro.crowd.worker_pool import PopulationMix
from repro.experiments.harness import build_companies_engine, build_products_engine
from repro.testing.chaos import ChaosScenario

__all__ = [
    "expiry_requeue_scenario",
    "abandonment_scenario",
    "duplicate_and_late_scenario",
    "spammer_quality_scenario",
    "exhaustion_scenario",
    "breaker_recovery_scenario",
    "all_scenarios",
]

PRODUCTS_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
COMPANIES_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies"
)


def expiry_requeue_scenario() -> ChaosScenario:
    """HITs keep expiring under slow pickup; requeues must finish the query."""
    return ChaosScenario(
        name="expiry-requeue",
        description=(
            "Pickup is 3x slower than normal and HITs live only 15 simulated "
            "minutes, so a good fraction expire with partial (or no) "
            "submissions.  The Task Manager must salvage partial answers, "
            "re-post the remainder, and still complete the query."
        ),
        build=lambda: build_products_engine(
            n_products=12,
            assignments=3,
            filter_batch=4,
            seed=1101,
            fault_profile=FaultProfile(seed=11, hit_lifetime=900.0, pickup_slowdown=3.0),
        ),
        queries=(PRODUCTS_SQL,),
    )


def abandonment_scenario() -> ChaosScenario:
    """A third of workers return their assignments; replacements step in."""
    return ChaosScenario(
        name="abandonment",
        description=(
            "30% of accepted assignments are returned unsubmitted.  The "
            "marketplace recruits replacement workers; the query completes "
            "without duplicated or lost rows."
        ),
        build=lambda: build_products_engine(
            n_products=12,
            assignments=3,
            filter_batch=4,
            seed=1102,
            fault_profile=FaultProfile(seed=12, abandonment_rate=0.3, hit_lifetime=7200.0),
        ),
        queries=(PRODUCTS_SQL,),
    )


def duplicate_and_late_scenario() -> ChaosScenario:
    """Double submissions and deadline-missing work on the form workload."""
    return ChaosScenario(
        name="duplicate-and-late",
        description=(
            "Half of the submissions are re-posted by flaky clients and a "
            "quarter slip past the HIT deadline.  Duplicates must not pay or "
            "deliver twice; late work is dropped and the stranded tasks are "
            "re-posted."
        ),
        build=lambda: build_companies_engine(
            n_companies=10,
            assignments=3,
            seed=1103,
            fault_profile=FaultProfile(
                seed=13, duplicate_rate=0.5, late_rate=0.25, hit_lifetime=3600.0
            ),
        ),
        queries=(COMPANIES_SQL,),
    )


def spammer_quality_scenario() -> ChaosScenario:
    """Quality control on a spammer-heavy mix, with faults on top."""
    return ChaosScenario(
        name="spammer-quality",
        description=(
            "A 30%-spammer marketplace with gold probes, weighted voting and "
            "adaptive redundancy active, plus duplicate submissions.  The "
            "full quality-control pipeline must stay invariant-clean."
        ),
        build=lambda: build_products_engine(
            n_products=16,
            assignments=5,
            filter_batch=4,
            seed=1104,
            population_mix=PopulationMix(diligent=0.35, noisy=0.25, lazy=0.10, spammer=0.30),
            fault_profile=FaultProfile(seed=14, duplicate_rate=0.2, hit_lifetime=7200.0),
            quality=QualityConfig(gold_frequency=0.5, seed=41),
        ),
        queries=(PRODUCTS_SQL,),
    )


def exhaustion_scenario() -> ChaosScenario:
    """Nobody ever picks work up: attempt caps must surface STALLED."""
    return ChaosScenario(
        name="attempt-exhaustion",
        description=(
            "Pickup is 50x slower than a 60-second HIT lifetime, so every "
            "posted HIT expires untouched.  After the attempt cap the query "
            "must surface STALLED (with zero rows) instead of hanging."
        ),
        build=lambda: build_products_engine(
            n_products=6,
            assignments=3,
            seed=1105,
            fault_profile=FaultProfile(seed=15, hit_lifetime=60.0, pickup_slowdown=50.0),
        ),
        queries=(PRODUCTS_SQL,),
        expected_statuses={0: "stalled"},
    )


def breaker_recovery_scenario() -> ChaosScenario:
    """A sick market trips the circuit breaker; recovery closes it again.

    Expiries and abandonments pile up until the breaker opens, pausing all
    posting (pending tasks stay queued, expired HITs refund normally).  The
    scheduled reopen probes the market; once a probe fully submits the
    breaker closes and the query finishes.  The run must stay invariant-
    clean — budget conserved, nothing stranded — through the whole
    closed → open → half-open → closed cycle.
    """
    return ChaosScenario(
        name="breaker-recovery",
        description=(
            "Pickup is 3x slower with 5%-per-open-HIT congestion, 30% "
            "abandonment and 20% duplicates on 450-second HITs, so enough "
            "consecutive expiries hit the 4-failure threshold to trip the "
            "marketplace circuit breaker.  Posting pauses, the cooldown "
            "elapses on the engine clock, half-open probes go out, and the "
            "query still completes with the breaker closed again."
        ),
        build=lambda: build_products_engine(
            n_products=12,
            assignments=3,
            filter_batch=4,
            seed=1106,
            fault_profile=FaultProfile(
                seed=16,
                hit_lifetime=450.0,
                pickup_slowdown=3.0,
                abandonment_rate=0.3,
                duplicate_rate=0.2,
                congestion_per_open_hit=0.05,
            ),
            engine_kwargs={
                "circuit_breaker": BreakerConfig(failure_threshold=4, cooldown=600.0)
            },
        ),
        queries=(PRODUCTS_SQL,),
    )


def all_scenarios() -> list[ChaosScenario]:
    """Every canned scenario, cheap ones first."""
    return [
        exhaustion_scenario(),
        expiry_requeue_scenario(),
        abandonment_scenario(),
        duplicate_and_late_scenario(),
        spammer_quality_scenario(),
        breaker_recovery_scenario(),
    ]
