"""E19 — overload protection: goodput under a 4x burst against a sick market.

A provisioned capacity of C concurrent queries receives a burst of 4C
point-lookup queries while the marketplace is degraded: pickups slow with
every open HIT (congestion), 30% of accepted assignments are abandoned, and
HITs expire after 600 simulated seconds.  Two engines face the identical
burst:

* **unprotected** — today's defaults: unbounded admission queue, no
  deadlines, no circuit breaker.  Every query eventually completes, but the
  tail finishes hours past any useful deadline and every expiry is re-posted
  into the congested market.
* **protected** — the full overload stack: a bounded admission queue with
  priority shedding, per-query deadlines with ``degradation="partial"``
  (the deadline returns whatever rows have landed), budget/deadline pressure
  that cuts redundancy on struggling queries, and a marketplace circuit
  breaker that stops re-posting while the market is dead.

The headline metric is **goodput** — queries served within the deadline
(full completions plus degraded queries that returned rows) per 1,000
simulated seconds — alongside total crowd spend.  The CI gate requires the
protected engine to deliver at least 2x the unprotected goodput while
spending strictly less.

e19 is in ``run_all.py``'s ``--quick`` subset, and the quick pytest test
below is the gate.
"""

from __future__ import annotations

import pytest

from repro.core.exec.context import QueryConfig
from repro.crowd.breaker import BreakerConfig
from repro.crowd.faults import FaultProfile
from repro.errors import EngineOverloadedError
from repro.experiments import build_companies_engine, print_table

SEED = 1901
FAULT_SEED = 19
N_COMPANIES = 40
#: Every query looks up this many companies (so a deadline can cut a query
#: mid-flight and leave a meaningful partial prefix).
COMPANIES_PER_QUERY = 3

#: Defaults: capacity 8, burst 32 (4x overload), deadline 2,400 simulated s.
CAPACITY = 8
N_QUERIES = 32
QUEUE_LIMIT = 16
DEADLINE = 2400.0

#: The degraded marketplace: pickups slow 2x flat plus 10% per open HIT,
#: 30% of accepted assignments are abandoned, HITs die after 600s.
FAULTS = dict(
    seed=FAULT_SEED,
    abandonment_rate=0.3,
    pickup_slowdown=2.0,
    hit_lifetime=600.0,
    congestion_per_open_hit=0.1,
)

BREAKER = dict(failure_threshold=6, cooldown=300.0)


def _query_sql(names: list[str]) -> str:
    where = " OR ".join(f"companyName = '{name}'" for name in names)
    return (
        "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
        f"FROM companies WHERE {where}"
    )


def _run_burst(
    *,
    protected: bool,
    n_queries: int,
    capacity: int,
    queue_limit: int,
    deadline: float,
) -> dict:
    engine_kwargs: dict = {"max_concurrent_queries": capacity}
    if protected:
        engine_kwargs.update(
            admission_queue_limit=queue_limit,
            overload_policy="shed",
            circuit_breaker=BreakerConfig(**BREAKER),
        )
    run = build_companies_engine(
        n_companies=N_COMPANIES,
        seed=SEED,
        enable_cache=False,
        fault_profile=FaultProfile(**FAULTS),
        engine_kwargs=engine_kwargs,
    )
    engine = run.engine
    names = [record.name for record in run.workload.records]
    config = (
        QueryConfig(deadline=deadline, degradation="partial", shed_under_pressure=True)
        if protected
        else None
    )
    handles = []
    rejected = 0
    for i in range(n_queries):
        picks = [
            names[(COMPANIES_PER_QUERY * i + j) % len(names)]
            for j in range(COMPANIES_PER_QUERY)
        ]
        # Every 4th query is high-priority: under "shed" those survive a
        # full queue at the expense of the background traffic.
        priority = 2.0 if i % 4 == 0 else 1.0
        try:
            handles.append(
                engine.query(_query_sql(picks), config=config, priority=priority)
            )
        except EngineOverloadedError:
            rejected += 1
    engine.scheduler.drain()
    engine.clock.run_until_idle()

    met = partial = 0
    for handle in handles:
        completions = [
            event
            for event in engine.scheduler.events_for(handle.query_id)
            if event.event == "completed"
        ]
        if (
            completions
            and handle.status.value == "completed"
            and completions[-1].time <= deadline
        ):
            met += 1
        elif handle.status.value == "degraded" and len(handle) > 0:
            partial += 1
    served = met + partial
    metrics = engine.scheduler.metrics
    simulated = max(engine.clock.now, 1.0)
    return {
        "mode": "protected" if protected else "unprotected",
        "queries": n_queries,
        "served": served,
        "full_within_deadline": met,
        "partial_served": partial,
        "simulated_seconds": round(simulated, 1),
        "goodput_per_ks": round(served / simulated * 1000.0, 3),
        "total_cost": round(engine.total_crowd_cost, 2),
        "rejected": rejected + metrics.queries_rejected,
        "shed": metrics.queries_shed,
        "degraded": metrics.queries_degraded,
        "deadline_misses": metrics.deadline_misses,
        "pressured": metrics.queries_pressured,
        "breaker_trips": engine.breaker.stats.trips if engine.breaker else 0,
        "posts_blocked": (
            engine.breaker.stats.posts_blocked if engine.breaker else 0
        ),
        "tasks_requeued": engine.task_manager.stats.tasks_requeued,
    }


def run_overload_burst(
    n_queries: int = N_QUERIES,
    capacity: int = CAPACITY,
    queue_limit: int = QUEUE_LIMIT,
    deadline: float = DEADLINE,
) -> list[dict]:
    """The same 4x burst, unprotected vs fully protected, plus the delta."""
    unprotected = _run_burst(
        protected=False,
        n_queries=n_queries,
        capacity=capacity,
        queue_limit=queue_limit,
        deadline=deadline,
    )
    protected = _run_burst(
        protected=True,
        n_queries=n_queries,
        capacity=capacity,
        queue_limit=queue_limit,
        deadline=deadline,
    )
    ratio = (
        protected["goodput_per_ks"] / unprotected["goodput_per_ks"]
        if unprotected["goodput_per_ks"]
        else float("inf")
    )
    delta = {
        "mode": "protected vs unprotected",
        "queries": n_queries,
        "served": protected["served"] - unprotected["served"],
        "full_within_deadline": protected["full_within_deadline"]
        - unprotected["full_within_deadline"],
        "partial_served": protected["partial_served"],
        "simulated_seconds": round(
            unprotected["simulated_seconds"] - protected["simulated_seconds"], 1
        ),
        "goodput_per_ks": round(ratio, 2),
        "total_cost": round(
            unprotected["total_cost"] - protected["total_cost"], 2
        ),
        "rejected": protected["rejected"],
        "shed": protected["shed"],
        "degraded": protected["degraded"],
        "deadline_misses": protected["deadline_misses"],
        "pressured": protected["pressured"],
        "breaker_trips": protected["breaker_trips"],
        "posts_blocked": protected["posts_blocked"],
        "tasks_requeued": unprotected["tasks_requeued"]
        - protected["tasks_requeued"],
    }
    return [unprotected, protected, delta]


# -- pytest entry point (quick sizes, with the CI regression gates) ----------

#: Acceptance bar: protection must at least double goodput on this scenario.
MIN_GOODPUT_RATIO = 2.0

COLUMNS = [
    "mode",
    "queries",
    "served",
    "full_within_deadline",
    "partial_served",
    "simulated_seconds",
    "goodput_per_ks",
    "total_cost",
    "rejected",
    "shed",
    "degraded",
    "pressured",
    "breaker_trips",
]


@pytest.mark.overload
def test_e19_overload_quick():
    rows = run_overload_burst(n_queries=16, capacity=4, queue_limit=8, deadline=2400.0)
    print_table(
        "E19: overload burst, protected vs unprotected "
        "(quick: 16 queries on capacity 4)",
        COLUMNS,
        rows,
    )
    unprotected, protected, _ = rows
    assert unprotected["goodput_per_ks"] > 0, "scenario too harsh: nothing served"
    ratio = protected["goodput_per_ks"] / unprotected["goodput_per_ks"]
    assert ratio >= MIN_GOODPUT_RATIO, (
        f"protection delivered only {ratio:.2f}x goodput "
        f"(bar: {MIN_GOODPUT_RATIO:.1f}x)"
    )
    # Protection must be cheaper, not just faster: shedding, degradation and
    # the breaker all cut crowd spend.
    assert protected["total_cost"] < unprotected["total_cost"]
    # Every mechanism must actually fire in this scenario.
    assert protected["rejected"] + protected["shed"] > 0
    assert protected["degraded"] > 0
    assert protected["pressured"] > 0
    assert protected["breaker_trips"] > 0
