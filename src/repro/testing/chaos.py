"""Run whole workload queries under fault injection and check invariants.

A :class:`ChaosScenario` bundles an engine builder (fresh engine + workload,
fault profile and quality config already applied), the queries to run, and
the statuses those queries are expected to reach.  :func:`run_scenario`
executes it, records every task delivery (to catch duplicates), drains the
marketplace, and checks the invariants in :mod:`repro.testing.invariants`.
:func:`assert_deterministic` runs a scenario twice and compares run
fingerprints — same seed must mean bit-identical HIT counts, costs and
result rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import QueryStalledError
from repro.experiments.harness import ExperimentRun
from repro.storage.codec import lower
from repro.testing.invariants import check_invariants

__all__ = [
    "ChaosScenario",
    "ScenarioResult",
    "run_scenario",
    "fingerprint_engine",
    "assert_deterministic",
]


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible fault-injection experiment.

    ``build`` must return a *fresh* :class:`ExperimentRun` each call (a new
    engine on a new simulated marketplace) — reruns for the determinism check
    depend on it.  ``expected_statuses`` maps each query (by position) to the
    status it must end in (``"completed"``, ``"stalled"``,
    ``"budget_exceeded"``); queries not listed must complete.
    """

    name: str
    build: Callable[[], ExperimentRun]
    queries: tuple[str, ...]
    description: str = ""
    expected_statuses: dict[int, str] = field(default_factory=dict)

    def expected_status(self, index: int) -> str:
        return self.expected_statuses.get(index, "completed")


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, plus its invariant violations."""

    scenario: ChaosScenario
    run: ExperimentRun
    statuses: list[str]
    rows: list[list[dict[str, Any]]]
    violations: list[str]
    fingerprint: dict[str, Any]

    @property
    def ok(self) -> bool:
        """Whether every invariant held and every status matched."""
        return not self.violations

    def summary(self) -> str:
        stats = self.run.engine.platform.stats
        return (
            f"{self.scenario.name}: statuses={self.statuses}, "
            f"hits={stats.hits_created} (expired {stats.hits_expired}), "
            f"cost=${self.run.engine.total_crowd_cost:.2f}, "
            f"violations={len(self.violations)}"
        )


def run_scenario(scenario: ChaosScenario) -> ScenarioResult:
    """Execute one scenario end to end and check every invariant."""
    run = scenario.build()
    engine = run.engine
    deliveries: dict[str, int] = {}

    # Observe task delivery to catch duplicate (or resurrected) results —
    # the raw material of duplicated result rows.
    def count_delivery(result):
        task_id = result.task.task_id
        deliveries[task_id] = deliveries.get(task_id, 0) + 1

    engine.task_manager.on_result_delivered(count_delivery)

    handles = [engine.query(sql) for sql in scenario.queries]
    statuses: list[str] = []
    rows: list[list[dict[str, Any]]] = []
    violations: list[str] = []
    for index, handle in enumerate(handles):
        try:
            handle.wait()
        except QueryStalledError:
            pass  # the handle records the stall; expectations are checked below
        statuses.append(handle.status.value)
        rows.append([row.to_dict() for row in handle.results()])
        expected = scenario.expected_status(index)
        if handle.status.value != expected:
            violations.append(
                f"status: query #{index} ended {handle.status.value}, expected {expected}"
            )

    # Drain in-flight marketplace events (late submissions, expiries of HITs
    # nobody waits for any more).  The engine itself must clean up after
    # them — terminal queries are registered as cancelled with the Task
    # Manager, so nothing may be requeued or left pending on their behalf;
    # the invariants below verify exactly that.
    engine.clock.run_until_idle()

    violations += check_invariants(engine, handles, deliveries)
    return ScenarioResult(
        scenario=scenario,
        run=run,
        statuses=statuses,
        rows=rows,
        violations=violations,
        fingerprint=fingerprint_engine(engine, statuses, rows),
    )


def fingerprint_engine(
    engine, statuses: list[str], rows: list[list[dict[str, Any]]]
) -> dict[str, Any]:
    """The run facts that must be bit-identical across same-seed runs.

    Shared with the cluster runtime: a shard worker fingerprints its own
    engine through this exact function, so 1-shard-vs-in-process equality
    (and N-shard run-to-run stability) is checked against the same facts the
    chaos harness pins.  The structure is JSON-stable — tuples are lowered
    to lists — so a fingerprint that crossed a process boundary as JSON
    compares equal to one computed in-process.
    """
    stats = engine.platform.stats
    return {
        "statuses": list(statuses),
        "rows": [
            [[lower(item) for item in sorted(row.items())] for row in query_rows]
            for query_rows in rows
        ],
        "hits_created": stats.hits_created,
        "hits_expired": stats.hits_expired,
        "assignments_submitted": stats.assignments_submitted,
        "assignments_abandoned": stats.assignments_abandoned,
        "late_dropped": stats.late_submissions_dropped,
        "duplicates_ignored": stats.duplicate_submissions_ignored,
        "total_cost": round(engine.total_crowd_cost, 9),
    }


def assert_deterministic(scenario: ChaosScenario, runs: int = 2) -> ScenarioResult:
    """Run a scenario ``runs`` times; all fingerprints must be identical.

    Returns the first run's result (with any fingerprint mismatch appended
    to its violations) so callers can keep asserting on a single result.
    """
    first = run_scenario(scenario)
    for attempt in range(1, runs):
        again = run_scenario(scenario)
        if again.fingerprint != first.fingerprint:
            diffs = [
                f"{key}: {first.fingerprint[key]!r} != {again.fingerprint[key]!r}"
                for key in first.fingerprint
                if first.fingerprint[key] != again.fingerprint[key]
            ]
            first.violations.append(
                f"determinism: rerun #{attempt} diverged ({'; '.join(diffs[:3])})"
            )
    return first
