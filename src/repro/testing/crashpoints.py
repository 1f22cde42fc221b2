"""Crash-point fault injection: prove recovery is byte-exact, not plausible.

The durability claim worth testing is not "the engine restarts" but "the
recovered engine is *indistinguishable* from one that never crashed".  The
engine is deterministic, so that claim is checkable to the byte: kill a
durable run at crash instant K, recover from disk, and compare
``fingerprint_engine`` output against an uninterrupted same-seed run of the
submissions that made it into the log.  Sweeping K over every instant of a
run turns one scenario into hundreds of distinct crash experiments.

A crash instant is either a WAL append (a submission, a drain barrier) or
a crash point — a crowd event the engine regenerates on replay and so does
not log: a HIT posted or settled, a budget commit or release, an answer
delivered, a lifecycle transition.  The injector is a crash-instant
listener on the engine's journal (``EngineJournal.on_crash_point``): it
fires *after* an append's flush-policy decision, so raising there and then
calling ``simulate_crash()`` loses exactly the unflushed suffix a real
process death would lose.  A scheduled crash therefore exercises every
interesting instant — mid-submission, mid-drain, mid-settlement — without
patching any engine internals.

:func:`corrupt_tail` complements the kill switch with storage-level damage
(a torn final write, a flipped bit) to prove the WAL scanner detects it and
truncates back to the last valid record instead of replaying garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.crowd.faults import FaultProfile
from repro.crowd.quality import QualityConfig
from repro.crowd.worker_pool import PopulationMix
from repro.errors import EngineOverloadedError, QurkError
from repro.experiments.harness import build_products_engine
from repro.storage.durability import (
    DurabilityConfig,
    RecoveryResult,
    build_engine_from_payload,
)
from repro.testing.chaos import fingerprint_engine

__all__ = [
    "SimulatedCrashError",
    "CrashScenario",
    "build_plain_products_engine",
    "build_faulty_products_engine",
    "build_quality_products_engine",
    "plain_crash_scenario",
    "faulty_crash_scenario",
    "quality_crash_scenario",
    "cached_companies_crash_scenario",
    "all_crash_scenarios",
    "run_phases",
    "run_durable",
    "crash_instants",
    "crash_points",
    "recovered_fingerprint",
    "recovered_query_count",
    "reference_fingerprint",
    "corrupt_tail",
]

PRODUCTS_SQL = "SELECT name FROM products WHERE isTargetColor(name)"


class SimulatedCrashError(QurkError):
    """Raised by the injector at the scheduled crash instant to kill the run."""


# ---------------------------------------------------------------------------
# Engine recipes with JSON-able kwargs
# ---------------------------------------------------------------------------
#
# WAL headers (like cluster EngineSpecs) carry the engine recipe as
# ``{"factory": "module:callable", "kwargs": {...}}``, so the kwargs must be
# plain JSON.  These wrappers build FaultProfile / QualityConfig objects
# from scalars; the experiment-harness factories they delegate to stay the
# single source of workload wiring.


def build_plain_products_engine(*, n_products=12, assignments=3, filter_batch=1, seed=13):
    """A fault-free products engine (e1-style filter workload)."""
    return build_products_engine(
        n_products=n_products, assignments=assignments, filter_batch=filter_batch, seed=seed
    )


def build_faulty_products_engine(
    *,
    n_products=12,
    assignments=3,
    filter_batch=4,
    seed=1101,
    fault_seed=11,
    hit_lifetime=900.0,
    pickup_slowdown=3.0,
    abandonment_rate=0.0,
    duplicate_rate=0.0,
    late_rate=0.0,
):
    """A products engine under marketplace faults (e5-style chaos)."""
    return build_products_engine(
        n_products=n_products,
        assignments=assignments,
        filter_batch=filter_batch,
        seed=seed,
        fault_profile=FaultProfile(
            seed=fault_seed,
            hit_lifetime=hit_lifetime,
            pickup_slowdown=pickup_slowdown,
            abandonment_rate=abandonment_rate,
            duplicate_rate=duplicate_rate,
            late_rate=late_rate,
        ),
    )


def build_quality_products_engine(
    *,
    n_products=16,
    assignments=5,
    filter_batch=4,
    seed=1104,
    fault_seed=14,
    duplicate_rate=0.2,
    hit_lifetime=7200.0,
    spammer=0.30,
    gold_frequency=0.5,
    quality_seed=41,
):
    """A spammer-heavy marketplace with the quality-control pipeline on."""
    return build_products_engine(
        n_products=n_products,
        assignments=assignments,
        filter_batch=filter_batch,
        seed=seed,
        population_mix=PopulationMix(
            diligent=0.70 - spammer, noisy=0.20, lazy=0.10, spammer=spammer
        ),
        fault_profile=FaultProfile(
            seed=fault_seed, duplicate_rate=duplicate_rate, hit_lifetime=hit_lifetime
        ),
        quality=QualityConfig(gold_frequency=gold_frequency, seed=quality_seed),
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashScenario:
    """A durable workload shaped into explicit drain phases.

    ``phases`` is a tuple of phases; each phase is a tuple of submissions
    (``{"sql", "budget", "priority"}`` dicts) followed by an implicit
    ``drain + run_until_idle``.  The grouping is part of the scenario
    because it shapes scheduling: queries submitted in one phase run
    concurrently, so the reference run must group them identically.
    ``checkpoint_after`` lists phase indices after which a durable run
    snapshots, exercising the snapshot + partial-replay recovery path.
    """

    name: str
    factory: str
    kwargs: dict = field(default_factory=dict)
    phases: tuple = ()
    checkpoint_after: tuple = ()

    def spec_payload(self) -> dict:
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    def build_engine(self):
        return build_engine_from_payload(self.spec_payload())

    @property
    def total_submissions(self) -> int:
        return sum(len(phase) for phase in self.phases)


def _sub(sql: str, budget: float | None = None, priority: float = 1.0) -> dict:
    return {"sql": sql, "budget": budget, "priority": priority}


def plain_crash_scenario() -> CrashScenario:
    """Fault-free two-phase filter workload; the cheapest sweep target."""
    return CrashScenario(
        name="plain-products",
        factory="repro.testing.crashpoints:build_plain_products_engine",
        kwargs={"n_products": 12, "seed": 13},
        phases=(
            (_sub(PRODUCTS_SQL), _sub(PRODUCTS_SQL, budget=50.0)),
            (_sub(PRODUCTS_SQL, priority=2.0),),
        ),
        checkpoint_after=(0,),
    )


def faulty_crash_scenario() -> CrashScenario:
    """Expiry + abandonment chaos: crashes land mid-requeue and mid-expiry."""
    return CrashScenario(
        name="faulty-products",
        factory="repro.testing.crashpoints:build_faulty_products_engine",
        kwargs={
            "n_products": 12,
            "seed": 1101,
            "fault_seed": 11,
            "hit_lifetime": 900.0,
            "pickup_slowdown": 3.0,
            "abandonment_rate": 0.2,
        },
        phases=(
            (_sub(PRODUCTS_SQL),),
            (_sub(PRODUCTS_SQL, budget=80.0),),
        ),
        checkpoint_after=(0,),
    )


def quality_crash_scenario() -> CrashScenario:
    """Quality control + reputation state must survive snapshot round trips."""
    return CrashScenario(
        name="quality-products",
        factory="repro.testing.crashpoints:build_quality_products_engine",
        kwargs={"n_products": 10, "assignments": 5, "seed": 1104},
        phases=(
            (_sub(PRODUCTS_SQL),),
            (_sub(PRODUCTS_SQL),),
        ),
        checkpoint_after=(0,),
    )


COMPANIES_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies"
)


def cached_companies_crash_scenario() -> CrashScenario:
    """Answer-cache state must survive snapshots and mid-hit crashes.

    Phase 1 pays the crowd for every company and fills the Task Cache;
    phase 2 re-runs the same query, so its tasks are served from cache —
    crash points land while cached answers are being delivered, and the
    checkpoint after phase 1 forces recovery to rebuild the cache from a
    snapshot rather than pure replay.  A recovered engine that lost (or
    duplicated) cache entries would re-buy answers and diverge in
    ``total_cost``, which the fingerprint comparison catches.
    """
    return CrashScenario(
        name="cached-companies",
        factory="repro.experiments.harness:build_companies_engine",
        kwargs={"n_companies": 6, "assignments": 3, "seed": 7},
        phases=(
            (_sub(COMPANIES_SQL),),
            (_sub(COMPANIES_SQL), _sub(COMPANIES_SQL, budget=10.0)),
        ),
        checkpoint_after=(0,),
    )


def all_crash_scenarios() -> list[CrashScenario]:
    """Every canned crash scenario, cheapest first."""
    return [
        plain_crash_scenario(),
        cached_companies_crash_scenario(),
        faulty_crash_scenario(),
        quality_crash_scenario(),
    ]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_phases(engine, scenario: CrashScenario, *, limit: int | None = None, checkpoint: bool = False) -> int:
    """Execute the scenario's phases; returns the number of submissions made.

    ``limit`` truncates the run after that many submissions (still draining
    whatever was submitted) — this is how a reference run reproduces a
    crash run that died mid-phase.  ``checkpoint`` enables the scenario's
    declared snapshot points (durable engines only).
    """
    submitted = 0
    for index, phase in enumerate(scenario.phases):
        if limit is not None and submitted >= limit:
            break
        for submission in phase:
            if limit is not None and submitted >= limit:
                break
            try:
                engine.query(
                    submission["sql"],
                    budget=submission.get("budget"),
                    priority=submission.get("priority", 1.0),
                )
            except EngineOverloadedError:
                pass  # refused at admission: its query id and SHED outcome still count
            submitted += 1
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        if checkpoint and index in scenario.checkpoint_after:
            engine.checkpoint()
    return submitted


def run_durable(
    scenario: CrashScenario,
    directory: str | Path,
    *,
    fsync: str = "interval",
    fsync_every: int = 256,
    snapshot_every: int | None = None,
    crash_at: int | None = None,
) -> bool:
    """Run the scenario durably, optionally dying at crash instant ``crash_at``.

    Instants count from 1 in :func:`crash_instants` order.  Returns whether
    the injected crash actually fired (a ``crash_at`` beyond the last
    instant means the run completed).  Either way the
    engine's WAL ends in the crashed state — unflushed records lost —
    ready for :meth:`QurkEngine.recover`.
    """
    built = scenario.build_engine()
    engine = getattr(built, "engine", built)
    engine.enable_durability(
        DurabilityConfig(
            directory=str(directory),
            fsync=fsync,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
        ),
        spec=scenario.spec_payload(),
    )
    if crash_at is not None:
        instants = [0]

        def _kill(kind: str) -> None:
            instants[0] += 1
            if instants[0] == crash_at:
                raise SimulatedCrashError(f"scheduled crash at instant #{crash_at} ({kind})")

        engine.journal.on_crash_point(_kill)
    crashed = False
    try:
        run_phases(engine, scenario, checkpoint=True)
    except SimulatedCrashError:
        crashed = True
    engine.journal.wal.simulate_crash()
    return crashed


def crash_instants(scenario: CrashScenario, *, fsync: str = "interval") -> list[str]:
    """The kinds of every crash instant of an uninterrupted durable run, in order.

    ``len()`` of the list is the sweep's total, and
    ``run_durable(crash_at=K)`` dies at instant ``kinds[K - 1]``.
    """
    import tempfile

    kinds: list[str] = []
    with tempfile.TemporaryDirectory() as directory:
        built = scenario.build_engine()
        engine = getattr(built, "engine", built)
        engine.enable_durability(
            DurabilityConfig(directory=directory, fsync=fsync, snapshot_every=None),
            spec=scenario.spec_payload(),
        )
        engine.journal.on_crash_point(kinds.append)
        run_phases(engine, scenario, checkpoint=True)
        engine.journal.close()
    return kinds


def crash_points(total_events: int, n_points: int, *, seed: int = 0) -> list[int]:
    """A seeded sample of crash instants, always including the first and last."""
    if total_events <= 0:
        return []
    points = {1, total_events}
    rng = random.Random(seed)
    while len(points) < min(n_points, total_events):
        points.add(rng.randint(1, total_events))
    return sorted(points)


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _query_order(ids) -> list[str]:
    return sorted(ids, key=lambda query_id: int(query_id.lstrip("q")))


def recovered_query_count(result: RecoveryResult) -> int:
    """How many queries the recovered engine knows about (snapshot + replay)."""
    engine = result.engine
    ids = {outcome["query_id"] for outcome in engine._recovered_outcomes}
    ids.update(engine.queries)
    return len(ids)


def recovered_fingerprint(result: RecoveryResult) -> dict:
    """Combined fingerprint of a recovered engine.

    Pre-snapshot queries live on as recorded *outcomes* (their handles died
    with the original process); replayed queries have live handles.  Both
    contribute, in query-id order, through the same ``fingerprint_engine``
    the chaos and cluster harnesses pin.
    """
    engine = result.engine
    outcomes = {outcome["query_id"]: outcome for outcome in engine._recovered_outcomes}
    statuses: list[str] = []
    rows: list[list[dict]] = []
    for query_id in _query_order(set(outcomes) | set(engine.queries)):
        if query_id in outcomes:
            statuses.append(outcomes[query_id]["status"])
            rows.append(outcomes[query_id]["rows"])
        else:
            handle = engine.queries[query_id]
            statuses.append(handle.status.value)
            rows.append([row.to_dict() for row in handle.results()])
    return fingerprint_engine(engine, statuses, rows)


def reference_fingerprint(scenario: CrashScenario, n_queries: int) -> dict:
    """Fingerprint of an uninterrupted, non-durable run of ``n_queries``.

    This is the oracle every crash+recover run must match: same engine
    recipe, same submissions in the same phase grouping, no WAL, no
    snapshot, no crash.
    """
    built = scenario.build_engine()
    engine = getattr(built, "engine", built)
    run_phases(engine, scenario, limit=n_queries)
    statuses: list[str] = []
    rows: list[list[dict]] = []
    for query_id in _query_order(engine.queries):
        handle = engine.queries[query_id]
        statuses.append(handle.status.value)
        rows.append([row.to_dict() for row in handle.results()])
    return fingerprint_engine(engine, statuses, rows)


# ---------------------------------------------------------------------------
# Storage-level corruption
# ---------------------------------------------------------------------------


def corrupt_tail(wal_path: str | Path, *, mode: str = "truncate", seed: int = 0) -> int:
    """Damage the end of a WAL file; returns the number of bytes affected.

    ``"truncate"`` chops a few bytes off the final record (a torn write);
    ``"bitflip"`` flips one bit inside the final record's payload (media
    corruption).  Either way the scanner must detect the damage via the
    frame length / CRC and cleanly truncate back to the last valid record.
    """
    path = Path(wal_path)
    data = path.read_bytes()
    if len(data) < 16:
        raise ValueError(f"{path} is too small to corrupt meaningfully")
    rng = random.Random(seed)
    if mode == "truncate":
        cut = rng.randint(1, 12)
        path.write_bytes(data[:-cut])
        return cut
    if mode == "bitflip":
        offset = len(data) - rng.randint(1, 12)
        corrupted = bytearray(data)
        corrupted[offset] ^= 1 << rng.randint(0, 7)
        path.write_bytes(bytes(corrupted))
        return 1
    raise ValueError(f"unknown corruption mode {mode!r} (use 'truncate' or 'bitflip')")
