"""The Qurk engine: the public entry point of the reproduction.

A :class:`QurkEngine` wires together every box of Figure 1 — storage engine,
statistics manager, query optimizer, executor, task manager, HIT compiler,
task cache, task model and the (simulated) MTurk platform — behind a small
API:

.. code-block:: python

    from repro import QurkEngine
    from repro.workloads import CompaniesWorkload

    workload = CompaniesWorkload(n_companies=20)
    engine = QurkEngine(seed=7)
    workload.install(engine.database)
    engine.register_oracle("findCEO", workload.oracle())
    engine.define_task(workload.findceo_spec())

    handle = engine.query(
        "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
        "FROM companies"
    )
    rows = handle.wait()  # a RowsView: each Row is built when it is read

Queries run asynchronously against simulated time: ``handle.poll()`` mirrors
the paper's "poll the results table" pattern, ``handle.wait()`` drives the
simulation to completion.  Both return a read-only
:class:`~repro.storage.table.RowsView` over the results table's columns.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.core.exec.context import ExecutionContext, QueryConfig
from repro.core.exec.executor import QueryExecutor
from repro.core.exec.handle import QueryHandle
from repro.core.exec.scheduler import EngineScheduler
from repro.core.lang.ast import SelectStatement
from repro.core.lang.sql_parser import parse_select
from repro.core.lang.task_parser import parse_task
from repro.core.optimizer.adaptive import AdaptiveReplanner
from repro.core.optimizer.budget import BudgetLedger
from repro.core.optimizer.cost_model import CostEstimate, CostModel
from repro.core.optimizer.optimizer import QueryOptimizer
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.plan.planner import QueryPlanner
from repro.core.plan.registry import RegisteredTask, TaskRegistry
from repro.core.tasks.batching import BatchingPolicy
from repro.core.tasks.hit_compiler import HITCompiler
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import TaskKind
from repro.core.tasks.task_cache import CachePolicy, TaskCache
from repro.core.tasks.task_manager import TaskManager
from repro.core.tasks.task_model import TaskModelRegistry
from repro.crowd.breaker import BreakerConfig, BreakerStats, MarketplaceCircuitBreaker
from repro.crowd.clock import SimulationClock
from repro.crowd.faults import FaultProfile
from repro.crowd.mturk import MTurkSimulator
from repro.crowd.oracle import AnswerOracle
from repro.crowd.pricing import DEFAULT_PRICING, PricingPolicy
from repro.crowd.quality import (
    GoldQuestion,
    GoldStandardPool,
    QualityConfig,
    WorkerReputation,
)
from repro.crowd.worker_pool import PopulationMix, WorkerPool
from repro.errors import QurkError, SnapshotError
from repro.storage.database import Database
from repro.storage.durability import (
    DurabilityConfig,
    EngineJournal,
    RecoveryResult,
    capture_engine_state,
    recover_engine,
)
from repro.storage.snapshot import write_snapshot
from repro.storage.table import RowsView
from repro.storage.wal import WriteAheadLog
from repro.workloads.oracles import CompositeOracle

__all__ = ["QurkEngine"]


class QurkEngine:
    """A complete Qurk instance bound to one simulated crowd marketplace.

    Parameters
    ----------
    seed:
        Master seed for the simulated worker population.
    worker_pool_size, population_mix:
        Size and composition of the simulated marketplace.
    pricing:
        Platform fee schedule.
    enable_cache / enable_task_model:
        Toggle the Task Cache and the learned Task Model (both on by
        default, as in the paper's dashboard discussion).
    cache_policy:
        Optional :class:`~repro.core.tasks.task_cache.CachePolicy` adding
        TTL expiry and reputation-gated admission to the Task Cache.
        ``None`` (the default) keeps the legacy never-expiring,
        admit-everything cache byte-identical.
    default_query_config:
        The :class:`~repro.core.exec.context.QueryConfig` (budget, adaptive
        optimization, deadline) for queries that do not pass their own.
    max_concurrent_queries:
        Admission-control limit for the engine scheduler: at most this many
        queries run concurrently; later queries wait in a FIFO admission
        queue.  ``None`` (the default) means unlimited.
    fault_profile:
        Optional :class:`~repro.crowd.faults.FaultProfile` enabling seeded
        marketplace misbehaviour (HIT expiry, worker abandonment, duplicate
        and late submissions).  The engine's Task Manager requeues tasks
        stranded by expired HITs; a task that burns through its attempt cap
        surfaces the owning query as ``STALLED``.
    quality:
        Optional :class:`~repro.crowd.quality.QualityConfig` switching on
        worker quality control: gold-standard probe questions, a per-worker
        reputation tracker feeding confidence-weighted voting, and adaptive
        (wave-based, early-stopping) redundancy.  ``None`` (the default)
        keeps the fixed-redundancy unweighted pipeline byte-identical.
    clock:
        The clock everything latency-related runs on.  ``None`` (the
        default) builds a fresh discrete-event
        :class:`~repro.crowd.clock.SimulationClock`; pass a
        :class:`~repro.crowd.wallclock.WallClock` to make simulated delays
        take real time (live-traffic mode behind the cluster front end).
    admission_queue_limit, overload_policy, overload_retry_after:
        Admission backpressure: bound the pending-admission queue at
        ``admission_queue_limit`` waiting queries.  Past it, a submission is
        refused with :class:`~repro.errors.EngineOverloadedError` carrying
        ``retry_after`` seconds (``overload_policy="reject"``), or the
        lowest-priority waiting query is shed to make room when the
        newcomer outranks it (``overload_policy="shed"``).  ``None`` (the
        default) keeps the queue unbounded.
    circuit_breaker:
        Optional :class:`~repro.crowd.breaker.BreakerConfig` wrapping HIT
        posting in a closed → open → half-open circuit breaker: consecutive
        fault-driven HIT expiries pause posting for an exponentially
        backed-off cooldown instead of hammering a degraded marketplace.
        ``None`` (the default) posts unconditionally.
    """

    def __init__(
        self,
        *,
        seed: int = 7,
        worker_pool_size: int = 150,
        population_mix: PopulationMix | None = None,
        pricing: PricingPolicy = DEFAULT_PRICING,
        enable_cache: bool = True,
        enable_task_model: bool = True,
        cache_policy: CachePolicy | None = None,
        default_query_config: QueryConfig | None = None,
        max_concurrent_queries: int | None = None,
        fault_profile: FaultProfile | None = None,
        quality: QualityConfig | None = None,
        clock: SimulationClock | None = None,
        admission_queue_limit: int | None = None,
        overload_policy: str = "reject",
        overload_retry_after: float = 30.0,
        circuit_breaker: BreakerConfig | None = None,
    ) -> None:
        self.database = Database()
        self.clock = clock if clock is not None else SimulationClock()
        self.oracle = CompositeOracle({})
        self.worker_pool = WorkerPool(
            size=worker_pool_size, mix=population_mix or PopulationMix(), seed=seed
        )
        self.fault_profile = fault_profile
        self.quality = quality
        self.reputation = WorkerReputation() if quality is not None else None
        self.gold_pool = GoldStandardPool()
        self.platform = MTurkSimulator(
            self.clock, self.worker_pool, self.oracle, pricing=pricing, faults=fault_profile
        )
        self.statistics = StatisticsManager()
        self.budget_ledger = BudgetLedger()
        self.task_cache = TaskCache(enabled=enable_cache, policy=cache_policy)
        self.task_models = TaskModelRegistry(enabled=enable_task_model)
        self.hit_compiler = HITCompiler()
        self.breaker = (
            MarketplaceCircuitBreaker(circuit_breaker, clock=self.clock)
            if circuit_breaker is not None
            else None
        )
        self.task_manager = TaskManager(
            self.platform,
            self.statistics,
            self.budget_ledger,
            cache=self.task_cache,
            models=self.task_models,
            compiler=self.hit_compiler,
            quality=quality,
            reputation=self.reputation,
            gold=self.gold_pool,
            breaker=self.breaker,
        )
        self.cost_model = CostModel(pricing)
        self.optimizer = QueryOptimizer(
            self.statistics,
            self.cost_model,
            reputation=self.reputation,
            models=self.task_models,
        )
        self.replanner = AdaptiveReplanner(self.optimizer)
        self.scheduler = EngineScheduler(
            self.clock,
            self.task_manager,
            max_concurrent_queries=max_concurrent_queries,
            replanner=self.replanner,
            admission_queue_limit=admission_queue_limit,
            overload_policy=overload_policy,
            overload_retry_after=overload_retry_after,
        )
        self.registry = TaskRegistry()
        self.planner = QueryPlanner(self.database, self.registry, self.optimizer)
        self.default_query_config = default_query_config or QueryConfig()
        self.queries: dict[str, QueryHandle] = {}
        # Plain int (not itertools.count) so recovery can restore it from a
        # snapshot and replayed queries get their original ids back.
        self._next_query_seq = 0
        # Durability is opt-in via enable_durability()/recover().
        self.durability: DurabilityConfig | None = None
        self.journal: EngineJournal | None = None
        # The durable answer tier is opt-in via attach_answer_tier().
        self.answer_tier = None
        # Outcomes (status + rows) of queries that finished before the
        # snapshot this engine was recovered from; their query_submitted
        # records were truncated out of the WAL, so these are the only
        # surviving account of them.
        self._recovered_outcomes: list[dict] = []

    # -- schema / data ------------------------------------------------------------------------

    def create_table(self, name: str, columns, *, rows=None):
        """Create a base table and optionally populate it."""
        table = self.database.create_table(name, columns)
        if rows:
            table.insert_many(rows)
        return table

    # -- crowd UDFs ----------------------------------------------------------------------------

    def define_task(
        self,
        definition: TaskSpec | str,
        *,
        payload=None,
        left_payload=None,
        right_payload=None,
        prefilter=None,
        learnable: bool = True,
    ) -> RegisteredTask:
        """Register a crowd UDF from a TASK definition (text or spec).

        ``payload`` / ``left_payload`` / ``right_payload`` map rows to what
        workers see; ``prefilter`` is a free machine predicate on join pairs.
        When the spec carries a feature extractor and ``learnable`` is True, a
        Task Model is attached so the optimizer can eventually replace the
        crowd with a classifier.
        """
        spec = parse_task(definition) if isinstance(definition, str) else definition
        entry = self.registry.register(
            spec,
            payload=payload,
            left_payload=left_payload,
            right_payload=right_payload,
            prefilter=prefilter,
            learnable=learnable,
        )
        if learnable and self.task_models.enabled:
            self.task_models.register_default(spec)
        return entry

    def register_oracle(self, task_name: str, oracle: AnswerOracle) -> None:
        """Attach the ground-truth oracle simulated workers use for one task."""
        self.oracle.register(task_name, oracle)

    def register_gold(self, task_name: str, questions: list[GoldQuestion]) -> None:
        """Attach gold-standard probe questions for one crowd UDF.

        With a :class:`~repro.crowd.quality.QualityConfig` active, the Task
        Manager injects one of these probes into a fraction of posted HITs
        (``gold_frequency``); workers' probe answers update their reputation
        posteriors.  Probe payloads must be answerable by the task's
        registered oracle — draw them from items whose ground truth the
        workload knows.
        """
        self.gold_pool.register(task_name, questions)

    def set_batching_policy(self, task_name: str, kind: TaskKind, policy: BatchingPolicy) -> None:
        """Override how tasks of one (task, kind) group are batched into HITs."""
        self.task_manager.set_batching_policy(task_name, kind, policy)

    # -- queries ----------------------------------------------------------------------------------

    def query(
        self,
        sql: str | SelectStatement,
        *,
        budget: float | None = None,
        config: QueryConfig | None = None,
        priority: float = 1.0,
    ) -> QueryHandle:
        """Parse, optimize and start a query; returns a pollable handle.

        The query is registered with the engine scheduler, so driving any
        handle (``step``/``run_until``/``wait``) progresses every concurrent
        query on this marketplace; ``priority`` weights this query's share of
        scheduler passes.
        """
        if self.journal is not None:
            # Replay re-submits the logged SQL text; anything that cannot
            # travel through the log verbatim would make recovery diverge.
            if not isinstance(sql, str):
                raise QurkError("a durable engine requires SQL text, not a pre-parsed statement")
            if config is not None:
                raise QurkError(
                    "a durable engine does not accept per-query config overrides; "
                    "set default_query_config on the engine instead"
                )
        statement = parse_select(sql) if isinstance(sql, str) else sql
        # Clone so per-query budget resolution never mutates the caller's (or
        # the engine's default) config, and new QueryConfig fields carry over.
        query_config = (config or self.default_query_config).clone()
        effective_budget = budget if budget is not None else statement.budget
        if effective_budget is None:
            effective_budget = query_config.budget
        query_config.budget = effective_budget

        self._next_query_seq += 1
        query_id = f"q{self._next_query_seq}"
        if self.journal is not None:
            # Submissions are the replay source, but they group-commit: the
            # WAL's append ordering plus the forced-durable record at drain
            # entry guarantee every submission is on disk before any of its
            # crowd effects happen, without paying an fsync per query().
            # Under fsync="always" the append is synced immediately anyway.
            self.journal.record(
                "query_submitted",
                {
                    "query_id": query_id,
                    "sql": sql,
                    "budget": effective_budget,
                    "priority": priority,
                },
            )
        self.budget_ledger.register(query_id, effective_budget)
        planned = self.planner.plan(statement, query_id=query_id)
        context = ExecutionContext(
            query_id=query_id,
            database=self.database,
            task_manager=self.task_manager,
            statistics=self.statistics,
            budget=self.budget_ledger,
            clock=self.clock,
            config=query_config,
            optimizer=self.optimizer,
        )
        executor = QueryExecutor(planned.root, context)
        raw_sql = statement.raw_sql or (sql if isinstance(sql, str) else "")
        handle = QueryHandle(query_id, raw_sql, executor, planned.root.results_table)
        if planned.chosen is not None:
            self.replanner.record_initial(
                query_id, ", ".join(planned.chosen.decisions) or "default plan", self.clock.now
            )
        self.queries[query_id] = handle
        self.scheduler.submit(handle, priority=priority)
        return handle

    def run(self, sql: str | SelectStatement, **kwargs) -> RowsView:
        """Convenience wrapper: start a query, wait, and return a view of its rows."""
        return self.query(sql, **kwargs).wait()

    def estimate_query_cost(self, handle: QueryHandle) -> CostEstimate:
        """The optimizer's current cost estimate for a (possibly running) query."""
        return self.optimizer.estimate_plan_cost(handle.executor.root)

    def explain(self, sql: str | SelectStatement) -> str:
        """EXPLAIN a query without running it (or paying for anything).

        Renders the logical plan with current cardinality estimates, every
        physical candidate the enumerator costed, and the chosen plan.  No
        results table is created and no task is submitted.
        """
        statement = parse_select(sql) if isinstance(sql, str) else sql
        return self.planner.explain(statement)

    # -- durability --------------------------------------------------------------------------------

    def enable_durability(
        self,
        config: DurabilityConfig,
        *,
        spec: dict | None = None,
        _wal: WriteAheadLog | None = None,
    ) -> EngineJournal:
        """Start journalling every externally-visible event to a WAL.

        ``spec`` is an optional engine recipe (``{"factory", "kwargs"}``,
        the cluster :class:`~repro.cluster.worker.EngineSpec` payload
        shape) stored in the WAL header so :meth:`recover` can rebuild
        the engine without being told how.  Must be called before any
        query is submitted — the log must contain the engine's whole
        visible history.
        """
        if self.journal is not None:
            raise QurkError("durability is already enabled on this engine")
        if self._next_query_seq:
            raise QurkError("enable durability before submitting queries, not after")
        if _wal is not None:
            wal = _wal
        else:
            directory = Path(config.directory)
            directory.mkdir(parents=True, exist_ok=True)
            wal = WriteAheadLog.create(
                directory / "wal.log",
                spec=spec,
                fsync=config.fsync,
                fsync_every=config.fsync_every,
            )
        self.durability = config
        self.journal = EngineJournal(wal)
        self.budget_ledger.attach_journal(self.journal)
        self.task_manager.attach_journal(self.journal)
        self.scheduler.attach_journal(self.journal, checkpoint_hook=self._maybe_checkpoint)
        return self.journal

    def attach_answer_tier(
        self,
        directory: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 64,
    ):
        """Back the Task Cache with a durable answer tier at ``directory``.

        Opens (or creates) a :class:`~repro.storage.answer_tier.DurableAnswerTier`,
        warms the cache with every answer it holds, and mirrors all future
        admitted stores into its WAL — so cached answers survive restarts
        and can be shared by the next engine pointed at the same directory.
        The tier wants its own directory, separate from ``enable_durability``'s
        (their snapshot files would collide).

        Warming the cache changes which tasks reach the crowd, so attach a
        *non-empty* tier only when cross-run reuse is wanted; a fresh
        (empty) tier keeps the run byte-identical while recording answers.
        """
        from repro.storage.answer_tier import DurableAnswerTier

        if self.answer_tier is not None:
            raise QurkError("an answer tier is already attached to this engine")
        tier = DurableAnswerTier(directory, fsync=fsync, fsync_every=fsync_every)
        tier.load_into(self.task_cache)
        self.task_cache.attach_tier(tier)
        self.answer_tier = tier
        return tier

    def checkpoint(self) -> Path:
        """Snapshot the engine and truncate the WAL up to the snapshot LSN.

        Only legal at a quiescent point: open HITs live as closures on
        the clock's event heap and cannot be serialised, so the engine
        must have no pending events, no runnable queries and no
        outstanding crowd work.  (The scheduler calls this automatically
        at the end of a completed ``drain()`` when ``snapshot_every`` is
        configured.)
        """
        if self.journal is None:
            raise QurkError("checkpoint() requires durability; call enable_durability first")
        if (
            self.clock.pending_events
            or self.scheduler.has_work()
            or self.task_manager.has_outstanding_work()
        ):
            raise SnapshotError(
                "cannot snapshot a non-quiescent engine: "
                f"{self.clock.pending_events} clock events pending, "
                f"scheduler has_work={self.scheduler.has_work()}, "
                f"outstanding crowd work={self.task_manager.has_outstanding_work()}"
            )
        state = capture_engine_state(self)
        lsn = self.journal.wal.last_lsn
        path = write_snapshot(Path(self.durability.directory), state, lsn=lsn)
        self.journal.wal.truncate_to(lsn)
        self.journal.snapshot_taken()
        return path

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint hook the scheduler fires after a completed drain."""
        if self.journal is None or self.journal.replaying or self.durability is None:
            return
        if not self.journal.snapshot_due(self.durability.snapshot_every):
            return
        if (
            self.clock.pending_events
            or self.scheduler.has_work()
            or self.task_manager.has_outstanding_work()
        ):
            return
        self.checkpoint()

    @classmethod
    def recover(
        cls,
        path: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 256,
        snapshot_every: int | None = 200,
        factory=None,
    ) -> RecoveryResult:
        """Rebuild an engine from a durability directory after a crash.

        Loads the newest readable snapshot, replays every logged query
        submitted after it, and returns a
        :class:`~repro.storage.durability.RecoveryResult` whose engine
        is byte-identical (per ``fingerprint_engine``) to an
        uninterrupted run — determinism does the heavy lifting.
        """
        return recover_engine(
            path,
            fsync=fsync,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
            factory=factory,
        )

    # -- simulation control ------------------------------------------------------------------------

    def advance_time(self, seconds: float) -> None:
        """Advance simulated time, letting outstanding HITs complete."""
        if seconds < 0:
            raise QurkError("cannot advance time backwards")
        self.clock.advance_by(seconds)

    @property
    def total_crowd_cost(self) -> float:
        """Total dollars paid to the (simulated) crowd across all queries."""
        return self.platform.total_cost

    # -- telemetry ---------------------------------------------------------------------------------

    def counter_sources(self) -> tuple[tuple[str, object], ...]:
        """The registry: every engine-wide stats dataclass, with its name prefix.

        A numeric field is published as ``prefix + field name`` unless the
        field declares ``metadata={"counter": name}``.  Adding a field to any
        of these dataclasses is all it takes to publish a new counter: the
        dashboard, the shard ``stats`` op and the cluster merge read
        :meth:`counters`.  Looked up per call because snapshot recovery
        replaces the stats objects.
        """
        breaker = self.breaker.stats if self.breaker is not None else BreakerStats()
        return (
            ("", self.platform.stats),
            ("", self.task_manager.stats),
            ("", self.scheduler.metrics),
            ("cache_", self.task_cache.stats),
            ("breaker_", breaker),
        )

    def counters(self) -> dict[str, float | str]:
        """Every engine-wide counter and gauge by published name, right now.

        Numbers are additive across shards except ``simulated_time`` (shards
        share no clock; the cluster keeps the furthest); strings
        (``breaker_state``, ``fault_profile``) describe this engine only.
        """
        counters: dict[str, float | str] = {}
        for prefix, stats in self.counter_sources():
            for spec in dataclasses.fields(stats):
                value = getattr(stats, spec.name)
                if isinstance(value, (int, float)):
                    counters[spec.metadata.get("counter", prefix + spec.name)] = value
        reputation = self.reputation if self.reputation is not None else WorkerReputation()
        counters.update(reputation.summary())
        counters["simulated_time"] = self.clock.now
        counters["open_hits"] = self.platform.open_hit_count()
        counters["trusted_models"] = sum(
            1 for model in self.task_models.models().values() if model.is_trusted
        )
        counters["breaker_state"] = self.breaker.state if self.breaker is not None else ""
        faults = self.platform.faults
        counters["fault_profile"] = faults.describe() if faults.enabled else ""
        return counters
