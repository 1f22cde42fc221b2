"""A shard worker: one full Qurk engine behind a message-dispatch loop.

Each shard of the cluster runs a complete :class:`~repro.engine.QurkEngine`
(its own storage, marketplace, scheduler, budget ledger) built from an
:class:`EngineSpec` — a ``"module:callable"`` factory path plus kwargs,
resolved *inside* the worker process so no live engine ever crosses the
process boundary.  The factory may return either a ``QurkEngine`` or an
:class:`~repro.experiments.harness.ExperimentRun` (anything with an
``.engine`` attribute).

:class:`ShardWorker` is deliberately usable in-process: ``handle(message)``
is a pure dict→dict dispatch, which is what ``python -m repro.profile``
uses to profile a single named shard, and what the determinism tests use to
compare a 1-shard cluster against an in-process engine without forking.
:meth:`ShardWorker.serve` is the recv → handle → send loop around it, and
:func:`worker_main` runs that loop over the pipe in each child process.

A worker drives itself.  Until it is told to go *live* (``{"op": "live",
"on": true}``) it only ever acts on a message — ``drain`` and ``pump`` are
the coordinator's levers, which is what keeps batch runs byte-identical to
the in-process engine.  Once live, ``serve`` runs one scheduling pass
whenever no message is waiting, so submitted queries finish with nobody
pumping them, and blocks in ``recv()`` as soon as nothing is left to do.
"""

from __future__ import annotations

import importlib
import os
import resource
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.messages import PipeTransport, Transport, reply_error, reply_ok
from repro.cluster.serialization import decode_query, encode_rows
from repro.crowd.wallclock import WallClock
from repro.dashboard import QueryDashboard
from repro.errors import ClusterError, EngineOverloadedError, QurkError
from repro.testing.chaos import fingerprint_engine

__all__ = ["EngineSpec", "ShardWorker", "worker_main"]

#: The slice a live worker runs between messages: one pass, so a waiting
#: message is never delayed by more than that.
_ONE_PASS = {"op": "pump", "max_passes": 1}
#: How long a live worker whose pass moved nothing (its engine is waiting on
#: real time) waits for a message before trying another pass.
_STALL_TICK = 0.05


@dataclass(frozen=True)
class EngineSpec:
    """A picklable-by-value recipe for building one shard's engine.

    ``factory`` names a callable as ``"package.module:callable"``; it is
    imported and called with ``kwargs`` inside the worker.  Keeping the
    recipe (not the engine) on the wire is what lets every shard build an
    identical, independent marketplace from the same seed.
    """

    factory: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "EngineSpec":
        return cls(factory=payload["factory"], kwargs=dict(payload.get("kwargs", {})))

    def build(self):
        """Import the factory and build the engine (or ExperimentRun)."""
        module_name, _, attr = self.factory.partition(":")
        if not module_name or not attr:
            raise ClusterError(
                f"engine factory must be 'module:callable', got {self.factory!r}"
            )
        try:
            module = importlib.import_module(module_name)
            factory = getattr(module, attr)
        except (ImportError, AttributeError) as error:
            raise ClusterError(f"cannot resolve engine factory {self.factory!r}: {error}")
        built = factory(**self.kwargs)
        engine = getattr(built, "engine", built)
        if not hasattr(engine, "scheduler") or not hasattr(engine, "query"):
            raise ClusterError(
                f"engine factory {self.factory!r} returned {type(built).__name__}, "
                "which is neither a QurkEngine nor an object with an .engine"
            )
        return engine


class ShardWorker:
    """One shard: a full engine plus the op dispatch the coordinator speaks.

    Coordinator-assigned query ids (``cq1``, ``cq2``, ...) are mapped to the
    shard's own handles in submission order; every op addresses queries by
    the coordinator id, so the coordinator never needs to know shard-local
    ids.  :meth:`handle` serves one message and never steps the scheduler on
    its own; :meth:`serve` is the loop that, once the ``live`` op turned it
    on, also advances the scheduler between messages.
    """

    def __init__(
        self,
        spec: EngineSpec,
        shard_id: int = 0,
        *,
        durability: dict[str, Any] | None = None,
    ):
        self.spec = spec
        self.shard_id = shard_id
        self.durability = durability
        self._handles: dict[str, Any] = {}
        self._order: list[str] = []
        # Original submission payloads, kept so the coordinator can withdraw
        # a still-pending query and replay it verbatim on another shard.
        self._submissions: dict[str, dict[str, Any]] = {}
        # Whether :meth:`serve` advances the scheduler between messages.
        self._live = False
        if durability is None:
            self.engine = spec.build()
            return
        # Durable shard: recover in place when a WAL already exists (the
        # worker is a restart after a crash), otherwise start journalling.
        # Workers never auto-checkpoint (snapshot_every=None): the full log
        # is what lets a restart rebuild the coordinator-id → handle map
        # below, and per-shard logs stay short-lived anyway.
        from pathlib import Path

        from repro.engine import QurkEngine
        from repro.storage.durability import WAL_FILENAME, DurabilityConfig

        directory = Path(durability["directory"])
        fsync = durability.get("fsync", "interval")
        fsync_every = int(durability.get("fsync_every", 256))
        if (directory / WAL_FILENAME).exists():
            result = QurkEngine.recover(
                directory, fsync=fsync, fsync_every=fsync_every, snapshot_every=None
            )
            self.engine = result.engine
            # Replay in LSN order restores submission order; an alias whose
            # engine query never made it into the log belongs to a
            # submission that died before becoming durable — the
            # coordinator's retry will re-submit it.
            for record in result.records:
                if record.type != "cluster_alias":
                    continue
                cluster_id = record.data["cluster_id"]
                engine_id = record.data["query_id"]
                if cluster_id in self._handles or engine_id not in self.engine.queries:
                    continue
                self._handles[cluster_id] = self.engine.queries[engine_id]
                self._order.append(cluster_id)
        else:
            self.engine = spec.build()
            directory.mkdir(parents=True, exist_ok=True)
            self.engine.enable_durability(
                DurabilityConfig(
                    directory=str(directory),
                    fsync=fsync,
                    fsync_every=fsync_every,
                    snapshot_every=None,
                ),
                spec=spec.payload(),
            )

    # -- dispatch ----------------------------------------------------------

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Serve one protocol message; never raises for query-level faults."""
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return reply_error(f"unknown cluster op {op!r}")
        try:
            return handler(message)
        except EngineOverloadedError as error:
            # Backpressure is structured, not a generic fault: the reply
            # names the class and carries the retry-after hint so the
            # coordinator (and the TCP server beyond it) can rebuild the
            # typed error for the client instead of a bare ClusterError.
            return reply_error(
                f"EngineOverloadedError: {error}",
                error_type="overloaded",
                retry_after=error.retry_after,
            )
        except QurkError as error:
            return reply_error(
                f"{type(error).__name__}: {error}", error_type=type(error).__name__
            )

    def _handle_of(self, query_id: str):
        try:
            return self._handles[query_id]
        except KeyError:
            raise ClusterError(f"shard {self.shard_id} does not own query {query_id!r}")

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return reply_ok(shard=self.shard_id, pid=os.getpid())

    def _submit_one(self, payload: dict[str, Any]) -> str:
        submission = decode_query(payload)
        query_id = submission["query_id"]
        if query_id in self._handles:
            if self.durability is not None:
                # A healed coordinator retries the whole op; submissions
                # that already survived the crash are simply acknowledged,
                # making heal + retry exactly-once.
                return query_id
            raise ClusterError(f"query {query_id!r} already submitted to shard {self.shard_id}")
        journal = getattr(self.engine, "journal", None)
        if journal is not None:
            # The alias is logged *before* the engine's own query_submitted
            # record and names the engine id the submission is about to get.
            # On recovery, an alias whose engine query is missing marks a
            # submission that died in between — it is dropped, and the retry
            # recreates the same id.  Durability is group-committed: the
            # submit op fsyncs once before acking the batch (see
            # :meth:`_flush_journal`), so "acked to the coordinator" still
            # implies "on disk".
            journal.record(
                "cluster_alias",
                {
                    "cluster_id": query_id,
                    "query_id": f"q{self.engine._next_query_seq + 1}",
                },
            )
        handle = self.engine.query(
            submission["sql"],
            budget=submission["budget"],
            priority=submission["priority"],
            config=submission["config"],
        )
        self._handles[query_id] = handle
        self._order.append(query_id)
        self._submissions[query_id] = dict(payload)
        return query_id

    def _flush_journal(self) -> None:
        """Group commit: one fsync covers every record of the batch.

        The coordinator treats an acked submission as durable (a healed
        worker must reproduce it), so the ack must not leave the pipe
        before the aliases and submissions of the whole op are on disk —
        but per-record fsyncs would cost one sync per query instead of one
        per op.
        """
        journal = getattr(self.engine, "journal", None)
        if journal is not None:
            journal.wal.flush()

    def _op_submit(self, message: dict[str, Any]) -> dict[str, Any]:
        query_id = self._submit_one(message["query"])
        self._flush_journal()
        return reply_ok(query_id=query_id)

    def _op_submit_many(self, message: dict[str, Any]) -> dict[str, Any]:
        accepted = [self._submit_one(payload) for payload in message["queries"]]
        self._flush_journal()
        return reply_ok(query_ids=accepted)

    def _op_status(self, message: dict[str, Any]) -> dict[str, Any]:
        handle = self._handle_of(message["query_id"])
        return reply_ok(
            status=handle.status.value,
            results_emitted=len(handle),
            error=str(handle.error) if handle.error is not None else None,
        )

    def _op_poll(self, message: dict[str, Any]) -> dict[str, Any]:
        handle = self._handle_of(message["query_id"])
        return reply_ok(rows=encode_rows(handle.poll()))

    def _op_results(self, message: dict[str, Any]) -> dict[str, Any]:
        handle = self._handle_of(message["query_id"])
        return reply_ok(status=handle.status.value, rows=encode_rows(handle.results()))

    def _op_describe_plan(self, message: dict[str, Any]) -> dict[str, Any]:
        handle = self._handle_of(message["query_id"])
        return reply_ok(plan=handle.describe_plan())

    def _op_live(self, message: dict[str, Any]) -> dict[str, Any]:
        """Start (or stop) advancing the scheduler between messages."""
        self._live = bool(message.get("on"))
        return reply_ok(shard=self.shard_id, live=self._live)

    def _op_pump(self, message: dict[str, Any]) -> dict[str, Any]:
        """One bounded scheduling slice — also what a live worker runs itself."""
        progressed = self.engine.scheduler.pump(max_passes=int(message.get("max_passes", 1)))
        if not progressed and not self.engine.scheduler.has_work():
            # Between queries nothing schedules, but the marketplace may
            # still owe events (expiries of unclaimed HITs).  Draining them
            # on a wall clock would block real time, so only the simulated
            # substrate fast-forwards here.
            if not isinstance(self.engine.clock, WallClock):
                self.engine.clock.run_until_idle()
        return reply_ok(progressed=progressed, has_work=self.engine.scheduler.has_work())

    def _op_withdraw_pending(self, message: dict[str, Any]) -> dict[str, Any]:
        """Hand back every still-pending (never admitted) submission.

        The coordinator calls this on a shard it has judged unhealthy: each
        query the scheduler can still :meth:`~EngineScheduler.withdraw` is
        forgotten here and its original submission payload returned, so the
        coordinator can replay it verbatim on a healthy shard under the same
        cluster id.  Admitted queries (which may hold in-flight crowd work)
        stay put.  Only submissions this process has seen are eligible — a
        WAL-recovered worker keeps its recovered queries, which are durable
        where they are.
        """
        withdrawn: list[dict[str, Any]] = []
        for cluster_id in list(self._order):
            payload = self._submissions.get(cluster_id)
            if payload is None:
                continue
            handle = self._handles[cluster_id]
            if not self.engine.scheduler.withdraw(handle.query_id):
                continue
            withdrawn.append(payload)
            del self._handles[cluster_id]
            self._order.remove(cluster_id)
            del self._submissions[cluster_id]
        return reply_ok(shard=self.shard_id, queries=withdrawn)

    def _op_drain(self, message: dict[str, Any]) -> dict[str, Any]:
        finished = self.engine.scheduler.drain()
        self.engine.clock.run_until_idle()
        statuses = {qid: self._handles[qid].status.value for qid in self._order}
        return reply_ok(finished=finished, statuses=statuses)

    def _op_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        queries = {}
        for qid in self._order:
            stats = self._handles[qid].stats
            queries[qid] = {
                "status": self._handles[qid].status.value,
                "budget": stats.budget,
                "spent": stats.spent,
                "hits_posted": stats.hits_posted,
                "tasks_submitted": stats.tasks_submitted,
                "tasks_completed": stats.tasks_completed,
                "cache_hits": stats.cache_hits,
                "model_answers": stats.model_answers,
                "results_emitted": stats.results_emitted,
                "dollars_saved_cache": stats.dollars_saved_cache,
                "dollars_saved_model": stats.dollars_saved_model,
            }
        scheduler = self.engine.scheduler
        return reply_ok(
            shard=self.shard_id,
            queries=queries,
            totals={
                **self.engine.counters(),
                "queries": len(self._order),
                "queue_depth": len(scheduler.active_queries()) + len(scheduler.queued_queries()),
                "total_cost": self.engine.total_crowd_cost,
            },
            peak_rss_kb=_peak_rss_kb(),
        )

    def _op_cache_export(self, message: dict[str, Any]) -> dict[str, Any]:
        """Ship cache stores made since the coordinator's cursor.

        Entries arrive pack_value-encoded (JSON-safe), so the reply crosses
        the pipe without any engine object leaking across the boundary.
        """
        cursor, entries = self.engine.task_cache.export_since(
            int(message.get("since", 0))
        )
        return reply_ok(shard=self.shard_id, cursor=cursor, entries=entries)

    def _op_cache_import(self, message: dict[str, Any]) -> dict[str, Any]:
        imported = self.engine.task_cache.import_entries(message.get("entries", []))
        return reply_ok(shard=self.shard_id, imported=imported)

    def _op_dashboard(self, message: dict[str, Any]) -> dict[str, Any]:
        dashboard = QueryDashboard(self.engine)
        return reply_ok(shard=self.shard_id, text=dashboard.render_all())

    def _op_fingerprint(self, message: dict[str, Any]) -> dict[str, Any]:
        statuses = [self._handles[qid].status.value for qid in self._order]
        rows = [
            [row.to_dict() for row in self._handles[qid].results()] for qid in self._order
        ]
        return reply_ok(
            shard=self.shard_id,
            fingerprint=fingerprint_engine(self.engine, statuses, rows),
        )

    def _op_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        return reply_ok(bye=True)

    # -- the message loop --------------------------------------------------

    def serve(self, transport: Transport) -> None:
        """recv → handle → send until ``shutdown`` or the peer goes away.

        A worker that is not live blocks in ``recv()`` between messages.  A
        live one follows every message with scheduling passes
        (:meth:`_op_pump`, the same slice the ``pump`` op runs) until a pass
        finds nothing to do and nothing left — then it blocks in ``recv()``
        again — or another message is waiting.  So a pass runs between any
        two served messages (a client polling ``status`` in a tight loop
        cannot starve the query it polls), a waiting message is delayed by
        at most one pass, and a pass that moved nothing while work remains
        waits ``_STALL_TICK`` for a message rather than spinning.
        """
        while True:
            try:
                message = transport.recv()
            except ClusterError:
                return  # coordinator went away; exit quietly
            transport.send(self.handle(message))
            if message.get("op") == "shutdown":
                return
            while self._live:
                ran = self._op_pump(_ONE_PASS)
                if not ran["progressed"] and not ran["has_work"]:
                    break
                if transport.poll(0 if ran["progressed"] else _STALL_TICK):
                    break


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return peak // 1024 if os.uname().sysname == "Darwin" else peak


def worker_main(
    connection,
    spec_payload: dict[str, Any],
    shard_id: int,
    durability: dict[str, Any] | None = None,
) -> None:
    """Child-process entry point: build the engine, then serve the pipe.

    With ``durability`` (a ``{"directory", "fsync", "fsync_every"}`` dict)
    the worker recovers from an existing WAL or starts journalling to a
    fresh one, so a respawned worker heals in place.  A failed engine build
    is reported as an error reply to the first request rather than a silent
    child death, so the coordinator's ping surfaces a readable message.
    """
    transport = PipeTransport(connection)
    worker: ShardWorker | None = None
    build_error: str | None = None
    try:
        worker = ShardWorker(
            EngineSpec.from_payload(spec_payload), shard_id, durability=durability
        )
    except Exception as error:  # noqa: BLE001 - reported via the transport
        build_error = f"shard {shard_id} failed to build its engine: {error}"
    try:
        if worker is not None:
            worker.serve(transport)
        else:
            while True:
                try:
                    transport.recv()
                except ClusterError:
                    break
                transport.send(reply_error(build_error or "worker has no engine"))
    finally:
        if worker is not None and getattr(worker.engine, "journal", None) is not None:
            worker.engine.journal.close()
        transport.close()
