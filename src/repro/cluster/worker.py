"""A shard worker: one full Qurk engine behind a message-dispatch loop.

Each shard of the cluster runs a complete :class:`~repro.engine.QurkEngine`
(its own storage, marketplace, scheduler, budget ledger) built from an
:class:`EngineSpec` — a ``"module:callable"`` factory path plus kwargs,
resolved *inside* the worker process so no live engine ever crosses the
process boundary.  The recipe is resolved by the one engine resolver,
:func:`repro.storage.durability.build_engine_from_payload`, the same one
WAL recovery uses: the factory may return either a ``QurkEngine`` or an
:class:`~repro.experiments.harness.ExperimentRun` (anything with an
``.engine`` attribute).  A durable shard is handed its
:class:`~repro.storage.durability.DurabilityConfig` whole and journals
(or recovers) under exactly that config.

The worker keeps one ordered map from cluster query id to the shard's
handle; every op that lists queries reads it in submission order.

:class:`ShardWorker` is deliberately usable in-process: ``handle(message)``
is a pure dict→dict dispatch, which is what the determinism tests use to
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

import os
import resource
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.messages import PipeTransport, Transport, reply_error, reply_ok
from repro.cluster.serialization import decode_query, encode_rows
from repro.crowd.wallclock import WallClock
from repro.dashboard import QueryDashboard
from repro.errors import ClusterError, QurkError
from repro.storage.durability import DurabilityConfig, build_engine_from_payload
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
        """Import the factory and build the engine (unwrapping an ExperimentRun)."""
        return build_engine_from_payload(self.payload())


class ShardWorker:
    """One shard: a full engine plus the op dispatch the coordinator speaks.

    Coordinator-assigned query ids (``cq1``, ``cq2``, ...) map, in
    submission order, to the shard's own handle; every op addresses queries
    by the coordinator id, so the coordinator never needs to know
    shard-local ids.  :meth:`handle` serves
    one message and never steps the scheduler on its own; :meth:`serve` is
    the loop that, once the ``live`` op turned it on, also advances the
    scheduler between messages.
    """

    def __init__(
        self,
        spec: EngineSpec,
        shard_id: int = 0,
        *,
        durability: DurabilityConfig | None = None,
    ):
        self.spec = spec
        self.shard_id = shard_id
        self.durability = durability
        # Cluster id → handle, in submission order.
        self._queries: dict[str, Any] = {}
        # Whether :meth:`serve` advances the scheduler between messages.
        self._live = False
        if durability is None:
            self.engine = spec.build()
            return
        # Durable shard: recover in place when a WAL already exists (the
        # worker is a restart after a crash), otherwise start journalling.
        # The coordinator's config never auto-checkpoints, so the log still
        # holds every alias the cluster-id map below is rebuilt from.
        from repro.engine import QurkEngine

        if durability.wal_path().exists():
            result = QurkEngine.recover(
                durability.directory,
                fsync=durability.fsync,
                fsync_every=durability.fsync_every,
                snapshot_every=durability.snapshot_every,
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
                if cluster_id in self._queries or engine_id not in self.engine.queries:
                    continue
                self._queries[cluster_id] = self.engine.queries[engine_id]
        else:
            self.engine = spec.build()
            Path(durability.directory).mkdir(parents=True, exist_ok=True)
            self.engine.enable_durability(durability, spec=spec.payload())

    # -- dispatch ----------------------------------------------------------

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Serve one protocol message; never raises for query-level faults."""
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return reply_error(f"unknown cluster op {op!r}")
        try:
            return handler(message)
        except QurkError as error:
            return reply_error(error)

    def _handle_of(self, query_id: str):
        try:
            return self._queries[query_id]
        except KeyError:
            raise ClusterError(f"shard {self.shard_id} does not own query {query_id!r}")

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return reply_ok(shard=self.shard_id, pid=os.getpid())

    def _refusal(self, submissions: list[dict[str, Any]]) -> dict[str, Any] | None:
        """The first submission the engine would refuse, or None.

        Returns ``{"entry": position, "error": text}``.  Checking comes
        before any alias is journaled: a refused statement consumes no
        engine id, so an alias written for it would name the next accepted
        query.  Submissions this shard already holds are skipped (a retried
        op acknowledges them).
        """
        for position, submission in enumerate(submissions):
            if submission["query_id"] in self._queries:
                continue
            try:
                self.engine.validate(
                    submission["sql"],
                    config=submission["config"],
                    priority=submission["priority"],
                    budget=submission["budget"],
                )
            except QurkError as error:
                return {"entry": position, "error": f"{type(error).__name__}: {error}"}
        return None

    def _submit_one(self, submission: dict[str, Any]) -> str:
        query_id = submission["query_id"]
        if query_id in self._queries:
            if self.durability is not None:
                # A healed coordinator retries the whole op; submissions
                # that already survived the crash are simply acknowledged,
                # making heal + retry exactly-once.
                return query_id
            raise ClusterError(f"query {query_id!r} already submitted to shard {self.shard_id}")
        journal = getattr(self.engine, "journal", None)
        if journal is not None:
            # The alias is logged *before* the engine's own query_submitted
            # record and names the engine id the submission is about to get
            # (:meth:`_refusal` has already checked that the engine accepts
            # it).  On recovery, an alias whose engine query is missing marks
            # a submission that died in between — it is dropped, and the
            # retry recreates the same id.  Durability is group-committed:
            # the submit op fsyncs once before acking the batch (see
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
        self._queries[query_id] = handle
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
        reply = self._op_submit_many({"queries": [message["query"]]})
        if "refused" in reply:
            return reply_error(reply["refused"]["error"])
        return reply_ok(query_id=reply["query_ids"][0])

    def _op_submit_many(self, message: dict[str, Any]) -> dict[str, Any]:
        """Admit a batch whole, or refuse it whole.

        A refusal is an ``ok`` reply carrying ``refused`` (see
        :meth:`_refusal`), so the coordinator can name the batch entry.
        """
        submissions = [decode_query(payload) for payload in message["queries"]]
        refused = self._refusal(submissions)
        if refused is not None:
            return reply_ok(refused=refused)
        accepted = [self._submit_one(submission) for submission in submissions]
        self._flush_journal()
        return reply_ok(query_ids=accepted)

    def _op_check(self, message: dict[str, Any]) -> dict[str, Any]:
        """:meth:`_op_submit_many`'s refusal, without admitting anything."""
        submissions = [decode_query(payload) for payload in message["queries"]]
        return reply_ok(refused=self._refusal(submissions))

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

    def _op_drain(self, message: dict[str, Any]) -> dict[str, Any]:
        finished = self.engine.scheduler.drain()
        self.engine.clock.run_until_idle()
        statuses = {qid: handle.status.value for qid, handle in self._queries.items()}
        return reply_ok(finished=finished, statuses=statuses)

    def _op_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        # A count per status keeps the reply's size flat in the number of
        # queries this worker has finished.
        statuses = Counter(handle.status.value for handle in self._queries.values())
        scheduler = self.engine.scheduler
        return reply_ok(
            shard=self.shard_id,
            statuses=dict(statuses),
            totals={
                **self.engine.counters(),
                "queries": len(self._queries),
                "queue_depth": len(scheduler.active_queries()) + len(scheduler.queued_queries()),
                "total_cost": self.engine.total_crowd_cost,
            },
            peak_rss_kb=_peak_rss_kb(),
        )

    def _op_cache_export(self, message: dict[str, Any]) -> dict[str, Any]:
        """Ship cache stores made since the coordinator's cursor.

        Entries arrive as :meth:`CacheEntry.record` records packed by the
        value codec, so the reply crosses the pipe without any engine object
        leaking across the boundary.
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
        handles = list(self._queries.values())
        statuses = [handle.status.value for handle in handles]
        rows = [[row.to_dict() for row in handle.results()] for handle in handles]
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
    durability: DurabilityConfig | None = None,
) -> None:
    """Child-process entry point: build the engine, then serve the pipe.

    With ``durability`` the worker recovers from an existing WAL or starts journalling to a
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
