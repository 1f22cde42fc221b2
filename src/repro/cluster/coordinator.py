"""The shard coordinator: N engine processes behind one submission API.

A :class:`ShardCoordinator` partitions queries across ``n_shards`` worker
processes, each running a full :class:`~repro.engine.QurkEngine` built from
the same :class:`~repro.cluster.worker.EngineSpec` (so every shard is an
identical, independent marketplace).  Placement is deterministic — seeded
hash or round-robin by admission order — which is what makes N-shard
same-seed runs fingerprint-stable.

Determinism contract: a 1-shard cluster is byte-identical to the in-process
engine.  The worker's ``drain`` op is exactly the chaos harness's driving
sequence (consecutive ``wait()`` calls share one global ``step()`` loop,
which ``EngineScheduler.drain`` reproduces, followed by
``clock.run_until_idle()``), so its fingerprint matches
:func:`repro.testing.chaos.fingerprint_engine` over an in-process run of the
same queries.

Broadcast ops (``drain``, ``stats``, ``fingerprint``) send to every shard
*before* collecting any reply, so shards genuinely run concurrently — on a
drain of an N-shard cluster all N engines make progress at once.

Who advances the shards: by default only the coordinator's own ``drain()``
and ``pump()`` calls do, which is the batch mode the contract above is stated
for.  :meth:`ShardCoordinator.set_live` hands that job to the workers —
each then runs scheduling passes between messages on its own — which is what
a serving front end (:class:`~repro.cluster.server.ClusterServer`) turns on.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.messages import PipeTransport
from repro.cluster.placement import HealthAwarePlacement, Placement, make_placement
from repro.cluster.serialization import decode_rows, encode_query
from repro.cluster.worker import EngineSpec, worker_main
from repro.core.exec.context import QueryConfig
from repro.errors import ClusterError, EngineOverloadedError, ShardCrashedError

__all__ = ["ClusterQueryHandle", "ClusterStats", "ShardCoordinator", "ShardHealth"]

#: Smoothing factor of the per-shard op-latency EWMA (higher = more reactive).
_LATENCY_EWMA_ALPHA = 0.2


@dataclass
class ShardHealth:
    """Coordinator-side health record for one shard.

    Everything here is observed on the coordinator's side of the pipe —
    op round-trip latency (EWMA), crash/heal count, last-reply heartbeat,
    and the queue depth the shard last reported — so health costs no extra
    protocol traffic.  ``marked_unhealthy`` is the routing verdict; it flips
    only at explicit points (a manual mark, or the crash count crossing the
    coordinator's threshold), never from timing noise, which is what keeps
    health-aware placement deterministic.
    """

    shard_id: int
    latency_ewma: float = 0.0
    samples: int = 0
    crashes: int = 0
    queue_depth: int = 0
    last_heartbeat: float | None = None
    marked_unhealthy: bool = False

    @property
    def healthy(self) -> bool:
        return not self.marked_unhealthy

    def observe(self, latency: float, now: float) -> None:
        """Fold one successful op round-trip into the record."""
        if self.samples == 0:
            self.latency_ewma = latency
        else:
            self.latency_ewma += _LATENCY_EWMA_ALPHA * (latency - self.latency_ewma)
        self.samples += 1
        self.last_heartbeat = now

    def heartbeat_age(self, now: float) -> float | None:
        """Seconds since the last successful reply; None before the first."""
        if self.last_heartbeat is None:
            return None
        return max(0.0, now - self.last_heartbeat)

    def report(self, now: float) -> dict[str, Any]:
        """JSON-safe summary for merged stats and the cluster dashboard."""
        return {
            "shard": self.shard_id,
            "healthy": self.healthy,
            "latency_ewma": self.latency_ewma,
            "samples": self.samples,
            "crashes": self.crashes,
            "queue_depth": self.queue_depth,
            "heartbeat_age": self.heartbeat_age(now),
        }


@dataclass(frozen=True)
class ClusterQueryHandle:
    """A pollable reference to a query running on some shard."""

    coordinator: "ShardCoordinator"
    query_id: str
    shard: int

    def status(self) -> dict[str, Any]:
        """Current lifecycle status plus result count and any error text."""
        return self.coordinator.status(self.query_id)

    def poll(self):
        """Result rows that arrived since the previous poll."""
        return self.coordinator.poll(self.query_id)

    def results(self):
        """All result rows produced so far."""
        return self.coordinator.results(self.query_id)

    def describe_plan(self) -> str:
        return self.coordinator.describe_plan(self.query_id)


@dataclass
class ClusterStats:
    """Cross-shard aggregation of engine statistics.

    ``totals`` sums every number in the shards' ``stats`` replies — each
    engine's :meth:`~repro.engine.QurkEngine.counters` plus its query count,
    queue depth and spend — except ``simulated_time``, which keeps the
    furthest shard clock; ``per_shard`` keeps each worker's own report,
    including its ``peak_rss_kb``; ``peak_rss_kb_sum`` / ``peak_rss_kb_max``
    summarize worker memory across the fleet.
    """

    totals: dict[str, float] = field(default_factory=dict)
    per_shard: list[dict[str, Any]] = field(default_factory=list)
    queries: dict[str, dict[str, Any]] = field(default_factory=dict)
    peak_rss_kb_sum: int = 0
    peak_rss_kb_max: int = 0
    answer_directory_entries: int = 0
    answers_pushed: int = 0
    #: Per-shard health reports (heartbeat age, latency EWMA, crashes).
    health: list[dict[str, Any]] = field(default_factory=list)
    #: Queries moved off unhealthy shards by :meth:`rebalance_pending`.
    rebalanced: int = 0


class _Shard:
    """Coordinator-side record of one worker process."""

    def __init__(self, shard_id: int, process, transport: PipeTransport):
        self.shard_id = shard_id
        self.process = process
        self.transport = transport


class ShardCoordinator:
    """Partition queries across N shard-per-process Qurk engines.

    Parameters
    ----------
    spec:
        Recipe every worker uses to build its engine (same seed → identical
        independent marketplaces).
    n_shards:
        Number of worker processes.
    placement:
        ``"round-robin"`` (default: admission order, ``i % n``) or
        ``"hash"`` (seeded SHA-256 of the query id), or a ready-made
        :class:`~repro.cluster.placement.Placement`.
    seed:
        Seed for hash placement (ignored by round-robin).
    start_method:
        ``multiprocessing`` start method; ``"fork"`` is the cheap default.
    durability_root:
        Directory for per-shard durability state (``<root>/shard-<i>`` each
        holds that worker's WAL).  With this set, a worker that dies is
        detected, respawned, and heals itself by replaying its own log —
        the coordinator then retries the interrupted op exactly once.
        ``None`` (the default) keeps workers ephemeral: a dead worker
        raises :class:`~repro.errors.ShardCrashedError` instead.
    durability_fsync, durability_fsync_every:
        WAL fsync policy the workers journal under.
    call_timeout:
        Seconds the coordinator waits for one op reply before declaring the
        worker hung.  Liveness is checked every ``poll_interval`` seconds
        regardless, so a *dead* worker is detected within a poll slice, not
        the timeout.
    poll_interval:
        Seconds per liveness-poll slice while waiting on a reply (default
        0.1).  Lower values detect worker deaths faster at the cost of more
        ``is_alive()`` checks; it also bounds how stale a shard's
        last-heartbeat age can be while an op is in flight.
    unhealthy_crash_threshold:
        With an integer N, a shard whose crash/heal count reaches N is
        automatically marked unhealthy: a ``"health"`` placement stops
        routing new queries to it and :meth:`rebalance_pending` can move its
        never-started queries elsewhere.  ``None`` (the default) never
        auto-marks, keeping existing cluster behaviour untouched; manual
        verdicts via :meth:`mark_shard_unhealthy` work either way.
    share_answers:
        With ``True`` the coordinator keeps an answer directory: around
        every drain it pulls each shard's fresh cache stores
        (``cache_export``), merges them keep-first in shard order, and
        pushes the deltas back out (``cache_import``) — so a task answered
        on shard 2 is a cache hit on shard 5.  Workers never talk to each
        other; the coordinator mediates, which keeps the protocol
        pull/push over the existing pipes.  Off by default: a non-sharing
        cluster is byte-identical to the pre-directory behaviour.
    """

    def __init__(
        self,
        spec: EngineSpec,
        n_shards: int = 1,
        *,
        placement: str | Placement = "round-robin",
        seed: int = 0,
        start_method: str = "fork",
        durability_root: str | Path | None = None,
        durability_fsync: str = "interval",
        durability_fsync_every: int = 256,
        call_timeout: float = 300.0,
        poll_interval: float = 0.1,
        unhealthy_crash_threshold: int | None = None,
        share_answers: bool = False,
    ):
        if n_shards < 1:
            raise ClusterError(f"a cluster needs at least 1 shard, got {n_shards}")
        if poll_interval <= 0:
            raise ClusterError(f"poll_interval must be positive, got {poll_interval}")
        if unhealthy_crash_threshold is not None and unhealthy_crash_threshold < 1:
            raise ClusterError(
                "unhealthy_crash_threshold must be >= 1 or None, "
                f"got {unhealthy_crash_threshold}"
            )
        self.spec = spec
        self.n_shards = n_shards
        self.placement = (
            placement
            if isinstance(placement, Placement)
            else make_placement(placement, n_shards, seed)
        )
        if self.placement.n_shards != n_shards:
            raise ClusterError(
                f"placement covers {self.placement.n_shards} shards, cluster has {n_shards}"
            )
        self._start_method = start_method
        self.durability_root = Path(durability_root) if durability_root is not None else None
        self._durability_fsync = durability_fsync
        self._durability_fsync_every = durability_fsync_every
        self.call_timeout = call_timeout
        self.poll_interval = poll_interval
        self.unhealthy_crash_threshold = unhealthy_crash_threshold
        self.health: list[ShardHealth] = [ShardHealth(i) for i in range(n_shards)]
        self.rebalanced: int = 0
        self.heals: int = 0
        self.share_answers = share_answers
        # The answer directory: every entry any shard has exported, merged
        # keep-first in shard order (deterministic), plus per-shard export
        # cursors and per-shard push positions into the directory.
        self._answer_directory: list[dict[str, Any]] = []
        self._answer_keys: set[str] = set()
        self._cache_cursors: dict[int, int] = {}
        self._pushed: dict[int, int] = {}
        self.answers_pushed: int = 0
        self._shards: list[_Shard] = []
        self._routes: dict[str, int] = {}
        self._admitted = 0
        self._closed = False
        self._live = False

    # -- lifecycle ---------------------------------------------------------

    def _shard_durability(self, shard_id: int) -> dict[str, Any] | None:
        if self.durability_root is None:
            return None
        return {
            "directory": str(self.durability_root / f"shard-{shard_id}"),
            "fsync": self._durability_fsync,
            "fsync_every": self._durability_fsync_every,
        }

    def _spawn(self, shard_id: int) -> _Shard:
        context = multiprocessing.get_context(self._start_method)
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(child_end, self.spec.payload(), shard_id, self._shard_durability(shard_id)),
            name=f"qurk-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Shard(shard_id, process, PipeTransport(parent_end))

    def start(self) -> "ShardCoordinator":
        """Spawn and ping every worker process."""
        if self._shards:
            raise ClusterError("coordinator already started")
        if self.durability_root is not None:
            self.durability_root.mkdir(parents=True, exist_ok=True)
        for shard_id in range(self.n_shards):
            self._shards.append(self._spawn(shard_id))
        for shard in self._shards:
            self._call(shard.shard_id, {"op": "ping"})
        return self

    def close(self) -> None:
        """Shut every worker down; terminate stragglers."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.transport.send({"op": "shutdown"})
                shard.transport.recv()
            except (ClusterError, OSError, BrokenPipeError):
                pass
            shard.transport.close()
        for shard in self._shards:
            shard.process.join(timeout=5)
            if shard.process.is_alive():  # pragma: no cover - defensive
                shard.process.terminate()
                shard.process.join(timeout=5)

    def __enter__(self) -> "ShardCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- messaging ---------------------------------------------------------

    def _send(self, shard: _Shard, message: dict[str, Any]) -> None:
        """Send one op, converting a dead peer into :class:`ShardCrashedError`.

        Writing to a pipe whose worker died raises ``BrokenPipeError`` (or
        succeeds into the kernel buffer and fails on the next write — which
        is why :meth:`_recv` also checks liveness).  Either way the caller
        sees the same diagnosed crash error, never a raw socket traceback.
        """
        try:
            shard.transport.send(message)
        except (ClusterError, OSError) as error:
            raise ShardCrashedError(
                f"shard {shard.shard_id} (pid {shard.process.pid}) was unreachable "
                f"for {message.get('op')!r}: {error}",
                shard_id=shard.shard_id,
                pid=shard.process.pid,
                exitcode=shard.process.exitcode,
                op=str(message.get("op")),
            ) from error

    def _recv(self, shard: _Shard, op: Any) -> dict[str, Any]:
        """Receive one reply, failing fast if the worker process died.

        A plain blocking ``recv`` would hang forever on a crashed worker
        (the write end of the pipe survives in the coordinator, so no EOF
        arrives).  Waiting in short poll slices lets the coordinator check
        ``process.is_alive()`` between them and put a name, pid, exit code
        and the in-flight op on the failure instead.
        """
        deadline = time.monotonic() + self.call_timeout
        while True:
            try:
                if shard.transport.poll(self.poll_interval):
                    return shard.transport.recv()
            except (ClusterError, OSError, EOFError) as error:
                raise ShardCrashedError(
                    f"shard {shard.shard_id} closed its pipe during {op!r}: {error}",
                    shard_id=shard.shard_id,
                    pid=shard.process.pid,
                    exitcode=shard.process.exitcode,
                    op=str(op),
                ) from error
            if not shard.process.is_alive():
                raise ShardCrashedError(
                    f"shard {shard.shard_id} (pid {shard.process.pid}) died during "
                    f"{op!r} with exit code {shard.process.exitcode}",
                    shard_id=shard.shard_id,
                    pid=shard.process.pid,
                    exitcode=shard.process.exitcode,
                    op=str(op),
                )
            if time.monotonic() >= deadline:
                raise ShardCrashedError(
                    f"shard {shard.shard_id} (pid {shard.process.pid}) sent no reply to "
                    f"{op!r} within {self.call_timeout:.0f}s",
                    shard_id=shard.shard_id,
                    pid=shard.process.pid,
                    exitcode=shard.process.exitcode,
                    op=str(op),
                )

    def heal(self, shard_id: int) -> None:
        """Respawn a dead worker; it replays its WAL and rejoins the cluster.

        Only meaningful with ``durability_root`` set — without a log there
        is nothing to heal from.  The old process is reaped, a fresh one is
        spawned against the same durability directory (so it recovers its
        engine and its coordinator-id mappings), and pinged.
        """
        if self.durability_root is None:
            raise ClusterError(
                f"cannot heal shard {shard_id}: cluster has no durability_root"
            )
        old = self._shards[shard_id]
        old.transport.close()
        if old.process.is_alive():  # pragma: no cover - defensive
            old.process.terminate()
        old.process.join(timeout=5)
        self._shards[shard_id] = self._spawn(shard_id)
        self.heals += 1
        health = self.health[shard_id]
        health.crashes += 1
        if (
            self.unhealthy_crash_threshold is not None
            and health.crashes >= self.unhealthy_crash_threshold
        ):
            self.mark_shard_unhealthy(shard_id)
        # The healed worker replayed its WAL, which deterministically
        # rebuilt its *local* store log — but imported entries were never
        # journalled there.  Restart this shard's sharing from scratch:
        # re-exports dedup against the directory and re-imports are
        # idempotent (local entries win).
        self._cache_cursors[shard_id] = 0
        self._pushed[shard_id] = 0
        shard = self._shards[shard_id]
        self._send(shard, {"op": "ping"})
        reply = self._recv(shard, "ping")
        if not reply.get("ok"):
            raise ClusterError(
                f"healed shard {shard_id} failed its ping: "
                f"{reply.get('error', 'unknown failure')}"
            )
        if self._live:
            # The respawned worker starts like any other, waiting to be
            # driven; a live cluster's recovered queries must resume unasked.
            self._send(shard, {"op": "live", "on": True})
            self._recv(shard, "live")

    def _observe(self, shard_id: int, started: float) -> None:
        """Record one successful op round-trip in the shard's health."""
        now = time.monotonic()
        self.health[shard_id].observe(now - started, now)

    def _raise_reply(self, shard_id: int, reply: dict[str, Any]) -> None:
        """Rebuild the typed error carried by a structured failure reply."""
        message = f"shard {shard_id}: {reply.get('error', 'unknown failure')}"
        if reply.get("error_type") == "overloaded":
            raise EngineOverloadedError(
                message, retry_after=float(reply.get("retry_after", 1.0))
            )
        raise ClusterError(message)

    def _call(self, shard_id: int, message: dict[str, Any]) -> dict[str, Any]:
        if not self._shards:
            raise ClusterError("coordinator not started (use start() or a with-block)")
        shard = self._shards[shard_id]
        op = message.get("op")
        started = time.monotonic()
        try:
            self._send(shard, message)
            reply = self._recv(shard, op)
        except ShardCrashedError:
            if self.durability_root is None:
                raise
            # Heal in place and retry the interrupted op exactly once.  The
            # worker's durable records make the retry idempotent (already-
            # applied submissions are acknowledged, drains re-run to the
            # same state), so crash-during-op is exactly-once overall.
            self.heal(shard_id)
            shard = self._shards[shard_id]
            started = time.monotonic()
            self._send(shard, message)
            reply = self._recv(shard, op)
        self._observe(shard_id, started)
        if not reply.get("ok"):
            self._raise_reply(shard_id, reply)
        return reply

    def _broadcast(self, message: dict[str, Any]) -> list[dict[str, Any]]:
        """Send to all shards, then collect — shards overlap their work."""
        if not self._shards:
            raise ClusterError("coordinator not started (use start() or a with-block)")
        for shard in list(self._shards):
            try:
                self._send(shard, message)
            except ShardCrashedError:
                if self.durability_root is None:
                    raise
                self.heal(shard.shard_id)
                self._send(self._shards[shard.shard_id], message)
        started = time.monotonic()
        replies = []
        for shard in self._shards:
            try:
                reply = self._recv(shard, message.get("op"))
            except ShardCrashedError:
                if self.durability_root is None:
                    raise
                self.heal(shard.shard_id)
                healed = self._shards[shard.shard_id]
                self._send(healed, message)
                reply = self._recv(healed, message.get("op"))
            self._observe(shard.shard_id, started)
            if not reply.get("ok"):
                self._raise_reply(shard.shard_id, reply)
            replies.append(reply)
        return replies

    def _route(self, query_id: str) -> int:
        try:
            return self._routes[query_id]
        except KeyError:
            raise ClusterError(f"unknown cluster query {query_id!r}")

    # -- shard health ------------------------------------------------------

    def mark_shard_unhealthy(self, shard_id: int) -> None:
        """Route new queries away from this shard until it is re-marked.

        The verdict is recorded in the shard's health and, when the cluster
        uses a ``"health"`` placement, removed from the routing pool.  The
        shard itself keeps running — admitted queries finish where they are.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ClusterError(f"no shard {shard_id} in a {self.n_shards}-shard cluster")
        self.health[shard_id].marked_unhealthy = True
        if isinstance(self.placement, HealthAwarePlacement):
            self.placement.set_healthy(shard_id, False)

    def mark_shard_healthy(self, shard_id: int) -> None:
        """Return a recovered shard to the routing pool."""
        if not 0 <= shard_id < self.n_shards:
            raise ClusterError(f"no shard {shard_id} in a {self.n_shards}-shard cluster")
        self.health[shard_id].marked_unhealthy = False
        if isinstance(self.placement, HealthAwarePlacement):
            self.placement.set_healthy(shard_id, True)

    def healthy_shards(self) -> list[int]:
        """Shard ids currently considered healthy (all, if none are marked)."""
        healthy = [record.shard_id for record in self.health if record.healthy]
        return healthy or list(range(self.n_shards))

    def shard_health(self) -> list[dict[str, Any]]:
        """Per-shard health reports (latency EWMA, crashes, heartbeat age)."""
        now = time.monotonic()
        return [record.report(now) for record in self.health]

    def rebalance_pending(self, shard_id: int) -> int:
        """Move a shard's never-started queries onto the healthy shards.

        Asks the worker to withdraw every submission its scheduler has not
        yet admitted, then replays the original payloads — same cluster ids,
        budgets, priorities, configs — round-robin across the healthy shards
        (excluding the source), updating the routing table.  Admitted
        queries stay put: their operators may hold in-flight crowd work that
        cannot move between marketplaces.  Returns the number of queries
        moved; deterministic because both the withdraw order (the shard's
        admission order) and the target rotation are fixed.
        """
        reply = self._call(shard_id, {"op": "withdraw_pending"})
        payloads = reply["queries"]
        if not payloads:
            return 0
        targets = [sid for sid in self.healthy_shards() if sid != shard_id]
        if not targets:
            raise ClusterError(
                f"cannot rebalance shard {shard_id}: no other healthy shard"
            )
        by_shard: dict[int, list[dict[str, Any]]] = {}
        for index, payload in enumerate(payloads):
            target = targets[index % len(targets)]
            by_shard.setdefault(target, []).append(payload)
        for target in sorted(by_shard):
            self._call(target, {"op": "submit_many", "queries": by_shard[target]})
            for payload in by_shard[target]:
                self._routes[payload["query_id"]] = target
        self.rebalanced += len(payloads)
        return len(payloads)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        sql: str,
        *,
        budget: float | None = None,
        priority: float = 1.0,
        config: QueryConfig | None = None,
    ) -> ClusterQueryHandle:
        """Place one query on its shard and submit it."""
        return self.submit_many(
            [{"sql": sql, "budget": budget, "priority": priority, "config": config}]
        )[0]

    def submit_many(self, queries: list[dict[str, Any]]) -> list[ClusterQueryHandle]:
        """Submit a batch, grouped by shard to cut IPC round-trips.

        Each entry is ``{"sql": ..., "budget"?, "priority"?, "config"?}``.
        Handles come back in submission order; per-shard admission order
        matches submission order, so placement is reproducible.
        """
        placed: list[tuple[int, str, dict[str, Any]]] = []
        for entry in queries:
            query_id = f"cq{self._admitted + 1}"
            shard_id = self.placement.shard_of(self._admitted, query_id)
            self._admitted += 1
            payload = encode_query(
                entry["sql"],
                query_id=query_id,
                budget=entry.get("budget"),
                priority=entry.get("priority", 1.0),
                config=entry.get("config"),
            )
            placed.append((shard_id, query_id, payload))

        by_shard: dict[int, list[dict[str, Any]]] = {}
        for shard_id, _, payload in placed:
            by_shard.setdefault(shard_id, []).append(payload)
        for shard_id, payloads in by_shard.items():
            self._call(shard_id, {"op": "submit_many", "queries": payloads})

        handles = []
        for shard_id, query_id, _ in placed:
            self._routes[query_id] = shard_id
            handles.append(ClusterQueryHandle(self, query_id, shard_id))
        return handles

    # -- per-query ops -----------------------------------------------------

    def status(self, query_id: str) -> dict[str, Any]:
        reply = self._call(self._route(query_id), {"op": "status", "query_id": query_id})
        return {
            "status": reply["status"],
            "results_emitted": reply["results_emitted"],
            "error": reply["error"],
        }

    def poll(self, query_id: str):
        reply = self._call(self._route(query_id), {"op": "poll", "query_id": query_id})
        return decode_rows(reply["rows"])

    def results(self, query_id: str):
        reply = self._call(self._route(query_id), {"op": "results", "query_id": query_id})
        return decode_rows(reply["rows"])

    def describe_plan(self, query_id: str) -> str:
        reply = self._call(self._route(query_id), {"op": "describe_plan", "query_id": query_id})
        return reply["plan"]

    # -- cluster-wide ops --------------------------------------------------

    def set_live(self, on: bool) -> None:
        """Have every worker advance its own scheduler between messages.

        Live workers finish submitted queries with nobody calling
        :meth:`pump` or :meth:`drain` — interleaved with requests as they
        arrive, so not reproducibly; a cluster never set live is driven by
        those two calls alone and stays deterministic.  A worker respawned
        by :meth:`heal` is told again.
        """
        self._live = on
        self._broadcast({"op": "live", "on": on})

    def pump(self, *, max_passes: int = 1) -> bool:
        """One bounded scheduling slice on every shard; True if any moved.

        The manual lever for a cluster that is not live: a caller that wants
        incremental progress without :meth:`drain` running everything to
        completion steps the shards itself, ``max_passes`` at a time.
        """
        replies = self._broadcast({"op": "pump", "max_passes": max_passes})
        return any(reply["progressed"] for reply in replies)

    def sync_answers(self) -> dict[str, int]:
        """One pull/merge/push round of the cross-shard answer directory.

        Pull: ask each shard (in shard order) for cache stores made since
        the coordinator's cursor.  Merge: first shard to export a
        ``(task name, cache key)`` wins — shard order makes the merge
        deterministic.  Push: ship each shard the directory entries it has
        not seen yet; the shard's own entries come back to it too, but
        imports never displace local entries, so the round-trip is a no-op
        there.  Returns ``{"pulled", "merged", "pushed"}`` counts.
        """
        if not self._shards:
            raise ClusterError("coordinator not started (use start() or a with-block)")
        pulled = merged = pushed = 0
        for shard in self._shards:
            shard_id = shard.shard_id
            reply = self._call(
                shard_id,
                {"op": "cache_export", "since": self._cache_cursors.get(shard_id, 0)},
            )
            self._cache_cursors[shard_id] = reply["cursor"]
            for item in reply["entries"]:
                pulled += 1
                dedup = json.dumps([item["name"], item["key"]], sort_keys=True)
                if dedup in self._answer_keys:
                    continue
                self._answer_keys.add(dedup)
                self._answer_directory.append(item)
                merged += 1
        for shard in self._shards:
            shard_id = shard.shard_id
            start = self._pushed.get(shard_id, 0)
            delta = self._answer_directory[start:]
            if delta:
                self._call(shard_id, {"op": "cache_import", "entries": delta})
                pushed += len(delta)
            self._pushed[shard_id] = len(self._answer_directory)
        self.answers_pushed += pushed
        return {"pulled": pulled, "merged": merged, "pushed": pushed}

    def drain(self) -> dict[str, str]:
        """Run every shard to quiescence; statuses keyed by cluster query id."""
        if self.share_answers:
            # Answers from earlier rounds become hits for the queries this
            # drain is about to run...
            self.sync_answers()
        statuses: dict[str, str] = {}
        for reply in self._broadcast({"op": "drain"}):
            statuses.update(reply["statuses"])
        if self.share_answers:
            # ...and answers produced by this drain enter the directory so
            # the *next* submission round hits anywhere in the cluster.
            self.sync_answers()
        return statuses

    def stats(self) -> ClusterStats:
        """Merged statistics: summed totals, per-shard reports, RSS sum/max."""
        merged = ClusterStats()
        for reply in self._broadcast({"op": "stats"}):
            self.health[reply["shard"]].queue_depth = int(
                reply["totals"].get("queue_depth", 0)
            )
            shard_report = {
                "shard": reply["shard"],
                "totals": reply["totals"],
                "peak_rss_kb": reply["peak_rss_kb"],
            }
            merged.per_shard.append(shard_report)
            merged.queries.update(reply["queries"])
            for key, value in reply["totals"].items():
                if not isinstance(value, (int, float)):
                    continue  # per-engine descriptions (breaker state, fault profile)
                if key == "simulated_time":
                    merged.totals[key] = max(merged.totals.get(key, 0.0), value)
                else:
                    merged.totals[key] = merged.totals.get(key, 0) + value
            merged.peak_rss_kb_sum += reply["peak_rss_kb"]
            merged.peak_rss_kb_max = max(merged.peak_rss_kb_max, reply["peak_rss_kb"])
        merged.answer_directory_entries = len(self._answer_directory)
        merged.answers_pushed = self.answers_pushed
        merged.health = self.shard_health()
        merged.rebalanced = self.rebalanced
        return merged

    def dashboard(self) -> str:
        """A merged dashboard: cluster header plus every shard's own view."""
        from repro.dashboard.cluster import render_cluster

        stats = self.stats()
        panels = self._broadcast({"op": "dashboard"})
        return render_cluster(stats, panels)

    def fingerprint(self) -> list[dict[str, Any]]:
        """Per-shard run fingerprints, ordered by shard id.

        Each entry is exactly what :func:`repro.testing.chaos.fingerprint_engine`
        computes over that shard's engine, with statuses/rows in that shard's
        admission order — comparable across runs and against an in-process
        engine fed the same queries.
        """
        replies = self._broadcast({"op": "fingerprint"})
        return [reply["fingerprint"] for reply in sorted(replies, key=lambda r: r["shard"])]
