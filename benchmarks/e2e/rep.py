"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition with ``PYTHONHASHSEED=0``
so that no two repetitions share an interpreter, a heap or a hash seed.  The
sequence is fixed: set up (imports → engine or cluster → tables → warm-up),
one ``gc.collect()``, the timed window over a *fixed* number of generated
queries cut into blocks, then — outside the window — the output check.  The
last line on stdout is one JSON object with everything measured.

The program under test is driven through its public API only:
``QurkEngine.query`` / ``QueryHandle.wait`` / ``EngineScheduler.drain`` /
``QurkEngine.recover`` embedded, and ``repro.cluster.server.request`` over
TCP against a ``ClusterServer`` launched by ``serve.py``.
"""

from __future__ import annotations

import time

_ENTERED = time.monotonic()  # setup_s starts here unless the parent stamped the spawn

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import measure  # noqa: E402
from metrics import PER_LAYER, QUERY_TIMEOUT_S  # noqa: E402

FSYNC_POLICY = "interval"
FSYNC_EVERY = 256
WAVE_SIZE = 16
N_CLIENTS = 2
POLL_INTERVAL_S = 0.005

#: Per workload and size: table sizes, warm-up length, how many ops make one
#: block, and how many timed blocks one ``--seconds`` second buys.  The timed
#: op count is a function of the arguments, never of how fast the program
#: ran, so two commits are always compared on equal work.  The full-size
#: rates are the 2-core reference box's, rounded down.  For ``crowd_durable``
#: an op is a wave of ``WAVE_SIZE`` queries and a block is one wave.
SIZES = {
    "lookup_warm": {
        "full": {"companies": 200, "warm_ops": 4000, "block": 100, "blocks_per_second": 10},
        "quick": {"companies": 20, "warm_ops": 40, "block": 20, "timed_blocks": 3},
    },
    "analytic_local": {
        "full": {"items": 200_000, "warm_ops": 40, "block": 10, "blocks_per_second": 3.6},
        "quick": {"items": 4_000, "warm_ops": 5, "block": 10, "timed_blocks": 2},
    },
    "crowd_durable": {
        "full": {"products": 20_000, "warm_ops": 4, "block": 1, "blocks_per_second": 2.5},
        "quick": {"products": 2_400, "warm_ops": 1, "block": 1, "timed_blocks": 2},
    },
    "cluster_tcp_mixed": {
        "full": {
            "companies": 200,
            "products": 20_000,
            "items": 50_000,
            "warm_ops": 40,
            "block": 20,
            "blocks_per_second": 1.4,
        },
        "quick": {"companies": 20, "products": 400, "items": 2_000, "warm_ops": 6, "block": 20, "timed_blocks": 1},
    },
}


def timed_ops(size: dict, seconds: float) -> int:
    """Timed queries (or waves) of one window: fixed by the arguments alone."""
    blocks = size.get("timed_blocks") or max(round(size["blocks_per_second"] * seconds), 1)
    return blocks * size["block"]


class Sample:
    """One attempted query: what was asked, how long it took, what came back."""

    __slots__ = ("op", "latency_ms", "result", "error", "shard", "n_rows")

    def __init__(self, op, latency_ms, result, error=None, shard=0):
        self.op = op
        self.latency_ms = latency_ms
        self.result = result  # a QueryHandle (embedded) or the reply's row values (TCP)
        self.error = error
        self.shard = shard  # which engine answered: each shard buys its own crowd answers
        self.n_rows = None  # rows returned, set once the output check has passed


class Recorder:
    """One phase's samples, cut into blocks of ``block`` completions.

    Each block carries its own wall time and the CPU time the program's
    processes used during it (``measure.Block``); ``block=0`` keeps the
    samples only.
    """

    def __init__(self, pids: list[int], block: int = 0):
        self.samples: list[Sample] = []
        self._cuts: list[tuple[int, int, float, float]] = []  # first, last, wall_s, cpu_s
        self._pids = pids
        self._block = block
        self.opened = time.perf_counter()
        self._open()

    def _cpu(self) -> float:
        return sum(measure.process_cpu_seconds(pid) for pid in self._pids)

    def _open(self) -> None:
        self._first = len(self.samples)
        self._cpu_at_open = self._cpu()
        self._opened_block = time.perf_counter()

    def _close(self) -> None:
        wall_s = time.perf_counter() - self._opened_block
        cpu_s = self._cpu() - self._cpu_at_open
        self._cuts.append((self._first, len(self.samples), wall_s, cpu_s))

    def add(self, op, started: float, result, error=None, shard: int = 0) -> None:
        """Record one finished query; ``started`` is its ``perf_counter`` at submit."""
        self.samples.append(Sample(op, (time.perf_counter() - started) * 1e3, result, error, shard))
        if self._block and len(self.samples) - self._first >= self._block:
            self._close()
            self._open()

    def close(self) -> float:
        """End the phase (closing a partial last block); returns its wall seconds."""
        if len(self.samples) > self._first:
            self._close()
        return time.perf_counter() - self.opened

    def blocks(self) -> list[measure.Block]:
        """The phase as blocks, once the output check has marked the verified samples."""
        out = []
        for first, last, wall_s, cpu_s in self._cuts:
            latencies = [s.latency_ms for s in self.samples[first:last] if s.n_rows is not None]
            out.append(measure.Block(len(latencies), wall_s, cpu_s, latencies))
        return out


# ---------------------------------------------------------------------------
# Embedded workloads
# ---------------------------------------------------------------------------


class Embedded:
    """Shared shape of the three in-process workloads."""

    name = ""

    def __init__(self, size: dict, seed: int, n_timed: int, trace_path: Path | None):
        self.size = size
        self.seed = seed
        self.n_timed = n_timed
        self.engine = None
        self.pids = [os.getpid()]  # the program's processes: here, this one
        self.factory_kwargs = {
            "seed": seed,
            **{k: size[k] for k in ("companies", "products", "items") if k in size},
        }

    def build(self) -> None:
        import factory

        self.engine = factory.build_engine(**self.factory_kwargs)

    def run_serial(self, ops, recorder: Recorder) -> None:
        """One query at a time: ``query()`` → ``wait()`` → rows in hand."""
        from repro.errors import QurkError

        query = self.engine.query
        clock = time.perf_counter
        for op in ops:
            started = clock()
            try:
                handle = query(op.sql)
                handle.wait()
                recorder.add(op, started, handle)
            except QurkError as failure:
                recorder.add(op, started, None, failure)

    def warm_up(self, recorder: Recorder) -> None:
        self.run_serial(self.warm, recorder)

    def window(self, recorder: Recorder) -> None:
        self.run_serial(self.timed, recorder)

    def counters(self) -> dict:
        """Public stats objects, flattened; window deltas feed the layer metrics."""
        engine = self.engine
        scheduler = engine.scheduler.metrics
        manager = engine.task_manager.stats
        cache = engine.task_cache.stats
        journal = engine.journal
        return {
            "passes": scheduler.passes,
            "clock_advances": scheduler.clock_advances,
            "noop_clock_advances": scheduler.noop_clock_advances,
            "tasks_submitted": manager.tasks_submitted,
            "hits_posted": manager.hits_posted,
            "cache_hits": cache.hits,
            "cache_lookups": cache.hits + cache.misses,
            "hits_created": engine.platform.stats.hits_created,
            "usd": engine.total_crowd_cost,
            "wal_appends": journal.wal.last_lsn if journal is not None else 0,
            "wal_bytes": self.wal_bytes(),
        }

    def wal_bytes(self) -> int:
        return 0

    def peak_rss_kb(self) -> int:
        return measure.own_peak_rss_kb()

    def rows_of(self, sample: Sample):
        handle = sample.result
        if handle is None or not handle.is_complete:
            return None
        return [row.values for row in handle.results()]

    def simulated_latencies(self, samples: list[Sample]) -> list[float]:
        return [
            s.result.executor.metrics.simulated_duration for s in samples if s.result is not None
        ]

    def after_window(self, layer: dict | None) -> bool:
        """Workload-specific end-of-run check; True when it held."""
        return True

    def close(self) -> None:
        journal = getattr(self.engine, "journal", None)
        if journal is not None:
            journal.close()


class LookupWarm(Embedded):
    name = "lookup_warm"

    def setup(self):
        import datagen
        from repro.workloads.companies import CompaniesWorkload

        self.build()
        records = CompaniesWorkload(n_companies=self.size["companies"], seed=self.seed).records
        self.directory = [(r.name, r.ceo, r.phone) for r in records]
        self.warm, self.timed = datagen.lookup_trace(
            self.size["warm_ops"], self.n_timed, [r.name for r in records], self.seed
        )

    def checker(self):
        from oracle import Checker

        return Checker(directory=self.directory)


class AnalyticLocal(Embedded):
    name = "analytic_local"

    def setup(self):
        import datagen

        self.build()
        self.warm, self.timed = datagen.analytic_trace(
            self.size["warm_ops"], self.n_timed, self.size["items"], self.seed
        )

    def checker(self):
        import datagen
        from oracle import Checker

        return Checker(items=datagen.items_columns(self.size["items"], datagen.N_CATEGORIES, self.seed))


class CrowdDurable(Embedded):
    name = "crowd_durable"

    def setup(self):
        import datagen
        from repro.storage.durability import DurabilityConfig
        from repro.workloads.products import ProductsWorkload

        self.build()
        self.wal_dir = OUT / "wal" / f"{self.name}.{os.getpid()}"
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.engine.enable_durability(
            DurabilityConfig(
                directory=str(self.wal_dir),
                fsync=FSYNC_POLICY,
                fsync_every=FSYNC_EVERY,
                snapshot_every=None,
            ),
            spec={"factory": "factory:build_engine", "kwargs": self.factory_kwargs},
        )
        records = ProductsWorkload(n_products=self.size["products"], seed=self.seed).records
        self.warm, self.timed = datagen.crowd_trace(
            self.size["warm_ops"],
            self.n_timed,
            WAVE_SIZE,
            [(r.price, r.name) for r in records],
            self.seed,
        )

    def run_waves(self, waves, recorder: Recorder):
        """Submit a wave, ``drain()`` it, read every result.

        Waves must be driven by ``drain()``: only drain boundaries are
        journaled, so a ``wait()``-driven durable run recovers to a
        different interleaving (see README, "Found while building").
        """
        from repro.errors import QurkError

        engine = self.engine
        clock = time.perf_counter
        for wave in waves:
            pending = []
            for op in wave:
                started = clock()
                try:
                    pending.append((op, started, engine.query(op.sql), None))
                except QurkError as failure:
                    pending.append((op, started, None, failure))
            engine.scheduler.drain()
            engine.clock.run_until_idle()
            for op, started, handle, error in pending:
                if handle is not None:
                    handle.results()
                recorder.add(op, started, handle, error)

    def warm_up(self, recorder):
        self.run_waves(self.warm, recorder)

    def window(self, recorder):
        self.run_waves(self.timed, recorder)

    def wal_bytes(self) -> int:
        wal = self.engine.journal.wal
        if wal.is_open:
            wal.flush()
        return wal.path.stat().st_size

    def checker(self):
        from oracle import Checker

        return Checker()

    def after_window(self, layer: dict | None) -> bool:
        """Crash without flushing, recover, and demand the same engine back.

        Runs in the traced repetition only: replay costs about as much as
        the run it replays.
        """
        if layer is None:
            return True
        from repro.engine import QurkEngine

        live = self.engine
        expected = [
            (qid, h.status.value, [row.values for row in h.results()])
            for qid, h in live.queries.items()
        ]
        live.journal.wal.simulate_crash()
        result = QurkEngine.recover(
            self.wal_dir, fsync=FSYNC_POLICY, fsync_every=FSYNC_EVERY, snapshot_every=None
        )
        recovered = result.engine
        got = [
            (qid, h.status.value, [row.values for row in h.results()])
            for qid, h in recovered.queries.items()
        ]
        same = got == expected and recovered.total_crowd_cost == live.total_crowd_cost
        layer["storage.wal.recover_s"] = result.recovery_seconds
        layer["storage.wal.replay_records_per_s"] = result.wal_records / result.recovery_seconds
        recovered.journal.close()
        return same

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# The cluster workload
# ---------------------------------------------------------------------------


class ClusterTcpMixed:
    """Two closed-loop TCP clients against a server process and two shards."""

    name = "cluster_tcp_mixed"

    def __init__(self, size: dict, seed: int, n_timed: int, trace_path: Path | None):
        self.size = size
        self.seed = seed
        self.n_timed = n_timed
        self.trace_path = trace_path
        self.server = None
        self.port = 0
        self.pids: list[int] = []
        self.wal_root = OUT / "wal" / f"{self.name}.{os.getpid()}"
        self.requests = 0
        self.polls = 0
        self.rtts_ms: list[float] = []

    def setup(self):
        import datagen
        from repro.workloads.companies import CompaniesWorkload
        from repro.workloads.products import ProductsWorkload

        shutil.rmtree(self.wal_root, ignore_errors=True)
        size = self.size
        kwargs = {"seed": self.seed, **{k: size[k] for k in ("companies", "products", "items")}}
        command = [
            sys.executable,
            str(HERE / "serve.py"),
            "--factory-kwargs",
            json.dumps(kwargs),
            "--durability-root",
            str(self.wal_root),
            "--fsync",
            FSYNC_POLICY,
            "--fsync-every",
            str(FSYNC_EVERY),
        ]
        if self.trace_path is not None:
            command += ["--trace-path", str(self.trace_path)]
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=os.environ
        )
        # While the shards load their tables, generate the trace they will serve.
        companies = CompaniesWorkload(n_companies=size["companies"], seed=self.seed).records
        products = ProductsWorkload(n_products=size["products"], seed=self.seed).records
        self.directory = [(r.name, r.ceo, r.phone) for r in companies]
        self.warm, self.timed = datagen.mixed_trace(
            size["warm_ops"],
            self.n_timed,
            [r.name for r in companies],
            [(r.price, r.name) for r in products],
            size["items"],
            self.seed,
        )
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError(f"serve.py exited with {self.server.wait()} before it was ready")
        ready = json.loads(line)
        self.port = ready["port"]
        self.server_pid = ready["server_pid"]
        self.worker_pids = ready["worker_pids"]
        self.pids = [self.server_pid, *self.worker_pids]

    # -- the load generator --------------------------------------------------

    async def _request(self, message: dict) -> dict:
        """One workload request over a fresh TCP connection, timed and counted."""
        from repro.cluster.server import request

        started = time.perf_counter()
        reply = await request("127.0.0.1", self.port, message)
        self.rtts_ms.append((time.perf_counter() - started) * 1e3)
        self.requests += 1
        return reply

    async def _one_query(self, op, recorder: Recorder) -> None:
        """submit → status every 5 ms → results; the caller waits throughout."""
        from repro.errors import ClusterError

        clock = time.perf_counter
        started = clock()
        shard = 0
        try:
            reply = await self._request({"op": "submit", "sql": op.sql})
            if not reply.get("ok"):
                raise ClusterError(reply.get("error", "submit refused"))
            query_id, shard = reply["query_id"], reply["shard"]
            while True:
                status = await self._request({"op": "status", "query_id": query_id})
                self.polls += 1
                if not status.get("ok"):
                    raise ClusterError(status.get("error", "status refused"))
                if status["status"] not in ("pending", "running"):
                    break
                if clock() - started > QUERY_TIMEOUT_S:
                    raise ClusterError(f"{query_id} still {status['status']} after {QUERY_TIMEOUT_S}s")
                await asyncio.sleep(POLL_INTERVAL_S)
            if status["status"] != "completed":
                raise ClusterError(f"{query_id} ended {status['status']}: {status.get('error')}")
            reply = await self._request({"op": "results", "query_id": query_id})
            if not reply.get("ok"):
                raise ClusterError(reply.get("error", "results refused"))
            recorder.add(op, started, reply["rows"]["values"], None, shard)
        except ClusterError as failure:
            recorder.add(op, started, None, failure, shard)

    def run_clients(self, ops, recorder: Recorder):
        """``N_CLIENTS`` callers share the trace; each takes the next op when free."""
        queue = iter(ops)

        async def client():
            for op in queue:
                await self._one_query(op, recorder)

        async def main():
            await asyncio.gather(*(client() for _ in range(N_CLIENTS)))

        asyncio.run(main())

    def warm_up(self, recorder):
        self.run_clients(self.warm, recorder)

    def window(self, recorder):
        self.requests = self.polls = 0
        self.rtts_ms = []
        self.run_clients(self.timed, recorder)

    # -- observation ---------------------------------------------------------

    def _stats(self) -> dict:
        """The cluster's merged stats (an observer's request, not counted as load)."""
        from repro.cluster.server import request

        reply = asyncio.run(request("127.0.0.1", self.port, {"op": "stats"}))
        if not reply.get("ok"):
            raise RuntimeError(f"stats op failed: {reply.get('error')}")
        return reply

    def counters(self) -> dict:
        totals = self._stats()["totals"]
        return {
            "passes": totals["scheduler_passes"],
            "clock_advances": totals["clock_advances"],
            "noop_clock_advances": 0,  # not in the cluster's merged stats
            "tasks_submitted": totals["tasks_submitted"],
            "hits_posted": totals["hits_posted"],
            # The merged stats carry cache answers, not lookups: every
            # submitted task is looked up once, so the ratio is the same.
            "cache_hits": totals["cache_answers"],
            "cache_lookups": totals["tasks_submitted"],
            "hits_created": totals["hits_created"],
            "usd": totals["total_cost"],
            "wal_appends": 0,  # counted from the workers' trace instead
            "wal_bytes": sum(p.stat().st_size for p in self.wal_root.glob("shard-*/wal.log")),
        }

    def peak_rss_kb(self) -> int:
        """Server process high-water mark plus the workers' sum (``stats`` op)."""
        return measure.process_peak_rss_kb(self.server_pid) + self._stats()["peak_rss_kb_sum"]

    def rows_of(self, sample: Sample):
        return sample.result

    def simulated_latencies(self, samples):
        return []  # the TCP protocol does not expose per-query simulated time

    def checker(self):
        import datagen
        from oracle import Checker

        return Checker(
            items=datagen.items_columns(self.size["items"], datagen.N_CATEGORIES, self.seed),
            directory=self.directory,
        )

    def after_window(self, layer: dict | None) -> bool:
        return True

    def close(self) -> None:
        """Stop the server: end-of-file on its stdin, then wait for it."""
        if self.server is not None:
            try:
                self.server.stdin.close()
                try:
                    self.server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            finally:
                self.server.stdout.close()
        shutil.rmtree(self.wal_root, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (LookupWarm, AnalyticLocal, CrowdDurable, ClusterTcpMixed)
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the trace
# ---------------------------------------------------------------------------


def layer_metrics(
    *,
    spans_by_pid: dict[int, list],
    window_ns: tuple[int, int],
    workload,
    samples: list[Sample],
    completed: int,
    delta: dict,
    cpu_by_pid: dict[int, float],
    rss_growth_kb: int,
) -> dict:
    """Every per-layer metric of one traced window.

    ``spans_by_pid`` holds each program process's spans for the whole run;
    they are cut to the window here.  Counts come from the public stats
    deltas in ``delta``; times are span self times summed over processes.
    """
    import tracer as tracing

    cluster = isinstance(workload, ClusterTcpMixed)
    windows = {pid: tracing.clip(spans, *window_ns) for pid, spans in spans_by_pid.items()}
    by_pid = {pid: tracing.LayerTotals(spans) for pid, spans in windows.items()}
    t = tracing.LayerTotals.merged(list(by_pid.values()))
    server = by_pid[workload.server_pid] if cluster else None
    wall_s = (window_ns[1] - window_ns[0]) / 1e9
    queries = max(completed, 1)
    per = lambda value: value / queries  # noqa: E731
    ratio = lambda part, whole: part / whole if whole else 0.0  # noqa: E731

    latencies = [s.latency_ms for s in samples]
    tail_percentile, tail_ms = measure.tail(latencies)
    quarter = max(len(latencies) // 4, 1)
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s.latency_ms)
    kind_p50 = lambda *kinds: statistics.median(  # noqa: E731
        [x for kind in kinds for x in by_kind.get(kind, [])] or [0.0]
    )
    simulated = workload.simulated_latencies(samples)
    rows_coded = t.units("encode_rows", "decode_rows")
    coordinator_methods = [
        f"ShardCoordinator.{m}" for m in ("submit_many", "status", "results", "poll", "pump", "stats")
    ]
    # A process's window is explained by traced busy time plus the time it
    # was off the CPU; what remains is CPU no wrapped callable brackets.
    explained = [
        min((by_pid[pid].busy_ms / 1e3 + max(wall_s - cpu_by_pid[pid], 0.0)) / wall_s, 1.0)
        for pid in by_pid
    ]
    loads = [
        span
        for spans in spans_by_pid.values()
        for span in spans
        if span[tracing.NAME] == "factory.build_engine"
    ]
    load_s = sum(span[tracing.END] - span[tracing.START] for span in loads) / 1e9

    return {
        "engine.submit_ms_per_query": per(t.total_ms("QurkEngine.query")),
        "engine.drift_ratio": statistics.fmean(latencies[-quarter:])
        / statistics.fmean(latencies[:quarter]),
        "engine.rss_kb_per_query": per(rss_growth_kb),
        "core.lang.parse_calls": t.calls("parse_select"),
        "core.lang.parse_ms_per_query": per(t.layer_ms("core.lang")),
        "core.plan.plan_ms_per_query": per(t.layer_ms("core.plan")),
        "core.optimizer.self_ms_per_query": per(t.layer_ms("core.optimizer")),
        "core.exec.passes_per_query": per(delta["passes"]),
        "core.exec.us_per_pass": ratio(t.total_ms("EngineScheduler.step") * 1e3, delta["passes"]),
        "core.exec.self_ms_per_query": per(t.layer_ms("core.exec")),
        "core.exec.clock_advances_per_query": per(delta["clock_advances"]),
        "core.exec.noop_advance_share": ratio(delta["noop_clock_advances"], delta["clock_advances"]),
        "core.operators.self_ms_per_query": per(t.layer_ms("core.operators")),
        "core.tasks.tasks_per_query": per(delta["tasks_submitted"]),
        "core.tasks.hits_per_query": per(delta["hits_posted"]),
        "core.tasks.cache_hit_ratio": ratio(delta["cache_hits"], delta["cache_lookups"]),
        "core.tasks.busy_ms_per_query": per(t.layer_ms("core.tasks")),
        "core.tasks.usd_per_query": per(delta["usd"]),
        "crowd.hits_created": delta["hits_created"],
        "crowd.events_per_query": per(t.units("SimulationClock.advance_to")),
        "crowd.busy_ms_per_query": per(t.layer_ms("crowd")),
        "crowd.sim_latency_p50_s": statistics.median(simulated) if simulated else 0.0,
        "storage.load_rows_per_s": ratio(sum(span[tracing.UNITS] for span in loads), load_s),
        "storage.busy_ms_per_query": per(t.layer_ms("storage")),
        "storage.rows_scanned_per_query": per(sum(tracing.rows_scanned(w) for w in windows.values())),
        "storage.result_rows_per_query": per(sum(s.n_rows or 0 for s in samples)),
        "storage.wal.appends_per_query": per(delta["wal_appends"] or t.calls("WriteAheadLog.append")),
        "storage.wal.bytes_per_query": per(delta["wal_bytes"]),
        "storage.wal.fsyncs": t.calls("os.fsync"),
        "storage.wal.fsync_ms_total": t.total_ms("os.fsync"),
        "storage.wal.busy_ms_per_query": per(t.layer_ms("storage.wal")),
        "storage.wal.recover_s": 0.0,  # crowd_durable fills these in after its crash
        "storage.wal.replay_records_per_s": 0.0,
        "cluster.serialization.frames_per_query": per(t.calls("encode_message", "frame_message")),
        "cluster.serialization.bytes_per_query": per(t.units("encode_message", "frame_message")),
        "cluster.serialization.busy_ms_per_query": per(t.layer_ms("cluster.serialization")),
        "cluster.serialization.us_per_row": ratio(
            t.self_ms("encode_rows", "decode_rows") * 1e3, rows_coded
        ),
        "cluster.messages.round_trips_per_query": per(server.calls("PipeTransport.send")) if cluster else 0.0,
        "cluster.messages.wait_ms_per_query": per(
            server.total_ms("PipeTransport.recv", "PipeTransport.poll")
        )
        if cluster
        else 0.0,
        "cluster.coordinator.ops_per_query": per(t.calls(*coordinator_methods)),
        "cluster.coordinator.self_ms_per_query": per(t.layer_ms("cluster.coordinator")),
        "cluster.coordinator.pump_calls": t.calls("ShardCoordinator.pump"),
        "cluster.worker.handle_ms_per_query": per(t.total_ms("ShardWorker.handle")),
        "cluster.worker.cpu_ms_per_query": per(sum(cpu_by_pid[p] for p in workload.worker_pids) * 1e3)
        if cluster
        else 0.0,
        "cluster.server.requests_per_query": per(workload.requests) if cluster else 0.0,
        "cluster.server.cpu_ms_per_query": per(cpu_by_pid[workload.server_pid] * 1e3) if cluster else 0.0,
        "cluster.server.untraced_cpu_ms_per_query": per(
            max(cpu_by_pid[workload.server_pid] * 1e3 - server.busy_ms, 0.0)
        )
        if cluster
        else 0.0,
        "client.polls_per_query": per(workload.polls) if cluster else 0.0,
        "client.request_rtt_p50_ms": statistics.median(workload.rtts_ms) if cluster else 0.0,
        "client.lookup_p50_ms": kind_p50("lookup", "point"),
        "client.agg_p50_ms": kind_p50("groupby", "topk"),
        "client.scan_p50_ms": kind_p50("join"),
        "client.crowd_p50_ms": kind_p50("filter", "rating", "compare"),
        "client.window_queries_per_s": completed / wall_s,
        "client.query_tail_percentile": tail_percentile,
        "client.query_tail_ms": tail_ms,
        "trace.overhead_ratio": 0.0,  # run.py fills it in: it has the untraced wall
        "trace.coverage": min(explained),
        "trace.idle_share": statistics.fmean(
            max(1.0 - cpu_by_pid[pid] / wall_s, 0.0) for pid in by_pid
        ),
    }


# ---------------------------------------------------------------------------
# The repetition
# ---------------------------------------------------------------------------


def run(args) -> dict:
    size = SIZES[args.workload][args.size]
    trace_path = OUT / "trace" / args.workload if args.trace else None
    tracer = None
    if args.trace:
        import tracer as tracing

        for stale in (OUT / "trace").glob(f"{args.workload}.*.jsonl"):
            stale.unlink()
        tracer = tracing.install(trace_path)
    workload = WORKLOADS[args.workload](size, args.seed, timed_ops(size, args.seconds), trace_path)
    cluster = isinstance(workload, ClusterTcpMixed)
    try:
        workload.setup()
        warm = Recorder(workload.pids)
        workload.warm_up(warm)
        setup_s = time.monotonic() - (args.spawned_at or _ENTERED)

        pids = workload.pids
        gc.collect()
        before = workload.counters()
        rss_before = sum(measure.process_rss_kb(pid) for pid in pids)
        cpu_before = {pid: measure.process_cpu_seconds(pid) for pid in pids}
        per_op = len(workload.timed[0]) if isinstance(workload.timed[0], list) else 1
        opened_ns = time.perf_counter_ns()
        recorder = Recorder(pids, block=size["block"] * per_op)
        workload.window(recorder)
        window_s = recorder.close()
        closed_ns = time.perf_counter_ns()
        samples = recorder.samples
        cpu_by_pid = {pid: measure.process_cpu_seconds(pid) - cpu_before[pid] for pid in pids}
        rss_growth_kb = sum(measure.process_rss_kb(pid) for pid in pids) - rss_before
        peak_rss_kb = workload.peak_rss_kb()
        after = workload.counters()
        delta = {key: after[key] - before[key] for key in after}

        # -- outside the window: check every output --------------------------
        checker = workload.checker()
        failed = 0
        for phase in (warm.samples, samples):
            for sample in phase:
                rows = workload.rows_of(sample) if sample.error is None else None
                if (
                    rows is not None
                    and sample.latency_ms <= QUERY_TIMEOUT_S * 1e3
                    and checker.check(sample.op, rows, sample.shard)
                ):
                    sample.n_rows = len(rows)
                    continue
                if phase is warm.samples:
                    raise RuntimeError(f"warm-up query failed: {sample.op.sql} ({sample.error})")
                failed += 1
                print(f"failed: {sample.op.sql} ({sample.error or 'wrong rows'})", file=sys.stderr)

        result = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "attempted": len(samples),
            "failed": failed,
            "setup_s": setup_s,
            "window_s": window_s,
            "blocks": recorder.blocks(),
            "peak_rss_mb": peak_rss_kb / 1024,
            "audit": {
                "hits_created": after["hits_created"],
                "crowd_usd": repr(after["usd"]),
                "row_digest": checker.digest,
            },
            "pids": pids,
        }
        if checker.lookups is not None:
            result["crowd_answer_agreement"] = checker.lookups.truth_agreement()

        layer = None
        if tracer is not None:
            import tracer as tracing

            if cluster:
                workload.close()  # the server and its workers write their traces on the way out
                spans_by_pid = {
                    pid: tracing.load_spans(trace_path.with_name(f"{trace_path.name}.{pid}.jsonl"))
                    for pid in pids
                }
            else:
                spans_by_pid = {os.getpid(): tracer.snapshot()}
            layer = layer_metrics(
                spans_by_pid=spans_by_pid,
                window_ns=(opened_ns, closed_ns),
                workload=workload,
                samples=samples,
                completed=len(samples) - failed,
                delta=delta,
                cpu_by_pid=cpu_by_pid,
                rss_growth_kb=rss_growth_kb,
            )
        recovered_ok = workload.after_window(layer)
        if layer is not None:
            if set(layer) != {m.name for m in PER_LAYER}:
                raise RuntimeError(
                    f"per-layer metrics out of step with metrics.py: "
                    f"{sorted(set(layer) ^ {m.name for m in PER_LAYER})}"
                )
            result["per_layer"] = layer
            if not cluster:
                tracer.dump()
        result["correct"] = failed == 0 and recovered_ok
        return result
    finally:
        workload.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0, help="window length the op count is sized for")
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args()
    result = run(args)
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing a few hundred MB of query handles
    # object by object is not part of anything being measured.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
