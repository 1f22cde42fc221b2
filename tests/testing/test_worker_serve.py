"""``ShardWorker.serve``: the message loop of a worker that drives itself.

Everything here runs in-process against a scripted :class:`Transport`, so the
interleaving of messages and scheduling passes — the whole point of the loop —
is exact and repeatable: the peer is a generator that yields the next message
(and receives its reply), or ``QUIET`` when the coordinator has nothing to say
for now.  While the peer is quiet ``poll()`` reports no message and ``recv()``
blocks, which in a single thread means "skip ahead to the next message".
"""

from repro.cluster import EngineSpec, ShardWorker
from repro.cluster import worker as worker_module
from repro.cluster.serialization import decode_message, encode_message, encode_query
from repro.crowd.wallclock import WallClock
from repro.errors import ClusterError
from repro.experiments import build_products_engine
from repro.testing.chaos import fingerprint_engine

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
#: Raises on the first product it evaluates; any client can send it.
FAILING_SQL = "SELECT name FROM products WHERE price / 0 > 1"
ENGINE_KWARGS = {"n_products": 10, "filter_batch": 1, "seed": 13}
SPEC = EngineSpec("repro.experiments.harness:build_products_engine", ENGINE_KWARGS)

QUIET = object()
CLOSED = object()  # the peer hung up: readable, and recv() fails
LIVE = {"op": "live", "on": True}
#: A starved or spinning worker must fail the test, not hang it.
MAX_CALLS = 20_000


def submit(n: int) -> dict:
    return {"op": "submit", "query": encode_query(FILTER_SQL, query_id=f"cq{n}")}


def status(n: int) -> dict:
    return {"op": "status", "query_id": f"cq{n}"}


class ScriptedTransport:
    """A :class:`~repro.cluster.messages.Transport` whose peer is a generator."""

    def __init__(self, peer):
        self._peer = peer
        self._next = next(peer)
        self.polls: list[float] = []  # every poll's timeout, in call order
        self.blocked = 0  # recv() calls that found no message waiting
        self.served: list[str] = []

    def poll(self, timeout: float = 0.0) -> bool:
        self.polls.append(timeout)
        assert len(self.polls) < MAX_CALLS, "worker is spinning on poll()"
        return self._next is not QUIET

    def recv(self) -> dict:
        while self._next is QUIET:
            self.blocked += 1
            self._next = next(self._peer, CLOSED)
        if self._next is CLOSED:
            raise ClusterError("cluster peer closed the connection")
        self.served.append(self._next["op"])
        assert len(self.served) < MAX_CALLS, "worker never finished the query"
        return self._next

    def send(self, reply: dict) -> None:
        try:
            self._next = self._peer.send(reply)
        except StopIteration:
            self._next = CLOSED

    def close(self) -> None:
        pass


class WireTransport(ScriptedTransport):
    """Replies cross JSON on their way to the peer, as they do on the pipe."""

    def send(self, reply: dict) -> None:
        super().send(decode_message(encode_message(reply)))


def serve(peer, worker: ShardWorker | None = None) -> tuple[ShardWorker, ScriptedTransport]:
    worker = worker or ShardWorker(SPEC)
    transport = ScriptedTransport(peer(worker))
    worker.serve(transport)
    return worker, transport


def passes(worker: ShardWorker) -> int:
    return worker.engine.scheduler.metrics.passes


def batch_fingerprint(n_queries: int) -> dict:
    """The same queries on an in-process engine, driven the way ``drain`` drives."""
    engine = build_products_engine(**ENGINE_KWARGS).engine
    handles = [engine.query(FILTER_SQL) for _ in range(n_queries)]
    engine.scheduler.drain()
    engine.clock.run_until_idle()
    return fingerprint_engine(
        engine,
        [handle.status.value for handle in handles],
        [[row.to_dict() for row in handle.results()] for handle in handles],
    )


class TestNotLive:
    def test_never_steps_between_messages(self):
        def peer(worker):
            assert (yield submit(1))["ok"]
            yield QUIET
            assert (yield submit(2))["ok"]
            yield QUIET
            assert passes(worker) == 0  # two quiet spells, nothing moved
            assert (yield status(1))["status"] == "pending"
            drained = yield {"op": "drain"}
            assert set(drained["statuses"].values()) == {"completed"}
            fingerprint = yield {"op": "fingerprint"}
            assert fingerprint["fingerprint"] == batch_fingerprint(2)

        _, transport = serve(peer)
        assert transport.polls == []  # a batch worker only ever blocks in recv()
        assert transport.blocked == 2

    def test_live_on_then_off_is_batch_again(self):
        def peer(worker):
            yield LIVE
            yield {"op": "live", "on": False}
            yield submit(1)
            yield QUIET
            yield submit(2)
            yield QUIET
            assert passes(worker) == 0
            yield {"op": "drain"}
            fingerprint = yield {"op": "fingerprint"}
            assert fingerprint["fingerprint"] == batch_fingerprint(2)

        serve(peer)


class TestLive:
    def test_query_completes_with_no_pump_or_drain(self):
        def peer(worker):
            assert (yield LIVE)["live"] is True
            yield submit(1)
            yield QUIET  # nobody says anything; the worker is on its own
            done = yield status(1)
            assert done["status"] == "completed" and done["results_emitted"] > 0
            rows = yield {"op": "results", "query_id": "cq1"}
            assert len(rows["rows"]["values"]) == done["results_emitted"]
            stats = yield {"op": "stats"}
            # The idle slice also ran the marketplace out, as a pump op would.
            assert worker.engine.clock.pending_events == 0
            assert stats["totals"]["total_cost"] > 0

        _, transport = serve(peer)
        assert set(transport.served) == {"live", "submit", "status", "results", "stats"}

    def test_status_flood_cannot_starve_the_query(self):
        """A message is always waiting, and still every one is followed by a pass."""
        flood = {"polled": 0, "stalled": 0}

        def peer(worker):
            yield LIVE
            yield submit(1)
            while True:
                before = passes(worker)
                reply = yield status(1)
                flood["polled"] += 1
                if reply["status"] == "completed":
                    return
                if passes(worker) == before:
                    flood["stalled"] += 1

        _, transport = serve(peer)
        # ``before`` is read as poll N is queued, the comparison once its reply
        # is in: a pass ran in between, every time.
        assert flood["stalled"] == 0
        assert flood["polled"] > 3  # it really took several polls
        assert transport.blocked == 0  # there was never a quiet moment

    def test_waiting_message_is_served_before_the_next_pass(self):
        """Bounded by one pass: no second pass while a message waits."""
        seen = []

        def peer(worker):
            yield LIVE
            yield submit(1)
            for _ in range(5):
                before = passes(worker)
                yield status(1)
                seen.append(passes(worker) - before)

        serve(peer)
        assert seen and all(delta <= 1 for delta in seen)

    def test_idle_worker_blocks_in_recv(self):
        def peer(worker):
            yield LIVE
            yield QUIET
            assert (yield {"op": "ping"})["ok"]
            yield QUIET
            yield submit(1)
            yield QUIET
            assert (yield status(1))["status"] == "completed"
            yield QUIET

        worker, transport = serve(peer)
        # Polls happen only between the running query's passes; each quiet
        # spell with nothing to do is one blocking recv(), not a poll(0) loop.
        assert 0 < len(transport.polls) <= passes(worker)
        assert set(transport.polls) == {0}
        assert transport.blocked == 4

        def idle_peer(worker):
            yield LIVE
            yield QUIET
            yield {"op": "ping"}
            yield QUIET

        _, idle = serve(idle_peer)
        assert idle.polls == []  # never had work: never polled

    def test_failing_query_is_reported_and_the_worker_keeps_serving(self):
        def peer(worker):
            yield LIVE
            submitted = yield {"op": "submit", "query": encode_query(FAILING_SQL, query_id="cq1")}
            assert submitted["ok"]
            yield submit(2)
            yield QUIET
            failed = yield status(1)
            assert failed["status"] == "failed"
            assert failed["error"] == "cannot compute 18.23 / 0"
            assert (yield status(2))["status"] == "completed"
            assert (yield {"op": "ping"})["ok"]

        _, transport = serve(peer)
        assert transport.served[-1] == "ping"

    def test_shutdown_mid_work_exits_cleanly(self):
        def peer(worker):
            yield LIVE
            yield submit(1)
            assert (yield {"op": "shutdown"})["bye"] is True
            yield status(1)  # never served: the loop ended with the shutdown reply

        worker, transport = serve(peer)
        assert transport.served[-1] == "shutdown"
        assert worker.engine.scheduler.has_work()  # it left mid-query, on request

    def test_peer_vanishing_mid_work_exits_quietly(self):
        def peer(worker):
            yield LIVE
            yield submit(1)

        worker, _ = serve(peer)
        # A closed pipe reads as "message waiting", so the worker meets the
        # failing recv() after one owed pass instead of finishing an orphan.
        assert passes(worker) == 1 and worker.engine.scheduler.has_work()


def test_result_json_cannot_carry_is_an_error_reply_and_the_worker_keeps_serving():
    """An IMAGE column in a ``results`` reply must not kill the shard."""
    worker = ShardWorker(
        EngineSpec(
            "repro.experiments.harness:build_celebrity_engine",
            {"n_celebrities": 3, "n_spotted": 3},
        )
    )
    sql = "SELECT name, image FROM celebrities"

    def peer(worker):
        yield {"op": "submit", "query": encode_query(sql, query_id="cq1")}
        yield {"op": "drain"}
        failed = yield {"op": "results", "query_id": "cq1"}
        assert not failed["ok"] and failed["error_type"] == "ClusterError"
        assert "image" in failed["error"] and "SyntheticImage" in failed["error"]
        assert (yield status(1))["status"] == "completed"
        assert (yield {"op": "shutdown"})["bye"] is True

    transport = WireTransport(peer(worker))
    worker.serve(transport)
    assert transport.served == ["submit", "drain", "results", "status", "shutdown"]


class FakeTime:
    """Injected wall time: sleeping is what moves it."""

    def __init__(self):
        self.now = 0.0
        self.slept = 0.0

    def time_source(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds
        self.slept += seconds


FAKE_TIME = FakeTime()


def build_wallclock_engine():
    clock = WallClock(time_source=FAKE_TIME.time_source, sleep=FAKE_TIME.sleep)
    return build_products_engine(**ENGINE_KWARGS, engine_kwargs={"clock": clock})


class TestWallClock:
    def wallclock_worker(self) -> ShardWorker:
        FAKE_TIME.now = FAKE_TIME.slept = 0.0
        worker = ShardWorker(EngineSpec(f"{__name__}:build_wallclock_engine"))
        assert isinstance(worker.engine.clock, WallClock)
        return worker

    def test_live_query_runs_in_wall_time(self):
        def peer(worker):
            yield LIVE
            yield submit(1)
            yield QUIET
            assert (yield status(1))["status"] == "completed"

        serve(peer, self.wallclock_worker())
        assert FAKE_TIME.slept > 0  # crowd latency was waited out, not skipped

    def test_stalled_worker_ticks_instead_of_spinning(self, monkeypatch):
        """Work pending, a pass moves nothing: wait a tick for a message."""
        worker = self.wallclock_worker()
        scheduler = worker.engine.scheduler
        real_pump = scheduler.pump
        stalls = []

        def waiting_on_real_time(*, max_passes=1):
            if len(stalls) < 25 and scheduler.has_work():
                stalls.append(max_passes)
                return False
            return real_pump(max_passes=max_passes)

        monkeypatch.setattr(scheduler, "pump", waiting_on_real_time)

        def peer(worker):
            yield LIVE
            yield submit(1)
            yield QUIET
            assert (yield status(1))["status"] == "completed"

        _, transport = serve(peer, worker)
        assert len(stalls) == 25
        # Every stalled pass was followed by one bounded wait, never a poll(0).
        assert transport.polls[:25] == [worker_module._STALL_TICK] * 25
        assert set(transport.polls[25:]) == {0}
