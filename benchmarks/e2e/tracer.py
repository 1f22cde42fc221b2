"""Span tracing from outside: wrap each layer's public callables, time them.

The program under ``src/`` is not touched.  :func:`install` replaces public
methods (by attribute on their class) and module functions (at the module
that *uses* them, since ``from x import f`` binds a private reference) with
wrappers that record ``[name, layer, start_ns, end_ns, parent, query_id,
units]`` in memory (``units`` is the work the call did as a count — rows,
bytes, events — where its arguments or result expose one).  Where a layer hands a callback to another layer (the Task
Manager's marketplace listeners), the public *registration* method is
wrapped so the callback's time lands on the layer that owns it, not on the
clock that fires it.

A layer's self time is its spans' duration minus the part their direct
children cover; :func:`self_times` does that arithmetic on a span list.
``perf_counter_ns`` is ``CLOCK_MONOTONIC`` on Linux, i.e. one clock for
every process on the box, so the load generator can cut the server's and the
workers' spans to its own timed window.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Sequence

_now = time.perf_counter_ns

# Span record layout.
NAME, LAYER, START, END, PARENT, QUERY, UNITS = range(7)

#: Spans in which a process only waits for a peer; they count as idle, not
#: as a layer's busy time.
WAIT_SPANS = frozenset({"PipeTransport.recv", "PipeTransport.poll"})


class _ThreadSpans:
    """One thread's spans and its stack of open span indices."""

    __slots__ = ("spans", "stack")

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []


class Tracer:
    """The span store of one process plus what was patched to feed it.

    A span is a flat tuple of numbers and strings (its parent is an index
    into the same thread's list, not a reference), which the garbage
    collector stops tracking after one pass, so a million retained spans do
    not lengthen the traced program's later collections.
    """

    def __init__(self) -> None:
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self.dump_path: Path | None = None

    # -- recording -----------------------------------------------------------

    def _thread(self) -> _ThreadSpans:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadSpans()
            self._threads.append(state)
            return state

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        *,
        query_of: Callable[[tuple, dict, Any], str | None] | None = None,
        units_of: Callable[[tuple, dict, Any], int] | None = None,
        after: Callable[[tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``query_of(args, kwargs, result)`` names the query a call belongs to
        and ``units_of(args, kwargs, result)`` counts the work it did, when
        arguments or result expose them; ``after(args, kwargs)`` runs once
        the span is closed (the worker uses it to flush on shutdown).
        """
        thread = self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = thread()
            spans, stack = state.spans, state.stack
            index = len(spans)
            spans.append(None)  # reserve the slot so parents precede children
            parent = stack[-1] if stack else -1
            stack.append(index)
            query = None
            units = 0
            started = _now()
            try:
                result = fn(*args, **kwargs)
                if query_of is not None:
                    query = query_of(args, kwargs, result)
                if units_of is not None:
                    units = units_of(args, kwargs, result)
                return result
            finally:
                spans[index] = (name, layer, started, _now(), parent, query, units)
                stack.pop()
                if after is not None:
                    after(args, kwargs)

        traced.__wrapped_by_tracer__ = True
        return traced

    def patch(self, owner: Any, attribute: str, layer: str, *, name: str | None = None, **hooks):
        """Replace ``owner.attribute`` with its traced wrapper (idempotent).

        ``owner`` is a class (only attributes it defines itself are touched,
        never inherited ones) or a module.
        """
        original = owner.__dict__.get(attribute)
        if original is None:
            raise AttributeError(f"{owner!r} does not define {attribute!r}")
        label = name or f"{owner.__name__}.{attribute}"
        if isinstance(original, (classmethod, staticmethod)):
            inner = original.__func__
            rebuild = type(original)
        else:
            inner, rebuild = original, None
        if getattr(inner, "__wrapped_by_tracer__", False):
            return
        if not callable(inner) or isinstance(inner, property):
            raise TypeError(f"cannot trace {label}: not a function")
        traced = self.wrap(inner, label, layer, **hooks)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, rebuild(traced) if rebuild else traced)

    def patch_listener(self, owner: type, attribute: str, layer: str) -> None:
        """Wrap a callback-registration method: callbacks become ``layer`` spans."""
        original = owner.__dict__[attribute]
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        tracer = self

        @functools.wraps(original)
        def register(instance, callback, *args, **kwargs):
            label = getattr(callback, "__qualname__", repr(callback))
            return original(instance, tracer.wrap(callback, label, layer), *args, **kwargs)

        register.__wrapped_by_tracer__ = True
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, register)

    def uninstall(self) -> None:
        """Put every patched attribute back (tests install and remove)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def reset_in_child(self) -> None:
        """After ``fork``: the parent's spans and open stacks are not ours."""
        self._threads = []
        self._local = threading.local()

    # -- output --------------------------------------------------------------

    def snapshot(self) -> list[list[Any]]:
        """Every closed span of every thread, parents as indices into the result.

        A span still open (the caller is inside it) is left out; its closed
        children become roots.
        """
        out: list[list[Any]] = []
        for state in list(self._threads):
            position: dict[int, int] = {}
            for index, span in enumerate(list(state.spans)):
                if span is None:
                    continue
                position[index] = len(out)
                row = list(span)
                row[PARENT] = position.get(span[PARENT], -1)
                out.append(row)
        return out

    def dump(self) -> Path | None:
        """Write this process's spans as JSON lines next to ``dump_path``."""
        if self.dump_path is None:
            return None
        path = self.dump_path.with_name(f"{self.dump_path.name}.{os.getpid()}.jsonl")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.snapshot():
                handle.write(json.dumps(row, separators=(",", ":")))
                handle.write("\n")
        return path


def load_spans(path: Path) -> list[list[Any]]:
    """Spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------------
# Arithmetic on span lists (pure functions; parent is a list index or -1)
# ---------------------------------------------------------------------------


def clip(spans: Sequence[Sequence[Any]], start_ns: int, end_ns: int) -> list[list[Any]]:
    """The spans that *started* inside the window, parents re-indexed.

    A span whose parent started before the window becomes a root, so a long
    enclosing call does not swallow the window's self time.
    """
    kept: dict[int, int] = {}
    out: list[list[Any]] = []
    for i, span in enumerate(spans):
        if start_ns <= span[START] < end_ns:
            kept[i] = len(out)
            out.append(list(span))
    for span in out:
        span[PARENT] = kept.get(span[PARENT], -1)
    return out


def self_times(spans: Sequence[Sequence[Any]]) -> list[int]:
    """Per span: its duration minus the duration of its direct children (ns)."""
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            selfs[parent] -= span[END] - span[START]
    return selfs


class LayerTotals:
    """Self time and call counts of a span list, by layer and by span name."""

    def __init__(self, spans: Sequence[Sequence[Any]]):
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.name_self_ns: dict[str, int] = defaultdict(int)
        self.name_total_ns: dict[str, int] = defaultdict(int)
        self.name_calls: dict[str, int] = defaultdict(int)
        self.name_units: dict[str, int] = defaultdict(int)
        self.wait_ns = 0
        for span, self_ns in zip(spans, self_times(spans)):
            name = span[NAME]
            self.name_calls[name] += 1
            self.name_self_ns[name] += self_ns
            self.name_total_ns[name] += span[END] - span[START]
            self.name_units[name] += span[UNITS]
            if name in WAIT_SPANS:
                self.wait_ns += self_ns
            else:
                self.layer_self_ns[span[LAYER]] += self_ns

    @classmethod
    def merged(cls, parts: "Sequence[LayerTotals]") -> "LayerTotals":
        """The sum of several processes' totals.

        Span lists of different processes must not be concatenated — parent
        indices are per list — so each is totalled alone and then added.
        """
        total = cls([])
        for part in parts:
            for field in ("layer_self_ns", "name_self_ns", "name_total_ns", "name_calls", "name_units"):
                mine = getattr(total, field)
                for key, value in getattr(part, field).items():
                    mine[key] += value
            total.wait_ns += part.wait_ns
        return total

    def layer_ms(self, *layers: str) -> float:
        return sum(self.layer_self_ns.get(layer, 0) for layer in layers) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.name_self_ns.get(name, 0) for name in names) / 1e6

    def total_ms(self, *names: str) -> float:
        return sum(self.name_total_ns.get(name, 0) for name in names) / 1e6

    def calls(self, *names: str) -> int:
        return sum(self.name_calls.get(name, 0) for name in names)

    def units(self, *names: str) -> int:
        return sum(self.name_units.get(name, 0) for name in names)

    @property
    def busy_ms(self) -> float:
        """All layers' self time, waits excluded."""
        return sum(self.layer_self_ns.values()) / 1e6


def resolve_queries(spans: Sequence[Sequence[Any]]) -> list[str | None]:
    """Per span: its own query id, else the nearest ancestor's."""
    resolved: list[str | None] = []
    for span in spans:  # parents precede children
        query = span[QUERY]
        if query is None and span[PARENT] >= 0:
            query = resolved[span[PARENT]]
        resolved.append(query)
    return resolved


_INDEX_PROBES = frozenset(
    {"HashIndex.positions_equal", "SortedIndex.positions_equal", "SortedIndex.positions_range"}
)


def rows_scanned(spans: Sequence[Sequence[Any]]) -> int:
    """Base-table rows the scans read.

    A full scan reads the whole snapshot (``Table.to_batch``).  An index scan
    takes the same snapshot but then probes the index and gathers only the
    matching positions, so a snapshot directly followed by a probe under the
    same parent counts for the probe's matches, not for its own length.
    """
    total = 0
    snapshot_of_parent: dict[int, int] = {}
    for span in spans:
        name = span[NAME]
        if name == "Table.to_batch":
            total += span[UNITS]
            snapshot_of_parent[span[PARENT]] = span[UNITS]
        elif name in _INDEX_PROBES:
            total += span[UNITS] - snapshot_of_parent.pop(span[PARENT], 0)
        elif span[PARENT] in snapshot_of_parent and not name.startswith("RowBatch."):
            del snapshot_of_parent[span[PARENT]]
    return total


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _handle_query(args, kwargs, result):
    return getattr(result, "query_id", None)


def _second_arg_query(args, kwargs, result):
    return getattr(args[1], "query_id", None) if len(args) > 1 else None


def _query_id_argument(args, kwargs, result):
    if "query_id" in kwargs:
        return kwargs["query_id"] or None
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _message_query(args, kwargs, result):
    message = args[1] if len(args) > 1 else None
    return message.get("query_id") if isinstance(message, dict) else None


def _result_count(args, kwargs, result):
    return int(result)


def _result_length(args, kwargs, result):
    return len(result)


def _encoded_row_count(args, kwargs, result):
    return len(result["values"])


def _base_table_rows(args, kwargs, result):
    """Rows the factory loaded into base tables (results tables excluded)."""
    catalog = result.database.catalog
    return sum(
        len(catalog.table(name))
        for name in catalog.table_names()
        if not name.startswith("__results_")
    )


def install(dump_path: Path | None = None) -> Tracer:
    """Patch every layer boundary in this process; returns the tracer.

    Call before any engine, coordinator or server object exists — bound
    methods handed out as callbacks are resolved at construction time.
    Forked children inherit the patches; their span store starts empty.
    """
    tracer = Tracer()
    tracer.dump_path = dump_path
    mod = importlib.import_module

    # The benchmark's own factory: its span is the table + index load.
    tracer.patch(mod("factory"), "build_engine", "storage", name="factory.build_engine",
                 units_of=_base_table_rows)

    engine = mod("repro.engine")
    tracer.patch(engine.QurkEngine, "query", "engine", query_of=_handle_query)
    tracer.patch(engine, "parse_select", "core.lang", name="parse_select")
    tracer.patch(engine, "recover_engine", "storage.wal", name="recover_engine")

    planner = mod("repro.core.plan.planner")
    tracer.patch(planner.QueryPlanner, "plan", "core.plan", query_of=_query_id_argument)
    optimizer = mod("repro.core.optimizer.optimizer").QueryOptimizer
    for method in (
        "estimate_worker_accuracy",
        "choose_assignments",
        "choose_join_strategy",
        "choose_sort_strategy",
        "costing_pass",
        "estimate_logical_cost",
        "estimate_plan_cost",
    ):
        tracer.patch(optimizer, method, "core.optimizer")

    scheduler = mod("repro.core.exec.scheduler").EngineScheduler
    tracer.patch(scheduler, "submit", "core.exec", query_of=_second_arg_query)
    tracer.patch(scheduler, "wait", "core.exec", query_of=_second_arg_query)
    for method in ("step", "pump", "drain"):
        tracer.patch(scheduler, method, "core.exec")
    tracer.patch_listener(mod("repro.core.tasks.task_manager").TaskManager, "on_result_delivered", "core.exec")
    # The executor's pass over one query's operator tree.  Operators are not
    # wrapped one by one (a scheduler pass steps every operator of every
    # active query, mostly to find nothing to do: millions of spans), so
    # operator code runs in this span's self time.
    tracer.patch(mod("repro.core.exec.executor").QueryExecutor, "step_local", "core.operators")

    task_manager = mod("repro.core.tasks.task_manager").TaskManager
    tracer.patch(task_manager, "submit", "core.tasks", query_of=_second_arg_query)
    tracer.patch(task_manager, "flush", "core.tasks")
    tracer.patch(task_manager, "cancel_query", "core.tasks", query_of=_query_id_argument)

    platform = mod("repro.crowd.mturk").MTurkSimulator
    tracer.patch(platform, "create_hit", "crowd")
    tracer.patch_listener(platform, "on_assignment_submitted", "core.tasks")
    tracer.patch_listener(platform, "on_hit_expired", "core.tasks")
    clock = mod("repro.crowd.clock").SimulationClock
    # run_next() and run_until_idle() fire their events through advance_to().
    tracer.patch(clock, "advance_to", "crowd", units_of=_result_count)  # events fired

    table = mod("repro.storage.table").Table
    for method in ("insert_many", "append_rows", "create_index", "rows", "rows_since", "distinct_count"):
        tracer.patch(table, method, "storage")
    tracer.patch(table, "to_batch", "storage", units_of=_result_length)  # rows in the snapshot
    indexes = mod("repro.storage.indexes")
    tracer.patch(indexes.HashIndex, "positions_equal", "storage", units_of=_result_length)
    tracer.patch(indexes.SortedIndex, "positions_equal", "storage", units_of=_result_length)
    tracer.patch(indexes.SortedIndex, "positions_range", "storage", units_of=_result_length)
    batch = mod("repro.storage.batch").RowBatch
    for method in ("vstack", "take", "compress", "slice", "concat", "to_rows", "from_rows"):
        tracer.patch(batch, method, "storage")

    wal = mod("repro.storage.wal")
    tracer.patch(wal.WriteAheadLog, "append", "storage.wal")
    tracer.patch(wal.WriteAheadLog, "flush", "storage.wal")
    tracer.patch(os, "fsync", "storage.wal", name="os.fsync")

    serialization = "cluster.serialization"
    messages = mod("repro.cluster.messages")
    tracer.patch(messages, "encode_message", serialization, name="encode_message",
                 units_of=_result_length)  # bytes on the pipe
    tracer.patch(messages, "decode_message", serialization, name="decode_message")
    for method in ("send", "recv", "poll"):
        tracer.patch(messages.PipeTransport, method, "cluster.messages")
    server = mod("repro.cluster.server")
    tracer.patch(server, "frame_message", serialization, name="frame_message",
                 units_of=_result_length)  # bytes on the socket
    tracer.patch(server, "decode_message", serialization, name="decode_message")
    tracer.patch(server, "encode_rows", serialization, name="encode_rows",
                 units_of=_encoded_row_count)
    coordinator = mod("repro.cluster.coordinator")
    tracer.patch(coordinator, "decode_rows", serialization, name="decode_rows",
                 units_of=_result_length)
    tracer.patch(coordinator, "encode_query", serialization, name="encode_query")
    for method in ("submit_many", "status", "results", "poll", "pump", "stats"):
        tracer.patch(
            coordinator.ShardCoordinator,
            method,
            "cluster.coordinator",
            query_of=_query_id_argument if method in ("status", "results", "poll") else None,
        )
    worker = mod("repro.cluster.worker")
    tracer.patch(worker, "encode_rows", serialization, name="encode_rows",
                 units_of=_encoded_row_count)
    tracer.patch(worker, "decode_query", serialization, name="decode_query")

    def flush_on_shutdown(args, kwargs):
        message = args[1] if len(args) > 1 else None
        if isinstance(message, dict) and message.get("op") == "shutdown":
            # multiprocessing children leave through os._exit and skip atexit.
            tracer.dump()

    tracer.patch(
        worker.ShardWorker,
        "handle",
        "cluster.worker",
        query_of=_message_query,
        after=flush_on_shutdown,
    )

    os.register_at_fork(after_in_child=tracer.reset_in_child)
    return tracer
