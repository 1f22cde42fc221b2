"""How a query ends is a published text format.

Each seeded, in-process scenario drives queries into one terminal state —
completed, over budget, stalled (attempts exhausted, a global stall, a
handle that was never submitted), a missed deadline in both degradation modes, a pressured
query hitting its deadline, a deadline that cancels queued work, and
admission overflow under both policies — and records, per query, the
status, the error, every lifecycle event, and then the scheduler's and Task
Manager's counters.  The text must stay byte-identical to
``golden/lifecycle.txt``.  Regenerate the file (only when the text is
*meant* to change) with::

    PYTHONPATH=src python tests/testing/test_lifecycle_golden.py
"""

import re
from dataclasses import asdict
from pathlib import Path

from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryHandle
from repro.errors import QurkError
from repro.experiments.harness import build_companies_engine, build_products_engine
from repro.storage import DataType, Schema, Table
from repro.testing.scenarios import breaker_recovery_scenario, exhaustion_scenario

GOLDEN = Path(__file__).parent / "golden" / "lifecycle.txt"
FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SORT_SQL = "SELECT name FROM products ORDER BY biggerItem(name) LIMIT 2"
CEO_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies"
)


class _StuckExecutor:
    """An executor whose step never progresses and never completes."""

    def step_local(self):
        return False

    def is_complete(self):
        return False

    def retire(self):
        pass


def _ceo_engine(n_companies=6):
    return build_companies_engine(n_companies=n_companies, seed=21, enable_cache=False).engine


def _bounded_engine(**overrides):
    kwargs = {"max_concurrent_queries": 1, "admission_queue_limit": 1}
    kwargs.update(overrides)
    return build_products_engine(n_products=4, seed=5, engine_kwargs=kwargs).engine


def _submit(engine, sql, refused, **kwargs):
    """Submit a query; an overflow refusal is recorded instead of raised."""
    try:
        return engine.query(sql, **kwargs)
    except QurkError as error:
        refused.append(error)
        return None


def completed():
    engine = build_products_engine(n_products=6, filter_batch=2, seed=3).engine
    return engine, [engine.query(FILTER_SQL), engine.query(SORT_SQL)], []


def over_budget():
    engine = build_products_engine(n_products=6, filter_batch=2, seed=3).engine
    return engine, [engine.query(FILTER_SQL, budget=0.05), engine.query(FILTER_SQL)], []


def attempts_exhausted():
    scenario = exhaustion_scenario()
    engine = scenario.build().engine
    return engine, [engine.query(sql) for sql in scenario.queries], []


def global_stall():
    engine = build_products_engine(n_products=4, seed=5).engine
    engine.scheduler.replanner = None  # a stub executor has no plan to re-cost
    table = Table("stuck", Schema.of(("x", DataType.INTEGER)))
    handle = QueryHandle("stuck-1", "SELECT ...", _StuckExecutor(), table)
    engine.scheduler.submit(handle)
    return engine, [handle], []


def never_submitted_wait():
    engine = _bounded_engine()
    active = engine.query(FILTER_SQL)
    table = Table("never", Schema.of(("x", DataType.INTEGER)))
    never = QueryHandle("never-1", "SELECT ...", _StuckExecutor(), table)
    # Bound to the scheduler but never submitted to it: waiting drives the
    # admitted query to its end, then the scheduler runs out of work.
    never.scheduler = engine.scheduler
    return engine, [never, active], []


def deadline_error():
    engine = _ceo_engine()
    return engine, [engine.query(CEO_SQL, config=QueryConfig(deadline=100.0))], []


def deadline_partial():
    engine = _ceo_engine()
    config = QueryConfig(deadline=200.0, degradation="partial")
    return engine, [engine.query(CEO_SQL, config=config)], []


def pressure_then_deadline():
    engine = _ceo_engine(n_companies=8)
    config = QueryConfig(deadline=300.0, shed_under_pressure=True)
    return engine, [engine.query(CEO_SQL, config=config)], []


def deadline_with_breaker_open():
    # The open breaker holds tasks in the pending queue, so the deadline
    # has queued work to cancel and its event says how much.
    engine = breaker_recovery_scenario().build().engine
    config = QueryConfig(deadline=900.0, degradation="partial")
    return engine, [engine.query(FILTER_SQL, config=config)], []


def admission_reject():
    engine = _bounded_engine()
    refused: list[QurkError] = []
    handles = [_submit(engine, FILTER_SQL, refused) for _ in range(3)]
    return engine, [handle for handle in handles if handle is not None], refused


def admission_shed():
    engine = _bounded_engine(overload_policy="shed")
    refused: list[QurkError] = []
    handles = [
        _submit(engine, FILTER_SQL, refused, priority=priority) for priority in (1.0, 1.0, 2.0)
    ]
    return engine, [handle for handle in handles if handle is not None], refused


SCENARIOS = {
    "completed": completed,
    "budget 0.05": over_budget,
    "attempt exhaustion": attempts_exhausted,
    "global stall": global_stall,
    "wait on a never-submitted handle": never_submitted_wait,
    "deadline 100s error": deadline_error,
    "deadline 200s partial": deadline_partial,
    "deadline 300s shed under pressure": pressure_then_deadline,
    "deadline 900s partial, breaker open": deadline_with_breaker_open,
    "admission limit 1 reject": admission_reject,
    "admission limit 1 shed": admission_shed,
}


def _describe_error(error) -> str:
    if error is None:
        return "-"
    # Task ids come from a process-wide counter, so they depend on what ran
    # earlier in the same process.
    return re.sub(r"\bT\d{8}\b", "T<id>", f"{type(error).__name__}: {error}")


def render_scenario(name: str) -> str:
    engine, handles, refused = SCENARIOS[name]()
    lines = [f"== {name} =="]
    for error in refused:
        lines.append(f"refused at submit: {_describe_error(error)}")
    # Wait on each handle in turn, as a user would; a raise is part of the
    # contract being pinned.
    waited = {}
    for handle in handles:
        try:
            waited[handle.query_id] = f"{len(handle.wait())} row(s)"
        except QurkError as error:
            waited[handle.query_id] = f"raised {type(error).__name__}"
    engine.clock.run_until_idle()
    scheduler = engine.scheduler
    by_id = {handle.query_id: handle for handle in handles}
    query_ids = list(dict.fromkeys(event.query_id for event in scheduler.events))
    for query_id in query_ids:
        handle = by_id.get(query_id)
        if handle is None:
            lines.append(f"{query_id}: (no handle)")
        else:
            lines.append(
                f"{query_id}: {handle.status.value}, wait {waited[query_id]}, "
                f"{len(handle.results_table)} row(s)"
            )
            lines.append(f"  error: {_describe_error(handle.error)}")
        lines.extend(f"  {event.describe()}" for event in scheduler.events_for(query_id))
    lines.append(f"scheduler: {asdict(scheduler.metrics)}")
    lines.append(f"task manager: {asdict(engine.task_manager.stats)}")
    return "\n".join(lines)


def render_all() -> str:
    return "\n\n".join(render_scenario(name) for name in SCENARIOS) + "\n"


def test_lifecycle_text_is_unchanged():
    assert render_all() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_all())
