"""Crowd work is freed by reference counting, not by the cyclic collector.

Every assignment, HIT and query object on the crowd path must die when its
last reference goes: a reference cycle per assignment (a self-naming
closure, say) leaves its private ``random.Random`` and the objects around it
for the cyclic collector, whose passes then dominate a crowd workload's CPU.
Each case pauses the collector, keeps what it would free in ``gc.garbage``
(``DEBUG_SAVEALL``), runs a window of work and asserts that the window left
no engine object and no random stream in a cycle.
"""

import gc
from collections import Counter

from repro.core.exec.context import QueryConfig
from repro.crowd.faults import FaultProfile
from repro.engine import QurkEngine
from repro.storage.durability import DurabilityConfig
from repro.workloads.companies import CompaniesWorkload
from repro.workloads.products import ProductsWorkload

_WINDOW = "SELECT name FROM products WHERE price >= {low!r} AND price < {high!r}"
CROWD_SQL = {
    "filter": _WINDOW + " AND isTargetColor(name)",
    "rating": _WINDOW + " ORDER BY rateSize(name)",
    "compare": _WINDOW + " ORDER BY biggerItem(name)",
}
LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{}'"
)
#: One wave's query classes, shaped like the crowd_durable benchmark's waves.
WAVE = ("filter", "rating", "filter", "compare", "filter", "filter")


def products_engine(seed, *, faults=None):
    engine = QurkEngine(
        seed=seed,
        enable_task_model=False,
        default_query_config=QueryConfig(adaptive=False),
        fault_profile=faults,
    )
    workload = ProductsWorkload(n_products=600, seed=seed)
    workload.install(engine.database)
    oracle = workload.oracle()
    for task_name in ("isTargetColor", "biggerItem", "rateSize"):
        engine.register_oracle(task_name, oracle)
    engine.define_task(workload.color_filter_spec(), learnable=False)
    name_payload = lambda row: {"name": row["name"]}  # noqa: E731 - tiny adapter
    engine.define_task(workload.size_compare_spec(), payload=name_payload, learnable=False)
    engine.define_task(workload.size_rating_spec(), payload=name_payload, learnable=False)
    prices = sorted({record.price for record in workload.records})
    return engine, prices


def run_wave(engine, prices, start):
    """Submit one wave of cold crowd queries over disjoint price windows, drain it."""
    handles = []
    for index, kind in enumerate(WAVE):
        low, high = prices[start + 3 * index], prices[start + 3 * index + 3]
        handles.append(engine.query(CROWD_SQL[kind].format(low=low, high=high)))
    engine.scheduler.drain()
    engine.clock.run_until_idle()
    for handle in handles:
        handle.results()


def cyclic_garbage(window) -> Counter:
    """Types of the objects only the cyclic collector would free after ``window()``."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        window()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def assert_no_crowd_cycles(garbage: Counter) -> None:
    leaked = {
        name: count
        for name, count in garbage.items()
        if name.startswith("repro") or name == "random.Random"
    }
    assert not leaked, f"left for the cyclic collector: {leaked}"


def test_durable_crowd_waves_leave_no_cycles(tmp_path):
    engine, prices = products_engine(11)
    engine.enable_durability(DurabilityConfig(directory=str(tmp_path), snapshot_every=None))
    try:
        run_wave(engine, prices, 0)  # warm: first plans, caches and buckets
        garbage = cyclic_garbage(lambda: [run_wave(engine, prices, 20 + 20 * i) for i in range(2)])
    finally:
        engine.journal.close()
    assert_no_crowd_cycles(garbage)


def test_faulty_marketplace_leaves_no_cycles():
    faults = FaultProfile(
        seed=3, abandonment_rate=0.2, duplicate_rate=0.3, late_rate=0.2, hit_lifetime=400.0
    )
    engine, prices = products_engine(12, faults=faults)
    run_wave(engine, prices, 0)
    garbage = cyclic_garbage(lambda: [run_wave(engine, prices, 20 + 20 * i) for i in range(2)])
    stats = engine.platform.stats
    # The window must have run every fault path the assignment events take.
    assert stats.duplicate_submissions_ignored > 0
    assert stats.assignments_abandoned > 0
    assert stats.late_submissions_dropped > 0
    assert stats.hits_expired > 0
    assert_no_crowd_cycles(garbage)


def test_cached_lookups_leave_no_cycles():
    engine = QurkEngine(seed=5)
    workload = CompaniesWorkload(n_companies=10, seed=5)
    workload.install(engine.database)
    engine.register_oracle("findCEO", workload.oracle())
    engine.define_task(workload.findceo_spec())
    names = [record.name.replace("'", "''") for record in workload.records]
    for name in names:  # every answer reaches the Task Cache
        engine.query(LOOKUP_SQL.format(name)).wait()

    def lookups():
        for index in range(50):
            handle = engine.query(LOOKUP_SQL.format(names[index % len(names)]))
            handle.wait()
            assert handle.executor.stats.cache_hits > 0

    assert_no_crowd_cycles(cyclic_garbage(lookups))
