"""The rendered dashboards are a published text format.

One seeded scenario with fault injection, quality control, admission
backpressure and the circuit breaker all on — so every optional dashboard
line renders — is driven in-process and on a 2-shard cluster, and the text of
``QueryDashboard.render_all()`` and ``ShardCoordinator.dashboard()`` must stay
byte-identical to ``golden/dashboard_*.txt``.  Regenerate the files (only when
the text is *meant* to change) with::

    PYTHONPATH=src python tests/testing/test_dashboard_golden.py
"""

import re
from pathlib import Path

import pytest

from repro.cluster import EngineSpec, ShardCoordinator
from repro.crowd.breaker import BreakerConfig
from repro.crowd.faults import FaultProfile
from repro.crowd.quality import QualityConfig
from repro.dashboard import QueryDashboard
from repro.engine import QurkEngine
from repro.errors import EngineOverloadedError
from repro.workloads.products import ProductsWorkload

GOLDEN = Path(__file__).parent / "golden"
FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SORT_SQL = "SELECT name FROM products ORDER BY biggerItem(name) LIMIT 3"


def build_golden_engine() -> QurkEngine:
    workload = ProductsWorkload(n_products=8, seed=21)
    engine = QurkEngine(
        seed=21,
        enable_task_model=False,
        fault_profile=FaultProfile(
            seed=4,
            abandonment_rate=0.25,
            duplicate_rate=0.2,
            late_rate=0.2,
            hit_lifetime=1800.0,
        ),
        quality=QualityConfig(gold_frequency=0.5, seed=2),
        max_concurrent_queries=1,
        admission_queue_limit=1,
        circuit_breaker=BreakerConfig(failure_threshold=1, cooldown=120.0),
    )
    workload.install(engine.database)
    engine.register_gold("isTargetColor", workload.gold_questions())
    oracle = workload.oracle()
    for task_name in ("isTargetColor", "biggerItem"):
        engine.register_oracle(task_name, oracle)
    engine.define_task(workload.color_filter_spec(assignments=3, batch_size=2), learnable=False)
    engine.define_task(
        workload.size_compare_spec(assignments=3, batch_size=2),
        payload=lambda row: {"name": row["name"]},
        learnable=False,
    )
    return engine


def render_engine() -> str:
    engine = build_golden_engine()
    first = engine.query(FILTER_SQL, budget=4.0)
    second = engine.query(SORT_SQL)
    with pytest.raises(EngineOverloadedError):
        engine.query(FILTER_SQL)
    dashboard = QueryDashboard(engine)
    mid_run = dashboard.render_all()
    first.wait()
    second.wait()
    engine.clock.run_until_idle()
    return mid_run + "\n\n" + dashboard.render_all() + "\n"


def render_cluster() -> str:
    spec = EngineSpec(f"{__name__}:build_golden_engine")
    with ShardCoordinator(spec, 2) as cluster:
        cluster.submit_many(
            [{"sql": FILTER_SQL, "budget": 4.0}, {"sql": FILTER_SQL}, {"sql": SORT_SQL}, {"sql": SORT_SQL}]
        )
        with pytest.raises(EngineOverloadedError):
            cluster.submit(FILTER_SQL)
        cluster.drain()
        text = cluster.dashboard()
    # Resident memory, heartbeat age and op latency are read off the host.
    text = re.sub(r"^memory: .*$", "memory: <host>", text, flags=re.M)
    text = re.sub(
        r"heartbeat \S+( ago)?, op latency \S+ms", "heartbeat <host>, op latency <host>", text
    )
    return text + "\n"


def test_engine_dashboard_text_is_unchanged():
    assert render_engine() == (GOLDEN / "dashboard_engine.txt").read_text()


def test_cluster_dashboard_text_is_unchanged():
    assert render_cluster() == (GOLDEN / "dashboard_cluster.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "dashboard_engine.txt").write_text(render_engine())
    (GOLDEN / "dashboard_cluster.txt").write_text(render_cluster())
