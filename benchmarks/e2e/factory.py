"""The one engine factory every e2e workload builds through.

Addressed as ``"factory:build_engine"`` (this directory is on ``sys.path``
in every benchmark process), so the same recipe serves the embedded
workloads, the cluster's :class:`~repro.cluster.worker.EngineSpec` and the
WAL header that :meth:`QurkEngine.recover` rebuilds from.  Sizes are the
only knobs: a size of 0 leaves that table (and its crowd tasks) out.
"""

from __future__ import annotations

from repro.core.exec.context import QueryConfig
from repro.engine import QurkEngine
from repro.storage.types import DataType
from repro.workloads.companies import CompaniesWorkload
from repro.workloads.products import ProductsWorkload

import datagen


def build_engine(
    *,
    seed: int,
    companies: int = 0,
    products: int = 0,
    items: int = 0,
    categories: int = datagen.N_CATEGORIES,
) -> QurkEngine:
    """A fresh engine with the requested tables, oracles and crowd tasks.

    Redundancy is fixed (``adaptive=False``) and the task model is off, so
    the HIT count of a query is a function of its rows alone — what lets
    same-seed repetitions be compared byte for byte.
    """
    engine = QurkEngine(
        seed=seed,
        enable_task_model=False,
        default_query_config=QueryConfig(adaptive=False),
    )
    if companies:
        workload = CompaniesWorkload(n_companies=companies, seed=seed)
        workload.install(engine.database)
        engine.register_oracle("findCEO", workload.oracle())
        engine.define_task(workload.findceo_spec())
    if products:
        workload = ProductsWorkload(n_products=products, seed=seed)
        workload.install(engine.database)
        oracle = workload.oracle()
        for task_name in ("isTargetColor", "biggerItem", "rateSize"):
            engine.register_oracle(task_name, oracle)
        engine.define_task(workload.color_filter_spec(), learnable=False)
        name_payload = lambda row: {"name": row["name"]}  # noqa: E731 - tiny adapter
        engine.define_task(workload.size_compare_spec(), payload=name_payload, learnable=False)
        engine.define_task(workload.size_rating_spec(), payload=name_payload, learnable=False)
    if items:
        data = datagen.items_columns(items, categories, seed)
        table = engine.create_table(
            "items",
            [
                ("id", DataType.INTEGER),
                ("category", DataType.STRING),
                ("price", DataType.INTEGER),
                ("score", DataType.FLOAT),
            ],
        )
        table.insert_many(zip(data.ids, data.categories, data.prices, data.scores))
        table.create_index("id", "hash")
        engine.create_table(
            "categories",
            [("name", DataType.STRING), ("weight", DataType.FLOAT)],
            rows=list(zip(data.category_names, data.category_weights)),
        )
    return engine
