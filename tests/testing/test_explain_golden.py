"""EXPLAIN, plan decisions and plan history are a published text format.

The optimizer's visible output — ``engine.explain()``, the chosen
candidate's ``decisions``, ``describe_plan()`` of a finished query and every
``PlanChange.describe()`` the adaptive replanner records — is rendered over
the paper's three workloads, a warm ``findCEO`` point lookup (the
``lookup_warm`` benchmark's query shape), a machine equi-join, an index scan and the
adaptive scenarios (a misestimated sort swapped to ratings, a redundancy
shift, a forced join-interface swap), and must stay byte-identical to
``golden/explain.txt``.  The text is rendered twice: once with every EXPLAIN
and plan a template miss, once with each a hit on the statement's plan
template, and both renderings must equal the file.  Regenerate the file
(only when the text is *meant* to change) with::

    PYTHONPATH=src python tests/testing/test_explain_golden.py
"""

from pathlib import Path

import pytest

from repro.core.exec.context import QueryConfig
from repro.core.lang.sql_parser import parse_select
from repro.core.operators.crowd_join import CrowdJoinOperator, JoinStrategy
from repro.engine import QurkEngine
from repro.experiments import (
    QUERY1_SQL,
    QUERY2_SQL,
    build_celebrity_engine,
    build_companies_engine,
    build_products_engine,
)
from repro.storage.types import DataType
from repro.workloads.products import ProductsWorkload

GOLDEN = Path(__file__).parent / "golden"

PRODUCTS_QUERIES = (
    "SELECT name FROM products WHERE isTargetColor(name)",
    "SELECT name FROM products WHERE NOT isTargetColor(name) AND price < 50",
    "SELECT name FROM products ORDER BY biggerItem(name)",
    "SELECT name FROM products ORDER BY rateSize(name) LIMIT 4",
    "SELECT category, count(name) AS n, avg(price) AS mean_price "
    "FROM products GROUP BY category",
    "SELECT name FROM products ORDER BY price ASC",
)
LOCAL_JOIN_QUERIES = (
    "SELECT products.name, tags.tag_name FROM products, tags "
    "WHERE products.name = tags.tag_name",
    "SELECT products.name FROM products, tags "
    "WHERE products.name = tags.tag_name ORDER BY biggerItem(products.name)",
)
INDEX_QUERIES = (
    "SELECT name FROM products WHERE category = 'mug'",
    "SELECT name FROM products WHERE price < 20 AND isTargetColor(name)",
)
LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)
MISESTIMATED_SQL = (
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name)"
)


def explain(engine, sql: str, *, hit: bool = False) -> str:
    """EXPLAIN text plus the decisions of the plan the engine would build.

    ``hit=False`` plans a freshly parsed statement with no template slot;
    ``hit=True`` uses the engine's own slot for the text, after
    :meth:`~repro.engine.QurkEngine.validate` has put a template in it.
    """
    if hit:
        engine.validate(sql)
        statement, slot = engine._statement(sql)
        assert slot.template is not None
    else:
        statement, slot = parse_select(sql), None
    decisions = engine.planner.plan(statement, slot=slot).chosen.decisions
    text = engine.explain(sql) if hit else engine.planner.explain(statement)
    return f"-- explain: {sql}\n{text}\n-- decisions: {', '.join(decisions) or 'default'}"


def ran(engine, handle) -> str:
    """What a finished query shows: its plan, history and current estimate."""
    handle.wait()
    estimate = engine.estimate_query_cost(handle)
    history = "\n".join(change.describe() for change in handle.plan_history())
    return (
        f"-- ran: {handle.sql}\n{handle.describe_plan()}\n"
        f"-- history:\n{history}\n"
        f"-- estimate: ${estimate.dollars:,.4f} / {estimate.hits:,.2f} HITs"
    )


def add_tags(engine, workload, n_tags: int) -> None:
    """A ``tags`` table naming ``n_tags`` of the products (a machine join)."""
    names = [record.name for record in workload.records[:n_tags]]
    engine.create_table(
        "tags", [("tag_name", DataType.STRING)], rows=[[name] for name in names]
    )


def render_workloads(hit: bool) -> list[str]:
    parts = []
    run = build_companies_engine(n_companies=12)
    companies = run.engine
    parts.append(explain(companies, QUERY1_SQL, hit=hit))
    parts.append(ran(companies, companies.query(QUERY1_SQL)))
    parts.append(explain(companies, QUERY1_SQL, hit=hit))
    # The benchmark's warm point lookup: every findCEO answer is cached by now.
    lookup = LOOKUP_SQL.format(company=run.workload.records[3].name)
    parts.append(explain(companies, lookup, hit=hit))
    parts.append(ran(companies, companies.query(lookup)))
    parts.append(explain(companies, lookup, hit=hit))

    celebrities = build_celebrity_engine(n_celebrities=8, n_spotted=8).engine
    parts.append(explain(celebrities, QUERY2_SQL, hit=hit))
    parts.append(ran(celebrities, celebrities.query(QUERY2_SQL)))

    products = build_products_engine(n_products=10).engine
    parts.extend(explain(products, sql, hit=hit) for sql in PRODUCTS_QUERIES)
    parts.append(ran(products, products.query(PRODUCTS_QUERIES[0])))
    parts.append(ran(products, products.query(PRODUCTS_QUERIES[3])))
    parts.append(explain(products, PRODUCTS_QUERIES[0], hit=hit))
    return parts


def render_local_join_and_index(hit: bool) -> list[str]:
    run = build_products_engine(n_products=40)
    engine = run.engine
    add_tags(engine, run.workload, 8)
    products = engine.database.table("products")
    products.create_index("category")
    products.create_index("price", kind="sorted")
    parts = [explain(engine, sql, hit=hit) for sql in LOCAL_JOIN_QUERIES + INDEX_QUERIES]
    parts.append(ran(engine, engine.query(LOCAL_JOIN_QUERIES[0])))
    parts.append(ran(engine, engine.query(INDEX_QUERIES[0])))
    parts.append(ran(engine, engine.query(INDEX_QUERIES[1])))
    return parts


def build_misestimated_engine() -> QurkEngine:
    """Products where 90% match the filter, but statistics say almost none."""
    workload = ProductsWorkload(n_products=10, target_fraction=0.9, seed=77)
    engine = QurkEngine(
        seed=5,
        enable_cache=False,
        enable_task_model=False,
        default_query_config=QueryConfig(adaptive=True),
    )
    workload.install(engine.database)
    oracle = workload.oracle()
    for task in ("isTargetColor", "biggerItem"):
        engine.register_oracle(task, oracle)
    engine.define_task(workload.color_filter_spec(assignments=3), learnable=False)
    engine.define_task(
        workload.size_compare_spec(assignments=3),
        payload=lambda row: {"name": row["name"]},
        learnable=False,
    )
    stats = engine.statistics.spec("isTargetColor")
    stats.boolean_total, stats.boolean_true = 36, 0
    return engine


def render_adaptive(hit: bool) -> list[str]:
    # The misestimated sort: the planner expects a tiny ORDER BY input and
    # the replanner swaps the comparison sort for ratings.
    engine = build_misestimated_engine()
    parts = [explain(engine, MISESTIMATED_SQL, hit=hit)]
    parts.append(ran(engine, engine.query(MISESTIMATED_SQL)))

    # A redundancy shift: observed agreement jumps after the first barrier.
    engine = build_misestimated_engine()
    handle = engine.query(MISESTIMATED_SQL)
    while not any(op.is_done() for op in handle.executor.operators()):
        engine.scheduler.step()
    stats = engine.statistics.spec("biggerItem")
    stats.crowd_tasks, stats.total_agreement = 50, 50 * 0.99
    parts.append(ran(engine, handle))

    # A forced join-interface swap: before it starts, the planned join is
    # replaced by a two-column join planned for 20 x 20 rows.  It sees 2 x 70
    # once the small side's scan finishes, where batched pairs are cheaper.
    engine = build_celebrity_engine(
        n_celebrities=2, n_spotted=70, pairs_per_hit=20, adaptive=True
    ).engine
    handle = engine.query(QUERY2_SQL)
    executor = handle.executor
    old = next(op for op in executor.operators() if isinstance(op, CrowdJoinOperator))
    forced = CrowdJoinOperator(
        old.spec,
        old.children[0].output_schema,
        old.children[1].output_schema,
        strategy=JoinStrategy.COLUMNS,
        left_payload=old.left_payload,
        right_payload=old.right_payload,
    )
    forced.planned_left_rows = forced.planned_right_rows = 20.0
    executor.replace_operator(old, forced)
    parts.append(ran(engine, handle))
    return parts


def render(*, hit: bool = False) -> str:
    parts = render_workloads(hit) + render_local_join_and_index(hit) + render_adaptive(hit)
    return "\n\n".join(parts) + "\n"


@pytest.mark.parametrize("hit", [False, True], ids=["template-miss", "template-hit"])
def test_explain_and_plan_history_text_is_unchanged(hit):
    assert render(hit=hit) == (GOLDEN / "explain.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "explain.txt").write_text(render())
