"""Plan templates: a repeated statement is planned from its template.

The planner keeps, per statement, what lowering and candidate enumeration
computed, and re-costs the candidates on every plan.  The differential
property below drives one engine through random sequences of repeated texts,
index builds, table drops and re-creates, task re-definitions and crowd
queries that move selectivity and agreement; after every step, the template
path must give exactly what a template-free planner gives on the same engine.
"""

import dataclasses
import random

import pytest

from repro.core.lang.sql_parser import parse_select
from repro.core.plan.planner import QueryPlanner, TemplateSlot
from repro.errors import QurkError
from repro.experiments import build_companies_engine, build_products_engine
from repro.storage.types import DataType

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SORT_SQL = "SELECT name FROM products ORDER BY biggerItem(name) LIMIT 3"
TEXTS = (
    FILTER_SQL,
    SORT_SQL,
    "SELECT name FROM products WHERE NOT isTargetColor(name) AND price < 50",
    "SELECT name FROM products WHERE category = 'mug'",
    "SELECT name FROM products WHERE price < 20 AND isTargetColor(name)",
    "SELECT name FROM products WHERE isTargetColor(name) ORDER BY biggerItem(name)",
    "SELECT category, count(name) AS n FROM products GROUP BY category",
    "SELECT products.name, tags.tag_name FROM products, tags "
    "WHERE products.name = tags.tag_name",
    "SELECT name FROM products WHERE isCheap(name)",
)
#: Schemas ``tags`` is re-created with: the join text plans against the
#: first and third, and is refused (unknown column) against the second.
TAG_SCHEMAS = (
    [("tag_name", DataType.STRING)],
    [("label", DataType.STRING)],
    [("weight", DataType.INTEGER), ("tag_name", DataType.STRING)],
)
LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO FROM companies "
    "WHERE companyName = '{company}'"
)


def outcome(planner: QueryPlanner, statement, slot: TemplateSlot | None) -> tuple:
    """EXPLAIN, decisions, chosen cost and planned rows — or the refusal."""
    try:
        text = planner.explain(statement, slot=slot)
        planned = planner.plan(statement, slot=slot)
    except QurkError as error:
        return ("refused", type(error).__name__, str(error))
    rows = [
        (
            type(operator).__name__,
            operator.planned_input_rows,
            getattr(operator, "planned_left_rows", None),
            getattr(operator, "planned_right_rows", None),
        )
        for operator in planned.root.walk()
    ]
    return text, planned.chosen.decisions, planned.chosen.cost, rows


class Slots:
    """One statement and slot per text, kept across steps as the engine keeps them."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple] = {}

    def __call__(self, sql: str) -> tuple:
        if sql not in self._entries:
            self._entries[sql] = (parse_select(sql), TemplateSlot())
        return self._entries[sql]


def assert_template_path_matches(engine, slots: Slots, texts) -> int:
    """Compare both paths for each text; returns how many reused a template."""
    fresh = QueryPlanner(engine.database, engine.registry, engine.optimizer)
    reused = 0
    for sql in texts:
        statement, slot = slots(sql)
        kept = slot.template
        expected = outcome(fresh, parse_select(sql), None)
        assert outcome(engine.planner, statement, slot) == expected, sql
        reused += kept is not None and slot.template is kept
        if expected[0] != "refused":
            assert engine.explain(sql) == expected[0], sql
    return reused


def counting_lowers(planner: QueryPlanner) -> list:
    calls = []
    lower = planner.lower

    def counted(statement):
        calls.append(statement)
        return lower(statement)

    planner.lower = counted
    return calls


class TestDifferentialProperty:
    @pytest.mark.parametrize("seed", range(8))
    def test_template_path_equals_a_template_free_planner(self, seed):
        rng = random.Random(seed)
        run = build_products_engine(n_products=10, seed=13)
        engine, workload = run.engine, run.workload
        engine.create_table("tags", TAG_SCHEMAS[0], rows=[[r.name] for r in workload.records[:4]])
        products = engine.database.table("products")
        slots = Slots()

        def index():
            column = rng.choice(("name", "category", "price"))
            products.create_index(column, kind=rng.choice(("hash", "sorted")))

        def retag():
            engine.database.drop_table("tags")
            schema = rng.choice(TAG_SCHEMAS)
            names = [record.name for record in workload.records[: rng.randint(1, 8)]]
            rows = [[7, name] if len(schema) == 2 else [name] for name in names]
            engine.create_table("tags", schema, rows=rows)

        def define():
            spec = workload.color_filter_spec(
                assignments=rng.randint(1, 5), batch_size=rng.randint(1, 4)
            )
            if rng.random() < 0.5:
                spec = dataclasses.replace(spec, name="isCheap")
            engine.define_task(spec, learnable=False)

        def crowd():
            engine.query(rng.choice((FILTER_SQL, SORT_SQL))).wait()

        steps = (lambda: None, index, retag, define, crowd)
        assert_template_path_matches(engine, slots, TEXTS)
        reused = 0
        for _ in range(20):
            rng.choice(steps)()
            texts = rng.sample(TEXTS, k=rng.randint(3, len(TEXTS)))
            reused += assert_template_path_matches(engine, slots, texts)
        assert reused > 0  # the comparisons did run through kept templates

    def test_warm_lookups_move_the_generate_cost_and_nothing_else(self):
        """Each lookup moves findCEO's cache-hit rate; templates follow it."""
        rng = random.Random(5)
        run = build_companies_engine(n_companies=6, seed=5)
        engine = run.engine
        names = [record.name for record in run.workload.records]
        texts = [LOOKUP_SQL.format(company=name) for name in names]
        slots = Slots()
        reused = 0
        for _ in range(15):
            sql = rng.choice(texts)
            engine.query(sql).wait()
            reused += assert_template_path_matches(engine, slots, [sql, rng.choice(texts)])
        assert reused > 0


class TestTemplateReuse:
    def test_a_hit_skips_lowering_and_enumeration_but_not_costing(self, monkeypatch):
        run = build_products_engine(n_products=10, seed=13)
        engine = run.engine
        lowers = counting_lowers(engine.planner)
        enumerations = []
        enumerate_trees = engine.planner.physical.enumerate_trees
        monkeypatch.setattr(
            engine.planner.physical,
            "enumerate_trees",
            lambda plan: enumerations.append(plan) or enumerate_trees(plan),
        )
        costed = []
        estimate = engine.optimizer.estimate_logical_cost
        monkeypatch.setattr(
            engine.optimizer,
            "estimate_logical_cost",
            lambda root: costed.append(root) or estimate(root),
        )
        engine.database.table("products").create_index("category")
        sql = "SELECT name FROM products WHERE category = 'mug' AND isTargetColor(name)"
        engine.explain(sql)  # the default tree and both access paths
        assert len(costed) == 3
        for number in range(1, 4):
            engine.query(sql).wait()
            # Costing is never kept: every plan costs every candidate again.
            assert len(costed) == 3 + 2 * number
        # The template is kept from the second planning (the first query) on.
        assert len(lowers) == len(enumerations) == 2

    def test_a_text_planned_once_keeps_no_template(self):
        engine = build_products_engine(n_products=10, seed=13).engine
        sql = "SELECT name FROM products WHERE price > 7"
        engine.query(sql).wait()
        _statement, slot = engine._statement(sql)
        assert slot.template is None
        engine.query(sql).wait()
        assert slot.template is not None

    def test_the_query_after_validate_plans_from_its_template(self):
        """A shard validates, then submits: one lowering for the pair."""
        engine = build_products_engine(n_products=10, seed=13).engine
        lowers = counting_lowers(engine.planner)
        sql = "SELECT name FROM products WHERE price > 7 AND isTargetColor(name)"
        engine.validate(sql)
        engine.query(sql).wait()
        assert len(lowers) == 1

    @pytest.mark.parametrize(
        "change",
        [
            lambda run: run.engine.database.table("products").create_index("category"),
            lambda run: run.engine.database.table("products").create_index(
                "category", kind="sorted"
            ),
            lambda run: run.engine.define_task(
                run.workload.color_filter_spec(assignments=5), learnable=False
            ),
        ],
        ids=["create_index", "replace_index_kind", "define_task"],
    )
    def test_an_input_change_rebuilds_the_template(self, change):
        run = build_products_engine(n_products=10, seed=13)
        engine = run.engine
        engine.database.table("products").create_index("category")
        sql = "SELECT name FROM products WHERE category = 'mug' AND isTargetColor(name)"
        lowers = counting_lowers(engine.planner)
        for _ in range(3):
            engine.explain(sql)  # kept from the second planning on
        change(run)
        engine.explain(sql)
        assert len(lowers) == 3

    def test_a_dropped_table_refuses_the_cached_text(self):
        run = build_products_engine(n_products=10, seed=13)
        engine = run.engine
        engine.create_table("tags", [("tag_name", DataType.STRING)], rows=[["a"]])
        sql = "SELECT tag_name FROM tags"
        engine.query(sql).wait()
        engine.database.drop_table("tags")
        with pytest.raises(QurkError, match="unknown table 'tags'"):
            engine.query(sql)
        engine.create_table("tags", [("label", DataType.STRING), ("tag_name", DataType.STRING)])
        assert engine.query(sql).wait() is not None
