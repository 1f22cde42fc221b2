"""Integration tests: the whole system driven through the QurkEngine facade.

These exercise the paper's two demo queries end to end (parser → optimizer →
executor → task manager → HIT compiler → simulated MTurk → results table),
plus the cross-query caching, budgets, polling, the dashboard and the task
completion interface.
"""

import pytest

from repro import QueryConfig, QueryStatus, QurkEngine
from repro.core.exec.handle import QueryHandle
from repro.dashboard import QueryDashboard
from repro.errors import CatalogError
from repro.experiments import QUERY1_SQL, QUERY2_SQL
from repro.ui import TaskCompletionInterface
from repro.workloads import CelebrityWorkload, CompaniesWorkload, ProductsWorkload


@pytest.fixture
def companies_engine():
    workload = CompaniesWorkload(n_companies=10, seed=5)
    engine = QurkEngine(seed=5)
    workload.install(engine.database)
    engine.register_oracle("findCEO", workload.oracle())
    engine.define_task(workload.findceo_spec())
    return engine, workload


@pytest.fixture
def celebrity_engine():
    workload = CelebrityWorkload(n_celebrities=8, n_spotted=8, seed=6)
    engine = QurkEngine(seed=6, default_query_config=QueryConfig(adaptive=False))
    workload.install(engine.database)
    engine.register_oracle("samePerson", workload.oracle())
    engine.define_task(
        workload.sameperson_spec(assignments=5),
        left_payload=workload.left_payload,
        right_payload=workload.right_payload,
    )
    return engine, workload


class TestQuery1:
    def test_schema_extension_query(self, companies_engine):
        engine, workload = companies_engine
        handle = engine.query(QUERY1_SQL)
        rows = handle.wait()
        assert handle.status is QueryStatus.COMPLETED
        assert len(rows) == 10
        assert rows[0].schema.names == ("companyName", "findCEO.CEO", "findCEO.Phone")
        accuracy = workload.score_results(
            rows, company_column="companyName", ceo_column="findCEO.CEO"
        )
        assert accuracy >= 0.9
        assert handle.total_cost > 0

    def test_rerunning_the_query_is_free_thanks_to_the_cache(self, companies_engine):
        engine, _workload = companies_engine
        first = engine.query(QUERY1_SQL)
        first.wait()
        second = engine.query("SELECT companyName, findCEO(companyName).CEO FROM companies")
        second.wait()
        assert second.total_cost == 0.0
        assert second.stats.cache_hits == 10
        assert second.stats.dollars_saved_cache > 0

    def test_polling_interface_sees_results_incrementally(self, companies_engine):
        engine, _workload = companies_engine
        handle = engine.query(QUERY1_SQL)
        seen = 0
        for _ in range(100_000):
            seen += len(handle.poll())
            if not handle.step():
                break
        seen += len(handle.poll())
        assert seen == 10
        assert handle.poll() == []


class TestQuery2:
    def test_celebrity_join(self, celebrity_engine):
        engine, workload = celebrity_engine
        handle = engine.query(QUERY2_SQL)
        rows = handle.wait()
        score = workload.score_results(rows)
        assert score["precision"] >= 0.9
        assert score["recall"] >= 0.9
        # The two-column interface needs far fewer HITs than the cross product.
        assert handle.stats.hits_posted < workload.cross_product_size()

    def test_budget_stops_an_expensive_query(self, celebrity_engine):
        engine, _workload = celebrity_engine
        handle = engine.query(QUERY2_SQL, budget=0.05)
        handle.wait()
        assert handle.status is QueryStatus.BUDGET_EXCEEDED
        assert handle.error is not None
        assert handle.stats.spent <= 0.05 + 1e-9

    def test_budget_from_sql_clause(self, celebrity_engine):
        engine, _workload = celebrity_engine
        handle = engine.query(QUERY2_SQL + " BUDGET 0.05")
        handle.wait()
        assert handle.status is QueryStatus.BUDGET_EXCEEDED


class TestMixedQueries:
    def test_filter_sort_limit_pipeline(self):
        workload = ProductsWorkload(n_products=18, seed=7)
        engine = QurkEngine(seed=7)
        workload.install(engine.database)
        oracle = workload.oracle()
        engine.register_oracle("isTargetColor", oracle)
        engine.register_oracle("rateSize", oracle)
        engine.define_task(workload.color_filter_spec())
        engine.define_task(
            workload.size_rating_spec(batch_size=5), payload=lambda row: {"name": row["name"]}
        )
        handle = engine.query(
            "SELECT name, price FROM products "
            "WHERE isTargetColor(name) AND price < 1000 "
            "ORDER BY rateSize(name) LIMIT 4"
        )
        rows = handle.wait()
        assert 0 < len(rows) <= 4
        reported = {row["name"] for row in rows}
        assert reported <= workload.true_target_names()

    def test_group_by_runs_locally_without_crowd_cost(self):
        workload = ProductsWorkload(n_products=18, seed=8)
        engine = QurkEngine(seed=8)
        workload.install(engine.database)
        handle = engine.query("SELECT category, count(name) AS n FROM products GROUP BY category")
        rows = handle.wait()
        assert sum(row["n"] for row in rows) == 18
        assert handle.total_cost == 0.0

    def test_unknown_table_raises(self):
        engine = QurkEngine()
        with pytest.raises(CatalogError):
            engine.query("SELECT a FROM missing")

    def test_engine_create_table_and_rows(self):
        engine = QurkEngine()
        engine.create_table("notes", ["id", "text"], rows=[[1, "a"], [2, "b"]])
        rows = engine.run("SELECT id, text FROM notes")
        assert len(rows) == 2

    def test_queries_get_distinct_ids_and_handles_are_tracked(self, companies_engine):
        engine, _workload = companies_engine
        first = engine.query(QUERY1_SQL)
        second = engine.query(QUERY1_SQL)
        assert first.query_id != second.query_id
        assert set(engine.queries) >= {first.query_id, second.query_id}
        assert isinstance(engine.queries[first.query_id], QueryHandle)


class TestBatchSize:
    def test_a_redefined_batch_size_is_the_one_the_next_query_posts(self):
        """After a TASK is redefined, its next query batches as costing prices it."""
        sql = "SELECT name FROM products WHERE isTargetColor(name)"
        workload = ProductsWorkload(n_products=12, seed=42)
        engine = QurkEngine(seed=42)
        workload.install(engine.database)
        engine.register_oracle("isTargetColor", workload.oracle())
        engine.define_task(workload.color_filter_spec(batch_size=4), learnable=False)
        first = engine.query(sql)
        first.wait()
        assert first.stats.hits_posted == engine.estimate_query_cost(first).hits == 3
        engine.task_cache.enabled = False  # every product goes back to the crowd
        engine.define_task(workload.color_filter_spec(batch_size=1), learnable=False)
        second = engine.query(sql)
        second.wait()
        assert second.stats.tasks_submitted == 12
        assert second.stats.hits_posted == engine.estimate_query_cost(second).hits == 12


class TestAdaptiveRedundancy:
    def test_adaptive_queries_use_fewer_assignments_with_reliable_workers(self):
        from repro.crowd import PopulationMix

        workload = CompaniesWorkload(n_companies=12, seed=9)
        engine = QurkEngine(
            seed=9,
            population_mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0),
            default_query_config=QueryConfig(adaptive=True),
        )
        workload.install(engine.database)
        engine.register_oracle("findCEO", workload.oracle())
        engine.define_task(workload.findceo_spec(assignments=5))
        warmup = engine.query(QUERY1_SQL)
        warmup.wait()
        # After observing near-perfect agreement the optimizer should drop to 1 assignment.
        assert engine.optimizer.choose_assignments(engine.registry.require("findCEO").spec) == 1


class TestDashboardAndTaskInterface:
    def test_dashboard_reports_budget_cost_and_savings(self, companies_engine):
        engine, _workload = companies_engine
        handle = engine.query(QUERY1_SQL, budget=5.0)
        handle.wait()
        dashboard = QueryDashboard(engine)
        snapshot = dashboard.snapshot(handle.query_id)
        assert snapshot.budget == pytest.approx(5.0)
        assert snapshot.spent > 0
        assert snapshot.hits_posted == handle.stats.hits_posted
        text = dashboard.render(handle.query_id)
        assert "budget" in text and "savings" in text and "plan:" in text
        assert handle.query_id in dashboard.render_all()

    def test_dashboard_unknown_query(self, companies_engine):
        engine, _workload = companies_engine
        from repro.errors import DashboardError

        with pytest.raises(DashboardError):
            QueryDashboard(engine).snapshot("nope")

    def test_audience_member_can_complete_a_hit(self, companies_engine):
        engine, workload = companies_engine
        handle = engine.query(QUERY1_SQL)
        # Step just far enough for HITs to be posted but not completed.
        while not engine.platform.open_hits():
            handle.step()
        interface = TaskCompletionInterface(engine.platform, participant_id="audience-1")
        open_hits = interface.open_hits()
        assert open_hits
        hit = open_hits[0]
        description = interface.describe_hit(hit.hit_id)
        assert "CEO" in description
        html = interface.render_hit(hit.hit_id)
        assert html.startswith("<form")
        directory = workload.directory()
        answers = {}
        for item in hit.content.items:
            company = item.payload.get("companyName")
            record = directory[company]
            answers[item.item_id] = {"CEO": record.ceo, "Phone": record.phone}
        assignment = interface.submit_answers(hit.hit_id, answers)
        assert assignment.worker_id == "audience-1"
        rows = handle.wait()
        assert len(rows) == 10
