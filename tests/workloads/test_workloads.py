"""Unit tests for the synthetic workload generators and their oracles."""

import pytest

from repro.crowd.hit import FormField, HITItem
from repro.errors import WorkloadError
from repro.storage import Database
from repro.workloads import (
    CelebrityWorkload,
    CompaniesWorkload,
    CompositeOracle,
    ImageGenerator,
    ProductsWorkload,
    payload_value,
)


class TestImages:
    def test_same_identity_images_are_closer_than_different(self):
        generator = ImageGenerator(noise=0.05, seed=1)
        a1 = generator.image_of(1, image_id="a1")
        a2 = generator.image_of(1, image_id="a2")
        b1 = generator.image_of(2, image_id="b1")
        assert a1.distance(a2) < a1.distance(b1)

    def test_prototypes_are_stable(self):
        generator = ImageGenerator(seed=2)
        assert generator.prototype(3) == generator.prototype(3)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ImageGenerator(dimensions=0)
        with pytest.raises(WorkloadError):
            ImageGenerator(noise=-1)

    def test_distance_requires_same_dimensions(self):
        a = ImageGenerator(dimensions=3, seed=1).image_of(0, image_id="a")
        b = ImageGenerator(dimensions=4, seed=1).image_of(0, image_id="b")
        with pytest.raises(WorkloadError):
            a.distance(b)


class TestPayloadValue:
    def test_lookup_order(self):
        payload = {"name": "top", "row": {"products.name": "nested", "other": 1}}
        assert payload_value(payload, "name") == "top"
        assert payload_value({"row": {"products.name": "nested"}}, "name") == "nested"
        assert payload_value({"celebrities.image": "img"}, "image") == "img"
        assert payload_value({}, "missing", default="d") == "d"


class TestCompaniesWorkload:
    def test_deterministic_and_consistent_with_directory(self):
        a = CompaniesWorkload(n_companies=15, seed=3)
        b = CompaniesWorkload(n_companies=15, seed=3)
        assert [r.name for r in a.records] == [r.name for r in b.records]
        table = a.build_table()
        assert len(table) == 15
        directory = a.directory()
        assert all(row["companyName"] in directory for row in table)

    def test_oracle_answers_and_wrong_answers(self):
        workload = CompaniesWorkload(n_companies=5, seed=4)
        oracle = workload.oracle()
        record = workload.records[0]
        item = HITItem("i", record.name, {"companyName": record.name})
        assert oracle.form_answer(item, FormField("CEO")) == record.ceo
        assert oracle.form_answer(item, FormField("Phone")) == record.phone
        wrong = oracle.plausible_wrong_form_answer(item, FormField("CEO"))
        assert isinstance(wrong, str) and wrong
        with pytest.raises(WorkloadError):
            oracle.form_answer(HITItem("j", "x", {"companyName": "Unknown Co"}), FormField("CEO"))

    def test_score_results(self):
        from repro.storage import Column

        workload = CompaniesWorkload(n_companies=4, seed=5)
        table = workload.build_table()
        rows = [
            row.extended([Column("ceo")], [workload.directory()[row["companyName"]].ceo])
            for row in table
        ]
        assert workload.score_results(rows, company_column="companyName", ceo_column="ceo") == 1.0

    def test_install_registers_table(self):
        database = Database()
        CompaniesWorkload(n_companies=3, seed=6).install(database)
        assert database.catalog.table_names() == ["companies"]

    def test_findceo_spec_matches_paper(self):
        spec = CompaniesWorkload(n_companies=2, seed=1).findceo_spec()
        assert spec.name == "findCEO"
        assert [field.name for field in spec.returns] == ["CEO", "Phone"]
        assert "%s" in spec.text


class TestCelebrityWorkload:
    def test_match_relation_and_cross_product(self):
        workload = CelebrityWorkload(n_celebrities=10, n_spotted=12, match_fraction=0.5, seed=7)
        matches = workload.true_matches()
        assert workload.cross_product_size() == 120
        assert 0 < len(matches) <= 12
        celebs, spotted = workload.build_tables()
        assert len(celebs) == 10 and len(spotted) == 12

    def test_oracle_matches_identity(self):
        workload = CelebrityWorkload(n_celebrities=4, n_spotted=4, match_fraction=1.0, seed=8)
        oracle = workload.oracle()
        celeb_name, celeb_image = workload.celebrity_images[0]
        matching = [img for _sid, img in workload.spotted_images if img.identity == celeb_image.identity]
        left = HITItem("L", celeb_name, {"image": celeb_image})
        if matching:
            right = HITItem("R", "spotted", {"image": matching[0]})
            assert oracle.pair_matches(left, right)
        other = HITItem("R2", "spotted", {"image": workload.celebrity_images[1][1]})
        assert not oracle.pair_matches(left, other)

    def test_prefilter_keeps_true_pairs(self):
        workload = CelebrityWorkload(n_celebrities=8, n_spotted=8, seed=9, feature_noise=0.05)
        prefilter = workload.feature_prefilter(0.6)
        celebs, spotted = workload.build_tables()
        truth = workload.true_matches()
        for celeb_row in celebs:
            for spotted_row in spotted:
                if (celeb_row["name"], spotted_row["id"]) in truth:
                    assert prefilter(celeb_row, spotted_row)

    def test_score_results_on_empty_output(self):
        workload = CelebrityWorkload(n_celebrities=3, n_spotted=3, seed=10)
        score = workload.score_results([])
        assert score["precision"] == 1.0
        assert score["recall"] in (0.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            CelebrityWorkload(n_celebrities=0)
        with pytest.raises(WorkloadError):
            CelebrityWorkload(match_fraction=1.5)
        with pytest.raises(WorkloadError):
            CelebrityWorkload().sameperson_spec(interface="triangles")


class TestProductsWorkload:
    def test_target_fraction_roughly_respected(self):
        workload = ProductsWorkload(n_products=200, target_fraction=0.3, seed=11)
        fraction = len(workload.true_target_names()) / 200
        assert 0.2 < fraction < 0.4

    def test_oracle_judgements(self):
        workload = ProductsWorkload(n_products=10, seed=12)
        oracle = workload.oracle()
        record = workload.records[0]
        item = HITItem("i", record.name, {"name": record.name})
        assert oracle.predicate_answer(item) == (record.color == workload.target_color)
        big, small = sorted(workload.records[:2], key=lambda r: -r.size)
        comparison = HITItem("c", "cmp", {"left": {"name": big.name}, "right": {"name": small.name}})
        assert oracle.comparison_answer(comparison) == "left"
        rating = oracle.rating_answer(HITItem("r", "rate", {"name": record.name}))
        assert 1.0 <= rating <= 7.0

    def test_rank_correlation_bounds(self):
        workload = ProductsWorkload(n_products=10, seed=13)
        order = workload.true_size_order()
        assert workload.rank_correlation(order, order) == pytest.approx(1.0)
        assert workload.rank_correlation(order, list(reversed(order))) == pytest.approx(-1.0)
        assert workload.rank_correlation(order, order[:-1] + ["bogus"]) == 0.0

    def test_filter_accuracy_scoring(self):
        workload = ProductsWorkload(n_products=10, seed=14)
        table = workload.build_table()
        target = workload.true_target_names()
        rows = [row for row in table if row["name"] in target]
        result = workload.filter_accuracy(rows, name_column="name")
        assert result["precision"] == 1.0 and result["recall"] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ProductsWorkload(n_products=0)
        with pytest.raises(WorkloadError):
            ProductsWorkload(target_fraction=0.0)


class TestCompositeOracle:
    def test_dispatch_by_task_tag(self):
        products = ProductsWorkload(n_products=5, seed=15)
        companies = CompaniesWorkload(n_companies=5, seed=15)
        oracle = CompositeOracle(
            {"isTargetColor": products.oracle(), "findCEO": companies.oracle()}
        )
        record = products.records[0]
        item = HITItem("i", record.name, {"_task": "isTargetColor", "name": record.name})
        assert isinstance(oracle.predicate_answer(item), bool)
        company = companies.records[0]
        form_item = HITItem("j", company.name, {"_task": "findCEO", "companyName": company.name})
        assert oracle.form_answer(form_item, FormField("CEO")) == company.ceo

    def test_missing_oracle_raises(self):
        oracle = CompositeOracle({})
        with pytest.raises(WorkloadError):
            oracle.predicate_answer(HITItem("i", "x", {"_task": "unknown"}))

    def test_default_oracle_used_when_untagged(self):
        products = ProductsWorkload(n_products=3, seed=16)
        oracle = CompositeOracle({}, default=products.oracle())
        record = products.records[0]
        assert isinstance(
            oracle.predicate_answer(HITItem("i", record.name, {"name": record.name})), bool
        )
