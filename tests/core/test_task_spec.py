"""Unit tests for TASK specifications."""

import pytest

from repro.core.tasks.spec import (
    ComparisonResponse,
    FormResponse,
    JoinColumnsResponse,
    Parameter,
    RatingResponse,
    ReturnField,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.errors import TaskError


def question_spec(**overrides):
    defaults = dict(
        name="findCEO",
        task_type=TaskType.QUESTION,
        text="Find the CEO for %s",
        response=FormResponse((("CEO", "String"),)),
        parameters=(Parameter("companyName"),),
        returns=(ReturnField("CEO"),),
    )
    defaults.update(overrides)
    return TaskSpec(**defaults)


class TestTaskType:
    def test_from_string_case_insensitive(self):
        assert TaskType.from_string("joinpredicate") is TaskType.JOIN_PREDICATE

    def test_from_string_unknown(self):
        with pytest.raises(TaskError):
            TaskType.from_string("Mystery")


class TestResponses:
    def test_form_requires_fields(self):
        with pytest.raises(TaskError):
            FormResponse(())

    def test_join_columns_sizes_validated(self):
        with pytest.raises(TaskError):
            JoinColumnsResponse("L", "R", left_per_hit=0)

    def test_rating_scale_must_increase(self):
        with pytest.raises(TaskError):
            RatingResponse((5, 5))


class TestTaskSpecValidation:
    def test_defaults_and_default_combiner(self):
        spec = question_spec()
        assert spec.combiner == "FieldwiseMajority"
        assert spec.price == 0.01
        filter_spec = TaskSpec(
            name="f", task_type=TaskType.FILTER, text="?", response=YesNoResponse()
        )
        assert filter_spec.combiner == "MajorityVote"
        assert filter_spec.returns_bool

    def test_response_must_match_task_type(self):
        with pytest.raises(TaskError):
            TaskSpec(name="bad", task_type=TaskType.QUESTION, text="?", response=YesNoResponse())
        with pytest.raises(TaskError):
            TaskSpec(
                name="bad", task_type=TaskType.FILTER, text="?",
                response=FormResponse((("A", "String"),)),
            )

    def test_rank_accepts_comparison_or_rating(self):
        TaskSpec(name="r1", task_type=TaskType.RANK, text="?", response=ComparisonResponse())
        TaskSpec(name="r2", task_type=TaskType.RANK, text="?", response=RatingResponse())

    def test_invalid_tuning_parameters(self):
        with pytest.raises(TaskError):
            question_spec(price=0)
        with pytest.raises(TaskError):
            question_spec(assignments=0)
        with pytest.raises(TaskError):
            question_spec(batch_size=0)
        with pytest.raises(TaskError):
            question_spec(name="")


class TestTaskSpecHelpers:
    def test_render_text_substitution(self):
        spec = question_spec()
        assert spec.render_text("Acme") == "Find the CEO for Acme"

    def test_render_text_arity_mismatch(self):
        with pytest.raises(TaskError):
            question_spec().render_text()
        with pytest.raises(TaskError):
            question_spec(text="no placeholders").render_text("extra")
