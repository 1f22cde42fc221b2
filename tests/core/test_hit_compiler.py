"""Unit tests for the HIT compiler (task batches → HIT content / HTML / extraction)."""

import pytest

from repro.core.tasks.hit_compiler import HITCompiler
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
from repro.core.tasks.task import Task, TaskKind
from repro.crowd.hit import Assignment, HITInterface
from repro.errors import TaskCompilationError


def noop(result):
    return None


FINDCEO = TaskSpec(
    name="findCEO",
    task_type=TaskType.QUESTION,
    text="Find the CEO for %s",
    response=FormResponse((("CEO", "String"), ("Phone", "String"))),
    parameters=(Parameter("companyName"),),
    returns=(ReturnField("CEO"), ReturnField("Phone")),
)

ISRED = TaskSpec(name="isRed", task_type=TaskType.FILTER, text="Is %s red?", response=YesNoResponse())

SAMEPERSON = TaskSpec(
    name="samePerson",
    task_type=TaskType.JOIN_PREDICATE,
    text="Match the people",
    response=JoinColumnsResponse("Celebrity", "Spotted Star", left_per_hit=2, right_per_hit=2),
)

COMPARE = TaskSpec(name="bigger", task_type=TaskType.RANK, text="Which is bigger?", response=ComparisonResponse())
RATE = TaskSpec(name="rate", task_type=TaskType.RATING, text="Rate it", response=RatingResponse((1, 5)))


class TestItemisedCompilation:
    def test_question_form_batch(self):
        compiler = HITCompiler()
        tasks = [
            Task(kind=TaskKind.GENERATE, spec=FINDCEO, payload={"args": (name,), "companyName": name}, callback=noop)
            for name in ("Acme", "Globex")
        ]
        compiled = compiler.compile(tasks)
        content = compiled.content
        assert content.interface is HITInterface.QUESTION_FORM
        assert len(content.items) == 2
        assert content.items[0].prompt == "Find the CEO for Acme"
        assert [f.name for f in content.fields] == ["CEO", "Phone"]
        assert compiled.item_to_task["item0"] == tasks[0].task_id
        # The oracle dispatch tag is attached to every item.
        assert content.items[0].payload["_task"] == "findCEO"

    def test_filter_batch_prompts_are_substituted_per_item(self):
        compiler = HITCompiler()
        tasks = [
            Task(kind=TaskKind.FILTER, spec=ISRED, payload={"args": (n,), "row": {"name": n}}, callback=noop)
            for n in ("mug", "lamp", "chair")
        ]
        compiled = compiler.compile(tasks)
        assert compiled.content.interface is HITInterface.BINARY_CHOICE
        assert [item.prompt for item in compiled.content.items] == [
            "Is mug red?", "Is lamp red?", "Is chair red?",
        ]

    def test_mixed_specs_rejected(self):
        compiler = HITCompiler()
        tasks = [
            Task(kind=TaskKind.FILTER, spec=ISRED, payload={"args": ("a",)}, callback=noop),
            Task(kind=TaskKind.GENERATE, spec=FINDCEO, payload={"args": ("b",), "companyName": "b"}, callback=noop),
        ]
        with pytest.raises(TaskCompilationError):
            compiler.compile(tasks)

    def test_empty_batch_rejected(self):
        with pytest.raises(TaskCompilationError):
            HITCompiler().compile([])

    def test_extract_answers_maps_items_back_to_tasks(self):
        compiler = HITCompiler()
        tasks = [
            Task(kind=TaskKind.FILTER, spec=ISRED, payload={"args": (n,)}, callback=noop)
            for n in ("a", "b")
        ]
        compiled = compiler.compile(tasks)
        assignment = Assignment("a1", "h1", "w1", accepted_at=0.0)
        assignment.submit({"item0": True, "item1": False}, at=1.0)
        extracted = compiled.extract_answers(assignment)
        assert extracted[tasks[0].task_id] is True
        assert extracted[tasks[1].task_id] is False

    def test_extract_tolerates_skipped_items(self):
        compiler = HITCompiler()
        tasks = [
            Task(kind=TaskKind.FILTER, spec=ISRED, payload={"args": (n,)}, callback=noop)
            for n in ("a", "b")
        ]
        compiled = compiler.compile(tasks)
        assignment = Assignment("a1", "h1", "w1", accepted_at=0.0)
        assignment.submit({"item0": True}, at=1.0)
        extracted = compiled.extract_answers(assignment)
        assert tasks[1].task_id not in extracted


class TestJoinBlockCompilation:
    def block_task(self):
        return Task(
            kind=TaskKind.JOIN_BLOCK,
            spec=SAMEPERSON,
            payload={
                "left_items": [{"label": "celeb-a"}, {"label": "celeb-b"}],
                "right_items": [{"label": "spot-0"}, {"label": "spot-1"}],
            },
            callback=noop,
        )

    def test_block_compiles_to_two_columns(self):
        compiled = HITCompiler().compile([self.block_task()])
        content = compiled.content
        assert content.interface is HITInterface.JOIN_COLUMNS
        assert len(content.left_items) == 2 and len(content.right_items) == 2
        assert content.left_label == "Celebrity"
        assert compiled.block_positions["L1"] == ("left", 1)

    def test_block_batches_of_more_than_one_rejected(self):
        with pytest.raises(TaskCompilationError):
            HITCompiler().compile([self.block_task(), self.block_task()])

    def test_extract_matches_returns_index_pairs(self):
        compiled = HITCompiler().compile([self.block_task()])
        assignment = Assignment("a1", "h1", "w1", accepted_at=0.0)
        assignment.submit({"matches": [("L0", "R1"), ("L1", "R0"), ("L9", "R0")]}, at=1.0)
        extracted = compiled.extract_answers(assignment)
        (pairs,) = extracted.values()
        assert pairs == [(0, 1), (1, 0)]  # unknown item ids dropped, sorted


class TestHTMLRendering:
    def test_every_interface_renders_a_form(self):
        compiler = HITCompiler()
        cases = [
            [Task(kind=TaskKind.GENERATE, spec=FINDCEO, payload={"args": ("Acme",), "companyName": "Acme"}, callback=noop)],
            [Task(kind=TaskKind.FILTER, spec=ISRED, payload={"args": ("mug",)}, callback=noop)],
            [Task(kind=TaskKind.COMPARE, spec=COMPARE, payload={"left": {}, "right": {}}, callback=noop)],
            [Task(kind=TaskKind.RATE, spec=RATE, payload={"row": {}}, callback=noop)],
            [Task(kind=TaskKind.JOIN_BLOCK, spec=SAMEPERSON,
                  payload={"left_items": [{"label": "x"}], "right_items": [{"label": "y"}]}, callback=noop)],
        ]
        for tasks in cases:
            html = compiler.render_html(compiler.compile(tasks).content)
            assert html.startswith("<form")
            assert "Submit HIT" in html

    def test_html_escapes_user_content(self):
        task = Task(
            kind=TaskKind.FILTER,
            spec=ISRED,
            payload={"args": ("<script>alert(1)</script>",)},
            callback=noop,
        )
        compiler = HITCompiler()
        html = compiler.render_html(compiler.compile([task]).content)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
