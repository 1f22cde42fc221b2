"""The HIT Compiler (Figure 1).

"The HIT Compiler generates the HTML form that a turker will fill out when
they accept the HIT (along with MTurk-specific information), and sends it to
MTurk."  This module turns a batch of :class:`~repro.core.tasks.task.Task`
objects (all sharing one :class:`~repro.core.tasks.spec.TaskSpec`) into:

* a :class:`~repro.crowd.hit.HITContent` understood by the simulated platform
  and its workers,
* the HTML form a real turker would see (also rendered by the demo's Task
  Completion Interface, Figure 3), and
* an extraction map used to pull each task's per-assignment answer back out
  of a submitted :class:`~repro.crowd.hit.Assignment`.
"""

from __future__ import annotations

import html as html_module
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.crowd.quality import GoldQuestion
from repro.core.tasks.spec import (
    ComparisonResponse,
    FormResponse,
    JoinColumnsResponse,
    RatingResponse,
    TaskSpec,
    YesNoResponse,
)
from repro.core.tasks.task import Task, TaskKind
from repro.crowd.hit import Assignment, FormField, HITContent, HITInterface, HITItem
from repro.errors import TaskCompilationError

__all__ = ["CompiledHIT", "HITCompiler"]


@dataclass
class CompiledHIT:
    """A HIT ready to post, plus the bookkeeping needed to interpret answers."""

    content: HITContent
    tasks: tuple[Task, ...]
    #: item id -> task id, for per-item interfaces.
    item_to_task: dict[str, str] = field(default_factory=dict)
    #: JOIN_BLOCK only: item id -> ("left"|"right", index into the block lists).
    block_positions: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: Gold-standard probe items riding along: item id -> expected answer.
    #: Probes are invisible to answer extraction (no task maps to them); the
    #: Task Manager scores them against each assignment to update worker
    #: reputations.
    gold_items: dict[str, GoldQuestion] = field(default_factory=dict)

    def query_ids(self) -> tuple[str, ...]:
        """Distinct query ids contributing tasks, in first-contribution order.

        A HIT compiled under cross-query batching may carry tasks from
        several concurrent queries; answer extraction and cost attribution
        both route through each task's own ``query_id``.
        """
        seen: dict[str, None] = {}
        for task in self.tasks:
            if task.query_id:
                seen.setdefault(task.query_id, None)
        return tuple(seen)

    def extract_answers(self, assignment: Assignment) -> dict[str, Any]:
        """Return ``{task id: this worker's answer}`` for one assignment.

        For JOIN_BLOCK HITs the single task's answer is the list of matched
        ``(left index, right index)`` pairs reported by the worker.
        """
        interface = self.content.interface
        if interface is HITInterface.JOIN_COLUMNS:
            (task,) = self.tasks
            matches = assignment.answers.get("matches", [])
            pairs = []
            for left_id, right_id in matches:
                left = self.block_positions.get(left_id)
                right = self.block_positions.get(right_id)
                if left is None or right is None:
                    continue
                pairs.append((left[1], right[1]))
            return {task.task_id: sorted(set(pairs))}
        extracted: dict[str, Any] = {}
        for item_id, task_id in self.item_to_task.items():
            if item_id in assignment.answers:
                extracted[task_id] = assignment.answers[item_id]
        return extracted


_KIND_TO_INTERFACE = {
    TaskKind.GENERATE: HITInterface.QUESTION_FORM,
    TaskKind.FILTER: HITInterface.BINARY_CHOICE,
    TaskKind.JOIN_PAIR: HITInterface.JOIN_PAIRS,
    TaskKind.JOIN_BLOCK: HITInterface.JOIN_COLUMNS,
    TaskKind.COMPARE: HITInterface.COMPARISON,
    TaskKind.RATE: HITInterface.RATING,
}


class HITCompiler:
    """Compiles batches of tasks into HITs."""

    def compile(
        self,
        tasks: list[Task],
        *,
        gold: Sequence[GoldQuestion] = (),
        gold_position: int | None = None,
    ) -> CompiledHIT:
        """Compile a batch of same-spec, same-kind tasks into one HIT.

        ``gold`` — optional gold-standard probe questions mixed into the
        HIT's items (itemised interfaces only; JOIN_BLOCK HITs carry none).
        Workers cannot distinguish probes from real items; the Task Manager
        scores their probe answers against the known truth.
        ``gold_position`` — index among the real items where the probes are
        inserted (None appends).  Callers should vary it (seeded): a probe
        always parked at the end would grade fatigue-prone workers at their
        worst position and bias reputations downward.
        """
        if not tasks:
            raise TaskCompilationError("cannot compile an empty task batch")
        spec = tasks[0].spec
        kind = tasks[0].kind
        if any(t.spec.name != spec.name or t.kind is not kind for t in tasks):
            raise TaskCompilationError("a HIT batch must share one task spec and kind")
        if kind is TaskKind.JOIN_BLOCK and len(tasks) != 1:
            raise TaskCompilationError("JOIN_BLOCK tasks compile one block per HIT")

        if kind is TaskKind.JOIN_BLOCK:
            compiled = self._compile_join_block(tasks[0], spec)
        else:
            compiled = self._compile_itemised(tasks, spec, kind, gold, gold_position)
        return compiled

    # -- per-kind compilation ---------------------------------------------------

    def _compile_itemised(
        self,
        tasks: list[Task],
        spec: TaskSpec,
        kind: TaskKind,
        gold: Sequence[GoldQuestion] = (),
        gold_position: int | None = None,
    ) -> CompiledHIT:
        items: list[HITItem] = []
        item_to_task: dict[str, str] = {}
        for position, task in enumerate(tasks):
            item_id = f"item{position}"
            prompt = spec.render_text(*task.payload.get("args", ()))
            items.append(HITItem(item_id, prompt, payload=self._item_payload(task)))
            item_to_task[item_id] = task.task_id
        gold_items: dict[str, GoldQuestion] = {}
        insert_at = len(items) if gold_position is None else min(gold_position, len(items))
        for position, question in enumerate(gold):
            item_id = f"gold{position}"
            payload = dict(question.payload)
            payload.setdefault("_task", spec.name)
            items.insert(insert_at + position, HITItem(item_id, question.prompt, payload=payload))
            gold_items[item_id] = question

        fields: tuple[FormField, ...] = ()
        choices: tuple[str, ...] = ("yes", "no")
        rating_scale = (1, 7)
        response = spec.response
        if isinstance(response, FormResponse):
            fields = tuple(FormField(name, type_name) for name, type_name in response.fields)
        elif isinstance(response, YesNoResponse):
            choices = (response.yes_label, response.no_label)
        elif isinstance(response, RatingResponse):
            rating_scale = response.scale
        elif isinstance(response, ComparisonResponse):
            pass
        elif isinstance(response, JoinColumnsResponse) and kind is TaskKind.JOIN_PAIR:
            # Pairwise use of a JoinColumns task degenerates to yes/no questions.
            pass

        content = HITContent(
            interface=_KIND_TO_INTERFACE[kind],
            title=self._title(spec),
            instructions=self._instructions(spec),
            items=tuple(items),
            fields=fields,
            choices=choices,
            rating_scale=rating_scale,
        )
        return CompiledHIT(
            content=content,
            tasks=tuple(tasks),
            item_to_task=item_to_task,
            gold_items=gold_items,
        )

    def _compile_join_block(self, task: Task, spec: TaskSpec) -> CompiledHIT:
        response = spec.response
        if not isinstance(response, JoinColumnsResponse):
            raise TaskCompilationError(
                f"TASK {spec.name}: JOIN_BLOCK tasks need a JoinColumns response"
            )
        items: list[HITItem] = []
        block_positions: dict[str, tuple[str, int]] = {}
        for index, payload in enumerate(task.payload["left_items"]):
            item_id = f"L{index}"
            item_payload = {"_task": spec.name, **payload}
            items.append(
                HITItem(item_id, response.left_label, payload=item_payload, group="left")
            )
            block_positions[item_id] = ("left", index)
        for index, payload in enumerate(task.payload["right_items"]):
            item_id = f"R{index}"
            item_payload = {"_task": spec.name, **payload}
            items.append(
                HITItem(item_id, response.right_label, payload=item_payload, group="right")
            )
            block_positions[item_id] = ("right", index)
        content = HITContent(
            interface=HITInterface.JOIN_COLUMNS,
            title=self._title(spec),
            instructions=self._instructions(spec),
            items=tuple(items),
            left_label=response.left_label,
            right_label=response.right_label,
        )
        return CompiledHIT(
            content=content,
            tasks=(task,),
            block_positions=block_positions,
        )

    def _item_payload(self, task: Task) -> dict[str, Any]:
        payload = dict(task.payload)
        payload.pop("args", None)
        # Tag every item with the task name so oracles serving several task
        # types (one experiment often runs Query 1 and Query 2 side by side)
        # can dispatch on it.
        payload.setdefault("_task", task.spec.name)
        return payload

    def _title(self, spec: TaskSpec) -> str:
        return f"{spec.name} ({spec.task_type.value})"

    def _instructions(self, spec: TaskSpec) -> str:
        # Batched HITs show the un-substituted template as general guidance;
        # the per-item prompt carries the substituted question.
        return spec.text.replace("%s", "the item shown")

    # -- HTML rendering -----------------------------------------------------------

    def render_html(self, content: HITContent) -> str:
        """Render the HTML form a turker would fill out (Figure 3 style)."""
        parts = [
            "<form class='qurk-hit' method='post'>",
            f"  <h2>{html_module.escape(content.title)}</h2>",
            f"  <p class='instructions'>{html_module.escape(content.instructions)}</p>",
        ]
        renderer = {
            HITInterface.QUESTION_FORM: self._html_form,
            HITInterface.BINARY_CHOICE: self._html_choices,
            HITInterface.JOIN_PAIRS: self._html_choices,
            HITInterface.COMPARISON: self._html_comparison,
            HITInterface.RATING: self._html_rating,
            HITInterface.JOIN_COLUMNS: self._html_join_columns,
        }[content.interface]
        parts.extend(renderer(content))
        parts.append("  <input type='submit' value='Submit HIT'/>")
        parts.append("</form>")
        return "\n".join(parts)

    def _html_form(self, content: HITContent) -> list[str]:
        lines = []
        for item in content.items:
            lines.append(f"  <fieldset><legend>{html_module.escape(item.prompt)}</legend>")
            for form_field in content.fields:
                name = f"{item.item_id}.{form_field.name}"
                lines.append(
                    f"    <label>{html_module.escape(form_field.name)}: "
                    f"<input type='text' name='{html_module.escape(name)}'/></label>"
                )
            lines.append("  </fieldset>")
        return lines

    def _html_choices(self, content: HITContent) -> list[str]:
        yes, no = content.choices[0], content.choices[1]
        lines = []
        for item in content.items:
            lines.append(f"  <fieldset><legend>{html_module.escape(item.prompt)}</legend>")
            for value in (yes, no):
                lines.append(
                    f"    <label><input type='radio' name='{item.item_id}' "
                    f"value='{html_module.escape(value)}'/> {html_module.escape(value)}</label>"
                )
            lines.append("  </fieldset>")
        return lines

    def _html_comparison(self, content: HITContent) -> list[str]:
        lines = []
        for item in content.items:
            lines.append(f"  <fieldset><legend>{html_module.escape(item.prompt)}</legend>")
            for side in ("left", "right"):
                lines.append(
                    f"    <label><input type='radio' name='{item.item_id}' value='{side}'/> "
                    f"{side.title()}</label>"
                )
            lines.append("  </fieldset>")
        return lines

    def _html_rating(self, content: HITContent) -> list[str]:
        low, high = content.rating_scale
        lines = []
        for item in content.items:
            lines.append(f"  <fieldset><legend>{html_module.escape(item.prompt)}</legend>")
            options = "".join(f"<option value='{v}'>{v}</option>" for v in range(low, high + 1))
            lines.append(f"    <select name='{item.item_id}'>{options}</select>")
            lines.append("  </fieldset>")
        return lines

    def _html_join_columns(self, content: HITContent) -> list[str]:
        lines = ["  <table class='join-columns'><tr>"]
        lines.append(f"    <th>{html_module.escape(content.left_label or 'Left')}</th>")
        lines.append(f"    <th>{html_module.escape(content.right_label or 'Right')}</th>")
        lines.append("  </tr><tr><td>")
        for item in content.left_items:
            lines.append(
                f"    <div class='candidate' draggable='true' id='{item.item_id}'>"
                f"{html_module.escape(str(item.payload.get('label', item.item_id)))}</div>"
            )
        lines.append("  </td><td>")
        for item in content.right_items:
            lines.append(
                f"    <div class='drop-target' id='{item.item_id}'>"
                f"{html_module.escape(str(item.payload.get('label', item.item_id)))}</div>"
            )
        lines.append("  </td></tr></table>")
        return lines
