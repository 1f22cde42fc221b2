"""The Task Completion Interface (Figure 3, Section 4.2).

In the live demo, audience members complete HITs generated by Qurk through an
MTurk-like web form, and their answers advance the running queries.  This
module reproduces that loop without a browser: it lists the open HITs on the
simulated platform, renders each one's HTML form (or a text transcription of
it), and lets a caller — a human at a REPL, a script, or a test — submit
answers that feed straight back into query execution, exactly like an extra
turker joining the worker pool.
"""

from __future__ import annotations

from typing import Any

from repro.crowd.hit import Assignment, AssignmentStatus, HIT, HITInterface, HITStatus
from repro.crowd.mturk import MTurkSimulator
from repro.crowd.pricing import DEFAULT_PRICING
from repro.errors import HITError

__all__ = ["TaskCompletionInterface"]


class TaskCompletionInterface:
    """Lets an interactive participant complete HITs posted by Qurk."""

    def __init__(self, platform: MTurkSimulator, *, participant_id: str = "audience"):
        self.platform = platform
        self.participant_id = participant_id
        self._manual_counter = 0

    # -- browsing ------------------------------------------------------------------------

    def open_hits(self) -> list[HIT]:
        """HITs still accepting work, oldest first."""
        return sorted(self.platform.open_hits(), key=lambda hit: hit.created_at)

    def render_hit(self, hit_id: str) -> str:
        """The HTML form a worker would see for this HIT (Figure 3)."""
        hit = self.platform.get_hit(hit_id)
        from repro.core.tasks.hit_compiler import HITCompiler

        return HITCompiler().render_html(hit.content)

    def describe_hit(self, hit_id: str) -> str:
        """A plain-text transcription of the HIT, convenient at a REPL."""
        hit = self.platform.get_hit(hit_id)
        content = hit.content
        lines = [
            f"HIT {hit.hit_id} — {content.title} (${hit.reward:.2f}/assignment, "
            f"{len(hit.submitted_assignments)}/{hit.max_assignments} submitted)",
            content.instructions,
        ]
        if content.interface is HITInterface.JOIN_COLUMNS:
            lines.append(f"  {content.left_label}:")
            for item in content.left_items:
                lines.append(f"    [{item.item_id}] {item.payload.get('label', item.prompt)}")
            lines.append(f"  {content.right_label}:")
            for item in content.right_items:
                lines.append(f"    [{item.item_id}] {item.payload.get('label', item.prompt)}")
            lines.append("  answer with: {'matches': [(left_id, right_id), ...]}")
        else:
            for item in content.items:
                lines.append(f"  [{item.item_id}] {item.prompt}")
            if content.interface is HITInterface.QUESTION_FORM:
                fields = ", ".join(f.name for f in content.fields)
                lines.append(f"  answer each item with a dict of fields: {fields}")
            elif content.interface is HITInterface.RATING:
                low, high = content.rating_scale
                lines.append(f"  answer each item with a number between {low} and {high}")
            elif content.interface is HITInterface.COMPARISON:
                lines.append("  answer each item with 'left' or 'right'")
            else:
                lines.append("  answer each item with True or False")
        return "\n".join(lines)

    # -- completing work ------------------------------------------------------------------------

    def submit_answers(self, hit_id: str, answers: dict[str, Any]) -> Assignment:
        """Submit one assignment's worth of answers for an open HIT.

        The assignment is attributed to the interactive participant and
        processed by the platform exactly like a simulated worker's; the Task
        Manager picks it up and the owning query advances (Section 4.2: "As
        more audience members interact with the demonstration, the query
        workflows they contribute to will advance").
        """
        hit = self.platform.get_hit(hit_id)
        if hit.status is not HITStatus.OPEN:
            raise HITError(f"HIT {hit_id} is no longer accepting work ({hit.status.value})")
        self._validate_answers(hit, answers)
        self._manual_counter += 1
        assignment = Assignment(
            assignment_id=f"manual-{self._manual_counter:04d}",
            hit_id=hit.hit_id,
            worker_id=self.participant_id,
            accepted_at=self.platform.clock.now,
        )
        # Cancel one not-yet-submitted simulated assignment so the audience
        # member takes its place rather than adding extra redundancy.
        for pending in hit.assignments:
            if pending.status is AssignmentStatus.ACCEPTED:
                hit.assignments.remove(pending)
                break
        hit.assignments.append(assignment)
        assignment.submit(answers, at=self.platform.clock.now)
        self.platform.stats.assignments_submitted += 1
        if self.platform.auto_approve:
            assignment.approve()
            self.platform.stats.assignments_approved += 1
            self.platform.stats.total_rewards_paid += hit.reward
            self.platform.stats.total_fees_paid += DEFAULT_PRICING.fee(hit.reward)
        if hit.is_fully_submitted and hit.status is HITStatus.OPEN:
            hit.status = HITStatus.COMPLETED
        for listener in self.platform._completion_listeners:
            listener(hit, assignment)
        return assignment

    def _validate_answers(self, hit: HIT, answers: dict[str, Any]) -> None:
        content = hit.content
        if content.interface is HITInterface.JOIN_COLUMNS:
            if "matches" not in answers or not isinstance(answers["matches"], (list, tuple)):
                raise HITError("JoinColumns answers need a 'matches' list of (left, right) pairs")
            valid_ids = {item.item_id for item in content.items}
            for pair in answers["matches"]:
                left, right = pair
                if left not in valid_ids or right not in valid_ids:
                    raise HITError(f"unknown item id in match pair {pair!r}")
            return
        item_ids = {item.item_id for item in content.items}
        unknown = set(answers) - item_ids
        if unknown:
            raise HITError(f"answers provided for unknown items: {sorted(unknown)}")
        missing = item_ids - set(answers)
        if missing:
            raise HITError(f"answers missing for items: {sorted(missing)}")
