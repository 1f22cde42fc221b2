"""Ground-truth oracles consulted by simulated workers.

Real turkers answer HITs using knowledge of the world (what a celebrity looks
like, who a company's CEO is).  In the simulation, that knowledge lives in an
:class:`AnswerOracle` built by the workload generator.  Workers ask the oracle
for the *true* answer and then perturb it according to their behaviour model;
the Qurk query processor itself never sees the oracle, so the separation of
concerns matches the real system.
"""

from __future__ import annotations

from repro.crowd.hit import FormField, HITItem
from repro.errors import WorkerError

__all__ = ["AnswerOracle"]


class AnswerOracle:
    """Interface workloads implement to give simulated workers world knowledge.

    Only the methods relevant to the workload's HIT interfaces need to be
    overridden; the defaults raise so that a misconfigured experiment fails
    loudly instead of producing silently meaningless answers.
    """

    def form_answer(self, item: HITItem, field: FormField) -> str:
        """True value of ``field`` for a QUESTION_FORM item."""
        raise WorkerError(f"oracle cannot answer form field {field.name!r}")

    def predicate_answer(self, item: HITItem) -> bool:
        """True yes/no answer for a BINARY_CHOICE or JOIN_PAIRS item."""
        raise WorkerError(f"oracle cannot answer predicate item {item.item_id!r}")

    def pair_matches(self, left: HITItem, right: HITItem) -> bool:
        """Whether a left/right pair matches in a JOIN_COLUMNS interface."""
        raise WorkerError("oracle cannot answer join-column matches")

    def comparison_answer(self, item: HITItem) -> str:
        """Which side ('left' or 'right') ranks higher for a COMPARISON item."""
        raise WorkerError(f"oracle cannot answer comparison item {item.item_id!r}")

    def rating_answer(self, item: HITItem) -> float:
        """True numeric rating for a RATING item."""
        raise WorkerError(f"oracle cannot answer rating item {item.item_id!r}")

    def plausible_wrong_form_answer(self, item: HITItem, field: FormField) -> str:
        """A wrong-but-plausible value a careless worker might type."""
        return "unknown"
