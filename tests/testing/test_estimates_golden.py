"""Per-operator estimates beside actuals, for every query the EXPLAIN golden runs.

For each finished query of ``test_explain_golden``'s workloads (the paper's
three, the warm lookup, the machine join, the index scans and the adaptive
scenarios, the misestimated sort that is swapped to ratings among them),
a line of the HITs and dollars the query was billed beside the HITs and
dollars ``engine.estimate_query_cost`` gives the whole plan, then one line
per plan operator, pre-order and without the results sink: the operator's
name, the rows it emitted and the tasks it created, and the rows and
dollars the estimate gives it, all taken right after the query finished.
The file pins the optimizer's estimates and how execution batched the
tasks they priced: a change that should move neither must leave it
byte-identical.
Regenerate it (only when an estimate is *meant* to move) with::

    PYTHONPATH=src python tests/testing/test_estimates_golden.py
"""

from pathlib import Path

import pytest
import test_explain_golden as explain_golden

GOLDEN = Path(__file__).parent / "golden"


def preorder(node):
    yield node
    for child in node.children:
        yield from preorder(child)


def estimates(engine, handle) -> str:
    """A finished query's bill beside its estimate, then one line per operator."""
    handle.wait()
    total = engine.estimate_query_cost(handle)
    tree = handle.executor.plan_tree
    operators = handle.executor.operator_rows()[1:]
    nodes = list(preorder(tree))
    assert len(nodes) == len(operators)
    billed = handle.stats
    lines = [
        f"-- ran: {handle.sql}",
        f"billed hits={billed.hits_posted} usd={billed.spent:.6f}"
        f"  estimated hits={total.hits:.6f} usd={total.dollars:.6f}",
    ]
    for operator, node in zip(operators, nodes):
        lines.append(
            f"{'  ' * (operator.depth - 1)}{operator.name}"
            f"  rows_out={operator.rows_out} tasks_created={operator.tasks_created}"
            f"  est_rows={node.estimated_rows:.6f} est_usd={node.estimated_cost.dollars:.6f}"
        )
    return "\n".join(lines)


def render(monkeypatch) -> str:
    """Run the EXPLAIN golden's workloads, recording every finished query."""
    parts: list[str] = []
    ran = explain_golden.ran

    def recording_ran(engine, handle):
        parts.append(estimates(engine, handle))
        return ran(engine, handle)

    monkeypatch.setattr(explain_golden, "ran", recording_ran)
    explain_golden.render()
    return "\n\n".join(parts) + "\n"


def test_per_operator_estimates_are_unchanged(monkeypatch):
    assert render(monkeypatch) == (GOLDEN / "estimates.txt").read_text()


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as monkeypatch:
        (GOLDEN / "estimates.txt").write_text(render(monkeypatch))
