"""Per-query monetary budgets.

The dashboard "displays the current budget and estimates for total query
cost" (Section 4.1), and the optimizer "must take into account monetary cost"
(Section 2).  The ledger is the single authority on how much each query may
still spend; the Task Manager asks it to authorise every HIT before posting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExceededError

__all__ = ["QueryBudget", "BudgetLedger"]


@dataclass
class QueryBudget:
    """Budget state for one query."""

    query_id: str
    limit: float | None = None
    committed: float = 0.0

    @property
    def remaining(self) -> float | None:
        """Dollars left to commit, or None for unbudgeted queries."""
        if self.limit is None:
            return None
        return max(self.limit - self.committed, 0.0)

    def can_afford(self, amount: float) -> bool:
        """Whether ``amount`` more dollars may be committed."""
        if self.limit is None:
            return True
        return self.committed + amount <= self.limit + 1e-9

    def commit(self, amount: float) -> None:
        """Commit spend (called when a HIT is posted, not when it completes)."""
        self.committed += amount

    def release(self, amount: float) -> None:
        """Return committed-but-unspent dollars (an expired HIT's unfilled slots)."""
        self.committed = max(self.committed - amount, 0.0)


class BudgetLedger:
    """Tracks budgets and committed spend for every registered query."""

    def __init__(self) -> None:
        self._budgets: dict[str, QueryBudget] = {}
        # Optional durability journal (an EngineJournal); every commit and
        # release is a crash point when the engine is durable.
        self._journal = None

    def attach_journal(self, journal) -> None:
        self._journal = journal

    def register(self, query_id: str, limit: float | None) -> QueryBudget:
        """Register a query with an optional dollar budget."""
        budget = QueryBudget(query_id=query_id, limit=limit)
        self._budgets[query_id] = budget
        return budget

    def budget(self, query_id: str) -> QueryBudget:
        """Look up (or lazily create an unlimited) budget for a query."""
        budget = self._budgets.get(query_id)
        if budget is None:
            budget = self._budgets[query_id] = QueryBudget(query_id=query_id)
        return budget

    def authorize(self, query_id: str, amount: float, *, description: str = "") -> None:
        """Commit ``amount`` for a query or raise :class:`BudgetExceededError`."""
        budget = self.budget(query_id)
        if not budget.can_afford(amount):
            raise BudgetExceededError(
                f"query {query_id}: posting {description or 'work'} for ${amount:.2f} would "
                f"exceed the ${budget.limit:.2f} budget (already committed "
                f"${budget.committed:.2f})",
                spent=budget.committed,
                budget=budget.limit or 0.0,
            )
        budget.commit(amount)
        if self._journal is not None:
            self._journal.crash_point("budget_commit")

    def release(self, query_id: str, amount: float) -> None:
        """Give back committed spend that will never be collected.

        A HIT that expires with unfilled assignment slots only pays for the
        submissions it actually received; the difference flows back here so
        fault re-posts do not double-bill the query.  Without this, every
        expiry would permanently consume budget the platform never charged
        and an expiry storm could push a well-budgeted query into
        ``BUDGET_EXCEEDED`` having spent almost nothing.
        """
        self.budget(query_id).release(amount)
        if self._journal is not None:
            self._journal.crash_point("budget_release")

    def would_exceed(self, query_id: str, amount: float) -> bool:
        """Whether committing ``amount`` would exceed the query's budget."""
        return not self.budget(query_id).can_afford(amount)

    def committed(self, query_id: str) -> float:
        """Dollars already committed for a query."""
        return self.budget(query_id).committed

    def remaining(self, query_id: str) -> float | None:
        """Dollars remaining for a query (None when unbudgeted)."""
        return self.budget(query_id).remaining

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "budgets": {
                query_id: {"limit": budget.limit, "committed": budget.committed}
                for query_id, budget in self._budgets.items()
            }
        }

    def load_state_dict(self, state: dict) -> None:
        self._budgets = {
            query_id: QueryBudget(
                query_id=query_id,
                limit=fields["limit"],
                committed=fields["committed"],
            )
            for query_id, fields in state["budgets"].items()
        }
