"""Query optimization: statistics, budgets, cost model and plan tuning."""

from repro.core.optimizer.adaptive import AdaptiveReplanner, PlanChange
from repro.core.optimizer.budget import BudgetLedger, QueryBudget
from repro.core.optimizer.statistics import QueryStats, SpecStats, StatisticsManager

__all__ = [
    "AdaptiveReplanner",
    "PlanChange",
    "BudgetLedger",
    "QueryBudget",
    "StatisticsManager",
    "SpecStats",
    "QueryStats",
]
