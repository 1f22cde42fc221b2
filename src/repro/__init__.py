"""Qurk reproduction: a declarative query processor for human (crowd) operators.

This package reproduces the system described in "Demonstration of Qurk: A
Query Processor for Human Operators" (Marcus, Wu, Karger, Madden, Miller --
SIGMOD 2011) on top of a fully simulated Mechanical Turk substrate.

Quickstart::

    from repro import QurkEngine
    from repro.workloads import CompaniesWorkload

    workload = CompaniesWorkload(n_companies=20)
    engine = QurkEngine()
    workload.install(engine.database)
    engine.register_oracle("findCEO", workload.oracle())
    engine.define_task(workload.findceo_spec())
    rows = engine.run(
        "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
        "FROM companies"
    )
"""

from repro.core.answers import (
    AnswerList,
    FieldwiseMajority,
    First,
    ListAll,
    MajorityVote,
    MeanRating,
    MedianRating,
    get_aggregate,
)
from repro.core.exec.context import QueryConfig
from repro.core.exec.handle import QueryHandle, QueryStatus
from repro.core.exec.scheduler import EngineScheduler, SchedulerEvent
from repro.core.lang.sql_parser import parse_select
from repro.core.lang.task_parser import parse_task, parse_tasks
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
from repro.engine import QurkEngine
from repro.errors import QurkError

__version__ = "1.0.0"

__all__ = [
    "QurkEngine",
    "QueryHandle",
    "QueryStatus",
    "QueryConfig",
    "EngineScheduler",
    "SchedulerEvent",
    "QurkError",
    "TaskSpec",
    "TaskType",
    "FormResponse",
    "YesNoResponse",
    "JoinColumnsResponse",
    "ComparisonResponse",
    "RatingResponse",
    "Parameter",
    "ReturnField",
    "parse_select",
    "parse_task",
    "parse_tasks",
    "AnswerList",
    "MajorityVote",
    "First",
    "ListAll",
    "MeanRating",
    "MedianRating",
    "FieldwiseMajority",
    "get_aggregate",
    "__version__",
]
