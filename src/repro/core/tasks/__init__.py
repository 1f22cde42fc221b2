"""The task layer: Task Manager, HIT Compiler, Task Cache and Task Model.

The Task Manager is a façade over three parts: the queue (``task_queue``),
the HIT ledger (``ledger``) and the answer reducer (``reducer``).

This package implements the middle boxes of Figure 1 — everything between the
query operators and the (simulated) MTurk platform.
"""

from repro.core.tasks.hit_compiler import CompiledHIT, HITCompiler
from repro.core.tasks.spec import (
    ComparisonResponse,
    FormResponse,
    JoinColumnsResponse,
    Parameter,
    RatingResponse,
    ResponseSpec,
    ReturnField,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.core.tasks.task import ResultSource, Task, TaskKind, TaskResult, new_task_id
from repro.core.tasks.task_cache import CacheEntry, CacheStats, TaskCache
from repro.core.tasks.task_manager import TaskManager, TaskManagerStats
from repro.core.tasks.task_model import (
    LearnedTaskModel,
    ModelStats,
    TaskModel,
    TaskModelRegistry,
)

__all__ = [
    "TaskSpec",
    "TaskType",
    "ResponseSpec",
    "FormResponse",
    "YesNoResponse",
    "JoinColumnsResponse",
    "ComparisonResponse",
    "RatingResponse",
    "Parameter",
    "ReturnField",
    "Task",
    "TaskKind",
    "TaskResult",
    "ResultSource",
    "new_task_id",
    "TaskCache",
    "CacheEntry",
    "CacheStats",
    "TaskModel",
    "LearnedTaskModel",
    "TaskModelRegistry",
    "ModelStats",
    "HITCompiler",
    "CompiledHIT",
    "TaskManager",
    "TaskManagerStats",
]
