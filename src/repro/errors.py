"""Exception hierarchy shared by every Qurk subsystem.

All exceptions raised intentionally by this package derive from
:class:`QurkError` so that callers can distinguish library errors from
programming mistakes (``TypeError``, ``KeyError``, ...).  Subsystems define
narrower subclasses here rather than in their own modules so the hierarchy
can be inspected in one place.
"""

from __future__ import annotations

__all__ = [
    "QurkError",
    "StorageError",
    "SchemaError",
    "CatalogError",
    "TypeCheckError",
    "ExpressionError",
    "WALError",
    "WALCorruptionError",
    "SnapshotError",
    "RecoveryError",
    "CodecError",
    "ParseError",
    "PlanError",
    "ExecutionError",
    "OperatorError",
    "BudgetExceededError",
    "QueryStalledError",
    "QueryDeadlineError",
    "EngineOverloadedError",
    "CrowdError",
    "HITError",
    "AssignmentError",
    "WorkerError",
    "TaskError",
    "TaskCompilationError",
    "AggregateError",
    "WorkloadError",
    "DashboardError",
    "ClusterError",
    "ShardCrashedError",
]


class QurkError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Storage engine
# ---------------------------------------------------------------------------


class StorageError(QurkError):
    """Base class for storage-engine errors."""


class SchemaError(StorageError):
    """A schema definition or schema operation is invalid."""


class CatalogError(StorageError):
    """A table or view could not be found / created / dropped in the catalog."""


class TypeCheckError(StorageError):
    """A value does not conform to the declared column type."""


class ExpressionError(StorageError):
    """An expression could not be evaluated against a row."""


class WALError(StorageError):
    """The write-ahead log was used incorrectly (closed log, bad LSN, ...)."""


class WALCorruptionError(WALError):
    """A WAL record failed its length/CRC/decoding check.

    Raised only when corruption cannot be handled by clean truncation —
    a torn *tail* is expected after a crash and is silently truncated at
    the last valid record boundary instead.
    """


class SnapshotError(StorageError):
    """A snapshot could not be written, or no readable snapshot survives."""


class RecoveryError(StorageError):
    """Snapshot + WAL replay could not reconstruct a consistent engine."""


class CodecError(QurkError):
    """A value the value codec cannot carry, or bytes it cannot decode.

    One error for every boundary a value crosses (shard frames, WAL
    records, snapshots, the answer log); each boundary reports it in its
    own terms.
    """


# ---------------------------------------------------------------------------
# Query language and planning
# ---------------------------------------------------------------------------


class ParseError(QurkError):
    """The SQL or TASK definition text could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PlanError(QurkError):
    """A logical or physical plan could not be constructed."""


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class ExecutionError(QurkError):
    """Query execution failed."""


class OperatorError(ExecutionError):
    """An operator encountered an unrecoverable condition."""


class BudgetExceededError(ExecutionError):
    """Posting further HITs would exceed the query's monetary budget.

    ``query_id`` identifies the offending query so a scheduler driving many
    queries over one shared Task Manager can attribute the failure without
    guessing which query triggered the flush.
    """

    def __init__(self, message: str, spent: float, budget: float, query_id: str = ""):
        super().__init__(message)
        self.spent = spent
        self.budget = budget
        self.query_id = query_id


class QueryStalledError(ExecutionError):
    """A query stopped making progress before producing all of its results."""


class QueryDeadlineError(ExecutionError):
    """A query's deadline elapsed before execution finished.

    Raised from :meth:`QueryHandle.wait` when the query was configured with
    ``degradation="error"``; under ``degradation="partial"`` the query instead
    finishes ``DEGRADED`` with the rows produced so far.

    Attributes
    ----------
    query_id:
        The query whose deadline elapsed.
    deadline:
        The absolute clock time (simulated or wall) the deadline mapped to.
    rows_produced:
        How many result rows had landed when the deadline fired.
    """

    def __init__(
        self, message: str, *, query_id: str = "", deadline: float = 0.0, rows_produced: int = 0
    ) -> None:
        super().__init__(message)
        self.query_id = query_id
        self.deadline = deadline
        self.rows_produced = rows_produced


class EngineOverloadedError(ExecutionError):
    """The engine's pending-admission queue is full and the query was refused.

    Raised either at submission time (the new query is rejected outright) or
    from :meth:`QueryHandle.wait` on a lower-priority query that was shed to
    make room.  ``retry_after`` is the engine's advisory backoff in seconds —
    the cluster front end forwards it as a structured retry-after reply.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0, query_id: str = "") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.query_id = query_id


# ---------------------------------------------------------------------------
# Crowd substrate (simulated Mechanical Turk)
# ---------------------------------------------------------------------------


class CrowdError(QurkError):
    """Base class for errors raised by the simulated crowd platform."""


class HITError(CrowdError):
    """A HIT is malformed or was used in an illegal state transition."""


class AssignmentError(CrowdError):
    """An assignment is malformed or was used in an illegal state transition."""


class WorkerError(CrowdError):
    """A simulated worker was configured or used incorrectly."""


# ---------------------------------------------------------------------------
# Task layer
# ---------------------------------------------------------------------------


class TaskError(QurkError):
    """A task could not be created, batched or routed."""


class TaskCompilationError(TaskError):
    """The HIT compiler could not turn a task batch into a HIT."""


class AggregateError(QurkError):
    """A user-defined aggregate received input it cannot reduce."""


class WorkloadError(QurkError):
    """A synthetic workload generator was configured incorrectly."""


class DashboardError(QurkError):
    """The query status dashboard was asked about an unknown query."""


class ClusterError(QurkError):
    """The shard-per-process cluster runtime hit a protocol or worker fault."""


class ShardCrashedError(ClusterError):
    """A shard worker process died (or stopped responding) mid-operation.

    Attributes
    ----------
    shard_id, pid, exitcode, op:
        Diagnostics for the dead worker: which shard, its process id, the
        exit code reported by the OS (``None`` while undetermined) and the
        cluster operation that was in flight when the death was detected.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: int,
        pid: int | None = None,
        exitcode: int | None = None,
        op: str = "",
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.pid = pid
        self.exitcode = exitcode
        self.op = op
