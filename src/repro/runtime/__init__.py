"""Core runtime: tasks, groups, dependences, queues, scheduler,
policies, execution backends and the shared accounting core."""

from .accounting import AccountingCore, build_run_report
from .dependencies import DependenceTracker, DepStats
from .engine import (
    Engine,
    ExecutionBackend,
    SimulatedEngine,
    ThreadedEngine,
)
from .process_engine import ProcessPoolEngine
from .errors import (
    CompilerError,
    CostModelError,
    DependenceError,
    DirectiveSyntaxError,
    EnergyModelError,
    GroupError,
    LoweringError,
    PolicyError,
    RatioError,
    ReproError,
    SchedulerError,
    SignificanceError,
)
from .groups import GLOBAL_GROUP, GroupRecord, GroupRegistry
from .queues import QueueStats, WorkerQueues
from .scheduler import Scheduler
from .stats import GroupSummary, RunReport
from .task import (
    SIGNIFICANCE_LEVELS,
    DataRef,
    ExecutionKind,
    Task,
    TaskCost,
    TaskState,
    quantize_significance,
    ref,
    refs,
)

__all__ = [
    "Scheduler",
    "Task",
    "TaskCost",
    "TaskState",
    "ExecutionKind",
    "DataRef",
    "ref",
    "refs",
    "SIGNIFICANCE_LEVELS",
    "quantize_significance",
    "GroupRecord",
    "GroupRegistry",
    "GLOBAL_GROUP",
    "WorkerQueues",
    "QueueStats",
    "DependenceTracker",
    "DepStats",
    "Engine",
    "ExecutionBackend",
    "SimulatedEngine",
    "ThreadedEngine",
    "ProcessPoolEngine",
    "AccountingCore",
    "build_run_report",
    "RunReport",
    "GroupSummary",
    "ReproError",
    "SignificanceError",
    "RatioError",
    "GroupError",
    "DependenceError",
    "SchedulerError",
    "PolicyError",
    "CostModelError",
    "EnergyModelError",
    "CompilerError",
    "DirectiveSyntaxError",
    "LoweringError",
]
