"""repro — significance-aware energy-efficient task computing.

A production-quality Python reproduction of *"A Programming Model and
Runtime System for Significance-Aware Energy-Efficient Computing"*
(Vassiliadis et al., PPoPP 2015).

Quickstart (see README.md for the full tour)::

    from repro import Runtime, sig_task, taskwait, TaskCost

    @sig_task(label="work", approxfun=lambda x: x, cost=TaskCost(1e6, 1e5))
    def heavy(x):
        return x * x

    with Runtime(policy="gtb:buffer_size=16", n_workers=16) as rt:
        rt.init_group("work", ratio=0.5)
        for i in range(100):
            heavy(i, significance=(i % 9 + 1) / 10)
        taskwait(label="work")
    print(rt.report.summary())

Batch experiments are declarative::

    import repro

    spec = repro.ExperimentSpec(
        workload="sobel", param=0.5, small=True,
        config=repro.RuntimeConfig(policy="gtb", n_workers=16),
    )
    results = repro.run(spec.sweep(policy=["gtb", "lqh"]))
    print(results.table())

Components (policies, engines, cost models, machine models) live in
:mod:`repro.registry` and are addressable by serializable spec strings
(``"gtb:buffer_size=16"``, ``"threaded"``); register your own with
``@repro.register("policy", "my-policy")``.
"""

from .api import (
    DataRef,
    Runtime,
    TaskCost,
    TaskFunction,
    current_runtime,
    has_runtime,
    ref,
    refs,
    sig_task,
    taskwait,
)
from .config import RuntimeConfig
from .energy import XEON_E5_2650, EnergyReport, MachineModel
from .registry import available, register, resolve
from .runtime import (
    ExecutionKind,
    ReproError,
    RunReport,
    Scheduler,
    Task,
)
from .runtime.policies import (
    GlobalTaskBuffering,
    LocalQueueHistory,
    OraclePolicy,
    SignificanceAgnostic,
    gtb_max_buffer,
)
from . import faults as _faults  # noqa: F401  (registers the faulty engine)
from .experiment import ExperimentResult, ExperimentSpec, ResultSet, run
from .tuning import EnergyBudgetGovernor  # also registers "governor"
from .serve import (  # registers "tenant" + "servable" families
    JobReport,
    JobRequest,
    LocalGateway,
    TaskService,
    TenantSpec,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # programming model
    "Runtime",
    "sig_task",
    "TaskFunction",
    "taskwait",
    "current_runtime",
    "has_runtime",
    "ref",
    "refs",
    "DataRef",
    "TaskCost",
    # configuration / registry front door
    "RuntimeConfig",
    "register",
    "resolve",
    "available",
    # declarative experiments
    "ExperimentSpec",
    "ExperimentResult",
    "ResultSet",
    "run",
    # runtime
    "Scheduler",
    "Task",
    "ExecutionKind",
    "RunReport",
    "ReproError",
    # policies
    "GlobalTaskBuffering",
    "gtb_max_buffer",
    "LocalQueueHistory",
    "SignificanceAgnostic",
    "OraclePolicy",
    # energy
    "MachineModel",
    "XEON_E5_2650",
    "EnergyReport",
    # online control
    "EnergyBudgetGovernor",
    # serving layer
    "TaskService",
    "LocalGateway",
    "JobRequest",
    "JobReport",
    "TenantSpec",
]
