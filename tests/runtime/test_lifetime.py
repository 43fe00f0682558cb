"""A finished run is freed by reference counting.

The policy's and the governor's back-references to their scheduler, and
the engine's callbacks into it, close reference cycles while a run
executes.  ``Scheduler.finish`` cuts them, so a finished scheduler — and
with it every task, argument and trace segment of the run — is released
the moment the caller drops it, without waiting for a cycle-collector
pass.
"""

import gc
import weakref

import pytest

from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskCost

ENGINES = [
    "simulated",
    "sequential",
    "threaded",
    "process",
    "faulty:fault_rate=0.1,seed=3",
]


def _body(i):
    return i * 2


def _approx(i):
    return i


def _finished_run(engine, governor):
    sched = Scheduler(
        policy="gtb:buffer_size=4",
        engine=engine,
        n_workers=2,
        governor=governor,
    )
    sched.init_group("g", 0.5)
    sched.spawn_many(
        _body,
        [(i,) for i in range(20)],
        significance=lambda i: i / 20,
        approxfun=_approx,
        label="g",
        cost=TaskCost(1e4, 1e3),
    )
    sched.taskwait()
    report = sched.finish()
    assert report.tasks_total == 20
    return weakref.ref(sched)


@pytest.mark.parametrize(
    "governor",
    [None, "governor:budget_j=1.0,interval=0.0001"],
    ids=["plain", "governed"],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_finished_scheduler_needs_no_cycle_collector(engine, governor):
    gc.collect()
    gc.disable()
    try:
        ref = _finished_run(engine, governor)
        assert ref() is None
    finally:
        gc.enable()
