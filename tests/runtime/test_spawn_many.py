"""Batched spawn: ``Scheduler.spawn_many`` and ``sig_task.map``.

The batch path must be semantically equivalent to a spawn loop (same
decisions, same dependence order, same counters) while crossing each
layer boundary once per batch instead of once per task (the resulting
speedup is gated in ``repro.bench``, not on a test host's clock).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Runtime, sig_task, taskwait
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskCost, TaskState, ref

COST = TaskCost(10_000.0, 1_000.0)


def _val(i):
    return i * 3


def _appr(i):
    return i


class TestSpawnManySemantics:
    def test_results_and_counters(self, scheduler):
        tasks = scheduler.spawn_many(
            _val, [(i,) for i in range(10)], cost=COST
        )
        report = scheduler.finish()
        assert [t.result for t in tasks] == [i * 3 for i in range(10)]
        assert report.tasks_total == 10
        assert report.accurate_tasks == 10
        assert scheduler.deps.stats.tasks == 10
        assert scheduler.deps.stats.roots == 10

    def test_bare_elements_are_wrapped(self, scheduler):
        tasks = scheduler.spawn_many(_val, range(5), cost=COST)
        scheduler.finish()
        assert [t.result for t in tasks] == [0, 3, 6, 9, 12]

    def test_empty_batch(self, scheduler):
        assert scheduler.spawn_many(_val, []) == []
        report = scheduler.finish()
        assert report.tasks_total == 0

    def test_callable_clauses_evaluated_per_element(self, scheduler):
        tasks = scheduler.spawn_many(
            _val,
            [(i,) for i in range(6)],
            significance=lambda i: (i % 3) / 4.0 + 0.1,
            cost=lambda i: TaskCost(1000.0 * (i + 1)),
        )
        assert [t.significance for t in tasks] == pytest.approx(
            [(i % 3) / 4.0 + 0.1 for i in range(6)]
        )
        assert [t.cost.accurate for t in tasks] == [
            1000.0 * (i + 1) for i in range(6)
        ]
        scheduler.finish()

    def test_group_sequence_and_shared_creation_time(self, scheduler):
        scheduler.init_group("g", ratio=1.0)
        tasks = scheduler.spawn_many(
            _val, [(i,) for i in range(5)], label="g", cost=COST
        )
        assert [t.group_seq for t in tasks] == list(range(5))
        assert len({t.t_created for t in tasks}) == 1
        scheduler.finish()

    def test_matches_spawn_loop_decisions(self):
        """Same stream through both paths -> same decision mix."""

        def mix(batched: bool):
            rt = Scheduler(policy="gtb:buffer_size=8", n_workers=4)
            rt.init_group("g", ratio=0.5)
            sig = lambda i: (i % 9 + 1) / 10.0  # noqa: E731
            if batched:
                rt.spawn_many(
                    _val,
                    [(i,) for i in range(40)],
                    significance=sig,
                    approxfun=_appr,
                    label="g",
                    cost=COST,
                )
            else:
                for i in range(40):
                    rt.spawn(
                        _val,
                        i,
                        significance=sig(i),
                        approxfun=_appr,
                        label="g",
                        cost=COST,
                    )
            r = rt.finish()
            return (
                r.accurate_tasks,
                r.approximate_tasks,
                r.dropped_tasks,
            )

        assert mix(True) == mix(False)

    def test_master_charge_matches_loop(self):
        """The batch charges the same total policy overhead."""
        loop = Scheduler(policy="accurate", n_workers=2)
        for i in range(20):
            loop.spawn(_val, i, cost=COST)
        batch = Scheduler(policy="accurate", n_workers=2)
        batch.spawn_many(_val, [(i,) for i in range(20)], cost=COST)
        assert batch.engine.accounting.master_busy == pytest.approx(
            loop.engine.accounting.master_busy
        )
        loop.finish()
        batch.finish()

    def test_dependences_within_batch(self, scheduler):
        data = np.zeros(1)
        log: list = []

        def step(i):
            log.append(i)

        scheduler.spawn_many(
            step,
            [(i,) for i in range(8)],
            out=lambda i: [ref(data)],
            cost=COST,
        )
        scheduler.finish()
        assert log == list(range(8))

    def test_constant_clause_refs_shared(self, scheduler):
        img = np.zeros((4, 4))
        tasks = scheduler.spawn_many(
            _val, [(i,) for i in range(3)], in_=[img], cost=COST
        )
        assert tasks[0].ins == tasks[1].ins == tasks[2].ins
        scheduler.finish()

    def test_pending_tasks_parked_until_release(self, scheduler):
        data = np.zeros(1)
        first = scheduler.spawn(_val, 0, out=[ref(data)], cost=COST)
        batch = scheduler.spawn_many(
            _val, [(1,), (2,)], in_=[data], cost=COST
        )
        assert all(
            t.state in (TaskState.PENDING, TaskState.QUEUED)
            for t in batch
        )
        scheduler.finish()
        assert first.state is TaskState.FINISHED
        assert all(t.state is TaskState.FINISHED for t in batch)

    def test_after_finish_raises(self, scheduler):
        scheduler.finish()
        from repro.runtime.errors import SchedulerError

        with pytest.raises(SchedulerError):
            scheduler.spawn_many(_val, [(1,)])

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_spawn_many_on_real_backends(self, engine):
        rt = Scheduler(policy="accurate", n_workers=2, engine=engine)
        tasks = rt.spawn_many(_val, [(i,) for i in range(12)], cost=COST)
        rt.finish()
        assert [t.result for t in tasks] == [i * 3 for i in range(12)]

    def test_lqh_batch_respects_ratio(self):
        rt = Scheduler(policy="lqh", n_workers=4)
        rt.init_group("g", ratio=0.5)
        rt.spawn_many(
            _val,
            [(i,) for i in range(400)],
            significance=lambda i: (i % 9 + 1) / 10.0,
            approxfun=_appr,
            label="g",
            cost=COST,
        )
        report = rt.finish()
        assert 0.3 < report.accurate_tasks / 400 < 0.7


class TestSigTaskMap:
    def test_map_without_runtime_runs_bodies(self):
        @sig_task(label="m")
        def body(i):
            return i + 100

        assert body.map(range(3)) == [100, 101, 102]

    def test_map_spawns_through_batch_path(self):
        @sig_task(
            label="m",
            significance=lambda i: (i % 9 + 1) / 10.0,
            cost=COST,
        )
        def body(i):
            return i * 2

        with Runtime(policy="accurate", n_workers=2) as rt:
            tasks = body.map(range(10))
            taskwait(label="m")
        assert [t.result for t in tasks] == [i * 2 for i in range(10)]
        assert rt.report.tasks_total == 10

    def test_clause_callables_see_shared_kwargs(self):
        """Clause callables get kwargs, matching single-call clauses."""

        @sig_task(
            label="m",
            significance=lambda i, b=0: (i + b) / 10.0,
            cost=COST,
        )
        def body(i, b=0):
            return i + b

        with Runtime(policy="accurate", n_workers=2):
            tasks = body.map([(1,)], b=2)
        assert tasks[0].significance == pytest.approx(0.3)
        assert tasks[0].result == 3
        # A clause lambda with a *required* kwarg-supplied parameter
        # must also work, exactly as it does for single calls.

        @sig_task(significance=lambda i, b: (i + b) / 10.0, cost=COST)
        def body2(i, b):
            return i * b

        with Runtime(policy="accurate", n_workers=2):
            tasks2 = body2.map([(2,)], b=3)
        assert tasks2[0].significance == pytest.approx(0.5)
        assert tasks2[0].result == 6

    def test_map_clause_overrides_and_kwargs(self):
        @sig_task(label="m", cost=COST)
        def body(i, offset=0):
            return i + offset

        with Runtime(policy="accurate", n_workers=2) as rt:
            tasks = body.map(range(4), label="other", offset=5)
        assert [t.result for t in tasks] == [5, 6, 7, 8]
        assert all(t.group == "other" for t in tasks)
        assert rt.report.groups.keys() == {"other"}


class TestSpawnManyThroughput:
    def test_batch_beats_loop(self):
        """Structurally, not on the clock: a batch of n tasks crosses
        each layer boundary once where the loop crosses it n times.
        (The speed bar itself is gated by ``spawn_many.speedup_vs_loop``
        in ``repro.bench``.)"""
        n = 50
        cost = TaskCost(2000.0)
        layers = {
            "policy": ("on_spawn", "on_spawn_many"),
            "deps": ("register", "register_many"),
            "engine": ("enqueue", "enqueue_many"),
        }

        def counted(drive):
            rt = Scheduler(policy="accurate", n_workers=16)
            calls = dict.fromkeys(
                (name for pair in layers.values() for name in pair), 0
            )

            def spy(owner, name):
                inner = getattr(owner, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return inner(*args, **kwargs)

                setattr(owner, name, wrapper)

            for owner, names in layers.items():
                for name in names:
                    spy(getattr(rt, owner), name)
            # Distinct output cells: every task carries a clause (so the
            # dependence tracker is really consulted) yet none waits.
            cells = [object() for _ in range(n)]
            drive(rt, cells)
            assert rt.finish().tasks_total == n
            return calls

        def loop(rt, cells):
            for i in range(n):
                rt.spawn(_val, i, out=(cells[i],), cost=cost)

        def batch(rt, cells):
            rt.spawn_many(
                _val,
                [(i,) for i in range(n)],
                out=lambda i: (cells[i],),
                cost=cost,
            )

        looped = counted(loop)
        batched = counted(batch)
        for single, many in layers.values():
            assert (looped[single], looped[many]) == (n, 0)
            assert batched[many] == 1
