"""The compile tier: decision folding, codegen, caching, profiling.

The load-bearing property is *semantic transparency*: a specialized
run must produce bit-identical outputs and identical logical task
counts to the interpreted GTB Max-Buffer run it replaces — the win is
throughput, never answers.
"""

import json
import pickle
import types

import numpy as np
import pytest

from repro.compiler import specialize
from repro.compiler.specialize import (
    KernelSpecializer,
    SpecializationCache,
    SpecializationError,
    SpecializationSpec,
    SpecializedBody,
    clear_profile,
    compile_chunk_body,
    decide_kinds,
    profile_snapshot,
)
from repro.config import RuntimeConfig
from repro.kernels.sobel import (
    sobel_row_cost,
    sobel_row_significance,
    sobel_row_value,
    sobel_row_value_approx,
)
from repro.quality.images import synthetic_image
from repro.runtime.errors import ConfigError
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import ExecutionKind, TaskCost


def _interpreted_kinds(sigs, droppable, ratio):
    """Ground truth: run the real scheduler under gtb-max."""
    rt = Scheduler(RuntimeConfig(policy="gtb-max", n_workers=4))
    rt.init_group("g", ratio)
    tasks = [
        rt.spawn(
            sobel_row_value,
            np.zeros((3, 8), dtype=np.uint8),
            i,
            significance=s,
            approxfun=None if droppable else sobel_row_value_approx,
            label="g",
        )
        for i, s in enumerate(sigs)
    ]
    rt.taskwait(label="g")
    rt.finish()
    return [t.decision for t in tasks]


class TestDecideKinds:
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("droppable", [False, True])
    def test_parity_with_gtb_max(self, ratio, droppable):
        sigs = [((i * 7) % 9 + 1) / 10.0 for i in range(23)]
        kinds = decide_kinds(sigs, droppable, ratio)
        assert kinds == _interpreted_kinds(sigs, droppable, ratio)

    def test_forced_values(self):
        # 1.0 is always accurate (and consumes quota); 0.0 is always
        # denied (and never consumes quota) — exactly the runtime's
        # forced_kind semantics.
        sigs = [1.0, 0.0, 0.5, 0.5]
        kinds = decide_kinds(sigs, False, 0.5)
        assert kinds == _interpreted_kinds(sigs, False, 0.5)
        assert kinds[0] is ExecutionKind.ACCURATE
        assert kinds[1] is ExecutionKind.APPROXIMATE
        kinds_d = decide_kinds(sigs, True, 0.5)
        assert kinds_d[1] is ExecutionKind.DROPPED

    def test_ties_resolve_in_spawn_order(self):
        # Stable sort: equal significance → earlier spawn wins quota.
        sigs = [0.5] * 4
        kinds = decide_kinds(sigs, False, 0.5)
        assert kinds == _interpreted_kinds(sigs, False, 0.5)
        assert kinds[:2] == [ExecutionKind.ACCURATE] * 2
        assert kinds[2:] == [ExecutionKind.APPROXIMATE] * 2


def _double(x):
    """A trivially inlinable body."""
    y = x * 2
    return y


class TestCompileChunkBody:
    def test_inlines_simple_module_function(self):
        loop, inlined = compile_chunk_body(_double, "k")
        assert inlined
        assert loop([(1,), (2,), (3,)], 0) == [2, 4, 6]

    def test_call_fallback_matches(self):
        loop, inlined = compile_chunk_body(
            sobel_row_value, "k", profile=True
        )
        assert not inlined  # profiled loops keep the probed call
        window = synthetic_image(8, 16, 1)[:3]
        [row] = loop([(window, 1)], 0)
        np.testing.assert_array_equal(row, sobel_row_value(window, 1))

    def test_lambda_rejected(self):
        with pytest.raises(SpecializationError, match="importable"):
            SpecializedBody("k", lambda x: x)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="ratio"):
            SpecializationSpec(ratio=1.5)
        with pytest.raises(ConfigError, match="dvfs"):
            SpecializationSpec(dvfs_factor=0.0)

    def test_key_quantizes_like_result_cache(self):
        assert (
            SpecializationSpec(0.701).key == SpecializationSpec(0.7).key
        )
        assert (
            SpecializationSpec(0.7).key != SpecializationSpec(0.6).key
        )


def _specializer(**kw):
    return KernelSpecializer(**kw)


def _sobel_args(size=34, seed=0):
    img = synthetic_image(size, size, seed)
    return img, [(img[i - 1 : i + 2], i) for i in range(1, size - 1)]


class TestSpecializedPlan:
    def test_counts_and_gather(self):
        sp = _specializer()
        img, args_list = _sobel_args()
        plan = sp.specialize(
            "sobel",
            sobel_row_value,
            args_list,
            significance=lambda w, i: sobel_row_significance(i),
            approxfun=sobel_row_value_approx,
            cost=sobel_row_cost(img.shape[1]),
            ratio=0.5,
            n_chunks=4,
        )
        n = len(args_list)
        assert plan.n_tasks == n
        assert plan.accurate + plan.approximate == n
        assert plan.dropped == 0  # approxfun present: A mode
        assert plan.n_chunks <= 8  # at most 4 per kind
        assert plan.work_acc > plan.work_apx > 0.0
        # Execute the chunks directly and scatter back.
        results = []
        for batch in plan.batches:
            for members, cid in batch.args_list:
                results.append(batch.body(members, cid))
        rows = plan.gather(results)
        for (window, i), row, kind in zip(args_list, rows, plan.kinds):
            expect = (
                sobel_row_value(window, i)
                if kind is ExecutionKind.ACCURATE
                else sobel_row_value_approx(window, i)
            )
            np.testing.assert_array_equal(row, expect)

    def test_dropped_elements_gather_none(self):
        sp = _specializer()
        _, args_list = _sobel_args()
        plan = sp.specialize(
            "sobel",
            sobel_row_value,
            args_list,
            significance=lambda w, i: sobel_row_significance(i),
            approxfun=None,  # D mode
            ratio=0.25,
            n_chunks=4,
        )
        assert plan.dropped > 0
        results = [
            batch.body(members, cid)
            for batch in plan.batches
            for members, cid in batch.args_list
        ]
        rows = plan.gather(results)
        for row, kind in zip(rows, plan.kinds):
            assert (row is None) == (kind is ExecutionKind.DROPPED)

    def test_gather_arity_checked(self):
        sp = _specializer()
        _, args_list = _sobel_args(10)
        plan = sp.specialize(
            "sobel", sobel_row_value, args_list, ratio=1.0, n_chunks=2
        )
        with pytest.raises(SpecializationError, match="chunk results"):
            plan.gather([])

    def test_chunk_costs_sum_member_work(self):
        sp = _specializer()
        img, args_list = _sobel_args()
        cost = sobel_row_cost(img.shape[1])
        plan = sp.specialize(
            "sobel",
            sobel_row_value,
            args_list,
            significance=lambda w, i: sobel_row_significance(i),
            approxfun=sobel_row_value_approx,
            cost=cost,
            ratio=0.5,
            n_chunks=4,
        )
        total = sum(
            batch.costs[cid].accurate
            for batch in plan.batches
            for _, cid in batch.args_list
        )
        expect = (
            plan.accurate * cost.accurate
            + plan.approximate * cost.approximate
        )
        assert total == pytest.approx(expect)

    def test_dvfs_factor_scales_chunk_work(self):
        sp = _specializer()
        _, args_list = _sobel_args(18)
        kw = dict(
            significance=0.9,
            cost=TaskCost(accurate=100.0),
            ratio=1.0,
            n_chunks=2,
        )
        base = sp.specialize(
            "sobel", sobel_row_value, args_list, **kw
        )
        fast = sp.specialize(
            "sobel", sobel_row_value, args_list, dvfs_factor=2.0, **kw
        )
        t_base = sum(
            b.costs[cid].accurate
            for b in base.batches
            for _, cid in b.args_list
        )
        t_fast = sum(
            b.costs[cid].accurate
            for b in fast.batches
            for _, cid in b.args_list
        )
        assert t_fast == pytest.approx(t_base / 2.0)


class TestCache:
    def test_hits_across_specializations(self):
        sp = _specializer()
        _, args_list = _sobel_args(12)
        for _ in range(3):
            sp.specialize(
                "sobel", sobel_row_value, args_list, ratio=1.0
            )
        stats = sp.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 2

    def test_distinct_variants_compile_separately(self):
        sp = _specializer()
        _, args_list = _sobel_args(12)
        sp.specialize(
            "sobel",
            sobel_row_value,
            args_list,
            significance=0.5,
            approxfun=sobel_row_value_approx,
            ratio=0.5,
        )
        assert sp.stats()["compiles"] == 2  # one per variant body

    def test_lru_eviction(self):
        cache = SpecializationCache(capacity=1)
        cache.body("a", sobel_row_value, False)
        cache.body("b", sobel_row_value_approx, False)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_invalidate_by_kernel(self):
        sp = _specializer()
        _, args_list = _sobel_args(12)
        sp.specialize("one", sobel_row_value, args_list, ratio=1.0)
        sp.specialize("two", sobel_row_value, args_list, ratio=1.0)
        assert sp.invalidate("one") == 1
        assert len(sp.cache) == 1
        sp.specialize("one", sobel_row_value, args_list, ratio=1.0)
        assert sp.stats()["compiles"] == 3  # recompiled after eviction

    def test_capacity_validated(self):
        with pytest.raises(ConfigError, match="capacity"):
            SpecializationCache(capacity=0)


class TestPickle:
    def test_body_roundtrip_reuses_compiled_loop(self):
        body = SpecializedBody("k", sobel_row_value)
        clone = pickle.loads(pickle.dumps(body))
        window = synthetic_image(8, 12, 0)[:3]
        np.testing.assert_array_equal(
            clone([(window, 1)], 0)[0], body([(window, 1)], 0)[0]
        )
        # A second unpickle hits the process-local rebuild cache.
        assert pickle.loads(pickle.dumps(body)) is clone

    def test_process_engine_executes_specialized_chunks(self):
        cfg = RuntimeConfig(
            policy="gtb-max",
            n_workers=2,
            engine="process",
            compile="specialize",
        )
        rt = Scheduler(cfg)
        img, args_list = _sobel_args(18)
        plan = rt.specializer.specialize(
            "sobel",
            sobel_row_value,
            args_list,
            significance=lambda w, i: sobel_row_significance(i),
            approxfun=sobel_row_value_approx,
            cost=sobel_row_cost(img.shape[1]),
            ratio=0.5,
            n_chunks=2,
        )
        rt.init_group("g", 0.5)
        tasks = rt.spawn_specialized(plan, label="g")
        rt.taskwait(label="g")
        rt.finish()
        rows = plan.gather([t.result for t in tasks])
        for (window, i), row, kind in zip(args_list, rows, plan.kinds):
            expect = (
                sobel_row_value(window, i)
                if kind is ExecutionKind.ACCURATE
                else sobel_row_value_approx(window, i)
            )
            np.testing.assert_array_equal(row, expect)


class TestSchedulerIntegration:
    def _interpreted(self, img, ratio):
        rt = Scheduler(RuntimeConfig(policy="gtb-max", n_workers=4))
        rt.init_group("g", ratio)
        tasks = [
            rt.spawn(
                sobel_row_value,
                img[i - 1 : i + 2],
                i,
                significance=sobel_row_significance(i),
                approxfun=sobel_row_value_approx,
                label="g",
                cost=sobel_row_cost(img.shape[1]),
            )
            for i in range(1, img.shape[0] - 1)
        ]
        rt.taskwait(label="g")
        return [t.result for t in tasks], rt.finish()

    def _specialized(self, img, ratio):
        rt = Scheduler(
            RuntimeConfig(
                policy="gtb-max", n_workers=4, compile="specialize"
            )
        )
        plan = rt.specializer.specialize(
            "sobel",
            sobel_row_value,
            [(img[i - 1 : i + 2], i) for i in range(1, img.shape[0] - 1)],
            significance=lambda w, i: sobel_row_significance(i),
            approxfun=sobel_row_value_approx,
            cost=sobel_row_cost(img.shape[1]),
            ratio=ratio,
            n_chunks=4,
        )
        rt.init_group("g", ratio)
        tasks = rt.spawn_specialized(plan, label="g")
        rt.taskwait(label="g")
        return plan.gather([t.result for t in tasks]), rt.finish(), plan

    @pytest.mark.parametrize("ratio", [0.0, 0.4, 1.0])
    def test_bit_identical_results_and_energy_parity(self, ratio):
        img = synthetic_image(34, 34, 3)
        rows_i, rep_i = self._interpreted(img, ratio)
        rows_s, rep_s, plan = self._specialized(img, ratio)
        for a, b in zip(rows_i, rows_s):
            np.testing.assert_array_equal(a, b)
        # Logical decisions match the interpreted group exactly.
        assert plan.accurate == rep_i.accurate_tasks
        assert plan.approximate == rep_i.approximate_tasks
        # Chunk costs sum member work → same busy-proportional energy.
        # (Total energy may differ either way: chunking changes the
        # makespan — fewer per-task overheads, but also fewer units of
        # parallelism — and idle/uncore energy scales with makespan.)
        assert rep_s.energy.core_active_j == pytest.approx(
            rep_i.energy.core_active_j, rel=0.10
        )

    def test_chunks_run_forced_accurate(self):
        img = synthetic_image(18, 18, 3)
        _, rep, plan = self._specialized(img, 0.5)
        assert rep.tasks_total == plan.n_chunks
        assert rep.accurate_tasks == plan.n_chunks


class TestServeIntegration:
    def _serve(self, compile_spec, jobs=4):
        from repro.serve import TaskService

        cfg = RuntimeConfig(
            policy="gtb-max", n_workers=4, compile=compile_spec
        )
        svc = TaskService(cfg, compute_quality=False)
        reports = []
        for j in range(jobs):
            for kernel in ("sobel", "dct"):
                reports.append(
                    svc.submit(
                        {
                            "job_id": f"{kernel}-{j}",
                            "tenant": "standard",
                            "kernel": kernel,
                            "args": {"size": 24 if kernel == "sobel" else 32, "seed": j},
                            "ratio": 0.7,
                        }
                    )
                )
            svc.flush()
        return reports, svc

    def test_outputs_and_counts_identical_on_vs_off(self):
        off, _ = self._serve("off")
        on, svc = self._serve("specialize")
        for a, b in zip(off, on):
            assert a.status == b.status == "executed"
            np.testing.assert_array_equal(a.output, b.output)
            assert (a.tasks_total, a.accurate, a.approximate, a.dropped) == (
                b.tasks_total,
                b.accurate,
                b.approximate,
                b.dropped,
            )
            assert b.energy_j == pytest.approx(a.energy_j, rel=0.10)
        # Bodies compiled once per (kernel, variant), reused across jobs.
        stats = svc._specializer.stats()
        assert stats["hits"] > stats["compiles"]

    def test_profile_lands_in_chrome_trace_group_meta(self, tmp_path):
        clear_profile()
        _, svc = self._serve("specialize:profile=true", jobs=2)
        metas = [
            meta
            for meta in svc.job_meta.values()
            if "profile" in meta
        ]
        assert metas
        prof = metas[0]["profile"]
        assert all(
            rec["calls"] > 0 and rec["total_s"] >= 0.0
            for rec in prof.values()
        )
        path = svc.write_trace(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        tagged = [
            e
            for e in events
            if isinstance(e.get("args"), dict) and "profile" in e["args"]
        ]
        assert tagged
        assert "calls" in next(iter(tagged[0]["args"]["profile"].values()))


class CountingClock:
    """Stand-in ``perf_counter``: every read advances one tick."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return float(self.reads)


class TestProfilerOverhead:
    def test_two_clock_reads_per_profiled_call(self, monkeypatch):
        """The recompyle-style wrapper costs two clock reads per call
        and nothing else: the unprofiled loop reads no clock, and the
        profiled one returns the same values."""
        clock = CountingClock()
        # The profiled loop binds the clock when it is compiled.
        monkeypatch.setattr(
            specialize, "time", types.SimpleNamespace(perf_counter=clock)
        )
        img = synthetic_image(10, 32, 1)
        members = tuple((img[i - 1 : i + 2], i) for i in range(1, 9))
        plain, _ = compile_chunk_body(sobel_row_value, "overhead")
        profiled, _ = compile_chunk_body(
            sobel_row_value, "overhead", profile=True
        )
        clear_profile()

        expected = plain(members, 0)
        assert clock.reads == 0
        got = profiled(members, 0)
        assert clock.reads == 2 * len(members)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        # Consecutive reads bracket each call: one tick per call.
        snap = profile_snapshot(kernel="overhead", clear=True)
        assert snap["sobel_row_value"]["calls"] == len(members)
        assert snap["sobel_row_value"]["total_s"] == float(len(members))

    def test_snapshot_windows_and_clears(self):
        clear_profile()
        loop, _ = compile_chunk_body(_double, "win", profile=True)
        loop([(1,), (2,)], 0)
        snap = profile_snapshot(kernel="win", clear=True)
        assert snap["_double"]["calls"] == 2
        assert profile_snapshot(kernel="win") == {}


class TestConfig:
    def test_off_builds_none(self):
        assert RuntimeConfig().build_compile() is None
        assert RuntimeConfig(compile=None).build_compile() is None
        assert RuntimeConfig().compile == "off"

    def test_specialize_builds_specializer(self):
        sp = RuntimeConfig(
            compile="specialize:cache_size=2,profile=true"
        ).build_compile()
        assert isinstance(sp, KernelSpecializer)
        assert sp.cache.capacity == 2
        assert sp.profile is True

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown compile tier"):
            RuntimeConfig(compile="jit")
        with pytest.raises(ConfigError, match="compile option"):
            RuntimeConfig(compile="specialize:nope=1")
        with pytest.raises(ConfigError, match="cache_size"):
            RuntimeConfig(compile="specialize:cache_size=0")
        with pytest.raises(ConfigError, match="spec string"):
            RuntimeConfig(compile=3.14)

    def test_round_trip_and_describe(self):
        cfg = RuntimeConfig(compile="specialize:cache_size=8")
        assert RuntimeConfig.from_dict(cfg.to_dict()) == cfg
        assert "compile=specialize" in cfg.describe()
        assert "compile" not in RuntimeConfig().describe()
        # Old serialized configs (no compile key) still load.
        data = RuntimeConfig().to_dict()
        data.pop("compile")
        assert RuntimeConfig.from_dict(data).compile == "off"

    def test_programmatic_instance_passes_through(self):
        sp = KernelSpecializer(cache_size=4)
        cfg = RuntimeConfig(compile=sp)
        assert cfg.build_compile() is sp
        with pytest.raises(ConfigError, match="serialize"):
            cfg.to_dict()
