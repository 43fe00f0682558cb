"""Servable kernels: registry, digests, plans, combine and quality."""

import numpy as np
import pytest

from repro.registry import available
from repro.runtime.errors import ConfigError
from repro.serve import get_servable, servable_names


class TestRegistry:
    def test_builtins_registered(self):
        assert {"sobel", "mc-pi", "jacobi", "kmeans", "dct"} <= set(
            servable_names()
        )
        assert "sobel" in available("servable")

    def test_alias(self):
        assert get_servable("pi").name == "mc-pi"

    def test_unknown_raises(self):
        from repro.runtime.errors import RegistryError

        with pytest.raises(RegistryError, match="unknown servable"):
            get_servable("nope")


class TestDigests:
    def test_digest_stable_and_canonical(self):
        kernel = get_servable("sobel")
        assert kernel.digest({"size": 64, "seed": 2015}) == kernel.digest(
            {"seed": 2015, "size": 64}
        )
        # Defaults fill in: {} == the default argument set.
        assert kernel.digest(None) == kernel.digest(
            {"size": 64, "seed": 2015}
        )

    def test_digest_separates_args(self):
        kernel = get_servable("sobel")
        assert kernel.digest({"size": 64}) != kernel.digest({"size": 32})

    def test_bad_args_rejected(self):
        kernel = get_servable("sobel")
        with pytest.raises(ConfigError, match="size"):
            kernel.canonical_args({"size": 4})
        with pytest.raises(ConfigError, match="size"):
            kernel.canonical_args({"size": "big"})
        with pytest.raises(ConfigError, match="blocks"):
            get_servable("mc-pi").canonical_args({"blocks": 0})


class TestSobelPlan:
    def test_plan_covers_interior_rows(self):
        kernel = get_servable("sobel")
        plan = kernel.plan({"size": 32})
        assert plan.n_tasks == 30
        assert plan.approxfun is not None
        assert plan.cost.accurate > plan.cost.approximate > 0

    def test_plan_executes_to_reference(self):
        kernel = get_servable("sobel")
        args = {"size": 16, "seed": 3}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        output = kernel.combine(args, results)
        np.testing.assert_array_equal(output, kernel.reference(args))
        assert kernel.quality(kernel.reference(args), output) == 0.0

    def test_dropped_rows_degrade_quality(self):
        kernel = get_servable("sobel")
        args = {"size": 16, "seed": 3}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        results[3] = None  # a dropped task contributes nothing
        output = kernel.combine(args, results)
        assert kernel.quality(kernel.reference(args), output) > 0.0


class TestMcPiPlan:
    def test_reference_close_to_pi(self):
        kernel = get_servable("mc-pi")
        estimate = kernel.reference({"blocks": 16, "samples": 4000})
        assert estimate == pytest.approx(np.pi, abs=0.05)

    def test_combine_renormalizes_over_surviving_blocks(self):
        kernel = get_servable("mc-pi")
        args = {"blocks": 8, "samples": 1000}
        plan = kernel.plan(args)
        full = [plan.fn(*a) for a in plan.args_list]
        dropped = list(full)
        dropped[1] = dropped[5] = None
        partial = kernel.combine(args, dropped)
        # Still a pi estimate, just noisier.
        assert partial == pytest.approx(np.pi, abs=0.2)
        assert kernel.quality(
            kernel.combine(args, full), partial
        ) < 0.1

    def test_empty_results_do_not_divide_by_zero(self):
        kernel = get_servable("mc-pi")
        assert kernel.combine({"blocks": 2}, [None, None]) == 0.0

    def test_significances_stay_decidable(self):
        # Never 0.0/1.0: forced values would bypass the policy.
        kernel = get_servable("mc-pi")
        plan = kernel.plan({"blocks": 32, "samples": 64})
        sigs = [plan.significance(*a) for a in plan.args_list]
        assert all(0.0 < s < 1.0 for s in sigs)
        assert len(set(sigs)) > 1


class TestJacobiPlan:
    def test_digest_stable(self):
        kernel = get_servable("jacobi")
        assert kernel.digest({"n": 128, "chunk": 32}) == kernel.digest(
            {"chunk": 32, "n": 128, "seed": 2015}
        )

    def test_block_count(self):
        kernel = get_servable("jacobi")
        plan = kernel.plan({"n": 128, "chunk": 32})
        assert plan.n_tasks == 4
        assert plan.approxfun is None  # D-mode: drop, don't approximate
        assert plan.cost.accurate > 0

    def test_full_plan_matches_reference(self):
        kernel = get_servable("jacobi")
        args = {"n": 96, "chunk": 24, "seed": 5}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        output = kernel.combine(args, results)
        assert kernel.quality(kernel.reference(args), output) == 0.0

    def test_dropped_block_degrades_not_corrupts(self):
        kernel = get_servable("jacobi")
        args = {"n": 96, "chunk": 24, "seed": 5}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        results[2] = None
        output = kernel.combine(args, results)
        quality = kernel.quality(kernel.reference(args), output)
        assert 0.0 < quality < 1.0
        assert np.all(np.isfinite(output))

    def test_chunk_larger_than_n_rejected(self):
        kernel = get_servable("jacobi")
        with pytest.raises(ConfigError, match="chunk"):
            kernel.canonical_args({"n": 32, "chunk": 64})


class TestKmeansPlan:
    def test_digest_stable(self):
        kernel = get_servable("kmeans")
        assert kernel.digest({"points": 512, "k": 4}) == kernel.digest(
            {"k": 4, "points": 512}
        )

    def test_plan_shape(self):
        kernel = get_servable("kmeans")
        plan = kernel.plan({"points": 512, "k": 4, "chunk": 128})
        assert plan.n_tasks == 4
        assert plan.approxfun is None
        sigs = [plan.significance(*a) for a in plan.args_list]
        assert all(0.0 < s < 1.0 for s in sigs)

    def test_full_plan_matches_reference(self):
        kernel = get_servable("kmeans")
        args = {"points": 512, "k": 4, "dims": 4, "seed": 9}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        output = kernel.combine(args, results)
        assert kernel.quality(kernel.reference(args), output) == 0.0

    def test_dropped_chunks_keep_centroids_finite(self):
        kernel = get_servable("kmeans")
        args = {"points": 512, "k": 4, "dims": 4, "seed": 9}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        results[0] = results[1] = None  # half the votes lost
        output = kernel.combine(args, results)
        assert np.all(np.isfinite(output))
        assert kernel.quality(kernel.reference(args), output) < 1.0

    def test_more_clusters_than_points_rejected(self):
        kernel = get_servable("kmeans")
        with pytest.raises(ConfigError, match="k"):
            kernel.canonical_args({"points": 64, "k": 65})


class TestDctPlan:
    def test_digest_stable(self):
        kernel = get_servable("dct")
        assert kernel.digest({"size": 32}) == kernel.digest(
            {"size": 32, "seed": 2015}
        )
        assert kernel.digest({"size": 32}) != kernel.digest(
            {"size": 32, "seed": 7}
        )

    def test_plan_shape(self):
        from repro.kernels.dct import N_BANDS

        kernel = get_servable("dct")
        plan = kernel.plan({"size": 32})
        assert plan.n_tasks == N_BANDS
        assert plan.approxfun is None  # D mode: drop, don't approximate
        sigs = [plan.significance(*a) for a in plan.args_list]
        assert all(0.0 < s < 1.0 for s in sigs)
        # Low frequencies matter more: significance strictly decreases.
        assert sigs == sorted(sigs, reverse=True)
        costs = [plan.cost(*a).accurate for a in plan.args_list]
        assert all(c > 0 for c in costs)
        # The middle diagonal (k=7) has the most coefficients.
        assert costs[7] == max(costs)

    def test_size_must_be_block_multiple(self):
        kernel = get_servable("dct")
        with pytest.raises(ConfigError, match="multiple"):
            kernel.canonical_args({"size": 36})

    def test_full_plan_matches_reference(self):
        kernel = get_servable("dct")
        args = {"size": 32, "seed": 4}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        output = kernel.combine(args, results)
        assert kernel.quality(kernel.reference(args), output) == 0.0

    def test_dropped_high_bands_degrade_gracefully(self):
        kernel = get_servable("dct")
        args = {"size": 32, "seed": 4}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        for k in range(4, len(results)):  # truncate the zigzag tail
            results[k] = None
        output = kernel.combine(args, results)
        quality = kernel.quality(kernel.reference(args), output)
        assert 0.0 < quality < 0.5
        assert output.dtype == np.uint8

    def test_dropping_low_bands_hurts_more(self):
        kernel = get_servable("dct")
        args = {"size": 32, "seed": 4}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        ref = kernel.reference(args)
        lo = list(results)
        lo[0] = lo[1] = None
        hi = list(results)
        hi[-1] = hi[-2] = None
        assert kernel.quality(ref, kernel.combine(args, lo)) > (
            kernel.quality(ref, kernel.combine(args, hi))
        )

    def test_served_end_to_end(self):
        from repro.config import RuntimeConfig
        from repro.serve import TaskService

        cfg = RuntimeConfig(policy="gtb-max", n_workers=4)
        with TaskService(cfg) as svc:
            report = svc.submit(
                {
                    "job_id": "d1",
                    "tenant": "standard",
                    "kernel": "dct",
                    "args": {"size": 32},
                    "ratio": 0.6,
                }
            )
            svc.flush()
        assert report.status == "executed"
        assert report.tasks_total == 15
        assert report.dropped > 0  # D mode sheds the tail bands
        assert report.quality is not None and report.quality < 0.5


class TestFluidanimatePlan:
    def test_registered_with_alias(self):
        kernel = get_servable("fluidanimate")
        assert kernel.name == "fluidanimate"
        assert get_servable("fluid").name == "fluidanimate"
        assert "fluidanimate" in servable_names()

    def test_digest_stable_and_canonical(self):
        kernel = get_servable("fluidanimate")
        assert kernel.digest({"particles": 192}) == kernel.digest(None)
        assert kernel.digest({"particles": 64}) != kernel.digest(
            {"particles": 128}
        )

    def test_plan_shape(self):
        kernel = get_servable("fluidanimate")
        plan = kernel.plan({"particles": 128, "chunk": 32})
        assert plan.n_tasks == 4
        assert plan.approxfun is not None  # A mode: ballistic body
        assert plan.cost.accurate > plan.cost.approximate > 0

    def test_chunk_larger_than_particles_rejected(self):
        kernel = get_servable("fluidanimate")
        with pytest.raises(ConfigError):
            kernel.canonical_args({"particles": 16, "chunk": 64})

    def test_full_plan_matches_reference(self):
        kernel = get_servable("fluidanimate")
        args = {"particles": 96, "chunk": 24, "seed": 3}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        output = kernel.combine(args, results)
        ref = kernel.reference(args)
        np.testing.assert_allclose(output, ref)
        assert kernel.quality(ref, output) == pytest.approx(0.0)

    def test_ballistic_chunks_degrade_not_corrupt(self):
        kernel = get_servable("fluidanimate")
        args = {"particles": 96, "chunk": 24, "seed": 3}
        plan = kernel.plan(args)
        results = [
            plan.approxfun(*a) if i % 2 else plan.fn(*a)
            for i, a in enumerate(plan.args_list)
        ]
        output = kernel.combine(args, results)
        ref = kernel.reference(args)
        q = kernel.quality(ref, output)
        assert 0.0 < q < 0.5
        assert np.isfinite(output).all()

    def test_dropped_chunk_keeps_previous_positions(self):
        kernel = get_servable("fluidanimate")
        args = {"particles": 96, "chunk": 24, "seed": 3}
        plan = kernel.plan(args)
        results = [plan.fn(*a) for a in plan.args_list]
        results[1] = None  # omission fault: stale, not wrong
        output = kernel.combine(args, results)
        assert np.isfinite(output).all()
        q = kernel.quality(kernel.reference(args), output)
        assert 0.0 < q < 1.0

    def test_served_end_to_end(self):
        from repro.config import RuntimeConfig
        from repro.serve import TaskService

        cfg = RuntimeConfig(policy="gtb-max", n_workers=4)
        with TaskService(cfg) as svc:
            full = svc.submit(
                {
                    "job_id": "f1",
                    "tenant": "standard",
                    "kernel": "fluidanimate",
                    "args": {"particles": 128, "chunk": 16},
                    "ratio": 1.0,
                }
            )
            svc.flush()
            approx = svc.submit(
                {
                    "job_id": "f2",
                    "tenant": "standard",
                    "kernel": "fluidanimate",
                    "args": {"particles": 128, "chunk": 16, "seed": 9},
                    "ratio": 0.3,
                }
            )
            svc.flush()
        assert full.status == "executed"
        assert full.quality == pytest.approx(0.0)
        assert approx.status == "executed"
        assert approx.approximate > 0  # A mode, not D mode
        assert approx.dropped == 0
        assert approx.quality is not None and approx.quality < 0.5

    def test_all_six_paper_kernels_servable(self):
        names = set(servable_names())
        assert {
            "sobel", "mc-pi", "jacobi", "kmeans", "dct", "fluidanimate"
        } <= names
