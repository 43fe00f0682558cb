"""Unit tests for the MC and Kmeans kernels."""

import numpy as np
import pytest

from repro.kernels.base import Degree
from repro.kernels.kmeans import (
    KmeansBenchmark,
    assign_chunk_accurate,
    assign_chunk_approx,
    inertia,
)
from repro.kernels.mc import (
    McBenchmark,
    boundary_g,
    subdomain_boundary_points,
    true_solution,
    walk_on_spheres_batch,
)
from repro.runtime.policies import LocalQueueHistory, gtb_max_buffer
from repro.runtime.scheduler import Scheduler


class TestMcGeometry:
    def test_boundary_points_on_subdomain(self):
        pts = subdomain_boundary_points(16)
        on_edge = (
            np.isclose(pts[:, 0], 0.25)
            | np.isclose(pts[:, 0], 0.75)
            | np.isclose(pts[:, 1], 0.25)
            | np.isclose(pts[:, 1], 0.75)
        )
        assert on_edge.all()
        assert (pts >= 0.25 - 1e-12).all() and (pts <= 0.75 + 1e-12).all()

    def test_points_distinct(self):
        pts = subdomain_boundary_points(32)
        assert len(np.unique(pts, axis=0)) == 32

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            subdomain_boundary_points(3)

    def test_g_harmonic_values(self):
        assert boundary_g(np.array([[1.0, 0.0]]))[0] == 1.0
        assert boundary_g(np.array([[0.0, 1.0]]))[0] == -1.0


class TestWalkOnSpheres:
    def test_estimates_harmonic_function(self):
        """WoS solves the Dirichlet problem: estimate ~ x^2 - y^2."""
        p = np.array([0.3, 0.6])
        est = walk_on_spheres_batch(p, 4000, eps=1e-3, seed=42)
        assert est == pytest.approx(true_solution(p[None])[0], abs=0.02)

    def test_deterministic_given_seed(self):
        p = np.array([0.5, 0.5])
        a = walk_on_spheres_batch(p, 50, 1e-3, seed=1)
        b = walk_on_spheres_batch(p, 50, 1e-3, seed=1)
        assert a == b

    def test_coarse_eps_is_biased_but_finite(self):
        p = np.array([0.4, 0.4])
        est = walk_on_spheres_batch(p, 500, eps=5e-2, seed=3)
        assert np.isfinite(est)

    def test_invalid_parameters(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            walk_on_spheres_batch(p, 0, 1e-3, seed=0)
        with pytest.raises(ValueError):
            walk_on_spheres_batch(p, 10, 0.7, seed=0)


class TestMcBenchmark:
    def test_mild_is_fully_accurate(self):
        """Table 1: MC Mild = 100% accurate -> zero error."""
        b = McBenchmark(small=True)
        pts = b.build_input()
        ref = b.run_reference(pts)
        rt = Scheduler(policy=gtb_max_buffer(), n_workers=4)
        out = b.run_tasks(rt, pts, 1.0)
        rt.finish()
        assert np.array_equal(out, ref)

    def test_aggressive_bounded_error(self):
        b = McBenchmark(small=True)
        pts = b.build_input()
        ref = b.run_reference(pts)
        rt = Scheduler(policy=gtb_max_buffer(), n_workers=4)
        out = b.run_tasks(rt, pts, 0.5)
        rt.finish()
        q = b.quality(ref, out)
        assert 0 < q.value < 60  # degraded but not garbage

    def test_approx_cost_much_cheaper(self):
        from repro.kernels.mc import mc_cost

        c = mc_cost(128)
        assert c.approximate < 0.35 * c.accurate


class TestKmeansBodies:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.points = rng.normal(size=(64, 16))
        self.centroids = self.points[:4].copy()
        self.labels = np.zeros(64, dtype=np.int64)

    def test_accurate_assigns_nearest(self):
        sums, counts, moved = assign_chunk_accurate(
            self.points, self.centroids, self.labels, 0, 64
        )
        assert counts.sum() == 64
        # centroid rows assign to themselves
        assert self.labels[0] == 0 and self.labels[3] == 3

    def test_accurate_counts_moves_vs_previous(self):
        assign_chunk_accurate(
            self.points, self.centroids, self.labels, 0, 64
        )
        _, _, moved = assign_chunk_accurate(
            self.points, self.centroids, self.labels, 0, 64
        )
        assert moved == 0  # second pass: nothing moves

    def test_approx_does_not_touch_labels(self):
        before = self.labels.copy()
        _, _, moved = assign_chunk_approx(
            self.points, self.centroids, self.labels, 0, 64
        )
        assert moved == 0
        assert np.array_equal(self.labels, before)

    def test_partial_sums_consistent(self):
        sums, counts, _ = assign_chunk_accurate(
            self.points, self.centroids, self.labels, 0, 32
        )
        assert counts.sum() == 32
        assert sums.sum(axis=0) == pytest.approx(
            self.points[:32].sum(axis=0)
        )

    def test_inertia_nonnegative_and_zero_on_centroids(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert inertia(pts, pts) == 0.0
        assert inertia(pts, np.array([[0.0, 0.0]])) > 0


class TestKmeansProblem:
    def test_farthest_point_init_spreads(self):
        b = KmeansBenchmark(small=True)
        prob = b.build_input()
        init = prob.initial_centroids
        dists = np.linalg.norm(
            init[:, None, :] - init[None, :, :], axis=2
        )
        np.fill_diagonal(dists, np.inf)
        # seeds land in distinct blobs: min pairwise distance is large
        assert dists.min() > 3.0

    def test_deterministic_input(self):
        b = KmeansBenchmark(small=True)
        a = b.build_input(seed=5)
        c = b.build_input(seed=5)
        assert np.array_equal(a.points, c.points)


class TestKmeansBenchmark:
    def test_reference_converges(self):
        b = KmeansBenchmark(small=True)
        prob = b.build_input()
        centroids = b.run_reference(prob)
        assert np.isfinite(centroids).all()

    def test_graceful_quality_at_aggressive(self):
        b = KmeansBenchmark(small=True)
        prob = b.build_input()
        ref = b.run_reference(prob)
        rt = Scheduler(policy=gtb_max_buffer(), n_workers=4)
        out = b.run_tasks(rt, prob, 0.4)
        rt.finish()
        assert b.quality(ref, out).value < 5.0  # percent

    def test_lqh_converges_and_matches_quality(self):
        """Paper: LQH converges slowly but reaches accurate quality."""
        b = KmeansBenchmark(small=True)
        prob = b.build_input()
        ref = b.run_reference(prob)
        rt = Scheduler(policy=LocalQueueHistory(), n_workers=4)
        out = b.run_tasks(rt, prob, 0.6)
        rep = rt.finish()
        from repro.kernels.kmeans import MAX_ITERATIONS

        n_chunks = len(b._chunks())
        iterations = rep.tasks_total / n_chunks
        assert iterations < MAX_ITERATIONS  # actually converged
        assert b.quality(ref, out).value < 5.0

    @pytest.mark.parametrize("degree", list(Degree))
    def test_significance_beats_perforation(self, degree):
        """The paper's baseline (Fig. 2): at each Table 1 degree the
        perforated run keeps the same share of chunks, all of them
        accurate, and clusters worse than GTB choosing which chunks to
        approximate (relative error, lower is better)."""
        b = KmeansBenchmark(small=True)
        prob = b.build_input(2015)
        ref = b.run_reference(prob)
        param = b.degree_param(degree)

        rt = Scheduler(policy=gtb_max_buffer(), n_workers=4)
        gtb = b.quality(ref, b.run_tasks(rt, prob, param)).value
        rt.finish()

        rt = Scheduler(n_workers=4)
        perforated = b.quality(ref, b.run_perforated(rt, prob, param)).value
        rep = rt.finish()
        assert rep.accurate_tasks == rep.tasks_total > 0
        assert rep.approximate_tasks == rep.dropped_tasks == 0
        assert gtb < perforated
