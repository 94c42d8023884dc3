import numpy as np
import pytest

from hopfront.core import HopfLaxParams, VectorObjective, WeightedSum
from hopfront.problems import BenchmarkProblem, example2_case1, get_problem
from hopfront.solver import SolverConfig, solve
from hopfront.sweep import ParetoFront, TauPath, sweep


def linear_problem():
    f = VectorObjective(1, 1, lambda u: u, lambda u: np.array([[1.0]]), batched=True)
    return BenchmarkProblem(
        id="lin",
        objective=f,
        constraints=None,
        feasible_box=(np.array([-2.0]), np.array([2.0])),
        alpha=1.0, c=1.0, mu=1.0,
        x=np.array([1.0]),
        tau_start=np.array([0.0]), tau_end=np.array([1.0]),
        label="scalar linear",
    )


class TestTauPath:
    def test_uniform_interpolation(self):
        path = TauPath(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 3)
        pts = path.points()
        assert np.allclose(pts[0], [0.0, 1.0])
        assert np.allclose(pts[1], [0.5, 0.0])
        assert np.allclose(pts[2], [1.0, -1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TauPath(np.zeros(2), np.zeros(3), 5)
        with pytest.raises(ValueError):
            TauPath(np.zeros(2), np.zeros(2), 0)


class TestSweep:
    def test_degenerate_single_sample_equals_direct_solve(self):
        prob = linear_problem()
        g = WeightedSum([1.0])
        path = TauPath(np.array([0.3]), np.array([0.3]), 1)
        front = sweep(prob, g, path=path)
        assert len(front.samples) == 1
        direct = solve(prob.objective, g,
                       HopfLaxParams(x=prob.x, tau=np.array([0.3]), alpha=1.0, c=1.0, mu=1.0),
                       SolverConfig())
        assert np.array_equal(front.samples[0].u, direct.u_star)

    def test_linear_weighted_sum_front_is_tau_independent(self):
        prob = linear_problem()
        g = WeightedSum([1.0])
        front = sweep(prob, g, n_samples=7)
        us = np.array([s.u[0] for s in front.samples])
        assert front.converged_count() == 7
        assert np.allclose(us, us[0], atol=1e-12)
        assert us[0] == pytest.approx(0.0, abs=1e-6)  # (c x - w) / (mu + alpha c)

    def test_determinism(self):
        prob = example2_case1()
        f1 = sweep(prob, n_samples=12)
        f2 = sweep(prob, n_samples=12)
        for a, b in zip(f1.samples, f2.samples):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.pi, b.pi)
            assert a.converged == b.converged

    def test_dual_recovery_identity(self):
        prob = example2_case1()
        front = sweep(prob, n_samples=9)
        g = prob.default_preference()
        for s in front.samples:
            assert np.array_equal(s.E, prob.c * (s.tau + prob.alpha * s.pi))
            assert np.array_equal(s.p, prob.c * (prob.x - prob.alpha * s.u))

    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b"])
    def test_warm_and_cold_agree(self, pid):
        prob = get_problem(pid)
        warm = sweep(prob, n_samples=8, warm_start=True)
        cold = sweep(prob, n_samples=8, warm_start=False)
        for a, b in zip(warm.samples, cold.samples):
            if a.converged and b.converged:
                assert np.linalg.norm(a.objectives - b.objectives) <= 1e-3

    def test_gap_certificates_recorded_with_reference(self):
        from hopfront.oracle import sample_cloud

        prob = example2_case1()
        cloud = sample_cloud(prob, grid=80)
        front = sweep(prob, n_samples=6, reference=cloud)
        for s in front.samples:
            if s.converged:
                assert s.gap is not None and s.bregman_bound is not None
                assert s.gap <= s.bregman_bound + 1e-6

    def test_nonconverged_samples_retained_and_flagged(self):
        prob = example2_case1()
        cfg = SolverConfig(maxit_outer=1, eps=1e-12)
        front = sweep(prob, n_samples=5, cfg=cfg, warm_start=False)
        assert len(front.samples) == 5
        assert front.converged_count() < 5


class TestFrontAccessors:
    def test_empty_front(self):
        front = ParetoFront(problem_id="x")
        assert front.objective_points() == []

    def test_converged_filter(self):
        prob = example2_case1()
        front = sweep(prob, n_samples=5)
        pts_all = front.objective_points(converged_only=False)
        pts_conv = front.objective_points(converged_only=True)
        assert len(pts_all) == 5
        assert len(pts_conv) == front.converged_count()
        assert all(np.isfinite(p).all() for p in pts_conv)
