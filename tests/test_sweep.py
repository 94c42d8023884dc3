import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfront.core import HopfLaxParams, VectorObjective, WeightedSum
from hopfront.problems import BenchmarkProblem, example2_case1, get_problem
from hopfront.solver import SolverConfig, gap_certificates, solve
from hopfront.sweep import TauPath, sweep


def linear_problem():
    f = VectorObjective(1, 1, lambda u: u, lambda u: np.ones(u.shape[:-1] + (1, 1)), batched=True)
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


def assert_equals_lone_solve(prob, g, s):
    lone = solve(prob.objective, g, prob.params_for(s.tau), constraints=prob.constraints)
    assert s.u.tobytes() == lone.u_star.tobytes()
    assert s.pi.tobytes() == lone.pi_star.tobytes()
    assert s.objectives.tobytes() == lone.objectives.tobytes()
    assert s.residual == lone.residual_history[-1]
    assert s.iterations == lone.iterations


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
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            TauPath(np.zeros(2), np.ones(2), 2.5)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            sweep(linear_problem(), WeightedSum([1.0]), n_samples=2.5)
        assert len(TauPath(np.zeros(2), np.ones(2), np.int64(3)).parameters()) == 3


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

    @pytest.mark.parametrize("pid, n_samples, indices", [
        *(pytest.param(pid, 8, range(8), id=pid) for pid in ("ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b")),
        # full sweeps, each index list holding the sample with the most
        # Jacobian rows (843 on ex1, 288 on ex2b)
        pytest.param("ex1", 100, [0, 9, 20, 21, 37, 50, 63, 84, 85, 99], id="ex1-full"),
        pytest.param("ex2b", 100, [0, 12, 25, 33, 50, 61, 75, 86, 88, 99], id="ex2b-full"),
        # 30-tau stacks whose rows carry secant rows of their own
        *(pytest.param(pid, 30, range(30), id=f"{pid}-30") for pid in ("ex2b", "ex3b")),
    ])
    def test_samples_equal_lone_solves(self, pid, n_samples, indices):
        prob = get_problem(pid)
        g = prob.default_preference()
        front = sweep(prob, g, n_samples=n_samples)
        for i in indices:
            assert_equals_lone_solve(prob, g, front.samples[i])

    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3b"])
    def test_evaluation_rows_equal_lone_solves(self, pid):
        # the rows reaching the user's fn and jac (the leading dimension of
        # each call) over a sweep add up to those of its lone solves
        from dataclasses import replace

        prob = get_problem(pid)
        rows = {"fn": 0, "jac": 0}

        def counted(name, call):
            def wrapper(u):
                rows[name] += 1 if u.ndim == 1 else u.shape[0]
                return call(u)

            return wrapper

        f = prob.objective
        prob = replace(prob, objective=replace(f, fn=counted("fn", f.fn), jac=counted("jac", f.jac)))
        g = prob.default_preference()
        front = sweep(prob, g, n_samples=12)
        swept = dict(rows)
        rows.update(fn=0, jac=0)
        for s in front.samples:
            solve(prob.objective, g, prob.params_for(s.tau), constraints=prob.constraints)
        assert swept == rows
        assert swept["jac"] > 12

    def test_gap_certificates_recorded_with_reference(self):
        from hopfront.oracle import sample_cloud

        prob = example2_case1()
        cloud = sample_cloud(prob, grid=80)
        g = prob.default_preference()
        front = sweep(prob, g, n_samples=6, reference=cloud)
        for s in front.samples:
            if s.converged:
                assert s.gap is not None and s.bregman_bound is not None
                assert s.gap <= s.bregman_bound + 1e-6
                # the pass over all samples records what it gives the lone solve
                params = prob.params_for(s.tau)
                lone = solve(prob.objective, g, params, constraints=prob.constraints)
                assert [(s.gap, s.bregman_bound)] == gap_certificates(g, [lone], params, cloud)

    def test_nonconverged_samples_retained_and_flagged(self):
        prob = example2_case1()
        cfg = SolverConfig(maxit_outer=1, eps=1e-12)
        front = sweep(prob, n_samples=5, cfg=cfg)
        assert len(front.samples) == 5
        assert front.converged_count() < 5


class TestNearBoundCrawl:
    """A nearly active constraint counts in the two-metric step only where
    the step pushes against it (Bertsekas 1982). Before that rule a
    coordinate near its bound that the gradient pulled inward took a
    gradient step divided by a trace growing with d, and crawled: ex3a-d100
    at 20 samples converged 19/20 and ex3a-d1000 at 100 samples 69/100."""

    DEFAULT = ("ex1", "ex2a", "ex2b", "ex3a-d10", "ex3a-d30", "ex3a-d100", "ex3b")

    @staticmethod
    def converges_at(pid, t):
        prob = get_problem(pid)
        tau = prob.tau_start + t * (prob.tau_end - prob.tau_start)
        return solve(prob.objective, prob.default_preference(), prob.params_for(tau),
                     constraints=prob.constraints).converged

    @pytest.mark.parametrize("pid, n", [("ex3a-d100", 20), ("ex3a-d1000", 100)])
    def test_every_sample_converges(self, pid, n):
        assert sweep(get_problem(pid), n_samples=n).converged_count() == n

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(pid=st.sampled_from(DEFAULT), t=st.floats(0.0, 1.0))
    def test_converges_at_any_t(self, pid, t):
        assert self.converges_at(pid, t)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(t=st.floats(0.2103, 0.7042))
    def test_converges_in_the_old_ex3a_d100_failure_band(self, t):
        assert self.converges_at("ex3a-d100", t)


class TestFrontAccessors:
    def test_converged_filter(self):
        prob = example2_case1()
        front = sweep(prob, n_samples=5)
        pts_all = [s.objectives for s in front.samples]
        pts_conv = [s.objectives for s in front.samples if s.converged]
        assert len(pts_all) == 5
        assert len(pts_conv) == front.converged_count()
        assert all(np.isfinite(p).all() for p in pts_conv)
