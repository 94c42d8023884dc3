import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfront.core import HopfLaxParams, VectorObjective, WeightedSum
from hopfront.problems import BenchmarkProblem, example2_case1, get_problem
from hopfront.solver import SolverConfig, gap_certificates, solve
from hopfront.sweep import sweep, tau_line

from conftest import default_line


def linear_problem():
    f = VectorObjective(1, 1, lambda u: u, lambda u: np.ones(u.shape[:-1] + (1, 1)))
    return BenchmarkProblem(
        id="lin",
        objective=f,
        constraints=None,
        feasible_box=(np.array([-2.0]), np.array([2.0])),
        alpha=1.0, c=1.0, mu=1.0,
        x=np.array([1.0]),
        tau_start=np.array([0.0]), tau_end=np.array([1.0]),
    )


def assert_equals_lone_solve(prob, g, tau, r):
    lone = solve(prob.objective, g, prob.params_for(tau), constraints=prob.constraints)
    assert r.u_star.tobytes() == lone.u_star.tobytes()
    assert r.pi_star.tobytes() == lone.pi_star.tobytes()
    assert r.objectives.tobytes() == lone.objectives.tobytes()
    assert r.residual_history[-1] == lone.residual_history[-1]
    assert r.iterations == lone.iterations


class TestTauLine:
    def test_uniform_interpolation(self):
        pts = tau_line(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 3)
        assert np.allclose(pts[0], [0.0, 1.0])
        assert np.allclose(pts[1], [0.5, 0.0])
        assert np.allclose(pts[2], [1.0, -1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_line(np.zeros(2), np.zeros(3), 5)
        with pytest.raises(ValueError):
            tau_line(np.zeros(2), np.zeros(2), 0)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            tau_line(np.zeros(2), np.ones(2), 2.5)
        assert len(tau_line(np.zeros(2), np.ones(2), np.int64(3))) == 3

    def test_rows_are_start_plus_t_times_the_step(self):
        for pid in ("ex1", "ex3b"):
            prob = get_problem(pid)
            t = np.linspace(0.0, 1.0, 101)[:, None]
            expected = prob.tau_start + t * (prob.tau_end - prob.tau_start)
            assert default_line(prob, 101).tobytes() == expected.tobytes()


class TestSweep:
    def test_degenerate_single_sample_equals_direct_solve(self):
        prob = linear_problem()
        g = WeightedSum([1.0])
        front = sweep(prob, tau_line(np.array([0.3]), np.array([0.3]), 1), g)
        assert len(front) == 1
        direct = solve(prob.objective, g,
                       HopfLaxParams(x=prob.x, tau=np.array([0.3]), alpha=1.0, c=1.0, mu=1.0),
                       SolverConfig())
        assert np.array_equal(front[0].u_star, direct.u_star)

    def test_linear_weighted_sum_front_is_tau_independent(self):
        prob = linear_problem()
        g = WeightedSum([1.0])
        front = sweep(prob, default_line(prob, 7), g)
        us = np.array([r.u_star[0] for r in front])
        assert sum(r.converged for r in front) == 7
        assert np.allclose(us, us[0], atol=1e-12)
        assert us[0] == pytest.approx(0.0, abs=1e-6)  # (c x - w) / (mu + alpha c)

    def test_determinism(self):
        prob = example2_case1()
        f1 = sweep(prob, default_line(prob, 12))
        f2 = sweep(prob, default_line(prob, 12))
        for a, b in zip(f1, f2):
            assert np.array_equal(a.u_star, b.u_star)
            assert np.array_equal(a.pi_star, b.pi_star)
            assert a.converged == b.converged

    def test_dual_recovery_identity(self):
        prob = example2_case1()
        tau = default_line(prob, 9)
        front = sweep(prob, tau)
        g = prob.default_preference()
        for t, r in zip(tau, front):
            assert np.array_equal(r.E_bar, prob.c * (t + prob.alpha * r.pi_star))

    @pytest.mark.parametrize("pid, stack, indices", [
        *(pytest.param(pid, 8, range(8), id=pid) for pid in ("ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b")),
        # full sweeps, each index list holding the sample with the most
        # Jacobian rows (843 on ex1, 288 on ex2b)
        pytest.param("ex1", 100, [0, 9, 20, 21, 37, 50, 63, 84, 85, 99], id="ex1-full"),
        pytest.param("ex2b", 100, [0, 12, 25, 33, 50, 61, 75, 86, 88, 99], id="ex2b-full"),
        # 30-tau stacks whose rows carry secant rows of their own
        *(pytest.param(pid, 30, range(30), id=f"{pid}-30") for pid in ("ex2b", "ex3b")),
        # stacks that no line holds: the rows of two crossing lines
        # interleaved, and the corners of a simplex
        pytest.param("ex2b", np.stack([tau_line([-10.0, 10.0], [10.0, -10.0], 6),
                                       tau_line([-10.0, -10.0], [10.0, 10.0], 6)], axis=1).reshape(12, 2),
                     range(12), id="ex2b-two-lines"),
        pytest.param("ex3b", 100.0 * np.eye(5)[[0, 2, 4]], range(3), id="ex3b-simplex"),
    ])
    def test_samples_equal_lone_solves(self, pid, stack, indices):
        prob = get_problem(pid)
        g = prob.default_preference()
        tau = default_line(prob, stack) if isinstance(stack, int) else stack
        front = sweep(prob, tau, g)
        for i in indices:
            assert_equals_lone_solve(prob, g, tau[i], front[i])

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
        tau = default_line(prob, 12)
        sweep(prob, tau, g)
        swept = dict(rows)
        rows.update(fn=0, jac=0)
        for t in tau:
            solve(prob.objective, g, prob.params_for(t), constraints=prob.constraints)
        assert swept == rows
        assert swept["jac"] > 12

    def test_gap_certificates_recorded_with_reference(self):
        from hopfront.oracle import sample_cloud

        prob = example2_case1()
        cloud = sample_cloud(prob, grid=80)
        g = prob.default_preference()
        tau = default_line(prob, 6)
        front = sweep(prob, tau, g, reference=cloud)
        for t, r in zip(tau, front):
            if r.converged:
                assert r.gap is not None and r.bregman_bound is not None
                assert r.gap <= r.bregman_bound + 1e-6
                # the pass over all samples records what it gives the lone solve
                params = prob.params_for(t)
                lone = solve(prob.objective, g, params, constraints=prob.constraints)
                assert [(r.gap, r.bregman_bound)] == gap_certificates(g, [lone], params, cloud)

    def test_nonconverged_samples_retained_and_flagged(self):
        prob = example2_case1()
        cfg = SolverConfig(maxit_outer=1, eps=1e-12)
        front = sweep(prob, default_line(prob, 5), cfg=cfg)
        assert len(front) == 5
        assert sum(r.converged for r in front) < 5


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
        prob = get_problem(pid)
        assert sum(r.converged for r in sweep(prob, default_line(prob, n))) == n

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
        front = sweep(prob, default_line(prob, 5))
        pts_all = [r.objectives for r in front]
        pts_conv = [r.objectives for r in front if r.converged]
        assert len(pts_all) == 5
        assert len(pts_conv) == sum(r.converged for r in front)
        assert all(np.isfinite(p).all() for p in pts_conv)
