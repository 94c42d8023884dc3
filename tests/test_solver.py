import numpy as np
import pytest

from hopfront.core import (
    CertificationError,
    Chebyshev,
    HopfLaxParams,
    SoftMax,
    VectorObjective,
    WeightedSum,
)
from hopfront.oracle import SampleCloud
from hopfront.solver import (
    SolverConfig,
    certify_gap,
    dual_update_pi,
    gap_and_bound,
    merit_psi,
    preconditioner,
    solve,
    spd_solve,
    stationarity_residual,
)


def identity_objective():
    return VectorObjective(1, 1, lambda u: u, lambda u: np.array([[1.0]]))


def scalar_params(x=1.0, tau=0.0):
    return HopfLaxParams(x=np.array([x]), tau=np.array([tau]), alpha=1.0, c=1.0, mu=1.0)


def ex2a_objective():
    from hopfront.problems import example2_case1

    return example2_case1().objective


class TestDualUpdate:
    def test_weighted_sum_returns_weights(self, rng):
        f = identity_objective()
        g = WeightedSum([1.0])
        pi_next, E = dual_update_pi(f, g, np.array([0.7]), np.array([0.2]), scalar_params(), 0.5)
        assert pi_next == pytest.approx(1.0)
        assert E == pytest.approx(1.0 * (0.0 + 1.0 * 0.2))

    def test_softmax_symmetric_state(self):
        # ell(u) + E = (0, 0) by construction
        f = VectorObjective(2, 2, lambda u: -scalar_E() * np.ones(2), lambda u: np.zeros((2, 2)))
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.zeros(2), alpha=1.0, c=1.0, mu=1.0)
        pi_next, _ = dual_update_pi(f, g, np.zeros(2), np.zeros(2), params, 0.5)
        assert np.allclose(pi_next, [0.5, 0.5])

    def test_softmax_singleton(self):
        f = identity_objective()
        g = SoftMax(0.1, 1)
        pi_next, _ = dual_update_pi(f, g, np.array([0.3]), np.array([0.0]), scalar_params(), 0.5)
        assert pi_next == pytest.approx(1.0)

    def test_prox_path_stays_in_simplex(self, rng):
        # a non-smooth scalarizer takes the proximal step on the conjugate
        f = VectorObjective(1, 2, lambda u: np.array([u[0], -u[0]]), lambda u: np.array([[1.0], [-1.0]]))
        g = Chebyshev([1.0, 1.0])
        params = HopfLaxParams(x=np.zeros(1), tau=np.array([3.0, -3.0]), alpha=1.0, c=0.1, mu=0.01)
        pi = np.zeros(2)
        for _ in range(20):
            pi, _ = dual_update_pi(f, g, rng.normal(size=1), pi, params, 0.5)
            assert np.all(pi >= -1e-15)
            assert abs(pi.sum() - 1.0) <= 1e-9


def scalar_E():
    return 0.0


class TestStationarityResidual:
    def test_forced_kkt_point(self):
        f = identity_objective()
        u = np.array([0.0])
        r = stationarity_residual(f.jacobian(u), u, np.array([1.0]), scalar_params(x=1.0))
        assert r == pytest.approx(0.0)

    def test_linear_arithmetic(self):
        f = identity_objective()
        u = np.array([1.0])
        r = stationarity_residual(f.jacobian(u), u, np.array([1.0]), scalar_params(x=1.0))
        assert r == pytest.approx(2.0)

    def test_matches_hand_rolled_formula(self, rng):
        f = ex2a_objective()
        params = HopfLaxParams(x=np.zeros(2), tau=np.zeros(2), alpha=1.0, c=0.1, mu=0.01)
        for _ in range(10):
            u = rng.uniform(0, 1, size=2)
            pi = rng.uniform(0, 1, size=2)
            expected = f.jacobian(u).T @ pi + 0.01 * u + 0.1 * 1.0 * u - 0.1 * np.zeros(2)
            assert np.allclose(stationarity_residual(f.jacobian(u), u, pi, params), expected, atol=1e-14)


def lm_step(f, u, pi, params):
    # one undamped Levenberg-Marquardt step u - B^-1 r, built from the
    # residual and preconditioner the solver's LM refinement uses
    J = f.jacobian(u)
    r = stationarity_residual(J, u, pi, params)
    return u - spd_solve(preconditioner(J, params), r), float(np.linalg.norm(r))


class TestPrimalUpdate:
    def test_scalar_closed_form_step(self):
        f = identity_objective()
        u_next, r_norm = lm_step(f, np.array([1.0]), np.array([1.0]), scalar_params(x=1.0))
        assert r_norm == pytest.approx(2.0)
        assert u_next[0] == pytest.approx(1.0 / 3.0)

    def test_fixed_point_when_residual_zero(self):
        f = identity_objective()
        u_next, r_norm = lm_step(f, np.array([0.0]), np.array([1.0]), scalar_params(x=1.0))
        assert r_norm == pytest.approx(0.0)
        assert u_next[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_explicit_two_by_two_inverse(self):
        from hopfront.problems import example1

        f = example1().objective
        params = HopfLaxParams(x=np.zeros(2), tau=np.zeros(2), alpha=1.0, c=0.1, mu=0.01)
        u = np.array([0.5, 0.25])
        pi = np.array([0.4, 0.6])
        J = f.jacobian(u)
        B = (0.01 + 0.1) * np.eye(2) + J.T @ J
        r = J.T @ pi + 0.01 * u + 0.1 * u
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
        expected = u - Binv @ r
        u_next, _ = lm_step(f, u, pi, params)
        assert np.allclose(u_next, expected, atol=1e-12)

    def test_eta_validation(self):
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError):
                SolverConfig(eta=eta)


class TestMerit:
    def test_zero_at_scalar_kkt_point(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        psi = merit_psi(f, g, np.array([0.0]), np.array([1.0]), scalar_params(x=1.0), 0.5)
        assert psi == pytest.approx(0.0, abs=1e-28)

    def test_positive_when_dual_displaced(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        psi = merit_psi(f, g, np.array([0.0]), np.array([0.4]), scalar_params(x=1.0), 0.5)
        assert psi > 1e-3

    def test_matches_independent_assembly(self, rng):
        f = ex2a_objective()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([1.0, -1.0]), alpha=1.0, c=0.1, mu=0.01)
        rho = 0.5
        for _ in range(10):
            u = rng.uniform(0, 1, size=2)
            pi = rng.dirichlet([1.0, 1.0])
            J = f.jacobian(u)
            B = 0.11 * np.eye(2) + J.T @ J
            r = J.T @ pi + 0.01 * u - 0.1 * (0.0 - u)
            det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
            Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
            E = 0.1 * (params.tau + pi)
            disp = g.prox_conjugate(pi + rho * (f.value(u) + E), rho) - pi
            expected = 0.5 * float(r @ (Binv @ r)) + float(disp @ disp) / (2 * rho**2)
            assert merit_psi(f, g, u, pi, params, rho) == pytest.approx(expected, rel=1e-9)


class TestSolve:
    def test_scalar_closed_form_x1(self):
        res = solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0), SolverConfig(eps=1e-9))
        assert res.converged
        assert res.iterations <= 3
        assert abs(res.u_star[0]) <= 1e-9
        assert res.p_bar[0] == pytest.approx(1.0, abs=1e-9)
        assert res.E_bar[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_closed_form_x0(self):
        res = solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=0.0), SolverConfig(eps=1e-10))
        assert res.converged
        assert res.u_star[0] == pytest.approx(-0.5, abs=1e-10)
        assert res.p_bar[0] == pytest.approx(0.5, abs=1e-10)
        assert res.E_bar[0] == pytest.approx(1.0, abs=1e-12)

    def test_recovery_identities_exact(self):
        res = solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0))
        params = scalar_params(x=1.0)
        assert np.array_equal(res.p_bar, params.dual_momentum(res.u_star))
        assert np.array_equal(res.E_bar, params.dual_shift(res.pi_star))

    def test_ex2_interior_point_nondominated_on_grid(self):
        from hopfront.oracle import reference_front
        from hopfront.problems import example2_case1

        prob = example2_case1()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([-2.0, 2.0]), alpha=1.0, c=0.1, mu=0.01)
        cfg = SolverConfig()
        res = solve(prob.objective, g, params, cfg)
        assert res.converged
        assert res.merit_history[-1] <= cfg.eps**2 * max(1.0, res.merit_history[0])
        obj = prob.objective.value(res.u_star)
        ref = reference_front(prob, grid=150)
        dominating = np.all(ref.points_obj <= obj - 0.02, axis=1)
        assert not np.any(dominating)

    def test_merit_history_non_increasing_with_safeguard(self):
        prob = ex2a_objective()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([3.0, -3.0]), alpha=1.0, c=0.1, mu=0.01)
        res = solve(prob, g, params, SolverConfig(safeguard=True))
        diffs = np.diff(res.merit_history)
        assert diffs.size == 0 or diffs.max() <= 1e-12

    def test_perturbing_solution_raises_merit(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        params = scalar_params(x=1.0)
        res = solve(f, g, params, SolverConfig(eps=1e-10))
        base = merit_psi(f, g, res.u_star, res.pi_star, params, 0.5)
        bumped = merit_psi(f, g, res.u_star + 0.1, res.pi_star, params, 0.5)
        assert base <= 1e-16
        assert bumped > 1e-4

    def test_chebyshev_scalarizer_runs_through_prox_path(self):
        f = VectorObjective(1, 2, lambda u: np.array([u[0] ** 2, (u[0] - 1.0) ** 2]),
                            lambda u: np.array([[2.0 * u[0]], [2.0 * (u[0] - 1.0)]]))
        g = Chebyshev([1.0, 1.0])
        params = HopfLaxParams(x=np.zeros(1), tau=np.zeros(2), alpha=1.0, c=0.1, mu=0.01)
        res = solve(f, g, params, SolverConfig())
        assert res.converged
        assert np.all(res.pi_star >= -1e-12)
        assert res.pi_star.sum() == pytest.approx(1.0, abs=1e-9)
        # weighted-max balance: both scaled objectives meet at the solution
        vals = f.value(res.u_star) + res.E_bar
        assert abs(vals[0] - vals[1]) <= 1e-3

    def test_nonconvergence_is_flagged_not_raised(self):
        res = solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0),
                    SolverConfig(maxit_outer=1, eps=1e-14))
        assert not res.converged

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve(identity_objective(), WeightedSum([1.0, 1.0]), scalar_params())
        from hopfront.constrained import box_constraints

        with pytest.raises(ValueError):
            solve(identity_objective(), WeightedSum([1.0]), scalar_params(),
                  constraints=box_constraints(np.zeros(2), np.ones(2)))

    def test_scale_consistency_under_rotation(self):
        # minimizing ell(Q u) from state Q^T x reproduces Q^T u*
        a = np.array([1.0, 0.5])
        b = np.array([-0.5, 1.5])

        def make(Q=None):
            Q = np.eye(2) if Q is None else Q

            def ell(u):
                v = Q @ u
                return np.array([float((v - a) @ (v - a)), float((v - b) @ (v - b))])

            def jac(u):
                v = Q @ u
                return np.array([2 * (v - a) @ Q, 2 * (v - b) @ Q])

            return VectorObjective(2, 2, ell, jac)

        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        g = WeightedSum([0.4, 0.6])
        x = np.array([0.3, -0.2])
        tau = np.array([1.0, -1.0])
        base = solve(make(), g, HopfLaxParams(x=x, tau=tau, alpha=1.0, c=0.1, mu=0.2),
                     SolverConfig(eps=1e-10))
        rot = solve(make(Q), g, HopfLaxParams(x=Q.T @ x, tau=tau, alpha=1.0, c=0.1, mu=0.2),
                    SolverConfig(eps=1e-10))
        assert base.converged and rot.converged
        assert np.allclose(rot.u_star, Q.T @ base.u_star, atol=1e-8)


class TestCertifyGap:
    def quad_setup(self, x):
        f = VectorObjective(1, 1, lambda u: u**2, lambda u: np.array([[2.0 * u[0]]]))
        g = WeightedSum([1.0])
        params = scalar_params(x=x)
        grid = np.linspace(-2.0, 2.0, 4001).reshape(-1, 1)
        cloud = SampleCloud(grid, f.value_batch(grid), "grid(4001)")
        return f, g, params, cloud

    def test_quadratic_gap_within_bregman_bound(self):
        f, g, params, cloud = self.quad_setup(x=1.0)
        res = solve(f, g, params, SolverConfig(eps=1e-10))
        assert res.u_star[0] == pytest.approx(0.25, abs=1e-10)
        gap, bound = gap_and_bound(f, g, res, params, cloud)
        assert bound == pytest.approx(0.125, abs=1e-9)
        assert -1e-9 <= gap <= bound + 1e-9
        assert certify_gap(f, g, res, params, cloud) == pytest.approx(gap)

    def test_zero_bregman_case_has_zero_gap(self):
        # x chosen so the stationary point coincides with the dual point p/mu
        f = VectorObjective(1, 1, lambda u: (u - 1.0) ** 2, lambda u: np.array([[2.0 * (u[0] - 1.0)]]))
        g = WeightedSum([1.0])
        params = scalar_params(x=2.0)
        grid = np.linspace(-1.0, 3.0, 8001).reshape(-1, 1)
        cloud = SampleCloud(grid, f.value_batch(grid), "grid(8001)")
        res = solve(f, g, params, SolverConfig(eps=1e-11))
        assert res.u_star[0] == pytest.approx(1.0, abs=1e-10)
        gap, bound = gap_and_bound(f, g, res, params, cloud)
        assert bound <= 1e-18
        assert abs(gap) <= 1e-7

    def test_violation_raises_with_both_sides(self):
        f, g, params, cloud = self.quad_setup(x=1.0)
        res = solve(f, g, params, SolverConfig(eps=1e-10))
        res.u_star = res.u_star + 1.0  # corrupt the certified point
        with pytest.raises(CertificationError) as err:
            certify_gap(f, g, res, params, cloud)
        assert err.value.gap > err.value.upper or err.value.gap < err.value.lower

    def test_requires_convergence(self):
        f, g, params, cloud = self.quad_setup(x=1.0)
        res = solve(f, g, params, SolverConfig(maxit_outer=1, eps=1e-16))
        with pytest.raises(ValueError):
            certify_gap(f, g, res, params, cloud)
