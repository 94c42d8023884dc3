import warnings

import numpy as np
import pytest

from conftest import default_line, evaluate_one

from hopfront.core import HopfLaxParams, SoftMax, VectorObjective, WeightedSum
from hopfront.oracle import SampleCloud, certification_cloud, greedy_pareto_filter
from hopfront.problems import get_problem
from hopfront.solver import (
    SolverConfig,
    _cloud_minima,
    evaluate,
    gap_certificates,
    merit_psi,
    solve,
    solve_batch,
    spd_solve,
    stationarity_residual,
)


def identity_objective():
    return VectorObjective(1, 1, lambda u: u, lambda u: np.ones((len(u), 1, 1)))


def scalar_params(x=1.0, tau=0.0):
    return HopfLaxParams(x=np.array([x]), tau=np.array([tau]), alpha=1.0, c=1.0, mu=1.0)


def ex2a_objective():
    from hopfront.problems import example2_case1

    return example2_case1().objective


def dual_update_pi(g, ell, pi, params):
    # the outer loop's dual step, pi_next = grad g(ell + E) with E = c (tau + alpha pi)
    return g.gradient(ell + params.dual_shift(pi))


class TestDualUpdate:
    def test_weighted_sum_returns_weights(self, rng):
        f = identity_objective()
        g = WeightedSum([1.0])
        pi_next = dual_update_pi(g, f.value(np.array([0.7])), np.array([0.2]), scalar_params())
        assert pi_next == pytest.approx(1.0)
        assert scalar_params().dual_shift(np.array([0.2])) == pytest.approx(1.0 * (0.0 + 1.0 * 0.2))

    def test_softmax_symmetric_state(self):
        # ell(u) + E = (0, 0) by construction
        f = VectorObjective(2, 2, lambda u: -scalar_E() * np.ones((len(u), 2)), lambda u: np.zeros((len(u), 2, 2)))
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.zeros(2), alpha=1.0, c=1.0, mu=1.0)
        pi_next = dual_update_pi(g, f.value(np.zeros(2)), np.zeros(2), params)
        assert np.allclose(pi_next, [0.5, 0.5])

    def test_softmax_singleton(self):
        f = identity_objective()
        g = SoftMax(0.1, 1)
        pi_next = dual_update_pi(g, f.value(np.array([0.3])), np.array([0.0]), scalar_params())
        assert pi_next == pytest.approx(1.0)


def scalar_E():
    return 0.0


class TestStationarityResidual:
    def test_forced_kkt_point(self):
        f = identity_objective()
        u = np.array([0.0])
        r = stationarity_residual(evaluate_one(f, None, u), np.array([[1.0]]), scalar_params(x=1.0))
        assert r[0] == pytest.approx(0.0)

    def test_linear_arithmetic(self):
        f = identity_objective()
        u = np.array([1.0])
        r = stationarity_residual(evaluate_one(f, None, u), np.array([[1.0]]), scalar_params(x=1.0))
        assert r[0] == pytest.approx(2.0)

    def test_matches_hand_rolled_formula(self, rng):
        f = ex2a_objective()
        params = HopfLaxParams(x=np.zeros(2), tau=np.zeros(2), alpha=1.0, c=0.1, mu=0.01)
        for _ in range(10):
            u = rng.uniform(0, 1, size=2)
            pi = rng.uniform(0, 1, size=2)
            expected = f.jacobian(u).T @ pi + 0.01 * u + 0.1 * 1.0 * u - 0.1 * np.zeros(2)
            assert np.allclose(stationarity_residual(evaluate_one(f, None, u), pi[None], params)[0], expected, atol=1e-14)


def lm_step(f, u, pi, params):
    # one undamped Levenberg-Marquardt step u - B^-1 r with
    # B = (mu + alpha c) I + J^T J, built from the residual and the solve
    # of the merit's inverse-preconditioner norm
    pt = evaluate_one(f, None, u)
    r = stationarity_residual(pt, pi[None], params)[0]
    return u - spd_solve(params.stiffness, pt.J[0], r), float(np.linalg.norm(r))


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

    @pytest.mark.parametrize("name", ["rho", "eta", "sigma"])
    def test_step_sizes_are_not_config_fields(self, name):
        with pytest.raises(TypeError):
            SolverConfig(**{name: 0.5})


class TestMerit:
    def test_zero_at_scalar_kkt_point(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        psi = merit_psi(g, evaluate_one(f, None, [0.0]), np.array([[1.0]]), scalar_params(x=1.0))
        assert psi[0] == pytest.approx(0.0, abs=1e-28)

    def test_positive_when_dual_displaced(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        psi = merit_psi(g, evaluate_one(f, None, [0.0]), np.array([[0.4]]), scalar_params(x=1.0))
        assert psi[0] > 1e-3

    def test_nu_is_keyword_only(self):
        # a positional fifth argument (a stale step size) must not become nu
        f = identity_objective()
        with pytest.raises(TypeError):
            merit_psi(WeightedSum([1.0]), evaluate_one(f, None, [0.0]), np.array([[1.0]]), scalar_params(x=1.0), 0.5)

    def test_matches_independent_assembly(self, rng):
        f = ex2a_objective()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([1.0, -1.0]), alpha=1.0, c=0.1, mu=0.01)
        rho = 0.5  # the solver's dual prox step
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
            assert merit_psi(g, evaluate_one(f, None, u), pi[None], params)[0] == pytest.approx(expected, rel=1e-9)


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
        from hopfront.oracle import sample_cloud
        from hopfront.problems import example2_case1

        prob = example2_case1()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([-2.0, 2.0]), alpha=1.0, c=0.1, mu=0.01)
        cfg = SolverConfig()
        res = solve(prob.objective, g, params, cfg)
        assert res.converged
        assert res.merit_history[-1] <= cfg.eps**2 * max(1.0, res.merit_history[0])
        obj = prob.objective.value(res.u_star)
        ref = greedy_pareto_filter(sample_cloud(prob, grid=150))
        dominating = np.all(ref.points_obj <= obj - 0.02, axis=1)
        assert not np.any(dominating)

    def test_merit_history_non_increasing_with_safeguard(self):
        prob = ex2a_objective()
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([3.0, -3.0]), alpha=1.0, c=0.1, mu=0.01)
        res = solve(prob, g, params, SolverConfig())
        diffs = np.diff(res.merit_history)
        assert diffs.size == 0 or diffs.max() <= 1e-12

    def test_objectives_are_ell_at_u_star(self):
        from hopfront.problems import get_problem

        for pid in ("ex1", "ex2b", "ex3b"):
            prob = get_problem(pid)
            for tau in (prob.tau_start, 0.5 * (prob.tau_start + prob.tau_end)):
                res = solve(prob.objective, prob.default_preference(), prob.params_for(tau),
                            constraints=prob.constraints)
                assert res.objectives.tobytes() == prob.objective.value(res.u_star).tobytes()

    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3b"])
    def test_no_point_evaluated_twice_in_a_row(self, pid):
        from dataclasses import replace

        from hopfront.problems import get_problem

        prob = get_problem(pid)
        points = []

        def recording(u):
            points.extend(row.tobytes() for row in np.atleast_2d(u))
            return prob.objective.jac(u)

        f = replace(prob.objective, jac=recording)
        for tau in default_line(prob, 8):
            points.clear()
            solve(f, prob.default_preference(), prob.params_for(tau), constraints=prob.constraints)
            assert points
            assert sum(a == b for a, b in zip(points, points[1:])) == 0

    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3b"])
    def test_inner_solve_returns_its_last_points_evaluation(self, pid, monkeypatch):
        from hopfront import solver
        from hopfront.problems import get_problem

        prob = get_problem(pid)
        calls = []
        inner = solver._inner_solve

        def recording(f, g, k, pt, pi, params, cfg):
            pt_in, steps = inner(f, g, k, pt, pi, params, cfg)
            calls.append((f, k, pt_in))
            return pt_in, steps

        monkeypatch.setattr(solver, "_inner_solve", recording)
        taus = default_line(prob, 3)
        solver.solve_batch(prob.objective, prob.default_preference(),
                           HopfLaxParams(prob.x, taus, prob.alpha, prob.c, prob.mu),
                           constraints=prob.constraints)
        assert calls
        for f, k, pt_in in calls:
            for i in range(pt_in.u.shape[0]):
                fresh = evaluate(f, k, pt_in.u[[i]])
                for name in ("u", "ell", "J", "kv"):
                    assert getattr(pt_in, name)[i].tobytes() == getattr(fresh, name)[0].tobytes(), name

    def test_extreme_tau_keeps_pi_on_the_simplex(self):
        # at |ell + E| ~ 1e20 and beyond, the Moreau form of the conjugate prox cancels to 0
        from hopfront.problems import get_problem

        prob = get_problem("ex2b")
        for tau in ((1e20, 0.0), (1e300, -1e300)):
            res = solve(prob.objective, prob.default_preference(), prob.params_for(tau),
                        constraints=prob.constraints)
            if res.converged:
                assert np.all(res.pi_star >= 0.0)
                assert res.pi_star.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_tau_where_the_soft_max_argument_overflows(self):
        # at c tau = 1e308, (ell + E) / eps overflows; the solve converges
        # without a warning to the point of c tau = 1e300
        prob = get_problem("ex1")
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, 1e300):
                params = HopfLaxParams(prob.x, np.array([t, 0.0]), prob.alpha, 1.0, prob.mu)
                results.append(solve(prob.objective, prob.default_preference(), params, constraints=prob.constraints))
        assert all(r.converged for r in results)
        np.testing.assert_allclose(results[0].u_star, [0.58653, 0.34402], atol=1e-5)
        np.testing.assert_allclose(results[0].u_star, results[1].u_star, atol=1e-12)

    def test_perturbing_solution_raises_merit(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        params = scalar_params(x=1.0)
        res = solve(f, g, params, SolverConfig(eps=1e-10))
        base = merit_psi(g, evaluate_one(f, None, res.u_star), res.pi_star[None], params)[0]
        bumped = merit_psi(g, evaluate_one(f, None, res.u_star + 0.1), res.pi_star[None], params)[0]
        assert base <= 1e-16
        assert bumped > 1e-4

    def test_nonsmooth_scalarizer_rejected(self):
        class Kinked(WeightedSum):
            smooth = False

        with pytest.raises(ValueError, match="smooth"):
            solve(identity_objective(), Kinked([1.0]), scalar_params())

    def test_solve_batch_takes_a_stack_and_solve_one_tau(self):
        from hopfront.solver import solve_batch

        with pytest.raises(ValueError, match="stack"):
            solve_batch(identity_objective(), WeightedSum([1.0]), scalar_params())
        stacked = HopfLaxParams(x=np.array([1.0]), tau=np.array([[0.0], [2.0]]), alpha=1.0, c=1.0, mu=1.0)
        results = solve_batch(identity_objective(), WeightedSum([1.0]), stacked)
        assert [r.u_star.tobytes() for r in results] == [
            solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0, tau=t)).u_star.tobytes()
            for t in (0.0, 2.0)]
        with pytest.raises(ValueError):
            solve(identity_objective(), WeightedSum([1.0]), stacked)

    def test_nonconvergence_is_flagged_not_raised(self):
        res = solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0),
                    SolverConfig(maxit_outer=1, eps=1e-14))
        assert not res.converged

    def test_maxit_outer_must_be_a_positive_integer(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="maxit_outer must be >= 1"):
                SolverConfig(maxit_outer=bad)
        for bad in (2.5, 2.0, "3"):
            with pytest.raises(ValueError, match="maxit_outer must be an integer"):
                SolverConfig(maxit_outer=bad)
        cfg = SolverConfig(maxit_outer=np.int64(2))
        assert cfg.maxit_outer == 2 and type(cfg.maxit_outer) is int
        assert solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=1.0), cfg).iterations <= 2

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve(identity_objective(), WeightedSum([1.0, 1.0]), scalar_params())
        from hopfront.constrained import box_constraints

        with pytest.raises(ValueError):
            solve(identity_objective(), WeightedSum([1.0]), scalar_params(),
                  constraints=box_constraints(np.zeros(2), np.ones(2)))

    def test_read_only_map_results(self):
        # fn, jac and the constraint fn may return read-only arrays, such as
        # a broadcast view; the solve matches the one on writable copies
        from dataclasses import replace

        from hopfront.constrained import box_constraints

        A = np.array([[2.0, 0.5], [-0.5, 1.0]])

        def read_only(a):
            a = np.array(a)
            a.flags.writeable = False
            return a

        box = box_constraints(np.zeros(2), np.ones(2))
        frozen_box = replace(box, fn=lambda u: read_only(box.fn(u)))
        writable = VectorObjective(2, 2, lambda u: u @ A.T, lambda u: np.tile(A, (len(u), 1, 1)))
        frozen = VectorObjective(2, 2, lambda u: read_only(u @ A.T), lambda u: np.broadcast_to(A, (len(u), 2, 2)))
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(np.array([1.5, -0.5]), np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 2.0]]),
                               alpha=1.0, c=1.0, mu=1.0)
        ref = solve_batch(writable, g, params, constraints=box)
        out = solve_batch(frozen, g, params, constraints=frozen_box)
        assert all(r.converged for r in ref) and max(r.iterations for r in ref) > 1
        assert any(r.nu_star.any() for r in ref)  # a face is active
        for a, b in zip(ref, out):
            assert a.u_star.tobytes() == b.u_star.tobytes() and a.nu_star.tobytes() == b.nu_star.tobytes()
            assert (a.merit_history, a.iterations) == (b.merit_history, b.iterations)

    def test_scale_consistency_under_rotation(self):
        # minimizing ell(Q u) from state Q^T x reproduces Q^T u*
        a = np.array([1.0, 0.5])
        b = np.array([-0.5, 1.5])

        def make(Q=None):
            Q = np.eye(2) if Q is None else Q

            def ell(u):
                v = u @ Q.T
                return np.stack([((v - a) ** 2).sum(axis=-1), ((v - b) ** 2).sum(axis=-1)], axis=-1)

            def jac(u):
                v = u @ Q.T
                return np.stack([2 * (v - a) @ Q, 2 * (v - b) @ Q], axis=-2)

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

    def test_unconstrained_ex1_line_converges(self):
        # value descent without constraints reaches the composite's rounding
        # floor before the residual target; the inner line search accepts a
        # step there, so no sample stalls (84 of 100 converged with an LM
        # polish ending each unconstrained inner solve instead)
        prob = get_problem("ex1")
        t = np.linspace(0.0, 1.0, 100)[:, None]
        params = prob.params_for(prob.tau_start + t * (prob.tau_end - prob.tau_start))
        results = solve_batch(prob.objective, prob.default_preference(), params)
        assert [i for i, r in enumerate(results) if not r.converged] == []


class TestStackedKernels:
    """Every stacked solver kernel equals its per-row form bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 200])
    def test_spd_solve_stack_matches_lapack(self, d, rng):
        # the low-rank solve of s I + L^T L against LAPACK's dense solve, for
        # one L per row and for one L shared by every row
        s = 0.11
        for m in (1, 3, 5):
            scale = 10.0 ** rng.uniform(-2, 2, size=(40, 1, 1))
            for L in (rng.normal(size=(40, m, d)) * scale, rng.normal(size=(m, d)) * scale[0]):
                R = rng.normal(size=(40, d))
                X = spd_solve(s, L, R)
                for i, (r, x) in enumerate(zip(R, X)):
                    Li = L[i] if L.ndim == 3 else L
                    b = s * np.eye(d) + Li.T @ Li
                    ref = np.linalg.solve(b, r)
                    # a stacked row is the lone solve. The low-rank form
                    # recovers x from r - L^T y, whose rounding is relative
                    # to |B| / s, the condition number of B when d > m and a
                    # bound on it otherwise; these B reach 1e7
                    assert x.tobytes() == spd_solve(s, Li, r).tobytes()
                    assert np.abs(x - ref).max() <= 1e-14 * np.linalg.norm(b, 2) / s * np.abs(ref).max()

    def test_spd_solve_empty_tangent_space(self, rng):
        # L of no columns: the solve in a space of dimension 0 is empty
        x = spd_solve(0.11, rng.normal(size=(4, 3, 0)), np.zeros((4, 0)))
        assert x.shape == (4, 0)

    def test_spd_solve_rejects_a_system_singular_in_rounding(self):
        # equal rows of L with |L|^2 beyond 2^53 s: s is lost in s I + L L^T
        from hopfront.core import NumericalError

        with pytest.raises(NumericalError):
            spd_solve(0.11, np.full((2, 2), 1e9), np.ones(2))

    @pytest.mark.parametrize("where", ["L", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_spd_solve_rejects_non_finite_input(self, where, value, rng):
        from hopfront.core import NumericalError

        args = {"L": rng.normal(size=(3, 2, 4)), "r": rng.normal(size=(3, 4))}
        args[where][1, -1] = value
        with pytest.raises(NumericalError):
            spd_solve(0.11, args["L"], args["r"])

    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3b"])
    def test_residual_preconditioner_merit_multipliers(self, pid, rng):
        from hopfront.problems import get_problem
        from hopfront.solver import multiplier_estimate

        prob = get_problem(pid)
        f, k, g = prob.objective, prob.constraints, prob.default_preference()
        U = k.project(rng.uniform(*prob.feasible_box, size=(30, f.dim_u)))
        U[:10] = k.project(U[:10] - 5.0)  # on the boundary: active constraints
        taus = rng.normal(scale=5.0, size=(30, f.dim_obj))
        PI = rng.dirichlet(np.ones(f.dim_obj), size=30)
        params = HopfLaxParams(prob.x, taus, prob.alpha, prob.c, prob.mu)
        pts = evaluate(f, k, U)
        R = stationarity_residual(pts, PI, params)
        X = spd_solve(params.stiffness, pts.J, R)
        NU = multiplier_estimate(pts, PI, params)
        RN = stationarity_residual(pts, PI, params, NU)
        PSI = merit_psi(g, pts, PI, params, nu=NU)
        assert NU[:10].any()
        for i in range(30):
            # each row against its lone call, the stack of one
            pt, pi, one = evaluate(f, k, U[[i]]), PI[[i]], params.take([i])
            for stacked, name in ((pts.ell, "ell"), (pts.J, "J"), (pts.kv, "kv")):
                assert stacked[i].tobytes() == getattr(pt, name)[0].tobytes()
            assert R[i].tobytes() == stationarity_residual(pt, pi, one)[0].tobytes()
            assert X[i].tobytes() == spd_solve(one.stiffness, pt.J[0], R[i]).tobytes()
            nu = multiplier_estimate(pt, pi, one)
            assert NU[i].tobytes() == nu[0].tobytes()
            assert RN[i].tobytes() == stationarity_residual(pt, pi, one, nu)[0].tobytes()
            assert PSI[i] == merit_psi(g, pt, pi, one, nu=nu)[0]

    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3a-d10", "ex3b", "disc", "halfplane"])
    def test_two_metric_direction_matches_rowwise(self, pid, rng):
        from conftest import rowwise_direction

        from hopfront.constrained import ConstraintSet
        from hopfront.problems import get_problem
        from hopfront.solver import _direction, _near

        # without a tangent basis, the SVD null space, row by row: a disc
        # whose jac returns one matrix per row, and a halfplane whose jac
        # returns one matrix for every row
        box = (-np.ones(2), np.ones(2))
        if pid == "disc":
            prob = get_problem("ex2a")
            k = ConstraintSet(2, 1, lambda u: 1.0 - (u * u).sum(axis=-1, keepdims=True), lambda u: -2.0 * u[:, None],
                              projector=lambda u: u / np.maximum(1.0, np.linalg.norm(u, axis=-1, keepdims=True)))
        elif pid == "halfplane":
            prob = get_problem("ex2a")
            k = ConstraintSet(2, 1, lambda u: 0.5 - u.sum(axis=-1, keepdims=True), lambda u: np.array([[-1.0, -1.0]]),
                              projector=lambda u: u - np.maximum(0.0, u.sum(axis=-1, keepdims=True) - 0.5) / 2.0)
        else:
            prob = get_problem(pid)
            k, box = prob.constraints, prob.feasible_box
        f = prob.objective
        U = k.project(rng.uniform(*box, size=(60, f.dim_u)))
        U[:20] = k.project(U[:20] - 5.0)  # on the boundary: active constraints
        U[20:30] = k.project(U[20:30] + 5.0)
        if pid == "ex1":
            U[30:34] = [[1.0, 1.0], [-1.5, 2.25], [1.0, 1.0], [-1.5, 2.25]]  # both active
        elif pid not in ("disc", "halfplane"):  # some box faces active: tangent systems of 1 to d - 1 unknowns
            half = f.dim_u // 2
            U[30:40, :half] = box[0][:half]
            U[40:50, -1] = box[1][-1]
        taus = rng.normal(scale=5.0, size=(60, f.dim_obj))
        params = HopfLaxParams(prob.x, taus, prob.alpha, prob.c, prob.mu)
        pts = evaluate(f, k, U)
        G = rng.normal(size=U.shape)
        X = rng.normal(size=U.shape) * rng.uniform(0.0, 3.0, size=(60, 1))  # secant rows
        X[::3] = 0.0  # rows without one
        near = _near(pts.kv)
        D = _direction(k, pts, G, params, X, near)
        ref, B_norm = rowwise_direction(k, pts, G, params, X)
        # the low-rank solve's rounding is relative to |B| / s, which bounds
        # cond(B) and the condition number of its tangent system
        err = np.abs(D - ref).max(axis=1)
        assert (err <= 1e-14 * B_norm / params.stiffness * np.abs(ref).max(axis=1)).all()
        for i in (0, 25, 32, 59):  # a row alone takes the step it takes in the stack
            lone = _direction(k, pts.take([i]), G[[i]], params.take([i]), X[[i]], near[[i]])
            assert D[i].tobytes() == lone[0].tobytes()

    def test_near_faces_the_step_does_not_push_against_leave_it_alone(self, rng):
        # every coordinate within the threshold of a face, the gradient
        # pulling it inward: no face pushes, so the step is the plain
        # preconditioned one; flipping one row's gradient at one coordinate
        # makes that face push, and the step leaves it alone
        from hopfront.solver import _direction, _near

        prob = get_problem("ex3a-d10")
        f, k = prob.objective, prob.constraints
        lo, hi = prob.feasible_box
        U = np.where(rng.random(size=(20, f.dim_u)) < 0.5, lo + 5e-4, hi - 5e-4)
        params = HopfLaxParams(prob.x, rng.normal(scale=5.0, size=(20, f.dim_obj)), prob.alpha, prob.c, prob.mu)
        pts = evaluate(f, k, U)
        G = np.where(U < 0.5 * (lo + hi), -1.0, 1.0) * rng.uniform(0.1, 1.0, size=U.shape)
        X, near = np.zeros_like(G), _near(pts.kv)
        D = _direction(k, pts, G, params, X, near)
        assert D.tobytes() == spd_solve(params.stiffness, np.concatenate((pts.J, X[:, None]), axis=1), G).tobytes()
        G[3, 2] *= -1.0
        D2 = _direction(k, pts, G, params, X, near)
        trace = params.stiffness * f.dim_u + (pts.J[3] ** 2).sum() + 1.0  # one active face
        assert D2[3, 2] == pytest.approx(G[3, 2] / trace, rel=1e-14)
        assert D2[np.arange(20) != 3].tobytes() == D[np.arange(20) != 3].tobytes()


class TestTangentProjector:
    """The generic tangent projector, by Gram-Schmidt over the active
    Jacobian rows, is pinv's I - A^T (A A^T)^+ A."""

    @pytest.mark.parametrize("case", ["one", "independent", "parallel", "none", "ex1-corner"])
    def test_matches_pinv(self, case, rng):
        from hopfront.constrained import ConstraintSet
        from hopfront.solver import _tangent_projector

        if case == "ex1-corner":  # both constraints active at either vertex
            k = get_problem("ex1").constraints
            U = np.tile([[1.0, 1.0], [-1.5, 2.25]], (10, 1))
        else:
            n, d = 40, 5
            Jk = rng.normal(size=(n, 2, d)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1, 1))
            if case == "parallel":
                Jk[:, 1] = rng.choice([-3.0, 0.5, 2.0], size=(n, 1)) * Jk[:, 0]
            k = ConstraintSet(d, 2, lambda U: np.zeros((len(U), 2)), lambda U: Jk)
            U = rng.normal(size=(n, d))
        n, d = U.shape
        active = np.full((n, 2), case != "none")
        active[:, 1] &= case != "one"
        project, kk = _tangent_projector(k, k.jacobian_batch(U), active)
        A = np.where(active[..., None], k.jacobian_batch(U), 0.0)
        At = np.swapaxes(A, -1, -2)
        ref = np.eye(d) - At @ np.linalg.pinv(A @ At, hermitian=True) @ A
        assert np.abs(project(np.tile(np.eye(d), (n, 1, 1))) - ref).max() <= 1e-12
        assert np.array_equal(kk, (A * A).sum(axis=(-2, -1)))


class TestSecantRow:
    """The memoryless structured SR1 row x of the inner preconditioner
    B = s I + J^T J + x x^T."""

    @staticmethod
    def interior_stack(rng, n=40):
        # ex2b at points no closer than a fifth of the box to its faces
        prob = get_problem("ex2b")
        f, k = prob.objective, prob.constraints
        lo, hi = prob.feasible_box
        U = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(n, f.dim_u))
        params = HopfLaxParams(prob.x, rng.normal(scale=5.0, size=(n, f.dim_obj)), prob.alpha, prob.c, prob.mu)
        return k, evaluate(f, k, U), params

    @staticmethod
    def gradient_change(pts, S, R, s):
        # y = B0 s + r for the Gauss-Newton matrix B0 = s I + J^T J
        return s * S + np.einsum("nkd,nk->nd", pts.J, np.einsum("nkd,nd->nk", pts.J, S)) + R

    def test_secant_equation(self, rng):
        from hopfront.solver import _direction, _near, _secant_row

        k, pts, params = self.interior_stack(rng)
        s = params.stiffness
        S, R = rng.normal(size=pts.u.shape), rng.normal(size=pts.u.shape)
        R *= np.sign((R * S).sum(axis=1))[:, None]  # r . s > 0
        Y = self.gradient_change(pts, S, R, s)
        near = _near(pts.kv)
        X = _secant_row(pts, S, Y, s, near)
        B = s * np.eye(2) + np.swapaxes(pts.J, -1, -2) @ pts.J + X[:, :, None] * X[:, None, :]
        assert (np.linalg.eigvalsh(B) > 0.0).all()
        BS = (B @ S[..., None])[..., 0]
        assert (np.abs(BS - Y).max(axis=1) <= 1e-12 * np.abs(Y).max(axis=1)).all()
        # the preconditioned direction of y is the step: B^-1 y = s
        D = _direction(k, pts, Y, params, X, near)
        B_norm = np.linalg.norm(B, 2, axis=(1, 2))
        assert (np.abs(D - S).max(axis=1) <= 1e-13 * B_norm / s * np.abs(S).max(axis=1)).all()

    def test_zero_row_next_to_a_constraint_or_without_positive_curvature(self, rng):
        from hopfront.solver import _near, _secant_row

        k, pts, params = self.interior_stack(rng)
        s = params.stiffness
        S, R = rng.normal(size=pts.u.shape), rng.normal(size=pts.u.shape)
        R *= np.sign((R * S).sum(axis=1))[:, None]  # r . s > 0
        R[:10] *= -1.0  # r . s < 0
        R[10:20] -= ((R * S).sum(axis=1) / (S * S).sum(axis=1))[10:20, None] * S[10:20]  # r . s = 0 up to rounding
        U = pts.u.copy()
        U[20:30, 0] = k.bounds[1][0]  # an upper face active
        pts = evaluate(get_problem("ex2b").objective, k, U)
        X = _secant_row(pts, S, self.gradient_change(pts, S, R, s), s, _near(pts.kv))
        assert (X[:30] == 0.0).all()
        assert (X[30:] != 0.0).any(axis=1).all()


def diagonal_quadratic(q):
    """The smooth preference g(z) = 1/2 z^T diag(q) z."""
    from hopfront.core import PreferenceFunction

    class Quadratic(PreferenceFunction):
        dim_obj, smooth = len(q), True

        def value_batch(self, Y):
            return 0.5 * (Y * (q * Y)).sum(axis=1)

        def gradient(self, y):
            return q * np.asarray(y, dtype=float)

    return Quadratic()


class TestLowRankMemory:
    def test_peak_memory_does_not_grow_with_d_squared_per_row(self):
        # every preconditioner is s I + L^T L with L of N <= 5 rows, solved
        # without forming it: at d = 1000 a dense (d, d) stack costs 8 MB per
        # row and per copy (about 15.6 MB per row in one outer iteration)
        import tracemalloc

        prob = get_problem("ex3a-d1000")
        peaks = []
        for n in (2, 8):
            taus = np.linspace(prob.tau_start, prob.tau_end, n)
            params = HopfLaxParams(prob.x, taus, prob.alpha, prob.c, prob.mu)
            tracemalloc.start()
            try:
                solve_batch(prob.objective, prob.default_preference(), params, SolverConfig(maxit_outer=1),
                            constraints=prob.constraints)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 6 < 2**20

    def test_box_kernels_form_no_dense_box_structure(self, rng):
        # the multipliers, the merit and the direction read a box's faces
        # from its bounds: one dense (2d, d) box Jacobian is 16 MB at d = 1000
        import tracemalloc

        from hopfront.solver import _direction, _near, multiplier_estimate

        prob = get_problem("ex3a-d1000")
        f, k, g = prob.objective, prob.constraints, prob.default_preference()
        lo, hi = prob.feasible_box
        U = rng.uniform(lo, hi, size=(10, f.dim_u))
        U[:5, :300], U[3:, -300:] = lo[:300], hi[-300:]  # active faces on every row
        params = HopfLaxParams(prob.x, rng.normal(scale=5.0, size=(10, f.dim_obj)), prob.alpha, prob.c, prob.mu)
        PI = rng.dirichlet(np.ones(f.dim_obj), size=10)
        pts, G = evaluate(f, k, U), rng.normal(size=U.shape)
        tracemalloc.start()
        try:
            nu = multiplier_estimate(pts, PI, params)
            merit_psi(g, pts, PI, params, nu=nu)
            _direction(k, pts, G, params, np.zeros_like(G), _near(pts.kv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nu.any()
        assert peak < 4 * 2**20


class TestBoxFaces:
    @pytest.mark.parametrize("pid", ["ex2b", "ex3b", "ex3a-d10"])
    def test_box_sweep_never_calls_the_box_jacobian(self, pid):
        from dataclasses import replace

        import hopfront as hf

        prob = get_problem(pid)
        calls = []

        def jac(u):
            calls.append(u.shape)
            return prob.constraints.jac(u)

        front = hf.sweep(replace(prob, constraints=replace(prob.constraints, jac=jac)), default_line(prob, 20))
        assert sum(r.converged for r in front) > 0
        assert calls == []


class TestInnerLineSearch:
    """The Armijo backtracking of the inner solve: a failed trial's next step
    length is the minimizer of the quadratic fitted along the projected arc,
    safeguarded to [0.1 t, 0.5 t]."""

    def test_step_rule(self):
        from hopfront.solver import _fitted_minimizer, _interpolated_step

        t = np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 0.2])
        f0 = np.zeros(7)
        slope = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0])
        # quadratics f0 + slope s + c s^2 through ft at t: minimizers 0.25,
        # 1/2.2 (inside), 1/100 and 1/2 (clipped), no minimizer (c <= 0,
        # slope >= 0), a non-finite trial
        c = np.array([2.0, 1.1, 50.0, 0.5, 1.0, -1.0, 0.0])
        ft = f0 + slope * t + c * t * t
        ft[6] = np.inf
        nxt = _interpolated_step(t, _fitted_minimizer(t, f0, slope, ft))
        expect = [0.25, 1.0 / 2.2, 0.05, 0.5, 0.5, 0.5, 0.02]
        np.testing.assert_allclose(nxt, expect, rtol=1e-14)
        one = np.ones(1)
        nan = _interpolated_step(one, _fitted_minimizer(one, np.zeros(1), -one, np.array([np.nan])))
        assert nan[0] == 0.5

    def test_underestimated_curvature(self, monkeypatch):
        # g(z) = 1/2 z^T diag(q) z on ell(u) = u: the preconditioner
        # (mu + alpha c) I + J^T J = 2 I sees the curvature 1 + q = (8, 2)
        # as 2, so it underestimates the stiff axis 4x and every preconditioned
        # step overshoots there
        from hopfront import solver

        q = np.array([7.0, 1.0])
        f = VectorObjective(2, 2, lambda u: u, lambda u: np.tile(np.eye(2), (len(u), 1, 1)))
        params = HopfLaxParams(np.zeros(2), np.array([[1.0, 0.5], [-2.0, 0.3]]), alpha=1.0, c=0.5, mu=0.5)
        pi = np.zeros((2, 2))
        E = params.dual_shift(pi)
        H = np.diag(1.0 + q)

        def phi(i, u):  # the composite; the stiffness mu + alpha c is 1 and x = 0
            return 0.5 * (u + E[i]) @ (q * (u + E[i])) + 0.5 * u @ u

        fits, trials, accepted = [], [], []
        fit, step, ev = solver._fitted_minimizer, solver._interpolated_step, solver.evaluate

        def spy_fit(t, f0, slope, ft):
            fits.append((t.copy(), f0.copy(), slope.copy(), ft.copy()))
            return fit(t, f0, slope, ft)

        def spy_step(t, t_fit):
            out = step(t, t_fit)
            if t.size:  # a lone row: the trial that failed is the one fitted last
                assert fits[-1][0].tobytes() == t.tobytes()
                trials.append(fits[-1] + (out.copy(),))
            return out

        def spy_evaluate(f_, k_, u, ell=None):
            accepted.append(np.array(u))  # the inner solve evaluates its accepted steps only
            return ev(f_, k_, u, ell)

        monkeypatch.setattr(solver, "_fitted_minimizer", spy_fit)
        monkeypatch.setattr(solver, "_interpolated_step", spy_step)
        monkeypatch.setattr(solver, "evaluate", spy_evaluate)
        U = np.array([[2.0, 0.1], [0.3, -1.5]])
        for i in range(2):  # lone rows, so every accepted point is that row's
            trials.clear()
            accepted.clear()
            pt, steps = solver._inner_solve(f, diagonal_quadratic(q), None, ev(f, None, U[[i]]), pi[[i]],
                                            params.take([i]), SolverConfig())
            assert trials and 1 < steps[0] < 40
            for t, f0, slope, ft, nxt in trials:
                assert ((0.1 * t <= nxt) & (nxt <= 0.5 * t)).all()
                c = (ft - f0 - slope * t) / t**2
                np.testing.assert_allclose(nxt, np.clip(-slope / (2.0 * c), 0.1 * t, 0.5 * t), rtol=1e-12)
            # the composite is quadratic, so the fit is exact: the first
            # failed trial (t = 1) lands on the minimizer along the ray
            g0 = H @ U[i] + q * E[i]
            d = g0 / 2.0
            assert trials[0][0][0] == 1.0
            assert trials[0][4][0] == pytest.approx((g0 @ d) / (d @ H @ d), rel=1e-12)
            # every accepted step passes the Armijo test at its step length
            # (unconstrained, so the step is -t d with d = B^-1 gvec)
            path = [U[i]] + [a[0] for a in accepted]
            assert len(path) == steps[0] + 1
            for u0, u1 in zip(path, path[1:]):
                s = u1 - u0
                d = (H @ u0 + q * E[i]) / 2.0
                t_acc = -(s @ d) / (d @ d)
                assert phi(i, u1) <= phi(i, u0) - solver._LS_C1 * (s @ s) / t_acc
            np.testing.assert_allclose(pt.u[0], -np.linalg.solve(H, q * E[i]), atol=1e-8)

    @pytest.mark.parametrize("ratio", [1.75, 1.9, 1.95])
    def test_mirror_overshoot_ends_in_few_steps(self, ratio):
        # the isotropic case of the quadratic above, q = (2 ratio - 1) (1, 1):
        # the composite's curvature is `ratio` times the preconditioner's 2,
        # so the unit step overshoots to near the mirror point across the
        # minimizer and Armijo accepts it. Doubling the next first trial
        # back to 1 would repeat that zig-zag, shrinking the distance only
        # by ratio - 1 per step (58, 159 and 200 capped steps); starting it
        # at the accepted step's fitted minimizer lands on the minimizer.
        from hopfront import solver

        q = np.full(2, 2.0 * ratio - 1.0)
        f = VectorObjective(2, 2, lambda u: u, lambda u: np.tile(np.eye(2), (len(u), 1, 1)))
        params = HopfLaxParams(np.zeros(2), np.array([[1.0, 0.5], [-2.0, 0.3]]), alpha=1.0, c=0.5, mu=0.5)
        pi = np.zeros((2, 2))
        U = np.array([[2.0, 0.1], [0.3, -1.5]])
        pt, steps = solver._inner_solve(f, diagonal_quadratic(q), None, evaluate(f, None, U), pi, params,
                                        SolverConfig())
        assert (steps <= 5).all()
        np.testing.assert_allclose(pt.u, -(q * params.dual_shift(pi)) / (1.0 + q), atol=1e-8)


class TestDescentDirection:
    """The inner solve tries the two-metric direction only, with no
    plain-gradient fallback: it scales the gradient by a positive definite
    matrix on the free coordinates and by a positive number on the others,
    so it descends wherever the gradient is nonzero."""

    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3a-d30", "ex3a-d100", "ex3b"])
    def test_direction_descends_on_the_default_sweeps(self, pid, monkeypatch):
        from hopfront import solver
        from hopfront.sweep import sweep

        direction, checked = solver._direction, []

        def spy(k, pt, gvec, *args):
            d = direction(k, pt, gvec, *args)
            moving = gvec.any(axis=1)
            slope = (gvec * d).sum(axis=1)
            assert (slope[moving] > 0.0).all(), slope[moving].min()
            checked.append(int(moving.sum()))
            return d

        monkeypatch.setattr(solver, "_direction", spy)
        sweep(get_problem(pid), default_line(get_problem(pid), 20))
        assert sum(checked) > 0


class TestInnerDepth:
    """ex1's parabola boundary, where halving backtracking zig-zags across the
    inner minimizer and lone inner solves ran into the step cap, and ex2b's
    valley u2 = u1, where the Gauss-Newton matrix has no curvature along u2
    and only the secant row stops the zig-zag."""

    @pytest.mark.parametrize("pid, bound", [("ex1", 45), ("ex2a", 150), ("ex2b", 150), ("ex3b", 40)])
    def test_sweep_inner_steps(self, pid, bound):
        # lock-step steps of 100-sample sweeps without the secant row: ex1
        # 42, ex2a 208, ex2b 295, ex3b 63
        from hopfront.sweep import sweep

        front = sweep(get_problem(pid), default_line(get_problem(pid), 100))
        assert sum(r.converged for r in front) == 100
        assert front.inner_steps <= bound

    def test_ex1_sweep_inner_steps(self, monkeypatch):
        from hopfront import solver
        from hopfront.problems import get_problem
        from hopfront.sweep import sweep

        direction, counted = solver._direction, []

        def counting(k, pt, gvec, *args):
            counted.append(len(gvec))
            return direction(k, pt, gvec, *args)

        monkeypatch.setattr(solver, "_direction", counting)
        front = sweep(get_problem("ex1"), default_line(get_problem("ex1"), 100))
        assert sum(r.converged for r in front) == 100
        assert front.inner_steps <= 150  # 910 with halving backtracking
        # the recorded work is the descent steps the batch actually took
        assert front.inner_steps == sum(1 for c in counted if c)
        assert front.inner_row_steps == sum(counted)

    def test_ex1_sample_21_stays_below_the_step_cap(self, monkeypatch):
        from hopfront import solver
        from hopfront.problems import get_problem

        prob = get_problem("ex1")
        tau = default_line(prob, 100)[21]
        inner, direction, depth = solver._inner_solve, solver._direction, []

        def counting_inner(*args):
            depth.append(0)
            return inner(*args)

        def counting_direction(k, pt, gvec, *args):
            depth[-1] += len(gvec) > 0  # a lone solve: one row per descent step
            return direction(k, pt, gvec, *args)

        monkeypatch.setattr(solver, "_inner_solve", counting_inner)
        monkeypatch.setattr(solver, "_direction", counting_direction)
        res = solve(prob.objective, prob.default_preference(), prob.params_for(tau), constraints=prob.constraints)
        assert res.converged
        assert depth and max(depth) < solver._MAXIT_U  # four inner solves hit it with halving


class TestMeritSafeguard:
    """Each dual candidate gets one inner solve, and its last point is the
    candidate: one merit evaluation per inner solve, after the initial one."""

    def test_ex1_sweep_merit_evals(self, monkeypatch):
        """The damped candidates of a batch iteration share stacked rounds (13
        merit calls on this sweep, 22 with one theta per round), while a lone
        solve tries one theta per round: on the samples whose dual step is
        damped the two agree bit for bit."""
        from hopfront import solver
        from hopfront.sweep import sweep

        merit, inner, merit_calls, inner_calls = solver.merit_psi, solver._inner_solve, [], []

        def counting_merit(*args, **kwargs):
            merit_calls.append(1)
            return merit(*args, **kwargs)

        def counting_inner(*args):
            inner_calls.append(1)
            return inner(*args)

        monkeypatch.setattr(solver, "merit_psi", counting_merit)
        monkeypatch.setattr(solver, "_inner_solve", counting_inner)
        prob = get_problem("ex1")
        g = prob.default_preference()
        tau = default_line(prob, 100)
        front = sweep(prob, tau, g)
        assert sum(r.converged for r in front) == 100
        assert len(merit_calls) == front.merit_evals == len(inner_calls) + 1
        assert front.merit_evals <= 16
        # the samples whose dual step is damped (theta < 1) at some iteration
        for i in (0, 1, 2, 3, 4, 5, 10, 11, 15, 21):
            r = front[i]
            lone = solve(prob.objective, g, prob.params_for(tau[i]), constraints=prob.constraints)
            assert r.u_star.tobytes() == lone.u_star.tobytes()
            assert r.pi_star.tobytes() == lone.pi_star.tobytes()
            assert r.objectives.tobytes() == lone.objectives.tobytes()
            assert (r.residual_history[-1], r.iterations, r.converged) == (lone.residual_history[-1],
                                                                           lone.iterations, lone.converged)

    @pytest.mark.parametrize("name", ["ex1", "ex3b"])
    def test_damped_round_within_full_step(self, monkeypatch, name):
        # No damped round holds more rows than its iteration's full-step
        # round: the first inner solve after each dual step (the one call of
        # g.gradient outside an inner solve) with as many rows as that step.
        from hopfront import solver
        from hopfront.sweep import sweep

        prob = get_problem(name)
        g = prob.default_preference()
        inner, gradient, rounds, inside = solver._inner_solve, g.gradient, [], []

        def spy_inner(f, g_, k, pt, *args):
            inside.append(1)
            try:
                rounds[-1].append(len(pt.u))
                return inner(f, g_, k, pt, *args)
            finally:
                inside.pop()

        def spy_gradient(y):
            if not inside:  # the dual step starts an outer iteration
                rounds.append([len(y)])
            return gradient(y)

        monkeypatch.setattr(solver, "_inner_solve", spy_inner)
        monkeypatch.setattr(g, "gradient", spy_gradient)
        front = sweep(prob, default_line(prob, 100), g)
        assert sum(r.converged for r in front) == 100
        assert sum(len(r) - 1 for r in rounds) == front.merit_evals - 1  # every inner solve is seen
        damped = [r for r in rounds if len(r) > 2]
        assert damped  # some iteration damps its dual step
        for dual, full, *rest in rounds:
            assert full == dual and max(rest, default=0) <= full

    @pytest.mark.parametrize("name, lo, hi", [("ex2a", 0.1985, 0.2103), ("ex2b", 0.2628, 0.2640)])
    def test_former_merit_stall_bands_converge(self, name, lo, hi):
        # a candidate relaxed toward its base kept a multiplier on an interior
        # point there, so every trial raised the merit and the row stalled
        prob = get_problem(name)
        t = np.linspace(lo, hi, 201)[:, None]
        params = prob.params_for(prob.tau_start + t * (prob.tau_end - prob.tau_start))
        results = solve_batch(prob.objective, prob.default_preference(), params, constraints=prob.constraints)
        assert [i for i, r in enumerate(results) if not r.converged] == []

    def test_ex2b_twenty_sample_sweep_converges(self):
        from hopfront.sweep import sweep

        prob = get_problem("ex2b")
        assert sum(r.converged for r in sweep(prob, default_line(prob, 20))) == 20


class TestCertifyGap:
    def quad_setup(self, x):
        f = VectorObjective(1, 1, lambda u: u**2, lambda u: 2.0 * u[:, :, None])
        g = WeightedSum([1.0])
        params = scalar_params(x=x)
        grid = np.linspace(-2.0, 2.0, 4001).reshape(-1, 1)
        cloud = SampleCloud(grid, f.value_batch(grid), "grid(4001)")
        return f, g, params, cloud

    def test_quadratic_gap_within_bregman_bound(self):
        f, g, params, cloud = self.quad_setup(x=1.0)
        res = solve(f, g, params, SolverConfig(eps=1e-10))
        assert res.u_star[0] == pytest.approx(0.25, abs=1e-10)
        [(gap, bound)] = gap_certificates(g, [res], params, cloud)
        assert bound == pytest.approx(0.125, abs=1e-9)
        assert -1e-9 <= gap <= bound + 1e-9

    def test_bound_is_the_bregman_distance_of_the_regularizer(self, rng):
        # D_R(u, v) = R(u) - R(v) - grad R(v) . (u - v) for R(u) = mu/2 |u|^2
        # at the dual point v = p / mu, where grad R(v) = p
        from hopfront.solver import SolveResult

        mu = 0.37
        params = HopfLaxParams(np.zeros(4), np.zeros(1), alpha=1.0, c=1.0, mu=mu)
        cloud = SampleCloud(np.zeros((1, 4)), np.zeros((1, 1)), "origin")
        R = lambda u: 0.5 * mu * (u @ u)  # noqa: E731
        for _ in range(50):
            u, p = rng.normal(size=4), rng.normal(size=4)
            res = SolveResult(u, np.ones(1), p, np.zeros(1), np.zeros(1), 1, True)
            [(_, bound)] = gap_certificates(WeightedSum([1.0]), [res], params, cloud)
            v = p / mu
            assert abs(bound - (R(u) - R(v) - p @ (u - v))) <= 1e-12

    def test_no_results_give_no_certificates(self):
        f, g, params, cloud = self.quad_setup(x=1.0)
        assert gap_certificates(g, [], params, cloud) == []
        assert gap_certificates(SoftMax(0.1, 1), [], params, cloud) == []

    def test_softmax_batched_value_equals_the_value_of_each_row(self):
        # the stacked gaps of gap_certificates are the lone g.value ones
        rng = np.random.default_rng(5)
        for N in range(2, 14):
            g = SoftMax(0.1, N)
            Y = rng.normal(scale=3.0, size=(1000, N)) * 10.0 ** rng.uniform(-2, 2, size=(1000, 1))
            assert g.value_batch(Y).tolist() == [g.value(y) for y in Y]

    @pytest.mark.parametrize("pid", ["ex1", "ex3b"])
    def test_softmax_certificates_equal_the_per_result_formula(self, pid):
        prob = get_problem(pid)
        g = prob.default_preference()
        cloud = certification_cloud(prob, mc=2000, seed=0)
        tau = np.linspace(prob.tau_start, prob.tau_end, 12)
        params = HopfLaxParams(x=prob.x, tau=tau, alpha=prob.alpha, c=prob.c, mu=prob.mu)
        results = solve_batch(prob.objective, g, params, constraints=prob.constraints)
        minima = _cloud_minima(g, cloud.points_obj, np.stack([r.E_bar for r in results]))
        lone = []
        for r, m in zip(results, minima):
            d = r.u_star - r.p_bar / params.mu
            lone.append((g.value(r.objectives + r.E_bar) - m, 0.5 * params.mu * float(d @ d)))
        assert gap_certificates(g, list(results), params, cloud) == lone

    def test_zero_bregman_case_has_zero_gap(self):
        # x chosen so the stationary point coincides with the dual point p/mu
        f = VectorObjective(1, 1, lambda u: (u - 1.0) ** 2, lambda u: 2.0 * (u[:, :, None] - 1.0))
        g = WeightedSum([1.0])
        params = scalar_params(x=2.0)
        grid = np.linspace(-1.0, 3.0, 8001).reshape(-1, 1)
        cloud = SampleCloud(grid, f.value_batch(grid), "grid(8001)")
        res = solve(f, g, params, SolverConfig(eps=1e-11))
        assert res.u_star[0] == pytest.approx(1.0, abs=1e-10)
        [(gap, bound)] = gap_certificates(g, [res], params, cloud)
        assert bound <= 1e-18
        assert abs(gap) <= 1e-7


def direct_minima(g, Y, E):
    return [float(np.min(g.value_batch(Y + e))) for e in E]


def screened_minima(g, Y, E):
    """``_cloud_minima`` and the row count of each ``g.value_batch`` call it made."""
    rows, call = [], g.value_batch
    g.value_batch = lambda Z: (rows.append(len(Z)), call(Z))[1]
    try:
        return _cloud_minima(g, Y, E).tolist(), rows
    finally:
        del g.value_batch


class TestCloudMinima:
    @pytest.mark.parametrize("pid", ["ex1", "ex2b", "ex3b"])
    def test_screen_equals_direct_on_certification_clouds(self, pid):
        # the clouds and shifts of `hopfront sweep --compare --mc 10000`
        prob = get_problem(pid)
        cloud = certification_cloud(prob, mc=10000, seed=0)
        if prob.objective.dim_obj == 2:
            cloud = greedy_pareto_filter(cloud)
        g = SoftMax(0.1, prob.objective.dim_obj)
        tau = np.linspace(prob.tau_start, prob.tau_end, 100)
        params = HopfLaxParams(x=prob.x, tau=tau, alpha=prob.alpha, c=prob.c, mu=prob.mu)
        E = np.stack([r.E_bar for r in solve_batch(prob.objective, g, params, constraints=prob.constraints)])
        Y = cloud.points_obj
        minima, rows = screened_minima(g, Y, E)
        assert minima == direct_minima(g, Y, E)
        assert rows == [100]  # one call, every column screened down to one row

    def test_near_tie_and_duplicates_return_direct_minimum(self):
        g = SoftMax(0.1, 3)
        E = np.array([[0.37, -0.21, 0.05]])
        a = np.array([100.12210840646743, 100.61510817729423, 100.40122430789297])
        b = (a + E[0])[[2, 0, 1]] - E[0]  # the same shifted soft max in exact arithmetic
        va, vb = g.value_batch(np.stack([a, b]) + E[0])
        assert vb - va == np.spacing(va)  # one ulp apart as computed; the screen's S ranks b first
        pad = a.max() - 0.01 * np.random.default_rng(0).random((500, 3))  # worse rows below max a
        Y = np.concatenate([pad[:250], [b, a, b, a], pad[250:]])
        minima, rows = screened_minima(g, Y, E)
        assert minima == direct_minima(g, Y, E) == [va]
        assert rows == [4]  # both tied rows and their duplicates, nothing else

    def test_column_minima_in_different_chunks(self):
        # each column's minimum sits in its own 1024-row chunk, none in the
        # first; at offset 1 none is a row of the screen's every-third-row
        # subsample, so only the chunks' lower bounds find them
        g = SoftMax(0.1, 3)
        for offset in (0, 1):
            Y = 0.2 + 0.8 * np.random.default_rng(3).random((4000, 3))
            best = {1500 + offset: [0.0, 0.3, 0.3], 2100 + offset: [0.3, 0.0, 0.3], 3900 + offset: [0.3, 0.3, 0.0]}
            for r, y in best.items():
                Y[r] = y
            E = 0.5 * np.eye(3)
            minima, rows = screened_minima(g, Y, E)
            assert minima == direct_minima(g, Y, E)
            assert minima == [float(g.value_batch(Y[r] + e)[0]) for r, e in zip(best, E)]
            assert rows == [3]

    def test_near_tie_straddling_a_chunk_boundary(self):
        g = SoftMax(0.1, 3)
        E = np.array([[0.37, -0.21, 0.05]])
        a = np.array([100.12210840646743, 100.61510817729423, 100.40122430789297])
        b = (a + E[0])[[2, 0, 1]] - E[0]
        va, vb = g.value_batch(np.stack([a, b]) + E[0])
        assert vb - va == np.spacing(va)
        pad = a.max() - 0.01 * np.random.default_rng(4).random((3000, 3))
        for first, second in ((a, b), (b, a)):
            Y = np.concatenate([pad[:1023], [first, second], pad[1023:]])  # rows 1023 and 1024
            minima, rows = screened_minima(g, Y, E)
            assert minima == direct_minima(g, Y, E) == [va]
            assert rows == [2]

    def test_range_beyond_exponent_range_takes_direct_path(self):
        rng = np.random.default_rng(1)
        g = SoftMax(0.1, 3)
        Y = rng.random((3000, 3))
        E = rng.random((4, 3))
        E[1, 2] = 100.0  # exp(-1000) underflows in B: this column takes the whole cloud
        minima, rows = screened_minima(g, Y, E)
        assert minima == direct_minima(g, Y, E)
        assert sorted(rows) == [3, 3000]  # the three screened columns' candidates in one call
        Y[7] = [0.0, 100.0, 0.0]  # and in A: every column does
        minima, rows = screened_minima(g, Y, E)
        assert minima == direct_minima(g, Y, E)
        assert rows == [3000] * 4

    def test_weighted_sum_takes_direct_path(self):
        rng = np.random.default_rng(2)
        g = WeightedSum([1.0, 2.0, 0.5])
        Y, E = rng.random((2000, 3)), rng.random((3, 3))
        minima, rows = screened_minima(g, Y, E)
        assert minima == direct_minima(g, Y, E)
        assert rows == [2000] * 3
