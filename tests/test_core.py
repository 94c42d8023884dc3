import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import default_line, jacobian_check

from hopfront.core import (
    HopfLaxParams,
    SoftMax,
    VectorObjective,
    WeightedSum,
    as_vector,
)


def fd_gradient(fun, y, h=1e-6):
    y = np.asarray(y, dtype=float)
    grad = np.zeros_like(y)
    for i in range(y.size):
        e = np.zeros_like(y)
        e[i] = h
        grad[i] = (fun(y + e) - fun(y - e)) / (2 * h)
    return grad


class TestAsVector:
    def test_huge_finite_accepted_nonfinite_rejected(self):
        # the sum of these entries overflows although every entry is finite;
        # neither case may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = as_vector([1e308, 1e308], 2)
            assert v.tolist() == [1e308, 1e308]
            assert as_vector([-1e308, -1e308, 1.0]).shape == (3,)
            for bad in ([np.nan, 0.0], [np.inf, 1.0], [1e308, np.inf], [-np.inf, np.inf]):
                with pytest.raises(ValueError):
                    as_vector(bad)


class TestPreferenceValues:
    def test_softmax_symmetric_pair(self):
        g = SoftMax(0.1, 2)
        assert g.value([0.0, 0.0]) == pytest.approx(0.1 * math.log(2), abs=1e-15)

    def test_weighted_sum(self):
        g = WeightedSum([0.5, 0.5])
        assert g.value([1.0, 3.0]) == 2.0

    def test_softmax_overflow_safe(self):
        g = SoftMax(0.1, 2)
        v = g.value([1e4, -1e4])
        assert np.isfinite(v) and v == pytest.approx(1e4)

    @pytest.mark.parametrize("n", [2, 9])
    def test_softmax_where_y_over_eps_overflows(self, n):
        # y / eps overflows, and a shift across the whole float range
        # overflows in the gradient; neither may warn or return NaN
        g = SoftMax(0.1, n)
        y = np.zeros(n)
        y[0] = 2e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.value(y) == 2e307
            Y = np.stack([y, np.arange(n) * 2e307])
            assert g.value_batch(Y).tolist() == [2e307, Y[1, -1]]
            y[1] = -1e307
            y[0] = 1e307
            assert g.gradient(y).tolist() == [1.0] + [0.0] * (n - 1)
            # finite rows whose sum overflows keep their direct values
            wide, Y = SoftMax(10.0, n), np.zeros((2, n))
            Y[:, 0] = 1.5e308
            assert wide.value_batch(Y).tolist() == [wide.value(Y[0])] * 2

    def test_nonfinite_input_rejected(self):
        g = SoftMax(0.1, 2)
        with pytest.raises(ValueError):
            g.value([np.nan, 0.0])
        with pytest.raises(ValueError):
            g.gradient([np.inf, 0.0])

    def test_value_batch_matches_value(self, rng):
        for g in (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5])):
            Y = rng.normal(size=(20, 3))
            batch = g.value_batch(Y)
            single = [g.value(y) for y in Y]
            assert np.allclose(batch, single, atol=1e-14)

    def test_monotone_in_coordinatewise_order(self, rng):
        gs = (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5]))
        for _ in range(200):
            y = rng.normal(scale=2.0, size=3)
            delta = rng.uniform(0.0, 1.0, size=3)
            for g in gs:
                assert g.value(y + delta) >= g.value(y) - 1e-12

    def test_midpoint_convexity_probe(self, rng):
        gs = (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5]))
        for _ in range(200):
            y1 = rng.normal(scale=3.0, size=3)
            y2 = rng.normal(scale=3.0, size=3)
            for g in gs:
                mid = g.value(0.5 * (y1 + y2))
                assert mid <= 0.5 * (g.value(y1) + g.value(y2)) + 1e-12


class TestGradients:
    def test_softmax_symmetric(self):
        g = SoftMax(0.1, 2)
        assert np.allclose(g.gradient([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_softmax_closed_form_and_fd(self):
        g = SoftMax(0.1, 2)
        grad = g.gradient([0.1, 0.0])
        e = math.e
        assert np.allclose(grad, [e / (1 + e), 1 / (1 + e)], atol=1e-12)
        assert np.allclose(grad, fd_gradient(g.value, [0.1, 0.0]), atol=1e-6)

    def test_softmax_gradient_simplex(self, rng):
        g = SoftMax(0.1, 4)
        for _ in range(100):
            y = rng.normal(scale=5.0, size=4)
            grad = g.gradient(y)
            assert abs(grad.sum() - 1.0) <= 1e-12
            assert np.all(grad > 0)
            assert np.allclose(grad, fd_gradient(g.value, y), atol=1e-6)

    def test_weighted_sum_gradient_is_weights(self, rng):
        w = np.array([0.3, 0.7])
        g = WeightedSum(w)
        assert np.array_equal(g.gradient(rng.normal(size=2)), w)


class TestProxCalculus:
    def test_weighted_sum_prox_conjugate_constant(self, rng):
        w = np.array([0.3, 0.7])
        g = WeightedSum(w)
        for _ in range(10):
            v = rng.normal(scale=4.0, size=2)
            rho = float(rng.uniform(0.1, 5.0))
            assert np.array_equal(g.prox_conjugate(v, rho), w)

    def test_softmax_prox_conjugate_simplex(self):
        g = SoftMax(0.1, 2)
        # at large |v| the Moreau form v - rho prox(v/rho) cancels to 0
        for v in ([5.0, -5.0], [5e299, -5e299], [1e20, 0.0]):
            out = g.prox_conjugate(v, 1.0)
            assert out.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(out >= 0)

    def test_softmax_prox_scaled_against_direct_minimization(self, rng):
        # independent oracle: minimize g(w)/rho + 0.5||w - v||^2 directly
        g = SoftMax(0.1, 2)
        for _ in range(5):
            v = rng.normal(scale=2.0, size=2)
            rho = float(rng.uniform(0.3, 3.0))
            res = minimize(
                lambda w: g.value(w) / rho + 0.5 * float((w - v) @ (w - v)),
                v,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
            )
            assert np.allclose(g.prox_scaled(v, rho), res.x, atol=5e-6)

    def test_prox_conjugate_small_rho_fixes_simplex_points(self):
        g = SoftMax(0.1, 3)
        v = np.array([0.5, 0.3, 0.2])
        gaps = [np.linalg.norm(g.prox_conjugate(v, rho) - v) for rho in (1.0, 0.1, 0.01, 1e-4)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-4

    def test_moreau_identity(self, rng):
        for g in (SoftMax(0.1, 3), SoftMax(0.5, 3), WeightedSum([1.0, 2.0, 3.0])):
            worst = 0.0
            for _ in range(100):
                v = rng.normal(scale=3.0, size=3)
                rho = float(rng.uniform(0.05, 5.0))
                res = g.prox_conjugate(v, rho) + rho * g.prox_scaled(v / rho, rho) - v
                worst = max(worst, float(np.linalg.norm(res)))
            assert worst <= 1e-10

    def test_prox_rho_validation(self):
        g = SoftMax(0.1, 2)
        with pytest.raises(ValueError):
            g.prox_conjugate([0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            g.prox_scaled([0.0, 0.0], -1.0)

    def test_softmax_prox_robust_at_extreme_scales(self, rng):
        # simplex membership and the Moreau identity hold to rounding at the
        # input's own scale
        g = SoftMax(0.1, 4)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3, 7)
            v = rng.normal(size=4) * scale
            rho = 10.0 ** rng.uniform(-4, 3)
            p = g.prox_conjugate(v, rho)
            tol = 1e-11 * max(1.0, float(np.abs(v).max()))
            assert np.all(p >= -tol)
            assert abs(p.sum() - 1.0) <= 1e-8 + tol
            resid = np.linalg.norm(p + rho * g.prox_scaled(v / rho, rho) - v)
            assert resid <= tol

    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(
        v=st.integers(2, 5).flatmap(lambda n: st.lists(st.floats(-1e307, 1e307), min_size=n, max_size=n)),
        eps=st.floats(1e-3, 10.0),
        rho=st.floats(1e-10, 1e3),
    )
    def test_entropic_weights_finite_when_v_over_rho_overflows(self, v, eps, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = SoftMax(eps, len(v)).prox_conjugate(v, rho)
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_sharp_softmax_tie_splits_evenly(self):
        g = SoftMax(1e-6, 3)
        p = g.prox_conjugate(np.array([1.0, 1.0, -5.0]), 0.5)
        assert np.allclose(p, [0.5, 0.5, 0.0], atol=1e-9)


class TestWrightOmega:
    """The numpy Wright omega behind the soft-max prox, against scipy's."""

    def test_matches_scipy(self):
        from scipy.special import wrightomega

        from hopfront.core import _wright_omega

        branch = np.array([-2.0, 1.0, -50.0, 1e20])
        near = np.concatenate([branch, np.nextafter(branch, -np.inf), np.nextafter(branch, np.inf),
                               (branch[:, None] * (1.0 + np.array([-1e-12, 1e-12]))).ravel()])
        x = np.concatenate([-np.logspace(3, -12, 4000), [0.0], np.logspace(-12, 20, 8000), near])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _wright_omega(x)
            edge = _wright_omega(np.array([-np.inf, np.inf]))
        ref = wrightomega(x)
        assert np.array_equal(w[ref == 0.0], ref[ref == 0.0])  # exp(x) underflows below -745
        pos = ref > 0.0
        assert (np.abs(w[pos] - ref[pos]) <= 1e-15 * ref[pos]).all()
        assert edge[0] == 0.0 and edge[1] == np.inf


def counted_omega(monkeypatch):
    import hopfront.core as core

    calls, omega = [], core._wright_omega
    monkeypatch.setattr(core, "_wright_omega", lambda x: (calls.append(1), omega(x))[1])
    return calls


class TestWarmProx:
    """A guess ``start`` of the soft-max prox's weights only moves where Newton starts."""

    @staticmethod
    def hints(rng, exact):
        n, N = exact.shape
        zero_entry = rng.dirichlet(np.ones(N), size=n)
        zero_entry[:, 0] = 0.0
        return {
            "simplex": rng.dirichlet(np.ones(N), size=n),
            "zero entry": zero_entry / zero_entry.sum(axis=1, keepdims=True),
            "vertex": np.eye(N)[rng.integers(0, N, n)],
            "zeros": np.zeros((n, N)),
            "perturbed": np.clip(exact + 1e-3 * rng.normal(size=exact.shape), 0.0, None),
            "exact": exact,
        }

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("rho", [1e-10, 0.5, 5.0])
    @pytest.mark.parametrize("eps", [1e-3, 0.1, 2.0])
    def test_warm_start_meets_the_stop_test_and_matches_cold(self, N, rho, eps, rng):
        g = SoftMax(eps, N)
        V = rng.normal(size=(200, N)) * np.repeat(10.0 ** np.array([0.0, 1.0, 5.0, 100.0, 300.0]), 40)[:, None]
        V[::7] = V[::7, :1]  # every entry tied
        cold = g.prox_conjugate(V, rho)
        for name, hint in self.hints(rng, cold).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warm = g.prox_conjugate(V, rho, start=hint)
            assert np.all(warm >= 0.0), name
            assert np.abs(warm.sum(axis=1) - 1.0).max() <= 1e-13, name
            assert np.abs(warm - cold).max() <= 1e-12, name

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_exact_answer_takes_at_most_two_evaluations(self, N, rng, monkeypatch):
        g = SoftMax(0.1, N)
        V = rng.normal(size=(200, N)) * 10.0 ** rng.uniform(0, 300, size=(200, 1))
        for rho in (1e-10, 0.5, 5.0):
            exact = g.prox_conjugate(V, rho)
            calls = counted_omega(monkeypatch)
            for v, p in zip(V, exact):
                calls.clear()
                g.prox_conjugate(v, rho, start=p)
                assert len(calls) <= 2
            calls.clear()
            g.prox_conjugate(V, rho, start=exact)  # the stack, in lock step
            assert len(calls) <= 2

    def test_merit_warm_start_cuts_omega_calls_of_an_ex1_sweep(self, monkeypatch):
        from hopfront import get_problem, sweep

        calls = counted_omega(monkeypatch)
        prob = get_problem("ex1")
        front = sweep(prob, default_line(prob, 100))
        assert sum(r.converged for r in front) == 100
        assert len(calls) <= 0.6 * 290  # 290 when every prox starts at the bracket end

    def test_point_hint_and_weighted_sum(self):
        v = np.array([0.3, -1.2, 0.4])
        g = SoftMax(0.1, 3)
        p = g.prox_conjugate(v, 0.5)
        assert np.abs(g.prox_conjugate(v, 0.5, start=[0.2, 0.3, 0.5]) - p).max() <= 1e-12
        w = WeightedSum([0.2, 0.3, 0.5])
        assert np.array_equal(w.prox_conjugate(v, 0.5, start=[1.0, 0.0, 0.0]), w.weights)


class TestStackedKernels:
    """Every stacked scalarizer kernel equals its per-row form bit for bit."""

    @pytest.mark.parametrize("N", [2, 5, 9])
    def test_softmax_value_batch_equals_row_form(self, N, rng):
        g = SoftMax(0.1, N)
        Y = rng.normal(scale=3.0, size=(3000, N)) * 10.0 ** rng.integers(-3, 3, size=(3000, 1))
        z = Y / g.eps
        m = z.max(axis=1, keepdims=True)
        terms = np.exp(z - m)
        total = terms[:, 0].copy()
        for col in terms.T[1:]:  # each row's terms added left to right
            total += col
        rows = g.eps * (m[:, 0] + np.log(total))
        assert g.value_batch(Y).tobytes() == rows.tobytes()
        assert g.value_batch(Y[:50]).tolist() == [g.value(y) for y in Y[:50]]

    @staticmethod
    def extreme_rows(rng, N):
        # ordinary rows, rows near the overflow of v / rho, and ties
        scales = 10.0 ** np.array([0.0, 1.0, 5.0, 100.0, 300.0, 307.0])
        V = rng.normal(size=(6 * 40, N)) * np.repeat(scales, 40)[:, None]
        V[::7] = V[::7, :1]  # every entry tied
        return V

    @pytest.mark.parametrize("N", [2, 5])
    def test_softmax_gradient_stack_equals_rows(self, N, rng):
        g = SoftMax(0.1, N)
        V = self.extreme_rows(rng, N) / 1e8  # keep y / eps finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = g.gradient(V)
        for v, row in zip(V, stacked):
            w = np.exp((v - v.max()) / g.eps)
            assert row.tobytes() == (w / w.sum()).tobytes()
            assert row.tobytes() == g.gradient(v).tobytes()

    @pytest.mark.parametrize("N", [2, 5])
    @pytest.mark.parametrize("rho", [1e-10, 0.5, 5.0])
    def test_softmax_prox_conjugate_stack_equals_rows(self, N, rho, rng):
        from conftest import scalar_entropic_weights

        g = SoftMax(0.1, N)
        V = self.extreme_rows(rng, N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = g.prox_conjugate(V, rho)
            for v, row in zip(V, stacked):
                with np.errstate(over="ignore"):
                    ref = scalar_entropic_weights((v - v.max()) / rho, g.eps, rho)
                assert row.tobytes() == ref.tobytes()
                assert row.tobytes() == g.prox_conjugate(v, rho).tobytes()

    def test_weighted_sum_stacks(self, rng):
        g = WeightedSum([0.2, 0.8])
        V = rng.normal(size=(4, 2))
        assert np.array_equal(g.gradient(V), np.tile(g.weights, (4, 1)))
        assert np.array_equal(g.prox_conjugate(V, 0.5), np.tile(g.weights, (4, 1)))

    def test_stack_validation(self):
        g = SoftMax(0.1, 2)
        with pytest.raises(ValueError):
            g.gradient(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError):
            g.prox_conjugate(np.zeros((3, 3)), 0.5)


class TestVectorObjective:
    def test_identity_jacobian_check(self):
        f = VectorObjective(3, 3, lambda u: u, lambda u: np.tile(np.eye(3), (len(u), 1, 1)))
        assert jacobian_check(f, [0.3, -1.0, 2.0]) <= 1e-12

    def test_fd_fallback_used_without_analytic_jacobian(self):
        f = VectorObjective(2, 1, lambda u: u[:, :1] ** 2 + u[:, 1:])
        J = f.jacobian(np.array([1.5, 2.0]))
        assert np.allclose(J, [[3.0, 1.0]], atol=1e-6)

    def test_per_point_fn_on_a_stack_rejected(self):
        f = VectorObjective(2, 1, lambda u: np.array([u[0] ** 2 + u[1]]))
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(3, 1\)"):
            f.value_batch(np.zeros((3, 2)))

    def test_nonfinite_objective_raises(self):
        from hopfront.core import NumericalError

        f = VectorObjective(1, 1, lambda u: np.where(u > 0.5, np.inf, u))
        with pytest.raises(NumericalError):
            f.value([1.0])
        with pytest.raises(NumericalError):
            f.value_batch([[0.0], [1.0]])

    def test_dimension_validation(self):
        f = VectorObjective(2, 2, lambda u: u)
        with pytest.raises(ValueError):
            f.value([1.0, 2.0, 3.0])

    def test_jacobian_check_rejects_bad_step(self):
        f = VectorObjective(1, 1, lambda u: u)
        with pytest.raises(ValueError):
            jacobian_check(f, [0.0], h=0.0)


class TestJacobianBatch:
    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d2", "ex3a-d10", "ex3a-d100", "ex3b"])
    def test_benchmark_jacobians_match_scalar_bitwise(self, pid, rng):
        from hopfront.problems import get_problem

        problem = get_problem(pid)
        f = problem.objective
        U = rng.uniform(*problem.feasible_box, size=(500, f.dim_u))
        J = f.jacobian_batch(U)
        assert J.shape == (500, f.dim_obj, f.dim_u)
        assert np.array_equal(J, np.stack([f.jacobian(u) for u in U]))

    @pytest.mark.parametrize("with_jac", [False, True])
    def test_point_by_point_fallback(self, with_jac, rng):
        def fn(u):
            return np.stack([u[..., 0] * u[..., 1], np.sin(u[..., 0])], axis=-1)

        calls = []

        def jac(u):
            calls.append(u.shape)
            return np.stack(
                [np.stack([u[..., 1], u[..., 0]], axis=-1), np.stack([np.cos(u[..., 0]), np.zeros(len(u))], axis=-1)],
                axis=-2,
            )

        U = rng.normal(size=(7, 2))
        # without jac every row takes the finite-difference Jacobian; either way
        # the Jacobian of the stack equals the stack of each point alone
        f = VectorObjective(2, 2, fn, jac if with_jac else None)
        J = f.jacobian_batch(U)
        assert J.shape == (7, 2, 2)
        assert np.array_equal(J, np.stack([f.jacobian(u) for u in U]))
        # a jac is called once on the whole stack, then on stacks of one
        assert calls == ([(7, 2)] + [(1, 2)] * 7 if with_jac else [])

    def test_wrong_batched_shape_rejected(self):
        f = VectorObjective(2, 2, lambda u: u, lambda u: np.eye(2))
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 2, 2\)"):
            f.jacobian_batch(np.zeros((3, 2)))


class TestHopfLaxParams:
    def test_recovery_maps(self):
        params = HopfLaxParams(x=np.array([1.0, 2.0]), tau=np.array([0.5, -0.5]), alpha=2.0, c=0.1, mu=0.01)
        pi = np.array([0.25, 0.75])
        u = np.array([1.0, -1.0])
        assert np.allclose(params.dual_shift(pi), 0.1 * (params.tau + 2.0 * pi))
        assert np.allclose(params.dual_momentum(u), 0.1 * (params.x - 2.0 * u))

    def test_stacked_tau_acts_row_by_row(self, rng):
        taus = rng.normal(size=(4, 2))
        params = HopfLaxParams(x=np.array([1.0, 2.0]), tau=taus, alpha=2.0, c=0.1, mu=0.01)
        pi = rng.normal(size=(4, 2))
        assert params.dim_obj == 2
        for i in range(4):
            one = HopfLaxParams(x=np.array([1.0, 2.0]), tau=taus[i], alpha=2.0, c=0.1, mu=0.01)
            assert params.dual_shift(pi)[i].tobytes() == one.dual_shift(pi[i]).tobytes()
        assert np.array_equal(params.take([1, 3]).tau, taus[[1, 3]])
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(2), tau=np.full((2, 2), np.inf), alpha=1.0, c=1.0, mu=1.0)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(1), tau=np.zeros(1), alpha=0.0, c=1.0, mu=1.0)
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(1), tau=np.zeros(1), alpha=1.0, c=-1.0, mu=1.0)
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(1), tau=np.zeros(1), alpha=1.0, c=1.0, mu=0.0)
