import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from hopfront.core import (
    Chebyshev,
    HopfLaxParams,
    NondifferentiableError,
    QuadraticRegularizer,
    SoftMax,
    VectorObjective,
    WeightedSum,
    as_vector,
    jacobian_check,
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

    def test_chebyshev(self):
        assert Chebyshev([1.0, 1.0]).value([2.0, 5.0]) == 5.0

    def test_softmax_overflow_safe(self):
        g = SoftMax(0.1, 2)
        v = g.value([1e4, -1e4])
        assert np.isfinite(v) and v == pytest.approx(1e4)

    def test_nonfinite_input_rejected(self):
        g = SoftMax(0.1, 2)
        with pytest.raises(ValueError):
            g.value([np.nan, 0.0])
        with pytest.raises(ValueError):
            g.gradient([np.inf, 0.0])

    def test_value_batch_matches_value(self, rng):
        for g in (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5]), Chebyshev([1.0, 2.0, 0.5])):
            Y = rng.normal(size=(20, 3))
            batch = g.value_batch(Y)
            single = [g.value(y) for y in Y]
            assert np.allclose(batch, single, atol=1e-14)

    def test_monotone_in_coordinatewise_order(self, rng):
        gs = (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5]), Chebyshev([1.0, 2.0, 0.5]))
        for _ in range(200):
            y = rng.normal(scale=2.0, size=3)
            delta = rng.uniform(0.0, 1.0, size=3)
            for g in gs:
                assert g.value(y + delta) >= g.value(y) - 1e-12

    def test_midpoint_convexity_probe(self, rng):
        gs = (SoftMax(0.1, 3), WeightedSum([0.2, 0.3, 0.5]), Chebyshev([1.0, 2.0, 0.5]))
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

    def test_chebyshev_gradient_off_ties(self):
        g = Chebyshev([1.0, 2.0])
        assert np.allclose(g.gradient([5.0, 1.0]), [1.0, 0.0])
        assert np.allclose(g.gradient([0.0, 1.0]), [0.0, 2.0])

    def test_chebyshev_tie_raises(self):
        g = Chebyshev([1.0, 1.0])
        with pytest.raises(NondifferentiableError):
            g.gradient([2.0, 2.0])


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
        out = g.prox_conjugate([5.0, -5.0], 1.0)
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
        for g in (SoftMax(0.1, 3), SoftMax(0.5, 3), Chebyshev([1.0, 0.5, 2.0]), WeightedSum([1.0, 2.0, 3.0])):
            worst = 0.0
            for _ in range(100):
                v = rng.normal(scale=3.0, size=3)
                rho = float(rng.uniform(0.05, 5.0))
                res = g.prox_conjugate(v, rho) + rho * g.prox_scaled(v / rho, rho) - v
                worst = max(worst, float(np.linalg.norm(res)))
            assert worst <= 1e-10

    def test_chebyshev_prox_conjugate_is_projection(self, rng):
        w = np.array([1.0, 2.0])
        g = Chebyshev(w)
        a = 1.0 / w
        for _ in range(50):
            v = rng.normal(scale=2.0, size=2)
            p = g.prox_conjugate(v, float(rng.uniform(0.1, 3.0)))
            assert np.all(p >= -1e-14)
            assert a @ p == pytest.approx(1.0, abs=1e-12)
            # no sampled feasible point is closer to v
            t = rng.uniform(0.0, 1.0, size=400)
            samples = np.stack([t * w[0], (1 - t) * w[1]], axis=1)
            best = np.min(np.linalg.norm(samples - v, axis=1))
            assert np.linalg.norm(p - v) <= best + 1e-6

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

    def test_sharp_softmax_tie_splits_evenly(self):
        g = SoftMax(1e-6, 3)
        p = g.prox_conjugate(np.array([1.0, 1.0, -5.0]), 0.5)
        assert np.allclose(p, [0.5, 0.5, 0.0], atol=1e-9)


class TestRegularizer:
    def test_bregman_examples(self):
        assert QuadraticRegularizer(2.0).bregman([1.0, 0.0], [0.0, 0.0]) == 1.0
        assert QuadraticRegularizer(0.7).bregman([1.2, -3.0], [1.2, -3.0]) == 0.0
        assert QuadraticRegularizer(0.01).bregman([3.0, 4.0], [0.0, 0.0]) == pytest.approx(0.125)

    def test_bregman_matches_definition(self, rng):
        R = QuadraticRegularizer(0.37)
        for _ in range(50):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            direct = R.value(u) - R.value(v) - float(R.gradient(v) @ (u - v))
            assert abs(R.bregman(u, v) - direct) <= 1e-12

    def test_conjugate_gradient_inverts_gradient(self, rng):
        R = QuadraticRegularizer(2.5)
        p = rng.normal(size=3)
        assert np.allclose(R.gradient(R.conjugate_gradient(p)), p)

    def test_mu_positive_required(self):
        with pytest.raises(ValueError):
            QuadraticRegularizer(0.0)


class TestVectorObjective:
    def test_identity_jacobian_check(self):
        f = VectorObjective(3, 3, lambda u: u, lambda u: np.eye(3))
        assert jacobian_check(f, [0.3, -1.0, 2.0]) <= 1e-12

    def test_fd_fallback_used_without_analytic_jacobian(self):
        f = VectorObjective(2, 1, lambda u: np.array([u[0] ** 2 + u[1]]))
        J = f.jacobian(np.array([1.5, 2.0]))
        assert np.allclose(J, [[3.0, 1.0]], atol=1e-6)

    def test_nonfinite_objective_raises(self):
        from hopfront.core import NumericalError

        f = VectorObjective(1, 1, lambda u: np.array([np.inf]))
        with pytest.raises(NumericalError):
            f.value([0.0])

    def test_dimension_validation(self):
        f = VectorObjective(2, 2, lambda u: u)
        with pytest.raises(ValueError):
            f.value([1.0, 2.0, 3.0])

    def test_jacobian_check_rejects_bad_step(self):
        f = VectorObjective(1, 1, lambda u: u)
        with pytest.raises(ValueError):
            jacobian_check(f, [0.0], h=0.0)


class TestHopfLaxParams:
    def test_recovery_maps(self):
        params = HopfLaxParams(x=np.array([1.0, 2.0]), tau=np.array([0.5, -0.5]), alpha=2.0, c=0.1, mu=0.01)
        pi = np.array([0.25, 0.75])
        u = np.array([1.0, -1.0])
        assert np.allclose(params.dual_shift(pi), 0.1 * (params.tau + 2.0 * pi))
        assert np.allclose(params.dual_momentum(u), 0.1 * (params.x - 2.0 * u))

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(1), tau=np.zeros(1), alpha=0.0, c=1.0, mu=1.0)
        with pytest.raises(ValueError):
            HopfLaxParams(x=np.zeros(1), tau=np.zeros(1), alpha=1.0, c=-1.0, mu=1.0)
