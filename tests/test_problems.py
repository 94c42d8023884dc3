import numpy as np
import pytest

from conftest import constraint_value, jacobian_check

from hopfront.problems import (
    example1,
    example2_case1,
    example2_case2,
    example3_case1,
    example3_case2,
    get_problem,
    problem_ids,
)


class TestExample1:
    def test_objective_values(self):
        f = example1().objective
        assert np.allclose(f.value([1.0, 1.0]), [-1.0, 2.0])

    def test_constraints_active_at_corner(self):
        k = example1().constraints
        assert np.allclose(constraint_value(k, [1.0, 1.0]), [0.0, 0.0])

    def test_jacobian_formula(self):
        f = example1().objective
        assert np.allclose(f.jacobian([0.3, 0.7]), [[-1.0, 0.0], [1.0, 1.4]])

    def test_feasibility_geometry(self):
        k = example1().constraints
        assert constraint_value(k, [1.0, 1.0]).min() >= -k.membership_tol
        assert constraint_value(k, [1.01, 1.01**2]).min() < -k.membership_tol

    def test_defaults(self):
        prob = example1()
        assert (prob.alpha, prob.c, prob.mu) == (1.0, 0.1, 0.01)
        assert np.array_equal(prob.x, np.zeros(2))
        assert np.array_equal(prob.tau_start, [-10.0, 10.0])
        assert np.array_equal(prob.tau_end, [10.0, -10.0])


class TestExample2:
    def test_case1_diagonal_midpoint(self):
        f = example2_case1().objective
        assert np.allclose(f.value([0.5, 0.5]), [0.5, 0.5])

    def test_case1_off_diagonal_penalty(self):
        f = example2_case1().objective
        l_mid = f.value([0.5, 0.5])
        l_off = f.value([0.5, 0.7])
        assert l_off[0] - l_mid[0] == pytest.approx(0.5 * 0.04)

    def test_case2_origin_value(self):
        f = example2_case2().objective
        vals = f.value([0.0, 0.0])
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(2.002197265625)

    def test_box_defaults(self):
        prob = example2_case2()
        lo, hi = prob.feasible_box
        assert np.array_equal(lo, np.zeros(2)) and np.array_equal(hi, np.ones(2))
        assert (prob.alpha, prob.c, prob.mu) == (1.0, 0.1, 0.01)


class TestExample3:
    def test_constant_vector_reduction(self):
        for d in (2, 7):
            f = example3_case1(d).objective
            ones = np.ones(d)
            s_based = f.value(ones)
            assert np.isfinite(s_based).all()
        f = example3_case1(5).objective
        # s(1) = 1, r2(1) = 0 so ell_1 = 1 + 0.1 sin(2 pi) = 1
        assert f.value(np.ones(5))[0] == pytest.approx(1.0)

    def test_on_diagonal_quarter_point(self):
        f = example3_case1(6).objective
        u = 0.25 * np.ones(6)
        assert f.value(u)[0] == pytest.approx(0.25 + 0.1 * 1.0)

    def test_diagonal_values_independent_of_dimension(self):
        ts = np.linspace(0.0, 1.0, 20)
        vals = {}
        for d in (3, 10, 30):
            f = example3_case1(d).objective
            vals[d] = np.stack([f.value(t * np.ones(d)) for t in ts])
        assert np.allclose(vals[3], vals[10], atol=1e-12)
        assert np.allclose(vals[10], vals[30], atol=1e-12)

    def test_parameters_scale_with_dimension(self):
        prob = example3_case1(50)
        assert prob.c == pytest.approx(0.1 / 50)
        assert prob.mu == pytest.approx(0.01 / 50)
        # tau range counter-scales so c * tau is dimension-free
        assert np.max(np.abs(prob.tau_start)) * prob.c == pytest.approx(1.0)

    def test_case2_objective_well_bottoms(self):
        f = example3_case2().objective
        u = 0.2 * np.ones(20)
        vals = f.value(u)
        assert vals[2] == pytest.approx(0.0, abs=1e-15)  # (s - 0.2)^2 well
        u = 0.8 * np.ones(20)
        assert f.value(u)[3] == pytest.approx(0.0, abs=1e-15)

    def test_case1_requires_d_at_least_two(self):
        with pytest.raises(ValueError):
            example3_case1(1)


class TestJacobians:
    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b"])
    def test_analytic_jacobians_match_finite_differences(self, pid, rng):
        prob = get_problem(pid)
        lo, hi = prob.feasible_box
        for _ in range(10):
            u = rng.uniform(lo, hi)
            assert jacobian_check(prob.objective, u) <= 1e-5

    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3a-d100", "ex3b"])
    def test_stack_rows_equal_single_points_bit_for_bit(self, pid, rng):
        # The solver and the envelope evaluate stacks; each row must be what
        # the point alone gives, to the last bit.
        prob = get_problem(pid)
        f, (lo, hi) = prob.objective, prob.feasible_box
        U = rng.uniform(lo, hi, size=(20000, f.dim_u))
        assert f.value_batch(U).tobytes() == np.stack([f.value(u) for u in U]).tobytes()
        assert f.jacobian_batch(U).tobytes() == np.stack([f.jacobian(u) for u in U]).tobytes()


class TestRegistry:
    def test_ids_resolve(self):
        for pid in ("ex1", "ex2a", "ex2b", "ex3b", "ex3a-d3", "ex3a-d100"):
            assert get_problem(pid).id == pid

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_problem("nope")

    def test_listing_mentions_parametric_family(self):
        assert any("ex3a" in pid for pid in problem_ids())
