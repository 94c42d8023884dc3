import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate_one

from hopfront.constrained import (
    ConstraintSet,
    box_constraints,
    project_epigraph_halfspace,
    project_halfspace,
    project_parabola_epigraph,
)
from hopfront.core import HopfLaxParams, SoftMax, VectorObjective, WeightedSum
from hopfront.problems import example1
from hopfront.solver import (
    SolverConfig,
    evaluate,
    merit_psi,
    multiplier_estimate,
    solve,
    stationarity_residual,
)


def identity_objective():
    return VectorObjective(1, 1, lambda u: u, lambda u: np.array([[1.0]]))


def scalar_params(x=0.0):
    return HopfLaxParams(x=np.array([x]), tau=np.array([0.0]), alpha=1.0, c=1.0, mu=1.0)


def halfline_constraint():
    # u >= 0 with the obvious projector
    return ConstraintSet(1, 1, lambda u: u.copy(), lambda u: np.array([[1.0]]),
                         projector=lambda u: np.maximum(u, 0.0))


def empty_constraint():
    return ConstraintSet(1, 0, lambda u: np.zeros(0), lambda u: np.zeros((0, 1)))


def ex1_params(tau=(0.0, 0.0)):
    return HopfLaxParams(x=np.zeros(2), tau=np.asarray(tau, dtype=float), alpha=1.0, c=0.1, mu=0.01)


def constrained_residual(f, k, u, pi, nu, params):
    return stationarity_residual(evaluate_one(f, k, u), pi[None], params, nu[None])[0]


class TestConstrainedResidual:
    def test_zero_multiplier_reduces_to_unconstrained(self, rng):
        prob = example1()
        params = ex1_params()
        u = rng.uniform(-1, 1, size=2)
        pi = rng.dirichlet([1, 1])
        r_con = constrained_residual(prob.objective, prob.constraints, u, pi, np.zeros(2), params)
        r_unc = stationarity_residual(evaluate_one(prob.objective, None, u), pi[None], params)[0]
        assert np.allclose(r_con, r_unc, atol=1e-15)

    def test_multiplier_cancels_gradient(self):
        f = identity_objective()
        k = halfline_constraint()
        r = constrained_residual(f, k, np.array([0.0]), np.array([1.0]), np.array([1.0]), scalar_params())
        assert r == pytest.approx(0.0)

    def test_matches_hand_assembled_jacobians(self):
        prob = example1()
        params = ex1_params()
        u = np.array([1.0, 1.0])
        pi = np.array([0.5, 0.5])
        nu = np.array([0.1, 0.2])
        Jl = np.array([[-1.0, 0.0], [1.0, 2.0]])
        Jk = np.array([[-2.0, 1.0], [-1.0, -2.0]])
        expected = Jl.T @ pi - Jk.T @ nu + 0.01 * u - 0.1 * (np.zeros(2) - u)
        got = constrained_residual(prob.objective, prob.constraints, u, pi, nu, params)
        assert np.allclose(got, expected, atol=1e-14)


def _parabola_arc(s):
    return np.stack([s, s * s], axis=-1)


def _halfspace_edge(s):
    return np.stack([s, (3.0 - s) / 2.0], axis=-1)


# The boundary of ex1's set: the two arcs over u1 in [-1.5, 1], which meet at
# the vertices (-1.5, 2.25) and (1, 1).
_BOUNDARY_GRID = np.concatenate([_parabola_arc(np.linspace(-1.5, 1.0, 2001)),
                                  _halfspace_edge(np.linspace(-1.5, 1.0, 2001))])


def _boundary_distance(p):
    # Grid search over each arc's parameter, zoomed in around the best grid
    # point until the spacing is ~1e-12.
    best = np.inf
    for arc in (_parabola_arc, _halfspace_edge):
        lo, hi, n = -1.5, 1.0, 20001
        for _ in range(5):
            s = np.linspace(lo, hi, n)
            d = np.linalg.norm(arc(s) - p, axis=1)
            i = int(np.argmin(d))
            lo, hi, n = max(-1.5, s[max(i - 1, 0)]), min(1.0, s[min(i + 1, n - 1)]), 201
        best = min(best, float(d[i]))
    return best


@st.composite
def ex1_plane_points(draw):
    # anywhere in a box around the set, or within 1e-3 of a vertex or of a
    # point on either boundary arc (0 included, so on the boundary itself)
    kind = draw(st.sampled_from(["box", "vertex", "arc", "edge"]))
    if kind == "box":
        return np.array([draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))])
    if kind == "vertex":
        base = np.array(draw(st.sampled_from([(1.0, 1.0), (-1.5, 2.25)])))
    else:
        base = (_parabola_arc if kind == "arc" else _halfspace_edge)(draw(st.floats(-1.5, 1.0)))
    near = st.floats(-1e-3, 1e-3)
    return base + np.array([draw(near), draw(near)])


class TestProjections:
    def test_parabola_feasible_fixed_point(self):
        assert np.array_equal(project_parabola_epigraph([0.3, 0.5]), [0.3, 0.5])

    def test_parabola_below_vertex(self):
        assert np.allclose(project_parabola_epigraph([0.0, -1.0]), [0.0, 0.0], atol=1e-12)

    def test_parabola_projection_matches_dense_boundary_search(self, rng):
        for _ in range(30):
            p = rng.uniform(-3, 3, size=2)
            if p[1] >= p[0] ** 2:
                continue
            xs = np.linspace(-4, 4, 400001)
            d2 = (xs - p[0]) ** 2 + (xs**2 - p[1]) ** 2
            best = xs[np.argmin(d2)]
            proj = project_parabola_epigraph(p)
            assert abs(proj[0] - best) <= 2e-5

    def test_halfspace_projection(self):
        assert np.array_equal(project_halfspace([0.0, 0.0]), [0.0, 0.0])
        p = project_halfspace([4.0, 4.0])
        assert p[0] + 2 * p[1] == pytest.approx(3.0, abs=1e-12)

    def test_dykstra_feasible_fixed_point(self):
        assert np.array_equal(project_epigraph_halfspace([0.0, 0.5]), [0.0, 0.5])

    def test_dykstra_axis_point(self):
        assert np.allclose(project_epigraph_halfspace([0.0, -1.0]), [0.0, 0.0], atol=1e-10)

    def test_dykstra_corner_against_brute_force(self):
        out = project_epigraph_halfspace([4.0, 4.0])
        # brute force: search both boundary curves of the intersection
        a = np.linspace(-1.5, 1.0, 200001)
        parab = np.stack([a, a**2], axis=1)
        edge = np.stack([a, (3.0 - a) / 2.0], axis=1)
        edge = edge[edge[:, 1] >= edge[:, 0] ** 2 - 1e-12]
        cand = np.concatenate([parab, edge])
        d2 = ((cand - np.array([4.0, 4.0])) ** 2).sum(axis=1)
        best = cand[np.argmin(d2)]
        assert np.allclose(out, best, atol=1e-4)
        assert example1().constraints.value(out).min() >= 0.0

    def test_projection_distance_matches_boundary_brute_force(self, rng):
        K = example1().constraints
        points = rng.uniform(-6, 6, size=(2000, 2))
        points = points[K.value_batch(points).min(axis=1) < 0.0][:300]
        assert len(points) == 300
        for p in points:
            exact = float(np.linalg.norm(p - project_epigraph_halfspace(p)))
            assert abs(exact - _boundary_distance(p)) <= 1e-12

    def test_stack_projects_row_by_row(self, rng):
        points = rng.uniform(-3, 3, size=(300, 2))
        stacked = project_epigraph_halfspace(points)
        assert stacked.shape == (300, 2)
        assert np.array_equal(stacked, np.stack([project_epigraph_halfspace(p) for p in points]))

    def test_stack_matches_pointwise_reference(self, rng):
        from conftest import pointwise_epigraph_halfspace

        points = np.concatenate([rng.uniform(-6, 6, size=(50_000, 2)),
                                 rng.normal(scale=[1.0, 2.0], size=(30_000, 2)),
                                 10.0 ** rng.uniform(-3, 3, size=(20_000, 1)) * rng.normal(size=(20_000, 2))])
        stacked = project_epigraph_halfspace(points)
        ref = np.stack([pointwise_epigraph_halfspace(p) for p in points])
        assert (np.abs(stacked - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))).all()
        assert example1().constraints.value_batch(stacked).min() >= 0.0
        assert np.array_equal(project_epigraph_halfspace(stacked), stacked)

    @settings(derandomize=True, deadline=None, database=None)
    @given(u=ex1_plane_points())
    def test_exact_projection_properties(self, u):
        p = project_epigraph_halfspace(u)
        assert example1().constraints.value(p).min() >= 0.0
        assert np.array_equal(project_epigraph_halfspace(p), p)
        # obtuse-angle characterisation of the projection onto a convex set
        assert ((_BOUNDARY_GRID - p) @ (u - p)).max() <= 1e-12


class TestBoxConstraints:
    @pytest.mark.parametrize("lo, hi", [
        ([0.0, 2.0], [1.0, 1.0]),  # lo > hi
        ([0.0, 1.0], [1.0, 1.0]),  # lo == hi
        ([np.nan], [1.0]),
        ([0.0], [np.nan]),
        ([0.0, 0.0], [1.0]),  # mismatched shapes
    ], ids=["lo>hi", "lo==hi", "nan-lo", "nan-hi", "shapes"])
    def test_invalid_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            box_constraints(lo, hi)


class TestMultiplierEstimate:
    def test_inactive_gives_zero(self):
        prob = example1()
        nu = multiplier_estimate(evaluate_one(prob.objective, prob.constraints, [0.0, 1.0]),
                                 np.array([[0.5, 0.5]]), ex1_params())
        assert np.array_equal(nu, np.zeros((1, 2)))

    def test_box_estimate_matches_clip_closed_form(self, rng):
        d = 3
        k = box_constraints(np.zeros(d), np.ones(d))
        f = VectorObjective(d, 1, lambda u: np.array([u.sum()]), lambda u: np.ones((1, d)))
        params = HopfLaxParams(x=np.zeros(d), tau=np.zeros(1), alpha=1.0, c=0.1, mu=0.01)
        u = np.array([0.0, 0.5, 1.0])  # lower face, free, upper face
        pi = np.array([[1.0]])
        F = stationarity_residual(evaluate_one(f, None, u), pi, params)[0]
        nu = multiplier_estimate(evaluate_one(f, k, u), pi, params)[0]
        assert nu[0] == pytest.approx(max(F[0], 0.0))   # lower face row is +e_0
        assert nu[3 + 2] == pytest.approx(max(-F[2], 0.0))  # upper face row is -e_2
        assert np.all(nu >= 0)


def nnls_reference(pt, pi, params):
    """The multipliers by scipy's NNLS, row by row over each row's nearly
    active constraints."""
    from scipy.optimize import nnls

    from hopfront.solver import _ACTIVE_THRESHOLD

    nu = np.zeros(pt.kv.shape)
    for i in np.flatnonzero((pt.kv <= _ACTIVE_THRESHOLD).any(axis=1)):
        on = np.flatnonzero(pt.kv[i] <= _ACTIVE_THRESHOLD)
        F = stationarity_residual(pt.take([i]), pi[[i]], params)[0]
        nu[i, on] = nnls(pt.k.jacobian(pt.u[i])[on].T, F)[0]
    return nu


class TestMultiplierNNLS:
    """The numpy multiplier estimate against scipy's NNLS: a box's faces in
    closed form, any other set by the lock-step Lawson-Hanson ``_nnls`` over
    every nearly active row."""

    @staticmethod
    def assert_matches_nnls(f, k, U, rng):
        n = U.shape[0]
        params = HopfLaxParams(rng.normal(size=f.dim_u), rng.normal(scale=3.0, size=(n, f.dim_obj)),
                               1.0, 0.5, 0.1)
        PI = rng.dirichlet(np.ones(f.dim_obj), size=n)
        pts = evaluate(f, k, U)
        nu, ref = multiplier_estimate(pts, PI, params), nnls_reference(pts, PI, params)
        assert (np.abs(nu - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()
        return pts, nu

    def test_box_stacks(self, rng):
        d = 4
        lo, hi = -np.ones(d), np.ones(d)
        hi[1] = lo[1] + 5e-4  # both faces of this coordinate are always nearly active
        k = box_constraints(lo, hi)
        A = rng.normal(size=(2, d))
        f = VectorObjective(d, 2, lambda u: u @ A.T + 0.1 * (u**2).sum(axis=-1, keepdims=True),
                            lambda u: A + 0.2 * u[..., None, :], batched=True)
        U = rng.uniform(lo, hi, size=(400, d))
        faces = rng.random(size=U.shape) < 0.4
        U[faces] = np.where(rng.random(size=U.shape) < 0.5, lo, hi)[faces]
        near = rng.random(size=U.shape) < 0.2
        U[near] = (lo + 1e-4 * rng.random(size=U.shape))[near]
        pts, nu = self.assert_matches_nnls(f, k, k.project(U), rng)
        assert nu[:, 1].any() or nu[:, d + 1].any()

    def test_ex1_at_and_near_the_corners(self, rng):
        prob = example1()
        vertices = np.array([[1.0, 1.0], [-1.5, 2.25]])
        U = np.repeat(vertices, 150, axis=0)
        U[2::3] += rng.normal(scale=2e-4, size=U[2::3].shape)  # the rest sit on the vertices
        U = prob.constraints.project(U)
        pts, nu = self.assert_matches_nnls(prob.objective, prob.constraints, U, rng)
        both = (pts.kv <= 1e-3).all(axis=1)
        assert both.sum() >= 200 and (nu[both] > 0.0).any()

    def test_ex1_vertex_multiplier_on_a_row_that_does_not_push(self):
        # At ex1's vertex (-1.5, 2.25) the active normals a1 = (3, 1) and
        # a2 = (-1, -2) meet at 135 degrees. F = (2.1, -1) has a2 . F < 0,
        # yet F = 1.04 a1 + 1.02 a2: both multipliers are positive, so the
        # rows with a_j . F > 0 are not the support of the NNLS solution.
        prob = example1()
        u, pi = np.array([[-1.5, 2.25]]), np.array([[0.3, 0.7]])
        F = np.array([2.1, -1.0])
        pt = evaluate(prob.objective, prob.constraints, u)
        alpha, c, mu = 1.0, 0.1, 0.01
        x = (pt.J[0].T @ pi[0] + (mu + alpha * c) * u[0] - F) / c  # F = J^T pi + (mu + alpha c) u - c x
        params = HopfLaxParams(x, np.zeros((1, 2)), alpha, c, mu)
        np.testing.assert_allclose(stationarity_residual(pt, pi, params)[0], F, atol=1e-12)
        assert (pt.kv == 0.0).all() and prob.constraints.jacobian(u[0])[1] @ F < 0.0
        nu = multiplier_estimate(pt, pi, params)
        np.testing.assert_allclose(nu[0], [1.04, 1.02], rtol=1e-10)
        assert (np.abs(nu - nnls_reference(pt, pi, params)) <= 1e-12).all()

    def test_single_active_rows(self, rng):
        prob = example1()
        a = rng.uniform(-1.4, 0.9, size=200)
        U = np.concatenate([np.stack([a, a * a], axis=1), np.stack([a, (3.0 - a) / 2.0], axis=1)])
        U = U[(prob.constraints.value_batch(U) >= 0.0).all(axis=1)]
        pts, _ = self.assert_matches_nnls(prob.objective, prob.constraints, U, rng)
        assert ((pts.kv <= 1e-3).sum(axis=1) == 1).all()

    @pytest.mark.parametrize("p", [2, 3])
    def test_supports_against_nnls(self, p, rng):
        from scipy.optimize import nnls

        from hopfront.solver import _nnls

        A = rng.normal(size=(300, 4, p))
        A[:100, :, 1] = A[:100, :, 0] * rng.uniform(-1.0, 1.0, size=(100, 1)) + 0.1 * A[:100, :, 1]
        F = rng.normal(size=(300, 4))
        x = _nnls(np.matmul(np.swapaxes(A, 1, 2), A), np.matmul(np.swapaxes(A, 1, 2), F[..., None])[..., 0],
                  np.ones((300, p), dtype=bool), np.linalg.norm(F, axis=1))
        for xi, Ai, Fi in zip(x, A, F):
            ref = nnls(Ai, Fi)[0]
            assert np.abs(xi - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_masks_against_nnls(self, p, rng):
        # random candidate masks; a third of the rows with a nearly collinear
        # pair of columns, and a third with a strongly collinear pair, whose x
        # the Gram form resolves to about eps cond(A)^2 only, so there only
        # the residual is checked. A row alone takes the result it takes in
        # the stack.
        from scipy.optimize import nnls

        from hopfront.solver import _nnls

        n, m = 300, 8
        A = rng.normal(size=(n, m, p))
        mix = np.repeat([0.1, 1e-4, 1.0], n // 3)[:, None]
        A[:, :, 1] = A[:, :, 0] * rng.uniform(-1.0, 1.0, size=(n, 1)) + mix * A[:, :, 1]
        F = rng.normal(size=(n, m))
        on = rng.random(size=(n, p)) < 0.7
        G, b = np.matmul(np.swapaxes(A, 1, 2), A), np.matmul(np.swapaxes(A, 1, 2), F[..., None])[..., 0]
        fnorm = np.linalg.norm(F, axis=1)
        x = _nnls(G, b, on, fnorm)
        assert (x >= 0.0).all() and (x[~on] == 0.0).all()
        for i in range(n):
            c = np.flatnonzero(on[i])
            ref = np.zeros(p)
            if c.size:
                ref[c] = nnls(A[i][:, c], F[i])[0]
            if mix[i, 0] != 1e-4:
                assert np.abs(x[i] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            res, res_ref = np.linalg.norm(A[i] @ x[i] - F[i]), np.linalg.norm(A[i] @ ref - F[i])
            assert abs(res - res_ref) <= 1e-12 * fnorm[i]
        for i in (0, 150, 299):
            assert x[i].tobytes() == _nnls(G[[i]], b[[i]], on[[i]], fnorm[[i]])[0].tobytes()

    def test_parallel_active_rows(self, rng):
        # the same half-plane a . u <= 1/2 written twice, at scales 1 and 3:
        # nu is not unique, the residual is, and the free block of the NNLS
        # never holds both rows, whose Gram block is singular
        a, scale = np.array([1.0, 2.0, -1.0]), np.array([1.0, 3.0])
        k = ConstraintSet(3, 2, lambda u: (0.5 - u @ a)[..., None] * scale,
                          lambda u: scale[:, None] * a, batched=True)
        B = rng.normal(size=(2, 3))
        f = VectorObjective(3, 2, lambda u: u @ B.T + 0.1 * (u**2).sum(axis=-1, keepdims=True),
                            lambda u: B + 0.2 * u[..., None, :], batched=True)
        U = rng.normal(size=(400, 3))
        U -= ((U @ a - 0.5) / (a @ a))[:, None] * a  # on the line
        U[::4] -= 1e-4 * a  # nearly active
        params = HopfLaxParams(rng.normal(size=3), rng.normal(scale=3.0, size=(400, 2)), 1.0, 0.5, 0.1)
        PI = rng.dirichlet(np.ones(2), size=400)
        pts = evaluate(f, k, U)
        nu, ref = multiplier_estimate(pts, PI, params), nnls_reference(pts, PI, params)
        assert (nu >= 0.0).all() and (nu > 0.0).any()
        res = np.linalg.norm(stationarity_residual(pts, PI, params, nu), axis=1)
        res_ref = np.linalg.norm(stationarity_residual(pts, PI, params, ref), axis=1)
        scale_F = np.maximum(1.0, np.linalg.norm(stationarity_residual(pts, PI, params), axis=1))
        assert (np.abs(res - res_ref) <= 1e-12 * scale_F).all()


class TestMeritPsiK:
    def test_zero_at_bound_kkt_point(self):
        f = identity_objective()
        k = halfline_constraint()
        psi = merit_psi(WeightedSum([1.0]), evaluate_one(f, k, [0.0]), np.array([[1.0]]), scalar_params(),
                        nu=np.array([[1.0]]))
        assert psi[0] == pytest.approx(0.0, abs=1e-28)

    def test_interior_zero_multiplier_matches_unconstrained(self, rng):
        prob = example1()
        params = ex1_params()
        g = SoftMax(0.1, 2)
        u = np.array([0.0, 1.0])
        pi = rng.dirichlet([1, 1])
        psi_k = merit_psi(g, evaluate_one(prob.objective, prob.constraints, u), pi[None], params, nu=np.zeros((1, 2)))
        psi = merit_psi(g, evaluate_one(prob.objective, None, u), pi[None], params)
        assert psi_k == psi

    def test_matches_independent_assembly(self, rng):
        prob = example1()
        params = ex1_params(tau=(1.0, -1.0))
        g = SoftMax(0.1, 2)
        rho = 0.5  # the solver's dual prox step
        for _ in range(10):
            u = rng.uniform(-1, 1, size=2)
            pi = rng.dirichlet([1, 1])
            nu = rng.uniform(0, 1, size=2)
            J = prob.objective.jacobian(u)
            Jk = prob.constraints.jacobian(u)
            r = J.T @ pi - Jk.T @ nu + 0.01 * u + 0.1 * u
            B = 0.11 * np.eye(2) + J.T @ J
            det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
            Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
            E = params.dual_shift(pi)
            disp = g.prox_conjugate(pi + rho * (prob.objective.value(u) + E), rho) - pi
            expected = 0.5 * float(r @ (Binv @ r)) + float(disp @ disp) / (2 * rho**2)
            got = merit_psi(g, evaluate_one(prob.objective, prob.constraints, u), pi[None], params, nu=nu[None])[0]
            assert got == pytest.approx(expected, rel=1e-9)


class TestSolveConstrained:
    def test_inactive_box_matches_unconstrained(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        params = scalar_params(x=0.0)
        k = box_constraints(np.array([-1e3]), np.array([1e3]))
        unc = solve(f, g, params, SolverConfig(eps=1e-9))
        con = solve(f, g, params, SolverConfig(eps=1e-9), constraints=k)
        assert unc.converged and con.converged
        assert abs(unc.u_star[0] - con.u_star[0]) <= 1e-8
        assert np.linalg.norm(con.nu_star) <= 1e-8

    def test_active_bound_multiplier(self):
        f = identity_objective()
        g = WeightedSum([1.0])
        res = solve(f, g, scalar_params(x=0.0), SolverConfig(eps=1e-9), constraints=halfline_constraint())
        assert res.converged
        assert abs(res.u_star[0]) <= 1e-9
        assert res.nu_star[0] == pytest.approx(1.0, abs=1e-8)
        assert res.complementarity <= 1e-8
        assert res.feasibility_violation == 0.0

    def test_empty_constraints_bitwise_reduction(self):
        f = VectorObjective(1, 1, lambda u: u**2, lambda u: np.array([[2.0 * u[0]]]))
        g = WeightedSum([1.0])
        params = scalar_params(x=1.0)
        unc = solve(f, g, params)
        con = solve(f, g, params, SolverConfig(), constraints=empty_constraint())
        assert unc.u_star.tobytes() == con.u_star.tobytes()
        assert unc.pi_star.tobytes() == con.pi_star.tobytes()
        assert unc.merit_history == con.merit_history
        assert unc.residual_history == con.residual_history
        assert unc.iterations == con.iterations

    def test_ex1_boundary_solution_with_reference_params(self):
        prob = example1()
        g = SoftMax(0.1, 2)
        cfg = SolverConfig()
        res = solve(prob.objective, g, ex1_params(tau=(0.0, 0.0)), cfg, constraints=prob.constraints)
        assert res.converged
        assert res.residual_history[-1] <= 1e-4  # variational-inequality residual
        assert abs(res.u_star[1] - res.u_star[0] ** 2) <= 1e-6
        assert res.feasibility_violation <= 1e-6
        assert res.complementarity <= 10 * cfg.eps
        from hopfront.oracle import greedy_pareto_filter, sample_cloud

        ref = greedy_pareto_filter(sample_cloud(prob, mc=20000, seed=3))
        obj = prob.objective.value(res.u_star)
        dist = np.sqrt(((ref.points_obj - obj) ** 2).sum(axis=1)).min()
        assert dist <= 0.05

    def test_infeasible_start_without_projector_raises(self):
        f = identity_objective()
        k = ConstraintSet(1, 1, lambda u: u.copy(), lambda u: np.array([[1.0]]))
        with pytest.raises(ValueError):  # the start x / max(alpha, 1) = -1 is infeasible
            solve(f, WeightedSum([1.0]), scalar_params(x=-1.0), constraints=k)

    def test_constraint_set_without_projector_rejected(self):
        # even from a feasible start: only projected value descent is left
        k = ConstraintSet(1, 1, lambda u: u.copy(), lambda u: np.array([[1.0]]))
        with pytest.raises(ValueError, match="projector"):
            solve(identity_objective(), WeightedSum([1.0]), scalar_params(x=2.0), constraints=k)

    def test_unbatched_projector_takes_stack_row_by_row(self):
        calls = []

        def project(u):
            calls.append(u.shape)
            return np.maximum(u, 0.0)

        k = ConstraintSet(1, 1, lambda u: u.copy(), lambda u: np.array([[1.0]]), projector=project)
        assert np.array_equal(k.project(np.array([[-1.0], [2.0]])), [[0.0], [2.0]])
        assert calls == [(1,), (1,)]

    @pytest.mark.parametrize("which", ["ex1", "box"])
    def test_batch_jacobian_matches_points(self, which, rng):
        from dataclasses import replace

        k = example1().constraints if which == "ex1" else box_constraints(np.zeros(3), np.ones(3))
        U = rng.uniform(-1.0, 1.0, size=(7, k.dim_u))
        for batched in (k, replace(k, batched=False)):
            J = np.broadcast_to(batched.jacobian_batch(U), (7, k.dim_con, k.dim_u))
            assert J.tobytes() == np.stack([k.jacobian(u) for u in U]).tobytes()

    def test_iterates_stay_feasible_under_projection(self):
        # every objective evaluation during an ex1 solve is at a feasible point
        prob = example1()
        seen = []
        base_fn = prob.objective.fn

        def recording(u):
            if u.ndim == 1:
                seen.append(u.copy())
            return base_fn(u)

        f = VectorObjective(2, 2, recording, prob.objective.jac)
        g = SoftMax(0.1, 2)
        res = solve(f, g, ex1_params(tau=(4.0, -4.0)), constraints=prob.constraints)
        assert res.converged
        ks = np.array([prob.constraints.value(u) for u in seen])
        assert ks.min() >= -1e-6

    def test_merit_history_non_increasing(self):
        prob = example1()
        g = SoftMax(0.1, 2)
        for tau in ((-8.0, 8.0), (2.0, -2.0), (10.0, -10.0)):
            res = solve(prob.objective, g, ex1_params(tau=tau), constraints=prob.constraints)
            diffs = np.diff(res.merit_history)
            assert diffs.size == 0 or diffs.max() <= 1e-12

    def test_projected_gradient_on_a_curved_set_from_its_jacobian(self):
        # a curved, unbatched constraint set: the tangent projector comes from
        # its active Jacobian row alone
        def kfun(u):
            return np.array([1.0 - u[0] ** 2 - u[1] ** 2])

        def kjac(u):
            return np.array([[-2.0 * u[0], -2.0 * u[1]]])

        def project(u):
            norm = float(np.linalg.norm(u))
            return u if norm <= 1.0 else u / norm

        disc = ConstraintSet(2, 1, kfun, kjac, projector=project)
        f = VectorObjective(2, 2,
                            lambda u: np.array([-u[0], -u[1]]),
                            lambda u: np.array([[-1.0, 0.0], [0.0, -1.0]]))
        g = SoftMax(0.1, 2)
        params = HopfLaxParams(x=np.zeros(2), tau=np.array([1.0, -1.0]), alpha=1.0, c=0.1, mu=0.01)
        res = solve(f, g, params, constraints=disc)
        assert res.converged
        # both objectives pull outward, so the disc boundary is active
        assert np.linalg.norm(res.u_star) == pytest.approx(1.0, abs=1e-6)
        assert res.feasibility_violation <= 1e-8
