"""Benchmark problem library.

Each builder returns an immutable problem bundle: objectives with analytic
Jacobians, constraints, the feasible bounding box, solver defaults, and the
default sweep path in tau space. Problem ids are the stable strings used by
the CLI and output manifests: ex1, ex2a, ex2b, ex3a-d{N}, ex3b.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constrained import ConstraintSet, box_constraints, project_epigraph_halfspace
from .core import HopfLaxParams, SoftMax, VectorObjective


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    id: str
    objective: VectorObjective
    constraints: Optional[ConstraintSet]
    feasible_box: tuple
    alpha: float
    c: float
    mu: float
    x: np.ndarray
    tau_start: np.ndarray
    tau_end: np.ndarray
    label: str
    optimal_manifold: Optional[Callable[[int], np.ndarray]] = None

    def params_for(self, tau) -> HopfLaxParams:
        return HopfLaxParams(x=self.x, tau=np.asarray(tau, dtype=float), alpha=self.alpha, c=self.c, mu=self.mu)

    def default_preference(self) -> SoftMax:
        return SoftMax(0.1, self.objective.dim_obj)

    def projector(self):
        """Euclidean projection onto the feasible set (``feasible_box`` when
        there are no constraints); maps a stack ``(n, d)`` of points row by
        row."""
        if self.constraints is None:
            lo, hi = self.feasible_box
            return lambda u: np.clip(u, lo, hi)
        if self.constraints.projector is None:
            raise ValueError(f"problem {self.id!r} has constraints but no projector")
        return self.constraints.projector


def _stack_jac(u, rows):
    # Jacobian (n, N, d) of an (n, d) stack from its entries, (n,) columns or
    # constants, which are broadcast to every row.
    J = np.empty((u.shape[0], len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            J[:, i, j] = entry
    return J


def example1() -> BenchmarkProblem:
    """Two convex objectives on the intersection of a parabola epigraph with
    a halfspace; the front lies on the parabola boundary."""

    def ell(u):
        u1, u2 = u[..., 0], u[..., 1]
        return np.stack([-u1, u1 + u2**2], axis=-1)

    def jac(u):
        return _stack_jac(u, [[-1.0, 0.0], [1.0, 2.0 * u.T[1]]])

    def kfun(u):
        u1, u2 = u[..., 0], u[..., 1]
        return np.stack([-(u1**2) + u2, -u1 - 2.0 * u2 + 3.0], axis=-1)

    def kjac(u):
        return _stack_jac(u, [[-2.0 * u.T[0], 1.0], [-1.0, -2.0]])

    def boundary(n):
        # Front candidates live on the parabola arc; add the halfspace edge.
        n_arc = max(2, (3 * n) // 4)
        a = np.linspace(-1.5, 1.0, n_arc)
        arc = np.stack([a, a**2], axis=1)
        b = np.linspace(-1.5, 1.0, max(2, n - n_arc))
        edge = np.stack([b, (3.0 - b) / 2.0], axis=1)
        return np.concatenate([arc, edge])

    constraints = ConstraintSet(
        dim_u=2,
        dim_con=2,
        fn=kfun,
        jac=kjac,
        projector=project_epigraph_halfspace,
        membership_tol=1e-6,
    )
    return BenchmarkProblem(
        id="ex1",
        objective=VectorObjective(2, 2, ell, jac),
        constraints=constraints,
        feasible_box=(np.array([-1.5, 0.0]), np.array([1.0, 2.25])),
        alpha=1.0,
        c=0.1,
        mu=0.01,
        x=np.zeros(2),
        tau_start=np.array([-10.0, 10.0]),
        tau_end=np.array([10.0, -10.0]),
        label="semialgebraic-constrained 2-D",
        optimal_manifold=boundary,
    )


def _box_problem(pid, ell, jac, d, n_obj, alpha, c, mu, tau_start, tau_end, label, manifold=None):
    lo, hi = np.zeros(d), np.ones(d)
    return BenchmarkProblem(
        id=pid,
        objective=VectorObjective(d, n_obj, ell, jac),
        constraints=box_constraints(lo, hi),
        feasible_box=(lo, hi),
        alpha=alpha,
        c=c,
        mu=mu,
        x=np.zeros(d),
        tau_start=np.asarray(tau_start, dtype=float),
        tau_end=np.asarray(tau_end, dtype=float),
        label=label,
        optimal_manifold=manifold,
    )


def _diagonal_manifold(d):
    # a read-only (n, d) view of one column: no n x d stack is stored
    def manifold(n):
        t = np.linspace(0.0, 1.0, max(2, n))
        return np.broadcast_to(t[:, None], (t.size, d))

    return manifold


def example2_case1() -> BenchmarkProblem:
    """Nonconvex planar front on the unit box; valley along u2 = u1."""
    a, b, lam = 0.3, 1.0, 0.5

    def ell(u):
        u1, u2 = u[..., 0], u[..., 1]
        v, x = u2 - u1, u1 - 0.5
        penalty = lam * (v * v)
        l1 = u1 + penalty
        l2 = 1.0 - u1 + a * ((x * x) * (x * x)) - b * (x * x) + penalty
        return np.stack([l1, l2], axis=-1)

    def jac(u):
        u1, u2 = u.T
        dp = 2.0 * lam * (u2 - u1)
        x = u1 - 0.5
        return _stack_jac(u, [[1.0 - dp, dp], [-1.0 + 4.0 * a * (x * x * x) - 2.0 * b * x - dp, dp]])

    return _box_problem(
        "ex2a", ell, jac, 2, 2, 1.0, 0.1, 0.01,
        [-10.0, 10.0], [10.0, -10.0], "nonconvex planar front",
        manifold=_diagonal_manifold(2),
    )


def example2_case2() -> BenchmarkProblem:
    """Highly nonconvex planar front (oscillatory first objective)."""
    g1, b1, b2, eta = 0.05, 1.0, 1.0, 2.0

    def ell(u):
        u1, u2 = u[..., 0], u[..., 1]
        v, x, y = u2 - u1, u1 - 0.25, u1 - 0.75
        pen = v * v
        l1 = u1 + g1 * np.sin(4.0 * np.pi * u1) + b1 * pen
        l2 = ((x * x) * (x * x)) * (y * y) + eta * (1.0 - u1) + b2 * pen
        return np.stack([l1, l2], axis=-1)

    def jac(u):
        u1, u2 = u.T
        dpen = 2.0 * (u2 - u1)
        d1 = 1.0 + 4.0 * np.pi * g1 * np.cos(4.0 * np.pi * u1) - b1 * dpen
        x, y = u1 - 0.25, u1 - 0.75
        d2 = 4.0 * (x * x * x) * (y * y) + 2.0 * ((x * x) * (x * x)) * y - eta - b2 * dpen
        return _stack_jac(u, [[d1, b1 * dpen], [d2, b2 * dpen]])

    return _box_problem(
        "ex2b", ell, jac, 2, 2, 1.0, 0.1, 0.01,
        [-10.0, 10.0], [10.0, -10.0], "highly nonconvex planar front",
        manifold=_diagonal_manifold(2),
    )


def _mean_spread(u):
    s = u.mean(axis=-1)
    r2 = ((u - s[..., None]) ** 2).mean(axis=-1)
    return s, r2


def _mean_spread_jac(u, s, coef, spread):
    # Jacobian of ell_i = h_i(s) + spread_i * r2 from coef_i = h_i'(s): row i
    # is h_i'(s) / d + spread_i * 2 (u - s) / d, with coef (n, N) on an (n, d)
    # stack.
    d = u.shape[-1]
    dev = 2.0 * (u - s[..., None]) / d
    return coef[..., None] * (1.0 / d) + spread[:, None] * dev[..., None, :]


def example3_case1(d: int) -> BenchmarkProblem:
    """Mean/spread objectives on [0,1]^d; Pareto set hugs the diagonal.

    Stiffness scales with d, so c and mu shrink like 1/d; the tau range grows
    like d to keep c*tau, and with it the swept family of scalarizations,
    independent of the dimension.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    a, b, g1, b1, b2 = 1.0, 0.7, 0.1, 0.5, 0.5

    def ell(u):
        s, r2 = _mean_spread(u)
        x = s - 0.5
        l1 = s + g1 * np.sin(2.0 * np.pi * s) + b1 * r2
        l2 = 1.0 - s + a * ((x * x) * (x * x)) - b * (x * x) + b2 * r2
        return np.stack([l1, l2], axis=-1)

    spread = np.array([b1, b2])

    def jac(u):
        s = u.mean(axis=-1)
        x = s - 0.5
        coef = np.stack([1.0 + 2.0 * np.pi * g1 * np.cos(2.0 * np.pi * s),
                         -1.0 + 4.0 * a * (x * x * x) - 2.0 * b * x], axis=-1)
        return _mean_spread_jac(u, s, coef, spread)

    scale = 10.0 * d
    return _box_problem(
        f"ex3a-d{d}", ell, jac, d, 2, 1.0, 0.1 / d, 0.01 / d,
        [-scale, scale], [scale, -scale], f"high-dimensional nonconvex front (d={d})",
        manifold=_diagonal_manifold(d),
    )


def example3_case2() -> BenchmarkProblem:
    """Five objectives over [0,1]^20 built from the mean and spread."""
    d = 20
    a, b, g1, b1, b2 = 1.0, 0.7, 0.1, 0.5, 0.5
    c3, c4, c5, g5 = 0.3, 0.4, 0.2, 0.05

    def ell(u):
        s, r2 = _mean_spread(u)
        x, y, z = s - 0.5, s - 0.2, s - 0.8
        l1 = s + g1 * np.sin(2.0 * np.pi * s) + b1 * r2
        l2 = 1.0 - s + a * ((x * x) * (x * x)) - b * (x * x) + b2 * r2
        l3 = y * y + c3 * r2
        l4 = z * z + c4 * r2
        l5 = 0.5 * (s * s) + g5 * np.sin(4.0 * np.pi * s) + c5 * r2
        return np.stack([l1, l2, l3, l4, l5], axis=-1)

    spread = np.array([b1, b2, c3, c4, c5])

    def jac(u):
        s = u.mean(axis=-1)
        x = s - 0.5
        coef = np.stack(
            [
                1.0 + 2.0 * np.pi * g1 * np.cos(2.0 * np.pi * s),
                -1.0 + 4.0 * a * (x * x * x) - 2.0 * b * x,
                2.0 * (s - 0.2),
                2.0 * (s - 0.8),
                s + 4.0 * np.pi * g5 * np.cos(4.0 * np.pi * s),
            ],
            axis=-1,
        )
        return _mean_spread_jac(u, s, coef, spread)

    # One spread direction across the five shifts traces a curve of distinct
    # tradeoffs; components scale with d like the planar cases.
    w = np.linspace(1.0, -1.0, 5)
    scale = 10.0 * d
    return _box_problem(
        "ex3b", ell, jac, d, 5, 1.0, 0.1 / d, 0.01 / d,
        -scale * w, scale * w, "five objectives, 20-D decision space",
        manifold=_diagonal_manifold(d),
    )


_EX3A = re.compile(r"^ex3a-d(\d+)$")

PROBLEMS = {
    "ex1": example1,
    "ex2a": example2_case1,
    "ex2b": example2_case2,
    "ex3b": example3_case2,
}


def problem_ids():
    return sorted(PROBLEMS) + ["ex3a-d{N}"]


def get_problem(pid: str) -> BenchmarkProblem:
    match = _EX3A.match(pid)
    if match:
        return example3_case1(int(match.group(1)))
    try:
        return PROBLEMS[pid]()
    except KeyError:
        raise KeyError(f"unknown problem {pid!r}; known: {', '.join(problem_ids())}") from None
