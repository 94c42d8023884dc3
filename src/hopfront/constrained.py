"""Inequality constraint sets k(u) >= 0 and projections onto them.

A ConstraintSet bundles the constraint map, its Jacobian, and an optional
projector; the primal-dual solver uses the projector, when there is one, to
keep iterates feasible. Also here: the box clamp, and the exact projection
onto the intersection of a parabola epigraph with a halfspace (Bauschke &
Combettes, Convex Analysis and Monotone Operator Theory, 2nd ed., Thm 3.16).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import NumericalError, as_vector


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Inequality constraints k_i(u) >= 0 with Jacobian and optional projector.

    ``tangent_basis``, when provided, maps a point and an active-constraint
    mask to an orthonormal basis of the corresponding tangent subspace
    (columns); without it a small SVD computes the null space of the active
    Jacobian rows. ``batched`` declares that ``fn``, ``jac``, ``projector``
    and ``tangent_basis`` also accept ``(n, d)`` stacks (the stack sharing
    one active mask), where ``jac`` and ``tangent_basis`` may return one
    matrix that holds for every row. The ``*_batch`` methods and ``project``
    otherwise take a stack point by point.
    """

    dim_u: int
    dim_con: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    membership_tol: float = 1e-8
    tangent_basis: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batched: bool = False

    def value(self, u):
        u = as_vector(u, self.dim_u, "u")
        return np.asarray(self.fn(u), dtype=float).reshape(self.dim_con)

    def value_batch(self, U):
        U = np.asarray(U, dtype=float).reshape(-1, self.dim_u)
        if self.batched:
            return np.asarray(self.fn(U), dtype=float).reshape(U.shape[0], self.dim_con)
        return np.stack([self.value(u) for u in U])

    def jacobian(self, u):
        u = as_vector(u, self.dim_u, "u")
        return np.asarray(self.jac(u), dtype=float).reshape(self.dim_con, self.dim_u)

    def jacobian_batch(self, U):
        """Jacobians at a stack of points, as an array that broadcasts to
        ``(n, dim_con, dim_u)``."""
        U = np.asarray(U, dtype=float).reshape(-1, self.dim_u)
        if self.batched:
            return np.asarray(self.jac(U), dtype=float)
        return np.stack([self.jacobian(u) for u in U])

    def tangent_batch(self, U, active):
        """Tangent bases at a stack of points that share the active-constraint
        mask ``active``, as an array that broadcasts to ``(n, dim_u, f)``."""
        if self.batched:
            return np.asarray(self.tangent_basis(U, active), dtype=float)
        return np.stack([self.tangent_basis(u, active) for u in U])

    def is_feasible(self, u) -> bool:
        return bool(self.value(u).min(initial=np.inf) >= -self.membership_tol)

    def project(self, u):
        if self.projector is None:
            raise ValueError("constraint set has no projector")
        u = np.asarray(u, dtype=float)
        if u.ndim == 2 and not self.batched:
            return np.array([self.project(p) for p in u]).reshape(u.shape)
        return np.asarray(self.projector(u), dtype=float)


def box_constraints(lo, hi) -> ConstraintSet:
    """Axis-aligned box lo <= u <= hi with the clamp projector."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("box bounds must satisfy lo < hi componentwise")
    d = lo.size
    eye = np.eye(d)
    jac_rows = np.vstack([eye, -eye])

    def tangent_basis(u, active):
        # free coordinates: neither face active
        free = ~(active[:d] | active[d:])
        return eye[:, free]

    return ConstraintSet(
        dim_u=d,
        dim_con=2 * d,
        fn=lambda u: np.concatenate([u - lo, hi - u], axis=-1),
        jac=lambda u: jac_rows,
        projector=lambda u: u.clip(lo, hi),
        membership_tol=1e-9,
        tangent_basis=tangent_basis,
        batched=True,
    )


# ---------------------------------------------------------------------------
# Projection machinery for the parabola-epigraph / halfspace intersection


def _cbrt(v):
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _real_cubic_roots(p, q):
    # Real roots of x^3 + p x + q = 0 (Cardano / trigonometric form).
    disc = 0.25 * q * q + (p / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        return [_cbrt(-0.5 * q + sq) + _cbrt(-0.5 * q - sq)]
    if p == 0.0:
        return [0.0]
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = min(1.0, max(-1.0, -4.0 * q / (m * m * m)))
    a = math.acos(arg)
    return [m * math.cos((a + 2.0 * math.pi * k) / 3.0) for k in range(3)]


_NEWTON_TOL = 1e-6  # Newton polish tolerance on the cubic's residual
_VERTICES = np.array([[1.0, 1.0], [-1.5, 2.25]])  # parabola meets the halfspace edge


def _parabola_root(a, b):
    # Argmin over x of (x-a)^2 + (x^2-b)^2; the first-order condition is the
    # cubic 2x^3 + (1-2b)x - a = 0, Newton-polished to _NEWTON_TOL.
    roots = _real_cubic_roots((1.0 - 2.0 * b) / 2.0, -a / 2.0)
    x = min(roots, key=lambda t: (t - a) ** 2 + (t * t - b) ** 2)
    for _ in range(60):
        psi = 2.0 * x * x * x + (1.0 - 2.0 * b) * x - a
        if abs(psi) <= _NEWTON_TOL:
            return x
        dpsi = 6.0 * x * x + (1.0 - 2.0 * b)
        if dpsi <= 0.0:
            raise NumericalError("epigraph projection root-find stalled")
        x -= psi / dpsi
    raise NumericalError("epigraph projection root-find did not converge")


def project_parabola_epigraph(point):
    """Euclidean projection onto {(x, y) : y >= x^2} via the cubic
    first-order condition along the boundary."""
    a = float(point[0])
    b = float(point[1])
    if b >= a * a:
        return np.array([a, b])
    x = _parabola_root(a, b)
    return np.array([x, x * x])


def project_halfspace(point, normal=(1.0, 2.0), offset=3.0):
    """Euclidean projection onto {u : normal . u <= offset}."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    over = float(normal @ point) - offset
    if over <= 0.0:
        return point.copy()
    return point - (over / float(normal @ normal)) * normal


def project_epigraph_halfspace(u):
    """Euclidean projection onto {u2 >= u1^2} intersect {u1 + 2 u2 <= 3}.

    For two closed convex sets, a projection onto one that lands in the other
    is the projection onto the intersection; otherwise both constraints are
    active at the answer, which in 2-D makes it one of the two vertices.
    An ``(n, 2)`` stack is projected row by row.
    """
    if np.ndim(u) == 2:
        return np.array([project_epigraph_halfspace(p) for p in u]).reshape(-1, 2)
    a, b = float(u[0]), float(u[1])
    if b >= a * a and a + 2.0 * b <= 3.0:
        return np.array([a, b])
    p = project_parabola_epigraph((a, b))
    if p[0] + 2.0 * p[1] <= 3.0:
        return p
    if a + 2.0 * b > 3.0:
        h = project_halfspace((a, b))
        # Put h exactly on the edge: 3 - 2 h[1] is exact for h[1] in [0.75, 3]
        # (Sterbenz), a span that holds the edge's part inside the epigraph,
        # so h passes the membership test above and projects to itself.
        h[0] = 3.0 - 2.0 * h[1]
        if h[1] >= h[0] * h[0]:
            return h
    d2 = ((_VERTICES - (a, b)) ** 2).sum(axis=1)
    return _VERTICES[int(np.argmin(d2))].copy()
