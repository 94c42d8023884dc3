"""Inequality constraint sets k(u) >= 0 and projections onto them.

A ConstraintSet bundles the constraint map, its Jacobian, and an optional
projector; the primal-dual solver uses the projector, when there is one, to
keep iterates feasible. Also here: the box clamp, and the exact projection
onto the intersection of a parabola epigraph with a halfspace (Bauschke &
Combettes, Convex Analysis and Monotone Operator Theory, 2nd ed., Thm 3.16).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import NumericalError, as_vector


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Inequality constraints k_i(u) >= 0 with Jacobian and optional projector.

    ``batched`` declares that ``fn``, ``jac`` and ``projector`` also accept
    ``(n, d)`` stacks, where ``jac`` may return one matrix that holds for
    every row. The ``*_batch`` methods and ``project`` otherwise take a stack
    point by point. The solver works out the tangent space of the active
    constraints from the active rows of ``jacobian_batch``. ``bounds`` is
    ``(lo, hi)`` for the sets ``box_constraints`` builds and ``None`` for any
    other; the solver then reads the box's faces from it and never calls
    ``jac``.
    """

    dim_u: int
    dim_con: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    membership_tol: float = 1e-8
    batched: bool = False
    bounds: Optional[tuple] = None

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

    def project(self, u):
        if self.projector is None:
            raise ValueError("constraint set has no projector")
        u = np.asarray(u, dtype=float)
        if u.ndim == 2 and not self.batched:
            return np.array([self.project(p) for p in u]).reshape(u.shape)
        return np.asarray(self.projector(u), dtype=float)


def box_constraints(lo, hi) -> ConstraintSet:
    """Axis-aligned box lo <= u <= hi with the clamp projector.

    Its 2d constraints are u - lo, then hi - u: row i is the lower face of
    coordinate i with gradient +e_i, row d + i its upper face with -e_i.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or not (lo < hi).all():  # False for NaN too
        raise ValueError("box bounds must satisfy lo < hi componentwise")
    d = lo.size
    return ConstraintSet(
        dim_u=d,
        dim_con=2 * d,
        fn=lambda u: np.concatenate([u - lo, hi - u], axis=-1),
        jac=lambda u: np.vstack([np.eye(d), -np.eye(d)]),
        projector=lambda u: u.clip(lo, hi),
        membership_tol=1e-9,
        batched=True,
        bounds=(lo, hi),
    )


# ---------------------------------------------------------------------------
# Projection machinery for the parabola-epigraph / halfspace intersection


_NEWTON_TOL = 1e-6  # Newton polish tolerance on the cubic's residual
_VERTICES = np.array([[1.0, 1.0], [-1.5, 2.25]])  # parabola meets the halfspace edge


def _parabola_root(a, b):
    # Argmin over x of (x-a)^2 + (x^2-b)^2 at every entry of the arrays a and
    # b. The first-order condition is the cubic x^3 + p x + q = 0 with
    # p = (1-2b)/2, q = -a/2: one real root by Cardano's formula where its
    # discriminant is positive, else the closest of the three of the
    # trigonometric form (0 when p = 0); then Newton-polished to _NEWTON_TOL.
    lin = 1.0 - 2.0 * b
    p, q = lin / 2.0, -a / 2.0
    disc = 0.25 * q * q + (p / 3.0) ** 3
    one = disc > 0.0
    with np.errstate(invalid="ignore"):  # the other rows' square roots
        sq = np.sqrt(disc)
        x = np.where(one, np.cbrt(-0.5 * q + sq) + np.cbrt(-0.5 * q - sq), 0.0)
    three = np.flatnonzero(~one & (p != 0.0))
    if three.size:
        m = 2.0 * np.sqrt(-p[three] / 3.0)
        ang = np.arccos(np.minimum(1.0, np.maximum(-1.0, -4.0 * q[three] / (m * m * m))))
        roots = m[:, None] * np.cos((ang[:, None] + 2.0 * np.pi * np.arange(3)) / 3.0)
        dist = (roots - a[three, None]) ** 2 + (roots * roots - b[three, None]) ** 2
        x[three] = roots[np.arange(three.size), dist.argmin(axis=1)]
    for _ in range(60):
        psi = 2.0 * x * x * x + lin * x - a
        go = ~(np.abs(psi) <= _NEWTON_TOL)
        if not go.any():
            return x
        dpsi = 6.0 * x * x + lin
        if (dpsi[go] <= 0.0).any():
            raise NumericalError("epigraph projection root-find stalled")
        x = x - np.divide(psi, dpsi, out=np.zeros_like(x), where=go)
    raise NumericalError("epigraph projection root-find did not converge")


def project_parabola_epigraph(point):
    """Euclidean projection onto {(x, y) : y >= x^2} via the cubic
    first-order condition along the boundary, of a point or of each row of
    an ``(n, 2)`` stack."""
    out = np.array(point, dtype=float)
    P = out.reshape(-1, 2)
    a, b = P[:, 0], P[:, 1]
    below = ~(b >= a * a)
    if below.any():
        x = _parabola_root(a[below], b[below])
        P[below] = np.stack([x, x * x], axis=1)
    return out


def project_halfspace(point, normal=(1.0, 2.0), offset=3.0):
    """Euclidean projection onto {u : normal . u <= offset}, of a point or of
    each row of a stack."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    over = np.maximum(point @ normal - offset, 0.0)
    return point - (over / float(normal @ normal))[..., None] * normal


def project_epigraph_halfspace(u):
    """Euclidean projection onto {u2 >= u1^2} intersect {u1 + 2 u2 <= 3}, of
    a point or of each row of an ``(n, 2)`` stack.

    For two closed convex sets, a projection onto one that lands in the other
    is the projection onto the intersection; otherwise both constraints are
    active at the answer, which in 2-D makes it one of the two vertices.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, 2)
    out = project_parabola_epigraph(U)  # a point of the epigraph is its own
    rows = np.flatnonzero(~(out[:, 0] + 2.0 * out[:, 1] <= 3.0))
    if rows.size:
        a, b = U[rows, 0], U[rows, 1]
        h = project_halfspace(U[rows])
        # Put h exactly on the edge: 3 - 2 h[1] is exact for h[1] in [0.75, 3]
        # (Sterbenz), a span that holds the edge's part inside the epigraph,
        # so h passes the membership test above and projects to itself.
        h[:, 0] = 3.0 - 2.0 * h[:, 1]
        edge = (a + 2.0 * b > 3.0) & (h[:, 1] >= h[:, 0] * h[:, 0])
        d2 = ((_VERTICES - U[rows, None]) ** 2).sum(axis=2)
        out[rows] = np.where(edge[:, None], h, _VERTICES[d2.argmin(axis=1)])
    return out.reshape(u.shape)
