"""Inequality constraint sets k(u) >= 0 and projections onto them.

A ConstraintSet bundles the constraint map, its Jacobian, and an optional
projector; the primal-dual solver uses the projector, when there is one, to
keep iterates feasible. Also here: the box clamp, and Dykstra's method for
the intersection of a parabola epigraph with a halfspace.
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
    Jacobian rows.
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

    def is_feasible(self, u) -> bool:
        return bool(self.value(u).min(initial=np.inf) >= -self.membership_tol)

    def violation(self, u) -> float:
        return max(0.0, -float(self.value(u).min(initial=0.0)))

    def project(self, u):
        if self.projector is None:
            raise ValueError("constraint set has no projector")
        return np.asarray(self.projector(np.asarray(u, dtype=float)), dtype=float)


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


def _parabola_root(a, b, root_tol):
    # Argmin over x of (x-a)^2 + (x^2-b)^2; the first-order condition is the
    # cubic 2x^3 + (1-2b)x - a = 0, Newton-polished to root_tol.
    roots = _real_cubic_roots((1.0 - 2.0 * b) / 2.0, -a / 2.0)
    x = min(roots, key=lambda t: (t - a) ** 2 + (t * t - b) ** 2)
    for _ in range(60):
        psi = 2.0 * x * x * x + (1.0 - 2.0 * b) * x - a
        if abs(psi) <= root_tol:
            return x
        dpsi = 6.0 * x * x + (1.0 - 2.0 * b)
        if dpsi <= 0.0:
            raise NumericalError("epigraph projection root-find stalled")
        x -= psi / dpsi
    raise NumericalError("epigraph projection root-find did not converge")


def project_parabola_epigraph(point, root_tol=1e-6):
    """Euclidean projection onto {(x, y) : y >= x^2} via the cubic
    first-order condition along the boundary."""
    a = float(point[0])
    b = float(point[1])
    if b >= a * a:
        return np.array([a, b])
    x = _parabola_root(a, b, root_tol)
    return np.array([x, x * x])


def project_halfspace(point, normal=(1.0, 2.0), offset=3.0):
    """Euclidean projection onto {u : normal . u <= offset}."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    over = float(normal @ point) - offset
    if over <= 0.0:
        return point.copy()
    return point - (over / float(normal @ normal)) * normal


def dykstra_project(u, cycles=10, root_tol=1e-6, feas_tol=1e-6):
    """Dykstra's corrected alternating projections onto
    {u2 >= u1^2} intersect {u1 + 2 u2 <= 3}.

    Runs ``cycles`` cycles (stopping early once the iterate is stationary and
    feasible), then keeps cycling (bounded) until the output is feasible to
    ``feas_tol``.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    x0, x1 = float(u[0]), float(u[1])
    p0 = p1 = q0 = q1 = 0.0
    for cycle in range(max(20 * cycles, 200)):
        a, b = x0 + p0, x1 + p1
        if b >= a * a:
            y0, y1 = a, b
        else:
            y0 = _parabola_root(a, b, root_tol)
            y1 = y0 * y0
        p0, p1 = a - y0, b - y1
        a, b = y0 + q0, y1 + q1
        over = a + 2.0 * b - 3.0
        if over <= 0.0:
            n0, n1 = a, b
        else:
            n0, n1 = a - over / 5.0, b - 2.0 * over / 5.0
        q0, q1 = a - n0, b - n1
        change = max(abs(n0 - x0), abs(n1 - x1))
        x0, x1 = n0, n1
        feasible = min(-x0 * x0 + x1, -x0 - 2.0 * x1 + 3.0) >= -feas_tol
        if feasible and (cycle + 1 >= cycles or change <= 1e-15 * (1.0 + abs(x0) + abs(x1))):
            return np.array([x0, x1])
    raise NumericalError("Dykstra projection did not reach feasibility")

