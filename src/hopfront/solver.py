"""Primal-dual solver for the Hopf-Lax optimality system, with or without
inequality constraints k(u) >= 0.

One outer iteration updates the dual weights pi, re-estimates (or ascends)
the constraint multipliers nu, and refines the primal point u. A merit
function measuring violation of the full optimality system safeguards every
step: the dual step and the primal step are damped until the merit is
non-increasing, so recorded merit values never rise.

Each point is evaluated once (``evaluate``): the merit, the multipliers, the
stop test, the next dual step and the next inner solve all read that record,
and the inner solve returns its last point's record for the LM polish and
the candidate at that point.

The primal refinement is chosen from the inputs, not from an option: a
smooth scalarizer over an unconstrained problem or a constraint set with a
projector gets the inner minimization of the shifted scalarization (value
descent); a non-smooth scalarizer or a projector-less constraint set gets
damped Levenberg-Marquardt steps on the stationarity residual.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import nnls

from .core import (
    CertificationError,
    NumericalError,
    as_vector,
)

# Acceptance slack for the merit safeguard; absorbs rounding near the floor
# without masking genuine increases.
_MERIT_SLACK = 1e-15

# Step sizes, inner-loop limits and line-search constants. No run sets them,
# so they are fixed here rather than carried in SolverConfig.
_RHO = 0.5  # dual prox step
_ETA = 1.0  # first primal damping of each safeguard trial
_SIGMA = 0.5  # multiplier ascent step
_MAXIT_INNER = 50  # LM refinement steps per outer iteration
_THETAS = (1.0, 0.5, 0.25, 0.125, 0.0)  # dual step damping per safeguard trial
_BACKTRACK_FACTOR = 0.5  # primal step damping per safeguard trial
_ETA_TRIALS = 5  # primal damping trials per dual candidate
_ACTIVE_THRESHOLD = 1e-3  # k(u) below this counts as nearly active
_MAXIT_U = 200  # value-descent steps per inner solve
_TOL_U = 1e-4  # value-descent move tolerance, tightened to 0.01 eps when smaller
_LS_BETA = 0.5  # Armijo step reduction
_LS_C1 = 1e-4  # Armijo sufficient-decrease constant


@dataclass(frozen=True)
class SolverConfig:
    """The solver parameters a run sets: tolerance ``eps`` and outer
    iteration limit ``maxit_outer``."""

    eps: float = 1e-5
    maxit_outer: int = 100

    def __post_init__(self):
        # the chained comparison is False for NaN as well
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        if self.maxit_outer < 1:
            raise ValueError("maxit_outer must be positive")


@dataclass(eq=False)
class SolveResult:
    """Outcome of one solve; ``objectives`` is ell(u_star). Without
    constraints ``nu_star`` is empty and ``complementarity`` and
    ``feasibility_violation`` are 0."""

    u_star: np.ndarray
    pi_star: np.ndarray
    p_bar: np.ndarray
    E_bar: np.ndarray
    objectives: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float] = field(default_factory=list)
    merit_history: List[float] = field(default_factory=list)
    nu_star: np.ndarray = field(default_factory=lambda: np.zeros(0))
    complementarity: float = 0.0
    feasibility_violation: float = 0.0


@dataclass(frozen=True, eq=False)
class Evaluation:
    """ell(u) and Jac[ell](u), plus k(u) and Jac[k](u) when there are
    constraints (``kv`` and ``Jk`` are None otherwise)."""

    u: np.ndarray
    ell: np.ndarray
    J: np.ndarray
    kv: Optional[np.ndarray] = None
    Jk: Optional[np.ndarray] = None


def evaluate(f, k, u, ell=None) -> Evaluation:
    """The one evaluation of the objective (and constraint) maps at u that
    every solver step at u reads; ``ell``, when the caller already holds
    ell(u), is taken as it is."""
    u = np.asarray(u, dtype=float)  # f.jacobian validates it
    ell = f.value(u) if ell is None else ell
    if k is None or k.dim_con == 0:
        return Evaluation(u, ell, f.jacobian(u))
    return Evaluation(u, ell, f.jacobian(u), k.value(u), k.jacobian(u))


def dual_update_pi(g, ell, pi, params):
    """One dual step from the objective vector ``ell`` = ell(u): returns
    (pi_next, E) with E = c (tau + alpha pi).

    Differentiable scalarizers take the gradient shortcut
    pi_next = grad g(ell + E); otherwise a proximal step on the conjugate.
    """
    E = params.dual_shift(pi)
    y = ell + E
    if g.smooth:
        pi_next = g.gradient(y)
    else:
        pi_next = g.prox_conjugate(np.asarray(pi, dtype=float) + _RHO * y, _RHO)
    return pi_next, E


def dual_update_nu(k_vals, nu):
    """Projected ascent in the constraint channel: [nu + sigma (-k)]_+."""
    k_vals = np.asarray(k_vals, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return np.maximum(nu + _SIGMA * (-k_vals), 0.0)


def stationarity_residual(J, u, pi, params, Jk=None, nu=None):
    """J^T pi + mu u - c (x - alpha u) - Jk^T nu.

    ``J`` is Jac[ell](u) and ``Jk`` is Jac[k](u), both already evaluated; the
    constraint term is left out when ``Jk`` is None.
    """
    r = J.T @ np.asarray(pi, dtype=float) + params.mu * u - params.dual_momentum(u)
    if Jk is not None:
        r = r - Jk.T @ np.asarray(nu, dtype=float)
    return r


def preconditioner(J, params, Jk=None):
    """(mu + alpha c) I + J^T J, plus Jk^T Jk when ``Jk`` holds the Jacobian
    rows of the nearly active constraints; positive definite for any u."""
    B = J.T @ J
    B.flat[:: J.shape[1] + 1] += params.mu + params.alpha * params.c
    if Jk is not None and Jk.shape[0] > 0:
        B = B + Jk.T @ Jk
    return B


def spd_solve(B, r):
    # The LAPACK pair behind cho_factor/cho_solve, called directly: for the
    # small systems solved here, the wrappers' argument checks cost several
    # times the factorization. A non-finite B or r shows up in the solution.
    c, info = dpotrf(B, lower=1, clean=0)
    if info == 0:
        x, info = dpotrs(c, r, lower=1)
    if info != 0 or not np.isfinite(x).all():
        raise NumericalError(f"preconditioner factorization failed (info={info})")
    return x


def merit_psi(g, pt, pi, params, *, nu=None) -> float:
    """Violation of the optimality system at the evaluated point ``pt``;
    zero exactly at its solutions.

    First block: squared stationarity residual in the inverse-preconditioner
    norm. Second block: squared fixed-point displacement of the dual prox.
    When ``pt`` carries constraint values, the residual carries the multiplier
    term and a third block adds the ascent displacement of ``nu``.
    """
    pi = as_vector(pi, pt.ell.shape[0], "pi")
    r = stationarity_residual(pt.J, pt.u, pi, params, pt.Jk, nu)
    term1 = 0.5 * float(r @ spd_solve(preconditioner(pt.J, params), r))
    E = params.dual_shift(pi)
    disp = g.prox_conjugate(pi + _RHO * (pt.ell + E), _RHO) - pi
    term2 = float(disp @ disp) / (2.0 * _RHO * _RHO)
    if pt.kv is None:
        return term1 + term2
    nu_disp = dual_update_nu(pt.kv, nu) - nu
    return term1 + term2 + float(nu_disp @ nu_disp) / (2.0 * _SIGMA * _SIGMA)


def multiplier_estimate(pt, pi, params):
    """Nonnegative least-squares multipliers over the nearly active set of
    the evaluated point ``pt``.

    Exact projection zeroes the ascent signal on active constraints, so the
    multipliers are recovered from stationarity instead: minimize
    ||Jac[k]_A^T nu - F|| over nu >= 0 supported on the active set A.
    """
    nu = np.zeros(pt.kv.shape[0])
    active = np.flatnonzero(pt.kv <= _ACTIVE_THRESHOLD)
    if active.size == 0:
        return nu
    F = stationarity_residual(pt.J, pt.u, pi, params)
    sol, _ = nnls(pt.Jk[active].T, F)
    nu[active] = sol
    return nu


def _null_basis(A):
    # Orthonormal basis of null(A) for small dense A.
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    return vt[rank:].T


def _two_metric_step(k, u, gvec, B, Jk, active):
    # Preconditioning a projected-gradient step can rotate the descent
    # direction across the tangent space of a curved active constraint, so the
    # inverse preconditioner is applied within that tangent space only; the
    # normal component keeps the plain gradient, conservatively scaled.
    if not np.any(active):
        return spd_solve(B, gvec)
    Jk_a = Jk[active]
    Q = k.tangent_basis(u, active) if k.tangent_basis is not None else _null_basis(Jk_a)
    lam_hi = B.trace()
    if Q.size == 0:
        return gvec / lam_hi
    tangential = Q @ spd_solve(Q.T @ B @ Q, Q.T @ gvec)
    normal = gvec - Q @ (Q.T @ gvec)
    return tangential + normal / lam_hi


def _inner_projected_gradient(f, g, k, pt, pi_new, params, cfg):
    # Full inner solve of the shifted scalarization over K (or all of R^d when
    # k is None) from the evaluated point pt: projected gradient descent,
    # preconditioned in the two-metric sense, with Armijo backtracking and a
    # plain-gradient arc fallback. Returns the evaluation of its last point.
    E = params.dual_shift(pi_new)
    stiff = params.mu + params.alpha * params.c
    cx = params.c * params.x
    gamma = 1.0 / stiff
    move_tol = min(_TOL_U, 0.01 * cfg.eps)
    res_tol = 0.05 * cfg.eps
    project = k.project if k is not None else (lambda u_: u_)

    def val(u, ell):
        # the composite at u from its objective vector ell = ell(u)
        return g.value(ell + E) + 0.5 * stiff * float(u @ u) - float(cx @ u)

    fu = val(pt.u, pt.ell)
    res = np.inf
    t_warm = 1.0  # accepted step carries over; curvature mismatch is persistent
    for _ in range(_MAXIT_U):
        u = pt.u
        gvec = pt.J.T @ g.gradient(pt.ell + E) + stiff * u - cx
        res = float(np.linalg.norm(u - project(u - gamma * gvec))) / gamma
        if res <= res_tol:
            break
        if k is not None:
            active = pt.kv <= _ACTIVE_THRESHOLD
            B = preconditioner(pt.J, params, pt.Jk[active])
            primary = _two_metric_step(k, u, gvec, B, pt.Jk, active)
        else:
            primary = spd_solve(preconditioner(pt.J, params), gvec)
        cand = fc = None
        for attempt, direction in enumerate((primary, gamma * gvec)):
            t = min(1.0, t_warm / _LS_BETA) if attempt == 0 else 1.0
            for _ in range(30):
                trial = project(u - t * direction)
                ell_t = f.value(trial)
                ft = val(trial, ell_t)
                step = trial - u
                # projection-arc form of the Armijo sufficient decrease
                if ft <= fu - _LS_C1 * float(step @ step) / max(t, 1e-300):
                    cand, fc, ell_c = trial, ft, ell_t
                    if attempt == 0:
                        t_warm = t
                    break
                t *= _LS_BETA
            if cand is not None:
                break
        if cand is None:
            break
        pt, fu = evaluate(f, k, cand, ell_c), fc
        if float(np.linalg.norm(cand - u)) <= move_tol:
            break
    return pt, res


def _refine_lm(f, k, pt, pi, nu, params, eta, cfg, projector, nu_of=None, maxit=_MAXIT_INNER):
    # Damped LM steps at frozen pi from the evaluated point pt until the
    # residual target is met or the iterate stalls; returns the evaluation of
    # the final iterate. ``nu_of`` re-estimates the multipliers at every
    # iterate so the step tracks the active manifold; otherwise nu stays frozen.
    target = 0.05 * cfg.eps

    def residual(pt_):
        nu_ = nu_of(pt_) if nu_of is not None else nu
        return stationarity_residual(pt_.J, pt_.u, pi, params, pt_.Jk, nu_)

    r_cur = residual(pt)
    for _ in range(maxit):
        Jk_active = pt.Jk[pt.kv <= _ACTIVE_THRESHOLD] if pt.kv is not None else None
        B = preconditioner(pt.J, params, Jk_active)
        if projector is None:
            res_here = float(np.linalg.norm(r_cur))
        else:
            gamma = 1.0 / (params.mu + params.alpha * params.c)
            res_here = float(np.linalg.norm(pt.u - projector(pt.u - gamma * r_cur))) / gamma
        if res_here <= target:
            return pt
        step = eta * spd_solve(B, r_cur)
        r_norm = float(np.linalg.norm(r_cur))
        frac = 1.0
        for _ in range(25):
            u_next = pt.u - step
            if projector is not None:
                u_next = projector(u_next)
            if not np.all(np.isfinite(u_next)):
                raise NumericalError("primal update produced non-finite iterate")
            pt_next = evaluate(f, k, u_next)
            r_next = residual(pt_next)
            # damping: the Gauss-Newton model can understate curvature and
            # equal-norm mirror steps would cycle; the required decrease
            # scales with the damping so short steps stay acceptable
            if float(np.linalg.norm(r_next)) <= r_norm * (1.0 - 1e-3 * frac):
                break
            step = 0.5 * step
            frac *= 0.5
        else:
            return pt
        if float(np.linalg.norm(pt_next.u - pt.u)) <= 1e-15 * (1.0 + float(np.linalg.norm(pt.u))):
            return pt_next
        pt, r_cur = pt_next, r_next
    return pt


def run_primal_dual(f, g, params, cfg, constraints=None, u0=None, pi0=None) -> SolveResult:
    """The outer loop behind ``solve``; inputs are assumed consistent."""
    k = constraints
    m = 0 if k is None else k.dim_con
    projector = None if k is None else k.projector
    use_estimate = m > 0 and projector is not None

    u = as_vector(u0, f.dim_u, "u0") if u0 is not None else params.x / max(params.alpha, 1.0)
    if k is not None:
        if projector is not None:
            u = k.project(u)
        elif not k.is_feasible(u):
            raise ValueError("infeasible start and no projector available")
    pi = as_vector(pi0, f.dim_obj, "pi0") if pi0 is not None else np.zeros(f.dim_obj)
    nu = np.zeros(m)

    def stop_residual(pt_, pi_, nu_):
        if not use_estimate:
            return float(np.linalg.norm(stationarity_residual(pt_.J, pt_.u, pi_, params, pt_.Jk, nu_)))
        F = stationarity_residual(pt_.J, pt_.u, pi_, params)
        gamma = 1.0 / (params.mu + params.alpha * params.c)
        return float(np.linalg.norm(pt_.u - projector(pt_.u - gamma * F))) / gamma

    # Smooth scalarizers get the value-descent inner solve whenever iterates
    # can be kept feasible: the residual-only LM refinement cannot cross
    # residual ridges of nonconvex composites, and its Gauss-Newton model
    # misses the penalty-coupling curvature on valley floors and oscillates
    # against box faces. LM steps remain for non-smooth scalarizers, which
    # have no gradient to descend, and for projector-less constraint sets.
    value_descent = g.smooth and (m == 0 or projector is not None)

    def inner_solve(pt_, pi_, nu_):
        pt_in, res_in = _inner_projected_gradient(f, g, k if m > 0 else None, pt_, pi_, params, cfg)
        if m == 0 and res_in > 0.05 * cfg.eps:
            # LM polish: value descent bottoms out at the rounding floor
            # of the composite, the residual does not
            pt_in = _refine_lm(f, k, pt_in, pi_, nu_, params, 1.0, cfg, projector, maxit=10)
        return pt_in

    pt = evaluate(f, k, u)
    psi = merit_psi(g, pt, pi, params, nu=nu)
    psi_floor = cfg.eps**2 * max(1.0, psi)
    merit_history = [psi]
    residual_history: List[float] = []
    converged = False
    iterations = 0

    # The safeguard damps both channels: the dual step by theta, the primal
    # step by eta, accepting the first merit-nonincreasing combination.
    for iterations in range(1, cfg.maxit_outer + 1):
        pi_new, _ = dual_update_pi(g, pt.ell, pi, params)
        # projector-less constraint sets ascend in nu, projected ones estimate it
        nu_asc = dual_update_nu(pt.kv, nu) if m > 0 and not use_estimate else nu

        accepted = None
        for theta in _THETAS:
            if theta == 1.0:
                pi_cand = pi_new
            elif theta == 0.0:
                pi_cand = pi
            else:
                pi_cand = pi + theta * (pi_new - pi)
            nu_seed = nu_asc if theta > 0.0 else nu

            # one inner solve per dual candidate, which eta only relaxes;
            # LM steps are recomputed for each eta
            pt_in = inner_solve(pt, pi_cand, nu_seed) if value_descent else None
            eta = _ETA
            for _ in range(_ETA_TRIALS):
                if value_descent:
                    u_cand = pt.u + eta * (pt_in.u - pt.u)
                    # a candidate at an evaluated point keeps its evaluation
                    known = {pt.u.tobytes(): pt, pt_in.u.tobytes(): pt_in}
                    pt_cand = known.get(u_cand.tobytes()) or evaluate(f, k, u_cand)
                else:
                    nu_of = (lambda p: multiplier_estimate(p, pi_cand, params)) if use_estimate else None
                    pt_cand = _refine_lm(f, k, pt, pi_cand, nu_seed, params, eta, cfg, projector, nu_of)
                eta *= _BACKTRACK_FACTOR
                nu_cand = multiplier_estimate(pt_cand, pi_cand, params) if use_estimate else nu_seed
                psi_cand = merit_psi(g, pt_cand, pi_cand, params, nu=nu_cand)
                if np.isfinite(psi_cand) and psi_cand <= psi + _MERIT_SLACK * max(1.0, psi):
                    accepted = (pt_cand, pi_cand, nu_cand, psi_cand)
                    break
            if accepted is not None:
                break
        if accepted is None:
            iterations -= 1
            break  # merit stalled at its numerical floor

        pt_next, pi_next, nu_next, psi_next = accepted
        res = stop_residual(pt_next, pi_next, nu_next)
        pi_disp = float(np.linalg.norm(pi_next - pi))
        nu_disp = float(np.linalg.norm(nu_next - nu))
        u_disp = float(np.linalg.norm(pt_next.u - pt.u))
        pt, pi, nu, psi = pt_next, pi_next, nu_next, psi_next
        residual_history.append(res)
        merit_history.append(psi)
        if not (np.isfinite(res) and np.isfinite(psi)):
            raise NumericalError("iteration diverged to non-finite values")
        if res <= cfg.eps and pi_disp <= cfg.eps and nu_disp <= cfg.eps and psi <= psi_floor:
            converged = True
            break
        stagnant = max(pi_disp, nu_disp, u_disp) <= 1e-14 * (1.0 + float(np.linalg.norm(pt.u)))
        if stagnant:
            break  # fixed point reached at the solver's numerical resolution

    complementarity = feasibility = 0.0
    if use_estimate:
        nu = multiplier_estimate(pt, pi, params)
    if m > 0:
        complementarity = float(np.max(np.abs(nu * pt.kv)))
        feasibility = max(0.0, -float(pt.kv.min()))
    return SolveResult(
        u_star=pt.u,
        pi_star=pi,
        p_bar=params.dual_momentum(pt.u),
        E_bar=params.dual_shift(pi),
        objectives=pt.ell,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        merit_history=merit_history,
        nu_star=nu,
        complementarity=complementarity,
        feasibility_violation=feasibility,
    )


def solve(f, g, params, cfg=None, u0=None, pi0=None, *, constraints=None) -> SolveResult:
    """Run the primal-dual iteration from u0 = x / max(alpha, 1), pi0 = 0 and
    zero multipliers.

    ``constraints`` (a ConstraintSet k(u) >= 0) adds the multiplier channel;
    without it the problem is unconstrained. Stops when the (projected)
    stationarity residual, the dual displacements, and the merit target are
    all below tolerance. Non-convergence within ``maxit_outer`` is reported
    through ``converged=False``, not an exception; non-finite iterates raise
    NumericalError.
    """
    cfg = cfg or SolverConfig()
    if f.dim_obj != g.dim_obj or params.dim_u != f.dim_u or params.dim_obj != f.dim_obj:
        raise ValueError("dimension mismatch between objective, scalarizer, and params")
    if constraints is not None and constraints.dim_u != f.dim_u:
        raise ValueError("constraint set dimension mismatch")
    return run_primal_dual(f, g, params, cfg, constraints, u0, pi0)


def gap_and_bound(f, g, result, params, cloud):
    """Duality-gap sample and its admissible upper bound.

    gap = g(ell(u*) + E) - min over the cloud of g(ell(u) + E); the bound is
    the Bregman divergence between u* and the regularizer's dual point p/mu.
    The gap reads ell(u*) from ``result.objectives`` (``f`` is not called);
    the bound reads ``result.u_star`` and ``result.p_bar``.
    """
    E = result.E_bar
    value_at_star = g.value(result.objectives + E)
    m_hat = float(np.min(g.value_batch(cloud.points_obj + E)))
    gap = value_at_star - m_hat
    R = params.regularizer()
    bound = R.bregman(result.u_star, R.conjugate_gradient(result.p_bar))
    return gap, bound


def certify_gap(f, g, result, params, cloud, tol=1e-6) -> float:
    """Check 0 <= gap <= Bregman bound (within tol) against a sampled oracle.

    Raises CertificationError carrying both sides when violated.
    """
    if not result.converged:
        raise ValueError("certification requires a converged result")
    gap, bound = gap_and_bound(f, g, result, params, cloud)
    if not (-tol <= gap <= bound + tol):
        raise CertificationError(
            f"gap certificate violated: gap={gap:.3e} outside [{-tol:.1e}, {bound + tol:.3e}]",
            gap=gap,
            lower=-tol,
            upper=bound + tol,
        )
    return gap
